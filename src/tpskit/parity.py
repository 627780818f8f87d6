"""Commuting involutive parity operators and the sector TPS they induce.

k independent parity operators on n qubits split the state space into
2^k syndrome sectors of equal dimension 2^(n-k); numbering the sectors
gives a bipartite structure (logical factor, syndrome factor).  The
identification of logical factors across sectors is non-canonical; it
is the deterministic eigensolver ordering.  A set of Pauli strings is also
judged exactly, from their (x|z) bits, with the split's verdicts
(``pure.pauli_parity_shape``, which needs no matrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolationError, DimensionMismatchError, ParitySetError
from .numerics import DEFAULT_TOL, Tolerance, fix_column_phases, hermitian_eig, hermiticity_defect
from .pure import _dependent, _logical_dim, pauli_bits

if TYPE_CHECKING:
    from .tps import TPS

_PHASES = np.array([1, 1j, -1, -1j])


def pauli_string_matrix(s: str) -> np.ndarray:
    """Dense matrix of a Pauli string, refused past the byte budget before it is
    built; leftmost symbol acts on qubit 0, the most significant tensor slot.

    The string is a signed permutation: column r has its one entry in row
    r ^ x, with phase i^(#Y) (-1)^(popcount of r & z).
    """
    n, x, z = pauli_bits(s)
    d = 2 ** n
    r = np.arange(d)
    quarter_turns = (x & z).bit_count() + 2 * sum(r >> q & 1 for q in range(n) if z >> q & 1)
    out = np.zeros((d, d), dtype=complex)
    out[r ^ x, r] = _PHASES[quarter_turns % 4]
    return out


@dataclass(eq=False)
class ParitySet:
    """A validated family of commuting, independent parity operators and the sector
    structure they induce, from validate_parity_set (a hand-built one's columns are not checked)."""

    n: int
    sectors: dict  # +-1 label tuple (one sign per op) -> joint eigenbasis columns, canonical order
    tol: Tolerance  # the tolerance the family was validated at

    @property
    def k(self) -> int:
        return len(next(iter(self.sectors)))

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @cached_property
    def tps(self) -> TPS:
        """The sector TPS, built on first read at self.tol.

        Its dims are (2^(n-k), 2^k): logical factor first, syndrome factor
        second; iso column (l, s) is the l-th basis vector of the s-th
        sector in canonical label order (+1 before -1 at each level).  Only the sectors'
        count and shapes are checked: their columns, eigh's times orthonormal parents, are trusted.
        """
        from .tps import TPS
        dims = (_logical_dim(self.n, self.k), 2 ** self.k)  # (logical, syndrome)
        if len(self.sectors) != dims[1] or any(np.shape(V) != (self.dim, dims[0]) for V in self.sectors.values()):
            raise DimensionMismatchError(f"the sectors are not {dims[1]} bases of shape {(self.dim, dims[0])}")
        iso = np.stack(list(self.sectors.values()), -1, dtype=complex).reshape(self.dim, self.dim)
        return TPS._unchecked(dims, iso, self.tol)


def validate_parity_set(ops, tol: Tolerance = DEFAULT_TOL) -> ParitySet:
    """Check the parity-set invariants, reporting every violation found.

    Each operator must be Hermitian, traceless, and an involution; the
    family must commute pairwise; and the family must be independent:
    splitting the space by each parity in turn must give 2^k joint
    eigenspaces of equal dimension, which holds exactly when every
    nonempty subset product is traceless (character orthogonality on
    Z_2^k).

    The split is the one O(k d^3) step and decides the other two facts.
    Op i commutes with the ops split before it exactly when it leaves
    their joint eigenspaces invariant (the spectral projectors are
    polynomials in those ops), read as max|V^dag X - (V^dag X V) V^dag|
    <= resid_abs on every sector V; an op that does squares to one
    exactly when its restrictions have eigenvalues +-1 within resid_abs.
    The first op that is not Hermitian or not traceless, or that the
    split refuses, ends the split; only then are every X X and every
    pairwise commutator formed, to name the problems.  A resid_abs of 1 or more
    is refused first: at it the identity passes as traceless and 0 as +-1.
    """
    if tol.resid_abs >= 1:
        raise ContractViolationError(f"resid_abs {tol.resid_abs:g} is not below 1, the bound under which "
                                     "a parity set's trace and +-1 checks can decide")
    mats = [np.asarray(X, dtype=complex) for X in ops]
    if not mats:
        raise ParitySetError("a parity set needs at least one operator")
    d = mats[0].shape[0]
    n = d.bit_length() - 1
    if 2 ** n != d:
        raise ParitySetError(f"dimension {d} is not a power of two")
    for X in mats:
        if X.shape != (d, d):
            raise DimensionMismatchError("parity operators differ in dimension")

    sectors = [((), None)]  # level 0: the whole space, no basis
    for i, X in enumerate(mats):
        resid, refined = 0.0, None
        if hermiticity_defect(X) <= tol.resid_abs and abs(np.trace(X)) <= tol.resid_abs * d:
            resid, refined = _split_sectors(sectors, X, tol)
        if refined is None:
            break
        sectors = refined
    else:
        dims_found = sorted(V.shape[1] for _, V in sectors)
        if len(sectors) != 2 ** len(mats) or dims_found[0] != dims_found[-1]:
            raise _dependent(dims_found, len(mats))
        return ParitySet(n=n, sectors=dict(sectors), tol=tol)

    eye = np.eye(d)
    problems = []
    for j, X in enumerate(mats):
        if not hermiticity_defect(X) <= tol.resid_abs:  # a NaN defect too
            problems.append(f"op {j} is not Hermitian")
        if abs(np.trace(X)) > tol.resid_abs * d:
            problems.append(f"op {j} is not traceless")
        if np.max(np.abs(X @ X - eye)) > tol.resid_abs:
            problems.append(f"op {j} is not an involution")
    problems += [f"ops {a} and {b} do not commute" for a, b in combinations(range(len(mats)), 2)
                 if np.max(np.abs(mats[a] @ mats[b] - mats[b] @ mats[a])) > tol.resid_abs]
    if problems:
        raise ParitySetError("; ".join(problems))
    if resid > tol.resid_abs:  # only the split sees what is wrong with op i
        raise ParitySetError(
            f"op {i} leaves the joint eigenspaces of ops {list(range(i))} invariant only "
            f"within {resid:.3e}, though no pair exceeds resid_abs")
    raise ParitySetError(f"op {i} is not an involution")


def _split_sectors(sectors, X, tol: Tolerance):
    """Split every sector V by the +-1 eigenspaces of V^dag X V.

    Returns (invariance residual max|V^dag X - (V^dag X V) V^dag|, refined
    (label, basis) list); the list is None when the residual exceeds
    resid_abs (no split is tried) or a restricted eigenvalue is away
    from +-1.  At level 0 (empty label) V is None, the whole space: the block is X itself, read by
    eigh with no second Hermiticity check (the caller's absolute bound is the stricter), and each
    half is X's rephased eigenvectors, with no product.
    """
    blocks = []
    resid = 0.0
    for label, V in sectors:
        if V is None:
            blocks.append(X)
            continue
        Vh = V.conj().T
        Z = Vh @ X
        B = Z @ V
        resid = max(resid, float(np.max(np.abs(Z - B @ Vh))))
        blocks.append(B)
    if resid > tol.resid_abs:
        return resid, None
    refined = []
    for (label, V), B in zip(sectors, blocks):
        w, W = np.linalg.eigh(B) if V is None else hermitian_eig(B, tol)
        if np.any(np.abs(np.abs(w) - 1.0) > tol.resid_abs):
            return resid, None
        for sign in (+1, -1):
            cols = W[:, w > 0] if sign > 0 else W[:, w < 0]
            if cols.shape[1]:
                refined.append((label + (sign,), fix_column_phases(cols if V is None else V @ cols)))
    return resid, refined


def syndrome_decompose(ps: ParitySet) -> ParitySet:
    """Build ps's sector TPS (ps.tps) and return ps."""
    ps.tps
    return ps
