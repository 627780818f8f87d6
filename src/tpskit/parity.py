"""Commuting involutive parity operators and the sector TPS they induce.

k independent parity operators on n qubits split the state space into
2^k syndrome sectors of equal dimension 2^(n-k); numbering the sectors
gives a bipartite structure (logical factor, syndrome factor).  The
identification of logical factors across sectors is non-canonical; it
is the deterministic eigensolver ordering.  A set of Pauli strings is also
judged exactly, from their (x|z) bits, with the split's verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolationError, DimensionMismatchError, ParitySetError
from .numerics import (DEFAULT_TOL, Tolerance, fix_column_phases, hermitian_eig, hermiticity_defect,
                       refuse_past_budget)

if TYPE_CHECKING:
    from .tps import TPS

_PHASES = np.array([1, 1j, -1, -1j])
_X_BITS, _Z_BITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")


def pauli_bits(s: str) -> tuple[int, int, int]:
    """(n, x, z) of an n-letter Pauli string, x marking its X and Y letters and z its Z
    and Y letters, leftmost most significant; refused past the budget, as its matrix is."""
    if not s or any(c not in "IXYZ" for c in s):
        raise ContractViolationError(f"invalid Pauli string {s!r}")
    refuse_past_budget((2 ** len(s),) * 2, f"the matrix of a {len(s)}-qubit Pauli string")
    return len(s), int(s.translate(_X_BITS), 2), int(s.translate(_Z_BITS), 2)


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


def pauli_parity_shape(strings) -> tuple[int, int]:
    """(n, k) of k Pauli strings on n qubits as pauli_bits reads them, judged exactly:
    each refusal is validate_parity_set's and ParitySet.tps's on their matrices.  An
    all-I string is not traceless, two strings commute when popcount(x_a & z_b) +
    popcount(z_a & x_b) is even, and the F2 rank r of the (x|z) rows gives 2^r joint
    eigenspaces of dimension 2^(n-r), so the set is independent when r = k."""
    n = strings[0][0]
    if any(m != n for m, _, _ in strings):
        raise DimensionMismatchError("parity operators differ in dimension")
    problems = [f"op {j} is not traceless" for j, (_, x, z) in enumerate(strings) if not x | z]
    problems += [f"ops {a} and {b} do not commute"
                 for (a, (_, xa, za)), (b, (_, xb, zb)) in combinations(enumerate(strings), 2)
                 if ((xa & zb).bit_count() + (za & xb).bit_count()) % 2]
    if problems:
        raise ParitySetError("; ".join(problems))
    rows, r, k = [x << n | z for _, x, z in strings], 0, len(strings)
    while any(rows):  # eliminate the highest leading bit left: one pivot per rank
        pivot = max(rows)
        rows, r = [min(v, v ^ pivot) for v in rows], r + 1
    if r != k:
        raise _dependent([2 ** (n - r)] * 2 ** r, k)
    _logical_dim(n, k)
    return n, k


def _logical_dim(n: int, k: int) -> int:
    """2^(n-k), the logical factor k independent parities on n qubits leave;
    k >= n leave none and are refused."""
    if k >= n:
        raise ParitySetError(f"{k} parities on {n} qubits leave no logical factor to decompose")
    return 2 ** (n - k)


def _dependent(dims: list, k: int) -> ParitySetError:
    return ParitySetError(f"joint eigenspace dimensions {dims} are not {2 ** k} equal ones: "
                          "the set is dependent (some subset product is not traceless)")


@dataclass
class ParitySet:
    """A validated family of commuting, independent parity operators and the
    sector structure they induce."""

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
        sector in canonical label order (+1 before -1 at each level).
        """
        from .tps import TPS
        iso = np.stack(list(self.sectors.values()), -1).reshape(self.dim, self.dim)
        return TPS((_logical_dim(self.n, self.k), 2 ** self.k), iso, self.tol)  # (logical, syndrome)


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

    sectors = [((), np.eye(d, dtype=complex))]
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
    from +-1.  At level 0 (empty label) V is the identity: the block is X
    itself, which splits bit-identically to (I^dag X) I.  The product V cols
    stays: BLAS sets the signs of its zero parts, which cols alone does not match.
    """
    blocks = []
    resid = 0.0
    for label, V in sectors:
        if not label:
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
        w, W = hermitian_eig(B, tol)
        if np.any(np.abs(np.abs(w) - 1.0) > tol.resid_abs):
            return resid, None
        for sign in (+1, -1):
            cols = W[:, w > 0] if sign > 0 else W[:, w < 0]
            if cols.shape[1]:
                refined.append((label + (sign,), fix_column_phases(V @ cols)))
    return resid, refined


def syndrome_decompose(ps: ParitySet) -> ParitySet:
    """Build ps's sector TPS (ps.tps) and return ps."""
    ps.tps
    return ps
