"""Commuting involutive parity operators and the sector TPS they induce.

k independent parity operators on n qubits split the state space into
2^k syndrome sectors of equal dimension 2^(n-k); numbering the sectors
gives a bipartite structure (logical factor, syndrome factor).  The
identification of logical factors across sectors is non-canonical; the
default is the deterministic eigensolver ordering, and callers may pass
explicit per-sector rotations to realign it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .algebra import _block_form_residual
from .errors import ContractViolationError, DimensionMismatchError, ParitySetError
from .numerics import DEFAULT_TOL, Tolerance, fix_column_phases, hermitian_eig, unitarity_defect
from .tps import TPS

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string_matrix(s: str) -> np.ndarray:
    """Dense matrix of a Pauli string; leftmost symbol acts on qubit 0,
    the most significant tensor slot."""
    if not s or any(c not in _PAULI for c in s):
        raise ContractViolationError(f"invalid Pauli string {s!r}")
    out = np.array([[1.0 + 0j]])
    for c in s:
        out = np.kron(out, _PAULI[c])
    return out


@dataclass
class ParitySet:
    """A validated family of commuting, independent parity operators."""

    n: int
    ops: np.ndarray  # (k, 2^n, 2^n)
    sectors: dict  # +-1 label tuple -> joint eigenbasis columns, canonical order

    @property
    def k(self) -> int:
        return self.ops.shape[0]

    @property
    def dim(self) -> int:
        return 2 ** self.n


def validate_parity_set(ops, tol: Tolerance = DEFAULT_TOL) -> ParitySet:
    """Check the parity-set invariants, reporting every violation found.

    Each operator must be Hermitian, traceless, and an involution; the
    family must commute pairwise; and the family must be independent:
    splitting the space by each parity in turn must give 2^k joint
    eigenspaces of equal dimension, which holds exactly when every
    nonempty subset product is traceless (character orthogonality on
    Z_2^k).
    """
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

    eye = np.eye(d)
    problems = []
    for i, X in enumerate(mats):
        if np.max(np.abs(X - X.conj().T)) > tol.resid_abs:
            problems.append(f"op {i} is not Hermitian")
        if abs(np.trace(X)) > tol.resid_abs * d:
            problems.append(f"op {i} is not traceless")
        if np.max(np.abs(X @ X - eye)) > tol.resid_abs:
            problems.append(f"op {i} is not an involution")
    for i, j in combinations(range(len(mats)), 2):
        if np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])) > tol.resid_abs:
            problems.append(f"ops {i} and {j} do not commute")
    if problems:
        raise ParitySetError("; ".join(problems))

    sectors = [((), np.eye(d, dtype=complex))]
    for X in mats:
        nxt = []
        for label, V in sectors:
            w, W = hermitian_eig(V.conj().T @ X @ V, tol)
            if np.any(np.abs(np.abs(w) - 1.0) > tol.resid_abs):
                raise ParitySetError("restricted parity has eigenvalues away from +-1")
            for sign in (+1, -1):
                cols = W[:, w > 0] if sign > 0 else W[:, w < 0]
                if cols.shape[1]:
                    nxt.append((label + (sign,), fix_column_phases(V @ cols)))
        sectors = nxt
    dims_found = sorted(V.shape[1] for _, V in sectors)
    if len(sectors) != 2 ** len(mats) or dims_found[0] != dims_found[-1]:
        raise ParitySetError(
            f"joint eigenspace dimensions {dims_found} are not {2 ** len(mats)} "
            "equal ones: the set is dependent (some subset product is not traceless)")
    return ParitySet(n=n, ops=np.array(mats), sectors=dict(sectors))


@dataclass
class SyndromeDecomposition:
    """Sector bases keyed by their +-1 label tuples, plus the induced TPS.

    The TPS has dims (2^(n-k), 2^k): logical factor first, syndrome
    factor second; iso column (l, s) is the l-th basis vector of the
    s-th sector in canonical label order (+1 before -1 at each level).
    """

    sectors: dict
    tps: TPS

    @property
    def labels(self) -> list:
        return list(self.sectors)


def syndrome_decompose(ps: ParitySet, tol: Tolerance = DEFAULT_TOL,
                       sector_maps: dict | None = None) -> SyndromeDecomposition:
    """Assemble the sector TPS from the validated parity sectors.

    sector_maps optionally reassigns the (non-canonical) logical
    identification: a map from sector label to a unitary applied on that
    sector's logical index.
    """
    n, k, d = ps.n, ps.k, ps.dim
    if k >= n:
        raise ParitySetError(
            f"{k} parities on {n} qubits leave no logical factor to decompose")
    d_code = 2 ** (n - k)

    sectors = dict(ps.sectors)
    if sector_maps:
        for label, V in sectors.items():
            M = sector_maps.get(label)
            if M is not None:
                M = np.asarray(M, dtype=complex)
                if M.shape != (d_code, d_code) or unitarity_defect(M) > tol.resid_abs:
                    raise ContractViolationError(f"sector map for {label} is not unitary")
                sectors[label] = V @ M

    iso = np.zeros((d, d), dtype=complex)
    for s, V in enumerate(sectors.values()):
        for l in range(d_code):
            iso[:, l * 2 ** k + s] = V[:, l]
    tps = TPS((d_code, 2 ** k), iso, tol)
    return SyndromeDecomposition(sectors=sectors, tps=tps)


def conjugate_parity_set(ps: ParitySet, U, tol: Tolerance = DEFAULT_TOL) -> ParitySet:
    """The parity set U X U-dagger, revalidated."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (ps.dim, ps.dim):
        raise DimensionMismatchError("conjugating unitary has the wrong dimension")
    if unitarity_defect(U) > tol.resid_abs:
        raise ContractViolationError("conjugation requires a unitary")
    return validate_parity_set([U @ X @ U.conj().T for X in ps.ops], tol)


def classify_operator(O, sd: SyndromeDecomposition, tol: Tolerance = DEFAULT_TOL) -> str:
    """Classify O as code-local (m x 1), syndrome-local (1 x m), or mixed.

    The operator is pulled back through the sector TPS; the identity is
    both, and is reported as code-local.
    """
    d = sd.tps.dim
    dc, ds = sd.tps.dims
    O = np.asarray(O, dtype=complex)
    if O.shape != (d, d):
        raise DimensionMismatchError(f"operator shape {O.shape} != dimension {d}")
    if _block_form_residual([O], sd.tps.iso, [(dc, ds)], side="left") <= tol.resid_abs:
        return "code-local"
    if _block_form_residual([O], sd.tps.iso, [(dc, ds)], side="right") <= tol.resid_abs:
        return "syndrome-local"
    return "mixed"
