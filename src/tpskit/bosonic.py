"""Truncated Fock spaces, their mode frames, and mode entanglement.

The truncation keeps occupation tuples with total excitation at most M
(a simplex cutoff), so ladder-operator identities hold exactly on the
interior sector (total excitation <= M-1) and vacuum statements hold
exactly everywhere.  Mode indices in public signatures are 1-based,
matching the subscripts a_1, ..., a_N.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import comb

import numpy as np

from .errors import (
    ContractViolationError,
    DimensionMismatchError,
    IndexRangeError,
    ToleranceError,
    TruncationBoundaryError,
)
from .numerics import DEFAULT_TOL, Tolerance, check_unitary, refuse_past_budget, schmidt_entropy, unitarity_defect
from .tps import EntanglementMeasure, _check_state, _split_cut

_DIM_CAP = 4096
_WORK_CAP = 1 << 23  # N^2 dim, the work of the tables' own CCR check in transform_modes


def _check_mode(i: int, N: int) -> None:
    if not 1 <= i <= N:
        raise IndexRangeError(f"mode index {i} out of range 1..{N}")


@dataclass(eq=False)
class FockSpace:
    """N bosonic modes truncated at total excitation M, read in the mode frame U.

    The basis states are the occupations (m_1, ..., m_N) with sum <= M in
    lexicographic order, stored once as the (N, dim) table occ: column c
    holds the occupation of basis state c.  The ladder operators are stored
    as (N, dim) tables in the same layout, one row per mode:
    a_j e_c = w[j, c] e_low[j, c] with w[j, c] = sqrt(m_j), and low[j, c] = -1
    where m_j = 0.  Raising inverts them: a_j^dag e_c lands on the column
    c' with low[j, c'] = c, with weight w[j, c'].  U is the mode frame,
    a_i^U = sum_j U_ji a_j over those reference modes (the identity from
    build_fock), and ccr its ccr_residual, computed once, on first read.
    """

    N: int
    M: int
    occ: np.ndarray  # (N, dim) int, the occupation m_j of each basis state
    low: np.ndarray  # (N, dim) int, -1 where the mode is empty
    w: np.ndarray  # (N, dim) float
    tol: Tolerance  # every check on the space or its modes decides at it
    U: np.ndarray  # (N, N) complex, the mode frame over the tables

    @cached_property
    def ccr(self) -> float:
        return ccr_residual(self)

    @property
    def dim(self) -> int:
        return self.occ.shape[1]

    @property
    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def index(self, occupation) -> int:
        """Basis position of the occupation (m_1, ..., m_N)."""
        occupation = tuple(occupation)
        match = (self.occ.T == occupation).all(axis=1) if len(occupation) == self.N else [False]
        if not np.any(match):
            raise ValueError(f"occupation {occupation} is not one of the {self.N}-mode "
                             f"occupations kept by the cutoff M = {self.M}")
        return int(np.argmax(match))

    def lowering(self, i: int) -> np.ndarray:
        """Dense annihilation matrix of mode i (1-based) of the frame U, built on demand."""
        _check_mode(i, self.N)
        return _dense(self, self.U[:, i - 1])

    def interior_mask(self) -> np.ndarray:
        """Basis states with total excitation <= M-1, where the CCR are exact."""
        return self.occ.sum(axis=0) <= self.M - 1


def _dense(fock: FockSpace, coeffs) -> np.ndarray:
    """The dim x dim matrix of sum_j coeffs[j] a_j, for inspection only, refused past BYTES_BUDGET."""
    refuse_past_budget((fock.dim, fock.dim), f"a dense ladder matrix at dim {fock.dim}")
    a = np.zeros((fock.dim, fock.dim), dtype=complex)
    for j, c in enumerate(coeffs):
        cols = np.flatnonzero(fock.low[j] >= 0)
        a[fock.low[j, cols], cols] += c * fock.w[j, cols]
    return a


def build_fock(N: int, M: int, tol: Tolerance = DEFAULT_TOL) -> FockSpace:
    """Truncated Fock space of dimension binomial(N+M, N), sized up before it is built."""
    if N < 1 or M < 1:
        raise ContractViolationError("need at least one mode and cutoff >= 1")
    if N + M > _DIM_CAP or comb(N + M, N) > _DIM_CAP:  # binomial(N+M, N) >= N+M
        raise ContractViolationError(
            f"dimension binomial({N + M}, {N}) exceeds the configured cap {_DIM_CAP}")
    dim = comb(N + M, N)
    if N * N * dim > _WORK_CAP:
        raise ContractViolationError(
            f"table check work N^2 dim = {N * N * dim} exceeds the configured cap {_WORK_CAP}")
    # grow lexicographic prefixes a mode at a time: k excitations left to place -> 0..k
    occ = np.zeros((0, 1), dtype=np.intp)
    for _ in range(N):
        counts = M + 1 - occ.sum(axis=0)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        occ = np.vstack([np.repeat(occ, counts, axis=1), np.arange(starts.size) - starts])
    # column c is the lexicographic rank of its occupation.  With n_j = N-1-j
    # modes after mode j and R_j = M - (m_1 + ... + m_{j-1}) excitations left
    # for mode j and them, c = sum_j sum_{v < m_j} C(n_j + R_j - v, n_j).
    # Lowering m_j removes C(n_j + R_j - m_j + 1, n_j) from term j and adds
    # C(n_i + R_i + 1, n_i) - C(n_i + R_i - m_i + 1, n_i) to each later term i,
    # whose R_i grows by one.  No binomial here exceeds N dim: int64 holds all.
    after = np.ones((N, M + 2), dtype=np.int64)  # row j: C(n_j + t, n_j), t = 0..M+1
    for j in range(N - 2, -1, -1):
        after[j] = np.cumsum(after[j + 1])
    R1 = M + 1 - (np.cumsum(occ, axis=0) - occ)
    drop = np.take_along_axis(after, R1 - occ, axis=1)
    grow = np.take_along_axis(after, R1, axis=1) - drop
    later = np.cumsum(grow[::-1], axis=0)[::-1] - grow
    low = np.where(occ > 0, np.arange(dim) - drop + later, -1)
    w = np.sqrt(occ)
    for table in (occ, low, w):  # shared by every frame and read by its cached ccr
        table.flags.writeable = False
    return FockSpace(N=N, M=M, occ=occ, low=low, w=w, tol=tol, U=np.eye(N, dtype=complex))


def transform_modes(fock: FockSpace, U) -> FockSpace:
    """fock read in the rotated modes a_i^U = sum_j U_ji a_j, invariants verified.

    U is relative to the reference tables, not composed with fock.U: the new
    record shares fock's tables, and fock is left untouched.  Vacuum
    annihilation is exact by construction.  A CCR residual (ccr: the unitarity
    defect of U plus N (1 + defect) times the tables' own residual) above
    fock.tol.resid_abs raises: once U passes the unitarity check, only broken
    tables or a defect within that margin of resid_abs can fail it.
    """
    rotated = replace(fock, U=check_unitary(U, fock.tol, "mode rotation", (fock.N, fock.N))[0])
    if rotated.ccr > fock.tol.resid_abs:
        raise ToleranceError(f"CCR residual {rotated.ccr:.3e} exceeds {fock.tol.resid_abs:.3e}")
    return rotated


def ccr_residual(fock: FockSpace) -> float:
    """Worst deviation from the CCR of the modes of fock's frame U, bounded
    from above: [a_i, a_k] on the whole space and [a_i, a_k^dag] - delta_ik
    compressed to the interior.  FockSpace.ccr caches it.

    The rotated commutators are sums of the reference ones:
    [a_i^U, a_k^U] = sum_jl U_ji U_lk [a_j, a_l], and on the interior
    [a_i^U, a_k^U dag] - delta_ik = (U^T conj U - 1)_ik
    + sum_jl U_ji conj(U_lk) ([a_j, a_l^dag] - delta_jl).
    Let defect = unitarity_defect(U), the largest entry of U^T conj U - 1,
    and t the tables' own residual (_table_ccr_residual).  Every entry of a
    sum is at most t sum_j |U_ji| sum_l |U_lk| <= N (1 + defect) t, by
    Cauchy-Schwarz on columns of squared norm <= 1 + defect, so the
    residual lies within N (1 + defect) t of defect; the upper end is
    returned.  Exact tables leave t at the roundoff of sqrt(m)^2.
    """
    defect = unitarity_defect(fock.U)
    return defect + fock.N * (1 + defect) * _table_ccr_residual(fock)


def _table_ccr_residual(fock: FockSpace) -> float:
    """Largest entry of [a_j, a_l] on every column and of [a_j, a_l^dag] -
    delta_jl on the interior columns, over all pairs, from the tables in
    O(N^2 dim).  A ladder sends a column to at most one row, so a product
    of two does too: a commutator column holds three terms (two products
    and the delta), summed where they share a row."""
    N, dim = fock.low.shape
    p, c = np.nonzero(fock.low >= 0)
    # each table gets a sink column dim, where vanished products land with weight 0
    low, up = np.full((2, N, dim + 1), dim)
    w, wu = np.zeros((2, N, dim + 1))
    low[p, c], w[p, c] = fock.low[p, c], fock.w[p, c]
    up[p, fock.low[p, c]], wu[p, fock.low[p, c]] = c, fock.w[p, c]  # raising, inverted
    every, inside = np.arange(dim), np.flatnonzero(fock.interior_mask())
    modes = np.arange(N)[:, None]  # mode l along axis 0; j loops
    worst = 0.0
    for j in range(N):
        for b, wb, cols, delta in ((low, w, every, 0.0), (up, wu, inside, 1.0 * (modes == j))):
            terms = ((low[j, b[:, cols]], w[j, b[:, cols]] * wb[:, cols]),  # a_j b_l e_c
                     (b[:, low[j, cols]], -wb[:, low[j, cols]] * w[j, cols]),  # -b_l a_j e_c
                     (cols, -delta))
            for row, _ in terms:
                entry = sum(np.where(r == row, v, 0.0) for r, v in terms)
                worst = max(worst, float(np.abs(entry).max(initial=0.0)))
    return worst


def single_excitation_state(fock: FockSpace, i: int) -> np.ndarray:
    """The normalized one-photon state of mode i of fock's frame, a_i^U-dagger |0>:
    amplitude conj(U_ji) on each one-photon state, whose ladder weight is 1."""
    _check_mode(i, fock.N)
    v = np.zeros(fock.dim, dtype=complex)
    v[_one_photon(fock)] = fock.U[:, i - 1].conj()
    return v / np.linalg.norm(v)


def _one_photon(fock: FockSpace) -> np.ndarray:
    """Basis positions of a_j^dag |0>, j = 1..N: the columns that lowering
    mode j sends to the vacuum."""
    return np.argmax(fock.low == 0, axis=1)


def rotate_single_particle(fock: FockSpace, state, V) -> np.ndarray:
    """Apply an N x N rotation to the one-photon amplitudes of a state.

    V must be unitary and the state supported on total excitation <= 1,
    both within fock.tol.resid_abs.  To express a state in the mode frame of
    transform_modes(fock, U), rotate by U.T (states sum_i c_i a_i^U-dagger |0>
    carry reference amplitudes conj(U) c, so U.T undoes the mode change).
    """
    v = np.asarray(state, dtype=complex).reshape(-1)
    if v.shape[0] != fock.dim:
        raise DimensionMismatchError("state length does not match the Fock dimension")
    V, _ = check_unitary(V, fock.tol, "mode rotation", (fock.N, fock.N))
    if np.linalg.norm(v[fock.occ.sum(axis=0) > 1]) > fock.tol.resid_abs:
        raise TruncationBoundaryError(
            "state has support beyond the one-excitation sector")
    one_photon = _one_photon(fock)
    out = np.zeros_like(v)
    out[0] = v[0]
    out[one_photon] = V @ v[one_photon]
    return out


def mode_entanglement(state, fock: FockSpace, cut, kind: str = "vn") -> float:
    """Entanglement of a truncated state across a bipartition of modes.

    The state is Schmidt-decomposed across the cut of reference modes
    (1-based indices): its amplitude on each basis state goes to the row of
    the state's occupations on the cut and the column of those on the
    complement, each ranked among the occupations the truncation keeps.
    That is the product of per-mode occupation spaces with the rows and
    columns no kept state reaches left out.  Top-shell weight (total
    excitation = M) straddling the cut past fock.tol.resid_abs is rejected:
    there the simplex truncation and the product structure disagree.
    """
    EntanglementMeasure(kind)  # refuses an unknown kind before any work
    v = _check_state(state, fock.dim)
    left, right = _split_cut(fock.N, cut)
    occ = fock.occ

    straddle = (occ.sum(axis=0) == fock.M) & occ[left].any(axis=0) & occ[right].any(axis=0)
    boundary_weight = float(np.sum(np.abs(v[straddle]) ** 2))
    if boundary_weight > fock.tol.resid_abs:
        raise TruncationBoundaryError(
            f"top-shell weight {boundary_weight:.3e} straddles the cut; raise the "
            "cutoff to make the factorization truncation-safe")

    rows, cols = (np.unique(occ[side].T, axis=0, return_inverse=True)[1].reshape(-1)
                  for side in (left, right))
    schmidt = np.zeros((rows.max() + 1, cols.max() + 1), dtype=complex)
    schmidt[rows, cols] = v
    s = np.linalg.svd(schmidt, compute_uv=False)
    return schmidt_entropy(s * s, kind=kind)
