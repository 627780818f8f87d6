"""Truncated Fock spaces, their mode frames, and mode entanglement.

The truncation keeps occupation tuples with total excitation at most M
(a simplex cutoff), so ladder-operator identities hold exactly on the
interior sector (total excitation <= M-1) and vacuum statements hold
exactly everywhere.  Mode indices in public signatures are 1-based,
matching the subscripts a_1, ..., a_N.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .errors import ContractViolationError, DimensionMismatchError, IndexRangeError, TruncationBoundaryError
from .numerics import DEFAULT_TOL, Tolerance, check_unitary, refuse_past_budget, schmidt_entropy, unitarity_defect
from .tps import EntanglementMeasure, _check_state, _split_cut

_SHARED = weakref.WeakValueDictionary()  # (N, M) -> the occ its live Fock spaces hold


def _check_mode(i: int, N: int) -> None:
    if not 1 <= i <= N:
        raise IndexRangeError(f"mode index {i} out of range 1..{N}")


@dataclass(frozen=True, eq=False)
class FockSpace:
    """N bosonic modes truncated at total excitation M, read in the mode frame U.

    The basis states are the occupations (m_1, ..., m_N) with sum <= M in lexicographic
    order: occ, a read-only (N, dim) int table, holds m_j of state c at [j, c].  It follows
    from (N, M) and is shared by every live Fock space of that size, so N, M, tol and U are
    all a record is built from.  U is the mode frame, a_i^U = sum_j U_ji a_j over the
    reference modes (the identity from build_fock).
    """

    N: int
    M: int
    tol: Tolerance  # every check on the space or its modes decides at it
    U: np.ndarray  # (N, N) complex, the mode frame over the reference modes

    def __post_init__(self):
        object.__setattr__(self, "occ", _ladder_tables(self.N, self.M))

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
    low, w = _lowering_targets(fock.occ, fock.M), np.sqrt(fock.occ)
    a = np.zeros((fock.dim, fock.dim), dtype=complex)
    for j, c in enumerate(coeffs):
        cols = np.flatnonzero(low[j] >= 0)
        a[low[j, cols], cols] += c * w[j, cols]
    return a


def build_fock(N: int, M: int, tol: Tolerance = DEFAULT_TOL) -> FockSpace:
    """Truncated Fock space of dimension binomial(N+M, N), sized up before it is built."""
    occ = _ladder_tables(N, M)  # refused, or held for the record, before U is built
    return FockSpace(N=N, M=M, tol=tol, U=np.eye(len(occ), dtype=complex))


def _ladder_tables(N: int, M: int) -> np.ndarray:
    """The occ table a live Fock space of (N, M) holds, else a new one built in O(N dim),
    refused from (N, M) alone by the size rule, which predicts build_fock's peak (the table,
    the levels' arrays, a few dim-long rows, the N x N frame and the arrays' headers) as a
    (2, N + 8, dim + N + 64) complex array: first at dim's lower bound N + M, exact when
    N = 1 or M = 1, so binomial(N+M, N) is formed only for a size that may fit."""
    if (occ := _SHARED.get((N, M))) is not None:
        return occ
    if N < 1 or M < 1:
        raise ContractViolationError("need at least one mode and cutoff >= 1")
    what = f"building the ladder tables of {N} modes at cutoff {M}"
    refuse_past_budget((2, N + 8, 2 * N + M + 64), what)
    refuse_past_budget((2, N + 8, (dim := comb(N + M, N)) + N + 64), what)
    # grow lexicographic prefixes a mode at a time, one of total s by 0..M-s, keeping each
    # level's parents and values; the final columns are walked back through them below
    total, levels = np.zeros(1, dtype=np.intp), []
    for _ in range(N):
        counts = M + 1 - total
        parent = np.repeat(np.arange(total.size), counts)
        value = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        total = total[parent] + value
        levels.append((parent, value))
    occ, col = np.empty((N, dim), dtype=np.intp), np.arange(dim)
    for j in range(N - 1, -1, -1):
        parent, value = levels.pop()
        occ[j] = value[col]
        col = parent[col]
    occ.flags.writeable = False
    _SHARED[N, M] = occ
    return occ


def _lowering_targets(occ: np.ndarray, M: int) -> np.ndarray:
    """low[j, c], the column a_j sends column c to (-1 where m_j = 0), walked in O(N dim).

    Column c is the lexicographic rank of its occupation.  With n_j = N-1-j modes after
    mode j and R_j = M - (m_1 + ... + m_{j-1}) excitations left for mode j and them,
    c = sum_j sum_{v < m_j} C(n_j + R_j - v, n_j).  Lowering m_j removes
    C(n_j + R_j - m_j + 1, n_j) from term j and adds C(n_i + R_i + 1, n_i) -
    C(n_i + R_i - m_i + 1, n_i) to each later term i, whose R_i grows by one.  No
    binomial here exceeds N dim: int64 holds all."""
    N, dim = occ.shape
    low = np.empty((N, dim), dtype=np.intp)
    rest, later = M + 1 - occ.sum(axis=0), np.zeros(dim, dtype=np.intp)
    binom = np.ones(M + 2, dtype=np.intp)  # C(n_j + t, n_j), t = 0..M+1
    for j in range(N - 1, -1, -1):
        m = occ[j]
        rest += m  # R_j + 1
        drop = binom[rest - m]
        low[j] = np.where(m > 0, np.arange(dim) - drop + later, -1)
        later += binom[rest] - drop  # the growth of the terms from mode j on
        binom = np.cumsum(binom)
    return low


def transform_modes(fock: FockSpace, U) -> FockSpace:
    """fock read in the rotated modes a_i^U = sum_j U_ji a_j, U refused unless unitary
    within fock.tol.resid_abs.

    U is relative to the reference modes, not composed with fock.U, and fock
    is left untouched.  Vacuum annihilation is exact by construction.  The CCR
    then hold to ccr_residual, which adds to U's defect only the reference
    ladders' own rounding, so it is reported and not judged.
    """
    return replace(fock, U=check_unitary(U, fock.tol, "mode rotation", (fock.N, fock.N))[0])


def ccr_residual(fock: FockSpace) -> float:
    """Worst deviation from the CCR of the modes of fock's frame U, bounded from above:
    [a_i, a_k] on the whole space and [a_i, a_k^dag] - delta_ik compressed to the interior.

    The rotated commutators are sums of the reference ones: [a_i^U, a_k^U] =
    sum_jl U_ji U_lk [a_j, a_l], and on the interior [a_i^U, a_k^U dag] - delta_ik =
    (U^T conj U - 1)_ik + sum_jl U_ji conj(U_lk) ([a_j, a_l^dag] - delta_jl).  With defect
    = unitarity_defect(U), the largest entry of U^T conj U - 1, and t the reference ladders'
    own residual (_ladder_rounding), every entry of a sum is at most t sum_j |U_ji| sum_l |U_lk|
    <= N (1 + defect) t, by Cauchy-Schwarz on columns of squared norm <= 1 + defect; the
    upper end of that interval about defect is returned.
    """
    defect = unitarity_defect(fock.U)
    return defect + fock.N * (1 + defect) * _ladder_rounding(fock.M)


def _ladder_rounding(M: int) -> float:
    """t, the reference ladders' own residual: the largest entry of [a_j, a_l] and, on the
    interior, of [a_j, a_l^dag] - delta_jl, in closed form.  Each entry is two products of
    weights sqrt(m) less the delta.  Outside [a_j, a_j^dag] the two products multiply the
    same two weights in swapped order: exactly 0, as IEEE products commute.  What is left,
    at m_j = m for each m in 0..M-1, is (sqrt(m+1)^2 - sqrt(m)^2) - 1, ~1e-15."""
    s = np.sqrt(np.arange(M + 1))
    return float(np.abs(np.diff(s * s) - 1).max())


def single_excitation_state(fock: FockSpace, i: int) -> np.ndarray:
    """The normalized one-photon state of mode i of fock's frame, a_i^U-dagger |0>:
    amplitude conj(U_ji) on each one-photon state, whose ladder weight is 1."""
    _check_mode(i, fock.N)
    v = np.zeros(fock.dim, dtype=complex)
    v[_one_photon(fock)] = fock.U[:, i - 1].conj()
    return v / np.linalg.norm(v)


def _one_photon(fock: FockSpace) -> np.ndarray:
    """Basis positions of a_j^dag |0>, j = 1..N: the rank of the occupation e_j, whose one
    term is C(N - j + M, N - j) (see _lowering_targets)."""
    return np.array([comb(fock.N - j + fock.M, fock.N - j) for j in range(1, fock.N + 1)])


def rotate_single_particle(fock: FockSpace, state, V) -> np.ndarray:
    """Apply an N x N rotation to the one-photon amplitudes of a state.

    V must be unitary and the state finite and supported on total excitation
    <= 1, both within fock.tol.resid_abs.  To express a state in the mode frame of
    transform_modes(fock, U), rotate by U.T (states sum_i c_i a_i^U-dagger |0>
    carry reference amplitudes conj(U) c, so U.T undoes the mode change).
    """
    v = np.asarray(state, dtype=complex).reshape(-1)
    if v.shape[0] != fock.dim:
        raise DimensionMismatchError("state length does not match the Fock dimension")
    V, _ = check_unitary(V, fock.tol, "mode rotation", (fock.N, fock.N))
    if not np.isfinite(v).all():
        raise ContractViolationError("state has a non-finite entry")
    if np.linalg.norm(v[fock.occ.sum(axis=0) > 1]) > fock.tol.resid_abs:
        raise TruncationBoundaryError("state has support beyond the one-excitation sector")
    out, one_photon = np.zeros_like(v), _one_photon(fock)
    out[0], out[one_photon] = v[0], V @ v[one_photon]
    return out


def mode_entanglement(state, fock: FockSpace, cut, kind: str = "vn") -> float:
    """Entanglement of a truncated state across a bipartition of modes.

    The state is Schmidt-decomposed across the cut of reference modes (1-based
    indices): its amplitude on each basis state goes to the row of the state's
    occupations on the cut and the column of those on the complement, each ranked
    among the occupations the truncation keeps.  That is the product of per-mode
    occupation spaces with the rows and columns no kept state reaches left out, refused
    by the size rule, with the copy and workspace LAPACK's SVD takes, before it is built.
    Top-shell weight (total excitation = M) straddling the cut past fock.tol.resid_abs
    is rejected: there the simplex truncation and the product structure disagree.
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
    shape = (3, int(rows.max()) + 1, int(cols.max()) + 1)  # it, LAPACK's copy and workspace
    refuse_past_budget(shape, f"a Schmidt matrix of {shape[1]} x {shape[2]}")
    schmidt = np.zeros(shape[1:], dtype=complex)
    schmidt[rows, cols] = v
    s = np.linalg.svd(schmidt, compute_uv=False)
    return schmidt_entropy(s * s, kind=kind)
