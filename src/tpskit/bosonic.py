"""Truncated Fock spaces, transformed bosonic modes, and mode entanglement.

The truncation keeps occupation tuples with total excitation at most M
(a simplex cutoff), so ladder-operator identities hold exactly on the
interior sector (total excitation <= M-1) and vacuum statements hold
exactly everywhere.  Mode indices in public signatures are 1-based,
matching the subscripts a_1, ..., a_N.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (
    ContractViolationError,
    DimensionMismatchError,
    IndexRangeError,
    ToleranceError,
    TruncationBoundaryError,
)
from .numerics import DEFAULT_TOL, Tolerance, schmidt_entropy, unitarity_defect
from .tps import _check_state, _split_cut

_DIM_CAP = 4096
_EMBED_CAP = 1 << 20


def _check_mode(i: int, N: int) -> None:
    if not 1 <= i <= N:
        raise IndexRangeError(f"mode index {i} out of range 1..{N}")


@dataclass
class FockSpace:
    """N bosonic modes truncated at total excitation M.

    basis holds the occupation tuples (m_1, ..., m_N) with sum <= M in
    lexicographic order, and positions maps each tuple to its place there.
    The ladder operators are stored as (N, dim) tables, one row per mode:
    a_j e_c = w[j, c] e_low[j, c] with w[j, c] = sqrt(m_j), and low[j, c] = -1
    where m_j = 0.  Raising inverts them: a_j^dag e_c lands on the column
    c' with low[j, c'] = c, with weight w[j, c'].
    """

    N: int
    M: int
    basis: list
    positions: dict
    low: np.ndarray  # (N, dim) int, -1 where the mode is empty
    w: np.ndarray  # (N, dim) float

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def index(self, occupation) -> int:
        return self.positions[tuple(occupation)]

    def lowering(self, i: int) -> np.ndarray:
        """Dense annihilation matrix of mode i (1-based), built on demand."""
        _check_mode(i, self.N)
        return _dense(self, np.eye(self.N)[i - 1])

    def interior_mask(self) -> np.ndarray:
        """Basis states with total excitation <= M-1, where the CCR are exact."""
        return np.array([sum(m) <= self.M - 1 for m in self.basis])


def _dense(fock: FockSpace, coeffs) -> np.ndarray:
    """The dim x dim matrix of sum_j coeffs[j] a_j, for inspection only."""
    a = np.zeros((fock.dim, fock.dim), dtype=complex)
    for j, c in enumerate(coeffs):
        cols = np.flatnonzero(fock.low[j] >= 0)
        a[fock.low[j, cols], cols] += c * fock.w[j, cols]
    return a


def _raising(fock: FockSpace):
    """(N, dim) tables of a_j^dag, inverted from the lowering ones:
    a_j^dag e_c = wu[j, c] e_up[j, c], with up = -1 where the raised state
    leaves the truncation."""
    up = np.full_like(fock.low, -1)
    wu = np.zeros_like(fock.w)
    j, c = np.nonzero(fock.low >= 0)
    up[j, fock.low[j, c]] = c
    wu[j, fock.low[j, c]] = fock.w[j, c]
    return up, wu


def build_fock(N: int, M: int) -> FockSpace:
    """Truncated Fock space with dimension binomial(N+M, N)."""
    if N < 1 or M < 1:
        raise ContractViolationError("need at least one mode and cutoff >= 1")
    dim = comb(N + M, N)
    if dim > _DIM_CAP:
        raise ContractViolationError(
            f"dimension {dim} exceeds the configured cap {_DIM_CAP}")
    basis = [()]  # occupation prefixes, kept in lexicographic order
    for _ in range(N):
        basis = [m + (k,) for m in basis for k in range(M + 1 - sum(m))]
    positions = {m: i for i, m in enumerate(basis)}
    occ = np.array(basis).T  # (N, dim)
    # base-(M+1) keys ascend with the lexicographic basis; lowering mode j
    # subtracts its place value (Python ints once (M+1)^N outgrows int64)
    place = np.array([(M + 1) ** (N - 1 - j) for j in range(N)],
                     dtype=np.int64 if (M + 1) ** N < 2 ** 63 else object)
    keys = place @ occ
    low = np.where(occ > 0, np.searchsorted(keys, keys - place[:, None]), -1)
    w = np.sqrt(occ)
    return FockSpace(N=N, M=M, basis=basis, positions=positions, low=low, w=w)


@dataclass
class ModeSet:
    """Reference Fock space plus the mode rotation U of a_i^U = sum_j U_ji a_j."""

    fock: FockSpace
    U: np.ndarray  # (N, N)
    ccr: float = float("nan")  # the ccr_residual transform_modes verified

    def lowering(self, i: int) -> np.ndarray:
        """Dense annihilation matrix of rotated mode i (1-based), built on demand."""
        _check_mode(i, self.fock.N)
        return _dense(self.fock, self.U[:, i - 1])


def transform_modes(fock: FockSpace, U, tol: Tolerance = DEFAULT_TOL) -> ModeSet:
    """Rotated modes a_i^U = sum_j U_ji a_j, with their invariants verified.

    Vacuum annihilation is exact by construction; the canonical
    commutation relations are re-verified on the interior sector, and a
    residual above resid_abs (impossible for a genuinely unitary U) raises.
    """
    U = np.asarray(U, dtype=complex)
    N = fock.N
    if U.shape != (N, N):
        raise DimensionMismatchError(f"mode rotation shape {U.shape} != ({N}, {N})")
    if unitarity_defect(U) > tol.resid_abs:
        raise ContractViolationError("mode rotation is not unitary")
    ms = ModeSet(fock=fock, U=U)

    # rotated weights on the vacuum column: U_ji w[j, 0]
    if np.any(U * fock.w[:, :1] != 0):
        raise ToleranceError("transformed modes fail exact vacuum annihilation")
    ms.ccr = ccr_residual(ms)
    if ms.ccr > tol.resid_abs:
        raise ToleranceError(f"CCR residual {ms.ccr:.3e} exceeds {tol.resid_abs:.3e}")
    return ms


def _compose(outer, inner, cols):
    """Nonzero entries of outer_p inner_q e_c for every mode pair (p, q) and
    column c in cols, from (rows, weights) ladder tables: flat arrays
    (p, q, row, column, weight)."""
    (ro, wo), (ri, wi) = outer, inner
    mid = ri[:, cols]  # (N, C): inner_q e_c lands on row mid[q, c]
    rows = ro[:, np.maximum(mid, 0)]  # (N, N, C): [p, q, c]
    weights = wo[:, np.maximum(mid, 0)] * wi[:, cols]
    p, q, c = np.nonzero((mid >= 0) & (rows >= 0))
    return p, q, rows[p, q, c], cols[c], weights[p, q, c]


def _max_entry(rows, cols, vals, dim: int) -> float:
    """Largest modulus over every (pair, row, column) once the values
    landing on the same (row, column) are summed; vals is (pairs, entries)."""
    if rows.size == 0:
        return 0.0
    key = rows * dim + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    return float(np.abs(np.add.reduceat(vals[:, order], starts, axis=1)).max())


def ccr_residual(ms: ModeSet) -> float:
    """Worst deviation from the CCR: [a_i, a_j] on the whole space and
    [a_i, a_j^dag] - delta_ij compressed to the interior sector.

    Every pair (i, j) is checked at once from the ladder tables: a product
    of two rotated modes has at most N^2 entries per column, so the cost is
    O(N^4 dim) with no dim x dim matrix formed.
    """
    fock, U = ms.fock, ms.U
    N, dim = fock.N, fock.dim
    lower, upper = (fock.low, fock.w), _raising(fock)
    pairs = N * N

    # [a_i, a_k] = sum_pq (U_pi U_qk - U_pk U_qi) a_p a_q
    both = np.einsum("pi,qk->ikpq", U, U).reshape(N, N, pairs)
    coef = (both - both.swapaxes(0, 1)).reshape(pairs, pairs)
    p, q, rows, cols, wts = _compose(lower, lower, np.arange(dim))
    worst = _max_entry(rows, cols, coef[:, p * N + q] * wts, dim)

    # [a_i, a_k^dag] - delta_ik
    #   = sum_jl U_ji conj(U_lk) (a_j a_l^dag - a_l^dag a_j) - delta_ik
    # on the interior columns; both products keep a column's total
    # excitation, so their rows are interior too
    coef = np.einsum("ji,lk->ikjl", U, U.conj()).reshape(pairs, pairs)
    inside = np.flatnonzero(fock.interior_mask())
    j1, l1, rows1, cols1, wts1 = _compose(lower, upper, inside)
    l2, j2, rows2, cols2, wts2 = _compose(upper, lower, inside)
    rows = np.concatenate([rows1, rows2, inside])
    cols = np.concatenate([cols1, cols2, inside])
    vals = np.concatenate([
        coef[:, j1 * N + l1] * wts1,
        -coef[:, j2 * N + l2] * wts2,
        np.broadcast_to(-np.eye(N).reshape(pairs, 1), (pairs, inside.size)),
    ], axis=1)
    return max(worst, _max_entry(rows, cols, vals, dim))


def single_excitation_state(ms: ModeSet, i: int) -> np.ndarray:
    """The normalized one-photon state of rotated mode i, a_i^U-dagger |0>:
    amplitude conj(U_ji) on each one-photon state, whose ladder weight is 1."""
    fock = ms.fock
    _check_mode(i, fock.N)
    v = np.zeros(fock.dim, dtype=complex)
    v[_one_photon(fock)] = ms.U[:, i - 1].conj()
    return v / np.linalg.norm(v)


def _one_photon(fock: FockSpace) -> np.ndarray:
    """Basis positions of a_j^dag |0>, j = 1..N: the columns that lowering
    mode j sends to the vacuum."""
    return np.argmax(fock.low == 0, axis=1)


def rotate_single_particle(fock: FockSpace, state, V) -> np.ndarray:
    """Apply an N x N rotation to the one-photon amplitudes of a state.

    The state must be supported on total excitation <= 1.  To express a
    state in the mode frame of transform_modes(fock, U), rotate by U.T
    (states sum_i c_i a_i^U-dagger |0> carry reference amplitudes
    conj(U) c, so U.T undoes the mode change).
    """
    v = np.asarray(state, dtype=complex).reshape(-1)
    if v.shape[0] != fock.dim:
        raise DimensionMismatchError("state length does not match the Fock dimension")
    V = np.asarray(V, dtype=complex)
    if V.shape != (fock.N, fock.N):
        raise DimensionMismatchError("rotation must act on the mode amplitudes")
    one_photon = _one_photon(fock)
    support = np.ones(fock.dim, dtype=bool)
    support[0] = False
    support[one_photon] = False
    if np.linalg.norm(v[support]) > DEFAULT_TOL.resid_abs:
        raise TruncationBoundaryError(
            "state has support beyond the one-excitation sector")
    out = np.zeros_like(v)
    out[0] = v[0]
    out[one_photon] = V @ v[one_photon]
    return out


def mode_entanglement(state, ms, cut, kind: str = "vn", tol: Tolerance = DEFAULT_TOL) -> float:
    """Entanglement of a truncated state across a bipartition of modes.

    The state is embedded in the product of per-mode occupation spaces
    (each of dimension M+1) and Schmidt-decomposed across the cut of
    reference modes (1-based indices).  States with weight on the top
    shell (total excitation = M) straddling the cut are rejected: there
    the simplex truncation and the product structure disagree.
    """
    fock = ms.fock if isinstance(ms, ModeSet) else ms
    v = _check_state(state, fock.dim)
    left, right = _split_cut(fock.N, cut)

    boundary_weight = 0.0
    for amp, m in zip(v, fock.basis):
        if sum(m) == fock.M and any(m[i] for i in left) and any(m[i] for i in right):
            boundary_weight += abs(amp) ** 2
    if boundary_weight > tol.resid_abs:
        raise TruncationBoundaryError(
            f"top-shell weight {boundary_weight:.3e} straddles the cut; raise the "
            "cutoff to make the factorization truncation-safe")

    side = fock.M + 1
    if side ** fock.N > _EMBED_CAP:
        raise ContractViolationError("occupation embedding exceeds the size cap")
    T = np.zeros((side,) * fock.N, dtype=complex)
    for amp, m in zip(v, fock.basis):
        T[m] = amp
    T = np.transpose(T, left + right)
    dL = side ** len(left)
    s = np.linalg.svd(T.reshape(dL, -1), compute_uv=False)
    return schmidt_entropy(s * s, kind=kind)
