"""Truncated Fock spaces, transformed bosonic modes, and mode entanglement.

The truncation keeps occupation tuples with total excitation at most M
(a simplex cutoff), so ladder-operator identities hold exactly on the
interior sector (total excitation <= M-1) and vacuum statements hold
exactly everywhere.  Mode indices in public signatures are 1-based,
matching the subscripts a_1, ..., a_N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (
    ContractViolationError,
    DimensionMismatchError,
    ToleranceError,
    TruncationBoundaryError,
)
from .numerics import DEFAULT_TOL, Tolerance, schmidt_entropy, unitarity_defect

_DIM_CAP = 4096
_EMBED_CAP = 1 << 20
_CCR_TOL = 1e-12


@dataclass
class FockSpace:
    """N bosonic modes truncated at total excitation M.

    basis holds the occupation tuples (m_1, ..., m_N) with sum <= M in
    lexicographic order; a is the stack of annihilation matrices in that
    basis, one per mode.
    """

    N: int
    M: int
    basis: list
    a: np.ndarray  # (N, dim, dim)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def index(self, occupation) -> int:
        if not hasattr(self, "_index"):
            self._index = {m: i for i, m in enumerate(self.basis)}
        return self._index[tuple(occupation)]

    def lowering(self, i: int) -> np.ndarray:
        """Annihilation matrix of mode i (1-based)."""
        if not 1 <= i <= self.N:
            raise IndexError(f"mode index {i} out of range 1..{self.N}")
        return self.a[i - 1]

    def interior_projector(self) -> np.ndarray:
        """Projector onto total excitation <= M-1, where the CCR are exact."""
        keep = np.array([sum(m) <= self.M - 1 for m in self.basis], dtype=float)
        return np.diag(keep).astype(complex)


def build_fock(N: int, M: int) -> FockSpace:
    """Truncated Fock space with dimension binomial(N+M, N)."""
    if N < 1 or M < 1:
        raise ContractViolationError("need at least one mode and cutoff >= 1")
    dim = comb(N + M, N)
    if dim > _DIM_CAP:
        raise ContractViolationError(
            f"dimension {dim} exceeds the configured cap {_DIM_CAP}")
    basis = sorted(m for m in itertools.product(range(M + 1), repeat=N) if sum(m) <= M)
    index = {m: i for i, m in enumerate(basis)}
    a = np.zeros((N, dim, dim))
    for col, m in enumerate(basis):
        for j in range(N):
            if m[j] > 0:
                lowered = m[:j] + (m[j] - 1,) + m[j + 1:]
                a[j, index[lowered], col] = np.sqrt(m[j])
    return FockSpace(N=N, M=M, basis=basis, a=a.astype(complex))


@dataclass
class ModeSet:
    """Reference Fock space plus the rotated annihilation operators a_i^U."""

    fock: FockSpace
    U: np.ndarray  # (N, N)
    transformed: np.ndarray  # (N, dim, dim)

    def lowering(self, i: int) -> np.ndarray:
        if not 1 <= i <= self.fock.N:
            raise IndexError(f"mode index {i} out of range 1..{self.fock.N}")
        return self.transformed[i - 1]


def transform_modes(fock: FockSpace, U, tol: Tolerance = DEFAULT_TOL) -> ModeSet:
    """Rotated modes a_i^U = sum_j U_ji a_j, with their invariants verified.

    Vacuum annihilation is exact by construction; the canonical
    commutation relations are re-verified on the interior sector and a
    violation (impossible for a genuinely unitary U) raises.
    """
    U = np.asarray(U, dtype=complex)
    N = fock.N
    if U.shape != (N, N):
        raise DimensionMismatchError(f"mode rotation shape {U.shape} != ({N}, {N})")
    if unitarity_defect(U) > tol.resid_abs:
        raise ContractViolationError("mode rotation is not unitary")
    transformed = np.einsum("ji,jab->iab", U, fock.a)
    ms = ModeSet(fock=fock, U=U, transformed=transformed)

    if np.any(transformed[:, :, 0] != 0):
        raise ToleranceError("transformed modes fail exact vacuum annihilation")
    resid = ccr_residual(ms)
    if resid > _CCR_TOL:
        raise ToleranceError(f"CCR residual {resid:.3e} exceeds {_CCR_TOL:.0e}")
    return ms


def ccr_residual(ms: ModeSet) -> float:
    """Worst deviation from the CCR: [a_i, a_j] on the whole space and
    [a_i, a_j^dag] - delta_ij compressed to the interior sector."""
    P = ms.fock.interior_projector()
    eye = np.eye(ms.fock.dim)
    worst = 0.0
    for i in range(ms.fock.N):
        ai = ms.transformed[i]
        for j in range(ms.fock.N):
            aj = ms.transformed[j]
            worst = max(worst, float(np.max(np.abs(ai @ aj - aj @ ai))))
            C = ai @ aj.conj().T - aj.conj().T @ ai - (eye if i == j else 0.0)
            worst = max(worst, float(np.max(np.abs(P @ C @ P))))
    return worst


def single_excitation_state(ms: ModeSet, i: int) -> np.ndarray:
    """The normalized one-photon state of rotated mode i, a_i^U-dagger |0>."""
    v = ms.lowering(i).conj().T @ ms.fock.vacuum
    return v / np.linalg.norm(v)


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
    one_photon = [fock.index(tuple(1 if k == j else 0 for k in range(fock.N)))
                  for j in range(fock.N)]
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
    v = np.asarray(state, dtype=complex).reshape(-1)
    if v.shape[0] != fock.dim:
        raise DimensionMismatchError("state length does not match the Fock dimension")
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ContractViolationError("state must be normalized")
    cut = sorted(int(i) for i in cut)
    if any(i < 1 or i > fock.N for i in cut):
        raise IndexError(f"cut {cut} out of range for {fock.N} modes")
    left = [i - 1 for i in cut]
    right = [i for i in range(fock.N) if i + 1 not in set(cut)]
    if not left or not right:
        raise ContractViolationError("cut must be a proper nonempty mode bipartition")

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
