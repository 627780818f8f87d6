"""Dense complex linear-algebra kernel.

Every other module builds on the operations here; this module owns the
tolerance and rank policy.  All operator spaces use the Hilbert-Schmidt
inner product <A, B> = Tr(A^dag B), which on row-major vectorized
matrices coincides with the ordinary complex dot product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DegenerateInputError, DimensionMismatchError

# Relative Hermiticity defect allowed before an input is rejected.
HERMITICITY_RTOL = 1e-12

# Entropies below this are reported as exactly 0.0 (double-precision noise
# floor for Schmidt spectra of product states).
ENTROPY_FLOOR = 1e-12


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy knobs.

    rank_rel : relative singular-value cutoff for rank decisions.
    resid_abs : absolute bound on residuals of verified identities.
    degeneracy_gap : eigenvalue clustering gap, relative to the larger of
        the spectral range, the spectral radius and 1.
    """

    rank_rel: float = 1e-10
    resid_abs: float = 1e-8
    degeneracy_gap: float = 1e-7

    def __post_init__(self):
        if not (self.rank_rel > 0 and self.resid_abs > 0 and self.degeneracy_gap > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.rank_rel >= 1:
            raise ValueError("rank_rel must be < 1")


DEFAULT_TOL = Tolerance()


def _as_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {M.shape}")
    return M


def hermiticity_defect(M) -> float:
    """Max-entry deviation of M from M^dag."""
    M = _as_square(M)
    return float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0


def hermitian_eig(M, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, V) with eigenvalues w ascending and V unitary,
    M = V diag(w) V^dag.  Rejects inputs whose Hermiticity defect exceeds
    HERMITICITY_RTOL relative to the largest entry.
    """
    M = _as_square(M)
    scale = float(np.max(np.abs(M))) if M.size else 0.0
    if hermiticity_defect(M) > HERMITICITY_RTOL * max(scale, 1.0):
        raise ContractViolationError("matrix is not Hermitian within tolerance")
    w, V = np.linalg.eigh(M)
    return w, V


def cluster_indices(values, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Split sorted real values into clusters by single-linkage gaps.

    A new cluster starts wherever the gap between consecutive values
    exceeds degeneracy_gap * max(spectral range, spectral radius, 1).
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return []
    scale = max(float(v[-1] - v[0]), float(np.max(np.abs(v))), 1.0)
    thr = tol.degeneracy_gap * scale
    splits = np.nonzero(np.diff(v) > thr)[0] + 1
    return np.split(np.arange(v.size), splits)


def nullspace(M, tol: Tolerance = DEFAULT_TOL, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical nullspace of M.

    A singular value counts as zero when it is <= rank_rel * max(sigma_max,
    scale).  Pass the natural magnitude of M as ``scale`` when a morally
    zero input can still carry roundoff: without the floor, pure noise
    has full relative rank.  The zero matrix yields the full space; an
    invertible matrix yields an empty (n, 0) basis.  A tall or square M
    takes the thin SVD, whose Vh is already complete.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {M.shape}")
    _, s, Vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    smax = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > tol.rank_rel * max(smax, scale)))
    return Vh[rank:].conj().T


def kron(A, B) -> np.ndarray:
    """Kronecker product (row-major composite index convention)."""
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


# Inputs whose largest singular value is below this are treated as zero.
_POLAR_ZERO = 1e-14


def polar_isometry(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Partial isometry from the singular decomposition of M.

    All singular values above the rank cutoff are replaced by 1; the
    result W satisfies W^dag W = projector onto the row support of M.
    For full-rank square M this is the unitary polar factor.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {M.shape}")
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    smax = s[0] if s.size else 0.0
    if not np.isfinite(smax) or smax <= _POLAR_ZERO:
        raise DegenerateInputError("polar_isometry of a (numerically) zero matrix")
    rank = int(np.count_nonzero(s > tol.rank_rel * smax))
    return U[:, :rank] @ Vh[:rank]


def unitarity_defect(U) -> float:
    """Max-entry deviation of U^dag U from the identity."""
    U = np.asarray(U)
    return float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[1]))))


def hs_orthonormalize(ops, tol: Tolerance = DEFAULT_TOL, against=None) -> np.ndarray:
    """Hilbert-Schmidt orthonormalization of a sequence of same-shape matrices.

    The inputs are first projected off the span of the orthonormal stack
    ``against`` (if given) in one block, then modified Gram-Schmidt with one
    re-orthogonalization pass runs over them in order; an input is dropped
    as linearly dependent when its residual norm falls below
    rank_rel * max(norm on entry, 1).  Returns a (k, d, d) stack of the new
    directions, in input order.
    """
    mats = [np.asarray(m, dtype=complex) for m in ops]
    if not mats:
        return np.zeros((0, 0, 0), dtype=complex)
    shape = mats[0].shape
    for m in mats:
        if m.shape != shape:
            raise DimensionMismatchError("all operators must share one shape")
    V = np.array([m.reshape(-1) for m in mats])
    if against is not None and len(against):
        Q0 = np.asarray(against, dtype=complex).reshape(len(against), V.shape[1])
        V = V - (V @ Q0.conj().T) @ Q0
    rows: list[np.ndarray] = []
    for v in V:
        n0 = float(np.linalg.norm(v))
        drop = tol.rank_rel * max(n0, 1.0)
        if n0 <= drop:
            continue
        for _ in range(2):
            if rows:
                Q = np.array(rows)
                v = v - (Q.conj() @ v) @ Q
        nr = float(np.linalg.norm(v))
        if nr > drop:
            rows.append(v / nr)
    if not rows:
        return np.zeros((0,) + shape, dtype=complex)
    return np.array(rows).reshape(-1, *shape)


def span_residual(rows, basis) -> np.ndarray:
    """HS distance of each element of ``rows`` from the span of ``basis``.

    rows is a (m, ...) stack, basis a HS-orthonormal (k, ...) stack with the
    same element shape; returns the m residual norms.
    """
    A = np.asarray(rows, dtype=complex)
    A = A.reshape(A.shape[0], -1)
    Q = np.asarray(basis, dtype=complex).reshape(-1, A.shape[1])
    return np.linalg.norm(A - (A @ Q.conj().T) @ Q, axis=1)


def schmidt_entropy(probabilities, kind: str = "vn"):
    """Entropy of a Schmidt probability vector, or of each row of a stack.

    kind "vn": von Neumann entropy in bits; kind "linear": 1 - sum p^2.
    Weights <= 1e-16 are ignored, and results below ENTROPY_FLOOR are
    reported as exactly 0.0 so that exact product states yield exact
    zeros.  A 1-D input gives a float, a 2-D input an array of row values.
    """
    p = np.asarray(probabilities, dtype=float)
    keep = p > 1e-16
    if kind == "vn":
        q = np.where(keep, p, 1.0)  # log(1) = 0: dropped entries contribute nothing
        S = -(q * np.log2(q)).sum(axis=-1)
    elif kind == "linear":
        S = 1.0 - np.where(keep, p * p, 0.0).sum(axis=-1)
    else:
        raise ValueError(f"unknown entropy kind {kind!r}")
    S = np.where(S < ENTROPY_FLOOR, 0.0, S)
    return float(S) if p.ndim == 1 else S


def fix_column_phases(V) -> np.ndarray:
    """Rephase each column so its largest-magnitude entry is positive real."""
    V = np.asarray(V, dtype=complex).copy()
    for j in range(V.shape[1]):
        col = V[:, j]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0:
            V[:, j] = col * (abs(pivot) / pivot)
    return V
