"""Dense complex linear-algebra kernel.

Every other module builds on the operations here; this module owns the rank
policy and reads the tolerance and the size rule from ``pure``.  All operator
spaces use the Hilbert-Schmidt inner product <A, B> = Tr(A^dag B), which on
row-major vectorized matrices coincides with the ordinary complex dot product.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError, DegenerateInputError, DimensionMismatchError
from .pure import (DEFAULT_TOL, DEGENERACY_GAP, Tolerance, budget_text, count_text,  # noqa: F401
                   mib_text, refuse_past_budget)

# Entropies below this are reported as exactly 0.0 (double-precision noise
# floor for Schmidt spectra of product states).
ENTROPY_FLOOR = 1e-12
# how near 0 or pi/3 the angle of _eigvals_3x3 may come before its row takes eigvalsh
_TRIG_GAP = 1e-2


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
    M = V diag(w) V^dag.  Rejects a non-finite entry, then a Hermiticity defect over
    resid_abs relative to the larger of the largest entry and 1.
    """
    M = _as_square(M)
    scale = float(np.max(np.abs(M))) if M.size else 0.0
    if not scale < math.inf:  # NaN or inf, refused before inf - inf
        raise ContractViolationError("matrix has a non-finite entry")
    if hermiticity_defect(M) > tol.resid_abs * max(scale, 1.0):
        raise ContractViolationError("matrix is not Hermitian within tolerance")
    w, V = np.linalg.eigh(M)
    return w, V


def cluster_indices(values, gap: float = DEGENERACY_GAP) -> list[np.ndarray]:
    """Split sorted real values into clusters by single-linkage gaps.

    A new cluster starts wherever the gap between consecutive values
    exceeds gap * max(spectral range, spectral radius, 1).
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return []
    scale = max(float(v[-1] - v[0]), float(np.max(np.abs(v))), 1.0)
    thr = gap * scale
    bounds = [0, *(np.nonzero(np.diff(v) > thr)[0] + 1).tolist(), v.size]
    return [np.arange(a, b) for a, b in zip(bounds, bounds[1:])]


def _svd_cut(M, tol: Tolerance):
    """Reduced SVD factors (U, Vh) of the matrix M and its numerical rank: the one rank rule.

    Singular values <= rank_rel * max(sigma_max, 1) count as zero: the floor
    keeps pure roundoff, which has full relative rank, at rank 0.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {M.shape}")
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    smax = s[0] if s.size else 0.0
    return U, Vh, int(np.count_nonzero(s > tol.rank_rel * max(smax, 1.0)))


def nullspace(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical nullspace of M, at ``_svd_cut``'s rank cut;
    zero rows, which keep M's rank, complete a wide M's reduced Vh.  The zero matrix yields the
    full space; an invertible matrix yields an empty (n, 0) basis."""
    M = np.asarray(M, dtype=complex)
    if M.ndim == 2 and len(M) < M.shape[1]:
        M = np.vstack([M, np.zeros((M.shape[1] - len(M), M.shape[1]))])
    _, Vh, rank = _svd_cut(M, tol)
    return Vh[rank:].conj().T


def kron(A, B) -> np.ndarray:
    """Kronecker product (row-major composite index convention)."""
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


def polar_isometry(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Partial isometry from the singular decomposition of M.

    All singular values above ``_svd_cut``'s rank cut are replaced by 1;
    the result W satisfies W^dag W = projector onto the row support of M.
    For full-rank square M this is the unitary polar factor.
    """
    U, Vh, rank = _svd_cut(M, tol)
    if rank == 0:
        raise DegenerateInputError("polar_isometry of a (numerically) zero matrix")
    return U[:, :rank] @ Vh[:rank]


def unitarity_defect(U) -> float:
    """Max-entry deviation of U^dag U from the identity, over a matrix or an (..., m, n)
    stack (an isometry's defect when m > n); inf when U has a non-finite entry, so
    ``check_unitary`` refuses it at any tolerance."""
    U = np.asarray(U)
    if not np.isfinite(U).all():
        return float("inf")
    return float(np.max(np.abs(np.swapaxes(U.conj(), -1, -2) @ U - np.eye(U.shape[-1])), initial=0.0))


def check_unitary(U, tol: Tolerance, what: str, shape=None,
                  error=ContractViolationError) -> tuple[np.ndarray, float]:
    """U as a complex array and its unitarity_defect, refused unless it has ``shape`` (when
    given) and its defect is at most tol.resid_abs; a non-finite entry's inf is refused too."""
    U = np.asarray(U, dtype=complex)
    if shape is not None and U.shape != shape:
        raise DimensionMismatchError(f"{what} shape {U.shape} is not {shape}")
    if not (defect := unitarity_defect(U)) <= tol.resid_abs:
        raise error(f"{what} unitarity defect {defect:.3e}, over resid_abs {tol.resid_abs:.3e}")
    return U, defect


def hs_orthonormalize(ops, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hilbert-Schmidt orthonormalization of a sequence of same-shape matrices.

    Modified Gram-Schmidt with one re-orthogonalization pass runs over the
    inputs in order; an input is dropped as linearly dependent when its
    residual norm falls below rank_rel * max(norm on entry, 1).  Each kept
    direction overwrites a row of the input stack already read; the first k
    rows, a (k, d, d) stack, are returned in input order.
    """
    mats = [np.asarray(m, dtype=complex) for m in ops]
    shape = mats[0].shape if mats else (0, 0)
    if any(m.shape != shape for m in mats):
        raise DimensionMismatchError("all operators must share one shape")
    V = np.array([m.reshape(-1) for m in mats], dtype=complex)
    kept = 0
    for v in V:
        n0 = float(np.linalg.norm(v))
        drop = tol.rank_rel * max(n0, 1.0)
        if n0 <= drop:
            continue
        for _ in range(2):
            v = v - (V[:kept].conj() @ v) @ V[:kept]
        nr = float(np.linalg.norm(v))
        if nr > drop:
            V[kept] = v / nr
            kept += 1
    return V[:kept].reshape(kept, *shape)


def close_span(seed, tol: Tolerance) -> np.ndarray:
    """HS-orthonormal basis of the Lie algebra generated by ``seed``: the left-normed brackets
    [[[x_1, x_2], x_3], ..., x_k] in its orthonormalized letters, which are the first words.
    Each pass brackets the last pass's words with the letters, projects the brackets off the
    span twice and cuts their rank once, by ``_svd_cut``: the span gains the leading Vh rows, and
    the next words are the same combinations of the raw brackets, HS-normalized, so their roundoff
    is a bracket's, not a small residual's.  Stops when a pass adds nothing or the span is the
    whole matrix space.  (``close_algebra`` reads the associative closure off the commutant.)"""
    letters = hs_orthonormalize(seed, tol)
    shape, full = letters.shape[1:], math.prod(letters.shape[1:])
    span, words = letters.reshape(len(letters), full), letters[:, None]
    while len(words) and len(span) < full:
        brackets = (words @ letters - letters @ words).reshape(-1, full)
        rest = brackets - (brackets @ span.conj().T) @ span
        rest -= (rest @ span.conj().T) @ span
        U, Vh, rank = _svd_cut(rest, tol)
        words = (U[:, :rank].conj().T @ brackets).reshape(-1, 1, *shape)
        words /= np.linalg.norm(words, axis=(2, 3), keepdims=True)
        span = np.concatenate([span, Vh[:rank]])
    return span.reshape(len(span), *shape)


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
    S = _floored(S)
    return float(S) if p.ndim == 1 else S


def density_entropy(rho, kind: str = "vn"):
    """Entropy of a density matrix, or of each matrix of a (B, n, n) stack.

    Kind "vn" is ``schmidt_entropy`` of the eigenvalues, a 3 x 3 density's in
    closed form (``_eigvals_3x3``) and any other size's from ``eigvalsh``; kind
    "linear" is 1 - Tr rho^2 = 1 - sum |rho_ik|^2, one contraction over rho's
    float view, which needs no eigensolver.  The same ENTROPY_FLOOR rule as
    ``schmidt_entropy`` applies.  (A 2 x 2 density has its closed form, ``entropy_2x2``.)
    """
    rho = np.ascontiguousarray(rho, dtype=complex)
    if kind == "vn":
        return schmidt_entropy(_eigvals_3x3(rho) if rho.shape[-1] == 3 else np.linalg.eigvalsh(rho), kind)
    if kind != "linear":
        raise ValueError(f"unknown entropy kind {kind!r}")
    S = _floored(1.0 - np.einsum("...ij,...ij->...", rho.view(float), rho.view(float)))
    return float(S) if rho.ndim == 2 else S


def _eigvals_3x3(rho) -> np.ndarray:
    """Eigenvalues, ascending on a last axis, of each Hermitian 3 x 3 matrix of a (..., 3, 3) stack, read
    from its diagonal and lower triangle as eigvalsh reads it, in trigonometric form (Smith 1961; Kopp,
    arXiv:physics/0610206): q + 2p cos(phi + 2 pi k / 3), q = Tr / 3, 6 p^2 = |rho - q|_F^2 and phi =
    arccos(det(rho - q) / 2p^3) / 3 in [0, pi/3].  Its roundoff grows as one over the gap between the
    closest two eigenvalues (~1e-8 on a rank-1 density's double zero), so rows with phi within _TRIG_GAP
    of an end (those two under 2 sqrt(3) sin(_TRIG_GAP) p ~ 0.035 p apart) take eigvalsh."""
    a, c, f = rho[..., 0, 0].real, rho[..., 1, 1].real, rho[..., 2, 2].real
    x, y, z = rho[..., 1, 0], rho[..., 2, 0], rho[..., 2, 1]
    q = (tr := a + c + f) / 3
    a, c, f = a - q, c - q, f - q
    xx, yy, zz = x.real ** 2 + x.imag ** 2, y.real ** 2 + y.imag ** 2, z.real ** 2 + z.imag ** 2
    p = np.sqrt((a * a + c * c + f * f + 2 * (xx + yy + zz)) / 6)
    xz = x * z
    det = a * (c * f - zz) - c * yy - f * xx + 2 * (xz.real * y.real + xz.imag * y.imag)
    p3 = 2 * p ** 3  # 0 at p = 0, a threefold eigenvalue: phi = 0 sends it to eigvalsh
    phi = np.arccos(np.clip(np.divide(det, p3, out=np.ones_like(p), where=p3 > 0), -1.0, 1.0)) / 3
    hi, lo = q + 2 * p * np.cos(phi), q + 2 * p * np.cos(phi + 2 * np.pi / 3)
    lam = np.stack([lo, tr - hi - lo, hi], axis=-1)
    if (fall := np.minimum(phi, np.pi / 3 - phi) < _TRIG_GAP).any():
        lam[fall] = np.linalg.eigvalsh(rho[fall])
    return lam


def entropy_2x2(a, c, b, kind: str = "vn"):
    """Entropy of the 2 x 2 density [[a, b*], [b, c]], or of each of a stack, from its
    real diagonal a, c and complex lower entry b (same-shape arrays, the rest of rho
    unread, as ``eigvalsh`` reads its lower triangle).  kind "vn": ``schmidt_entropy``
    of the closed-form spectrum ``_eigvals_2x2``; kind "linear": 1 - (a^2 + c^2 + 2|b|^2).
    A scalar density gives a float, a stack an array."""
    bb = b.real ** 2 + b.imag ** 2
    if kind == "vn":
        return schmidt_entropy(_eigvals_2x2(a, c, bb), kind)
    if kind != "linear":
        raise ValueError(f"unknown entropy kind {kind!r}")
    S = _floored(1.0 - (a * a + c * c + 2 * bb))
    return float(S) if S.ndim == 0 else S


def _eigvals_2x2(a, c, bb) -> np.ndarray:
    """Eigenvalues (lo, hi), stacked on a last axis, of each Hermitian 2 x 2 matrix with
    diagonal a, c and |off-diagonal|^2 bb: hi = (a + c)/2 + sqrt(((a - c)/2)^2 + bb) and
    lo = (ac - bb) / hi, the determinant over hi, which keeps a product state's lo at
    roundoff of 0; lo = 0 when hi = 0."""
    hi = (a + c) / 2 + np.sqrt(((a - c) / 2) ** 2 + bb)
    lo = np.divide(a * c - bb, hi, out=np.zeros_like(hi), where=hi != 0)
    return np.stack([lo, hi], axis=-1)


def _floored(S):
    """Entropies below ENTROPY_FLOOR become exactly 0.0."""
    return np.where(S < ENTROPY_FLOOR, 0.0, S)


def fix_column_phases(V) -> np.ndarray:
    """Rephase each column so its largest-magnitude entry is positive real.

    Bit-identical to rephasing column by column: the pivot modulus is the
    scalar abs (numpy's array abs differs from it in the last bit), and
    the factor row is 2-D, which keeps a 1 x 1 input on numpy's vector
    multiply loop.
    """
    V = np.array(V, dtype=complex)
    pivot = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    size = np.array([abs(p) for p in pivot], dtype=float)
    nonzero = size > 0
    V[:, nonzero] = V[:, nonzero] * (size[nonzero] / pivot[nonzero])[None, :]
    return V
