"""Random draws and the span oracle shared by the test modules."""

import numpy as np


def haar_unitary(dim, rng):
    """A Haar-random dim x dim unitary: QR of a complex Ginibre matrix, with
    R's diagonal phases moved into Q."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def span_residual(rows, basis) -> np.ndarray:
    """HS distance of each element of ``rows`` from the span of ``basis`` (tpskit itself
    reads a span off its block form, ``algebra._slot_defect``): rows is a (m, ...) stack,
    basis a HS-orthonormal (k, ...) stack of the same element shape."""
    A = np.asarray(rows, dtype=complex)
    A = A.reshape(A.shape[0], -1)
    Q = np.asarray(basis, dtype=complex).reshape(-1, A.shape[1])
    return np.linalg.norm(A - (A @ Q.conj().T) @ Q, axis=1)
