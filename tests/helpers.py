"""Random draws shared by the test modules."""

import numpy as np


def haar_unitary(dim, rng):
    """A Haar-random dim x dim unitary: QR of a complex Ginibre matrix, with
    R's diagonal phases moved into Q."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))
