import numpy as np
import pytest

from tpskit.errors import ContractViolationError, DegenerateInputError, DimensionMismatchError
from tpskit.numerics import (
    DEFAULT_TOL,
    Tolerance,
    cluster_indices,
    hermitian_eig,
    hs_orthonormalize,
    kron,
    nullspace,
    polar_isometry,
    schmidt_entropy,
    span_residual,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(rank_rel=2.0)
    assert DEFAULT_TOL.rank_rel == 1e-10


def test_hermitian_eig_identity():
    w, V = hermitian_eig(np.eye(2))
    assert np.allclose(w, [1, 1])
    assert np.allclose(V.conj().T @ V, np.eye(2))


def test_hermitian_eig_sigma_z():
    w, _ = hermitian_eig(SZ)
    assert np.allclose(w, [-1, 1])


def test_hermitian_eig_reconstruction():
    rng = np.random.default_rng(3)
    M = random_hermitian(rng, 8)
    w, V = hermitian_eig(M)
    assert np.max(np.abs((V * w) @ V.conj().T - M)) < 1e-10
    assert np.max(np.abs(M @ V - V * w)) < DEFAULT_TOL.resid_abs


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ContractViolationError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_reconstruction_property_up_to_dim_64():
    rng = np.random.default_rng(11)
    for n in (2, 5, 17, 64):
        M = random_hermitian(rng, n)
        w, V = hermitian_eig(M)
        err = np.linalg.norm((V * w) @ V.conj().T - M)
        assert err < 1e-10 * max(np.linalg.norm(M), 1.0)


def test_nullspace_zero_matrix():
    B = nullspace(np.zeros((4, 4)))
    assert B.shape == (4, 4)
    assert np.allclose(B.conj().T @ B, np.eye(4))


def test_nullspace_scale_floor_kills_roundoff_rank():
    # a morally zero matrix carrying only roundoff has full *relative*
    # rank; the scale floor restores the full nullspace
    rng = np.random.default_rng(11)
    noise = 1e-16 * rng.standard_normal((6, 6))
    assert nullspace(noise).shape[1] < 6
    assert nullspace(noise, scale=1.0).shape == (6, 6)


def test_nullspace_invertible():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((5, 5)) + np.eye(5) * 6
    assert nullspace(M).shape == (5, 0)


def test_nullspace_rank_one_projector():
    # rank-1 projector on C^3 has a 2-dimensional nullspace
    v = np.array([1.0, 2.0, 2.0]) / 3.0
    P = np.outer(v, v)
    B = nullspace(P)
    assert B.shape == (3, 2)
    assert np.max(np.abs(P @ B)) < 1e-12


def test_nullspace_rank_sum_property():
    rng = np.random.default_rng(7)
    for _ in range(10):
        rows, cols = rng.integers(2, 9, size=2)
        r = int(rng.integers(0, min(rows, cols) + 1))
        M = (rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
             + 1j * rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols)))
        B = nullspace(M)
        rank = np.linalg.matrix_rank(M, tol=1e-10)
        assert B.shape[1] + rank == cols
        # tall and square inputs take the thin SVD: the basis must still
        # be an orthonormal set annihilated by M
        assert np.allclose(M @ B, 0, atol=1e-10)
        assert np.allclose(B.conj().T @ B, np.eye(B.shape[1]), atol=1e-10)


def test_kron_identity():
    assert np.allclose(kron(np.eye(2), np.eye(3)), np.eye(6))


def test_polar_isometry_unitary_fixed_point():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    U, _, Vh = np.linalg.svd(A)
    W = U @ Vh
    assert np.allclose(polar_isometry(W), W)


def test_polar_isometry_strips_scale():
    assert np.allclose(polar_isometry(2 * np.eye(3)), np.eye(3))


def test_polar_isometry_rank_one():
    rng = np.random.default_rng(13)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    M = np.outer(u, v.conj())
    # SVD oracle: the unit-normalized outer product
    expected = np.outer(u / np.linalg.norm(u), v.conj() / np.linalg.norm(v))
    W = polar_isometry(M)
    assert np.max(np.abs(W - expected)) < 1e-12
    P = W.conj().T @ W
    assert np.allclose(P @ P, P)


def test_polar_isometry_zero_rejected():
    with pytest.raises(DegenerateInputError):
        polar_isometry(np.zeros((3, 3)))


def test_hs_orthonormalize_duplicates():
    out = hs_orthonormalize([np.eye(2), np.eye(2)])
    assert out.shape == (1, 2, 2)
    assert np.allclose(out[0], np.eye(2) / np.sqrt(2))


def test_hs_orthonormalize_paulis():
    out = hs_orthonormalize([SX, SY, SZ, np.eye(2)])
    assert out.shape[0] == 4
    G = out.reshape(4, -1)
    assert np.allclose(G.conj() @ G.T, np.eye(4), atol=1e-12)


def test_hs_orthonormalize_drops_exact_combination():
    rng = np.random.default_rng(21)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)]
    dependent = 0.5 * mats[0] - 2.0 * mats[2] + mats[3]
    out = hs_orthonormalize(mats + [dependent])
    assert out.shape[0] == 4


def test_hs_orthonormalize_idempotent():
    rng = np.random.default_rng(23)
    mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(7)]
    once = hs_orthonormalize(mats)
    twice = hs_orthonormalize(list(once))
    assert once.shape == twice.shape
    assert np.allclose(once, twice, atol=1e-12)


def test_hs_orthonormalize_against_adds_only_new_directions():
    rng = np.random.default_rng(29)
    Q = hs_orthonormalize([rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                           for _ in range(3)])
    A, B = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    inside = 2.0 * Q[0] - 1j * Q[2]
    ops = [inside, A, inside + 3.0 * A, B, Q[1]]
    out = hs_orthonormalize(ops, against=Q)
    assert out.shape == (2, 3, 3)
    G = out.reshape(2, -1)
    assert np.allclose(G.conj() @ G.T, np.eye(2), atol=1e-12)
    assert np.max(np.abs(Q.reshape(3, -1).conj() @ G.T)) < 1e-12
    # Q and the new rows together span every input
    assert np.max(span_residual(ops, np.concatenate([Q, out]))) < 1e-12
    assert span_residual([B], Q)[0] > 0.1


def test_hs_orthonormalize_rejects_mixed_shapes():
    with pytest.raises(DimensionMismatchError):
        hs_orthonormalize([np.eye(2), np.eye(3)])


def test_span_residual_of_rows():
    Q = hs_orthonormalize([SX, SZ])
    r = span_residual([SX + SZ, SY, np.eye(2)], Q)
    assert r.shape == (3,)
    assert np.allclose(r, [0.0, np.sqrt(2), np.sqrt(2)], atol=1e-14)


def test_cluster_indices_gaps():
    w = np.array([0.0, 1e-12, 1.0, 1.0 + 1e-12, 2.5])
    clusters = cluster_indices(w)
    assert [list(c) for c in clusters] == [[0, 1], [2, 3], [4]]
    assert len(cluster_indices(np.ones(5))) == 1


def test_schmidt_entropy_values():
    assert schmidt_entropy([1.0]) == 0.0
    assert schmidt_entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert schmidt_entropy([1.0 - 3e-16, 3e-16]) == 0.0
    assert schmidt_entropy([0.5, 0.5], kind="linear") == pytest.approx(0.5)


def test_schmidt_entropy_stack_matches_rows():
    rng = np.random.default_rng(37)
    P = rng.random((6, 9))
    P[1, :4] = 1e-17  # weights under the 1e-16 cut are ignored
    P[2] = 0.0
    P[2, 3] = 1.0  # exact product: exact zero
    P[3, 2] = 1e-300
    P /= P.sum(axis=1, keepdims=True)
    for kind in ("vn", "linear"):
        rows = np.array([schmidt_entropy(p, kind=kind) for p in P])
        stacked = schmidt_entropy(P, kind=kind)
        assert stacked.shape == (6,)
        assert np.array_equal(stacked, rows)
        assert stacked[2] == 0.0
