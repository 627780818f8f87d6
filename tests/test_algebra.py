"""Tests for algebra closure, commutants, centers, and block structure."""

import numpy as np
import pytest

from tpskit.algebra import (
    BipartitionCertificate,
    OperatorAlgebra,
    algebra_residuals,
    center,
    check_bipartition,
    close_algebra,
    commutant,
    commutant_block_residual,
    is_factor,
    join,
    structure_decompose,
)
from tpskit.errors import DimensionMismatchError
from tpskit.numerics import DEFAULT_TOL

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def kron_all(*ops):
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def span_projector(basis):
    Q = basis.reshape(basis.shape[0], -1)
    return Q.conj().T @ Q


def haar_unitary(dim, rng):
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def blockdiag(a, b):
    out = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


class TestCloseAlgebra:
    def test_pauli_pair_generates_full_matrix_algebra(self):
        # hand oracle: I, X, Z, XZ are linearly independent, so dim is 4
        alg = close_algebra([SX, SZ])
        assert len(alg) == 4
        rng = np.random.default_rng(7)
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert alg.projection_residual(M) < 1e-10

    def test_single_diagonal_generates_diagonal_algebra(self):
        # hand oracle: I, D, D^2 is a Vandermonde triple for eigenvalues 0,1,2
        D = np.diag([0.0, 1.0, 2.0]).astype(complex)
        alg = close_algebra([D])
        assert len(alg) == 3
        for b in alg.basis:
            off = b - np.diag(np.diag(b))
            assert np.max(np.abs(off)) < 1e-12

    def test_empty_generators_give_scalars(self):
        alg = close_algebra([], dim=5)
        assert len(alg) == 1
        assert alg.contains(np.eye(5))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            close_algebra([SX, np.eye(3)])
        with pytest.raises(DimensionMismatchError):
            close_algebra([SX], dim=3)
        with pytest.raises(DimensionMismatchError):
            close_algebra([])

    def test_closure_invariants_random_generators(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            k = int(rng.integers(1, 3))
            gens = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(k)]
            alg = close_algebra(gens)
            res = algebra_residuals(alg)
            assert res["identity"] < 1e-8
            assert res["adjoint"] < 1e-8
            assert res["product"] < 1e-8

    def test_closure_is_idempotent(self):
        alg = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)])
        again = close_algebra(list(alg.basis))
        assert len(again) == len(alg)
        assert np.allclose(span_projector(again.basis), span_projector(alg.basis), atol=1e-10)


class TestCommutant:
    def test_commutant_of_scalars_is_everything(self):
        # the stacked superoperator of the scalar algebra is roundoff-only;
        # its nullspace must still be the whole operator space
        clock = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
        shift = np.roll(np.eye(4), 1, axis=0).astype(complex)
        full = close_algebra([clock, shift], dim=4)
        scalars = commutant(full)
        assert len(scalars) == 1
        assert len(commutant(scalars)) == 16

    def test_against_direct_superoperator_nullspace(self):
        # independent oracle: build the commutation superoperator entrywise
        # (no shared vectorization convention with the implementation)
        gens = [kron_all(SX, I2), kron_all(SZ, I2)]
        alg = close_algebra(gens)
        d = 4
        rows = []
        for b in alg.basis:
            S = np.zeros((d * d, d * d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        for l in range(d):
                            val = 0.0 + 0j
                            if i == k:
                                val += b[l, j]
                            if l == j:
                                val -= b[i, k]
                            S[i * d + j, k * d + l] = val
            rows.append(S)
        _, s, Vh = np.linalg.svd(np.vstack(rows))
        null = Vh[np.concatenate([s, np.zeros(max(0, Vh.shape[0] - len(s)))]) < 1e-10 * s[0]]
        oracle_basis = null.reshape(-1, d, d)

        comm = commutant(alg)
        assert len(comm) == 4
        assert np.allclose(span_projector(comm.basis), span_projector(oracle_basis), atol=1e-8)
        # and the span is exactly 1 (x) M_2
        for M in (SX, SY, SZ, I2):
            assert comm.contains(kron_all(I2, M))

    def test_commutant_of_full_algebra_is_scalars(self):
        alg = close_algebra([SX, SZ])
        comm = commutant(alg)
        assert len(comm) == 1
        assert comm.contains(I2)

    def test_double_commutant_recovers_algebra(self):
        D = np.diag([0.0, 1.0, 2.0]).astype(complex)
        for gens, dim in ([(D,), 3], [(kron_all(SX, SX), kron_all(SZ, SZ)), 4]):
            alg = close_algebra(list(gens), dim=dim)
            back = commutant(commutant(alg))
            assert len(back) == len(alg)
            assert np.allclose(span_projector(back.basis), span_projector(alg.basis), atol=1e-8)

    def test_conjugation_covariance(self):
        rng = np.random.default_rng(23)
        U = haar_unitary(4, rng)
        alg = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)])
        rotated = close_algebra([U @ b @ U.conj().T for b in alg.basis])
        comm_rot = commutant(rotated)
        expected = np.array([U @ b @ U.conj().T for b in commutant(alg).basis])
        assert np.allclose(span_projector(comm_rot.basis), span_projector(expected), atol=1e-8)


class TestCenterAndFactor:
    def test_center_of_block_sum_by_rank_oracle(self):
        gens = [blockdiag(SX, np.zeros((2, 2))), blockdiag(SZ, np.zeros((2, 2))),
                blockdiag(np.zeros((2, 2)), SX), blockdiag(np.zeros((2, 2)), SZ)]
        alg = close_algebra(gens)
        assert len(alg) == 8
        comm = commutant(alg)
        # oracle: dim(span A  span A') = dim A + dim A' - rank[A; A']
        stacked = np.vstack([alg.basis.reshape(len(alg), -1), comm.basis.reshape(len(comm), -1)])
        rank = int(np.sum(np.linalg.svd(stacked, compute_uv=False) > 1e-10))
        expected_center = len(alg) + len(comm) - rank
        cent = center(alg)
        assert len(cent) == expected_center == 2
        flag = is_factor(alg)
        assert not flag.is_factor
        assert flag.center_dim == 2

    def test_full_matrix_algebra_is_a_factor(self):
        alg = close_algebra([SX, SZ])
        flag = is_factor(alg)
        assert flag.is_factor
        assert flag.center_dim == 1

    def test_tensor_leg_is_a_factor(self):
        alg = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)])
        assert is_factor(alg).is_factor

    def test_abelian_algebra_is_its_own_center(self):
        D = np.diag([0.0, 1.0, 2.0]).astype(complex)
        alg = close_algebra([D])
        cent = center(alg)
        assert len(cent) == 3
        assert np.allclose(span_projector(cent.basis), span_projector(alg.basis), atol=1e-8)


class TestJoin:
    def test_join_of_tensor_legs_is_full(self):
        a1 = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)])
        a2 = close_algebra([kron_all(I2, SX), kron_all(I2, SZ)])
        assert len(join(a1, a2)) == 16

    def test_join_of_algebra_with_itself(self):
        a1 = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)])
        assert len(join(a1, a1)) == len(a1)

    def test_join_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            join(close_algebra([SX]), close_algebra([np.eye(3)]))


def collective_spin_algebra():
    X1 = kron_all(SX, I2, I2) + kron_all(I2, SX, I2) + kron_all(I2, I2, SX)
    Z1 = kron_all(SZ, I2, I2) + kron_all(I2, SZ, I2) + kron_all(I2, I2, SZ)
    return close_algebra([X1 / 2, Z1 / 2])


class TestStructureDecompose:
    def test_full_matrix_algebra_single_block(self):
        alg = close_algebra([SX, SZ])
        sd = structure_decompose(alg)
        assert sd.block_shape == [(1, 2)]
        assert sd.residual < DEFAULT_TOL.resid_abs

    def test_scalar_algebra_single_abelian_block(self):
        alg = close_algebra([], dim=3)
        sd = structure_decompose(alg)
        assert sd.block_shape == [(3, 1)]

    def test_tensor_leg_block_shape(self):
        alg = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)])
        sd = structure_decompose(alg)
        assert sd.block_shape == [(2, 2)]
        # in the constructed basis the commutant must sit on the other slot
        assert commutant_block_residual(sd, commutant(alg)) < 1e-8

    def test_block_sum_two_blocks(self):
        gens = [blockdiag(SX, np.zeros((2, 2))), blockdiag(SZ, np.zeros((2, 2))),
                blockdiag(np.zeros((2, 2)), SX), blockdiag(np.zeros((2, 2)), SZ)]
        sd = structure_decompose(close_algebra(gens))
        assert sd.block_shape == [(1, 2), (1, 2)]
        P = sum(b.central_projector for b in sd.blocks)
        assert np.allclose(P, np.eye(4), atol=1e-8)

    def test_collective_spin_three_qubits(self):
        # oracle: three spin-1/2s decompose as one spin-3/2 plus two spin-1/2
        # copies, so the generated algebra is M_4 (+) M_2 with multiplicities
        # 1 and 2: dimension 16 + 4 = 20, commutant dimension 1 + 4 = 5
        alg = collective_spin_algebra()
        assert len(alg) == 20
        comm = commutant(alg)
        assert len(comm) == 5
        sd = structure_decompose(alg, seed=3)
        assert sd.block_shape == [(1, 4), (2, 2)]
        assert sum(b.n * b.d for b in sd.blocks) == 8
        assert sd.residual < DEFAULT_TOL.resid_abs
        assert commutant_block_residual(sd, comm) < 1e-8

    def test_basis_change_is_unitary(self):
        sd = structure_decompose(collective_spin_algebra(), seed=5)
        T = sd.basis_change
        assert np.max(np.abs(T.conj().T @ T - np.eye(8))) < 1e-10

    def test_same_seed_reproduces_exactly(self):
        alg = collective_spin_algebra()
        sd1 = structure_decompose(alg, seed=12)
        sd2 = structure_decompose(alg, seed=12)
        assert np.array_equal(sd1.basis_change, sd2.basis_change)

    def test_seed_independence_of_shape(self):
        alg = collective_spin_algebra()
        shapes = {tuple(structure_decompose(alg, seed=s).block_shape) for s in range(4)}
        assert shapes == {((1, 4), (2, 2))}

    def test_gaussian_abelian_algebra_in_haar_basis(self):
        # two Gaussian diagonal generators in a Haar basis on d=3: the
        # center's *-closure must not hinge on which basis the null-space
        # SVD happens to return for it
        rng = np.random.default_rng(100)
        V = haar_unitary(3, rng)
        gens = [V @ np.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3)) @ V.conj().T
                for _ in range(2)]
        sd = structure_decompose(close_algebra(gens))
        assert sd.block_shape == [(1, 1)] * 3
        assert sd.residual < DEFAULT_TOL.resid_abs

    def test_conjugated_algebra_same_shape(self):
        rng = np.random.default_rng(41)
        U = haar_unitary(8, rng)
        alg = collective_spin_algebra()
        rotated = OperatorAlgebra(dim=8, basis=np.array([U @ b @ U.conj().T for b in alg.basis]))
        sd = structure_decompose(rotated, seed=1)
        assert sd.block_shape == [(1, 4), (2, 2)]
        assert sd.residual < DEFAULT_TOL.resid_abs


def random_block_algebra(blocks, rng):
    """Algebra generated by two random elements of V ((+)_J 1_n (x) M_d) V^dag."""
    dim = sum(n * d for n, d in blocks)
    V = haar_unitary(dim, rng)
    gens = []
    for _ in range(2):
        G = np.zeros((dim, dim), dtype=complex)
        off = 0
        for n, d in blocks:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            G[off:off + n * d, off:off + n * d] = np.kron(np.eye(n), g)
            off += n * d
        gens.append(V @ G @ V.conj().T)
    return close_algebra(gens, dim=dim)


def random_block_shape(rng, max_dim=10):
    if rng.random() < 0.3:
        # abelian: up to 8 one-dimensional blocks, some with multiplicity
        return [(int(rng.integers(1, 3)) if i < 2 else 1, 1) for i in range(int(rng.integers(2, 9)))]
    blocks = []
    while True:
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        if sum(a * b for a, b in blocks) + n * d > max_dim:
            return blocks
        blocks.append((n, d))


class TestCommutantCenterOracles:
    def test_random_direct_sums_match_construction(self):
        rng = np.random.default_rng(2010)
        for _ in range(40):
            blocks = random_block_shape(rng)
            alg = random_block_algebra(blocks, rng)
            assert len(alg) == sum(d * d for _, d in blocks)
            assert len(commutant(alg)) == sum(n * n for n, _ in blocks)
            cent = center(alg)
            assert len(cent) == len(blocks)
            sd = structure_decompose(alg, seed=int(rng.integers(1000)))
            assert sorted(sd.block_shape) == sorted(blocks)
            projs = np.array([b.central_projector / np.sqrt(b.n * b.d) for b in sd.blocks])
            assert np.allclose(span_projector(cent.basis), span_projector(projs), atol=1e-8)

    def test_full_matrix_algebra_on_sixteen_dimensions(self):
        # scaling guard: the full M_16 has 256 basis elements; a stacked
        # superoperator with a full SVD would need tens of GB here
        rng = np.random.default_rng(16)
        U = haar_unitary(16, rng)
        units = np.eye(256, dtype=complex).reshape(256, 16, 16)
        alg = OperatorAlgebra(dim=16, basis=U @ units @ U.conj().T)
        comm = commutant(alg)
        assert len(comm) == 1
        assert comm.contains(np.eye(16))
        assert structure_decompose(alg).block_shape == [(1, 16)]


class TestCheckBipartition:
    def test_tensor_factorization_accepted(self):
        a1 = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)])
        a2 = close_algebra([kron_all(I2, SX), kron_all(I2, SZ)])
        cert = check_bipartition(a1, a2)
        assert isinstance(cert, BipartitionCertificate)
        assert cert.verdict
        assert cert.commuting and cert.join_is_full and cert.a1_is_factor
        assert cert.witness is None

    def test_rotated_factorization_accepted(self):
        rng = np.random.default_rng(9)
        U = haar_unitary(4, rng)
        conj = lambda b: U @ b @ U.conj().T
        a1 = close_algebra([conj(kron_all(SX, I2)), conj(kron_all(SZ, I2))])
        a2 = close_algebra([conj(kron_all(I2, SX)), conj(kron_all(I2, SZ))])
        assert check_bipartition(a1, a2).verdict

    def test_noncommuting_pair_rejected_with_witness(self):
        a1 = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)])
        cert = check_bipartition(a1, a1)
        assert not cert.verdict
        assert not cert.commuting
        assert cert.witness is not None
        assert np.max(np.abs(cert.witness)) > DEFAULT_TOL.resid_abs

    def test_abelian_pair_rejected_join_and_center(self):
        a1 = close_algebra([SZ])
        cert = check_bipartition(a1, a1)
        assert cert.commuting
        assert not cert.join_is_full
        assert not cert.a1_is_factor
        assert not cert.verdict
        # witness is a non-scalar central element
        W = cert.witness
        assert W is not None
        assert np.abs(np.trace(W)) < 1e-8
        assert np.linalg.norm(W) > 0.5

    def test_center_witness_fixed_by_the_span(self):
        # the same algebra under a rotated basis yields the same witness:
        # the traceless central part of the first diagonal matrix unit
        a1 = close_algebra([np.diag([1.0, 2.0, 3.0])])
        R = haar_unitary(len(a1), np.random.default_rng(5))
        rotated = OperatorAlgebra(dim=3, basis=np.tensordot(R, a1.basis, axes=1))
        expected = np.diag([2.0, -1.0, -1.0]) / 3
        for alg in (a1, rotated):
            W = check_bipartition(alg, alg).witness
            assert np.allclose(W, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            check_bipartition(close_algebra([SX]), close_algebra([np.eye(3)]))
