"""Tests for algebra closure, commutants, centers, and block structure."""

import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tpskit.algebra as algebra_module
import tpskit.numerics as numerics_module
import tpskit.pure as pure_module
from tpskit.algebra import (
    BipartitionCertificate,
    OperatorAlgebra,
    _block_form_residual,
    algebra_residuals,
    center,
    check_bipartition,
    close_algebra,
    commutant,
    is_factor,
    join,
    structure_decompose,
)
from tpskit.bosonic import build_fock
from tpskit.errors import ContractViolationError, DimensionMismatchError, ToleranceError
from tpskit.numerics import DEFAULT_TOL, DEGENERACY_GAP, Tolerance
from tpskit.opfile import as_matrices, load_spec
from tpskit.tps import TPS, local_algebra

from helpers import haar_unitary, span_residual
from reference_closure import reference_closure

DATA = Path(__file__).parent / "data"

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


def central_projectors(sd):
    """T_J T_J^dag for each block's columns T_J of T, at block_shape's offsets."""
    T, off, out = sd.basis_change, 0, []
    for n, d in sd.block_shape:
        out.append(T[:, off:off + n * d] @ T[:, off:off + n * d].conj().T)
        off += n * d
    return out


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
        assert span_residual([M], alg.basis)[0] < 1e-10

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
        assert span_residual([np.eye(5)], alg.basis)[0] <= 1e-8

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            close_algebra([SX, np.eye(3)])
        with pytest.raises(DimensionMismatchError):
            close_algebra([SX], dim=3)
        with pytest.raises(DimensionMismatchError):
            close_algebra([])

    @pytest.mark.parametrize("dim", [0, -3])
    def test_a_declared_dim_below_one_is_refused(self, dim):
        # dim 0 failed unpacking an empty basis, dim -3 in numpy's negative-dimensions check
        with pytest.raises(ContractViolationError, match=f"^dim must be >= 1, got {dim}$"):
            close_algebra([], dim=dim)

    def test_non_finite_generator_rejected(self):
        # hs_orthonormalize would drop a NaN generator as dependent
        bad = SX.copy()
        bad[0, 1] = np.nan
        with pytest.raises(ContractViolationError, match="non-finite"):
            close_algebra([SX, bad])

    def test_a_hermitian_generator_seeds_no_adjoint_and_keeps_the_same_generators(self, monkeypatch):
        # Gram-Schmidt drops an exactly equal g^dag, so leaving it out changes no kept row
        rng = np.random.default_rng(12)
        H, N = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
        H, Z = H + H.conj().T, kron_all(SZ, I2)
        real, stacked = algebra_module.hs_orthonormalize, []
        monkeypatch.setattr(algebra_module, "hs_orthonormalize",
                            lambda ops, tol: stacked.append(len(ops)) or real(ops, tol))
        alg = close_algebra([H, N, Z])
        assert stacked == [1 + 1 + 2 + 1]
        every_adjoint = real([np.eye(4), H, H.conj().T, N, N.conj().T, Z, Z.conj().T])
        assert alg.generators.tobytes() == every_adjoint.tobytes()

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

    def test_x_closes_to_the_span_of_identity_and_x(self):
        alg = close_algebra([SX])
        assert alg.basis.shape == (2, 2, 2)
        G = alg.basis_rows()
        assert np.allclose(G.conj() @ G.T, np.eye(2), atol=1e-12)
        assert np.max(span_residual([np.eye(2), SX, SX @ SX], alg.basis)) < 1e-12

    def test_basis_stays_orthonormal_on_a_clustered_spectrum(self):
        rng = np.random.default_rng(0)
        U = haar_unitary(8, rng)
        w = np.concatenate([np.linspace(-1, 1, 5), 0.2 + 5e-3 * np.arange(3)])
        alg = close_algebra([U @ np.diag(w) @ U.conj().T])
        assert len(alg) == 8
        B = alg.basis_rows()
        assert np.max(np.abs(B.conj() @ B.T - np.eye(8))) < 1e-14

    def test_generator_with_a_3e_3_eigenvalue_cluster(self):
        # word growth closed this to 61 dimensions: a ~1.7e-10 rounding
        # direction passed the rank_rel drop rule and every later pass grew
        # from it; the double commutant never forms a word
        rng = np.random.default_rng(0)
        U = haar_unitary(8, rng)
        w = np.concatenate([np.linspace(-1, 1, 5), 0.2 + 3e-3 * np.arange(3)])
        alg = close_algebra([U @ np.diag(w) @ U.conj().T])
        assert len(alg) == 8
        projectors = np.einsum("ia,ja->aij", U, U.conj())
        assert np.max(span_residual(projectors, alg.basis)) < 1e-8

    def test_random_hermitian_generators_close_to_their_spectral_algebra(self):
        # Gaussian spectra, minimum gaps down to ~2e-3: word growth closed
        # 3 of these 300 (numbers 192, 200, 240) to 49-61 dimensions
        rng = np.random.default_rng(5)
        wrong = []
        for k in range(300):
            d = int(rng.integers(4, 9))
            U = haar_unitary(d, rng)
            w = rng.standard_normal(d)
            if len(close_algebra([U @ np.diag(w) @ U.conj().T])) != d:
                wrong.append(k)
        assert wrong == []

    def test_small_gap_generators_close_or_are_refused(self):
        # d = 6 Gaussian spectra with one gap of 10^U(-5.5, -3): the commutant is
        # solved to ~eps/gap, and a closure that misses a generator is refused.
        # 399 close and 1 is refused (the double-commutant cuts closed 377 and
        # refused 23); none may close to another dimension
        rng = np.random.default_rng(1)
        closed, refused = 0, 0
        for _ in range(400):
            U = haar_unitary(6, rng)
            w = rng.standard_normal(5)
            w = np.append(w, w[rng.integers(5)] + 10 ** rng.uniform(-5.5, -3))
            try:
                assert len(close_algebra([U @ np.diag(w) @ U.conj().T])) == 6
                closed += 1
            except ToleranceError:
                refused += 1
        assert closed + refused == 400 and closed >= 399

    def test_deeper_gaps_close_merge_or_are_refused_never_wrong(self):
        # one and two generators at d = 6 with a gap of 10^U(-7, -5): every case
        # closes to the construction's dimension, merges the pair only when its
        # gap is below DEGENERACY_GAP, or is refused
        rng = np.random.default_rng(4)
        for ngen in (1, 2):
            for _ in range(60):
                U = haar_unitary(6, rng)
                w = rng.standard_normal(5)
                gap = 10 ** rng.uniform(-7, -5)
                w = np.append(w, w[rng.integers(5)] + gap)
                gens = [U @ np.diag(w ** p) @ U.conj().T for p in range(1, ngen + 1)]
                try:
                    dim = len(close_algebra(gens))
                except ToleranceError as err:
                    assert "misses a generator" in str(err)
                    continue
                scale = max(np.ptp(w), np.max(np.abs(w)), 1.0)
                assert dim == 6 or (dim == 5 and gap < DEGENERACY_GAP * scale)

    def test_eigenvalue_gap_is_resolved_merged_or_refused(self):
        # the commutant of a generator with an eigenvalue gap g is only known
        # to ~eps/g: a wide gap is resolved, one far below resid_abs merges
        # within it, and one in between is refused rather than closed wrongly
        # (word growth closed the refused one to 7 dimensions, no *-algebra)
        Q = haar_unitary(3, np.random.default_rng(0))
        gen = lambda gap: Q @ np.diag([0.0, gap, 1.0]) @ Q.conj().T
        assert len(close_algebra([gen(1e-5)])) == 3
        merged = close_algebra([gen(1e-10)])
        assert len(merged) == 2 and span_residual([gen(1e-10)], merged.basis)[0] < 1e-8
        with pytest.raises(ToleranceError, match="misses a generator"):
            close_algebra([gen(1e-7)])

    def test_closure_never_grows_words(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("close_span called")

        monkeypatch.setattr(numerics_module, "close_span", refuse)
        monkeypatch.setattr(algebra_module, "close_span", refuse, raising=False)
        assert len(close_algebra([SX, SZ])) == 4
        a1 = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)])
        a2 = close_algebra([kron_all(I2, SX), kron_all(I2, SZ)])
        assert len(join(a1, a2)) == 16
        assert check_bipartition(a1, a2).verdict

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
            assert span_residual([kron_all(I2, M)], comm.basis)[0] <= 1e-8

    def test_commutant_of_full_algebra_is_scalars(self):
        alg = close_algebra([SX, SZ])
        comm = commutant(alg)
        assert len(comm) == 1
        assert span_residual([I2], comm.basis)[0] <= 1e-8

    def test_double_commutant_recovers_algebra(self):
        D = np.diag([0.0, 1.0, 2.0]).astype(complex)
        for gens, dim in ([(D,), 3], [(kron_all(SX, SX), kron_all(SZ, SZ)), 4]):
            alg = close_algebra(list(gens), dim=dim)
            back = commutant(commutant(alg))
            assert len(back) == len(alg)
            assert np.allclose(span_projector(back.basis), span_projector(alg.basis), atol=1e-8)

    def test_the_tolerance_travels_with_the_record(self, monkeypatch):
        # a derived algebra is read off the closure's record at the closure's tolerance:
        # only a seed other than 0 solves again, once, on the generators at that tolerance
        tight = Tolerance(rank_rel=1e-12)
        alg = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)], tight)
        solves, real = [], algebra_module._decompose
        monkeypatch.setattr(algebra_module, "_decompose",
                            lambda ops, tol, seed: solves.append((tol, seed)) or real(ops, tol, seed))
        derived = [commutant(alg), center(alg), commutant(commutant(alg)), center(commutant(alg))]
        assert is_factor(alg) == (True, 1)
        assert structure_decompose(alg) is alg
        assert solves == []
        assert [a.tol for a in derived] == [tight] * 4
        assert structure_decompose(alg, seed=3).tol == tight
        assert solves == [(tight, 3)]
        with pytest.raises(TypeError):
            structure_decompose(alg, Tolerance())

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

    def test_join_closes_at_its_first_operands_tolerance(self):
        tight = Tolerance(rank_rel=1e-12)
        a = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)], tight)
        assert join(a, commutant(a)).tol == tight


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
        residual = _block_form_residual(commutant(alg).basis, sd.basis_change,
                                        sd.block_shape, side="left")
        assert residual < 1e-8

    def test_block_sum_two_blocks(self):
        gens = [blockdiag(SX, np.zeros((2, 2))), blockdiag(SZ, np.zeros((2, 2))),
                blockdiag(np.zeros((2, 2)), SX), blockdiag(np.zeros((2, 2)), SZ)]
        sd = structure_decompose(close_algebra(gens))
        assert sd.block_shape == [(1, 2), (1, 2)]
        P = sum(central_projectors(sd))
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
        assert sum(n * d for n, d in sd.block_shape) == 8
        assert sd.residual < DEFAULT_TOL.resid_abs
        residual = _block_form_residual(comm.basis, sd.basis_change, sd.block_shape,
                                        side="left")
        assert residual < 1e-8

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
        rotated = close_algebra([U @ b @ U.conj().T for b in alg.basis])
        sd = structure_decompose(rotated, seed=1)
        assert sd.block_shape == [(1, 4), (2, 2)]
        assert sd.residual < DEFAULT_TOL.resid_abs

    def test_full_matrix_algebra_on_thirty_two_dimensions_in_under_a_second(self):
        # scaling guard: orthonormalizing the 1024 compressed basis elements
        # one row at a time made this a ~14 s decomposition
        clock = np.diag(np.exp(2j * np.pi * np.arange(32) / 32))
        shift = np.roll(np.eye(32), 1, axis=0)
        alg = close_algebra([clock, shift])
        assert len(alg) == 1024
        start = time.perf_counter()
        sd = structure_decompose(alg)
        elapsed = time.perf_counter() - start
        assert sd.block_shape == [(1, 32)]
        assert elapsed < 1.0, f"structure_decompose of M_32 took {elapsed:.2f} s"


def block_generators(blocks, V, rng):
    """Two random elements of V ((+)_J 1_n (x) M_d) V^dag."""
    dim = V.shape[0]
    gens = []
    for _ in range(2):
        G = np.zeros((dim, dim), dtype=complex)
        off = 0
        for n, d in blocks:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            G[off:off + n * d, off:off + n * d] = np.kron(np.eye(n), g)
            off += n * d
        gens.append(V @ G @ V.conj().T)
    return gens


def random_block_algebra(blocks, rng):
    """Algebra generated by two random elements of V ((+)_J 1_n (x) M_d) V^dag."""
    dim = sum(n * d for n, d in blocks)
    V = haar_unitary(dim, rng)
    return close_algebra(block_generators(blocks, V, rng), dim=dim)


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
    def test_probe_eigenvalues_from_different_blocks_just_above_the_gap(self):
        # two probe eigenvalues of different blocks sit 2.9e-7 apart: their
        # eigenvectors are good to ~1e-10 only, so unless the pair shares a
        # cluster its units fall out of the rank cut and the commutant has 3
        blocks = [(2, 2), (1, 3)]
        rng = np.random.default_rng(10317)
        V = haar_unitary(7, rng)
        alg = close_algebra(block_generators(blocks, V, rng))
        assert len(alg) == 13
        comm = commutant(alg)
        assert len(comm) == 5
        assert algebra_residuals(comm)["product"] < 1e-8
        assert len(center(alg)) == 2
        assert sorted(structure_decompose(alg).block_shape) == sorted(blocks)

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
            projs = np.array([P / np.sqrt(n * d) for P, (n, d) in
                              zip(central_projectors(sd), sd.block_shape)])
            assert np.allclose(span_projector(cent.basis), span_projector(projs), atol=1e-8)

    def test_full_matrix_algebra_on_sixteen_dimensions(self):
        # scaling guard: the full M_16 has 256 basis elements; a stacked
        # superoperator with a full SVD would need tens of GB here, and an
        # all-pairs product stack in the closure a few hundred MB
        clock = np.diag(np.exp(2j * np.pi * np.arange(16) / 16))
        shift = np.roll(np.eye(16), 1, axis=0)
        assert len(close_algebra([clock, shift])) == 256
        rng = np.random.default_rng(16)
        U = haar_unitary(16, rng)
        units = np.eye(256, dtype=complex).reshape(256, 16, 16)
        alg = close_algebra(list(U @ units @ U.conj().T))
        comm = commutant(alg)
        assert len(comm) == 1
        assert span_residual([np.eye(16)], comm.basis)[0] <= 1e-8
        assert structure_decompose(alg).block_shape == [(1, 16)]


def clock_shift_algebra(d):
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return close_algebra([clock, np.roll(np.eye(d), 1, axis=0)])


class TestAlgebraResidualsOracle:
    @pytest.mark.parametrize("blocks", [[(2, 2), (1, 3)], [(1, 2), (2, 1)], [(3, 2)]])
    def test_a_basis_change_with_one_column_swapped_for_a_random_direction_is_caught(self, blocks):
        # T with one column replaced by a random unit vector no longer realizes the block
        # form it is handed with: every seeded draw of the probe pairs must see it
        sd = structure_decompose(random_block_algebra(blocks, np.random.default_rng(5)))
        d = sd.basis_change.shape[0]
        caught = 0
        for trial in range(100):
            rng = np.random.default_rng(trial)
            T = sd.basis_change.copy()
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            T[:, int(rng.integers(d))] = v / np.linalg.norm(v)
            alg = OperatorAlgebra(sd.block_shape, T, sd.residual)
            caught += algebra_residuals(alg, seed=trial)["product"] > 1e-3
        assert caught == 100

    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_full_matrix_algebras_pass(self, d):
        res = algebra_residuals(clock_shift_algebra(d), seed=d)
        assert set(res) == {"identity", "adjoint", "product"}
        assert max(res.values()) < 1e-12

    def test_direct_sums_pass(self):
        rng = np.random.default_rng(2010)
        for trial in range(20):
            alg = random_block_algebra(random_block_shape(rng), rng)
            assert max(algebra_residuals(alg, seed=trial).values()) < 1e-12

    def test_the_probes_stay_within_a_fixed_number_of_products(self, monkeypatch):
        # O(r d^3): one stacked defect of 1/sqrt(d), r adjoints and r products, never the
        # k^2 basis pairs, and no basis
        alg = clock_shift_algebra(8)
        rows, units = [], []
        real = algebra_module._slot_defect
        monkeypatch.setattr(algebra_module, "_slot_defect",
                            lambda ops, *args: rows.append(len(ops)) or real(ops, *args))
        monkeypatch.setattr(algebra_module, "_units", lambda *args: units.append(args))
        algebra_residuals(alg)
        assert rows == [1 + 2 * algebra_module._ORACLE_PROBES]
        assert units == []

    def test_the_slot_defect_is_the_distance_from_the_span_of_the_basis(self):
        # the HS norm of the block-form defect is the old basis route's span residual
        rng = np.random.default_rng(2032)
        for _ in range(20):
            alg = random_block_algebra(random_block_shape(rng), rng)
            d = alg.dim
            ops = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
            defect = algebra_module._slot_defect(ops, alg.basis_change, alg.block_shape, "right")
            assert np.max(np.abs(np.linalg.norm(defect, axis=(1, 2)) - span_residual(ops, alg.basis))) < 1e-13


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_closure_of_a_conjugated_direct_sum_is_its_constructed_span(blocks, seed):
    # V ((+)_J 1_n (x) M_d) V^dag for Haar V, spanned by the normalized
    # V (1_n (x) E_ij) V^dag; two generic elements generate all of it
    rng = np.random.default_rng(seed)
    dim = sum(n * d for n, d in blocks)
    V = haar_unitary(dim, rng)
    units = []
    off = 0
    for n, d in blocks:
        for i in range(d):
            for j in range(d):
                E = np.zeros((dim, dim), dtype=complex)
                E[off:off + n * d, off:off + n * d] = np.kron(np.eye(n), np.eye(d)[:, [i]] @ np.eye(d)[[j]])
                units.append(V @ E @ V.conj().T / np.sqrt(n))
        off += n * d
    expected = np.array(units)
    alg = close_algebra(block_generators(blocks, V, rng), dim=dim)
    assert len(alg) == len(expected)
    assert np.max(span_residual(expected, alg.basis)) < 1e-8
    assert np.max(span_residual(alg.basis, expected)) < 1e-8
    built = close_algebra(list(expected))
    back = commutant(commutant(built))
    assert len(back) == len(expected)
    assert np.max(span_residual(expected, back.basis)) < 1e-8
    assert np.max(span_residual(back.basis, expected)) < 1e-8
    assert len(commutant(alg)) == sum(n * n for n, _ in blocks)
    assert sorted(structure_decompose(alg).block_shape) == sorted(blocks)


class TestCheckBipartition:
    def test_tensor_factorization_accepted(self):
        a1 = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)])
        a2 = close_algebra([kron_all(I2, SX), kron_all(I2, SZ)])
        cert = check_bipartition(a1, a2)
        assert isinstance(cert, BipartitionCertificate)
        assert cert.verdict
        assert cert.commuting and cert.join_is_full and cert.a1_is_factor
        assert cert.witness is None

    def test_residuals_reported(self):
        a1 = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)])
        a2 = close_algebra([kron_all(I2, SX), kron_all(I2, SZ)])
        res = check_bipartition(a1, a2).residuals
        assert set(res) == {"commutator", "block_form"}
        assert 0.0 <= res["commutator"] < 1e-8 and 0.0 <= res["block_form"] < 1e-8
        res = check_bipartition(a1, a1).residuals
        assert set(res) == {"commutator"}
        assert res["commutator"] > DEFAULT_TOL.resid_abs

    def test_positive_verdict_solves_one_commutant(self, monkeypatch):
        # the closures keep their decompositions: the verdict solves only for
        # a generic element of the join's commutant
        a1 = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)])
        a2 = close_algebra([kron_all(I2, SX), kron_all(I2, SZ)])
        real = algebra_module._generic_commutant
        solves = []

        def counting(ops, rng, tol, count):
            solves.append((len(ops), count))
            return real(ops, rng, tol, count)

        monkeypatch.setattr(algebra_module, "_generic_commutant", counting)
        assert check_bipartition(a1, a2).verdict
        assert solves == [(len(a1.generators) + len(a2.generators), 1)]

    def test_a_factor_a1_builds_no_center(self, monkeypatch):
        # the factor flag is the block count; the center is built only for a witness
        a1 = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)])
        a2 = close_algebra([kron_all(I2, SX), kron_all(I2, SZ)])
        real = algebra_module.center
        calls = []

        def counting(alg):
            calls.append(alg)
            return real(alg)

        monkeypatch.setattr(algebra_module, "center", counting)
        assert check_bipartition(a1, a2).verdict
        assert not check_bipartition(a1, a1).verdict  # a factor that does not commute with itself
        assert calls == []
        assert check_bipartition(close_algebra([SZ]), close_algebra([SZ])).witness is not None
        assert len(calls) == 1

    def test_thirty_two_dimensions_in_under_two_seconds(self):
        # scaling guard: forming the join of M_4 (x) 1 and 1 (x) M_8 by word
        # growth took ~16 s here; the commutant cut takes well under a second
        rng = np.random.default_rng(32)
        ginibre = lambda k: rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        a1 = close_algebra([np.kron(ginibre(4), np.eye(8)) for _ in range(2)])
        a2 = close_algebra([np.kron(np.eye(4), ginibre(8)) for _ in range(2)])
        assert (len(a1), len(a2)) == (16, 64)
        start = time.perf_counter()
        cert = check_bipartition(a1, a2)
        elapsed = time.perf_counter() - start
        assert cert.verdict
        assert elapsed < 2.0, f"check_bipartition at d=32 took {elapsed:.2f} s"

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
        # the same algebra under a rotated basis yields the same witness: the
        # traceless part of the center's diagonal generator, which weighs the
        # central projectors 1, 2, 3 in block order (here e3, e2, e1)
        a1 = close_algebra([np.diag([1.0, 2.0, 3.0])])
        R = haar_unitary(len(a1), np.random.default_rng(5))
        rotated = close_algebra(list(np.tensordot(R, a1.basis, axes=1)))
        expected = np.diag([1.0, 0.0, -1.0]) / np.sqrt(2)
        for alg in (a1, rotated):
            W = check_bipartition(alg, alg).witness
            assert np.allclose(W, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            check_bipartition(close_algebra([SX]), close_algebra([np.eye(3)]))

    def test_the_pair_commutes_at_resid_abs(self):
        # a2's generator leans into a1 by 1e-9: its measured commutator c reads as commuting
        # at a1's resid_abs 2c and as not commuting at c / 2
        a2 = close_algebra([kron_all(I2, SX) + 1e-9 * kron_all(SX, I2)])
        legs = [kron_all(SZ, I2), kron_all(SX, I2) + kron_all(SZ, I2)]
        c = check_bipartition(close_algebra(legs), a2).residuals["commutator"]
        assert 1e-11 < c < DEFAULT_TOL.resid_abs
        for resid_abs, commuting in ((c / 2, False), (2 * c, True)):
            cert = check_bipartition(close_algebra(legs, Tolerance(resid_abs=resid_abs)), a2)
            assert cert.residuals["commutator"] == c and cert.commuting is commuting, resid_abs
            assert (cert.witness is None) is commuting

    def test_every_decision_is_taken_at_a1s_tolerance(self):
        # a2's legs are turned by U = V exp(1e-9 i w) V^dag, so they miss a1's commutant by
        # ~1.6e-9: inside the default resid_abs, 16x past the 1e-10 that a1 was closed at
        rng = np.random.default_rng(1)
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w, V = np.linalg.eigh((G + G.conj().T) / 2)
        U = V @ np.diag(np.exp(1e-9j * w)) @ V.conj().T
        a1 = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)], Tolerance(resid_abs=1e-10))
        a2 = close_algebra([U @ kron_all(I2, P) @ U.conj().T for P in (SX, SZ)])
        cert = check_bipartition(a1, a2)
        assert 1e-10 < cert.residuals["commutator"] < DEFAULT_TOL.resid_abs
        assert not cert.commuting and not cert.verdict
        with pytest.raises(TypeError):
            check_bipartition(a1, a2, Tolerance())


def reference_block_form_residual(ops, T, shape, side):
    """The slot-form residual with a reconstruction per side, as first written."""
    B = T.conj().T @ np.asarray(ops) @ T
    off_block = np.ones(B.shape[1:], dtype=bool)
    worst = 0.0
    off = 0
    for n, dd in shape:
        r = n * dd
        sub = B[:, off:off + r, off:off + r].reshape(-1, n, dd, n, dd)
        if side == "right":
            recon = np.einsum("kl,aij->akilj", np.eye(n), np.einsum("akikj->aij", sub) / n)
        else:
            recon = np.einsum("akl,ij->akilj", np.einsum("akili->akl", sub) / dd, np.eye(dd))
        worst = max(worst, float(np.max(np.abs(sub - recon), initial=0.0)))
        off_block[off:off + r, off:off + r] = False
        off += r
    return max(worst, float(np.max(np.abs(B[:, off_block]), initial=0.0)))


class TestBlockFormResidualPinned:
    """The one slot-form reconstruction (the left form is the right form of the
    slot-swapped block) gives the two-branch reference bit for bit, on both
    sides: the algebra on the right and the commutant on the left, and each
    on the other side too."""

    @staticmethod
    def assert_pinned(alg, T, shape):
        for ops in (alg.basis, commutant(alg).basis):
            for side in ("right", "left"):
                assert _block_form_residual(ops, T, shape, side) == \
                    reference_block_form_residual(ops, T, shape, side)

    @pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.json")))
    def test_fixtures(self, name):
        spec = load_spec(DATA / f"{name}.json")
        algs = [close_algebra(as_matrices(spec.operators.values()), dim=spec.dim)]
        if spec.a1_generators:
            algs += [close_algebra(spec.generator_matrices(w), dim=spec.dim) for w in ("a1", "a2")]
        for alg in algs:
            for seed in (0, 3):
                sd = structure_decompose(alg, seed=seed)
                for other in algs:
                    self.assert_pinned(other, sd.basis_change, sd.block_shape)

    def test_seeded_direct_sums(self):
        rng = np.random.default_rng(2022)
        for _ in range(20):
            alg = random_block_algebra(random_block_shape(rng), rng)
            sd = structure_decompose(alg, seed=int(rng.integers(1000)))
            self.assert_pinned(alg, sd.basis_change, sd.block_shape)
            # a basis that does not block the algebra: residuals of order one
            self.assert_pinned(alg, haar_unitary(alg.dim, rng), sd.block_shape)


def reference_units(sd, side):
    """The matrix units built block by block and concatenated, as first written."""
    T, off, out = sd.basis_change, 0, []
    d = T.shape[0]
    for n, dd in sd.block_shape:
        TJ = T[:, off:off + n * dd].reshape(d, n, dd)
        off += n * dd
        A = TJ.transpose(2, 0, 1) if side == "right" else TJ.transpose(1, 0, 2)
        out.append((A[:, None] @ A.conj().transpose(0, 2, 1)[None]).reshape(-1, d, d) / np.sqrt(A.shape[2]))
    return np.concatenate(out)


def reference_center(alg):
    """The central projectors split off T on their own, as first written."""
    sd = structure_decompose(alg)
    TJ = np.split(sd.basis_change, np.cumsum([n * d for n, d in sd.block_shape])[:-1], axis=1)
    return np.array([t @ t.conj().T / np.sqrt(t.shape[1]) for t in TJ])


class TestUnitsPinned:
    """Units written into the one budgeted stack, and the center read through them,
    give the concatenating and splitting references bit for bit."""

    @staticmethod
    def assert_pinned(alg):
        sd = structure_decompose(alg)
        assert alg.basis.tobytes() == reference_units(sd, "right").tobytes()
        assert commutant(alg).basis.tobytes() == reference_units(sd, "left").tobytes()
        assert center(alg).basis.tobytes() == reference_center(alg).tobytes()

    @pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.json")))
    def test_fixtures(self, name):
        spec = load_spec(DATA / f"{name}.json")
        self.assert_pinned(close_algebra(as_matrices(spec.operators.values()), dim=spec.dim))

    def test_seeded_direct_sums(self):
        rng = np.random.default_rng(2028)
        for _ in range(20):
            self.assert_pinned(random_block_algebra(random_block_shape(rng), rng))

    def test_units_peak_at_the_stack_they_return(self):
        # one (count, d, d) allocation, the one the size rule predicted (the
        # list of per-block stacks and its concatenation peaked at 2x)
        sd = OperatorAlgebra([(1, 40)], haar_unitary(40, np.random.default_rng(40)), 0.0)
        tracemalloc.start()
        try:
            units = algebra_module._units(sd.basis_change, sd.block_shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert units.shape == (1600, 40, 40)
        assert peak <= 1.1 * units.nbytes, f"peak {peak / units.nbytes:.2f}x the returned stack"


def test_one_builder_writes_every_basis(monkeypatch):
    # closure, commutant, center and a local algebra build no basis; each takes its
    # units from _units on the first read of its basis, once
    calls = []
    real = algebra_module._units
    monkeypatch.setattr(algebra_module, "_units", lambda T, shape: calls.append(shape) or real(T, shape))
    alg = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)])
    algebras = [alg, commutant(alg), center(alg), local_algebra(TPS.natural((2, 3)), 1)]
    assert calls == []
    for _ in range(2):
        for a in algebras:
            assert a.basis.shape == (len(a), a.dim, a.dim)
    assert calls == [[(2, 2)], [(2, 2)], [(4, 1)], [(3, 2)]]


def test_derived_algebras_are_never_solved_again(monkeypatch):
    # the commutant, the center and a local algebra carry the block form they
    # were derived from: after the closure no decomposition is solved
    alg = close_algebra(collective_spin_generators(4))
    solves, real = [], algebra_module._decompose
    monkeypatch.setattr(algebra_module, "_decompose", lambda *args: solves.append(args) or real(*args))
    double = commutant(commutant(alg))
    assert structure_decompose(double).block_shape == structure_decompose(alg).block_shape
    assert len(center(alg)) == 3
    assert is_factor(commutant(alg)) == (False, 3)
    assert structure_decompose(local_algebra(TPS.natural((2, 3)), 2)).block_shape == [(2, 3)]
    assert solves == []
    assert double.basis.tobytes() == alg.basis.tobytes()


def test_a_bipartition_builds_no_basis_for_a1(monkeypatch):
    # the flags read a1's block form and the generators: with the budget one byte under
    # a1's basis, spin N=4 against X on the first qubit answers as at the full budget
    a1_gens, a2_gens = collective_spin_generators(4), [kron_all(SX, I2, I2, I2)]
    full = check_bipartition(close_algebra(a1_gens), close_algebra(a2_gens))
    monkeypatch.setattr(pure_module, "BYTES_BUDGET", 16 * 35 * 16 * 16 - 1)
    a1, a2 = close_algebra(a1_gens), close_algebra(a2_gens)
    calls = []
    real = algebra_module._units
    monkeypatch.setattr(algebra_module, "_units", lambda T, shape: calls.append(shape) or real(T, shape))
    cert = check_bipartition(a1, a2)
    assert calls == []
    assert (cert.commuting, cert.join_is_full, cert.a1_is_factor, cert.verdict) == \
        (full.commuting, full.join_is_full, full.a1_is_factor, full.verdict) == (False, False, False, False)
    assert np.array_equal(cert.witness, full.witness)
    assert len(a1) == 35
    assert is_factor(a1) == (False, 3)
    with pytest.raises(ContractViolationError,
                       match=r"^a basis of 35 elements at dim 16 needs 0\.137 MiB, over the 0 MiB budget$"):
        a1.basis


def test_a_commutant_pair_builds_no_basis(monkeypatch):
    # a derived algebra's generators are read off its form, not its basis: with the budget
    # one byte under the commutant's basis, each pair answers without writing a unit
    a1 = close_algebra([kron_all(SX, I2, I2), kron_all(SZ, I2, I2)])
    comm = commutant(a1)
    monkeypatch.setattr(pure_module, "BYTES_BUDGET", 16 * len(comm) * 8 * 8 - 1)
    calls = []
    monkeypatch.setattr(algebra_module, "_units", lambda *args: calls.append(args))
    cert = check_bipartition(a1, comm)
    assert (cert.commuting, cert.join_is_full, cert.a1_is_factor, cert.verdict) == (True, True, True, True)
    assert len(join(a1, comm)) == 64
    assert structure_decompose(comm, seed=1).block_shape == [(2, 4)]
    assert calls == []


def test_a_commuting_non_factor_pair_builds_no_basis(monkeypatch):
    # spin N=4 against its own commutant: the witness is read off the center's
    # generator, a traceless central element of HS norm 1, and no unit is written
    alg = close_algebra(collective_spin_generators(4))
    comm = commutant(alg)
    calls = []
    monkeypatch.setattr(algebra_module, "_units", lambda *args: calls.append(args))
    cert = check_bipartition(alg, comm)
    assert (cert.commuting, cert.a1_is_factor, cert.verdict) == (True, False, False)
    assert calls == []
    W = cert.witness
    assert abs(np.trace(W)) < 1e-12 and abs(np.linalg.norm(W) - 1) < 1e-12
    for g in (*alg.generators, *comm.generators):
        assert np.max(np.abs(W @ g - g @ W)) <= DEFAULT_TOL.resid_abs


def test_the_generators_of_a_record_close_to_it():
    # the generators read off a form, or kept from a closure, generate the same algebra
    rng = np.random.default_rng(2034)
    for _ in range(30):
        alg = random_block_algebra(random_block_shape(rng), rng)
        dims = tuple(int(n) for n in rng.integers(2, 4, size=int(rng.integers(1, 4))))
        local = local_algebra(TPS(dims, haar_unitary(int(np.prod(dims)), rng)), int(rng.integers(1, len(dims) + 1)))
        for x in (alg, commutant(alg), center(alg), local):
            closed = close_algebra(list(x.generators))
            assert sorted(closed.block_shape) == sorted(x.block_shape)
            assert len(closed) == len(x)


def test_both_commutant_eigen_solves_read_exactly_hermitian_matrices(monkeypatch):
    # eigh reads the probe (Z + Z^dag) / 2 and K1, a symmetrized, norm-divided CG solution:
    # each is Hermitian to the last bit, so neither needs hermitian_eig's checks
    defects, eigh = [], np.linalg.eigh

    def recording(M):
        defects.append(float(np.max(np.abs(M - M.conj().T))))
        return eigh(M)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    rng = np.random.default_rng(53)
    for seed in range(4):
        for blocks in ([(1, 2), (2, 1)], [(2, 2)], [(1, 3), (3, 1), (1, 1)]):
            V = haar_unitary(sum(n * d for n, d in blocks), rng)
            close_algebra(block_generators(blocks, V, rng), seed=seed)
    check_bipartition(close_algebra([kron_all(SX, I2), kron_all(SZ, I2)]),
                      close_algebra([kron_all(I2, SX), kron_all(I2, SZ)]), seed=7)
    assert len(defects) >= 25 and set(defects) == {0.0}


@pytest.mark.filterwarnings("error")  # a RuntimeWarning from NaN arithmetic fails the test
def test_a_non_finite_commutant_solve_is_refused_as_a_stalled_solve(monkeypatch):
    # CG's residual is NaN when its start is: the solve stops at once and the stall guard
    # refuses it, where hermitian_eig used to, so no NaN reaches the eigen-solves
    real = np.random.default_rng

    class NanStarts:
        def __init__(self, seed):
            self.rng = real(seed)

        def standard_normal(self, size):
            draw = self.rng.standard_normal(size)
            return np.full(size, np.nan) if np.ndim(draw) == 3 else draw

    monkeypatch.setattr(np.random, "default_rng", NanStarts)
    with pytest.raises(ToleranceError, match=r"^commutant solve stalled at residual nan after \d+ steps$"):
        close_algebra([kron_all(SX, I2), kron_all(SZ, I2)])


class TestInputSizedStacksRefused:
    """The closure's seed, the commutant's product stack, the oracle's probe
    stack, a local algebra's basis and a dense ladder matrix are refused past
    the byte budget before they are built."""

    @pytest.mark.parametrize("generator, count", [
        (np.kron(SX + 1j * SZ, np.eye(8)), 3),  # the identity, g and g^dag
        (np.kron(SX, np.eye(8)), 2),  # a Hermitian g is its own adjoint
    ], ids=["non-hermitian", "hermitian"])
    def test_the_closure_seed_is_refused_before_it_is_stacked(self, generator, count, monkeypatch):
        def no_stack(*args, **kwargs):
            raise AssertionError("the seed was stacked")

        monkeypatch.setattr(algebra_module, "hs_orthonormalize", no_stack)
        monkeypatch.setattr(pure_module, "BYTES_BUDGET", (count - 1) * 16 * 16 * 16)
        with pytest.raises(ContractViolationError, match=rf"^the closure's seed of {count} operators at dim 16 needs "):
            close_algebra([generator])

    def test_the_product_stack_is_refused_before_anything_is_drawn(self, monkeypatch):
        alg = close_algebra([kron_all(SX, I2), kron_all(SZ, I2)])
        ops = alg.generators
        k, d = ops.shape[:2]
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        monkeypatch.setattr(pure_module, "BYTES_BUDGET", 16 * 3 * k * d * d - 1)
        with pytest.raises(ContractViolationError,
                           match=rf"^a commutant product stack of 3 x {k} operators at dim {d} needs "):
            algebra_module._generic_commutant(ops, rng, DEFAULT_TOL, 3)
        assert rng.bit_generator.state == state
        monkeypatch.setattr(pure_module, "BYTES_BUDGET", 16 * 3 * k * d * d)
        algebra_module._generic_commutant(ops, rng, DEFAULT_TOL, 3)

    def test_the_probe_stack_is_refused_before_it_is_drawn(self, monkeypatch):
        alg = close_algebra([SX, SZ])
        monkeypatch.setattr(pure_module, "BYTES_BUDGET", 16 * 8 * 2 * 2 - 1)
        with pytest.raises(ContractViolationError, match=r"^a stack of 8 oracle probes at dim 2 needs "):
            algebra_residuals(alg)
        monkeypatch.setattr(pure_module, "BYTES_BUDGET", 16 * 8 * 2 * 2)
        assert algebra_residuals(alg)["product"] < 1e-12

    def test_a_local_algebra_is_refused_at_its_basis(self, monkeypatch):
        t = TPS.natural((2, 3))
        monkeypatch.setattr(pure_module, "BYTES_BUDGET", 16 * 4 * 6 * 6 - 1)
        alg = local_algebra(t, 1)
        assert len(alg) == 4
        with pytest.raises(ContractViolationError, match=r"^a basis of 4 elements at dim 6 needs "):
            alg.basis
        monkeypatch.setattr(pure_module, "BYTES_BUDGET", 16 * 4 * 6 * 6)
        assert alg.basis.shape == (4, 6, 6)

    def test_a_dense_ladder_matrix_is_refused_before_it_is_built(self, monkeypatch):
        fock = build_fock(2, 2)
        monkeypatch.setattr(pure_module, "BYTES_BUDGET", 16 * 6 * 6 - 1)
        with pytest.raises(ContractViolationError, match=r"^a dense ladder matrix at dim 6 needs "):
            fock.lowering(1)
        monkeypatch.setattr(pure_module, "BYTES_BUDGET", 16 * 6 * 6)
        assert fock.lowering(1).shape == (6, 6)


def collective_spin_generators(N):
    """Jx, Jy and Jz on N qubits."""
    return [sum(kron_all(*(P if j == q else I2 for j in range(N))) for q in range(N)) / 2
            for P in (SX, SY, SZ)]


def adjacent_swap_generators(N):
    """The swaps of qubits q and q + 1 on N qubits."""
    swap = np.eye(4)[[0, 2, 1, 3]]
    return [kron_all(np.eye(2 ** q), swap, np.eye(2 ** (N - q - 2))) for q in range(N - 1)]


def schur_weyl_shape(N):
    """(n_j, d_j) = (C(N, N/2 - j) - C(N, N/2 - j - 1), 2j + 1) for j = N/2, N/2 - 1, ..., >= 0."""
    from math import comb
    return sorted((comb(N, k) - (comb(N, k - 1) if k else 0), N - 2 * k + 1) for k in range(N // 2 + 1))


class TestSchurWeylAndReference:
    """Oracles independent of the route: the Schur-Weyl counts of collective
    spin (Kempe, Bacon, Lidar & Whaley, PRA 63, 042307), its swap dual, and
    the double-commutant closure by nullspace cuts (tests/reference_closure)."""

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_collective_spin_has_the_schur_weyl_shape(self, N):
        alg = close_algebra(collective_spin_generators(N))
        sd = structure_decompose(alg)
        assert sorted(sd.block_shape) == schur_weyl_shape(N)
        assert len(alg) == sum(d * d for _, d in sd.block_shape)
        assert sd.residual < 1e-12

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_the_swap_dual_transposes_the_shape_and_exchanges_the_dimensions(self, N):
        spin = close_algebra(collective_spin_generators(N))
        swaps = close_algebra(adjacent_swap_generators(N))
        shape = structure_decompose(swaps).block_shape
        assert sorted(shape) == sorted((d, n) for n, d in schur_weyl_shape(N))
        assert (len(swaps), len(commutant(swaps))) == (len(commutant(spin)), len(spin))
        # each is the other's commutant
        assert np.max(span_residual(commutant(spin).basis, swaps.basis)) < 1e-8

    def test_haar_conjugated_direct_sums_match_the_reference_closure(self):
        rng = np.random.default_rng(7919)
        for _ in range(30):
            blocks = [(int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(int(rng.integers(1, 4)))]
            dim = sum(n * d for n, d in blocks)
            gens = block_generators(blocks, haar_unitary(dim, rng), rng)
            alg = close_algebra(gens, dim=dim)
            ref, ref_comm = reference_closure(gens, dim)
            assert sorted(structure_decompose(alg).block_shape) == sorted(blocks)
            assert (len(alg), len(commutant(alg))) == (len(ref), len(ref_comm))
            assert np.max(span_residual(ref, alg.basis)) < 1e-8
            assert np.max(span_residual(ref_comm, commutant(alg).basis)) < 1e-8
