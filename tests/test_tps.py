"""Tests for tensor product structures, entanglement, and entangling power."""

import argparse
import ast
import itertools
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tpskit.numerics as numerics
import tpskit.pure as pure
import tpskit.tps as tps_module
from tpskit.algebra import close_algebra, commutant, is_factor, structure_decompose
from tpskit.bosonic import build_fock, mode_entanglement
from tpskit.errors import ContractViolationError, DimensionMismatchError
from tpskit.numerics import DEFAULT_TOL, Tolerance, schmidt_entropy
from tpskit.tps import (
    TPS,
    EntanglementMeasure,
    entangling_power,
    entanglement,
    local_algebra,
    multiplicative_partitions,
    tps_distance,
    tps_equivalent,
)

from helpers import haar_unitary, span_residual

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
CNOT = np.eye(4)[[0, 1, 3, 2]].astype(complex)
SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)
SWAP3 = np.eye(9)[[3 * j + i for i in range(3) for j in range(3)]].astype(complex)
# the qutrit controlled shift |i, j> -> |i, i + j mod 3>
CSUM = np.eye(9)[:, [3 * i + (i + j) % 3 for i in range(3) for j in range(3)]].astype(complex)
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def random_state(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- partitions

def ordered_factorizations(n):
    # oracle enumeration: all *ordered* factor tuples, deduped after sorting;
    # independent of the min-factor descent used by the implementation
    if n == 1:
        return [()]
    out = []
    for f in range(2, n + 1):
        if n % f == 0:
            for tail in ordered_factorizations(n // f):
                out.append((f,) + tail)
    return out


def oracle_partitions(n):
    return sorted({tuple(sorted(t)) for t in ordered_factorizations(n)})


class TestMultiplicativePartitions:
    def test_eight(self):
        assert multiplicative_partitions(8) == [(2, 2, 2), (2, 4), (8,)]

    def test_twelve(self):
        assert multiplicative_partitions(12) == [(2, 2, 3), (2, 6), (3, 4), (12,)]

    def test_primes_are_elementary(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert multiplicative_partitions(p) == [(p,)]

    def test_against_ordered_enumeration_oracle(self):
        for n in range(2, 41):
            assert multiplicative_partitions(n) == oracle_partitions(n)

    def test_products_and_sorting(self):
        for n in (24, 36, 60):
            parts = multiplicative_partitions(n)
            assert parts == sorted(parts)
            for t in parts:
                assert int(np.prod(t)) == n
                assert list(t) == sorted(t)
                assert all(f >= 2 for f in t)

    def test_rejects_small_n(self):
        with pytest.raises(ContractViolationError):
            multiplicative_partitions(1)

    def test_million_against_vector_partition_count(self):
        # 10^6 = 2^6 5^6: its factorizations are the multisets of nonzero
        # exponent vectors summing to (6, 6), counted by a 2-D coin change
        count = np.zeros((7, 7), dtype=int)
        count[0, 0] = 1
        for a, b in itertools.product(range(7), repeat=2):
            if a or b:
                for x, y in itertools.product(range(a, 7), range(b, 7)):
                    count[x, y] += count[x - a, y - b]
        parts = multiplicative_partitions(10**6)
        assert len(parts) == count[6, 6]
        assert len(set(parts)) == len(parts)
        assert all(int(np.prod(t)) == 10**6 for t in parts)

    def test_past_the_bound_refused(self):
        with pytest.raises(ContractViolationError, match="n = 1000001 exceeds the bound 1000000"):
            multiplicative_partitions(10**6 + 1)


# ------------------------------------------------------------------ the type

class TestTPSType:
    def test_natural(self):
        t = TPS.natural((2, 3))
        assert t.dim == 6
        assert t.nfactors == 2

    def test_natural_skips_the_unitarity_check_and_a_supplied_iso_keeps_it(self, monkeypatch):
        # natural's identity is exact: the O(d^3) product (0.2 s at d = 1024) is not run
        calls = []
        real = numerics.unitarity_defect
        monkeypatch.setattr(numerics, "unitarity_defect", lambda U: calls.append(U.shape) or real(U))
        natural = TPS.natural((2, 3))
        assert calls == [] and np.array_equal(natural.iso, np.eye(6)) and natural.dims == (2, 3)
        TPS((2, 3), np.eye(6, dtype=complex))
        TPS((2, 3), haar_unitary(6, np.random.default_rng(0)))
        assert calls == [(6, 6), (6, 6)]
        with pytest.raises(ContractViolationError, match="every factor dimension must be >= 2"):
            TPS.natural((1, 4))

    def test_rejects_dim_one_factor(self):
        with pytest.raises(ContractViolationError):
            TPS((1, 4), np.eye(4, dtype=complex))

    def test_rejects_nonunitary_iso(self):
        with pytest.raises(ContractViolationError):
            TPS((2, 2), 2.0 * np.eye(4, dtype=complex))

    def test_the_iso_is_checked_at_the_structure_tolerance(self):
        # a unitarity defect of ~1e-10: inside the default residual bound, outside 1e-12
        iso = (1 + 5e-11) * np.eye(4, dtype=complex)
        assert TPS((2, 2), iso).tol is DEFAULT_TOL
        with pytest.raises(ContractViolationError, match="iso unitarity defect"):
            TPS((2, 2), iso, Tolerance(resid_abs=1e-12))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            TPS((2, 2), np.eye(6, dtype=complex))

    def test_a_factor_product_past_int64_is_counted_exactly(self):
        # np.prod wrapped 2^64 to 0, so a (0, 0) iso was accepted with dim 0
        with pytest.raises(DimensionMismatchError, match=r"iso shape \(0, 0\) is not "
                           r"\(18446744073709551616, 18446744073709551616\)$"):
            TPS((2**32, 2**32), np.zeros((0, 0)))

    def test_measure_kinds(self):
        assert EntanglementMeasure().kind == "vn"
        assert EntanglementMeasure(kind="linear").kind == "linear"
        for kind in ("renyi", "von-neumann"):
            with pytest.raises(ContractViolationError, match="unknown entropy kind"):
                EntanglementMeasure(kind=kind)
        with pytest.raises(ContractViolationError):
            EntanglementMeasure(cut=frozenset())

    def test_the_entropy_kinds_are_written_once(self):
        # one literal in src/tpskit holds "vn" and "linear", pure.ENTROPY_KINDS: every --measure
        # flag offers it, EntanglementMeasure judges by it, and the numerics kernels judge nothing
        from tpskit.cli import build_parser

        literals = [(path.stem, node.lineno) for path in sorted(Path(pure.__file__).parent.glob("*.py"))
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, (ast.Tuple, ast.List, ast.Set))
                    and {"vn", "linear"} <= {getattr(e, "value", None) for e in node.elts}]
        assert pure.ENTROPY_KINDS == ("vn", "linear") and [stem for stem, _ in literals] == ["pure"]

        def measure_flags(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    yield from (flag for sub in action.choices.values() for flag in measure_flags(sub))
                elif "--measure" in action.option_strings:
                    yield action

        flags = list(measure_flags(build_parser()))
        assert len(flags) == 3 and all(flag.choices is pure.ENTROPY_KINDS for flag in flags)


# ------------------------------------------------------------- local algebra

def kron_local_algebra(tps, i):
    """Oracle: each matrix unit on slot i built as 1_left (x) E_ab (x) 1_right
    and conjugated by the iso, one unit at a time."""
    n_i = tps.dims[i - 1]
    left = int(np.prod(tps.dims[: i - 1], dtype=int))
    right = int(np.prod(tps.dims[i:], dtype=int))
    basis = np.zeros((n_i * n_i, tps.dim, tps.dim), dtype=complex)
    for a in range(n_i):
        for b in range(n_i):
            E = np.zeros((n_i, n_i), dtype=complex)
            E[a, b] = 1.0 / np.sqrt(left * right)
            slot = np.kron(np.eye(left), np.kron(E, np.eye(right)))
            basis[a * n_i + b] = tps.iso @ slot @ tps.iso.conj().T
    return basis


class TestLocalAlgebra:
    @pytest.mark.parametrize("dims", [(5,), (2, 3), (3, 2), (2, 3, 4), (4, 4, 4), (2, 2, 2, 2, 2)])
    def test_matches_the_kron_construction(self, dims):
        rng = np.random.default_rng(29)
        t = TPS(dims, haar_unitary(int(np.prod(dims)), rng))
        for i in range(1, len(dims) + 1):
            basis = local_algebra(t, i).basis
            assert basis.shape == (dims[i - 1] ** 2, t.dim, t.dim)
            assert np.max(np.abs(basis - kron_local_algebra(t, i))) < 1e-14

    def test_natural_first_factor(self):
        t = TPS.natural((2, 2))
        alg = local_algebra(t, 1)
        assert len(alg) == 4
        for M in (SX, SZ):
            assert span_residual([np.kron(M, I2)], alg.basis)[0] <= 1e-8
            assert span_residual([np.kron(I2, M)], alg.basis)[0] > 1e-8

    def test_swap_iso_relabels(self):
        t = TPS((2, 2), SWAP)
        alg = local_algebra(t, 1)
        assert span_residual([np.kron(I2, SX)], alg.basis)[0] <= 1e-8
        assert span_residual([np.kron(SX, I2)], alg.basis)[0] > 1e-8

    def test_random_iso_factor_and_commutant(self):
        rng = np.random.default_rng(17)
        t = TPS((2, 3), haar_unitary(6, rng))
        a1 = local_algebra(t, 1)
        a2 = local_algebra(t, 2)
        assert is_factor(a1).is_factor
        comm = commutant(a1)
        Q1 = comm.basis.reshape(len(comm), -1)
        Q2 = a2.basis.reshape(len(a2), -1)
        assert len(comm) == len(a2)
        assert np.max(np.abs(np.linalg.norm(Q1 - (Q1 @ Q2.conj().T) @ Q2, axis=1))) < 1e-8

    @pytest.mark.parametrize("p, q", [(2, 3), (3, 2), (2, 4), (4, 4)])
    def test_round_trip_through_the_decomposition(self, p, q):
        # a Haar-conjugated M_p (x) 1_q decomposes as 1_q (x) M_p with T: in TPS((q, p), T)
        # factor 2 must span the algebra and factor 1 its commutant
        rng = np.random.default_rng(100 * p + q)
        U = haar_unitary(p * q, rng)
        gens = [U @ np.kron(H + H.conj().T, np.eye(q)) @ U.conj().T
                for H in rng.standard_normal((2, p, p)) + 1j * rng.standard_normal((2, p, p))]
        a1 = close_algebra(gens)
        sd = structure_decompose(a1)
        assert sd.block_shape == [(q, p)]
        t = TPS(sd.block_shape[0], sd.basis_change)
        assert spans_equal(local_algebra(t, 2), a1, DEFAULT_TOL)
        assert spans_equal(local_algebra(t, 1), commutant(a1), DEFAULT_TOL)

    def test_the_structure_tolerance_travels_to_its_local_algebras(self):
        tol = Tolerance(rank_rel=1e-12, resid_abs=1e-9)
        t = TPS((2, 3), haar_unitary(6, np.random.default_rng(5)), tol)
        assert t.tol is tol and all(local_algebra(t, i).tol is tol for i in (1, 2))
        assert local_algebra(TPS.natural((2, 3), tol), 1).tol is tol
        assert local_algebra(TPS.natural((2, 3)), 1).tol is DEFAULT_TOL

    def test_index_out_of_range(self):
        t = TPS.natural((2, 2))
        with pytest.raises(IndexError):
            local_algebra(t, 0)
        with pytest.raises(IndexError):
            local_algebra(t, 3)


# -------------------------------------------------------------- entanglement

class TestEntanglement:
    def test_product_basis_state_exact_zero(self):
        t = TPS.natural((2, 2))
        assert entanglement(np.array([1, 0, 0, 0], dtype=complex), t) == 0.0

    def test_bell_is_one_bit(self):
        t = TPS.natural((2, 2))
        assert abs(entanglement(BELL, t) - 1.0) < 1e-12

    def test_bell_linear_entropy(self):
        t = TPS.natural((2, 2))
        E = entanglement(BELL, t, EntanglementMeasure(kind="linear"))
        assert abs(E - 0.5) < 1e-12

    def test_nonnormalized_rejected(self):
        t = TPS.natural((2, 2))
        with pytest.raises(ContractViolationError):
            entanglement(np.array([1, 0, 0, 1], dtype=complex), t)

    def test_a_state_norm_is_read_within_1e_10_of_one(self):
        # a norm off by 1e-8 is refused by both readers of a state, one off by 1e-11 is read
        t, fock = TPS.natural((2, 2)), build_fock(2, 2)
        for off, refused in ((1e-8, True), (-1e-8, True), (1e-11, False), (-1e-11, False)):
            for read, v in ((lambda v: entanglement(v, t), (1 + off) * BELL),
                            (lambda v: mode_entanglement(v, fock, (1,)), (1 + off) * fock.vacuum)):
                if refused:
                    with pytest.raises(ContractViolationError, match="state norm .* is not 1"):
                        read(v)
                else:
                    assert read(v) >= 0.0

    def test_ghz_every_cut_one_bit(self):
        t = TPS.natural((2, 2, 2))
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / np.sqrt(2)
        for i in (1, 2, 3):
            E = entanglement(ghz, t, EntanglementMeasure(cut=frozenset({i})))
            assert abs(E - 1.0) < 1e-9

    def test_multilocal_invariance(self):
        t = TPS.natural((2, 3))
        rng = np.random.default_rng(29)
        for _ in range(5):
            psi = random_state(6, rng)
            u = np.kron(haar_unitary(2, rng), haar_unitary(3, rng))
            assert abs(entanglement(u @ psi, t) - entanglement(psi, t)) < 1e-9

    def test_cut_complement_symmetry(self):
        t = TPS.natural((2, 4))
        rng = np.random.default_rng(31)
        psi = random_state(8, rng)
        E1 = entanglement(psi, t, EntanglementMeasure(cut=frozenset({1})))
        E2 = entanglement(psi, t, EntanglementMeasure(cut=frozenset({2})))
        assert abs(E1 - E2) < 1e-12


# ---------------------------------------------------------- entangling power

def quad_entangling_power(U, kind, n_u, n_phi):
    """Dense-quadrature oracle on C^2 x C^2: Gauss-Legendre in cos(theta),
    uniform grid in phase, per-qubit weights summing to one."""
    u, w = np.polynomial.legendre.leggauss(n_u)
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    states = np.zeros((n_u, n_phi, 2), dtype=complex)
    states[:, :, 0] = np.sqrt((1 + u) / 2)[:, None]
    states[:, :, 1] = np.exp(1j * phi)[None, :] * np.sqrt((1 - u) / 2)[:, None]
    wts = ((w / 2)[:, None] * np.ones(n_phi) / n_phi).reshape(-1)
    S1 = states.reshape(-1, 2)
    P = np.einsum("ai,bj->abij", S1, S1).reshape(-1, 4)
    WW = np.einsum("a,b->ab", wts, wts).reshape(-1)
    sv = np.linalg.svd((P @ U.T).reshape(-1, 2, 2), compute_uv=False)
    p = sv * sv
    keep = p > 1e-16
    if kind == "vn":
        q = np.where(keep, p, 1.0)
        E = -(q * np.log2(q)).sum(axis=1)
    else:
        E = 1.0 - np.where(keep, p * p, 0.0).sum(axis=1)
    return float((WW * E).sum())


def svd_entropies(U, tps, measure, samples, seed):
    """Reference per-sample entropies: the same canonical draw, each sample's row of
    2 (dL + dR) normals read as the complex cut side then the complement, and one
    SVD per sample's (cut, complement) coefficient matrix."""
    left = sorted(i - 1 for i in measure.cut)
    right = [i for i in range(tps.nfactors) if i not in left]
    dims_l = [tps.dims[i] for i in left]
    dims_r = [tps.dims[i] for i in right]
    dL, dR = int(np.prod(dims_l)), int(np.prod(dims_r))
    W = tps.iso.conj().T @ U @ tps.iso
    order = left + right
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    Z = rng.standard_normal((samples, 2 * (dL + dR))).view(complex)
    z1 = Z[:, :dL] / np.linalg.norm(Z[:, :dL], axis=1, keepdims=True)
    z2 = Z[:, dL:] / np.linalg.norm(Z[:, dL:], axis=1, keepdims=True)
    prod = np.einsum("bi,bj->bij", z1, z2).reshape([samples] + dims_l + dims_r)
    prod = np.transpose(prod, [0] + [1 + int(i) for i in np.argsort(order)])
    out = (prod.reshape(samples, -1) @ W.T).reshape([samples] + list(tps.dims))
    out = np.transpose(out, [0] + [1 + i for i in order]).reshape(samples, dL, dR)
    s = np.linalg.svd(out, compute_uv=False)
    return schmidt_entropy(s * s, kind=measure.kind)


def svd_entangling_power(U, tps, measure, samples, seed):
    """Reference estimator: the mean and standard error of svd_entropies."""
    vals = svd_entropies(U, tps, measure, samples, seed)
    return vals.mean(), vals.std(ddof=1) / np.sqrt(samples)


def haar_linear_entangling_power(U, tps, cut):
    """Exact Haar average of the linear entropy U creates from product states.

    With E[|a><a|^(x)2] = (1 + SWAP)/(d(d+1)) on each side of the cut
    (Zanardi, Zalka & Faoro, PRA 62, 030301(R)), the mean purity is
    Tr[U^(x)2 (1+S_L)(1+S_R) U^dag(x)2 S_L] / (dL(dL+1) dR(dR+1)), with S_L,
    S_R swapping the two copies of the cut and complement sides.
    """
    left = sorted(i - 1 for i in cut)
    order = left + [i for i in range(tps.nfactors) if i not in left]
    d = tps.dim
    dL = int(np.prod([tps.dims[i] for i in left]))
    dR = d // dL
    # tensor-coordinate action of U, regrouped as (cut, complement)
    P = np.eye(d).reshape(list(tps.dims) + [d]).transpose(order + [tps.nfactors]).reshape(d, d)
    W = P @ tps.iso.conj().T @ U @ tps.iso @ P.T
    WW = np.kron(W, W)
    copies = np.eye(d * d).reshape(dL, dR, dL, dR, d * d)
    S_L = copies.transpose(2, 1, 0, 3, 4).reshape(d * d, d * d)
    S_R = copies.transpose(0, 3, 2, 1, 4).reshape(d * d, d * d)
    one = np.eye(d * d)
    purity = np.trace(WW @ (one + S_L) @ (one + S_R) @ WW.conj().T @ S_L).real
    return 1.0 - purity / (dL * (dL + 1) * dR * (dR + 1))


def contracted_linear_entangling_power(U, dL, dR):
    """haar_linear_entangling_power of U on the natural (dL, dR) structure, cut {1}, in O(d^5).

    With W = U reshaped to (out L, out R, in L, in R), the output purity sum
    W[a,b,c,e] W*[x,b,c',e'] W[x,y,u,v] W*[a,y,u',v'] is averaged by pairing each
    conjugate input with an input of either copy: (c', u') is (c, u) or (u, c), and
    (e', v') is (e, v) or (v, e), the four terms of (1 + S_L)(1 + S_R).
    """
    W = np.asarray(U, dtype=complex).reshape(dL, dR, dL, dR)
    pairings = ("xbce,ayuv", "xbue,aycv", "xbcv,ayue", "xbuv,ayce")
    purity = sum(np.einsum(f"abce,xyuv,{p}->", W, W, W.conj(), W.conj(), optimize=True)
                 for p in pairings).real
    return 1.0 - purity / (dL * (dL + 1) * dR * (dR + 1))


class TestEntanglingPower:
    def test_identity_exact_zero(self):
        t = TPS.natural((2, 2))
        est = entangling_power(np.eye(4), t, samples=2000, seed=0)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_swap_exact_zero(self):
        t = TPS.natural((2, 2))
        est = entangling_power(SWAP, t, samples=2000, seed=0)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_zero_samples_rejected(self):
        with pytest.raises(ContractViolationError):
            entangling_power(np.eye(4), TPS.natural((2, 2)), samples=0)

    def test_nonunitary_rejected(self):
        with pytest.raises(ContractViolationError):
            entangling_power(np.diag([1.0, 1.0, 1.0, 2.0]), TPS.natural((2, 2)))

    @pytest.mark.parametrize("cut", [(1,), (2,)])
    def test_draws_up_to_the_budget_are_unchanged(self, cut, monkeypatch):
        t = TPS.natural((2, 3))
        U = haar_unitary(6, np.random.default_rng(31))
        measure = EntanglementMeasure(cut=frozenset(cut))
        # the size rule predicts the entropies, 16 bytes a sample: vals and the temporary in its std
        ref = entangling_power(U, t, measure, samples=1000, seed=5)
        monkeypatch.setattr(pure, "BYTES_BUDGET", 1000 * 16)
        at = entangling_power(U, t, measure, samples=1000, seed=5)
        assert (at.mean, at.stderr) == (ref.mean, ref.stderr)

        def no_draw(*args, **kwargs):
            raise AssertionError("drew samples for a refused estimate")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ContractViolationError, match="budget"):
            entangling_power(U, t, measure, samples=1001, seed=5)

    def test_an_8x8_estimate_answers_past_the_old_draw_cap(self, monkeypatch):
        # no draw is held, so a budget of 4096 samples' entropies admits 4096 samples at 8 x 8,
        # where a held draw of 16 * samples * (8 + 8) bytes was refused past 256
        t = TPS.natural((8, 8))
        U = haar_unitary(64, np.random.default_rng(37))
        ref = entangling_power(U, t, samples=4096, seed=3)
        monkeypatch.setattr(pure, "BYTES_BUDGET", 4096 * 16)
        at = entangling_power(U, t, samples=4096, seed=3)
        assert (at.mean, at.stderr) == (ref.mean, ref.stderr)
        assert 16 * 257 * (8 + 8) > pure.BYTES_BUDGET
        with pytest.raises(ContractViolationError, match="an entropy stack of 4097 samples needs"):
            entangling_power(U, t, samples=4097, seed=3)

    def test_cnot_against_quadrature_oracle(self):
        coarse = quad_entangling_power(CNOT, "vn", 24, 24)
        fine = quad_entangling_power(CNOT, "vn", 32, 32)
        assert abs(fine - coarse) < 1e-4  # oracle grid-stable
        t = TPS.natural((2, 2))
        est = entangling_power(CNOT, t, samples=20000, seed=1)
        assert abs(est.mean - fine) < 3 * est.stderr + 1e-4

    def test_cnot_linear_entropy_closed_form(self):
        # the linear-entropy integrand is polynomial in the amplitudes, so
        # modest quadrature is exact: the Haar-product average is 2/9
        q = quad_entangling_power(CNOT, "linear", 12, 12)
        assert abs(q - 2.0 / 9.0) < 1e-10
        t = TPS.natural((2, 2))
        est = entangling_power(CNOT, t, EntanglementMeasure(kind="linear"),
                               samples=20000, seed=1)
        assert abs(est.mean - 2.0 / 9.0) < 3 * est.stderr

    def test_seed_determinism(self):
        t = TPS.natural((2, 2))
        a = entangling_power(CNOT, t, samples=3000, seed=42)
        b = entangling_power(CNOT, t, samples=3000, seed=42)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_batch_size_does_not_change_result(self, monkeypatch):
        # one row per pass and the whole draw in one pass give the same estimate bit for bit.
        # Permutation gates keep the contraction exact: a one-row pass takes BLAS's
        # matrix-vector product, which rounds differently from the matrix-matrix one
        for dims, U in (((2, 2), CNOT), ((3, 3), CSUM)):
            t = TPS.natural(dims)
            for kind in ("vn", "linear"):
                ests = []
                for rows in (1, 3000):
                    monkeypatch.setattr(tps_module, "_PASS_BYTES", 16 * t.dim * rows)
                    monkeypatch.setattr(tps_module, "_MIN_PASS_ROWS", 1)
                    ests.append(entangling_power(U, t, EntanglementMeasure(kind=kind),
                                                 samples=3000, seed=8))
                assert ests[0].mean > 0.1
                assert (ests[0].mean, ests[0].stderr) == (ests[1].mean, ests[1].stderr)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4)])
    def test_passes_of_two_rows_or_more_match_one_pass_bit_for_bit(self, dims, monkeypatch):
        t = TPS.natural(dims)
        U = haar_unitary(t.dim, np.random.default_rng(5))
        for kind in ("vn", "linear"):
            ests = []
            for rows in (2, 7, 3000):
                monkeypatch.setattr(tps_module, "_PASS_BYTES", 16 * t.dim * rows)
                monkeypatch.setattr(tps_module, "_MIN_PASS_ROWS", 1)
                ests.append(entangling_power(U, t, EntanglementMeasure(kind=kind),
                                             samples=3000, seed=8))
            assert len({(e.mean, e.stderr) for e in ests}) == 1

    @pytest.mark.parametrize("dims,gate", [((2, 2), "local"), ((2, 4), "local"), ((4, 2), "local"),
                                           ((3, 3), "local"), ((2, 2), "swap"), ((3, 3), "swap")])
    @pytest.mark.parametrize("kind", ["vn", "linear"])
    def test_local_unitaries_and_swaps_give_exact_zeros(self, dims, gate, kind):
        t = TPS.natural(dims)
        if gate == "swap":
            U = SWAP if dims == (2, 2) else SWAP3
        else:
            rng = np.random.default_rng([83, *dims])
            U = np.kron(haar_unitary(dims[0], rng), haar_unitary(dims[1], rng))
        est = entangling_power(U, t, EntanglementMeasure(kind=kind), samples=2000, seed=6)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    @pytest.mark.parametrize("dims,samples,stacks", [((8, 8), 20000, 3.25), ((2, 2), 2**20, 2.25)],
                             ids=["8x8", "2x2-2^20"])
    @pytest.mark.parametrize("kind", ["vn", "linear"])
    def test_peak_stays_near_the_prediction(self, dims, samples, stacks, kind):
        # the size rule predicts the entropies, 16 * samples bytes (vals and the temporary
        # inside vals.std); the rest is a pass's (rows, dim) stacks, which do not grow with
        # samples.  Measured: 2.57 (vn) and 3.06 (linear) stacks at 8 x 8, 2.04 at 2 x 2
        t = TPS.natural(dims)
        stack = 16 * t.dim * max(tps_module._MIN_PASS_ROWS, tps_module._PASS_BYTES // (16 * t.dim))
        U = haar_unitary(t.dim, np.random.default_rng(89))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            est = entangling_power(U, t, EntanglementMeasure(kind), samples=samples, seed=2)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.mean > 0.1
        assert peak <= 16 * samples + stacks * stack  # 0.71 MiB at 8 x 8
        assert elapsed < 1.0

    @pytest.mark.parametrize("dims,cut", [((2, 3), {1}), ((3, 2), {1}), ((2, 2, 2), {1, 3})])
    @pytest.mark.parametrize("kind", ["vn", "linear"])
    def test_the_first_k_samples_are_the_k_sample_estimate(self, dims, cut, kind):
        # each sample's normals are drawn in turn, so a k-sample estimate is the mean over the
        # first k per-sample values of any longer draw, within a pass (700) and across one (2500)
        t = TPS.natural(dims)
        U = haar_unitary(t.dim, np.random.default_rng(59))
        measure = EntanglementMeasure(kind=kind, cut=frozenset(cut))
        ref = svd_entropies(U, t, measure, samples=3000, seed=9)
        for k in (1, 700, 2500):
            est = entangling_power(U, t, measure, samples=k, seed=9)
            assert abs(est.mean - ref[:k].mean()) < 1e-13
            assert abs(est.stderr - (ref[:k].std(ddof=1) / np.sqrt(k) if k > 1 else 0.0)) < 1e-13

    def test_multilocal_invariance(self):
        t = TPS.natural((2, 2))
        rng = np.random.default_rng(55)
        for _ in range(3):
            U = haar_unitary(4, rng)
            V = np.kron(haar_unitary(2, rng), haar_unitary(2, rng)) @ U \
                @ np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
            e1 = entangling_power(U, t, samples=8000, seed=2)
            e2 = entangling_power(V, t, samples=8000, seed=3)
            assert abs(e1.mean - e2.mean) <= 3 * (e1.stderr + e2.stderr)

    @pytest.mark.parametrize("dims,cut", [((2, 2), {1}), ((4, 2), {1}), ((3, 3), {1}),
                                          ((2, 3, 4), {1, 3}), ((2, 4), {1}), ((3, 2), {1})])
    @pytest.mark.parametrize("kind", ["vn", "linear"])
    def test_matches_per_sample_svd_reference(self, dims, cut, kind):
        rng = np.random.default_rng(61)
        d = int(np.prod(dims))
        iso = haar_unitary(d, rng) if len(dims) == 3 else np.eye(d)
        t = TPS(dims, iso)
        U = haar_unitary(d, rng)
        measure = EntanglementMeasure(kind=kind, cut=frozenset(cut))
        est = entangling_power(U, t, measure, samples=3000, seed=12)
        mean, stderr = svd_entangling_power(U, t, measure, samples=3000, seed=12)
        assert abs(est.mean - mean) < 1e-13
        assert abs(est.stderr - stderr) < 1e-13

    @pytest.mark.parametrize("dims,cut", [((2, 3, 2), (1, 3)), ((3, 4), (2,))])
    @pytest.mark.parametrize("kind", ["vn", "linear"])
    def test_reordering_cut_matches_the_permuted_structure(self, dims, cut, kind):
        # moving the cut's factors to the front, in order, gives a structure whose
        # natural cut makes the same draws and sees the same output states
        rng = np.random.default_rng(73)
        d = int(np.prod(dims))
        t = TPS(dims, haar_unitary(d, rng))
        U = haar_unitary(d, rng)
        sigma = [i - 1 for i in cut] + [i for i in range(len(dims)) if i + 1 not in cut]
        M = np.eye(d).reshape(*dims, d).transpose(*sigma, len(dims)).reshape(d, d).T
        front = TPS(tuple(dims[k] for k in sigma), t.iso @ M)
        natural_cut = frozenset(range(1, len(cut) + 1))
        est = entangling_power(U, t, EntanglementMeasure(kind, frozenset(cut)),
                               samples=3000, seed=5)
        ref = entangling_power(U, front, EntanglementMeasure(kind, natural_cut),
                               samples=3000, seed=5)
        assert abs(est.mean - ref.mean) < 1e-14
        assert abs(est.stderr - ref.stderr) < 1e-14

    @pytest.mark.parametrize("dims,cut", [((2, 3), {1}), ((3, 4), {1}), ((2, 2, 2), {1, 3})])
    def test_linear_mean_against_haar_moment_oracle(self, dims, cut):
        rng = np.random.default_rng(67)
        t = TPS.natural(dims)
        U = haar_unitary(t.dim, rng)
        exact = haar_linear_entangling_power(U, t, cut)
        est = entangling_power(U, t, EntanglementMeasure(kind="linear", cut=frozenset(cut)),
                               samples=20000, seed=5)
        assert abs(est.mean - exact) < 5 * est.stderr

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)])
    def test_contracted_oracle_matches_the_dense_one(self, dims):
        U = haar_unitary(dims[0] * dims[1], np.random.default_rng(79))
        dense = haar_linear_entangling_power(U, TPS.natural(dims), {1})
        assert abs(contracted_linear_entangling_power(U, *dims) - dense) < 1e-13

    def test_an_8x8_linear_estimate_against_the_contracted_oracle(self):
        # the dense oracle's four (d^2, d^2) matrices are 256 MiB each at 8 x 8
        U = haar_unitary(64, np.random.default_rng(83))
        start = time.perf_counter()
        exact = contracted_linear_entangling_power(U, 8, 8)
        assert time.perf_counter() - start < 1.0
        est = entangling_power(U, TPS.natural((8, 8)), EntanglementMeasure(kind="linear"),
                               samples=20000, seed=5)
        assert abs(est.mean - exact) < 5 * est.stderr

    def test_haar_moment_oracle_closed_forms(self):
        t = TPS.natural((2, 2))
        assert abs(haar_linear_entangling_power(CNOT, t, {1}) - 2.0 / 9.0) < 1e-14
        assert abs(haar_linear_entangling_power(SWAP, t, {1})) < 1e-14
        rng = np.random.default_rng(71)
        t = TPS((2, 3), haar_unitary(6, rng))
        local = t.iso @ np.kron(haar_unitary(2, rng), haar_unitary(3, rng)) @ t.iso.conj().T
        assert abs(haar_linear_entangling_power(local, t, {2})) < 1e-14

    @pytest.mark.parametrize("cut", [{1}, {2}], ids=["2x3", "3x2"])
    def test_a_two_dim_side_matches_the_eigvalsh_spectrum(self, cut, monkeypatch):
        # the 2 x 2 reduced densities of a 2 x 3 cut, and of the transposed 3 x 2 one,
        # come from three sums and take a closed-form spectrum; eigvalsh's spectrum of
        # the same densities gives the same estimate to roundoff
        read = []

        def eigvalsh_entropy(a, c, b, kind):
            read.append(len(a))
            rho = np.empty(a.shape + (2, 2), dtype=complex)
            rho[:, 0, 0], rho[:, 1, 1], rho[:, 1, 0], rho[:, 0, 1] = a, c, b, b.conj()
            return schmidt_entropy(np.linalg.eigvalsh(rho), kind)

        U = haar_unitary(6, np.random.default_rng(79))
        t, measure = TPS.natural((2, 3)), EntanglementMeasure(kind="vn", cut=frozenset(cut))
        est = entangling_power(U, t, measure, samples=3000, seed=4)
        monkeypatch.setattr(tps_module, "entropy_2x2", eigvalsh_entropy)
        ref = entangling_power(U, t, measure, samples=3000, seed=4)
        assert sum(read) == 3000
        assert est.mean > 0.1
        assert abs(est.mean - ref.mean) < 1e-15
        assert abs(est.stderr - ref.stderr) < 1e-15

    @pytest.mark.parametrize("kind", ["vn", "linear"])
    def test_takes_no_svd(self, kind, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("entangling_power must not take an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        U = haar_unitary(12, np.random.default_rng(73))
        est = entangling_power(U, TPS.natural((2, 3, 2)),
                               EntanglementMeasure(kind=kind, cut=frozenset({2})),
                               samples=500, seed=1)
        assert est.mean > 0

    def test_reports_unitarity_defect(self):
        est = entangling_power(CNOT, TPS.natural((2, 2)), samples=100, seed=0)
        assert est.unitarity_defect == 0.0
        U = (1 + 2.5e-13) * CNOT
        est = entangling_power(U, TPS.natural((2, 2)), samples=100, seed=0)
        assert 0.0 < est.unitarity_defect < 1e-8


class TestTpsDistance:
    def test_multilocal_distance_zero(self):
        rng = np.random.default_rng(4)
        for dims in ((2, 2), (3, 3), (4, 2)):
            t = TPS.natural(dims)
            u = np.kron(haar_unitary(dims[0], rng), haar_unitary(dims[1], rng))
            for kind in ("vn", "linear"):
                measure = EntanglementMeasure(kind=kind)
                assert tps_distance(u, t, measure, samples=2000, seed=0) == 0.0

    def test_identity_zero(self):
        assert tps_distance(np.eye(4), TPS.natural((2, 2)), samples=100, seed=0) == 0.0

    def test_sqrt_of_mean(self):
        t = TPS.natural((2, 2))
        est = entangling_power(CNOT, t, samples=5000, seed=9)
        assert abs(tps_distance(CNOT, t, samples=5000, seed=9) - np.sqrt(est.mean)) < 1e-15

    def test_tolerance_reaches_the_unitarity_check(self):
        # a unitarity defect of ~1e-10: inside the default residual bound,
        # outside resid_abs=1e-12
        U = (1 + 5e-11) * CNOT
        assert tps_distance(U, TPS.natural((2, 2)), samples=100, seed=0) > 0
        with pytest.raises(ContractViolationError, match=r"U unitarity defect 1\.\d{3}e-10, over resid_abs 1\.000e-12"):
            tps_distance(U, TPS.natural((2, 2), Tolerance(resid_abs=1e-12)), samples=100, seed=0)


# --------------------------------------------------------------- equivalence

def spans_equal(a, b, tol):
    """Whether two local algebras span the same operators, each basis within resid_abs of the other."""
    return len(a) == len(b) and max(np.max(span_residual(a.basis, b.basis)),
                                    np.max(span_residual(b.basis, a.basis))) < tol.resid_abs


def enumerated_equivalent(t1, t2, tol=DEFAULT_TOL):
    """Oracle: the first permutation, over every permutation within each
    dimension group in lexicographic order, whose local spans all agree."""
    if sorted(t1.dims) != sorted(t2.dims):
        return None
    m = t1.nfactors
    loc1 = [local_algebra(t1, i) for i in range(1, m + 1)]
    loc2 = [local_algebra(t2, i) for i in range(1, m + 1)]
    groups, targets = {}, {}
    for pos in range(m):
        groups.setdefault(t1.dims[pos], []).append(pos)
        targets.setdefault(t2.dims[pos], []).append(pos)
    group_dims = sorted(groups)
    choices = [itertools.permutations(targets[n]) for n in group_dims]
    for combo in itertools.product(*choices):
        pi = [0] * m
        for n, perm in zip(group_dims, combo):
            for src, dst in zip(groups[n], perm):
                pi[src] = dst
        if all(spans_equal(loc1[k], loc2[pi[k]], tol) for k in range(m)):
            return tuple(p + 1 for p in pi)
    return None


def permuted_structure(t1, sigma, rng):
    """t1 with its factors reordered (factor k+1 of the result is factor
    sigma[k]+1 of t1) and a random local unitary on every factor."""
    dims, d = list(t1.dims), t1.dim
    M = np.eye(d).reshape(*dims, d).transpose(*sigma, len(dims)).reshape(d, d).T
    dims2 = [dims[s] for s in sigma]
    local = np.eye(1)
    for n in dims2:
        local = np.kron(local, haar_unitary(n, rng))
    return TPS(tuple(dims2), t1.iso @ M @ local)


class TestTpsEquivalent:
    def test_reflexive_identity(self):
        t = TPS.natural((2, 2))
        assert tps_equivalent(t, t) == (1, 2)

    def test_swap_transposition(self):
        t = TPS.natural((2, 2))
        assert tps_equivalent(t, TPS((2, 2), SWAP)) == (2, 1)

    def test_multilocal_composition_is_identity(self):
        rng = np.random.default_rng(13)
        t1 = TPS((2, 3), haar_unitary(6, rng))
        u = np.kron(haar_unitary(2, rng), haar_unitary(3, rng))
        t2 = TPS((2, 3), t1.iso @ u)
        assert tps_equivalent(t1, t2) == (1, 2)

    def test_symmetry(self):
        rng = np.random.default_rng(19)
        t1 = TPS.natural((2, 2, 3))
        perm_iso = np.eye(12).reshape(2, 2, 3, 12).transpose(1, 0, 2, 3).reshape(12, 12)
        t2 = TPS((2, 2, 3), perm_iso.T.astype(complex))
        p12 = tps_equivalent(t1, t2)
        p21 = tps_equivalent(t2, t1)
        assert p12 is not None and p21 is not None
        for k in range(3):
            assert p21[p12[k] - 1] == k + 1

    def test_dims_multiset_mismatch_returns_none(self):
        t1 = TPS.natural((2, 6))
        t2 = TPS.natural((3, 4))
        assert tps_equivalent(t1, t2) is None

    def test_unrelated_isos_not_equivalent(self):
        rng = np.random.default_rng(3)
        t1 = TPS.natural((2, 2))
        t2 = TPS((2, 2), haar_unitary(4, rng))
        assert tps_equivalent(t1, t2) is None

    def test_total_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            tps_equivalent(TPS.natural((2, 2)), TPS.natural((2, 3)))

    def test_direct_match_agrees_with_the_enumeration(self):
        rng = np.random.default_rng(2026)
        pairs = []
        for dims in [(2, 3), (3, 2, 2), (2, 2, 3), (2, 2, 2, 2), (2, 3, 2, 3), (2, 2, 2, 2, 2)]:
            t1 = TPS(dims, haar_unitary(int(np.prod(dims)), rng))
            sigma = rng.permutation(len(dims))
            t2 = permuted_structure(t1, sigma, rng)
            # factor k+1 of t1 is factor j of t2 with sigma[j-1] == k
            assert tps_equivalent(t1, t2) == tuple(int(np.argmax(sigma == k)) + 1
                                                   for k in range(len(dims)))
            # a Haar unitary on the first two factors of t2 entangles them
            pair = t2.dims[0] * t2.dims[1]
            entangled = np.kron(haar_unitary(pair, rng), np.eye(t1.dim // pair))
            pairs += [(t1, t2), (t2, t1), (t1, TPS(dims, haar_unitary(t1.dim, rng))),
                      (t1, TPS(t2.dims, t2.iso @ entangled))]
        pairs += [(TPS.natural((2, 6)), TPS.natural((3, 4))),
                  (TPS.natural((2, 2, 3)), TPS.natural((4, 3))),
                  (TPS.natural((2, 3)), TPS.natural((3, 2)))]
        found = [tps_equivalent(t1, t2) for t1, t2 in pairs]
        assert found == [enumerated_equivalent(t1, t2) for t1, t2 in pairs]
        assert sum(p is not None for p in found) == 12  # the permuted pairs, both ways

    @pytest.mark.parametrize("resid_abs", [1e-8, 1e-4])
    def test_the_match_threshold_is_the_realignment_ratio(self, resid_abs):
        # exp(i eps Z (x) Z) realigns to cos(eps) vec(1) vec(1)^T + i sin(eps) vec(Z) vec(Z)^T,
        # so s_2 / s_1 = tan(eps): a match just below resid_abs, none just above
        for factor, expected in [(0.9, (1, 2)), (1.1, None)]:
            phases = np.exp(1j * factor * resid_abs * np.array([1, -1, -1, 1]))
            t2 = TPS((2, 2), np.diag(phases))
            assert tps_equivalent(TPS.natural((2, 2), Tolerance(resid_abs=resid_abs)), t2) == expected

    @pytest.mark.parametrize("eps,expect_match", [(1e-10, True), (1e-6, False)])
    def test_a_near_local_transition_agrees_with_the_span_oracle(self, eps, expect_match):
        # iso2 = iso1 . local . exp(i eps H) with |H| = 1: far below resid_abs both
        # the realignment rule and the span comparison match, far above it neither does
        rng = np.random.default_rng(4099)
        for dims in [(2, 3), (2, 2, 2), (3, 4), (2, 2, 3)]:
            d = int(np.prod(dims))
            t1 = TPS(dims, haar_unitary(d, rng))
            iso1_local = permuted_structure(t1, np.arange(len(dims)), rng).iso
            G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            w, V = np.linalg.eigh(G + G.conj().T)
            w /= np.max(np.abs(w))
            t2 = TPS(dims, iso1_local @ (V * np.exp(1j * eps * w)) @ V.conj().T)
            expected = tuple(range(1, len(dims) + 1)) if expect_match else None
            assert tps_equivalent(t1, t2) == enumerated_equivalent(t1, t2) == expected, dims
