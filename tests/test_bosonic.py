"""Tests for truncated Fock spaces and mode-relative entanglement."""

import itertools
import re
import time
import tracemalloc
from dataclasses import replace
from math import comb

import numpy as np
import pytest

import tpskit.bosonic
from tpskit.bosonic import (
    FockSpace,
    build_fock,
    ccr_residual,
    mode_entanglement,
    rotate_single_particle,
    single_excitation_state,
    transform_modes,
)
from tpskit.errors import (
    ContractViolationError,
    DimensionMismatchError,
    TruncationBoundaryError,
)
from tpskit.numerics import Tolerance, schmidt_entropy, unitarity_defect

from helpers import haar_unitary

BEAMSPLITTER = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def dense_ladders(N, M):
    """Reference annihilation stack (N, dim, dim), built densely from the
    filtered hypercube of occupation tuples."""
    basis = sorted(m for m in itertools.product(range(M + 1), repeat=N) if sum(m) <= M)
    index = {m: i for i, m in enumerate(basis)}
    a = np.zeros((N, len(basis), len(basis)))
    for col, m in enumerate(basis):
        for j in range(N):
            if m[j] > 0:
                lowered = m[:j] + (m[j] - 1,) + m[j + 1:]
                a[j, index[lowered], col] = np.sqrt(m[j])
    return a.astype(complex)


def loop_ladder_tables(N, M):
    """Reference (low, w) tables, filled entry by entry through a lookup of
    the lowered occupation tuple."""
    basis = [tuple(m) for m in build_fock(N, M).occ.T.tolist()]
    positions = {m: i for i, m in enumerate(basis)}
    low = np.full((N, len(basis)), -1, dtype=np.intp)
    w = np.zeros((N, len(basis)))
    for col, m in enumerate(basis):
        for j in range(N):
            if m[j] > 0:
                low[j, col] = positions[m[:j] + (m[j] - 1,) + m[j + 1:]]
                w[j, col] = np.sqrt(m[j])
    return low, w


def dense_ccr_residual(fock):
    """Oracle: the CCR residual from dense products of the modes of fock's frame."""
    transformed = np.einsum("ji,jab->iab", fock.U, dense_ladders(fock.N, fock.M))
    interior = fock.interior_mask()
    keep = np.ix_(interior, interior)
    eye = np.eye(fock.dim)
    worst = 0.0
    for i in range(fock.N):
        ai = transformed[i]
        for j in range(fock.N):
            aj = transformed[j]
            worst = max(worst, float(np.max(np.abs(ai @ aj - aj @ ai))))
            C = ai @ aj.conj().T - aj.conj().T @ ai - (eye if i == j else 0.0)
            worst = max(worst, float(np.max(np.abs(C[keep]))))
    return worst


def table_ccr_residual(fock):
    """Oracle: the tables' own CCR residual, walked pair by pair in O(N^2 dim): the largest
    entry of [a_j, a_l] on every column and of [a_j, a_l^dag] - delta_jl on the interior
    columns.  A ladder sends a column to at most one row, so a product of two does too: a
    commutator column holds three terms (two products and the delta), summed where they
    share a row."""
    N, dim = fock.occ.shape
    tables = fock._tables
    p, c = np.nonzero(tables.low >= 0)
    # each table gets a sink column dim, where vanished products land with weight 0
    low, up = np.full((2, N, dim + 1), dim)
    w, wu = np.zeros((2, N, dim + 1))
    low[p, c], w[p, c] = tables.low[p, c], tables.w[p, c]
    up[p, tables.low[p, c]], wu[p, tables.low[p, c]] = c, tables.w[p, c]  # raising, inverted
    every, inside = np.arange(dim), np.flatnonzero(fock.interior_mask())
    modes = np.arange(N)[:, None]  # mode l along axis 0; j loops
    worst = 0.0
    for j in range(N):
        for b, wb, cols, delta in ((low, w, every, 0.0), (up, wu, inside, 1.0 * (modes == j))):
            terms = ((low[j, b[:, cols]], w[j, b[:, cols]] * wb[:, cols]),  # a_j b_l e_c
                     (b[:, low[j, cols]], -wb[:, low[j, cols]] * w[j, cols]),  # -b_l a_j e_c
                     (cols, -delta))
            for row, _ in terms:
                entry = sum(np.where(r == row, v, 0.0) for r, v in terms)
                worst = max(worst, float(np.abs(entry).max(initial=0.0)))
    return worst


def dense_embedding_entanglement(v, fock, cut, kind="vn"):
    """Oracle: Schmidt decomposition of the state embedded in the full
    product of per-mode occupation spaces, an (M+1)^N array."""
    side = fock.M + 1
    T = np.zeros((side,) * fock.N, dtype=complex)
    for amp, m in zip(v, fock.occ.T):
        T[tuple(m)] = amp
    left = sorted(i - 1 for i in cut)
    right = [j for j in range(fock.N) if j not in left]
    T = np.transpose(T, left + right)
    s = np.linalg.svd(T.reshape(side ** len(left), -1), compute_uv=False)
    return schmidt_entropy(s * s, kind=kind)


def binary_entropy(p):
    probs = np.array([p, 1 - p])
    probs = probs[probs > 0]
    return float(-(probs * np.log2(probs)).sum())


# the (N, M, cut) shapes of the benchmark's bosonic jobs
BENCHMARK_SHAPES = [(2, 8, (1,)), (4, 4, (1,)), (3, 6, (1,)), (3, 4, (2,)), (4, 7, (1, 2)),
                    (4, 6, (3,)), (2, 3, (1,)), (3, 2, (1, 3)), (2, 2, (1,))]


def best_of_three(fn):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


# the (N, M) sizes acceptance criterion 7 checks the CCR at
CRITERION_7_SIZES = [(N, M) for N in range(1, 5) for M in range(1, 4)]

# the most modes the size rule admits at cutoff 1: (1003, 1) is predicted at 63.9 MiB
LARGEST_M1 = 1003


def one_photon_state(fock, amplitudes):
    v = np.zeros(fock.dim, dtype=complex)
    for j, c in enumerate(amplitudes):
        occ = tuple(1 if k == j else 0 for k in range(fock.N))
        v[fock.index(occ)] = c
    return v / np.linalg.norm(v)


class TestBuildFock:
    def test_single_oscillator_ladder(self):
        fock = build_fock(1, 2)
        assert fock.dim == 3
        assert fock.occ.tolist() == [[0, 1, 2]]
        expected = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]])
        assert np.allclose(fock.lowering(1), expected)

    def test_two_modes_cutoff_one(self):
        fock = build_fock(2, 1)
        assert fock.dim == 3
        assert fock.occ.T.tolist() == [[0, 0], [0, 1], [1, 0]]

    def test_three_modes_dimension(self):
        fock = build_fock(3, 2)
        assert fock.dim == 10 == comb(5, 3)

    def test_dimension_matches_enumeration_oracle(self):
        # the basis is the sorted, filtered hypercube, position for position
        for N, M in [(1, 3), (2, 2), (3, 3), (4, 2), (4, 7)]:
            fock = build_fock(N, M)
            oracle = sorted(m for m in itertools.product(range(M + 1), repeat=N)
                            if sum(m) <= M)
            assert fock.dim == len(oracle) == comb(N + M, N)
            assert [tuple(m) for m in fock.occ.T.tolist()] == oracle
            assert all(fock.index(m) == k for k, m in enumerate(oracle))

    def test_index_rejects_wrong_length_and_dropped_occupations(self):
        # at N = 2 a one-entry occupation would broadcast against the table
        fock = build_fock(2, 2)
        with pytest.raises(ValueError, match=r"\(1,\) is not one of the 2-mode"):
            fock.index((1,))
        with pytest.raises(ValueError, match=r"\(2, 1\) is not one of .* cutoff M = 2"):
            fock.index((2, 1))

    def test_many_modes_enumerate_the_simplex(self):
        # filtering the 4^12 hypercube took ~3 s; the simplex has 455 states
        assert best_of_three(lambda: build_fock(12, 3)) < 0.1
        assert build_fock(12, 3).dim == comb(15, 3)

    def test_lowering_matches_dense_construction(self):
        for N, M in CRITERION_7_SIZES:
            fock = build_fock(N, M)
            reference = dense_ladders(N, M)
            for i in range(1, N + 1):
                assert np.array_equal(fock.lowering(i), reference[i - 1])

    def test_ladder_tables_match_the_per_entry_loop(self):
        # every N, M <= 8 inside the dimension cap, and sizes whose (M+1)^N is past int64
        sizes = [(N, M) for N in range(1, 9) for M in range(1, 9) if comb(N + M, N) <= 4096]
        for N, M in sizes + [(12, 3), (70, 1), (40, 2), (60, 2)]:
            fock = build_fock(N, M)
            low, w = loop_ladder_tables(N, M)
            tables = fock._tables
            assert tables.low.dtype == low.dtype and np.array_equal(tables.low, low), (N, M)
            assert tables.w.dtype == w.dtype and np.array_equal(tables.w, w), (N, M)

    def test_number_operator_diagonal(self):
        fock = build_fock(2, 3)
        for i in (1, 2):
            a_i = fock.lowering(i)
            n_op = a_i.conj().T @ a_i
            expected = np.diag(fock.occ[i - 1]).astype(complex)
            assert np.allclose(n_op, expected, atol=1e-14)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ContractViolationError):
            build_fock(0, 2)
        with pytest.raises(ContractViolationError):
            build_fock(2, 0)
        with pytest.raises(ContractViolationError):
            build_fock(12, 12)  # binomial(24,12) is past the cap

    @pytest.mark.parametrize("N, M, bound", [
        (4095, 1, "building the ladder tables of 4095 modes at cutoff 1 needs 1.03e+03 MiB, "
                  "over the 64 MiB budget"),
        (LARGEST_M1 + 1, 1, "building the ladder tables of 1004 modes at cutoff 1 needs 64 MiB, over"),
        (20000, 20000, "dimension binomial(40000, 20000) exceeds the configured cap 4096"),
        (2, 4095, "dimension binomial(4097, 2) exceeds"),
    ], ids=["4095-1", "1004-1", "20000-20000", "2-4095"])
    def test_size_limits_are_decided_from_n_and_m(self, N, M, bound):
        # dim 4096 at N = 4095 passes the dimension cap, and its tables are predicted
        # past the budget; binomial(40000, 20000) has 12000 digits, past what an error
        # message may print
        start = time.perf_counter()
        with pytest.raises(ContractViolationError, match=re.escape(bound)):
            build_fock(N, M)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("N, M", [(60, 2), (63, 2), (64, 2), (89, 2), (200, 1), (LARGEST_M1, 1),
                                      (1, 4095), (27, 3)])
    def test_sizes_inside_both_caps_build(self, N, M):
        # inside the dimension cap and the size rule, the table is the simplex: binomial(N+M, N)
        # distinct occupations of total at most M, in lexicographic order
        fock = build_fock(N, M)
        assert fock.occ.shape == fock._tables.low.shape == fock._tables.w.shape == (N, comb(N + M, N))
        assert fock.occ.min() == 0 and fock.occ.sum(axis=0).max() == M
        assert np.array_equal(np.unique(fock.occ.T, axis=0), fock.occ.T)

    @pytest.mark.parametrize("N, M", [(64, 2), (LARGEST_M1, 1)])
    def test_peak_stays_under_the_prediction(self, N, M, monkeypatch):
        # the size rule predicts the build's peak, not just its (N, dim) tables: the levels'
        # (parent, value) arrays, the walk's dim-long rows and the N x N frame count too.
        # Measured: 0.35 of the prediction at (64, 2), 0.60 at (1003, 1), and at most 0.69
        # on every size the rule and the dimension cap admit
        predicted = []
        real = tpskit.bosonic.refuse_past_budget
        monkeypatch.setattr(tpskit.bosonic, "refuse_past_budget",
                            lambda shape, what: predicted.append(shape) or real(shape, what))
        tracemalloc.start()
        try:
            fock = build_fock(N, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fock.dim == comb(N + M, N) and len(predicted) == 1
        assert peak <= 16 * np.prod(predicted[0]) <= 64 * 2**20

    def test_the_closed_form_is_the_table_walk_bit_for_bit(self):
        # ccr_residual reads the tables' own residual as _ladder_rounding(M); the walk it
        # replaced returns the same float on every (N, M) with N^2 dim <= 2^20 inside the
        # dimension cap (4401 sizes, N up to 101 and M up to 4095) and at the old work
        # cap's largest sizes, so residuals.ccr is unchanged
        sizes = [(N, M) for N in range(1, 102)
                 for M in itertools.takewhile(lambda M: comb(N + M, N) <= 4096, range(1, 4097 - N))
                 if N * N * comb(N + M, N) <= 2**20]
        assert len(sizes) == 4401
        rounding = {}
        for N, M in sizes + [(63, 2), (200, 1), (24, 3)]:
            if M not in rounding:
                rounding[M] = tpskit.bosonic._ladder_rounding(M)
            assert rounding[M] == table_ccr_residual(build_fock(N, M)), (N, M)
        assert 0 < max(rounding.values()) < 1e-12
        # in a frame: the unitarity defect plus N (1 + defect) times the walk, as it was
        rng = np.random.default_rng(37)
        for N, M in [(2, 3), (3, 2), (5, 4), (24, 3)]:
            U = haar_unitary(N, rng) * (1 + 1e-9)
            d, t = unitarity_defect(U), table_ccr_residual(build_fock(N, M))
            assert ccr_residual(transform_modes(build_fock(N, M), U)) == d + N * (1 + d) * t


class TestTransformModes:
    def test_identity_returns_original(self):
        fock = build_fock(2, 2)
        ms = transform_modes(fock, np.eye(2))
        for i in (1, 2):
            assert np.array_equal(ms.lowering(i), fock.lowering(i))

    def test_a_rotated_space_shares_the_tables_and_leaves_the_original(self):
        fock = build_fock(3, 2)
        U = haar_unitary(3, np.random.default_rng(5))
        ms = transform_modes(fock, U)
        assert type(ms) is FockSpace and ms is not fock and ms.tol is fock.tol
        assert ms._tables is fock._tables and ms.occ is fock.occ
        assert np.array_equal(ms.U, U) and np.array_equal(fock.U, np.eye(3))
        # U is taken from the reference tables, never composed with the frame it is given
        assert np.array_equal(transform_modes(ms, U).U, U)

    def test_the_shared_tables_are_read_only(self):
        # every frame of every Fock space of one (N, M) shares its tables, and ccr_residual
        # vouches for them from M alone: an edit in place would change them all
        fock = build_fock(2, 3)
        ms = transform_modes(fock, np.eye(2))
        assert build_fock(2, 3)._tables is fock._tables is ms._tables
        for table in (fock.occ, fock._tables.low, fock._tables.w):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 1] += 1
        assert ccr_residual(ms) == 2 * tpskit.bosonic._ladder_rounding(3)

    def test_transform_modes_computes_no_ccr_bound(self, monkeypatch):
        # the frame is judged by its unitarity alone; the CCR bound is computed only where
        # it is read, and the record holds no copy of it
        calls = []
        real = tpskit.bosonic._ladder_rounding
        monkeypatch.setattr(tpskit.bosonic, "_ladder_rounding", lambda M: calls.append(M) or real(M))
        ms = transform_modes(build_fock(2, 3), BEAMSPLITTER)
        assert not calls and not hasattr(ms, "ccr")
        assert ccr_residual(ms) == ccr_residual(ms) < 1e-12 and calls == [3, 3]

    @pytest.mark.parametrize("resid_abs", [1e-15, 1e-16, 1e-300])
    def test_a_tolerance_under_the_tables_rounding_still_reads_the_frame(self, resid_abs):
        # the identity frame has defect 0, so its CCR bound, N t = 1.8e-15 at (2, 3), is the
        # tables' own sqrt rounding, which no tolerance judges
        tight = build_fock(2, 3, Tolerance(resid_abs=resid_abs))
        ms = transform_modes(tight, np.eye(2))
        assert ccr_residual(ms) == ccr_residual(build_fock(2, 3)) == 2 * tpskit.bosonic._ladder_rounding(3) > resid_abs
        assert mode_entanglement(single_excitation_state(ms, 1), ms, (1,)) == 0.0

    def test_nan_rotation_is_not_unitary(self):
        fock = build_fock(2, 2)
        for bad in (np.nan, np.inf):
            U = np.eye(2, dtype=complex)
            U[1, 0] = bad
            with pytest.raises(ContractViolationError,
                               match=r"mode rotation unitarity defect inf, over resid_abs 1\.000e-08"):
                transform_modes(fock, U)

    def test_nonunitary_rejected(self):
        fock = build_fock(2, 2)
        with pytest.raises(ContractViolationError):
            transform_modes(fock, np.array([[1, 1], [0, 1]], dtype=complex))
        with pytest.raises(DimensionMismatchError):
            transform_modes(fock, np.eye(3))

    def test_vacuum_annihilated_exactly(self):
        rng = np.random.default_rng(2)
        fock = build_fock(3, 2)
        for _ in range(10):
            ms = transform_modes(fock, haar_unitary(3, rng))
            for i in (1, 2, 3):
                applied = ms.lowering(i) @ fock.vacuum
                assert np.all(applied == 0)

    def test_beamsplitter_ccr_direct_oracle(self):
        fock = build_fock(2, 3)
        ms = transform_modes(fock, BEAMSPLITTER)
        P = np.diag(fock.interior_mask()).astype(complex)
        a1, a2 = ms.lowering(1), ms.lowering(2)
        cross = a1 @ a2.conj().T - a2.conj().T @ a1
        assert np.max(np.abs(P @ cross @ P)) < 1e-12
        same = a1 @ a1.conj().T - a1.conj().T @ a1 - np.eye(fock.dim)
        assert np.max(np.abs(P @ same @ P)) < 1e-12

    def test_ccr_residual_small_across_sizes(self):
        rng = np.random.default_rng(7)
        for N in (1, 2, 3, 4):
            for M in (1, 2, 3):
                fock = build_fock(N, M)
                ms = transform_modes(fock, haar_unitary(N, rng))
                assert ccr_residual(ms) < 1e-12

    def test_composition(self):
        rng = np.random.default_rng(9)
        fock = build_fock(2, 2)
        U, V = haar_unitary(2, rng), haar_unitary(2, rng)
        direct = np.array([transform_modes(fock, U @ V).lowering(i) for i in (1, 2)])
        step = transform_modes(fock, U)
        composed = np.einsum("ki,kab->iab", V, [step.lowering(i) for i in (1, 2)])
        assert np.max(np.abs(direct - composed)) < 1e-12

    def test_ccr_residual_matches_dense_oracle(self):
        for N, M in CRITERION_7_SIZES + [(4, 7)]:
            rng = np.random.default_rng(100 * N + M)
            ms = transform_modes(build_fock(N, M), haar_unitary(N, rng))
            assert abs(ccr_residual(ms) - dense_ccr_residual(ms)) < 1e-14

    def test_ccr_residual_sees_a_scaled_rotation(self):
        # U (1 + eps) breaks [a_i, a_i^dag] = 1 by ~2 eps on the interior
        rng = np.random.default_rng(31)
        for N, M in [(2, 3), (3, 2), (4, 3)]:
            fock = build_fock(N, M)
            ms = replace(fock, U=haar_unitary(N, rng) * (1 + 1e-6))
            sparse, dense = ccr_residual(ms), dense_ccr_residual(ms)
            assert abs(sparse - 2e-6) < 1e-8
            assert abs(sparse - dense) < 1e-12

    def test_ccr_residual_is_the_unitarity_defect(self):
        # [a_i^U, a_k^U dag] - delta_ik = (U^T conj U - 1)_ik on the interior,
        # and exact tables add only the roundoff of sqrt(m)^2
        rng = np.random.default_rng(61)
        for N, M in itertools.product(range(1, 7), range(1, 9)):
            fock = build_fock(N, M)
            for U in (haar_unitary(N, rng), haar_unitary(N, rng) * (1 + 1e-6)):
                ccr = ccr_residual(replace(fock, U=U))
                assert abs(ccr - unitarity_defect(U)) <= 1e-13, (N, M)

    @pytest.mark.parametrize("N, M", [(2, 3), (3, 2), (4, 4)])
    def test_every_ladder_weight_is_the_root_of_its_occupation(self, N, M):
        # the closed form reads each weight as sqrt(m_j); a record cannot be given other
        # weights, through its constructor or replace
        fock = build_fock(N, M)
        assert np.array_equal(fock._tables.w, np.sqrt(fock.occ))
        for build in (lambda: replace(fock, w=fock._tables.w.copy()),
                      lambda: FockSpace(N=N, M=M, tol=fock.tol, U=fock.U, w=fock._tables.w.copy())):
            with pytest.raises(TypeError, match="unexpected keyword argument 'w'"):
                build()

    @pytest.mark.parametrize("N, M", [(2, 3), (3, 2), (4, 4)])
    def test_every_lowering_lands_on_its_occupation_less_one(self, N, M):
        # a_j e_c lands on the column of occ[:, c] - e_j, and nowhere from an empty mode; a
        # record cannot be given another low table, through its constructor or replace
        fock = build_fock(N, M)
        low = fock._tables.low
        for j in range(N):
            full = fock.occ[j] > 0
            assert np.all(low[j, ~full] == -1)
            landed = fock.occ.copy()
            landed[j] -= 1
            assert np.array_equal(fock.occ[:, low[j, full]], landed[:, full]), j
        for build in (lambda: replace(fock, low=low.copy()),
                      lambda: FockSpace(N=N, M=M, tol=fock.tol, U=fock.U, low=low.copy())):
            with pytest.raises(TypeError, match="unexpected keyword argument 'low'"):
                build()

    @pytest.mark.parametrize("N, M", [(2, 3), (3, 2), (4, 4)])
    def test_mixed_ladder_products_land_on_one_row(self, N, M):
        # two columns with the same m_1 trading targets kept every weight and [a_1, a_1^dag],
        # and broke only the rows of a mixed product: in the tables built, a_j a_l e_c and
        # a_l a_j e_c land on one row, and on the interior so do a_j a_l^dag e_c and
        # a_l^dag a_j e_c, the premise of the closed form's exact zeros
        fock = build_fock(N, M)
        low, dim, inside = fock._tables.low, fock.dim, fock.interior_mask()
        up = np.full((N, dim), -1)
        for j in range(N):
            full = np.flatnonzero(low[j] >= 0)
            up[j, low[j, full]] = full

        def then(table, first):  # the row of table[j] after first, -1 once a step vanishes
            return np.where(first >= 0, table[:, np.maximum(first, 0)], -1)

        for j, l in itertools.product(range(N), repeat=2):
            assert np.array_equal(then(low, low[l])[j], then(low, low[j])[l]), (j, l)
            if j != l:
                assert np.array_equal(then(low, up[l])[j, inside], then(up, low[j])[l, inside]), (j, l)
        # a record holds the tables of its own (N, M), whoever built them
        assert FockSpace(N=N, M=M, tol=fock.tol, U=fock.U)._tables is fock._tables

    def test_six_modes_cutoff_eight_peaks_under_10_mb(self):
        # memory guard: the pairwise composer's (N^2, entries) value arrays
        # peaked at ~108 MB here (dim 3003)
        fock = build_fock(6, 8)
        U = haar_unitary(6, np.random.default_rng(68))
        tracemalloc.start()
        try:
            transform_modes(fock, U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_four_modes_cutoff_eight_in_under_50_ms(self):
        # reach guard: the dense CCR products took ~1.4 s here (dim 495)
        fock = build_fock(4, 8)
        U = haar_unitary(4, np.random.default_rng(48))
        assert best_of_three(lambda: transform_modes(fock, U)) < 0.05


class TestSingleExcitationState:
    def test_identity_mode_one(self):
        fock = build_fock(2, 2)
        ms = transform_modes(fock, np.eye(2))
        v = single_excitation_state(ms, 1)
        expected = np.zeros(fock.dim, dtype=complex)
        expected[fock.index((1, 0))] = 1
        assert np.allclose(v, expected)

    def test_beamsplitter_superposition(self):
        fock = build_fock(2, 2)
        ms = transform_modes(fock, BEAMSPLITTER)
        v = single_excitation_state(ms, 1)
        expected = np.zeros(fock.dim, dtype=complex)
        expected[fock.index((1, 0))] = 1 / np.sqrt(2)
        expected[fock.index((0, 1))] = 1 / np.sqrt(2)
        assert np.allclose(v, expected, atol=1e-12)

    def test_matches_the_dense_raised_vacuum(self):
        for N, M in CRITERION_7_SIZES:
            fock = build_fock(N, M)
            U = haar_unitary(N, np.random.default_rng(10 * N + M))
            ms = transform_modes(fock, U)
            rotated = np.einsum("ji,jab->iab", U, dense_ladders(N, M))
            for i in range(1, N + 1):
                v = rotated[i - 1].conj().T @ fock.vacuum
                assert np.array_equal(single_excitation_state(ms, i), v / np.linalg.norm(v))

    def test_unit_norm_for_random_rotations(self):
        rng = np.random.default_rng(13)
        fock = build_fock(3, 1)
        for _ in range(5):
            ms = transform_modes(fock, haar_unitary(3, rng))
            for i in (1, 2, 3):
                assert abs(np.linalg.norm(single_excitation_state(ms, i)) - 1) < 1e-12


class TestModeEntanglement:
    def test_basis_state_zero(self):
        fock = build_fock(2, 2)
        v = np.zeros(fock.dim, dtype=complex)
        v[fock.index((1, 0))] = 1
        assert mode_entanglement(v, fock, cut=(1,)) == 0.0

    def test_shared_photon_one_bit(self):
        # oracle: reduced density across the cut is diag(1/2, 1/2)
        fock = build_fock(2, 2)
        v = one_photon_state(fock, [1, 1])
        assert abs(mode_entanglement(v, fock, cut=(1,)) - 1.0) < 1e-12

    def test_beamsplitter_state_product_in_its_own_frame(self):
        fock = build_fock(2, 2)
        ms = transform_modes(fock, BEAMSPLITTER)
        v = single_excitation_state(ms, 1)
        assert abs(mode_entanglement(v, ms, cut=(1,)) - 1.0) < 1e-10
        back = rotate_single_particle(fock, v, ms.U.T)
        assert mode_entanglement(back, ms, cut=(1,)) < 1e-8

    def test_one_photon_matches_amplitude_vector(self):
        # invariant: a one-photon state's mode entanglement equals the
        # entanglement of its amplitude N-vector across the same cut
        rng = np.random.default_rng(17)
        fock = build_fock(3, 2)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c /= np.linalg.norm(c)
        v = one_photon_state(fock, c)
        for cut in [(1,), (2,), (1, 3)]:
            pA = sum(abs(c[i - 1]) ** 2 for i in cut)
            probs = np.array([pA, 1 - pA])
            probs = probs[probs > 1e-16]
            oracle = float(-(probs * np.log2(probs)).sum())
            assert abs(mode_entanglement(v, fock, cut=cut) - oracle) < 1e-10

    def test_rotation_invariance_oracle(self):
        # rotating modes then measuring equals measuring the rotated vector
        rng = np.random.default_rng(23)
        fock = build_fock(3, 1)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c /= np.linalg.norm(c)
        V = haar_unitary(3, rng)
        rotated_state = rotate_single_particle(fock, one_photon_state(fock, c), V)
        direct = one_photon_state(fock, V @ c)
        assert np.allclose(rotated_state, direct, atol=1e-12)

    def test_top_shell_straddling_rejected(self):
        fock = build_fock(2, 2)
        v = np.zeros(fock.dim, dtype=complex)
        v[fock.index((1, 1))] = 1
        with pytest.raises(TruncationBoundaryError):
            mode_entanglement(v, fock, cut=(1,))

    def test_top_shell_single_side_accepted(self):
        fock = build_fock(2, 2)
        v = np.zeros(fock.dim, dtype=complex)
        v[fock.index((2, 0))] = 1
        assert mode_entanglement(v, fock, cut=(1,)) == 0.0

    def test_linear_kind(self):
        fock = build_fock(2, 2)
        v = one_photon_state(fock, [1, 1])
        assert abs(mode_entanglement(v, fock, cut=(1,), kind="linear") - 0.5) < 1e-12

    def test_bad_cut_rejected(self):
        fock = build_fock(2, 2)
        v = fock.vacuum
        with pytest.raises(ContractViolationError):
            mode_entanglement(v, fock, cut=(1, 2))
        with pytest.raises(IndexError):
            mode_entanglement(v, fock, cut=(3,))

    def test_state_length_and_norm_checked(self):
        fock = build_fock(2, 2)
        with pytest.raises(DimensionMismatchError):
            mode_entanglement(np.ones(fock.dim + 1) / np.sqrt(fock.dim + 1), fock, cut=(1,))
        with pytest.raises(ContractViolationError):
            mode_entanglement(2 * fock.vacuum, fock, cut=(1,))
        with pytest.raises(ContractViolationError):
            mode_entanglement(np.full(fock.dim, np.nan), fock, cut=(1,))

    @pytest.mark.parametrize("N, M", [(24, 3), (60, 2), (64, 2), (89, 2), (200, 1)])
    def test_single_excitation_closed_form_past_the_embedding(self, N, M):
        # a_i^U-dagger |0> puts weight p = sum_{j in cut} |U_ji|^2 on the cut
        # side, so its entropy is h(p); (M+1)^N is 3e14 to 1.6e60 here, and
        # (64, 2) and (89, 2) were refused by the tables' old self-check
        rng = np.random.default_rng(N)
        U = haar_unitary(N, rng)
        ms = transform_modes(build_fock(N, M), U)
        i = int(rng.integers(1, N + 1))
        cut = tuple(int(j) for j in rng.choice(np.arange(1, N + 1), N // 2, replace=False))
        value = mode_entanglement(single_excitation_state(ms, i), ms, cut=cut)
        p = float(np.sum(np.abs(U[[j - 1 for j in cut], i - 1]) ** 2))
        assert abs(value - binary_entropy(p)) < 1e-12

    def test_matches_the_dense_embedding_on_interior_states(self):
        # random states on total excitation <= M-1, where no weight straddles
        rng = np.random.default_rng(41)
        for N, M in itertools.product(range(2, 6), range(1, 5)):
            fock = build_fock(N, M)
            inside = fock.interior_mask()
            for cut in [(1,), tuple(range(2, N + 1, 2)), (N,)]:
                if len(cut) == N:
                    continue
                v = np.zeros(fock.dim, dtype=complex)
                v[inside] = rng.standard_normal(inside.sum()) + 1j * rng.standard_normal(inside.sum())
                v /= np.linalg.norm(v)
                for kind in ("vn", "linear"):
                    expected = dense_embedding_entanglement(v, fock, cut, kind)
                    assert abs(mode_entanglement(v, fock, cut, kind) - expected) < 1e-14

    @pytest.mark.parametrize("N, M, cut", BENCHMARK_SHAPES)
    def test_single_excitations_match_the_dense_embedding_bit_for_bit(self, N, M, cut):
        fock = build_fock(N, M)
        rng = np.random.default_rng(N * M)
        for U in (np.eye(N), haar_unitary(N, rng), haar_unitary(N, rng)):
            ms = transform_modes(fock, U)
            for i in range(1, N + 1):
                v = single_excitation_state(ms, i)
                for kind in ("vn", "linear"):
                    assert mode_entanglement(v, ms, cut, kind) == \
                        dense_embedding_entanglement(v, fock, cut, kind), (i, kind)

    def test_rotate_rejects_multiphoton_support(self):
        fock = build_fock(2, 2)
        v = np.zeros(fock.dim, dtype=complex)
        v[fock.index((2, 0))] = 1
        with pytest.raises(TruncationBoundaryError):
            rotate_single_particle(fock, v, np.eye(2))

    def test_rotate_checks_the_one_excitation_support_at_the_fock_tolerance(self):
        # ~1e-9 of weight on two photons: inside the default residual bound, outside 1e-10
        fock, tight = build_fock(2, 2), build_fock(2, 2, Tolerance(resid_abs=1e-10))
        v = np.zeros(fock.dim, dtype=complex)
        v[fock.index((0, 1))], v[fock.index((1, 0))], v[fock.index((1, 1))] = np.sqrt(0.5), np.sqrt(0.5), 1e-9
        out = rotate_single_particle(fock, v, np.eye(2))
        assert np.array_equal(out, np.where(np.arange(fock.dim) == fock.index((1, 1)), 0, v))
        with pytest.raises(TruncationBoundaryError):
            rotate_single_particle(tight, v, np.eye(2))

    def test_the_fock_tolerance_reaches_every_check_on_its_modes(self):
        # a rotation scaled by 1 + 2e-10 has a unitarity defect of ~4e-10; a top-shell
        # weight of 1e-9 straddles the cut: both inside the default bound, outside 1e-10
        tight = build_fock(2, 2, Tolerance(resid_abs=1e-10))
        assert build_fock(2, 2).tol is not tight.tol
        with pytest.raises(ContractViolationError,
                           match=r"mode rotation unitarity defect 4\.\d{3}e-10, over resid_abs 1\.000e-10"):
            transform_modes(tight, np.eye(2) * (1 + 2e-10))
        v = np.zeros(tight.dim, dtype=complex)
        v[tight.index((0, 0))], v[tight.index((1, 1))] = np.sqrt(1 - 1e-9), np.sqrt(1e-9)
        assert mode_entanglement(v, build_fock(2, 2), (1,)) > 0
        for ms in (tight, transform_modes(tight, np.eye(2))):
            with pytest.raises(TruncationBoundaryError, match="straddles the cut"):
                mode_entanglement(v, ms, (1,))
        # rotate_single_particle's V likewise; 3 * 1 and NaN are refused at any tolerance
        one = one_photon_state(tight, [0, 1])
        scaled = np.eye(2) * (1 + 2e-10)
        assert np.linalg.norm(rotate_single_particle(build_fock(2, 2), one, scaled)) > 1
        for fock, V in ((tight, scaled), (tight, 3 * np.eye(2)), (build_fock(2, 2), 3 * np.eye(2)),
                        (build_fock(2, 2), np.full((2, 2), np.nan))):
            with pytest.raises(ContractViolationError, match="mode rotation unitarity defect .*, over "
                               f"resid_abs {fock.tol.resid_abs:.3e}"):
                rotate_single_particle(fock, one, V)

    def test_an_unknown_kind_is_refused_before_any_work(self):
        fock = build_fock(2, 2)
        with pytest.raises(ContractViolationError, match="unknown entropy kind"):
            mode_entanglement(np.ones(fock.dim + 1), fock, cut=(1,), kind="renyi")
