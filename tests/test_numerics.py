import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tpskit.numerics as numerics
import tpskit.pure as pure
from tpskit.errors import ContractViolationError, DegenerateInputError, DimensionMismatchError, ToleranceError
from tpskit.numerics import (
    DEFAULT_TOL,
    DEGENERACY_GAP,
    Tolerance,
    check_unitary,
    close_span,
    cluster_indices,
    count_text,
    density_entropy,
    hermitian_eig,
    hs_orthonormalize,
    kron,
    mib_text,
    nullspace,
    polar_isometry,
    refuse_past_budget,
    schmidt_entropy,
    unitarity_defect,
)

from helpers import haar_unitary, span_residual

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
    for bad in (np.inf, np.nan):
        for field in ("rank_rel", "resid_abs"):
            with pytest.raises(ValueError, match="finite"):
                Tolerance(**{field: bad})
    assert DEFAULT_TOL.rank_rel == 1e-10


def test_unitarity_defect_is_infinite_for_non_finite_entries():
    # NaN compares False, so a NaN defect would pass every `defect > tol` check
    assert unitarity_defect(SX) == 0.0
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        U = np.eye(3, dtype=complex)
        U[2, 0] = bad
        assert unitarity_defect(U) == np.inf


def random_unitaries(rng, shape, n):
    """A stack of unitaries: the Q factors of complex Gaussian matrices."""
    return np.linalg.qr(rng.standard_normal((*shape, n, n)) + 1j * rng.standard_normal((*shape, n, n)))[0]


def test_unitarity_defect_of_a_stack_is_the_max_of_its_matrices():
    rng = np.random.default_rng(53)
    one = lambda U: float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[1]))))
    Us = random_unitaries(rng, (3, 4), 5) * (1 + 1e-9 * rng.standard_normal((3, 4, 1, 1)))
    assert unitarity_defect(Us) == max(one(U) for U in Us.reshape(-1, 5, 5))
    for U in [*Us[0], Us[1, 2][:, :3], rng.standard_normal((4, 2))]:
        assert unitarity_defect(U) == one(U)  # a matrix, square or not, bit for bit


def test_unitarity_defect_of_a_stack_flags_one_bad_member():
    rng = np.random.default_rng(59)
    Us = random_unitaries(rng, (8,), 4)
    assert unitarity_defect(Us) < 1e-14
    Us[5] *= 1 + 1e-6
    assert 1e-6 < unitarity_defect(Us) < 3e-6
    Us[2, 1, 3] = np.nan
    assert unitarity_defect(Us) == np.inf


def test_mib_text_prints_any_size():
    for nbytes in (1, 100000000 * 4 * 16, 70368744177665 * 256, 2**1000):
        assert mib_text(nbytes) == f"{nbytes / 2**20:.3g}"
    assert mib_text(2**20 * 61 * 10**399) == "6.1e+400"
    assert mib_text(2**20 * 9999 * 10**400) == "1e+404"  # the mantissa rounds up a decade
    assert mib_text(10**5000).startswith("9.54e+4993")


def test_refuse_past_budget_counts_16_bytes_an_entry_against_the_budget_at_call_time(monkeypatch):
    refuse_past_budget((2**18, 4, 4), "a stack")  # exactly 64 MiB: allowed
    with pytest.raises(ContractViolationError) as err:
        refuse_past_budget((2**18 + 1, 4, 4), "a stack")
    assert str(err.value) == "a stack needs 64 MiB, over the 64 MiB budget"
    with pytest.raises(ContractViolationError, match=r"^x needs 1\.6e\+401 MiB, over the 64 MiB budget$"):
        refuse_past_budget((10**400, 1, 2**20), "x")  # past floats
    monkeypatch.setattr(pure, "BYTES_BUDGET", 2 * 2**20)
    refuse_past_budget((2**17,), "a row")
    with pytest.raises(ContractViolationError, match=r"^a row needs 2 MiB, over the 2 MiB budget$"):
        refuse_past_budget((2**17 + 1,), "a row")


def test_check_unitary_names_its_defect_and_bound_and_refuses_a_wrong_shape():
    U, defect = check_unitary([[0, 1], [1, 0]], DEFAULT_TOL, "x", (2, 2))
    assert U.dtype == complex and np.array_equal(U, SX) and defect == 0.0
    scaled = (1 + 2**-20) * np.eye(3)
    assert check_unitary(scaled, Tolerance(resid_abs=unitarity_defect(scaled)), "x")[1] == unitarity_defect(scaled)
    with pytest.raises(ContractViolationError) as err:
        check_unitary(2 * SX, DEFAULT_TOL, "a rotation", (2, 2))
    assert str(err.value) == "a rotation unitarity defect 3.000e+00, over resid_abs 1.000e-08"
    with pytest.raises(ToleranceError, match=r"^x unitarity defect inf, over resid_abs 1\.000e-08$"):
        check_unitary(np.full((3, 2), np.nan), DEFAULT_TOL, "x", error=ToleranceError)
    with pytest.raises(DimensionMismatchError) as err:
        check_unitary(2 * np.eye(3), DEFAULT_TOL, "an iso", (2, 2))  # the shape is checked first
    assert str(err.value) == "an iso shape (3, 3) is not (2, 2)"


def test_every_unitarity_decision_goes_through_check_unitary():
    # a unitarity_defect call anywhere else in src/tpskit is a check beside the rule
    callers = set()

    def visit(node, module, scope):
        scope = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "unitarity_defect":
            callers.add((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    # the rule itself, and the two sites that report a defect without deciding on it
    assert callers == {("numerics", "check_unitary"), ("bosonic", "ccr_residual"), ("cli", "_cmd_holonomy")}


def test_count_text_prints_any_count():
    for n in (0, 70368744177665, 10**4299):  # 10**4299 has the most digits str prints
        assert count_text(n) == str(n)
    assert count_text(32 * 10**4300 + 1) == "3.2e+4301"


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


@pytest.mark.filterwarnings("error")  # inf - inf in the Hermiticity check would warn
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)])
def test_hermitian_eig_refuses_a_non_finite_matrix(bad):
    # eigh of a NaN matrix returns NaN eigenvalues; refused here, at any tolerance, on or
    # off the diagonal, before the Hermiticity check subtracts inf from inf
    for where in ((0, 0), (0, 1)):
        M = SZ.astype(complex)
        M[where] = bad
        for tol in (DEFAULT_TOL, Tolerance(resid_abs=1e300)):
            with pytest.raises(ContractViolationError, match="^matrix has a non-finite entry$"):
                hermitian_eig(M, tol)


def test_hermitian_eig_obeys_the_callers_tolerance():
    M = SZ.copy()
    M[0, 1] += 1e-12
    w, _ = hermitian_eig(M)
    assert np.allclose(w, [-1, 1])
    with pytest.raises(ContractViolationError):
        hermitian_eig(M, Tolerance(resid_abs=1e-14))


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
    # rank; the rank cut's floor of 1 gives it the full nullspace
    rng = np.random.default_rng(11)
    noise = 1e-16 * rng.standard_normal((6, 6))
    assert nullspace(noise).shape == (6, 6)
    with pytest.raises(DegenerateInputError):
        polar_isometry(noise)


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
    with pytest.raises(DimensionMismatchError):
        polar_isometry(np.ones(3))


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


def test_hs_orthonormalize_rejects_mixed_shapes():
    with pytest.raises(DimensionMismatchError):
        hs_orthonormalize([np.eye(2), np.eye(3)])


def reference_hs_orthonormalize(ops, tol=DEFAULT_TOL):
    """The Gram-Schmidt with a list of kept rows, rebuilt into a stack per projection, as first written."""
    mats = [np.asarray(m, dtype=complex) for m in ops]
    if not mats:
        return np.zeros((0, 0, 0), dtype=complex)
    shape = mats[0].shape
    V = np.array([m.reshape(-1) for m in mats])
    rows = []
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


def assert_orthonormalized_as_the_reference(ops, tol=DEFAULT_TOL):
    out, ref = hs_orthonormalize(ops, tol), reference_hs_orthonormalize(ops, tol)
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


class TestOrthonormalizeInPlacePinned:
    """Gram-Schmidt inside its input stack gives the list-based reference bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_stacks_with_zero_dependent_and_repeated_rows(self, seed):
        rng = np.random.default_rng(seed)
        d, k = int(rng.integers(1, 6)), int(rng.integers(1, 12))
        mats = list(rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d)))
        for _ in range(4):
            at = int(rng.integers(len(mats) + 1))
            kind = rng.integers(3)
            if kind == 0:
                extra = np.zeros((d, d)) if rng.random() < 0.5 else 1e-12 * mats[0]
            elif kind == 1:
                c = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
                extra = np.tensordot(c, np.array(mats), axes=1)
            else:
                extra = mats[int(rng.integers(len(mats)))]
            mats.insert(at, extra)
        assert_orthonormalized_as_the_reference(mats)
        assert_orthonormalized_as_the_reference(mats, Tolerance(rank_rel=1e-3))

    def test_empty_and_all_zero_inputs(self):
        assert_orthonormalized_as_the_reference([])
        assert_orthonormalized_as_the_reference([np.zeros((3, 3))] * 2)
        assert hs_orthonormalize([]).shape == (0, 0, 0)
        assert hs_orthonormalize([np.zeros((3, 3))]).shape == (0, 3, 3)


def test_hs_orthonormalize_peaks_at_twice_its_input_stack():
    # one stack: the kept directions overwrite input rows already read (the
    # list of rows and its two rebuilds per input peaked at 4x)
    rng = np.random.default_rng(512)
    stack = rng.standard_normal((5, 512, 512)) + 1j * rng.standard_normal((5, 512, 512))
    tracemalloc.start()
    try:
        out = hs_orthonormalize(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == stack.shape
    assert peak <= 2.5 * stack.nbytes, f"peak {peak / stack.nbytes:.2f}x the input stack"


def test_span_residual_of_rows():
    Q = hs_orthonormalize([SX, SZ])
    r = span_residual([SX + SZ, SY, np.eye(2)], Q)
    assert r.shape == (3,)
    assert np.allclose(r, [0.0, np.sqrt(2), np.sqrt(2)], atol=1e-14)


def test_close_span_commutator_closure_is_su2():
    # [iX, iY] = -2iZ closes su(2)
    assert len(close_span([1j * SX, 1j * SY], DEFAULT_TOL)) == 3


def generic_block_pair(sizes, seed):
    """Two generic elements of (+)_i u(m_i) in a Haar frame, and the dimension of the Lie
    algebra they generate: (+)_i su(m_i) plus their own central parts, which span min(2, k)
    of the k block traces."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    U = haar_unitary(n, rng)
    gens = []
    for _ in range(2):
        A = np.zeros((n, n), dtype=complex)
        off = 0
        for m in sizes:
            A[off:off + m, off:off + m] = 1j * random_hermitian(rng, m)
            off += m
        gens.append(U @ A @ U.conj().T)
    return gens, sum(m * m - 1 for m in sizes) + min(2, len(sizes))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_close_span_lie_dimension_of_generic_block_pairs(sizes, seed):
    gens, expected = generic_block_pair(sizes, seed)
    assert len(close_span(gens, DEFAULT_TOL)) == expected


@pytest.mark.parametrize("sizes, seed, expected", [
    # each closed to a wrong dimension (in brackets) when a pass grew from the Gram-Schmidt
    # residual directions of the last, whose roundoff reached the rank cut
    ([3, 3, 2], 2100340810, 21),  # 64
    ([2, 2, 2, 3], 1477260267, 19),  # 81
    ([2, 3, 2, 3], 3698987415, 24),  # 100
    ([5, 2, 1], 591101399, 29),  # 64
    ([3, 4, 4, 2], 3446233914, 43),  # 168
    ([2, 3, 2, 2], 2873157653, 19),  # 81
    ([3, 1, 3, 1], 2589713814, 18),  # 64
    ([3, 3, 3], 1578129494, 26),  # 81
])
def test_close_span_lie_dimension_of_a_pair_with_a_roundoff_direction_near_the_cut(sizes, seed, expected):
    gens, dim = generic_block_pair(sizes, seed)
    assert dim == expected
    assert len(close_span(gens, DEFAULT_TOL)) == expected


def test_close_span_cuts_rank_at_a_wide_gap_on_a_seeded_sweep(monkeypatch):
    # every rank cut of 400 generic pairs, and of [2, 3, 2] at seed 0 (a Gram-Schmidt stop
    # fell at 0.97 of the cut there), keeps nothing below 100x the cut and drops nothing
    # above half of it
    cut = numerics._svd_cut
    kept, dropped = [np.inf], [0.0]

    def recording(M, tol):
        U, Vh, rank = cut(M, tol)
        s = np.linalg.svd(M, compute_uv=False)
        floor = tol.rank_rel * max(s[0] if s.size else 0.0, 1.0)
        kept.extend(s[:rank] / floor)
        dropped.extend(s[rank:] / floor)
        return U, Vh, rank

    monkeypatch.setattr(numerics, "_svd_cut", recording)
    rng = np.random.default_rng(2024)
    pairs = [generic_block_pair([2, 3, 2], 0)]
    for _ in range(400):
        sizes = rng.integers(1, 4, size=rng.integers(1, 5)).tolist()
        pairs.append(generic_block_pair(sizes, int(rng.integers(2**32))))
    dims = [(len(close_span(gens, DEFAULT_TOL)), expected) for gens, expected in pairs]
    assert [d for d in dims if d[0] != d[1]] == []
    assert min(kept) >= 100 and max(dropped) <= 0.5, (min(kept), max(dropped))


def u4_pair():
    rng = np.random.default_rng(7)
    return [1j * random_hermitian(rng, 4) for _ in range(2)]


@pytest.mark.parametrize("gens", [u4_pair(), generic_block_pair([3, 3, 2], 2100340810)[0]],
                         ids=["u(4)", "u(3)+u(3)+u(2)"])
def test_close_span_is_an_orthonormal_bracket_closed_span(gens):
    # the closure oracle: an orthonormal span that holds the generators and every
    # bracket of two of its elements
    Q = close_span(gens, DEFAULT_TOL)
    G = Q.reshape(len(Q), -1)
    assert np.max(np.abs(G.conj() @ G.T - np.eye(len(Q)))) <= 1e-12
    assert np.max(span_residual(gens, Q)) <= 1e-10
    brackets = Q[:, None] @ Q[None] - Q[None] @ Q[:, None]
    assert np.max(span_residual(brackets.reshape(-1, *Q.shape[1:]), Q)) <= 1e-10


def test_cluster_indices_gaps():
    w = np.array([0.0, 1e-12, 1.0, 1.0 + 1e-12, 2.5])
    clusters = cluster_indices(w)
    assert [list(c) for c in clusters] == [[0, 1], [2, 3], [4]]
    assert len(cluster_indices(np.ones(5))) == 1
    # the gap is relative to max(range, radius, 1) = 2.5: 1e-12 apart splits below 4e-13
    assert len(cluster_indices(w, gap=DEGENERACY_GAP)) == 3
    assert len(cluster_indices(w, gap=1e-13)) == 5


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows,cols", [(3, 4), (2, 2), (2, 4)])
def test_density_entropy_matches_schmidt_spectrum(rows, cols):
    # 2-row coefficients give 2 x 2 reduced densities, whose spectrum is in closed form
    rng = np.random.default_rng(41)
    C = rng.standard_normal((5, rows, cols)) + 1j * rng.standard_normal((5, rows, cols))
    C[0] = np.outer(rng.standard_normal(rows) + 1j, rng.standard_normal(cols) - 2j)  # product state
    C[1] = np.eye(rows, cols)  # maximally entangled
    C /= np.linalg.norm(C, axis=(1, 2), keepdims=True)
    rho = C @ C.conj().transpose(0, 2, 1)
    s = np.linalg.svd(C, compute_uv=False)
    # a 2 x 2 density goes to entropy_2x2, on its diagonal and lower entry
    entropy = density_entropy if rows != 2 else (
        lambda r, kind: numerics.entropy_2x2(r[..., 0, 0].real, r[..., 1, 1].real, r[..., 1, 0], kind))
    if rows == 2:
        spectrum = numerics._eigvals_2x2(rho[:, 0, 0].real, rho[:, 1, 1].real, abs(rho[:, 1, 0]) ** 2)
        assert np.max(np.abs(spectrum - (s * s)[:, ::-1])) < 1e-14
    for kind in ("vn", "linear"):
        dens = entropy(rho, kind)
        assert np.max(np.abs(dens - schmidt_entropy(s * s, kind))) < 1e-14
        assert dens[0] == 0.0
        assert entropy(rho[1], kind) == dens[1]
    if rows == 2:
        half = np.eye(2) / 2
        assert entropy(half, "vn") == 1.0 and entropy(half, "linear") == 0.5
        assert np.array_equal(entropy(np.array([half, half]), "vn"), [1.0, 1.0])
        assert entropy(np.zeros((2, 2)), "vn") == 0.0  # hi = 0: lo is 0, not 0 / 0
    with pytest.raises(ValueError):
        entropy(rho, "renyi")


def trig_oracle_cases(rng):
    """Seeded 3 x 3 density stacks, one per case of the closed-form spectrum's oracle."""
    def reduced(n, k):  # Haar states of a 3 x k bipartition, reduced to the 3-dim side: rank min(3, k)
        C = rng.standard_normal((n, 3, k)) + 1j * rng.standard_normal((n, 3, k))
        C /= np.linalg.norm(C, axis=(1, 2), keepdims=True)
        return C @ C.conj().transpose(0, 2, 1)

    def rotated(spectra):
        U = np.array([haar_unitary(3, rng) for _ in spectra])
        return (U * spectra[:, None, :]) @ U.conj().transpose(0, 2, 1)

    a = rng.uniform(0.05, 0.45, 400)
    split = np.repeat([0.0, 1e-14, 1e-10, 1e-6, 1e-3], 80)
    return {
        "haar": np.concatenate([reduced(3000, 3), reduced(3000, 4)]),
        "rank 1": reduced(400, 1),
        "rank 2": reduced(400, 2),
        "two-fold": rotated(np.stack([a - split, a + split, 1 - 2 * a], axis=1)),
        "three-fold": rotated(1 / 3 + np.repeat([0.0, 1e-15, 1e-12, 1e-8], 100)[:, None]
                              * rng.standard_normal((400, 3))),
        "diagonal": np.eye(3) * rng.dirichlet(np.ones(3), 400)[:, None, :],
    }


@pytest.mark.filterwarnings("error")
def test_the_3x3_closed_form_spectrum_matches_eigvalsh():
    # each eigenvalue within 8e-15 of eigvalsh's, relative to the largest (measured: 3.2e-15
    # unscaled, 5.1e-15 scaled by 1e-6 or 1e3); each vn entropy within 1e-14 of eigvalsh's, or
    # 2e-13 where the spectrum has a zero (measured 4.8e-15 and 9.2e-14: roundoff of 1e-15 on
    # a zero eigenvalue costs 1e-15 log2(1e15) in entropy, as it would from any eigensolver).
    # Rank-1 rows, whose two zeros the closed form reads only to ~1e-8, take eigvalsh: their
    # entropies are exactly 0
    cases = trig_oracle_cases(np.random.default_rng(97))
    for case, rho in cases.items():
        ref = np.linalg.eigvalsh(rho)
        for scale in (1.0, 1e-6, 1e3):
            err = np.abs(numerics._eigvals_3x3(scale * rho) - scale * ref).max(axis=1)
            assert np.all(err <= 8e-15 * np.abs(scale * ref).max(axis=1)), case
        bound = 2e-13 if case == "rank 2" else 1e-14
        assert np.abs(density_entropy(rho, "vn") - schmidt_entropy(ref, "vn")).max() <= bound, case
    assert np.all(density_entropy(cases["rank 1"], "vn") == 0.0)
    assert density_entropy(cases["rank 1"][0], "vn") == 0.0 and density_entropy(np.eye(3) / 3, "vn") == np.log2(3)
