"""Holonomy tests: transport invariants, analytic holonomy oracles, fixtures."""

import inspect
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, schur

from tpskit import holonomy, numerics, pure
from tpskit.errors import (
    BranchCutError,
    ContractViolationError,
    DimensionMismatchError,
    IndexRangeError,
    PathSingularityError,
)
from tpskit.holonomy import (
    _MIN_OVERLAP_SV,
    IsoDegenerateOperator,
    _eigenspace,
    LoopPath,
    RefinementLadder,
    UnitaryFamily,
    builtin_family,
    holonomy_algebra_span,
    holonomy_nonabelian_witness,
    loop_holonomy,
    principal_log_unitary,
    refinement_ladder,
)
from tpskit.numerics import Tolerance, unitarity_defect

from helpers import haar_unitary


def random_hermitian(rng, dim, scale=1.0):
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    G = (G + G.conj().T) / 2
    return scale * G / np.linalg.norm(G, 2)


@pytest.fixture(scope="module")
def fixture_fam():
    return builtin_family("fixture-n2d2")


RECT1 = LoopPath.rectangle((0.0, 0.0), (0.8, 0.6), refinement=48)
RECT2 = LoopPath.rectangle((0.0, 0.0), (-0.7, 0.5), refinement=48)
RECT3 = LoopPath.rectangle((0.0, 0.0), (0.5, -0.9), refinement=48)
TWO_RECTS = [LoopPath.rectangle((0.0, 0.0), (0.8, 0.6)), LoopPath.rectangle((0.0, 0.0), (0.5, 0.9))]


# ------------------------------------------- one-point references (test-only)
#
# The loop code evaluates frames, builds points and transports frames on
# whole stacks.  These are the one-point-at-a-time versions it replaced,
# kept to require that the stacked results are the same bits.

def reference_points(loop):
    pts = [loop.waypoints[0]]
    for a, b in zip(loop.waypoints[:-1], loop.waypoints[1:]):
        for t in range(1, loop.refinement + 1):
            pts.append(a + (b - a) * (t / loop.refinement))
    return np.array(pts)


def reference_spectra(generators):
    return [np.linalg.eigh(np.asarray(G, dtype=complex)) for G in generators]


def reference_frame(spectra, lam, S):
    """U(lam) S at one point, right to left from S: F <- V_mu ((V_mu^dag F) e^{-i lam_mu w_mu})
    for mu = D..1, each product one 2-D matmul."""
    F = S
    for mu in reversed(range(len(spectra))):
        w, V = spectra[mu]
        F = V @ ((V.conj().T @ F) * np.exp(-1j * lam[mu] * w)[:, None])
    return F


def reference_polar_2x2(A):
    """The closed-form polar factor of one 2 x 2 overlap and its sigma_min, in the
    transport's operation order.  Complex products, quotients and moduli go through
    numpy's ufuncs: its scalar operators round a complex product otherwise."""
    sq = A.real ** 2 + A.imag ** 2
    f = sq[0, 0] + sq[0, 1] + sq[1, 0] + sq[1, 1]
    det = np.multiply(A[0, 0], A[1, 1]) - np.multiply(A[0, 1], A[1, 0])
    absdet = np.abs(det)
    s = np.sqrt(f + 2 * absdet)
    smax = (s + np.sqrt(max(f - 2 * absdet, 0.0))) / 2
    smin = np.divide(absdet, smax) if smax > 0 else 0.0
    if smin < _MIN_OVERLAP_SV:
        return None, smin
    adj_dag = lambda X: np.array([[X[1, 1], -X[1, 0]], [-X[0, 1], X[0, 0]]]).conj()
    U = (A + np.divide(det, absdet) * adj_dag(A)) / s
    det_U = np.multiply(U[0, 0], U[1, 1]) - np.multiply(U[0, 1], U[1, 0])
    return (U + adj_dag(U) / np.conj(det_U)) / 2, smin


def reference_polar_svd(A):
    """The polar factor of one overlap from its SVD, and its sigma_min."""
    U, sv, Vh = np.linalg.svd(A, full_matrices=False)
    return (U @ Vh if sv[-1] >= _MIN_OVERLAP_SV else None), sv[-1]


def reference_steps(frames):
    """The polar factors of the consecutive frame overlaps, one step at a time:
    in closed form for 2 x 2 overlaps, from the SVD otherwise."""
    polar = reference_polar_2x2 if frames[0].shape[1] == 2 else reference_polar_svd
    steps = []
    for t in range(1, len(frames)):
        W, smin = polar(frames[t].conj().T @ frames[t - 1])
        if W is None:
            raise PathSingularityError(
                f"frame overlap lost rank at step {t} (sigma_min = {smin:.3e})")
        steps.append(W)
    return steps


def reference_transport(frames):
    """The pairwise product of the steps' deviations E from the identity, in
    the transport's rounds, one 2-D product at a time: adjacent a, b (b later)
    become a + b + b @ a, and an odd last deviation carries over."""
    eye = np.eye(frames[0].shape[1], dtype=complex)
    E = [W - eye for W in reference_steps(frames)]
    while len(E) > 1:
        paired = [E[k] + E[k + 1] + E[k + 1] @ E[k] for k in range(0, len(E) - 1, 2)]
        E = paired + E[2 * len(paired):]
    return eye + E[0] if E else eye


def extended_product(steps):
    """The steps multiplied one by one, later on the left, in np.clongdouble."""
    H = np.eye(len(steps[0]), dtype=np.clongdouble)
    for W in steps:
        H = W.astype(np.clongdouble) @ H
    return H


def reference_frames(spectra, loop, S):
    return [reference_frame(spectra, p, S) for p in reference_points(loop)]


def reference_ladder(spectra, loop, S, doublings):
    """(holonomy, defects) of the ladder, each level transported on its own."""
    hols = [reference_transport(reference_frames(spectra, loop.refined(2 ** j), S))
            for j in range(doublings + 1)]
    return hols[-1], [float(np.linalg.norm(a - b)) for a, b in zip(hols[:-1], hols[1:])]


FIXTURE_SCALE = 1.8


def fixture_generators():
    """fixture-n2d2's generators as they were drawn, the provenance of builtin_family's table."""
    rng = np.random.default_rng(np.random.SeedSequence(7))
    gens = []
    for _ in range(2):
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        G = (G + G.conj().T) / 2
        gens.append(G * (FIXTURE_SCALE / np.linalg.norm(G, 2)))
    return gens


# exp(-i lambda (1 (x) sigma_x)) on C^2 (x) C^2: a step of lambda by a quarter turn maps
# eigenspace 1 onto eigenspace 2, so the frames on either side of it are orthogonal
TURN = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
QUARTER = np.pi / 2


def extended_frames(fam, points, cols):
    """fam.frames(points, cols) computed in np.clongdouble from the family's own spectra,
    right to left from S, and rounded to complex128."""
    F = None
    for mu in reversed(range(fam.D)):
        w, V = (x.astype(np.clongdouble) for x in fam.spectra[mu])
        F = V.conj().T[:, cols] if F is None else V.conj().T @ F
        F = V @ (F * np.exp(-1j * (points[:, mu, None].astype(np.longdouble) * w))[:, :, None])
    return F.astype(complex)


# ---------------------------------------------------------------- reference op

def selector(n, d, i):
    """The 0/1 isometry onto eigenspace i: the columns _eigenspace picks."""
    return np.eye(n * d, dtype=complex)[:, _eigenspace(n * d, n, i)]


class TestIsoDegenerateOperator:
    """The reference operator 1_n (x) diag(x), built here: the library keeps
    only n, and _eigenspace is its one statement of the layout."""

    def test_keeps_only_its_degeneracy(self):
        assert [f.name for f in fields(IsoDegenerateOperator)] == ["n"]
        assert IsoDegenerateOperator(n=3).n == 3
        with pytest.raises(ContractViolationError, match="degeneracy"):
            IsoDegenerateOperator(n=0)

    def test_matrix_layout(self):
        # eigenspace i of the n (x) d layout is every d-th column from i - 1
        for n, d in ((2, 3), (3, 2), (1, 4), (4, 1)):
            for i in range(1, d + 1):
                assert _eigenspace(n * d, n, i) == slice(i - 1, None, d)
                assert np.arange(n * d)[_eigenspace(n * d, n, i)].tolist() == [
                    a * d + i - 1 for a in range(n)]

    def test_selector_is_isometry_onto_eigenspace(self):
        for n, d in ((2, 3), (3, 2), (1, 4), (4, 1)):
            x = np.linspace(-1.0, 2.0, d)
            matrix = np.kron(np.eye(n), np.diag(x))
            for i in range(1, d + 1):
                S = selector(n, d, i)
                assert S.shape == (n * d, n)
                assert np.array_equal(S.conj().T @ S, np.eye(n))
                assert np.array_equal(matrix @ S, x[i - 1] * S)
                # onto: S S^dag is the spectral projector of x[i - 1]
                assert np.array_equal(S @ S.conj().T, np.diag(np.isclose(np.diag(matrix), x[i - 1])))

    def test_selector_columns(self):
        S = selector(2, 2, 2)
        # eigenspace 2 occupies rows 1 and 3 in the n (x) d layout
        assert np.array_equal(S[[1, 3], :], np.eye(2))
        assert np.array_equal(S[[0, 2], :], np.zeros((2, 2)))

    def test_selector_index_range(self):
        for i in (0, 3):
            with pytest.raises(IndexRangeError, match=f"index {i} out of range 1..2"):
                _eigenspace(4, 2, i)
        with pytest.raises(IndexError):  # an IndexRangeError is still an IndexError
            _eigenspace(4, 2, 3)
        with pytest.raises(DimensionMismatchError, match="not a multiple"):
            _eigenspace(6, 4, 1)

    def test_a_zero_degeneracy_is_refused_before_the_layout_divides(self, fixture_fam):
        # dim % 0 raised a raw ZeroDivisionError
        fam, _ = fixture_fam
        with pytest.raises(ContractViolationError, match=r"^degeneracy must be >= 1$"):
            loop_holonomy(fam, RECT1, 1, 0)

    def test_a_negative_degeneracy_is_refused_not_read_as_a_range(self, fixture_fam):
        # n = -2 gave d = -2 and the misleading "eigenspace index 1 out of range 1..-2"
        fam, _ = fixture_fam
        with pytest.raises(ContractViolationError, match=r"^degeneracy must be >= 1$"):
            loop_holonomy(fam, RECT1, 1, -2)


# -------------------------------------------------------------------- families

class TestFamilies:
    def test_family_matches_expm(self):
        rng = np.random.default_rng(3)
        G1, G2 = (random_hermitian(rng, 4) for _ in range(2))
        fam = UnitaryFamily([G1, G2])
        lam = np.array([0.37, -0.81])
        expected = expm(-1j * lam[0] * G1) @ expm(-1j * lam[1] * G2)
        assert np.max(np.abs(fam.frames(lam[None], slice(None))[0] - expected)) < 1e-12
        assert np.allclose(fam.frames([[0.0, 0.0]], slice(None))[0], np.eye(4))
        # the full frames' columns are the frames computed from those columns, to roundoff
        pts = rng.uniform(-1.0, 1.0, (20, 2))
        full = fam.frames(pts, slice(None))
        for cols in (_eigenspace(4, 2, 1), _eigenspace(4, 2, 2), [3, 0]):
            assert np.max(np.abs(full[:, :, cols] - fam.frames(pts, cols))) < 1e-15

    def test_a_family_is_its_generators_spectra_and_its_tolerance(self):
        # built from the generators, it keeps hermitian_eig's spectra of them, bit for bit
        assert list(inspect.signature(UnitaryFamily).parameters) == ["generators", "tol"]
        assert [f.name for f in fields(UnitaryFamily)] == ["tol", "spectra"]
        gens = [np.diag([1.0, -1.0, 0.5]), np.eye(3)]
        fam = UnitaryFamily(gens)
        assert (fam.D, fam.dim) == (2, 3)
        for (w, V), G in zip(fam.spectra, gens):
            w0, V0 = numerics.hermitian_eig(G)
            assert np.array_equal(w, w0) and np.array_equal(V, V0)

    def test_the_generators_are_judged_once_where_the_family_is_built(self, monkeypatch):
        # one hermitian_eig per generator, at the family's tolerance; no evaluation
        # decomposes or judges anything again
        calls, eig = [], holonomy.hermitian_eig
        monkeypatch.setattr(holonomy, "hermitian_eig", lambda G, tol: calls.append(tol) or eig(G, tol))
        tight = Tolerance(resid_abs=1e-300)
        fam = UnitaryFamily(fixture_generators(), tight)
        assert calls == [tight, tight]
        holonomy_algebra_span(fam, TWO_RECTS, 1, 2)
        refinement_ladder(fam, TWO_RECTS[0], 2, 2, doublings=2)
        assert len(calls) == 2

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning from -1j * inf fails the test
    def test_non_finite_points_are_refused(self):
        # refused before they are exponentiated, in a one-point or a whole stack
        fam, _ = builtin_family("fixture-n2d2")
        for lam in ([np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0]):
            with pytest.raises(ContractViolationError, match="family points must be finite"):
                fam.frames([lam], slice(None))
        with pytest.raises(ContractViolationError, match="family points must be finite"):
            fam.frames([[0.1, 0.2], [np.nan, 0.3], [0.2, 0.1]], _eigenspace(4, 2, 1))

    @pytest.mark.parametrize("entry", [
        lambda fam: fam.frames(TWO_RECTS[0].points(), _eigenspace(4, 2, 1)),
        lambda fam: fam.frames([[0.3, -0.4]], slice(None)),
        lambda fam: loop_holonomy(fam, TWO_RECTS[0], 1, 2),
        lambda fam: refinement_ladder(fam, TWO_RECTS[0], 1, 2, doublings=1),
        lambda fam: holonomy_nonabelian_witness(fam, *TWO_RECTS, 1, 2),
        lambda fam: holonomy_algebra_span(fam, TWO_RECTS, 1, 2),
    ], ids=["frames", "one_point", "loop_holonomy", "refinement_ladder", "witness", "algebra_span"])
    def test_every_entry_answers_at_any_residual_bound_the_family_is_built_at(self, entry):
        # the family's frames and holonomies are unitary by construction and not judged at
        # resid_abs, so a bound under their rounding (the frames' ~1e-15, a holonomy's
        # ~1e-14) gives the default's answer, bit for bit; the span's rank cut is rank_rel
        def bits(answer):
            if isinstance(answer, RefinementLadder):
                return np.append(answer.holonomy.ravel(), answer.defects)
            return np.asarray(answer)

        default, *tight = (bits(entry(builtin_family("fixture-n2d2", Tolerance(resid_abs=r))[0]))
                           for r in (1e-8, 1e-14, 1e-16, 1e-300))
        for answer in tight:
            assert np.array_equal(answer, default)

    @pytest.mark.filterwarnings("error")  # inf - inf in the Hermiticity check would warn
    @pytest.mark.parametrize("generators,error,message", [
        ([np.diag([np.nan, 1.0])], ContractViolationError, "non-finite entry"),
        ([np.eye(2), np.diag([1.0, np.inf])], ContractViolationError, "non-finite entry"),
        ([np.diag([-np.inf, 1.0])], ContractViolationError, "non-finite entry"),
        ([np.array([[0.0, 1.0], [0.0, 0.0]])], ContractViolationError, "not Hermitian"),
        ([np.eye(2), np.eye(3)], DimensionMismatchError, r"^generators of mixed dimensions \[2, 3\]$"),
        ([np.ones((2, 3))], DimensionMismatchError, "square matrix"),
        ([], ContractViolationError, "^need at least one generator$"),
    ], ids=["nan", "inf", "minus_inf", "non_hermitian", "mixed_dimensions", "non_square", "empty"])
    def test_a_bad_generator_list_is_refused_where_the_family_is_built(self, generators, error,
                                                                        message):
        # the one input a family reads is judged when it is built, before any point is
        # evaluated: a NaN eigenvalue from eigh no longer reaches the frames
        with pytest.raises(error, match=message):
            UnitaryFamily(generators)

    def test_a_generator_is_judged_hermitian_at_resid_abs_relative_to_its_largest_entry(self):
        # G = 4 [[1, delta], [0, -1]] has a Hermiticity defect of 4 delta and largest entry 4:
        # relative defect delta, refused at resid_abs delta / 2 and built at 2 delta (under
        # which its absolute defect, 4 delta, would still be refused)
        delta = 1e-9
        G = 4 * np.array([[1.0, delta], [0.0, -1.0]])
        with pytest.raises(ContractViolationError, match="not Hermitian within tolerance"):
            UnitaryFamily([G], Tolerance(resid_abs=delta / 2))
        assert UnitaryFamily([G], Tolerance(resid_abs=2 * delta)).dim == 2

    @pytest.mark.parametrize("seed", range(24))
    def test_frames_are_unitary_to_a_bounded_rounding(self, seed):
        # D = 1-3 generators on dim 2-12: the frames' unitarity_defect is at most
        # c D dim eps with c = 8; these seeds measure c <= 2.2, and 400 seeds <= 4.0
        rng = np.random.default_rng([53, seed])
        D, dim = int(rng.integers(1, 4)), int(rng.integers(2, 13))
        fam = UnitaryFamily([random_hermitian(rng, dim, rng.uniform(0.2, 3.0)) for _ in range(D)])
        frames = fam.frames(rng.uniform(-3.0, 3.0, (64, D)), slice(None))
        assert unitarity_defect(frames) <= 8 * D * dim * np.finfo(float).eps

    def test_family_checks_stack_shapes(self):
        fam = UnitaryFamily([np.diag([1.0, -1.0]), np.diag([1.0, 1.0])])
        with pytest.raises(DimensionMismatchError, match="points shape"):
            fam.frames([0.1, 0.2], slice(None))
        with pytest.raises(DimensionMismatchError, match="points shape"):
            fam.frames([[0.1, 0.2, 0.3]], slice(None))

    def test_stack_matches_its_points_bit_for_bit(self):
        rng = np.random.default_rng(29)
        gens = [random_hermitian(rng, 6) for _ in range(3)]
        fam, spectra = UnitaryFamily(gens), reference_spectra(gens)
        pts = rng.uniform(-1.0, 1.0, (17, 3))
        for cols in (slice(None), _eigenspace(6, 3, 2)):
            S = np.eye(6, dtype=complex)[:, cols]
            for p, F in zip(pts, fam.frames(pts, cols)):
                assert np.array_equal(F, fam.frames(p[None], cols)[0])
                assert np.array_equal(F, reference_frame(spectra, p, S))

    def test_a_family_obeys_the_callers_tolerance(self):
        G = np.diag([1.0, -1.0, 0.5]).astype(complex)
        G[0, 1] += 1e-10  # a Hermiticity defect of 1e-10
        UnitaryFamily([G])  # inside the default resid_abs = 1e-8
        with pytest.raises(ContractViolationError, match="Hermitian"):
            UnitaryFamily([G], Tolerance(resid_abs=1e-11))

    def test_a_family_carries_the_tolerance_it_was_built_at(self):
        tight = Tolerance(resid_abs=1e-11)
        assert UnitaryFamily([np.diag([1.0, -1.0])], tight).tol == tight
        assert builtin_family("fixture-n2d2", tight)[0].tol == tight
        assert builtin_family("fixture-n2d2")[0].tol == numerics.DEFAULT_TOL

    def test_builtin_fixture(self, fixture_fam):
        fam, op = fixture_fam
        assert fam.D == 2 and fam.dim == 4
        assert op == IsoDegenerateOperator(n=2) and fam.dim // op.n == 2
        # frozen: repeated construction yields identical matrices
        fam2, _ = builtin_family("fixture-n2d2")
        lam = [[0.3, -0.4]]
        assert np.array_equal(fam.frames(lam, slice(None)), fam2.frames(lam, slice(None)))

    def test_builtin_unknown_name(self):
        with pytest.raises(ContractViolationError):
            builtin_family("no-such-family")


# ----------------------------------------------------------------------- loops

class TestLoopPath:
    def test_validation(self):
        with pytest.raises(ContractViolationError):
            LoopPath(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))  # open
        with pytest.raises(ContractViolationError):
            LoopPath(np.array([[0.0, 0.0], [0.0, 0.0]]))  # too short
        with pytest.raises(ContractViolationError):
            LoopPath(np.array([[0.0], [1.0], [0.0]]), refinement=0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ContractViolationError, match="finite"):
                LoopPath.rectangle((0.0, 0.0), (bad, 1.0))
        with pytest.raises(DimensionMismatchError, match="^rectangle corners must be 2-D points$"):
            LoopPath.rectangle((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))

    def test_points_count_and_ends(self):
        loop = LoopPath(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), refinement=4)
        pts = loop.points()
        assert pts.shape == (2 * 4 + 1, 2)
        assert loop.n_points == len(pts)
        assert np.array_equal(pts[0], pts[-1])
        assert np.allclose(pts[2], [0.5, 0.0])

    def test_points_match_the_one_point_reference_bit_for_bit(self):
        rng = np.random.default_rng(37)
        loops = [RECT1, RECT2.refined(3), LoopPath(np.array([[0.0], [1.0], [0.0]]), 1)]
        for D, W in ((2, 4), (3, 6), (1, 3)):
            wps = rng.uniform(-2.0, 2.0, (W, D))
            loops.append(LoopPath(np.vstack([wps, wps[:1]]), int(rng.integers(1, 40))))
        for loop in loops:
            pts = loop.points()
            assert pts.shape == (loop.n_points, loop.waypoints.shape[1])
            assert np.array_equal(pts, reference_points(loop))

    def test_rectangle_waypoints(self):
        loop = LoopPath.rectangle((0.0, 1.0), (2.0, 3.0), refinement=2)
        expected = np.array([[0, 1], [2, 1], [2, 3], [0, 3], [0, 1]], dtype=float)
        assert np.array_equal(loop.waypoints, expected)
        assert np.array_equal(loop.waypoints[0], [0.0, 1.0])

    def test_reversed_refined(self):
        loop = LoopPath.rectangle((0.0, 0.0), (1.0, 1.0), refinement=3)
        rev = loop.reversed()
        assert np.array_equal(rev.waypoints, loop.waypoints[::-1])
        fine = loop.refined(4)
        assert fine.refinement == 12

    def test_split_preserves_base_and_closure(self):
        rect = LoopPath.rectangle((0.0, 0.0), (1.0, 1.0), refinement=3)
        for sub in rect.split():
            assert np.array_equal(sub.waypoints[0], rect.waypoints[0])
            assert np.array_equal(sub.waypoints[0], sub.waypoints[-1])
        tri = LoopPath(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        a, b = tri.split()
        # triangle chords through the far-edge midpoint, strictly shrinking both
        assert np.array_equal(a.waypoints[2], [0.5, 0.5])
        assert np.array_equal(b.waypoints[1], [0.5, 0.5])


# -------------------------------------------------------------------- holonomy

class TestLoopHolonomy:
    def test_trivial_loop_is_identity(self, fixture_fam):
        fam, _ = fixture_fam
        pencil = LoopPath(np.array([[0.0, 0.0], [0.4, 0.2], [0.0, 0.0]]), refinement=32)
        H = loop_holonomy(fam, pencil, 1, 2)
        assert np.max(np.abs(H - np.eye(2))) < 1e-8

    def test_reversed_loop_inverts(self, fixture_fam):
        fam, _ = fixture_fam
        H = loop_holonomy(fam, RECT1, 1, 2)
        Hr = loop_holonomy(fam, RECT1.reversed(), 1, 2)
        assert np.max(np.abs(Hr @ H - np.eye(2))) < 1e-8
        assert np.max(np.abs(Hr - H.conj().T)) < 1e-8

    def test_holonomy_is_unitary(self, fixture_fam):
        fam, _ = fixture_fam
        for loop in (RECT1, RECT2, RECT3):
            for i in (1, 2):
                H = loop_holonomy(fam, loop, i, 2)
                assert np.max(np.abs(H.conj().T @ H - np.eye(2))) < 1e-10

    def test_right_factor_action_gives_scalar_holonomy(self):
        # generators 1 (x) h keep the connection scalar, so the holonomy is a
        # pure phase on the eigenspace: abelian, but not trivial
        rng = np.random.default_rng(17)
        h1, h2 = (random_hermitian(rng, 2) for _ in range(2))
        fam = UnitaryFamily([np.kron(np.eye(2), h1), np.kron(np.eye(2), h2)])
        H = loop_holonomy(fam, RECT1, 1, 2)
        phase = np.trace(H) / 2
        assert abs(abs(phase) - 1.0) < 1e-8
        assert np.max(np.abs(H - phase * np.eye(2))) < 1e-8

    def test_refinement_converges(self, fixture_fam):
        fam, _ = fixture_fam
        coarse = LoopPath.rectangle((0.0, 0.0), (0.8, 0.6), refinement=8)
        H_coarse = loop_holonomy(fam, coarse, 1, 2)
        H_fine = loop_holonomy(fam, coarse.refined(32), 1, 2)
        H_finer = loop_holonomy(fam, coarse.refined(64), 1, 2)
        assert np.linalg.norm(H_fine - H_finer) < np.linalg.norm(H_coarse - H_finer)

    def test_rank_loss_raises(self):
        fam = UnitaryFamily([TURN])
        loop = LoopPath(np.array([[0.0], [QUARTER], [0.0]]), refinement=1)
        with pytest.raises(PathSingularityError, match="at step 1 "):
            loop_holonomy(fam, loop, 1, 2)

    def test_rank_loss_is_refused_under_one_in_a_million(self):
        # exp(-i lambda Y) carries e1 to (cos lambda, sin lambda), so both steps of the loop
        # [[0], [a], [0]] overlap cos a: refused at 5e-7, transported at 2e-6
        fam = UnitaryFamily([np.array([[0.0, -1j], [1j, 0.0]])])
        there_and_back = lambda c: LoopPath(np.array([[0.0], [np.arccos(c)], [0.0]]), refinement=1)
        with pytest.raises(PathSingularityError,
                           match=r"^frame overlap lost rank at step 1 \(sigma_min = 5\.000e-07\)$"):
            loop_holonomy(fam, there_and_back(5e-7), 1, 1)
        assert np.allclose(loop_holonomy(fam, there_and_back(2e-6), 1, 1), [[1.0]], rtol=0, atol=1e-15)

    def test_rank_loss_names_the_first_failing_step(self):
        fam = UnitaryFamily([TURN])
        # steps of 0.1, then a quarter turn out (step 3) and back (step 4); every
        # other overlap is cos(0.1) times the identity
        loop = LoopPath(np.array([[0.0], [0.1], [0.2], [0.2 + QUARTER], [0.2], [0.1], [0.0]]),
                        refinement=1)
        with pytest.raises(PathSingularityError, match="at step 3 ") as err:
            loop_holonomy(fam, loop, 1, 2)
        with pytest.raises(PathSingularityError) as ref:
            reference_transport(reference_frames(reference_spectra([TURN]), loop, selector(2, 2, 1)))
        assert str(err.value) == str(ref.value)

    def test_oversized_loops_refused_before_their_points_are_built(self, fixture_fam,
                                                                   monkeypatch):
        fam, _ = fixture_fam

        def no_points(self):
            raise AssertionError("points() built for a refused loop")

        monkeypatch.setattr(LoopPath, "points", no_points)
        with pytest.raises(ContractViolationError, match="budget"):
            loop_holonomy(fam, RECT1.refined(10 ** 6), 1, 2)
        with pytest.raises(ContractViolationError, match="budget"):
            refinement_ladder(fam, RECT1, 1, 2, doublings=40)

    def test_loops_up_to_the_cap_run(self, fixture_fam, monkeypatch):
        fam, _ = fixture_fam
        monkeypatch.setattr(pure, "BYTES_BUDGET", 4097 * fam.dim * 2 * 16)  # (P, dim, n) frames
        loop = LoopPath(np.array([[0.0, 0.0], [0.3, 0.2], [0.0, 0.0]]), refinement=2048)
        assert loop.n_points == 4097
        assert np.max(np.abs(loop_holonomy(fam, loop, 1, 2) - np.eye(2))) < 1e-8
        with pytest.raises(ContractViolationError, match="budget"):
            loop_holonomy(fam, LoopPath(loop.waypoints, 2049), 1, 2)
        with pytest.raises(ContractViolationError, match="budget"):
            refinement_ladder(fam, LoopPath(loop.waypoints, 1025), 1, 2, doublings=1)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 24), st.integers(0, 2**32 - 1))
def test_reversed_loop_holonomy_is_the_inverse(n, d, refinement, seed):
    rng = np.random.default_rng(seed)
    fam = UnitaryFamily([random_hermitian(rng, n * d, rng.uniform(0.2, 2.0))
                              for _ in range(2)])
    a = rng.uniform(-1.0, 1.0, 2)
    loop = LoopPath.rectangle(a, a + rng.uniform(-1.0, 1.0, 2), refinement)
    i = int(rng.integers(1, d + 1))
    try:
        H = loop_holonomy(fam, loop, i, n)
    except PathSingularityError:
        return  # a coarse step across an eigenspace crossing; reversal crosses it too
    Hr = loop_holonomy(fam, loop.reversed(), i, n)
    assert np.max(np.abs(Hr @ H - np.eye(n))) < 1e-10


# -------------------------------------------------------------- principal logs

class TestPrincipalLog:
    def test_round_trip(self):
        rng = np.random.default_rng(19)
        K = random_hermitian(rng, 3, scale=2.0) * 1j  # anti-Hermitian, norm 2 < pi
        H = expm(K)
        K_back = principal_log_unitary(H)
        assert np.max(np.abs(expm(K_back) - H)) < 1e-12
        assert np.max(np.abs(K_back + K_back.conj().T)) < 1e-12
        assert np.max(np.abs(K_back - K)) < 1e-10

    def test_branch_cut_rejected(self):
        H = np.diag([np.exp(1j * (np.pi - 1e-4)), 1.0])
        with pytest.raises(BranchCutError):
            principal_log_unitary(H)

    def test_eigenvalue_minus_one_is_refused_at_the_solve(self):
        # H + 1 = 0: the Cayley transform's solve is singular
        with pytest.raises(BranchCutError, match="^holonomy has eigenvalue -1$"):
            principal_log_unitary(-np.eye(2))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, np.nan)])
    def test_a_non_finite_holonomy_is_refused(self, entry):
        # a NaN entry came back as an all-NaN "logarithm"
        H = np.diag([np.exp(0.3j), 1.0])
        H[0, 1] = entry
        with pytest.raises(ContractViolationError, match="^holonomy has a non-finite entry$"):
            principal_log_unitary(H)

    def test_phase_just_inside_margin_accepted(self):
        H = np.diag([np.exp(1j * (np.pi - 2e-3)), 1.0])
        K = principal_log_unitary(H)
        assert np.max(np.abs(expm(K) - H)) < 1e-12

    def test_matches_schur_log_on_degenerate_and_near_cut_unitaries(self):
        def schur_log(H):
            T, Z = schur(H, output="complex")
            phases = np.angle(np.diag(T))
            if np.any(np.abs(phases) > np.pi - 1e-3):
                return None
            return (Z * (1j * phases)) @ Z.conj().T

        rng = np.random.default_rng(43)
        spectra = [
            [0.7], [-2.9, 0.4, 0.4], [1.1, 1.1, 1.1, -0.3], [0.0, 0.0, 2.0, 2.0, -1.5],
            [np.pi - 2e-3, 0.2], [-(np.pi - 2e-3), -(np.pi - 2e-3), 1.0],
            [np.pi - 5e-4, 0.2, -0.8], [-(np.pi - 5e-4), 0.5], [np.pi, 0.1, 0.1],
        ]
        verdicts = []
        for phases in spectra:
            V = haar_unitary(len(phases), rng)
            H = (V * np.exp(1j * np.array(phases))) @ V.conj().T
            expected = schur_log(H)
            verdicts.append(expected is not None)
            if expected is None:
                with pytest.raises(BranchCutError):
                    principal_log_unitary(H)
            else:
                assert np.max(np.abs(principal_log_unitary(H) - expected)) < 1e-10
        assert verdicts == [True] * 6 + [False] * 3


# ------------------------------------------------------- witness and Lie spans

class TestWitnessAndSpan:
    def test_nonabelian_witness_exceeds_threshold(self, fixture_fam):
        fam, _ = fixture_fam
        for i in (1, 2):
            w = holonomy_nonabelian_witness(fam, RECT1, RECT2, i, 2)
            assert w > 0.1

    def test_witness_symmetric(self, fixture_fam):
        fam, _ = fixture_fam
        w12 = holonomy_nonabelian_witness(fam, RECT1, RECT2, 1, 2)
        w21 = holonomy_nonabelian_witness(fam, RECT2, RECT1, 1, 2)
        assert abs(w12 - w21) < 1e-12

    def test_witness_requires_shared_base(self, fixture_fam):
        fam, _ = fixture_fam
        shifted = LoopPath.rectangle((0.1, 0.0), (0.9, 0.6), refinement=16)
        with pytest.raises(ContractViolationError):
            holonomy_nonabelian_witness(fam, RECT1, shifted, 1, 2)

    def test_span_saturates_with_three_loops(self, fixture_fam):
        fam, _ = fixture_fam
        assert holonomy_algebra_span(fam, [RECT1, RECT2, RECT3], 1, 2) == 4
        assert holonomy_algebra_span(fam, [RECT1, RECT2, RECT3], 2, 2) == 4

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_two_loops_are_universal_on_a_generic_eigenspace(self, n, seed):
        # holonomic universality past the n = 2 fixture: two rectangles' holonomies
        # generate all of u(n) on a degeneracy-n eigenspace of a generic family on C^n (x) C^2
        rng = np.random.default_rng(seed)
        fam = UnitaryFamily([random_hermitian(rng, 2 * n, FIXTURE_SCALE) for _ in range(2)])
        assert holonomy_algebra_span(fam, TWO_RECTS, 1, n) == n * n

    def test_commuting_generators_span_nothing(self):
        # diagonal generators transport every frame by phases that cancel around a loop:
        # every log is 0, and so is the span
        rng = np.random.default_rng(0)
        fam = UnitaryFamily([np.diag(rng.standard_normal(6)) for _ in range(2)])
        assert holonomy_algebra_span(fam, TWO_RECTS, 1, 3) == 0

    def test_single_loop_spans_one(self, fixture_fam):
        fam, _ = fixture_fam
        assert holonomy_algebra_span(fam, [RECT1], 1, 2) == 1

    def test_repeated_and_reversed_loops_add_nothing(self, fixture_fam):
        fam, _ = fixture_fam
        assert holonomy_algebra_span(fam, [RECT1, RECT1], 1, 2) == 1
        assert holonomy_algebra_span(fam, [RECT1, RECT1.reversed()], 1, 2) == 1

    def test_span_requires_loops(self, fixture_fam):
        fam, _ = fixture_fam
        with pytest.raises(ContractViolationError):
            holonomy_algebra_span(fam, [], 1, 2)

    def test_branch_cut_recovered_by_splitting(self, fixture_fam):
        # this rectangle's holonomy eigenphase lands inside the branch margin;
        # the direct log fails but chorded sub-loops stay clear of the cut
        fam, _ = fixture_fam
        hot = LoopPath.rectangle((0.0, 0.0), (2.46, 1.68), refinement=48)
        with pytest.raises(BranchCutError):
            principal_log_unitary(loop_holonomy(fam, hot, 1, 2))
        assert holonomy_algebra_span(fam, [hot], 1, 2) == 4

    def test_splitting_stops_at_the_depth_cap(self, fixture_fam, monkeypatch):
        # a log that always meets the cut is split depth-first down to _MAX_SPLIT_DEPTH,
        # where the first sub-loop's refusal is raised: one holonomy per level, 0 to 8
        fam, _ = fixture_fam
        calls = []

        def on_the_cut(H):
            calls.append(H)
            raise BranchCutError("holonomy eigenvalue within margin of the branch cut")

        monkeypatch.setattr(holonomy, "principal_log_unitary", on_the_cut)
        with pytest.raises(BranchCutError, match="^holonomy eigenvalue within margin of the branch cut$"):
            holonomy_algebra_span(fam, [RECT1], 1, 2)
        assert len(calls) == holonomy._MAX_SPLIT_DEPTH + 1 == 9


# ----------------------------------------------------------- refinement ladder

class TestRefinementLadder:
    def test_defects_decrease_monotonically(self, fixture_fam):
        fam, _ = fixture_fam
        base = LoopPath.rectangle((0.0, 0.0), (0.8, 0.6), refinement=8)
        ladder = refinement_ladder(fam, base, 1, 2, doublings=4)
        assert isinstance(ladder, RefinementLadder)
        assert ladder.refinements == [8, 16, 32, 64, 128]
        assert len(ladder.defects) == 4
        for a, b in zip(ladder.defects[:-1], ladder.defects[1:]):
            assert b < a
        assert ladder.holonomy.shape == (2, 2)
        assert np.max(np.abs(ladder.holonomy.conj().T @ ladder.holonomy - np.eye(2))) < 1e-10

    def test_levels_match_loop_holonomy_bit_for_bit(self, fixture_fam):
        fam, _ = fixture_fam
        base = LoopPath.rectangle((0.0, 0.0), (0.8, 0.6), refinement=3)
        ladder = refinement_ladder(fam, base, 1, 2, doublings=3)
        hols = [loop_holonomy(fam, base.refined(2 ** j), 1, 2) for j in range(4)]
        assert np.array_equal(ladder.holonomy, hols[-1])
        assert ladder.defects == [float(np.linalg.norm(a - b))
                                  for a, b in zip(hols[:-1], hols[1:])]

    def test_family_evaluated_once_per_finest_point(self, fixture_fam, monkeypatch):
        fam, _ = fixture_fam
        calls, frames = [], UnitaryFamily.frames

        def counted(self, points, cols):
            calls.append(points)
            return frames(self, points, cols)

        monkeypatch.setattr(UnitaryFamily, "frames", counted)
        base = LoopPath.rectangle((0.0, 0.0), (0.8, 0.6), refinement=5)
        refinement_ladder(fam, base, 1, 2, doublings=3)
        assert len(calls) == 1
        assert np.array_equal(calls[0], base.refined(2 ** 3).points())

    def test_negative_doublings_rejected(self, fixture_fam):
        fam, _ = fixture_fam
        with pytest.raises(ContractViolationError, match="doublings"):
            refinement_ladder(fam, RECT1, 1, 2, doublings=-1)


# ------------------------------------------ stacked transport, bit for bit

class TestStackedTransportBitIdentity:
    def test_the_fixture_table_is_the_seeded_draw_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(holonomy, "UnitaryFamily", lambda generators, tol: generators)
        table, _ = builtin_family("fixture-n2d2")
        assert np.array_equal(np.asarray(table).view(np.uint64), np.asarray(fixture_generators()).view(np.uint64))

    def test_fixture_generators_rebuild_the_fixture(self, fixture_fam):
        fam, _ = fixture_fam
        pts = RECT1.points()
        assert np.array_equal(UnitaryFamily(fixture_generators()).frames(pts, slice(None)),
                              fam.frames(pts, slice(None)))

    @pytest.mark.parametrize("i", [1, 2])
    def test_loop_frames_are_the_selected_columns(self, fixture_fam, i):
        # the column slice equals the product with the 0/1 selector matrix,
        # whose columns a * d + (i - 1) are written out for n = d = 2
        fam, op = fixture_fam
        S = np.eye(4, dtype=complex)[:, [i - 1, i + 1]]
        assert np.array_equal(selector(op.n, fam.dim // op.n, i), S)
        frames = holonomy._loop_frames(fam, RECT1, i, op.n)
        assert np.array_equal(frames, reference_frames(reference_spectra(fixture_generators()), RECT1, S))
        # computed from S, not sliced from a (P, dim, dim) stack
        assert frames.flags.owndata and frames.flags.c_contiguous

    @pytest.mark.parametrize("rect,refinement,doublings", [
        ((0.0, 0.0, 0.8, 0.6), 16, 4),
        ((-0.3, 0.1, 0.4, 0.7), 16, 3),
        ((0.0, 0.0, 2.46, 1.68), 48, 1),
        ((0.1, -0.2, -0.5, 0.4), 5, 0),
    ])
    def test_fixture_ladder_and_loop(self, fixture_fam, rect, refinement, doublings):
        fam, op = fixture_fam
        spectra = reference_spectra(fixture_generators())
        loop = LoopPath.rectangle(rect[:2], rect[2:], refinement)
        for i in (1, 2):
            S = selector(op.n, fam.dim // op.n, i)
            ladder = refinement_ladder(fam, loop, i, op.n, doublings=doublings)
            H, defects = reference_ladder(spectra, loop, S, doublings)
            assert np.array_equal(ladder.holonomy, H)
            assert ladder.defects == defects
            assert np.array_equal(loop_holonomy(fam, loop, i, op.n),
                                  reference_transport(reference_frames(spectra, loop, S)))

    @pytest.mark.parametrize("seed", range(24))
    def test_random_exponential_families(self, seed):
        rng = np.random.default_rng([41, seed])
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        gens = [random_hermitian(rng, n * d, rng.uniform(0.3, 2.0)) for _ in range(2)]
        a = rng.uniform(-0.5, 0.5, 2)
        loop = LoopPath.rectangle(a, a + rng.uniform(0.2, 0.9, 2), int(rng.integers(2, 12)))
        i, doublings = int(rng.integers(1, d + 1)), int(rng.integers(0, 5))
        fam, spectra = UnitaryFamily(gens), reference_spectra(gens)
        S = selector(n, d, i)
        ladder = refinement_ladder(fam, loop, i, n, doublings=doublings)
        H, defects = reference_ladder(spectra, loop, S, doublings)
        assert np.array_equal(ladder.holonomy, H)
        assert ladder.defects == defects
        assert np.array_equal(loop_holonomy(fam, loop, i, n),
                              reference_transport(reference_frames(spectra, loop, S)))

    @pytest.mark.parametrize("steps", [1, 2, 3, 5])
    def test_short_paths_pair_their_steps_as_the_reference_does(self, fixture_fam, steps):
        # 1 step takes no round, 2 one, 3 carries its last step over, 5 carries it twice
        fam, op = fixture_fam
        pts = np.random.default_rng([43, steps]).uniform(-0.3, 0.3, (steps + 1, 2))
        for i in (1, 2):
            frames = fam.frames(pts, _eigenspace(fam.dim, op.n, i))
            H = holonomy._transport(frames)
            assert np.array_equal(H, reference_transport(list(frames)))
            assert np.max(np.abs(H - extended_product(reference_steps(frames)))) < 1e-15


# ---------------------------------------------------------- transport accuracy

def fixture_overlaps(fam, loop, i, n):
    frames = holonomy._loop_frames(fam, loop, i, n)
    return np.swapaxes(frames[1:].conj(), -1, -2) @ frames[:-1]


def extended_polar(A):
    """Polar factors of a (M, 2, 2) stack in np.clongdouble, by Newton's iteration
    X <- (X + X^-dag) / 2 from X = A, run until a round moves no entry by 1e-18."""
    X = A.astype(np.clongdouble)
    for _ in range(12):
        det = X[:, 0, 0] * X[:, 1, 1] - X[:, 0, 1] * X[:, 1, 0]
        inverse = np.stack([np.stack([X[:, 1, 1], -X[:, 0, 1]], -1),
                            np.stack([-X[:, 1, 0], X[:, 0, 0]], -1)], -2) / det[:, None, None]
        X, last = (X + np.swapaxes(inverse.conj(), -1, -2)) / 2, X
        if np.max(np.abs(X - last)) < 1e-18:
            return X
    raise AssertionError("the extended-precision Newton iteration did not converge")


@pytest.mark.parametrize("refinement", [16, 256, 4096])
def test_transport_stays_within_roundoff_of_an_extended_precision_product(fixture_fam,
                                                                          refinement):
    # 65, 1025 and 16,385 points: the pairwise product stays within 1e-15 of the
    # extended-precision product of the transport's own polar steps, where a
    # step-by-step double loop drifts to ~1e-14; the two double results stay within
    # 1e-13 of each other
    fam, op = fixture_fam
    loop = LoopPath.rectangle((0.0, 0.0), (0.8, 0.6), refinement)
    for i in (1, 2):
        steps = holonomy._polar_steps(fixture_overlaps(fam, loop, i, op.n))
        loop_product = np.eye(op.n, dtype=complex)
        for W in steps:
            loop_product = W @ loop_product
        H = loop_holonomy(fam, loop, i, op.n)
        assert np.max(np.abs(H - extended_product(steps))) < 1e-15
        assert np.max(np.abs(H - loop_product)) < 1e-13


@pytest.mark.parametrize("refinement", [16, 256, 4096, 8192])
def test_closed_form_steps_are_polar_factors_to_roundoff(fixture_fam, refinement):
    # 65 to 32,769 points: each closed-form step is within 4e-16 of the overlap's
    # polar factor from an extended-precision Newton iteration (0.9-1.9e-16 measured;
    # the SVD's steps are 0.6-1.05e-15 from it) and within 2e-15 of the SVD's
    fam, op = fixture_fam
    loop = LoopPath.rectangle((0.0, 0.0), (0.8, 0.6), refinement)
    for i in (1, 2):
        overlaps = fixture_overlaps(fam, loop, i, op.n)
        steps = holonomy._polar_2x2(overlaps)
        U, _, Vh = np.linalg.svd(overlaps)
        assert np.max(np.abs(steps - extended_polar(overlaps))) < 4e-16
        assert np.max(np.abs(steps - U @ Vh)) < 2e-15


@pytest.mark.parametrize("doublings,bound", [(8, 1e-13), (11, 1e-12)])
def test_ladder_stays_near_the_holonomy_of_extended_precision_frames(fixture_fam, doublings, bound):
    # 16,385 and 131,073 points: the frames are within 6e-16 of frames computed in
    # np.clongdouble (and rounded), and carried over every step, their rounding sets the
    # holonomy's error: 1.9e-14 and 1.1e-14 at 8 doublings (eigenspaces 1 and 2), 3.3e-13
    # and 7.6e-15 at 11, measured against the holonomy of the extended frames
    fam, op = fixture_fam
    loop = LoopPath.rectangle((0.0, 0.0), (0.8, 0.6), 16)
    points = loop.refined(2 ** doublings).points()
    for i in (1, 2):
        cols = _eigenspace(fam.dim, op.n, i)
        extended = extended_frames(fam, points, cols)
        assert np.max(np.abs(fam.frames(points, cols) - extended)) < 1e-15
        H = refinement_ladder(fam, loop, i, op.n, doublings=doublings).holonomy
        assert np.max(np.abs(H - holonomy._transport(extended))) < bound


def test_ladder_holonomies_are_unitary_to_a_bounded_rounding(fixture_fam):
    # the CLI's default loop at 0 to 12 doublings, 65 to 262,145 points, the longest ladder
    # the byte budget admits: each level's holonomy, transported as the ladder transports
    # it, has a unitarity_defect of at most c (P - 1) eps with c = 2.  Measured c <= 0.72
    # (eigenspace 2 at 12 doublings: 4.2e-11); eigenspace 1 at 3 doublings reads 6.2e-14,
    # over the 1e-14 that the holonomy was once judged at
    fam, op = fixture_fam
    loop = LoopPath.rectangle((0.0, 0.0), (0.8, 0.6), 16)
    for i in (1, 2):
        frames = holonomy._loop_frames(fam, loop.refined(2 ** 12), i, op.n)
        for j in range(13):
            level = frames[::2 ** (12 - j)]
            H = holonomy._transport(level)
            assert unitarity_defect(H) <= 2 * (len(level) - 1) * np.finfo(float).eps, (i, j)


def test_an_eleven_doubling_ladder_peaks_under_the_budget(fixture_fam):
    # 131,073 points: the rule predicts the (P, dim, n) frames, 16 MiB; the transport's
    # overlap and polar-step stacks set the peak, 3.76x that (60.1 MiB measured), where
    # the (P, dim, dim) family stack and its evaluation peaked at 106 MiB
    fam, op = fixture_fam
    loop = LoopPath.rectangle((0.0, 0.0), (0.8, 0.6), 16)
    predicted = 16 * loop.refined(2 ** 11).n_points * fam.dim * op.n
    tracemalloc.start()
    try:
        refinement_ladder(fam, loop, 1, op.n, doublings=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert peak <= 3.9 * predicted


def frames_losing_rank_at(step, sigma_min, rotate, P=9):
    """(P, 4, 2) frames whose overlap at ``step`` (1-based) has singular values 1 and
    sigma_min, as the second column turns from e1 towards e2; every other overlap is
    unitary.  With rotate, each frame is right-multiplied by its own 2 x 2 unitary."""
    frames = np.zeros((P, 4, 2), dtype=complex)
    frames[:, 0, 0] = 1.0
    frames[:step, 1, 1] = 1.0
    frames[step:, 1, 1] = sigma_min
    frames[step:, 2, 1] = np.sqrt(1 - sigma_min ** 2)
    if rotate:
        rng = np.random.default_rng([47, step])
        frames = frames @ np.array([haar_unitary(2, rng) for _ in range(P)])
    return frames


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma_min", [0.0, 5e-7, 2e-6])
@pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
def test_the_closed_form_decides_lost_rank_as_the_svd_does(monkeypatch, sigma_min, rotate):
    # below _MIN_OVERLAP_SV = 1e-6 the same step is refused as from the SVD, with its
    # sigma_min to 1e-8 relative; no overlap gives a NaN or a warning on the way
    frames = frames_losing_rank_at(3, sigma_min, rotate)
    overlaps = np.swapaxes(frames[1:].conj(), -1, -2) @ frames[:-1]
    sv = np.linalg.svd(overlaps, compute_uv=False)[:, -1]
    seen, refuse = [], holonomy._refuse_lost_rank
    monkeypatch.setattr(holonomy, "_refuse_lost_rank", lambda s: seen.append(s) or refuse(s))
    if sigma_min < _MIN_OVERLAP_SV:
        assert np.flatnonzero(sv < _MIN_OVERLAP_SV).tolist() == [2]
        with pytest.raises(PathSingularityError, match=r"lost rank at step 3 \(sigma_min = "):
            holonomy._transport(frames)
    else:
        assert sv.min() >= _MIN_OVERLAP_SV
        H = holonomy._transport(frames)
        U, _, Vh = np.linalg.svd(overlaps)
        assert np.isfinite(H).all()
        assert np.max(np.abs(H - extended_product(U @ Vh))) < 1e-9
    closed = seen[0][2]
    if sigma_min:
        assert abs(closed - sv[2]) <= 1e-8 * sv[2]
    elif rotate:
        assert max(closed, sv[2]) < 1e-15
    else:
        assert closed == sv[2] == 0.0


@pytest.mark.filterwarnings("error")
def test_a_zero_overlap_is_refused_with_sigma_min_zero():
    # a frame orthogonal to the one before: the overlap is the zero matrix, whose
    # s_min = |det| / s_max is 0 / 0 unless s_max = 0 is caught
    frames = np.zeros((4, 4, 2), dtype=complex)
    frames[:2, [0, 1], [0, 1]] = 1.0
    frames[2:, [2, 3], [0, 1]] = 1.0
    with pytest.raises(PathSingularityError, match=r"^frame overlap lost rank at step 2 "
                                                   r"\(sigma_min = 0\.000e\+00\)$"):
        holonomy._transport(frames)
