"""Holonomy tests: transport invariants, analytic connection oracles, fixtures."""

import numpy as np
import pytest
from scipy.linalg import expm, schur

from tpskit.errors import (
    BranchCutError,
    ContractViolationError,
    DimensionMismatchError,
    PathSingularityError,
)
from tpskit.holonomy import (
    IsoDegenerateOperator,
    LoopPath,
    RefinementLadder,
    UnitaryFamily,
    builtin_family,
    connection_at,
    exponential_family,
    holonomy_algebra_span,
    holonomy_nonabelian_witness,
    loop_holonomy,
    principal_log_unitary,
    refinement_ladder,
    tabulated_family,
)
from tpskit.numerics import Tolerance


def haar_unitary(dim, rng):
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


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


# ---------------------------------------------------------------- reference op

class TestIsoDegenerateOperator:
    def test_matrix_layout(self):
        op = IsoDegenerateOperator(n=2, d=3, x=(0.5, -1.0, 2.0))
        expected = np.kron(np.eye(2), np.diag([0.5, -1.0, 2.0]))
        assert np.allclose(op.matrix, expected)
        assert op.dim == 6

    def test_selector_is_isometry_onto_eigenspace(self):
        op = IsoDegenerateOperator(n=3, d=2, x=(-1.0, 1.0))
        for i, lam in ((1, -1.0), (2, 1.0)):
            S = op.selector(i)
            assert S.shape == (6, 3)
            assert np.allclose(S.conj().T @ S, np.eye(3))
            assert np.allclose(op.matrix @ S, lam * S)

    def test_selector_columns(self):
        op = IsoDegenerateOperator(n=2, d=2, x=(-1.0, 1.0))
        S = op.selector(2)
        # eigenspace 2 occupies rows 1 and 3 in the n (x) d layout
        assert np.allclose(S[[1, 3], :], np.eye(2))
        assert np.allclose(S[[0, 2], :], 0)

    def test_rejects_repeated_eigenvalues(self):
        with pytest.raises(ContractViolationError):
            IsoDegenerateOperator(n=2, d=2, x=(1.0, 1.0))

    def test_rejects_wrong_count(self):
        with pytest.raises(ContractViolationError):
            IsoDegenerateOperator(n=2, d=3, x=(1.0, 2.0))

    def test_selector_index_range(self):
        op = IsoDegenerateOperator(n=2, d=2, x=(-1.0, 1.0))
        with pytest.raises(IndexError):
            op.selector(0)
        with pytest.raises(IndexError):
            op.selector(3)


# -------------------------------------------------------------------- families

class TestFamilies:
    def test_exponential_family_matches_expm(self):
        rng = np.random.default_rng(3)
        G1, G2 = (random_hermitian(rng, 4) for _ in range(2))
        fam = exponential_family([G1, G2])
        lam = np.array([0.37, -0.81])
        expected = expm(-1j * lam[0] * G1) @ expm(-1j * lam[1] * G2)
        assert np.max(np.abs(fam(lam) - expected)) < 1e-12
        assert np.allclose(fam([0.0, 0.0]), np.eye(4))

    def test_family_checks_unitarity(self):
        fam = UnitaryFamily(D=1, dim=2, evaluate=lambda lam: np.eye(2) * 2.0)
        with pytest.raises(ContractViolationError):
            fam([0.0])

    def test_loop_holonomy_passes_its_tolerance_to_the_family(self):
        base, _ = builtin_family("fixture-n2d2")
        fam = UnitaryFamily(D=2, dim=4, evaluate=lambda lam: (1 + 1e-9) * base.evaluate(lam))
        loop = LoopPath.rectangle((0.0, 0.0), (0.8, 0.6))
        loop_holonomy(fam, loop, 1, 2)  # a ~2e-9 defect is inside the default 1e-8
        with pytest.raises(ContractViolationError):
            loop_holonomy(fam, loop, 1, 2, Tolerance(resid_abs=1e-10))

    def test_family_checks_parameter_shape(self):
        fam = exponential_family([np.diag([1.0, -1.0])])
        with pytest.raises(DimensionMismatchError):
            fam([0.1, 0.2])

    def test_tabulated_nearest_returns_nodes(self):
        rng = np.random.default_rng(5)
        G = random_hermitian(rng, 3)
        nodes = np.linspace(0.0, 1.0, 5)
        table = np.array([expm(-1j * t * G) for t in nodes])
        fam = tabulated_family([nodes], table, method="nearest")
        assert np.array_equal(fam([0.26]), table[1])
        assert np.array_equal(fam([0.74]), table[3])

    def test_tabulated_linear_interpolates_and_reunitarizes(self):
        rng = np.random.default_rng(8)
        G = random_hermitian(rng, 3)
        nodes = np.linspace(0.0, 1.0, 41)
        table = np.array([expm(-1j * t * G) for t in nodes])
        fam = tabulated_family([nodes], table, method="linear")
        t = 0.333
        U = fam([t])
        assert np.max(np.abs(U.conj().T @ U - np.eye(3))) < 1e-12
        assert np.max(np.abs(U - expm(-1j * t * G))) < 1e-3
        # node points reproduce the table up to the unitarity projection
        assert np.max(np.abs(fam([nodes[7]]) - table[7])) < 1e-12

    def test_tabulated_rejects_out_of_range(self):
        nodes = np.linspace(0.0, 1.0, 3)
        table = np.array([np.eye(2)] * 3)
        fam = tabulated_family([nodes], table)
        with pytest.raises(ContractViolationError):
            fam([1.5])

    def test_tabulated_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tabulated_family([np.arange(3.0)], np.zeros((4, 2, 2)))

    def test_builtin_fixture(self, fixture_fam):
        fam, op = fixture_fam
        assert fam.D == 2 and fam.dim == 4
        assert op.n == 2 and op.d == 2
        # frozen: repeated construction yields identical matrices
        fam2, _ = builtin_family("fixture-n2d2")
        lam = [0.3, -0.4]
        assert np.array_equal(fam(lam), fam2(lam))

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

    def test_points_count_and_ends(self):
        loop = LoopPath(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), refinement=4)
        pts = loop.points()
        assert pts.shape == (2 * 4 + 1, 2)
        assert np.array_equal(pts[0], pts[-1])
        assert np.allclose(pts[2], [0.5, 0.0])

    def test_rectangle_waypoints(self):
        loop = LoopPath.rectangle((0.0, 1.0), (2.0, 3.0), refinement=2)
        expected = np.array([[0, 1], [2, 1], [2, 3], [0, 3], [0, 1]], dtype=float)
        assert np.array_equal(loop.waypoints, expected)
        assert np.array_equal(loop.base, [0.0, 1.0])

    def test_reversed_refined_scaled(self):
        loop = LoopPath.rectangle((0.0, 0.0), (1.0, 1.0), refinement=3)
        rev = loop.reversed()
        assert np.array_equal(rev.waypoints, loop.waypoints[::-1])
        fine = loop.refined(4)
        assert fine.refinement == 12
        small = loop.scaled(0.5)
        assert np.array_equal(small.waypoints[2], [0.5, 0.5])
        assert np.array_equal(small.base, loop.base)

    def test_split_preserves_base_and_closure(self):
        rect = LoopPath.rectangle((0.0, 0.0), (1.0, 1.0), refinement=3)
        for sub in rect.split():
            assert np.array_equal(sub.base, rect.base)
            assert np.array_equal(sub.waypoints[0], sub.waypoints[-1])
        tri = LoopPath(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        a, b = tri.split()
        # triangle chords through the far-edge midpoint, strictly shrinking both
        assert np.array_equal(a.waypoints[2], [0.5, 0.5])
        assert np.array_equal(b.waypoints[1], [0.5, 0.5])


# ------------------------------------------------------------------ connection

class TestConnection:
    def test_matches_analytic_derivative(self):
        rng = np.random.default_rng(11)
        G1, G2 = (random_hermitian(rng, 6) for _ in range(2))
        fam = exponential_family([G1, G2])
        lam = np.array([0.4, -0.2])
        comps, defects = connection_at(fam, lam, i=1, n=3, step=1e-5)
        S = IsoDegenerateOperator(n=3, d=2, x=(-1.0, 1.0)).selector(1)
        U = fam(lam)
        A1 = S.conj().T @ (U.conj().T @ (-1j * G1) @ U) @ S
        A2 = S.conj().T @ (-1j * G2) @ S
        assert np.max(np.abs(comps[0] - A1)) < 1e-8
        assert np.max(np.abs(comps[1] - A2)) < 1e-8
        for A in comps:
            assert np.max(np.abs(A + A.conj().T)) < 1e-14
        assert all(d < 1e-8 for d in defects)

    def test_rejects_bad_step(self, fixture_fam):
        fam, _ = fixture_fam
        with pytest.raises(ContractViolationError):
            connection_at(fam, [0.0, 0.0], 1, 2, step=0.0)

    def test_scalar_connection_for_right_factor_action(self):
        # generators 1 (x) h act identically on the degeneracy index, so the
        # compressed connection is a multiple of the identity
        rng = np.random.default_rng(13)
        h1, h2 = (random_hermitian(rng, 2) for _ in range(2))
        fam = exponential_family([np.kron(np.eye(2), h1), np.kron(np.eye(2), h2)])
        comps, _ = connection_at(fam, [0.15, 0.25], i=1, n=2, step=1e-5)
        A2 = comps[1]
        off = A2 - (np.trace(A2) / 2) * np.eye(2)
        assert np.max(np.abs(off)) < 1e-9


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
        fam = exponential_family([np.kron(np.eye(2), h1), np.kron(np.eye(2), h2)])
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

    def test_eigenvalue_independence(self, fixture_fam):
        # the transported frames only see the eigenspace layout, never the
        # eigenvalues, so perturbing them cannot change the holonomy
        fam, op = fixture_fam
        perturbed = IsoDegenerateOperator(n=op.n, d=op.d, x=(-1.7, 0.3))
        assert np.array_equal(op.selector(1), perturbed.selector(1))
        H1 = loop_holonomy(fam, RECT1, 1, op.n)
        H2 = loop_holonomy(fam, RECT1, 1, perturbed.n)
        assert np.array_equal(H1, H2)

    def test_rank_loss_raises(self):
        # a nearest-neighbor table that jumps between I and 1 (x) sigma_x has
        # orthogonal eigenspace frames at the jump
        flip = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        nodes = np.array([0.0, 1.0])
        fam = tabulated_family([nodes], np.array([np.eye(4), flip]), method="nearest")
        loop = LoopPath(np.array([[0.0], [1.0], [0.0]]), refinement=1)
        with pytest.raises(PathSingularityError):
            loop_holonomy(fam, loop, 1, 2)


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

    def test_family_evaluated_once_per_finest_point(self, fixture_fam):
        fam, _ = fixture_fam
        calls = []

        def counted(lam):
            calls.append(lam)
            return fam.evaluate(lam)

        base = LoopPath.rectangle((0.0, 0.0), (0.8, 0.6), refinement=5)
        refinement_ladder(UnitaryFamily(D=fam.D, dim=fam.dim, evaluate=counted),
                          base, 1, 2, doublings=3)
        assert len(calls) == len(base.refined(2 ** 3).points())

    def test_negative_doublings_rejected(self, fixture_fam):
        fam, _ = fixture_fam
        with pytest.raises(ContractViolationError, match="doublings"):
            refinement_ladder(fam, RECT1, 1, 2, doublings=-1)
