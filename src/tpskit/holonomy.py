"""Connections and Wilson-loop holonomies of conjugated operator families.

A family U(lambda) conjugating a reference operator with d iso-degenerate
eigenvalues drags each n-dimensional eigenspace around control space.
The reference space is laid out as C^n (x) C^d: eigenspace i is spanned
by the columns a*d + (i-1), a = 0..n-1.  Holonomies are computed by
discrete parallel transport (unitarized frame overlaps), which is exactly
unitary at every step.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import (
    BranchCutError,
    ContractViolationError,
    DimensionMismatchError,
    IndexRangeError,
    PathSingularityError,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    budget_text,
    close_span,
    count_text,
    hermitian_eig,
    refuse_past_budget,
)

_MIN_OVERLAP_SV = 1e-6
_BRANCH_MARGIN = 1e-3
_MAX_SPLIT_DEPTH = 8


@dataclass
class IsoDegenerateOperator:
    """Reference operator 1_n (x) diag(x), known by its degeneracy n alone: transport reads
    the layout ``_eigenspace`` gives, never the eigenvalues, and d is the family's dim // n."""

    n: int

    def __post_init__(self):
        _eigenspace(self.n, self.n, 1)  # the layout's own check of n


def _eigenspace(dim: int, n: int, i: int) -> slice:
    """Columns of eigenspace i (1-based) in the reference layout: every d-th from i - 1."""
    if n < 1:
        raise ContractViolationError("degeneracy must be >= 1")
    if dim % n:
        raise DimensionMismatchError(f"dimension {dim} is not a multiple of degeneracy {n}")
    d = dim // n
    if not 1 <= i <= d:
        raise IndexRangeError(f"eigenspace index {i} out of range 1..{d}")
    return slice(i - 1, None, d)


@dataclass(eq=False)
class UnitaryFamily:
    """U(lambda) = prod_mu exp(-i lambda_mu G_mu) for Hermitian generators G_mu, built at tol.

    The generators are judged once, here: each by ``hermitian_eig`` at tol, whose spectrum
    (w_mu, V_mu) the family keeps as ``spectra``, and all of one dimension.  D and dim are
    read off the spectra.  ``frames`` is the one evaluation.  Every Lie span of the family
    is cut at the same tol.
    """

    generators: InitVar[list]
    tol: Tolerance = DEFAULT_TOL
    spectra: list = field(init=False, repr=False)  # [(w_mu, V_mu)], mu = 1..D

    def __post_init__(self, generators):
        self.spectra = [hermitian_eig(G, self.tol) for G in generators]
        if not self.spectra:
            raise ContractViolationError("need at least one generator")
        if (dims := sorted({len(w) for w, _ in self.spectra})) != [self.dim]:
            raise DimensionMismatchError(f"generators of mixed dimensions {dims}")

    D = property(lambda self: len(self.spectra))
    dim = property(lambda self: len(self.spectra[0][0]))

    def frames(self, points, cols) -> np.ndarray:
        """(P, dim, n) stack of U(lambda) S at a (P, D) stack of points, S the identity's
        columns ``cols``, computed right to left from S as F <- V_mu (e^{-i lambda_mu w_mu}
        (.) (V_mu^dag F)) for mu = D..1: no (P, dim, dim) array, and at most two frame
        stacks alive while it is built.  A non-finite point is refused before it is
        exponentiated.  Each frame is a product of eigh's unitaries and unit phases,
        unitary to roundoff: it is not judged again."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.D:
            raise DimensionMismatchError(f"points shape {pts.shape} != (P, {self.D})")
        if not np.isfinite(pts).all():
            raise ContractViolationError("family points must be finite")
        F = None
        for mu in reversed(range(self.D)):
            w, V = self.spectra[mu]
            F = V.conj().T[:, cols] if F is None else V.conj().T @ F  # V^dag S: V^dag's columns
            F = np.multiply(F, np.exp(-1j * pts[:, mu, None] * w)[:, :, None],
                            out=F if F.ndim == 3 else None)  # the first step makes the stack
            F = V @ F
        return F


_FIXTURE_SEED = 7
_FIXTURE_SCALE = 1.8


def builtin_family(name: str, tol: Tolerance = DEFAULT_TOL):
    """Named built-in families at tol; returns (UnitaryFamily, IsoDegenerateOperator).

    "fixture-n2d2": a fixed 2-parameter exponential family on dimension 4
    with a doubly degenerate reference operator (n = 2, d = 2), generated
    once from a frozen seed and scaled so rectangle holonomies are
    generic: non-abelian and universality-witnessing.
    """
    if name != "fixture-n2d2":
        raise ContractViolationError(f"unknown builtin family {name!r}")
    rng = np.random.default_rng(np.random.SeedSequence(_FIXTURE_SEED))
    gens = []
    for _ in range(2):
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        G = (G + G.conj().T) / 2
        G *= _FIXTURE_SCALE / np.linalg.norm(G, 2)
        gens.append(G)
    return UnitaryFamily(gens, tol), IsoDegenerateOperator(n=2)


@dataclass(eq=False)
class LoopPath:
    """A closed polyline in control space with per-segment subdivision."""

    waypoints: np.ndarray  # (W, D)
    refinement: int = 16

    def __post_init__(self):
        self.waypoints = np.atleast_2d(np.asarray(self.waypoints, dtype=float))
        if self.waypoints.shape[0] < 3:
            raise ContractViolationError("a loop needs at least 3 waypoints")
        if not np.all(np.isfinite(self.waypoints)):
            raise ContractViolationError("waypoints must be finite")
        if not np.array_equal(self.waypoints[0], self.waypoints[-1]):
            raise ContractViolationError("loop must close: first waypoint != last")
        if self.refinement < 1:
            raise ContractViolationError("refinement must be >= 1")

    @property
    def n_points(self) -> int:
        """Length of points(), known without building it."""
        return (self.waypoints.shape[0] - 1) * self.refinement + 1

    def points(self) -> np.ndarray:
        """The discretized traversal, endpoint included once at each end."""
        a, b = self.waypoints[:-1, None], self.waypoints[1:, None]
        t = np.arange(1, self.refinement + 1)[:, None] / self.refinement
        steps = a + (b - a) * t
        return np.vstack([self.waypoints[:1], steps.reshape(-1, self.waypoints.shape[1])])

    def reversed(self) -> "LoopPath":
        return LoopPath(self.waypoints[::-1].copy(), self.refinement)

    def refined(self, factor: int) -> "LoopPath":
        return LoopPath(self.waypoints.copy(), self.refinement * int(factor))

    def split(self) -> tuple["LoopPath", "LoopPath"]:
        """Two sub-loops through the base, chorded at a midpoint of the loop."""
        wps = self.waypoints
        W = wps.shape[0]
        if W >= 5:
            mid = (W - 1) // 2
            first = np.vstack([wps[: mid + 1], wps[[0]]])
            second = np.vstack([wps[[0]], wps[mid:]])
        else:
            # triangles reproduce themselves under waypoint chords; cut the far edge
            m = (wps[1] + wps[2]) / 2
            first = np.vstack([wps[[0, 1]], m[None, :], wps[[0]]])
            second = np.vstack([wps[[0]], m[None, :], wps[2:]])
        return LoopPath(first, self.refinement), LoopPath(second, self.refinement)

    @classmethod
    def rectangle(cls, corner_a, corner_b, refinement: int = 16) -> "LoopPath":
        """Axis-aligned rectangle in a 2-D control space, based at corner_a."""
        a = np.asarray(corner_a, dtype=float)
        b = np.asarray(corner_b, dtype=float)
        if a.shape != (2,) or b.shape != (2,):
            raise DimensionMismatchError("rectangle corners must be 2-D points")
        wps = np.array([a, [b[0], a[1]], b, [a[0], b[1]], a])
        return cls(wps, refinement)


def _loop_frames(fam: UnitaryFamily, loop: LoopPath, i: int, n: int) -> np.ndarray:
    """(P, dim, n) stack of eigenspace-i frames at the loop's points; the stack, predicted
    from the point count, is refused past the budget before any point is built."""
    cols = _eigenspace(fam.dim, n, i)
    refuse_past_budget((loop.n_points, fam.dim, n),
                       f"a frame stack of {count_text(loop.n_points)} points at {fam.dim} x {n}")
    return fam.frames(loop.points(), cols)


def loop_holonomy(fam: UnitaryFamily, loop: LoopPath, i: int, n: int) -> np.ndarray:
    """Discrete Wilson loop of eigenspace i along the path.

    Frames F(lambda) = U(lambda) S_i are linked by the unitary polar
    factors of the overlaps F(t+1)-dagger F(t), later steps on the left,
    multiplied pairwise by ``_transport``; the result is the
    parallel-transport unitary expressed in the base frame.
    """
    return _transport(_loop_frames(fam, loop, i, n))


def _transport(frames: np.ndarray) -> np.ndarray:
    """Product of the polar factors of consecutive frame overlaps, in path order.

    frames: a (P, dim, n) stack.  All P - 1 overlaps are formed as one stack
    and ``_polar_steps`` unitarizes them.  Their polar factors are multiplied
    pairwise, in ceil(log2(P - 1)) batched rounds, as deviations E from the
    identity: adjacent a, b (b later) become (1 + b)(1 + a) - 1 = a + b + b a,
    and an odd last one carries over.  A plain pairwise product of the factors
    would round their near-identity parts off alike in every round.  Each step is
    unitary to roundoff, and so is their product: it is not judged again.
    """
    eye = np.eye(frames.shape[2], dtype=complex)
    E = _polar_steps(np.swapaxes(frames[1:].conj(), -1, -2) @ frames[:-1]) - eye
    while len(E) > 1:
        paired = len(E) // 2 * 2
        a, b = E[0:paired:2], E[1:paired:2]
        E = np.concatenate([a + b + b @ a, E[paired:]])
    return eye + E[0] if len(E) else eye  # one frame: no step


def _polar_steps(overlaps: np.ndarray) -> np.ndarray:
    """Unitary polar factors of a (M, n, n) stack of frame overlaps: in closed form
    (``_polar_2x2``) when n = 2, from one stacked SVD otherwise.  An overlap whose
    smallest singular value is below _MIN_OVERLAP_SV is refused first."""
    if overlaps.shape[-1] == 2:
        return _polar_2x2(overlaps)
    U, sv, Vh = np.linalg.svd(overlaps, full_matrices=False)
    _refuse_lost_rank(sv[:, -1])
    return U @ Vh


def _polar_2x2(A: np.ndarray) -> np.ndarray:
    """Polar factors of a (M, 2, 2) stack, elementwise, with no per-matrix LAPACK call.

    With f = |A|_F^2 and det A = |delta| e^{i phi}: s_max + s_min = sqrt(f + 2 |delta|),
    s_max - s_min = sqrt(f - 2 |delta|) and s_min = |delta| / s_max, which is 0, not
    0 / 0, for a zero overlap.  Since e^{i phi} adj(A)^dag = |delta| A^-dag, the polar
    factor is (A + e^{i phi} adj(A)^dag) / (s_max + s_min); one Newton step
    U <- (U + adj(U)^dag / conj(det U)) / 2 then takes it to roundoff of unitarity
    (without it, an 11-doubling ladder's defect reads 4.9e-11 where SVD steps gave
    7.4e-12).  Lost rank is refused before any division by |delta|.  A step's error
    is ~roundoff / s_min: ~1e-16 on a fine loop's near-unitary overlaps.
    """
    sq = A.real ** 2 + A.imag ** 2
    f = sq[:, 0, 0] + sq[:, 0, 1] + sq[:, 1, 0] + sq[:, 1, 1]
    det = _det_2x2(A)
    absdet = np.abs(det)
    s = np.sqrt(f + 2 * absdet)
    smax = (s + np.sqrt(np.maximum(f - 2 * absdet, 0.0))) / 2
    _refuse_lost_rank(np.divide(absdet, smax, out=np.zeros_like(smax), where=smax > 0))
    U = (A + (det / absdet)[:, None, None] * _adj_dag_2x2(A)) / s[:, None, None]
    return (U + _adj_dag_2x2(U) / _det_2x2(U).conj()[:, None, None]) / 2


def _det_2x2(X: np.ndarray) -> np.ndarray:
    return X[:, 0, 0] * X[:, 1, 1] - X[:, 0, 1] * X[:, 1, 0]


def _adj_dag_2x2(X: np.ndarray) -> np.ndarray:
    """adj(X)^dag of each matrix of a (M, 2, 2) stack: [[x11*, -x10*], [-x01*, x00*]]."""
    Y = X[:, ::-1, ::-1].conj()
    Y[:, 0, 1] = -Y[:, 0, 1]
    Y[:, 1, 0] = -Y[:, 1, 0]
    return Y


def _refuse_lost_rank(sv_min: np.ndarray) -> None:
    """Refuse the first step whose overlap's smallest singular value is below _MIN_OVERLAP_SV."""
    lost = np.flatnonzero(sv_min < _MIN_OVERLAP_SV)
    if lost.size:
        t = int(lost[0]) + 1
        raise PathSingularityError(
            f"frame overlap lost rank at step {t} (sigma_min = {sv_min[t - 1]:.3e})")


def holonomy_nonabelian_witness(fam: UnitaryFamily, loop1: LoopPath, loop2: LoopPath,
                                i: int, n: int) -> float:
    """Frobenius norm of the commutator of two loop holonomies."""
    if not np.array_equal(loop1.waypoints[0], loop2.waypoints[0]):
        raise ContractViolationError("witness loops must share their base point")
    H1 = loop_holonomy(fam, loop1, i, n)
    H2 = loop_holonomy(fam, loop2, i, n)
    return float(np.linalg.norm(H1 @ H2 - H2 @ H1))


def principal_log_unitary(H) -> np.ndarray:
    """Anti-Hermitian principal logarithm of a unitary matrix.

    Eigenphases within the branch margin of -1 are rejected; callers
    shrink or split the loop and retry.  The Cayley transform
    S = -i (H + 1)^-1 (H - 1) is Hermitian with eigenvalues tan(phase / 2)
    on the eigenvectors of H, so one Hermitian eigensolve gives both.
    """
    H = np.asarray(H, dtype=complex)
    eye = np.eye(H.shape[0])
    try:
        S = -1j * np.linalg.solve(H + eye, H - eye)
    except np.linalg.LinAlgError:
        raise BranchCutError("holonomy has eigenvalue -1") from None
    t, Z = np.linalg.eigh((S + S.conj().T) / 2)
    phases = 2 * np.arctan(t)
    if np.any(np.abs(phases) > np.pi - _BRANCH_MARGIN):
        raise BranchCutError("holonomy eigenvalue within margin of the branch cut")
    return (Z * (1j * phases)) @ Z.conj().T


def _collect_log(fam, loop, i, n, depth=0):
    H = loop_holonomy(fam, loop, i, n)
    try:
        return [principal_log_unitary(H)]
    except BranchCutError:
        if depth >= _MAX_SPLIT_DEPTH:
            raise
        first, second = loop.split()
        return (_collect_log(fam, first, i, n, depth + 1)
                + _collect_log(fam, second, i, n, depth + 1))


def holonomy_algebra_span(fam: UnitaryFamily, loops, i: int, n: int) -> int:
    """Real dimension of the Lie algebra generated by the loop holonomies.

    Principal logs of the holonomies (with branch-cut splitting retries)
    are closed under commutators; dimension n^2 certifies that the loops
    generate the whole unitary group of the eigenspace.
    """
    loops = list(loops)
    if not loops:
        raise ContractViolationError("need at least one loop")
    logs = []
    for loop in loops:
        logs.extend(_collect_log(fam, loop, i, n))

    # anti-Hermitian matrices are real-independent iff complex-independent
    # (a matrix both Hermitian and anti-Hermitian is 0), so the complex
    # span of the logs' commutator closure has the real Lie dimension
    return len(close_span(logs, fam.tol))


@dataclass(eq=False)
class RefinementLadder:
    """Successive holonomies under refinement doubling and their defects."""

    refinements: list
    defects: list  # Frobenius distance between consecutive refinements
    holonomy: np.ndarray  # at the finest refinement


def refinement_ladder(fam: UnitaryFamily, loop: LoopPath, i: int, n: int,
                      doublings: int = 4) -> RefinementLadder:
    """Holonomies of the loop at refinements r, 2r, ..., 2^doublings r.

    The family is evaluated once, on the finest loop's points; level j
    transports every 2^(doublings - j)-th of those frames.  They are the
    level's own points bit for bit: t / (r 2^j) and (t 2^m) / (r 2^(j+m))
    are the same correctly rounded quotient.
    """
    if doublings < 0:
        raise ContractViolationError("doublings must be >= 0")
    if doublings >= np.finfo(float).maxexp:  # past floats: refused before 2^doublings is formed
        raise ContractViolationError(f"{doublings} doublings give a loop of over 2^{doublings} "
                                     f"points, over {budget_text()}")
    refs = [loop.refinement * 2 ** j for j in range(doublings + 1)]
    frames = _loop_frames(fam, loop.refined(2 ** doublings), i, n)
    hols = [_transport(frames[::2 ** (doublings - j)]) for j in range(doublings + 1)]
    defects = [float(np.linalg.norm(hols[j] - hols[j + 1])) for j in range(doublings)]
    return RefinementLadder(refinements=refs, defects=defects, holonomy=hols[-1])
