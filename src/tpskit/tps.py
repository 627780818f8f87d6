"""Tensor product structures on a finite-dimensional state space.

A TPS is a unitary identification of the state space with a tensor
product of factors.  Everything downstream of that identification lives
here: the induced local algebras, entanglement relative to the TPS,
Monte Carlo entangling power (whose square root serves as a distance
between structures), factorization enumeration, and an equivalence test
based on comparing induced local algebras.

Factor indices are 1-based throughout, matching the subscripts in
``dims = (n_1, ..., n_m)``.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field

import numpy as np

from .algebra import OperatorAlgebra
from .errors import ContractViolationError, DimensionMismatchError
from .numerics import DEFAULT_TOL, Tolerance, schmidt_entropy, span_residual, unitarity_defect

_KIND_ALIASES = {
    "vn": "von-neumann-entropy-base-2",
    "von-neumann": "von-neumann-entropy-base-2",
    "von-neumann-entropy-base-2": "von-neumann-entropy-base-2",
    "linear": "linear-entropy",
    "linear-entropy": "linear-entropy",
}

_STATE_NORM_ATOL = 1e-10


@dataclass
class TPS:
    """Factor dimensions plus the unitary mapping tensor coordinates in.

    ``iso`` sends a vector indexed by tensor coordinates (row-major over
    the factors) to the ambient state space; pulling a state back through
    ``iso.conj().T`` exposes its tensor components.
    """

    dims: tuple[int, ...]
    iso: np.ndarray
    tol: InitVar[Tolerance] = DEFAULT_TOL

    def __post_init__(self, tol):
        self.dims = tuple(int(n) for n in self.dims)
        if not self.dims or any(n < 2 for n in self.dims):
            raise ContractViolationError("every factor dimension must be >= 2")
        d = int(np.prod(self.dims))
        self.iso = np.asarray(self.iso, dtype=complex)
        if self.iso.shape != (d, d):
            raise DimensionMismatchError(
                f"iso shape {self.iso.shape} does not match factor product {d}")
        defect = unitarity_defect(self.iso)
        if defect > tol.resid_abs:
            raise ContractViolationError(f"iso unitarity defect {defect:.3e}")

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    @classmethod
    def natural(cls, dims) -> "TPS":
        """The TPS in which the ambient basis is already the product basis."""
        d = int(np.prod([int(n) for n in dims]))
        return cls(tuple(dims), np.eye(d, dtype=complex))


@dataclass(frozen=True)
class EntanglementMeasure:
    """Entropy kind plus the bipartition cut it is evaluated across.

    kind: "von-neumann-entropy-base-2" (alias "vn") or "linear-entropy"
    (alias "linear").  cut: the set of factor indices on one side.
    """

    kind: str = "von-neumann-entropy-base-2"
    cut: frozenset = frozenset({1})

    def __post_init__(self):
        try:
            canon = _KIND_ALIASES[self.kind]
        except KeyError:
            raise ContractViolationError(f"unknown entropy kind {self.kind!r}") from None
        object.__setattr__(self, "kind", canon)
        cut = frozenset(int(i) for i in self.cut)
        if not cut:
            raise ContractViolationError("cut must be nonempty")
        object.__setattr__(self, "cut", cut)

    @property
    def short_kind(self) -> str:
        return "vn" if self.kind.startswith("von") else "linear"


@dataclass
class EntanglingPowerEstimate:
    """Monte Carlo average of entanglement generated from product states."""

    mean: float
    stderr: float
    samples: int
    seed: int


def _split_cut(tps: TPS, cut) -> tuple[list[int], list[int]]:
    """0-based factor positions (cut side, complement side), both nonempty."""
    m = tps.nfactors
    cut = sorted(int(i) for i in cut)
    if any(i < 1 or i > m for i in cut):
        raise IndexError(f"cut {cut} out of range for {m} factors")
    left = [i - 1 for i in cut]
    right = [i for i in range(m) if i + 1 not in set(cut)]
    if not left or not right:
        raise ContractViolationError("cut must be a proper nonempty bipartition")
    return left, right


def _check_state(state, dim: int) -> np.ndarray:
    v = np.asarray(state, dtype=complex).reshape(-1)
    if v.shape[0] != dim:
        raise DimensionMismatchError(f"state length {v.shape[0]} != dimension {dim}")
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > _STATE_NORM_ATOL:
        raise ContractViolationError(f"state norm {nrm} is not 1")
    return v


def multiplicative_partitions(n: int) -> list[tuple[int, ...]]:
    """All unordered factorizations of n into factors >= 2.

    Each factorization is an ascending tuple; the singleton (n,) is
    included; the full list is sorted lexicographically.  Recursive
    divisor descent with a minimum-factor argument avoids duplicates.
    """
    if n < 2:
        raise ContractViolationError("n must be >= 2")
    out = []

    def descend(remaining, min_factor, prefix):
        f = min_factor
        while f * f <= remaining:
            if remaining % f == 0:
                descend(remaining // f, f, prefix + (f,))
            f += 1
        out.append(prefix + (remaining,))

    descend(n, 2, ())
    return sorted(out)


def local_algebra(tps: TPS, i: int) -> OperatorAlgebra:
    """Operators acting on factor i only, conjugated into the ambient space.

    The basis is the image of the matrix units on slot i, normalized to
    Hilbert-Schmidt length one; its linear dimension is dims[i-1] ** 2.
    """
    if not 1 <= i <= tps.nfactors:
        raise IndexError(f"factor index {i} out of range 1..{tps.nfactors}")
    n_i = tps.dims[i - 1]
    left = int(np.prod(tps.dims[: i - 1], dtype=int))
    right = int(np.prod(tps.dims[i:], dtype=int))
    d = tps.dim
    scale = 1.0 / np.sqrt(left * right)
    basis = np.zeros((n_i * n_i, d, d), dtype=complex)
    eye_l = np.eye(left, dtype=complex)
    eye_r = np.eye(right, dtype=complex)
    for a in range(n_i):
        for b in range(n_i):
            E = np.zeros((n_i, n_i), dtype=complex)
            E[a, b] = scale
            slot = np.kron(eye_l, np.kron(E, eye_r))
            basis[a * n_i + b] = tps.iso @ slot @ tps.iso.conj().T
    return OperatorAlgebra(dim=d, basis=basis)


def _grouped_tensor(v: np.ndarray, tps: TPS, left: list[int], right: list[int]) -> np.ndarray:
    """Reshape a tensor-coordinate vector into a (cut, complement) matrix."""
    t = v.reshape(tps.dims)
    t = np.transpose(t, left + right)
    dL = int(np.prod([tps.dims[i] for i in left], dtype=int))
    return t.reshape(dL, -1)


def entanglement(state, tps: TPS, measure: EntanglementMeasure = EntanglementMeasure()) -> float:
    """Entanglement of a pure state across the measure's cut, in this TPS.

    The state is pulled back through the TPS, reshaped across the cut and
    Schmidt-decomposed; von Neumann entropy is reported in bits.  Zero
    (exactly) iff the state is a product across the cut within tolerance.
    """
    v = _check_state(state, tps.dim)
    left, right = _split_cut(tps, measure.cut)
    mat = _grouped_tensor(tps.iso.conj().T @ v, tps, left, right)
    s = np.linalg.svd(mat, compute_uv=False)
    return schmidt_entropy(s * s, kind=measure.short_kind)


def entangling_power(U, tps: TPS, measure: EntanglementMeasure = EntanglementMeasure(),
                     samples: int = 20000, seed: int = 0, batch: int = 4096,
                     tol: Tolerance = DEFAULT_TOL) -> EntanglingPowerEstimate:
    """Haar-average entanglement that U creates from product states.

    Product states across the measure's cut are sampled as normalized
    complex Gaussian vectors on each side (exact Haar on each factor);
    the estimate is deterministic given the seed.
    """
    if samples < 1:
        raise ContractViolationError("samples must be >= 1")
    d = tps.dim
    U = np.asarray(U, dtype=complex)
    if U.shape != (d, d):
        raise DimensionMismatchError(f"unitary shape {U.shape} != dimension {d}")
    if unitarity_defect(U) > tol.resid_abs:
        raise ContractViolationError("U is not unitary within tolerance")

    left, right = _split_cut(tps, measure.cut)
    dims_l = [tps.dims[i] for i in left]
    dims_r = [tps.dims[i] for i in right]
    dL = int(np.prod(dims_l, dtype=int))
    dR = int(np.prod(dims_r, dtype=int))
    # tensor-coordinate action of U, then a permutation taking the
    # (cut, complement) axis order to the natural factor order
    W = tps.iso.conj().T @ U @ tps.iso
    order = left + right
    inv = np.argsort(order)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # one canonical draw so the estimate is independent of the batch size
    Z1 = rng.standard_normal((samples, dL)) + 1j * rng.standard_normal((samples, dL))
    Z2 = rng.standard_normal((samples, dR)) + 1j * rng.standard_normal((samples, dR))
    vals = np.empty(samples)
    done = 0
    while done < samples:
        B = min(batch, samples - done)
        z1 = Z1[done:done + B] / np.linalg.norm(Z1[done:done + B], axis=1, keepdims=True)
        z2 = Z2[done:done + B] / np.linalg.norm(Z2[done:done + B], axis=1, keepdims=True)
        prod = np.einsum("bi,bj->bij", z1, z2).reshape([B] + dims_l + dims_r)
        prod = np.transpose(prod, [0] + [1 + int(i) for i in inv]).reshape(B, d)
        out = prod @ W.T
        out = out.reshape([B] + list(tps.dims))
        out = np.transpose(out, [0] + [1 + i for i in order]).reshape(B, dL, dR)
        s = np.linalg.svd(out, compute_uv=False)
        vals[done:done + B] = schmidt_entropy(s * s, kind=measure.short_kind)
        done += B

    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return EntanglingPowerEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)


def tps_distance(U, tps: TPS, measure: EntanglementMeasure = EntanglementMeasure(),
                 samples: int = 20000, seed: int = 0) -> float:
    """Square root of the entangling-power mean: how far U carries the TPS."""
    est = entangling_power(U, tps, measure, samples=samples, seed=seed)
    return float(np.sqrt(est.mean))


def _spans_equal(a: OperatorAlgebra, b: OperatorAlgebra, tol: Tolerance) -> bool:
    if len(a) != len(b):
        return False
    ra = np.max(span_residual(a.basis, b.basis))
    rb = np.max(span_residual(b.basis, a.basis))
    return max(float(ra), float(rb)) < tol.resid_abs


def tps_equivalent(t1: TPS, t2: TPS, tol: Tolerance = DEFAULT_TOL):
    """Permutation identifying the two structures, or None.

    Returns a tuple pi with pi[k] = j meaning factor k+1 of t1 induces the
    same local operator span as factor j of t2; only factors of equal
    dimension are permuted.  None when no such permutation exists (in
    particular whenever the dims multisets differ).
    """
    if t1.dim != t2.dim:
        raise DimensionMismatchError("structures live on different spaces")
    if sorted(t1.dims) != sorted(t2.dims):
        return None
    m = t1.nfactors
    loc1 = [local_algebra(t1, i) for i in range(1, m + 1)]
    loc2 = [local_algebra(t2, i) for i in range(1, m + 1)]

    groups = {}
    for pos in range(m):
        groups.setdefault(t1.dims[pos], []).append(pos)
    targets = {}
    for pos in range(m):
        targets.setdefault(t2.dims[pos], []).append(pos)

    group_dims = sorted(groups)
    choices = [itertools.permutations(targets[n]) for n in group_dims]
    for combo in itertools.product(*choices):
        pi = [0] * m
        for n, perm in zip(group_dims, combo):
            for src, dst in zip(groups[n], perm):
                pi[src] = dst
        if all(_spans_equal(loc1[k], loc2[pi[k]], tol) for k in range(m)):
            return tuple(p + 1 for p in pi)
    return None


@dataclass
class ProductVerdict:
    """Per-factor product flags (keyed by 1-based factor index) + overall."""

    by_factor: dict = field(default_factory=dict)
    overall: bool = False


def is_product(state, tps: TPS, tol: Tolerance = DEFAULT_TOL) -> ProductVerdict:
    """Whether the state is product across each single-factor cut, and fully.

    A multipartite pure state is an overall product iff it is product
    across every factor-vs-rest cut, so the overall flag is the
    conjunction of the per-factor flags.
    """
    flags = {}
    for i in range(1, tps.nfactors + 1):
        E = entanglement(state, tps, EntanglementMeasure(kind="vn", cut=frozenset({i})))
        flags[i] = bool(E < tol.resid_abs)
    return ProductVerdict(by_factor=flags, overall=all(flags.values()))
