"""Tensor product structures on a finite-dimensional state space.

A TPS is a unitary identification of the state space with a tensor
product of factors.  Everything downstream of that identification lives
here: the induced local algebras, entanglement relative to the TPS,
Monte Carlo entangling power (whose square root serves as a distance
between structures), and an equivalence test that reads the local algebras'
match off one transition unitary (factorizations need no matrix: ``pure``).

Factor indices are 1-based throughout, matching the subscripts in
``dims = (n_1, ..., n_m)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DimensionMismatchError, IndexRangeError
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    check_unitary,
    count_text,
    density_entropy,
    entropy_2x2,
    refuse_past_budget,
    schmidt_entropy,
)
from .pure import ENTROPY_KINDS, multiplicative_partitions  # noqa: F401

_STATE_NORM_ATOL = 1e-10
# bytes of one entangling-power pass's (rows, dim) stack of product states: 2048 rows at dim 4
_PASS_BYTES = 128 * 2**10
# fewest rows in a pass: past dim 64 a 128 KiB pass is under 128 rows, and short passes cost
# per-call overhead (at 16x16, 20000 samples took ~770 ms vn and ~348 ms linear in 32-row
# passes, ~728 and ~286 ms in 128-row ones, on one pinned CPU of a 2-vCPU VM)
_MIN_PASS_ROWS = 128


def _factor_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(n) for n in dims)
    if not dims or any(n < 2 for n in dims):
        raise ContractViolationError("every factor dimension must be >= 2")
    return dims


@dataclass(eq=False)
class TPS:
    """Factor dimensions plus the unitary mapping tensor coordinates in.

    ``iso`` sends a vector indexed by tensor coordinates (row-major over
    the factors) to the ambient state space; pulling a state back through
    ``iso.conj().T`` exposes its tensor components.
    """

    dims: tuple[int, ...]
    iso: np.ndarray
    tol: Tolerance = DEFAULT_TOL  # iso is checked at it, and every reader of the TPS decides at it

    def __post_init__(self):
        self.dims = _factor_dims(self.dims)
        self.iso = check_unitary(self.iso, self.tol, "iso", (self.dim, self.dim))[0]

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    @classmethod
    def natural(cls, dims, tol: Tolerance = DEFAULT_TOL) -> "TPS":
        """The TPS in which the ambient basis is already the product basis; its
        complex identity, 16 d^2 bytes, is refused past BYTES_BUDGET before it is built."""
        d = math.prod(int(n) for n in dims)
        refuse_past_budget((d, d), f"the identity of a natural structure at dim {count_text(d)}")
        return cls._unchecked(dims, np.eye(d, dtype=complex), tol)

    @classmethod
    def _unchecked(cls, dims, iso: np.ndarray, tol: Tolerance) -> "TPS":
        """A TPS on a complex iso unitary by construction: no O(d^3) __post_init__ check."""
        tps = object.__new__(cls)
        tps.dims, tps.iso, tps.tol = _factor_dims(dims), iso, tol
        return tps


@dataclass(frozen=True)
class EntanglementMeasure:
    """Entropy kind plus the bipartition cut it is evaluated across.

    kind: "vn" (von Neumann entropy in bits) or "linear" (1 - Tr rho^2).
    cut: the set of factor indices on one side.
    """

    kind: str = "vn"
    cut: frozenset = frozenset({1})

    def __post_init__(self):
        if self.kind not in ENTROPY_KINDS:
            raise ContractViolationError(f"unknown entropy kind {self.kind!r}")
        cut = frozenset(int(i) for i in self.cut)
        if not cut:
            raise ContractViolationError("cut must be nonempty")
        object.__setattr__(self, "cut", cut)


@dataclass
class EntanglingPowerEstimate:
    """Monte Carlo average of entanglement generated from product states.

    unitarity_defect is max |U^dag U - 1|, the residual checked on entry.
    """

    mean: float
    stderr: float
    unitarity_defect: float


def _split_cut(m: int, cut) -> tuple[list[int], list[int]]:
    """0-based positions of m factors (cut side, complement side), both nonempty."""
    cut = sorted(int(i) for i in cut)
    if any(i < 1 or i > m for i in cut):
        raise IndexRangeError(f"cut {cut} out of range for {m} factors")
    left = [i - 1 for i in cut]
    right = sorted(set(range(m)).difference(left))
    if not left or not right:
        raise ContractViolationError("cut must be a proper nonempty bipartition")
    return left, right


def _check_state(state, dim: int) -> np.ndarray:
    v = np.asarray(state, dtype=complex).reshape(-1)
    if v.shape[0] != dim:
        raise DimensionMismatchError(f"state length {v.shape[0]} != dimension {dim}")
    nrm = np.linalg.norm(v)
    if not abs(nrm - 1.0) <= _STATE_NORM_ATOL:  # refuses a NaN norm too
        raise ContractViolationError(f"state norm {nrm} is not 1")
    return v


def local_algebra(tps: TPS, i: int) -> OperatorAlgebra:
    """Operators acting on factor i only, conjugated into the ambient space, at tps.tol.

    Factor i is the one-block form 1_{d/n_i} (x) M_{n_i} of iso with slot i moved
    last, exact by construction, so its basis, written on first read under the size
    rule, is iso (1 (x) E_ab) iso^dag / sqrt(d / n_i), unit (a, b) at a n_i + b.
    """
    from .algebra import OperatorAlgebra  # the rest of tps runs without algebra

    if not 1 <= i <= tps.nfactors:
        raise IndexRangeError(f"factor index {i} out of range 1..{tps.nfactors}")
    d, n_i = tps.dim, tps.dims[i - 1]
    T = np.moveaxis(tps.iso.reshape(d, *tps.dims), i, -1).reshape(d, d)
    return OperatorAlgebra([(d // n_i, n_i)], T, tol=tps.tol)


def _cut_order(tps: TPS, cut) -> tuple[np.ndarray, int]:
    """Tensor coordinates listed in (cut, complement) order, and the cut side's dimension."""
    left, right = _split_cut(tps.nfactors, cut)
    order = np.arange(tps.dim).reshape(tps.dims).transpose(left + right).reshape(-1)
    return order, math.prod(tps.dims[i] for i in left)


def entanglement(state, tps: TPS, measure: EntanglementMeasure = EntanglementMeasure()) -> float:
    """Entanglement of a pure state across the measure's cut, in this TPS.

    The state is pulled back through the TPS, reshaped across the cut and
    Schmidt-decomposed; von Neumann entropy is reported in bits.  Zero
    (exactly) iff the state is a product across the cut within tolerance.
    """
    v = _check_state(state, tps.dim)
    order, dL = _cut_order(tps, measure.cut)
    mat = (tps.iso.conj().T @ v)[order].reshape(dL, -1)
    s = np.linalg.svd(mat, compute_uv=False)
    return schmidt_entropy(s * s, kind=measure.kind)


def entangling_power(U, tps: TPS, measure: EntanglementMeasure = EntanglementMeasure(),
                     samples: int = 20000, seed: int = 0) -> EntanglingPowerEstimate:
    """Haar-average entanglement that U creates from product states.

    Product states across the measure's cut are sampled as normalized
    complex Gaussian vectors on each side (exact Haar on each factor);
    the estimate is deterministic given the seed.  Each output state's
    entropy comes from its reduced density on the smaller side of the cut,
    so no sample takes an SVD: a 2-dim side's three entries are contractions
    over the long side, read by ``entropy_2x2``; other sizes form the stacked
    Gram and read ``density_entropy``.  Samples are drawn, normalized and
    contracted in passes of _PASS_BYTES per (rows, dim) product stack, and
    at least _MIN_PASS_ROWS rows, so no array grows with samples but the
    entropies and the temporary inside their std: 16 * samples bytes,
    predicted from samples and refused past BYTES_BUDGET before any draw.
    """
    if samples < 1:
        raise ContractViolationError("samples must be >= 1")
    d = tps.dim
    U, defect = check_unitary(U, tps.tol, "U", (d, d))

    order, dL = _cut_order(tps, measure.cut)
    dR, ds = d // dL, min(dL, d // dL)
    refuse_past_budget((samples,), f"an entropy stack of {count_text(samples)} samples")
    # tensor-coordinate action of U from (cut, complement) order to (smaller side, larger side)
    outs = order if dL == ds else order.reshape(dL, dR).T.reshape(-1)
    W = (tps.iso.conj().T @ U @ tps.iso)[np.ix_(outs, order)]

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = max(_MIN_PASS_ROWS, _PASS_BYTES // (16 * d))
    # one canonical draw, sample by sample: each row's 2 (dL + dR) normals are the real and
    # imaginary parts of its cut side, then of its complement, so the estimate does not
    # depend on the pass size and the first k samples of a run are the k-sample run
    buf = np.empty((rows, 2 * (dL + dR)))
    vals = np.empty(samples)
    for at in range(0, samples, rows):
        x = rng.standard_normal(out=buf[:samples - at])
        x1, x2 = x[:, :2 * dL], x[:, 2 * dL:]
        # the product state's norm |z1| |z2| is divided out of the cut side alone
        x1 /= np.sqrt(np.einsum("bi,bi->b", x1, x1) * np.einsum("bi,bi->b", x2, x2))[:, None]
        z = x.view(complex)
        out = (np.einsum("bi,bj->bij", z[:, :dL], z[:, dL:]).reshape(-1, d) @ W.T).reshape(-1, ds, d // ds)
        if ds == 2:  # rho = [[|r0|^2, r0 . r1^*], [r1 . r0^*, |r1|^2]] over rows r0, r1
            a, c = np.einsum("bik,bik->ib", out.view(float), out.view(float))
            vals[at:at + rows] = entropy_2x2(a, c, np.einsum("bk,bk->b", out[:, 1], out[:, 0].conj()),
                                             measure.kind)
        else:  # einsum forms a 3 x 3 stack's Gram in half matmul's time; matmul wins from 4 x 4 on
            vals[at:at + rows] = density_entropy(np.einsum("bik,bjk->bij", out, out.conj()) if ds == 3
                                                 else out @ out.conj().transpose(0, 2, 1), measure.kind)
        del out  # a pass's output goes before the next pass's draw

    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return EntanglingPowerEstimate(mean=mean, stderr=stderr, unitarity_defect=defect)


def tps_distance(U, tps: TPS, measure: EntanglementMeasure = EntanglementMeasure(),
                 samples: int = 20000, seed: int = 0) -> float:
    """Square root of the entangling-power mean: how far U carries the TPS."""
    est = entangling_power(U, tps, measure, samples=samples, seed=seed)
    return float(np.sqrt(est.mean))


def tps_equivalent(t1: TPS, t2: TPS):
    """Permutation identifying the two structures, or None.

    pi[k] = j means factor k+1 of t1 induces the same local algebra as factor j
    of t2, both of dimension n; None when no permutation does.  That holds exactly
    when the transition unitary W = t2.iso^dag t1.iso, read from (k+1, rest) to
    (j, rest), is a product u (x) v, so that its (n^2, (d/n)^2) realignment has rank
    one and s_1 = sqrt(d); a match is accepted when s_2 <= t1.tol.resid_abs * s_1.
    Distinct factors' algebras share only the scalars: each factor matches at most one.
    """
    if t1.dim != t2.dim:
        raise DimensionMismatchError("structures live on different spaces")
    if sorted(t1.dims) != sorted(t2.dims):
        return None
    m = t1.nfactors
    W = (t2.iso.conj().T @ t1.iso).reshape(t2.dims + t1.dims)
    pi = []
    for k, n in enumerate(t1.dims):
        for j in (j for j in range(m) if t2.dims[j] == n):
            s = np.linalg.svd(np.moveaxis(W, (j, m + k), (0, 1)).reshape(n * n, -1), compute_uv=False)
            if s[1:].max(initial=0.0) <= t1.tol.resid_abs * s[0]:  # one factor: s has no s_2
                pi.append(j + 1)
                break
        else:
            return None
    return tuple(pi)
