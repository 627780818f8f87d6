"""Finite-dimensional *-algebras of operators and their block structure.

An algebra is held as a Hilbert-Schmidt-orthonormal basis of a unital,
adjoint-closed, product-closed subspace of the d x d complex matrices.
The central construction is the block decomposition

    A  ~  (+)_J  1_{n_J} (x) M_{d_J},

realized by an explicit unitary change of basis, from which factor tests
and bipartition certificates follow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, DegeneracyError, DimensionMismatchError, ToleranceError
from .numerics import (
    DEFAULT_TOL,
    DEGENERACY_GAP,
    Tolerance,
    cluster_indices,
    fix_column_phases,
    hermitian_eig,
    hs_orthonormalize,
    nullspace,
    polar_isometry,
    span_residual,
    unitarity_defect,
)

_MAX_PROBE_RETRIES = 16
_ORACLE_PROBES = 8  # probe pairs of algebra_residuals
# spawn key of algebra_residuals' draw: structure_decompose spawns keys 0..z, z <= dim^2
_ORACLE_STREAM = 2**32 - 1


@dataclass
class OperatorAlgebra:
    """HS-orthonormal basis of a *-closed, unital, product-closed subspace."""

    dim: int
    basis: np.ndarray  # (k, dim, dim)
    # commutant and center by (name, Tolerance), shared by later calls: never modify a basis
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return self.basis.shape[0]

    def basis_rows(self) -> np.ndarray:
        """Vectorized basis, one orthonormal row per element."""
        return self.basis.reshape(len(self), -1)


def algebra_residuals(alg: OperatorAlgebra, seed: int = 0) -> dict[str, float]:
    """Invariant residuals of the span of alg.basis: identity membership, and
    adjoint and product closure probed by _ORACLE_PROBES seeded pairs.

    X = sum_b c_b b and Y = sum_b c'_b b have complex Gaussian coefficients;
    product is the largest span_residual(X Y) / (|X| |Y|) and adjoint the
    largest span_residual(X^dag) / |X|, in HS norm.  A span that is not closed
    passes a probe only on a measure-zero set of draws, so the cost is
    O(r (k d^2 + d^3)) where all k^2 pairs would take O(k^2 d^3).  The draw
    has its own child stream of seed, which structure_decompose never spawns.
    """
    d, k = alg.dim, len(alg)
    ident = np.eye(d, dtype=complex) / np.sqrt(d)
    id_resid = float(span_residual([ident], alg.basis)[0])
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_ORACLE_STREAM,)))
    c = rng.standard_normal((2, _ORACLE_PROBES, k)) + 1j * rng.standard_normal((2, _ORACLE_PROBES, k))
    X, Y = np.tensordot(c, alg.basis, axes=1)
    nx, ny = np.linalg.norm(X, axis=(1, 2)), np.linalg.norm(Y, axis=(1, 2))
    adj_resid = span_residual(X.conj().transpose(0, 2, 1), alg.basis) / nx
    prod_resid = span_residual(X @ Y, alg.basis) / (nx * ny)
    return {"identity": id_resid, "adjoint": float(np.max(adj_resid)), "product": float(np.max(prod_resid))}


def close_algebra(generators, tol: Tolerance = DEFAULT_TOL, dim: int | None = None) -> OperatorAlgebra:
    """Smallest unital *-algebra containing the generators.

    By the double-commutant theorem it is S'' for S the identity, the generators
    and their adjoints: one commutant cut gives A' = S', which the result keeps
    for ``commutant`` at this tolerance, and a second gives A''.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if gens:
        d = gens[0].shape[0]
        for g in gens:
            if g.shape != (d, d):
                raise DimensionMismatchError("generators must be square and of equal dimension")
            if not np.isfinite(g).all():
                raise ContractViolationError("generator has a non-finite entry")
        if dim is not None and dim != d:
            raise DimensionMismatchError(f"declared dim {dim} != generator dim {d}")
    elif dim is None:
        raise DimensionMismatchError("dim is required when there are no generators")
    else:
        d = dim

    seed = [np.eye(d, dtype=complex)]
    for g in gens:
        seed += [g, g.conj().T]
    ops = hs_orthonormalize(seed, tol)
    comm = OperatorAlgebra(dim=d, basis=_commutant_basis(ops, tol))
    alg = OperatorAlgebra(dim=d, basis=_commutant_basis(comm.basis, tol))
    if np.max(span_residual(ops, alg.basis)) > tol.resid_abs:
        raise ToleranceError("closure misses a generator: an eigenvalue gap is below resolution")
    alg._derived["commutant", tol] = comm
    return alg


def _commuting_part(start: np.ndarray, ops: np.ndarray, tol: Tolerance) -> np.ndarray:
    """HS-orthonormal basis of the elements of span(start) commuting with every op.

    start is a HS-orthonormal (r, d, d) stack of candidates.  Each op
    restricts the candidates to the nullspace of X -> X op - op X evaluated
    on them, so no superoperator is ever formed.  A fixed unit-norm
    combination of the ops goes first, so the candidates shrink at once
    whatever the order of ops.
    """
    c = np.exp(2j * np.pi * np.random.default_rng(0).random(len(ops))) / np.sqrt(max(len(ops), 1))
    X = start
    for b in [np.tensordot(c, ops, axes=1), *ops]:
        C = X @ b - b @ X
        if np.linalg.norm(C) <= tol.rank_rel:  # every singular value is below the cut
            continue
        # candidates and ops are HS-normalized, so the map's scale is O(1);
        # the floor keeps a roundoff-only step (op the identity) null
        K = nullspace(C.reshape(len(X), -1).T, tol)
        X = np.tensordot(K.T, X, axes=1)
    return X


def _commutant_basis(ops: np.ndarray, tol: Tolerance) -> np.ndarray:
    """HS-orthonormal commutant of a *-closed, HS-orthonormal op stack, cut out of the units
    V[:, c] e_a e_b^T V[:, c]^dag of the eigenblocks c of a random Hermitian element of the
    ops, which span a superset of it: a merged cluster only enlarges the start.  An
    eigenvector is known to about eps / gap, so eigenvalues closer than 1e2 eps / rank_rel
    are merged: a unit from a nearer pair would be too far off to survive the rank cut."""
    gap = max(DEGENERACY_GAP, 1e2 * np.finfo(float).eps / tol.rank_rel)
    V, clusters = _probe(ops, np.random.default_rng(0), tol, gap=gap)
    units = [np.einsum("ia,jb->abij", V[:, c], V[:, c].conj()) for c in clusters]
    return _commuting_part(np.concatenate([u.reshape(-1, *ops.shape[1:]) for u in units]), ops, tol)


def commutant(alg: OperatorAlgebra, tol: Tolerance = DEFAULT_TOL) -> OperatorAlgebra:
    """All operators commuting with every basis element of alg, cut once per tolerance."""
    if ("commutant", tol) not in alg._derived:
        alg._derived["commutant", tol] = OperatorAlgebra(alg.dim, _commutant_basis(alg.basis, tol))
    return alg._derived["commutant", tol]


def center(alg: OperatorAlgebra, tol: Tolerance = DEFAULT_TOL) -> OperatorAlgebra:
    """Intersection of alg with its commutant (abelian), once per tolerance: Z(A) = Z(A'),
    so it is cut out of the kept commutant, whose sum n_J^2 candidates are fewer than alg's."""
    if ("center", tol) not in alg._derived:
        comm = commutant(alg, tol).basis
        alg._derived["center", tol] = OperatorAlgebra(alg.dim, _commuting_part(comm, comm, tol))
    return alg._derived["center", tol]


class FactorCheck(NamedTuple):
    is_factor: bool
    center_dim: int


def is_factor(alg: OperatorAlgebra, tol: Tolerance = DEFAULT_TOL) -> FactorCheck:
    """True iff the center is trivial (scalar multiples of the identity)."""
    z = len(center(alg, tol))
    return FactorCheck(z == 1, z)


def join(a1: OperatorAlgebra, a2: OperatorAlgebra, tol: Tolerance = DEFAULT_TOL) -> OperatorAlgebra:
    """Smallest *-algebra containing both operands: the double commutant of their union."""
    if a1.dim != a2.dim:
        raise DimensionMismatchError("algebras act on different spaces")
    return close_algebra(list(a1.basis) + list(a2.basis), tol, dim=a1.dim)


@dataclass
class StructureDecomposition:
    """The block form (+)_J 1_{n_J} (x) M_{d_J} and the unitary T realizing it.

    Block J owns the next n_J d_J columns of T, in (n, d) row-major order, so
    T^dag X T on them is 1_{n_J} (x) m_J for every X in the algebra; residual
    is the largest deviation from that form over the algebra's basis.
    """

    block_shape: list[tuple[int, int]]
    basis_change: np.ndarray
    residual: float
    blocks = property(lambda self: self.block_shape)  # perfbench's tracer counts len(sd.blocks)


def _probe(basis: np.ndarray, rng, tol: Tolerance, accept=lambda clusters: True, failure: str = "",
           gap: float = DEGENERACY_GAP):
    """Eigenvectors and eigenvalue clusters of a random Hermitian element (Z + Z^dag) / 2
    of a *-closed span, Z a complex Gaussian combination of basis: the first draw from
    rng whose clusters pass accept, else DegeneracyError(failure) after _MAX_PROBE_RETRIES."""
    k = basis.shape[0]
    for _ in range(_MAX_PROBE_RETRIES):
        Z = np.tensordot(rng.standard_normal(k) + 1j * rng.standard_normal(k), basis, axes=1)
        w, V = hermitian_eig((Z + Z.conj().T) / 2, tol)
        clusters = cluster_indices(w, gap)
        if accept(clusters):
            return V, clusters
    raise DegeneracyError(failure)


def structure_decompose(alg: OperatorAlgebra, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> StructureDecomposition:
    """Block decomposition of a *-algebra by randomized central probing.

    1) A random Hermitian center element is eigen-clustered; its
       eigenspaces are the minimal central projectors (retried with fresh
       samples when values collide).
    2) Within each block, a random Hermitian element of the algebra
       compressed to it generically shows d distinct eigenvalues of
       multiplicity n; consistency requires n*d = rank in each block and,
       once all blocks are found, sum d^2 = dim of the algebra.
    3) Eigenspaces are glued by partial isometries extracted from the
       one-dimensional operator families connecting them, giving columns
       in which the algebra acts as 1_n (x) M_d.
    """
    cent = center(alg, tol)
    z = len(cent)
    adj = cent.basis.conj().transpose(0, 2, 1)
    if np.max(span_residual(adj, cent.basis), initial=0.0) > tol.resid_abs:
        raise ToleranceError("center is not *-closed within tolerance")

    streams = np.random.SeedSequence(seed).spawn(z + 1)
    V, clusters = _probe(cent.basis, np.random.default_rng(streams[0]), tol, lambda cl: len(cl) == z,
                         f"center probe produced fewer than {z} distinct eigenvalue clusters")

    found = []  # (sort key, (n, d), columns of T) per block
    for j, idx in enumerate(clusters):
        Vj = V[:, idx]
        r = Vj.shape[1]
        comp = Vj.conj().T @ alg.basis @ Vj  # spans the compressed algebra, not orthonormal
        Vb, bclusters = _probe(comp, np.random.default_rng(streams[j + 1]), tol,
                               lambda cl: len({len(c) for c in cl}) == 1,
                               f"block {j}: probe spectrum never split into equal multiplicities")
        n_b, d_b = len(bclusters[0]), len(bclusters)
        if n_b * d_b != r:
            raise ToleranceError(f"block {j}: multiplicity {n_b} x {d_b} != rank {r}")

        F1, *others = [fix_column_phases(Vb[:, c]) for c in bclusters]
        cols = np.zeros((r, r), dtype=complex)
        cols[:, 0::d_b] = F1
        for i, Fi in enumerate(others, 1):
            family = Fi.conj().T @ comp @ F1
            rep = family[int(np.argmax(np.linalg.norm(family.reshape(len(comp), -1), axis=1)))]
            w_i = polar_isometry(rep, tol)
            if w_i.shape != (n_b, n_b) or unitarity_defect(w_i) > tol.resid_abs:
                raise ToleranceError(f"block {j}: connecting family gave a non-unitary isometry")
            piv = w_i.reshape(-1)[int(np.argmax(np.abs(w_i)))]
            cols[:, i::d_b] = Fi @ (w_i * (abs(piv) / piv))
        # larger blocks first, then larger d, then the central projector's rounded diagonal
        fingerprint = tuple(np.round(np.real(np.diag(Vj @ Vj.conj().T)), 9))
        found.append(((-n_b * d_b, -d_b, fingerprint), (n_b, d_b), Vj @ cols))
    spanned = sum(d * d for _, (_, d), _ in found)
    if spanned != len(alg):
        raise ToleranceError(f"blocks span {spanned} dimensions, the algebra {len(alg)}")

    _, shape, columns = zip(*sorted(found, key=lambda b: b[0]))
    T = np.hstack(columns)
    if unitarity_defect(T) > tol.resid_abs:
        raise ToleranceError("assembled basis change is not unitary within tolerance")

    residual = _block_form_residual(alg.basis, T, shape, side="right")
    if residual > tol.resid_abs:
        raise ToleranceError(f"block-form residual {residual:.3e} exceeds {tol.resid_abs:.3e}")
    return StructureDecomposition(block_shape=list(shape), basis_change=T, residual=residual)


def _block_form_residual(ops, T: np.ndarray, shape: list[tuple[int, int]], side: str) -> float:
    """Deviation of T^dag ops T from block-diagonal slot form.

    side "right": each block must look like 1_n (x) m (algebra side);
    side "left": each block must look like m (x) 1_d (commutant side), which
    is the right form of the block with its two slots swapped.
    """
    B = T.conj().T @ np.asarray(ops) @ T
    worst, off = 0.0, 0
    for n, dd in shape:
        r = n * dd
        sub = B[:, off:off + r, off:off + r].reshape(-1, n, dd, n, dd)
        if side == "left":
            sub, n = sub.transpose(0, 2, 1, 4, 3), dd
        recon = np.einsum("kl,aij->akilj", np.eye(n), np.einsum("akikj->aij", sub) / n)
        worst = max(worst, float(np.max(np.abs(sub - recon), initial=0.0)))
        B[:, off:off + r, off:off + r] = 0  # leaves the off-block entries
        off += r
    return max(worst, float(np.max(np.abs(B), initial=0.0)))


@dataclass
class BipartitionCertificate:
    """Outcome of the virtual-bipartition test for a pair of algebras."""

    commuting: bool
    join_is_full: bool
    a1_is_factor: bool
    verdict: bool
    witness: np.ndarray | None = field(default=None, repr=False)
    residuals: dict[str, float] = field(default_factory=dict, repr=False)


def check_bipartition(a1: OperatorAlgebra, a2: OperatorAlgebra, tol: Tolerance = DEFAULT_TOL,
                      seed: int = 0) -> BipartitionCertificate:
    """Certify that (a1, a2) describe a genuine bipartition.

    Tests pairwise commutation, fullness of the join, and triviality of
    the center of a1.  The join is full iff its commutant a1' & a2' is the
    scalars: a2 cuts a1's commutant, and no join is formed.  On a positive
    verdict the block decomposition of a1 is computed at seed and both
    algebras are checked against their slot forms in its basis.  On a
    negative verdict the witness is a violating commutator or a non-scalar
    central element.  The residuals are the largest commutator entry and,
    on a positive verdict, the larger slot-form residual.
    """
    if a1.dim != a2.dim:
        raise DimensionMismatchError("algebras act on different spaces")
    d = a1.dim

    witness = None
    comm_resid = 0.0
    for b1 in a1.basis:
        C = np.einsum("ij,bjk->bik", b1, a2.basis) - np.einsum("bij,jk->bik", a2.basis, b1)
        worst = np.max(np.abs(C.reshape(C.shape[0], -1)), axis=1)
        i = int(np.argmax(worst))
        if worst[i] > comm_resid:
            comm_resid = float(worst[i])
            if comm_resid > tol.resid_abs:
                witness = C[i]
    commuting = comm_resid <= tol.resid_abs

    join_is_full = len(_commuting_part(commutant(a1, tol).basis, a2.basis, tol)) == 1

    cent = center(a1, tol)
    a1_is_factor = len(cent) == 1
    if not a1_is_factor and witness is None:
        # traceless central part of the first matrix unit the center holds at
        # least half as strongly as any other: fixed by the span, not the basis
        ident = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
        rows = cent.basis_rows()
        weight = np.sum(np.abs(rows) ** 2, axis=0) - np.abs(ident) ** 2
        j = int(np.argmax(weight >= weight.max() / 2))
        witness = (rows.T @ rows[:, j].conj() - ident * ident[j]).reshape(d, d)

    verdict = commuting and join_is_full and a1_is_factor
    residuals = {"commutator": comm_resid}
    if verdict:
        sd = structure_decompose(a1, tol, seed=seed)
        if len(sd.block_shape) != 1:
            raise ToleranceError("factor decomposed into more than one block")
        a2_resid = _block_form_residual(a2.basis, sd.basis_change, sd.block_shape, side="left")
        residuals["block_form"] = max(sd.residual, a2_resid)
        if residuals["block_form"] > tol.resid_abs:
            raise ToleranceError("slot-form verification failed on a positive verdict")
    return BipartitionCertificate(
        commuting=commuting,
        join_is_full=join_is_full,
        a1_is_factor=a1_is_factor,
        verdict=verdict,
        witness=witness,
        residuals=residuals,
    )
