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

from .errors import DegeneracyError, DimensionMismatchError, ToleranceError
from .numerics import (
    DEFAULT_TOL,
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


@dataclass
class OperatorAlgebra:
    """HS-orthonormal basis of a *-closed, unital, product-closed subspace."""

    dim: int
    basis: np.ndarray  # (k, dim, dim)

    def __len__(self) -> int:
        return self.basis.shape[0]

    def basis_rows(self) -> np.ndarray:
        """Vectorized basis, one orthonormal row per element."""
        return self.basis.reshape(len(self), -1)

    def projection_residual(self, X, tol: Tolerance = DEFAULT_TOL) -> float:
        """Distance of X from the span, in HS norm."""
        return float(span_residual([X], self.basis)[0])

    def contains(self, X, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.projection_residual(X, tol) <= tol.resid_abs


def algebra_residuals(alg: OperatorAlgebra) -> dict[str, float]:
    """Invariant residuals: identity membership, adjoint and product closure."""
    d = alg.dim
    ident = np.eye(d, dtype=complex) / np.sqrt(d)
    id_resid = float(span_residual([ident], alg.basis)[0])
    adj = alg.basis.conj().transpose(0, 2, 1)
    adj_resid = float(np.max(span_residual(adj, alg.basis), initial=0.0))
    prod_resid = 0.0
    for a in alg.basis:
        P = np.einsum("ij,bjk->bik", a, alg.basis)
        prod_resid = max(prod_resid, float(np.max(span_residual(P, alg.basis))))
    return {"identity": id_resid, "adjoint": adj_resid, "product": prod_resid}


def close_algebra(generators, tol: Tolerance = DEFAULT_TOL, dim: int | None = None) -> OperatorAlgebra:
    """Smallest unital *-algebra containing the generators.

    Seeds the span with the identity, the generators and their adjoints,
    then repeatedly appends pairwise products and re-orthonormalizes until
    the dimension is stable over a full pass.  The worst case is the full
    matrix algebra (dimension dim^2), at which point iteration stops.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if gens:
        d = gens[0].shape[0]
        for g in gens:
            if g.shape != (d, d):
                raise DimensionMismatchError("generators must be square and of equal dimension")
        if dim is not None and dim != d:
            raise DimensionMismatchError(f"declared dim {dim} != generator dim {d}")
    elif dim is None:
        raise DimensionMismatchError("dim is required when there are no generators")
    else:
        d = dim

    seed = [np.eye(d, dtype=complex)]
    for g in gens:
        seed.append(g)
        seed.append(g.conj().T)
    mats = hs_orthonormalize(seed, tol)
    new_start = 0
    while len(mats) < d * d:
        k = len(mats)
        new = mats[new_start:]
        # only products involving an element added last pass can be new
        cand = np.concatenate([
            np.einsum("aij,bjk->abik", mats, new).reshape(-1, d, d),
            np.einsum("aij,bjk->abik", new, mats[:new_start]).reshape(-1, d, d),
        ]) if new_start else np.einsum("aij,bjk->abik", mats, mats).reshape(-1, d, d)
        mats = np.concatenate([mats, hs_orthonormalize(cand, tol, against=mats)])
        if len(mats) == k:
            break
        new_start = k
    return OperatorAlgebra(dim=d, basis=mats)


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
        # candidates and ops are HS-normalized, so the map's scale is O(1);
        # the floor keeps a roundoff-only step (op the identity) null
        K = nullspace(C.reshape(len(X), -1).T, tol, scale=1.0)
        X = np.tensordot(K.T, X, axes=1)
    return X


def commutant(alg: OperatorAlgebra, tol: Tolerance = DEFAULT_TOL) -> OperatorAlgebra:
    """All operators commuting with every basis element of alg, cut out of the matrix units."""
    d = alg.dim
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return OperatorAlgebra(dim=d, basis=_commuting_part(units, alg.basis, tol))


def center(alg: OperatorAlgebra, tol: Tolerance = DEFAULT_TOL) -> OperatorAlgebra:
    """Intersection of alg with its commutant (abelian), cut out of alg's own basis."""
    return OperatorAlgebra(dim=alg.dim, basis=_commuting_part(alg.basis, alg.basis, tol))


class FactorCheck(NamedTuple):
    is_factor: bool
    center_dim: int


def is_factor(alg: OperatorAlgebra, tol: Tolerance = DEFAULT_TOL) -> FactorCheck:
    """True iff the center is trivial (scalar multiples of the identity)."""
    z = len(center(alg, tol))
    return FactorCheck(z == 1, z)


def join(a1: OperatorAlgebra, a2: OperatorAlgebra, tol: Tolerance = DEFAULT_TOL) -> OperatorAlgebra:
    """Smallest *-algebra containing both operands."""
    if a1.dim != a2.dim:
        raise DimensionMismatchError("algebras act on different spaces")
    return close_algebra(list(a1.basis) + list(a2.basis), tol, dim=a1.dim)


@dataclass
class Block:
    """One summand 1_n (x) M_d of the decomposition."""

    label: int
    n: int
    d: int
    central_projector: np.ndarray


@dataclass
class StructureDecomposition:
    """Blocks plus the unitary realizing the block-diagonal form."""

    blocks: list[Block]
    basis_change: np.ndarray
    residual: float

    @property
    def block_shape(self) -> list[tuple[int, int]]:
        return [(b.n, b.d) for b in self.blocks]


def _sample_clustered_eig(basis: np.ndarray, rng, tol: Tolerance):
    """Eigendecomposition of a random Hermitian element of a *-closed span,
    with clusters: H = (Z + Z^dag) / 2 for a complex Gaussian combination Z."""
    k = basis.shape[0]
    Z = np.tensordot(rng.standard_normal(k) + 1j * rng.standard_normal(k), basis, axes=1)
    H = (Z + Z.conj().T) / 2
    w, V = hermitian_eig(H, tol)
    return w, V, cluster_indices(w, tol)


def structure_decompose(alg: OperatorAlgebra, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> StructureDecomposition:
    """Block decomposition of a *-algebra by randomized central probing.

    1) A random Hermitian center element is eigen-clustered; its
       eigenspaces are the minimal central projectors (retried with fresh
       samples when values collide).
    2) Within each block, a random Hermitian element of the compressed
       algebra generically shows d distinct eigenvalues of multiplicity n;
       consistency requires n*d = rank and compressed dimension d^2.
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
    rng = np.random.default_rng(streams[0])
    for _ in range(_MAX_PROBE_RETRIES):
        w, V, clusters = _sample_clustered_eig(cent.basis, rng, tol)
        if len(clusters) == z:
            break
    else:
        raise DegeneracyError(f"center probe produced fewer than {z} distinct eigenvalue clusters")

    raw_blocks = []
    for j, idx in enumerate(clusters):
        Vj = V[:, idx]
        r = Vj.shape[1]
        comp = np.einsum("pi,apq,qk->aik", Vj.conj(), alg.basis, Vj)
        comp_basis = hs_orthonormalize(comp, tol)
        m = comp_basis.shape[0]
        block_rng = np.random.default_rng(streams[j + 1])
        for _ in range(_MAX_PROBE_RETRIES):
            wb, Vb, bclusters = _sample_clustered_eig(comp_basis, block_rng, tol)
            mults = {len(c) for c in bclusters}
            if len(mults) == 1:
                break
        else:
            raise DegeneracyError(f"block {j}: probe spectrum never split into equal multiplicities")
        n_b = len(bclusters[0])
        d_b = len(bclusters)
        if n_b * d_b != r:
            raise ToleranceError(f"block {j}: multiplicity {n_b} x {d_b} != rank {r}")
        if m != d_b * d_b:
            raise ToleranceError(f"block {j}: compressed dimension {m} != {d_b}^2")

        eig_bases = [fix_column_phases(Vb[:, c]) for c in bclusters]
        F1 = eig_bases[0]
        cols = np.zeros((r, r), dtype=complex)
        for i, Fi in enumerate(eig_bases):
            if i == 0:
                w_i = np.eye(n_b, dtype=complex)
            else:
                family = np.einsum("pa,cpq,qb->cab", Fi.conj(), comp_basis, F1)
                norms = np.linalg.norm(family.reshape(m, -1), axis=1)
                rep = family[int(np.argmax(norms))]
                w_i = polar_isometry(rep, tol)
                if w_i.shape != (n_b, n_b) or unitarity_defect(w_i) > tol.resid_abs:
                    raise ToleranceError(f"block {j}: connecting family gave a non-unitary isometry")
                piv = w_i.reshape(-1)[int(np.argmax(np.abs(w_i)))]
                w_i = w_i * (abs(piv) / piv)
            target = Fi @ w_i
            for k in range(n_b):
                cols[:, k * d_b + i] = target[:, k]
        full_cols = Vj @ cols
        raw_blocks.append({
            "n": n_b,
            "d": d_b,
            "projector": Vj @ Vj.conj().T,
            "columns": full_cols,
        })

    def fingerprint(b):
        return tuple(np.round(np.real(np.diag(b["projector"])), 9))

    raw_blocks.sort(key=lambda b: (-b["n"] * b["d"], -b["d"], fingerprint(b)))
    T = np.hstack([b["columns"] for b in raw_blocks])
    if unitarity_defect(T) > tol.resid_abs:
        raise ToleranceError("assembled basis change is not unitary within tolerance")

    blocks = [Block(label=j, n=b["n"], d=b["d"], central_projector=b["projector"])
              for j, b in enumerate(raw_blocks)]
    residual = _block_form_residual(alg.basis, T, [(b.n, b.d) for b in blocks], side="right")
    if residual > tol.resid_abs:
        raise ToleranceError(f"block-form residual {residual:.3e} exceeds {tol.resid_abs:.3e}")
    return StructureDecomposition(blocks=blocks, basis_change=T, residual=residual)


def _block_form_residual(ops: np.ndarray, T: np.ndarray, shape: list[tuple[int, int]], side: str) -> float:
    """Deviation of T^dag ops T from block-diagonal slot form.

    side "right": each block must look like 1_n (x) m (algebra side);
    side "left": each block must look like m (x) 1_d (commutant side).
    """
    worst = 0.0
    offsets = np.cumsum([0] + [n * dd for n, dd in shape])
    for a in ops:
        B = T.conj().T @ a @ T
        mask = np.ones_like(B, dtype=bool)
        for (n, dd), off in zip(shape, offsets[:-1]):
            r = n * dd
            sub = B[off:off + r, off:off + r].reshape(n, dd, n, dd)
            if side == "right":
                m_hat = np.einsum("kikj->ij", sub) / n
                recon = np.einsum("kl,ij->kilj", np.eye(n), m_hat)
            else:
                m_hat = np.einsum("kili->kl", sub) / dd
                recon = np.einsum("kl,ij->kilj", m_hat, np.eye(dd))
            worst = max(worst, float(np.max(np.abs(sub - recon))))
            mask[off:off + r, off:off + r] = False
        if mask.any():
            worst = max(worst, float(np.max(np.abs(B[mask]))))
    return worst


def commutant_block_residual(sd: StructureDecomposition, comm: OperatorAlgebra) -> float:
    """Residual of the commutant against the m (x) 1 form in the same basis."""
    return _block_form_residual(comm.basis, sd.basis_change, sd.block_shape, side="left")


@dataclass
class BipartitionCertificate:
    """Outcome of the virtual-bipartition test for a pair of algebras."""

    commuting: bool
    join_is_full: bool
    a1_is_factor: bool
    verdict: bool
    witness: np.ndarray | None = field(default=None, repr=False)


def check_bipartition(a1: OperatorAlgebra, a2: OperatorAlgebra, tol: Tolerance = DEFAULT_TOL) -> BipartitionCertificate:
    """Certify that (a1, a2) describe a genuine bipartition.

    Tests pairwise commutation, fullness of the join, and triviality of
    the center of a1.  On a positive verdict the block decomposition of
    a1 is recomputed and both algebras are checked against their slot
    forms in the constructed basis.  On a negative verdict the witness is
    a violating commutator or a non-scalar central element.
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

    joined = join(a1, a2, tol)
    join_is_full = len(joined) == d * d

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
    if verdict:
        sd = structure_decompose(a1, tol)
        if len(sd.blocks) != 1:
            raise ToleranceError("factor decomposed into more than one block")
        a2_resid = _block_form_residual(a2.basis, sd.basis_change, sd.block_shape, side="left")
        if max(sd.residual, a2_resid) > tol.resid_abs:
            raise ToleranceError("slot-form verification failed on a positive verdict")
    return BipartitionCertificate(
        commuting=commuting,
        join_is_full=join_is_full,
        a1_is_factor=a1_is_factor,
        verdict=verdict,
        witness=witness,
    )
