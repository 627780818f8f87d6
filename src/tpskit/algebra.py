"""Finite-dimensional *-algebras of operators and their block structure.

An algebra is held as its block decomposition

    A  ~  (+)_J  1_{n_J} (x) M_{d_J},

realized by an explicit unitary change of basis T.  It is read off generic
elements of the commutant A' = (+)_J M_{n_J} (x) 1_{d_J}, and the closure,
commutant, center, factor test and bipartition certificate all follow from
(shape, T): the commutant and the center are the same T read another way.
A Hilbert-Schmidt-orthonormal basis of A is written only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, DegeneracyError, DimensionMismatchError, ToleranceError
from .numerics import (
    DEFAULT_TOL,
    DEGENERACY_GAP,
    Tolerance,
    _svd_cut,
    cluster_indices,
    hs_orthonormalize,
    refuse_past_budget,
)

_MAX_PROBE_RETRIES = 16  # draws of generic commutant elements per decomposition
_CG_STOP = 1e-13  # CG's residual stop, relative to k |X0| for k HS-normalized operators
_ORACLE_PROBES = 8  # probe pairs of algebra_residuals
# seed streams: a decomposition draws from the seed itself, these from its children
_JOIN_STREAM, _ORACLE_STREAM = 2**32 - 2, 2**32 - 1


class OperatorAlgebra:
    """A *-algebra held as its block form (+)_J 1_{n_J} (x) M_{d_J}, realized by the unitary T.

    Block J owns the next n_J d_J columns of T, in (n, d) row-major order, so T^dag X T on them
    is 1_{n_J} (x) m_J for every X in the algebra; residual is the largest deviation from that
    form over the operators it was solved on (a derived form keeps it; a TPS factor's is 0),
    at tol.  generators, HS-normalized, are the closure's seed, else two read off the form.
    len is sum d_J^2; the basis of matrix units is written by ``_units`` on its first read."""

    def __init__(self, block_shape: list[tuple[int, int]], basis_change: np.ndarray, residual: float = 0.0,
                 tol: Tolerance = DEFAULT_TOL, generators: np.ndarray | None = None):
        self.block_shape, self.basis_change, self.residual, self.tol = block_shape, basis_change, residual, tol
        if generators is not None:  # takes the place of the cached property below
            self.generators = generators

    dim = property(lambda self: self.basis_change.shape[0])
    blocks = property(lambda self: self.block_shape)  # perfbench's tracer counts len(result.blocks)

    @cached_property
    def generators(self) -> np.ndarray:  # (1 or 2, dim, dim)
        """T ((+)_J 1_{n_J} (x) m_J) T^dag for m_J = diag(a_J, ..., a_J + d_J - 1), distinct across blocks,
        whose polynomials give each 1 (x) E_ii, and the hopping E_{i,i+1} + E_{i+1,i} linking them, if nonzero."""
        D, H, off, a = np.zeros((self.dim, self.dim)), np.zeros((self.dim, self.dim)), 0, 1
        for n, d in self.block_shape:
            D[off:off + n * d, off:off + n * d] = np.kron(np.eye(n), np.diag(np.arange(a, a + d)))
            H[off:off + n * d, off:off + n * d] = np.kron(np.eye(n), np.eye(d, k=1) + np.eye(d, k=-1))
            off, a = off + n * d, a + d
        ops = self.basis_change @ np.array([D, H] if H.any() else [D]) @ self.basis_change.conj().T
        return ops / np.linalg.norm(ops, axis=(1, 2))[:, None, None]

    @cached_property
    def basis(self) -> np.ndarray:  # (len, dim, dim)
        return _units(self.basis_change, self.block_shape)

    def __len__(self) -> int:
        return sum(d * d for _, d in self.block_shape)

    def basis_rows(self) -> np.ndarray:
        """Vectorized basis, one orthonormal row per element."""
        return self.basis.reshape(len(self), -1)


def algebra_residuals(alg: OperatorAlgebra, seed: int = 0) -> dict[str, float]:
    """Invariant residuals of alg's block form, each the HS norm of a ``_slot_defect``, so a
    distance from the span of its units: of 1/sqrt(d) (identity), and the largest of X^dag /
    |X| (adjoint) and X Y / (|X| |Y|) (product) over _ORACLE_PROBES pairs X = T ((+)_J 1_n (x)
    C_J / sqrt(n_J)) T^dag, which is sum_b c_b b in ``_units``' order, and Y, with complex
    Gaussian c from a child stream of seed that no decomposition draws from.  A T that does not
    realize the form passes a probe on a measure-zero set of draws only.  O(r d^3), no basis."""
    T, shape, d, k = alg.basis_change, alg.block_shape, alg.dim, len(alg)
    refuse_past_budget((_ORACLE_PROBES, d, d), f"a stack of {_ORACLE_PROBES} oracle probes at dim {d}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_ORACLE_STREAM,)))
    c = rng.standard_normal((2 * _ORACLE_PROBES, k)) + 1j * rng.standard_normal((2 * _ORACLE_PROBES, k))
    D, off, at = np.zeros((2 * _ORACLE_PROBES, d, d), dtype=complex), 0, 0
    for n, dd in shape:
        D[:, off:off + n * dd, off:off + n * dd] = _embed(c[:, at:at + dd * dd].reshape(-1, dd, dd), n) / np.sqrt(n)
        off, at = off + n * dd, at + dd * dd
    D = T @ D @ T.conj().T  # in the ambient space, where a T that is not unitary shows
    X, Y = np.split(D, 2)
    nx, ny = np.linalg.norm(X, axis=(1, 2)), np.linalg.norm(Y, axis=(1, 2))
    probes = np.concatenate([np.eye(d, dtype=complex)[None] / np.sqrt(d), X.conj().transpose(0, 2, 1), X @ Y])
    r = np.linalg.norm(_slot_defect(probes, T, shape, "right"), axis=(1, 2))
    return {"identity": float(r[0]), "adjoint": float(np.max(r[1:1 + _ORACLE_PROBES] / nx)),
            "product": float(np.max(r[1 + _ORACLE_PROBES:] / (nx * ny)))}


def close_algebra(generators, tol: Tolerance = DEFAULT_TOL, dim: int | None = None, *,
                  seed: int = 0) -> OperatorAlgebra:
    """Smallest unital *-algebra containing the generators.

    It is S'' for S the identity, the generators and their adjoints: its block form
    is read off generic elements of S' drawn at seed, which is the form
    ``structure_decompose`` gives at that seed.  The result keeps S.
    """
    return _decompose(_closure_seed(generators, tol, dim), tol, seed)


def _closure_seed(generators, tol: Tolerance, dim: int | None) -> np.ndarray:
    """S, HS-orthonormal: the identity, the generators and the adjoints of the non-Hermitian
    ones, after the generators' checks (square, of one dim, finite, the declared dim) and
    the byte budget's refusal of the stack, before any solve."""
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if not gens and dim is None:
        raise DimensionMismatchError("dim is required when there are no generators")
    d = gens[0].shape[0] if gens else dim
    if d < 1:
        raise ContractViolationError(f"dim must be >= 1, got {d}")
    if any(g.shape != (d, d) for g in gens):
        raise DimensionMismatchError("generators must be square and of equal dimension")
    if not all(np.isfinite(g).all() for g in gens):
        raise ContractViolationError("generator has a non-finite entry")
    if dim is not None and dim != d:
        raise DimensionMismatchError(f"declared dim {dim} != generator dim {d}")
    seed_ops = [m for g in gens for m in ((g,) if np.array_equal(g, g.conj().T) else (g, g.conj().T))]
    refuse_past_budget((1 + len(seed_ops), d, d), f"the closure's seed of {1 + len(seed_ops)} operators at dim {d}")
    return hs_orthonormalize([np.eye(d, dtype=complex), *seed_ops], tol)


def _generic_commutant(ops: np.ndarray, rng, tol: Tolerance, count: int):
    """(V, K): count HS-normalized Gaussian Hermitian elements of the commutant of the
    *-closed span of ops, in the eigenbasis V of a random Hermitian element of that span.

    The commutant is the nullspace of the PSD map L(X) = sum_g [g^dag, [g, X]], so
    K = X0 - L^+ L X0 for Gaussian X0; conjugate gradients find it on a (count, k, d, d)
    product stack, refused past BYTES_BUDGET before any draw, block-diagonal in V's eigen-
    clusters (they hold the commutant; eigenvalues closer than max(DEGENERACY_GAP, 1e2 eps
    / rank_rel) share one).  CG stops at |L K| <= _CG_STOP k |X0| and refuses after 2 n steps or
    on a non-finite residual.  Both eigen-solves read exactly Hermitian matrices, each X + X^dag
    halved, so they go straight to eigh.
    """
    k, d = ops.shape[:2]
    refuse_past_budget((count, k, d, d), f"a commutant product stack of {count} x {k} operators at dim {d}")
    Z = np.tensordot(rng.standard_normal(k) + 1j * rng.standard_normal(k), ops, axes=1)
    w, V = np.linalg.eigh((Z + Z.conj().T) / 2)
    mask = np.zeros((d, d), dtype=bool)
    for c in cluster_indices(w, max(DEGENERACY_GAP, 1e2 * np.finfo(float).eps / tol.rank_rel)):
        mask[c[0]:c[-1] + 1, c[0]:c[-1] + 1] = True
    G = V.conj().T @ ops @ V
    Gh = G.conj().transpose(0, 2, 1)

    def L(X):  # as nested commutators a gap g costs eps / g; P X + X P - 2 g X g costs eps / g^2
        C = G @ X[:, None] - X[:, None] @ G
        return mask * (Gh @ C - C @ Gh).sum(axis=1)

    Z = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    K = mask * (Z + Z.conj().transpose(0, 2, 1)) / 2
    stop = _CG_STOP * k * np.linalg.norm(K)
    p = r = -L(K)
    rr = np.vdot(r, r).real
    for _ in range(2 * int(mask.sum())):  # one CG on the stack: it has L's spectrum, so no more steps
        if not np.sqrt(rr) > stop:  # converged, or non-finite and refused below
            break
        Lp = L(p)
        alpha = rr / np.vdot(p, Lp).real
        K, r, rr_prev = K + alpha * p, r - alpha * Lp, rr
        rr = np.vdot(r, r).real
        p = r + rr / rr_prev * p
    if not np.sqrt(rr) <= stop:
        raise ToleranceError(f"commutant solve stalled at residual {np.sqrt(rr):.3e} after {2 * mask.sum()} steps")
    K = (K + K.conj().transpose(0, 2, 1)) / 2  # CG amplifies roundoff along small eigenvalues of L
    return V, K / np.linalg.norm(K, axis=(1, 2))[:, None, None]


def _linked_copies(V: np.ndarray, K1: np.ndarray, K2: np.ndarray, tol: Tolerance):
    """(shape, T) from K1's eigenspaces, linked into blocks by K2 and glued by each link's unitary polar
    part U Vh (K1, K2 in the basis V), so T is unitary; None, a failed draw, when a linked copy's dimension
    or its link's ``_svd_cut`` rank is not d.  Larger blocks come first, then larger d, then the central
    projector's rounded diagonal."""
    w, E = np.linalg.eigh(K1)
    copies = cluster_indices(w, DEGENERACY_GAP)
    B = E.conj().T @ K2 @ E
    starts = [c[0] for c in copies]
    linked = np.add.reduceat(np.add.reduceat(np.abs(B) ** 2, starts, axis=0), starts, axis=1) > tol.resid_abs ** 2
    found, left = [], list(range(len(copies)))
    while left:
        a = copies[left[0]]
        block = [b for b in left if b == left[0] or linked[b, left[0]]]
        left = [b for b in left if b not in block]
        links = [_svd_cut(B[np.ix_(copies[b], a)], tol) for b in block[1:]]
        n, d = len(block), len(a)
        if any((len(U), rank) != (d, d) for U, _, rank in links):
            return None
        cols = V @ np.hstack([E[:, a], *(E[:, copies[b]] @ (U @ Vh) for b, (U, Vh, _) in zip(block[1:], links))])
        found.append(((-n * d, -d, tuple(np.round(np.sum(np.abs(cols) ** 2, axis=1), 9))), (n, d), cols))
    _, shape, columns = zip(*sorted(found, key=lambda b: b[0]))
    return list(shape), np.hstack(columns)


def _decompose(ops: np.ndarray, tol: Tolerance, seed: int) -> OperatorAlgebra:
    """Block form of the *-algebra that ops generate, from three generic Hermitian
    elements K1, K2, K3 of their commutant (Murota, Kanno, Kojima & Kojima 2010):
    1) each eigenspace of K1 is one copy of C^{d_J}, so its multiplicity is d_J;
    2) K2 links the n_J copies of a block (E_b^dag K2 E_a != 0 exactly within it),
       and its polar part glues copy b onto copy a;
    3) K3 must lie in the claimed commutant (left slot form): a draw that merged or
       split blocks fails there and is drawn again, up to _MAX_PROBE_RETRIES times.
    T is unitary by construction; the ops must then be in right slot form within resid_abs.
    """
    rng, best = np.random.default_rng(seed), np.inf
    for _ in range(_MAX_PROBE_RETRIES):
        V, (K1, K2, K3) = _generic_commutant(ops, rng, tol, 3)
        if found := _linked_copies(V, K1, K2, tol):
            k3 = _block_form_residual([V @ K3 @ V.conj().T], found[1], found[0], side="left")
            if k3 <= tol.resid_abs:
                shape, T = found
                break
            best = min(best, k3)
    else:
        bound = ("no draw linked its copies" if best == np.inf else
                 f"smallest K3 slot-form residual {best:.3e}, over resid_abs {tol.resid_abs:.3e}")
        raise DegeneracyError(f"no generic commutant element in {_MAX_PROBE_RETRIES} draws: {bound}")
    residual = _block_form_residual(ops, T, shape, side="right")
    if residual > tol.resid_abs:
        raise ToleranceError(f"block-form residual {residual:.3e} exceeds {tol.resid_abs:.3e}")
    return OperatorAlgebra(shape, T, residual, tol, ops)


def _units(T: np.ndarray, shape: list[tuple[int, int]]) -> np.ndarray:
    """HS-orthonormal matrix units T_J (1_n (x) E_ij) T_J^dag / sqrt(n) of the algebra in block
    form (T, shape), written into the one stack refuse_past_budget has just predicted."""
    d, off, at = T.shape[0], 0, 0
    count = sum(dd * dd for _, dd in shape)
    refuse_past_budget((count, d, d), f"a basis of {count} elements at dim {d}")
    out = np.empty((count, d, d), dtype=complex)
    for n, dd in shape:
        A = T[:, off:off + n * dd].reshape(d, n, dd).transpose(2, 0, 1)  # per unit index
        units = out[at:at + dd * dd].reshape(dd, dd, d, d)
        np.matmul(A[:, None], A.conj().transpose(0, 2, 1)[None], out=units)
        units /= np.sqrt(n)
        off, at = off + n * dd, at + dd * dd
    return out


def structure_decompose(alg: OperatorAlgebra, *, seed: int = 0) -> OperatorAlgebra:
    """alg's block form: alg itself at seed 0, else ``_decompose`` on its generators at alg.tol."""
    return alg if seed == 0 else _decompose(alg.generators, alg.tol, seed)


def commutant(alg: OperatorAlgebra) -> OperatorAlgebra:
    """All operators commuting with alg: its block form with each block's slots swapped,
    (+)_J M_{n_J} (x) 1_{d_J} read as 1_{d_J} (x) M_{n_J} on T's columns in (d, n) order."""
    at = np.cumsum([0] + [n * d for n, d in alg.block_shape])
    order = np.concatenate([off + np.arange(n * d).reshape(n, d).T.reshape(-1)
                            for off, (n, d) in zip(at, alg.block_shape)])
    return OperatorAlgebra([(d, n) for n, d in alg.block_shape], alg.basis_change[:, order], alg.residual, alg.tol)


def center(alg: OperatorAlgebra) -> OperatorAlgebra:
    """Intersection of alg with its commutant: T read with block J as n_J d_J copies of C^1,
    whose unit is T_J T_J^dag / sqrt(n_J d_J)."""
    return OperatorAlgebra([(n * d, 1) for n, d in alg.block_shape], alg.basis_change, alg.residual, alg.tol)


class FactorCheck(NamedTuple):
    is_factor: bool
    center_dim: int


def is_factor(alg: OperatorAlgebra) -> FactorCheck:
    """True iff the center is trivial (scalar multiples of the identity): one block."""
    return FactorCheck(len(alg.block_shape) == 1, len(alg.block_shape))


def join(a1: OperatorAlgebra, a2: OperatorAlgebra) -> OperatorAlgebra:
    """Smallest *-algebra containing both operands: the closure of their generators at a1.tol."""
    return close_algebra([*a1.generators, *a2.generators], a1.tol, dim=a1.dim)


def _embed(m: np.ndarray, n: int) -> np.ndarray:
    """1_n (x) m for each matrix of the (k, d, d) stack m: a (k, n d, n d) stack."""
    return np.einsum("kl,aij->akilj", np.eye(n), m).reshape(len(m), n * m.shape[1], -1)


def _slot_defect(ops, T: np.ndarray, shape: list[tuple[int, int]], side: str) -> np.ndarray:
    """T^dag ops T less its HS projection onto slot form: the conditional expectation, block
    by block (Barnum, Knill, Ortiz & Viola, PRA 68, 032308).  The off-block entries stay, and
    each block loses its 1_n (x) m part, m = tr_n(block) / n (side "right", the algebra), or
    its m (x) 1_d part, the right part with the slots swapped (side "left", the commutant)."""
    B, off = T.conj().T @ np.asarray(ops) @ T, 0
    for n, dd in shape:
        sub = B[:, off:off + n * dd, off:off + n * dd].reshape(-1, n, dd, n, dd)  # a view, written in place
        off += n * dd
        if side == "left":
            sub, n = sub.transpose(0, 2, 1, 4, 3), dd
        sub -= _embed(np.einsum("akikj->aij", sub) / n, n).reshape(sub.shape)
    return B


def _block_form_residual(ops, T: np.ndarray, shape: list[tuple[int, int]], side: str) -> float:
    """Largest entry of ``_slot_defect``: the deviation of T^dag ops T from slot form."""
    return float(np.max(np.abs(_slot_defect(ops, T, shape, side)), initial=0.0))


@dataclass(eq=False)
class BipartitionCertificate:
    """Outcome of the virtual-bipartition test for a pair of algebras."""

    commuting: bool
    join_is_full: bool
    a1_is_factor: bool
    verdict: bool
    witness: np.ndarray | None = field(default=None, repr=False)
    residuals: dict[str, float] = field(default_factory=dict, repr=False)


def check_bipartition(a1: OperatorAlgebra, a2: OperatorAlgebra, *, seed: int = 0) -> BipartitionCertificate:
    """Certify that (a1, a2) describe a genuine bipartition, every decision at a1.tol.

    Tests commutation of the generators, fullness of the join, and triviality
    of the center of a1.  The join is full iff a1' & a2' is the scalars: iff a
    generic element of the commutant of both generator sets, drawn from a
    child stream of seed, is a scalar within resid_abs.  On a positive verdict
    a1's own block form checks a1's and a2's generators against the right and
    the left slot form (each an algebra); no basis is built.  On a negative
    verdict the witness is a violating commutator or the traceless part of the
    center's diagonal generator, of HS norm 1.  The residuals are the largest
    commutator entry and, on a positive verdict, the larger slot-form residual.

    Only a1's block form is read: a2 enters through its generators alone, so
    ``tpskit bipartition`` solves a1's form and hands a2's HS-orthonormal
    closure seed, never decomposed, to the same certificate.
    """
    return _certify(a1, a2.generators, seed)


def _certify(a1: OperatorAlgebra, gens2: np.ndarray, seed: int) -> BipartitionCertificate:
    """``check_bipartition`` of a1 and the algebra that the (k, d, d) stack gens2 generates."""
    if a1.dim != gens2.shape[-1]:
        raise DimensionMismatchError("algebras act on different spaces")
    d, tol = a1.dim, a1.tol

    witness, comm_resid = max(((C, float(np.max(np.abs(C)))) for b1 in a1.generators
                               for C in b1 @ gens2 - gens2 @ b1), key=lambda pair: pair[1])
    commuting = comm_resid <= tol.resid_abs
    witness = None if commuting else witness

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_JOIN_STREAM,)))
    _, (K,) = _generic_commutant(np.concatenate([a1.generators, gens2]), rng, tol, 1)
    join_is_full = bool(np.max(np.abs(K - np.trace(K) / d * np.eye(d))) <= tol.resid_abs)

    a1_is_factor = is_factor(a1).is_factor
    if not a1_is_factor and witness is None:
        # fixed by the central projectors and the block order, not by a basis
        z = center(a1).generators[0]
        witness = z - np.trace(z) / d * np.eye(d)
        witness /= np.linalg.norm(witness)

    verdict = commuting and join_is_full and a1_is_factor
    residuals = {"commutator": comm_resid}
    if verdict:
        a2_resid = _block_form_residual(gens2, a1.basis_change, a1.block_shape, side="left")
        residuals["block_form"] = max(a1.residual, a2_resid)
        if residuals["block_form"] > tol.resid_abs:
            raise ToleranceError("slot-form verification failed on a positive verdict")
    return BipartitionCertificate(commuting, join_is_full, a1_is_factor, verdict, witness, residuals)
