"""The double-commutant closure by nullspace cuts, kept as a reference oracle.

A commutant is cut out of the eigenblock units V[:, c] e_a e_b^T V[:, c]^dag
of a random Hermitian element of the ops, which span a superset of it, by
one nullspace SVD of X -> X b - b X per op.  The closure of S is then S''.
It shares no code path with tpskit.algebra's generic-element route: it
forms d^2-sized unit stacks and takes rank cuts, where the route solves for
generic commutant elements and reads the block form off them.
"""

import numpy as np

from tpskit.numerics import (
    DEFAULT_TOL,
    DEGENERACY_GAP,
    cluster_indices,
    hermitian_eig,
    hs_orthonormalize,
    nullspace,
)


def commuting_part(start, ops, tol=DEFAULT_TOL):
    """HS-orthonormal basis of the elements of span(start) commuting with every op."""
    c = np.exp(2j * np.pi * np.random.default_rng(0).random(len(ops))) / np.sqrt(max(len(ops), 1))
    X = start
    for b in [np.tensordot(c, ops, axes=1), *ops]:
        C = X @ b - b @ X
        if np.linalg.norm(C) <= tol.rank_rel:
            continue
        K = nullspace(C.reshape(len(X), -1).T, tol)
        X = np.tensordot(K.T, X, axes=1)
    return X


def reference_commutant(ops, tol=DEFAULT_TOL):
    """HS-orthonormal commutant of a *-closed, HS-orthonormal op stack."""
    ops = np.asarray(ops)
    gap = max(DEGENERACY_GAP, 1e2 * np.finfo(float).eps / tol.rank_rel)
    rng = np.random.default_rng(0)
    k = len(ops)
    Z = np.tensordot(rng.standard_normal(k) + 1j * rng.standard_normal(k), ops, axes=1)
    w, V = hermitian_eig((Z + Z.conj().T) / 2, tol)
    units = [np.einsum("ia,jb->abij", V[:, c], V[:, c].conj()).reshape(-1, *ops.shape[1:])
             for c in cluster_indices(w, gap)]
    return commuting_part(np.concatenate(units), ops, tol)


def reference_closure(generators, dim, tol=DEFAULT_TOL):
    """(basis of S'', basis of S') for S the identity, the generators and their adjoints."""
    seed = [np.eye(dim, dtype=complex)]
    for g in generators:
        g = np.asarray(g, dtype=complex)
        seed += [g, g.conj().T]
    comm = reference_commutant(hs_orthonormalize(seed, tol), tol)
    return reference_commutant(comm, tol), comm
