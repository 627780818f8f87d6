"""Seeded job lists for the three benchmark workloads, and their oracles.

Every job is one tpskit CLI command over spec files that this module
writes.  The expected answer of each job is known from how its input was
built (block shapes of a conjugated direct sum, bipartition flags of a
constructed pair, Haar-moment closed forms, ...), so the oracle never asks
the program under test for a reference value.

A run draws several input sets from one seed: a warm-up set and one set
per timed cycle.  Every set has the same job slots (ids, kinds, shapes and
flags) with fresh random matrices, so no input is run twice in a run.  The
same (workload, seed, set) gives byte-identical spec files and the same job
list in the same order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("algebra", "structures", "cli")

# Reports are checked against this residual bound: the CLI default
# Tolerance.resid_abs, which every job runs with.
RESID = 1e-8
# Monte Carlo means may sit this many standard errors from the exact value.
MC_SIGMAS = 5.0
# Closed-form entropies (bosonic, entangle) must match this closely.
EXACT_ATOL = 1e-9


@dataclass
class Job:
    id: str
    kind: str
    argv: list
    expect: dict
    code: int = 0          # expected exit code; 2 for inputs the CLI must reject
    spec: str | None = None  # input spec file
    input: str = ""        # digest of the job's input, to count inputs shared by jobs
    warm: bool = False     # one cheap job per kind, run untimed before measuring
    out: str | None = None  # --out path, None when the report goes to stdout

    def to_json(self) -> dict:
        return {"id": self.id, "argv": self.argv, "out": self.out, "warm": self.warm}


# ---------------------------------------------------------------- helpers

def _haar(rng, d: int) -> np.ndarray:
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(Z)
    ph = np.diag(R) / np.abs(np.diag(R))
    return Q * ph


def _ginibre(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _mat(M) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]


def _vec(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


class _Builder:
    """Accumulates spec files (written to disk) and jobs for one input set.

    Spec and --out paths are relative to root, under the set's own subdir.
    """

    def __init__(self, root: str, subdir: str, rng, in_process: bool):
        self.root = root
        self.subdir = subdir
        self.rng = rng
        self.in_process = in_process
        self.jobs: list[Job] = []
        self._specs = 0
        self._digests: dict = {}
        os.makedirs(os.path.join(root, subdir, "in"), exist_ok=True)
        os.makedirs(os.path.join(root, subdir, "out"), exist_ok=True)

    def spec(self, dim: int, operators: dict, states: dict | None = None,
             a1: list | None = None, a2: list | None = None) -> str:
        name = f"{self.subdir}/in/spec{self._specs:03d}.json"
        self._specs += 1
        data = {"dim": dim,
                "operators": [{"name": k, "matrix": _mat(v)} for k, v in operators.items()]}
        if states:
            data["states"] = [{"name": k, "vector": _vec(v)} for k, v in states.items()]
        if a1 is not None:
            data["a1_generators"] = a1
            data["a2_generators"] = a2
        text = json.dumps(data, separators=(",", ":"))
        with open(os.path.join(self.root, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        self._digests[name] = hashlib.sha256(text.encode()).hexdigest()
        return name

    def job(self, kind: str, label: str, argv: list, expect: dict, code: int = 0,
            spec: str | None = None) -> Job:
        jid = f"{len(self.jobs):02d}-{kind}-{label}"
        # the spec file's content, or the argv for inputs given on the command line
        digest = self._digests[spec] if spec else json.dumps(argv)
        out = None
        if self.in_process:
            out = f"{self.subdir}/out/{jid}.json"
            argv = argv + ["--out", out]
        warm = not any(j.kind == kind for j in self.jobs)
        j = Job(id=jid, kind=kind, argv=argv, expect=expect, code=code, spec=spec,
                input=digest, warm=warm, out=out)
        self.jobs.append(j)
        return j


# ---------------------------------------------------------------- algebra inputs

def _direct_sum_generators(rng, blocks, V):
    """Two generic elements of V ((+)_J 1_n (x) M_d) V^dag.

    The first is normal, with its eigenvalues spread evenly (up to jitter)
    over the unit circle, so every block is well separated from the others;
    the second is Ginibre on each block, with unit-modulus scalars.  With
    Gaussian generators instead, decompose of non-factor algebras fails on
    some seeds (README, known defects).
    """
    dim = sum(n * d for n, d in blocks)
    total = sum(d for _, d in blocks)
    angles = 2 * np.pi * (rng.permutation(total) + rng.uniform(-0.25, 0.25, total)) / total
    g1 = np.zeros((dim, dim), dtype=complex)
    g2 = np.zeros((dim, dim), dtype=complex)
    off = ev = 0
    for n, d in blocks:
        W = _haar(rng, d)
        m1 = (W * np.exp(1j * angles[ev:ev + d])) @ W.conj().T
        m2 = _ginibre(rng, d) if d > 1 else np.exp(2j * np.pi * rng.uniform(size=(1, 1)))
        g1[off:off + n * d, off:off + n * d] = np.kron(np.eye(n), m1)
        g2[off:off + n * d, off:off + n * d] = np.kron(np.eye(n), m2)
        off += n * d
        ev += d
    return [V @ g1 @ V.conj().T, V @ g2 @ V.conj().T]


def _decompose_job(b: _Builder, blocks, label: str):
    dim = sum(n * d for n, d in blocks)
    V = _haar(b.rng, dim)
    gens = _direct_sum_generators(b.rng, blocks, V)
    spec = b.spec(dim, {f"g{i}": g for i, g in enumerate(gens)})
    expect = {"blocks": sorted([n, d] for n, d in blocks),
              "dim_algebra": sum(d * d for _, d in blocks),
              "dim_commutant": sum(n * n for n, _ in blocks)}
    b.job("decompose", label, ["decompose", spec], expect, spec=spec)


def _bipartition_job(b: _Builder, p: int, q: int, case: str):
    """a1/a2 generator pairs in V (C^p (x) C^q) V^dag with known flags.

    positive   : a1 = M_p (x) 1, a2 = 1 (x) M_q
    noncommute : a2 also holds a generic full matrix
    joinpart   : a2 = 1 (x) diagonal, so the join is M_p (x) D_q
    nonfactor  : a1 = M_p (x) D_q, a2 = 1 (x) D_q
    nonfactor-noncommute : a1 = M_p (x) D_q, a2 generic
    """
    rng = b.rng
    d = p * q
    V = _haar(rng, d)
    Ip, Iq = np.eye(p), np.eye(q)

    def emb(A, B):
        return V @ np.kron(A, B) @ V.conj().T

    def diag():
        return np.diag(rng.standard_normal(q)).astype(complex)

    full_a1 = [emb(_ginibre(rng, p), Iq) for _ in range(2)]
    if case == "positive":
        a1, a2 = full_a1, [emb(Ip, _ginibre(rng, q)) for _ in range(2)]
        flags = (True, True, True)
    elif case == "noncommute":
        a1 = full_a1
        a2 = [emb(Ip, _ginibre(rng, q)), V @ _ginibre(rng, d) @ V.conj().T]
        flags = (False, True, True)
    elif case == "joinpart":
        a1, a2 = full_a1, [emb(Ip, diag())]
        flags = (True, False, True)
    elif case == "nonfactor":
        a1 = [emb(_ginibre(rng, p), Iq), emb(Ip, diag())]
        a2 = [emb(Ip, diag())]
        flags = (True, False, False)
    elif case == "nonfactor-noncommute":
        a1 = [emb(_ginibre(rng, p), Iq), emb(Ip, diag())]
        a2 = [V @ _ginibre(rng, d) @ V.conj().T]
        flags = (False, True, False)
    else:
        raise ValueError(case)
    ops = {f"a{i}": g for i, g in enumerate(a1)}
    ops.update({f"b{i}": g for i, g in enumerate(a2)})
    spec = b.spec(d, ops, a1=[f"a{i}" for i in range(len(a1))],
                  a2=[f"b{i}" for i in range(len(a2))])
    commuting, join_full, factor = flags
    expect = {"commuting": commuting, "join_is_full": join_full, "a1_is_factor": factor,
              "verdict": commuting and join_full and factor, "dim": d}
    b.job("bipartition", f"{case}-{p}x{q}", ["bipartition", spec], expect, spec=spec)


def _algebra(b: _Builder):
    factors = [(1, 2), (1, 3), (2, 2), (1, 4), (1, 5), (2, 3), (3, 2), (4, 2), (2, 4), (3, 3),
               (1, 7)]
    for n, d in factors:
        _decompose_job(b, [(n, d)], f"1x{n}-M{d}")
    for dim in (3, 4, 6, 8, 10):
        _decompose_job(b, [(1, 1)] * dim, f"abelian{dim}")
    mixed = [[(1, 2), (1, 1)], [(1, 2), (2, 1)], [(2, 2), (1, 1)], [(1, 2), (1, 2), (2, 1)],
             [(1, 3), (2, 2), (1, 1)], [(2, 2), (1, 3), (1, 1), (3, 1)]]
    for blocks in mixed:
        _decompose_job(b, blocks, "sum" + "".join(f"{n}{d}" for n, d in blocks))
    for p, q in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4)]:
        _bipartition_job(b, p, q, "positive")
    for p, q, case in [(2, 2, "noncommute"), (2, 3, "noncommute"), (2, 3, "joinpart"),
                       (3, 3, "joinpart"), (2, 2, "nonfactor"), (3, 2, "nonfactor"),
                       (2, 3, "nonfactor-noncommute")]:
        _bipartition_job(b, p, q, case)


# ---------------------------------------------------------------- structures inputs

def linear_entangling_power(U, dA: int, dB: int) -> float:
    """Exact Haar average of the linear entropy U creates across A|B.

    With E[|a><a|^(x)2] = (1 + S_A)/(dA(dA+1)) on each side (Zanardi, Zalka
    and Faoro, PRA 62, 030301), the mean purity is
    Tr[U^(x)2 (1+S_A)(1+S_B) U^dag(x)2 S_A] / (dA(dA+1) dB(dB+1)).
    """
    T = np.asarray(U, dtype=complex).reshape(dA, dB, dA, dB)
    Tc = T.conj()
    t_a = np.einsum("abxy,cdzw,cbzy,adxw->", T, T, Tc, Tc, optimize=True)
    t_b = np.einsum("abxy,cdzw,cbxw,adzy->", T, T, Tc, Tc, optimize=True)
    purity = (dA * dB * dB + dA * dA * dB + t_a.real + t_b.real) / (dA * (dA + 1) * dB * (dB + 1))
    return float(1.0 - purity)


def _distance_jobs(b: _Builder, dA: int, dB: int, measures):
    U = _haar(b.rng, dA * dB)
    spec = b.spec(dA * dB, {"u": U})
    exact = linear_entangling_power(U, dA, dB)
    for m in measures:
        seed = int(b.rng.integers(0, 2 ** 31))
        argv = ["tps", "distance", spec, "--unitary", "u", "--dims", f"{dA},{dB}",
                "--measure", m, "--seed", str(seed)]
        b.job("distance", f"{m}-{dA}x{dB}", argv,
              {"dims": [dA, dB], "measure": m, "seed": seed, "linear_exact": exact,
               "samples": 20000}, spec=spec)


def _bipartite_state(rng, dims, cut, schmidt):
    """Tensor-coordinate vector with the given Schmidt probabilities across cut."""
    left = [i - 1 for i in cut]
    right = [i for i in range(len(dims)) if i + 1 not in cut]
    dL = int(np.prod([dims[i] for i in left]))
    dR = int(np.prod([dims[i] for i in right]))
    r = len(schmidt)
    A = _haar(rng, dL)[:, :r]
    B = _haar(rng, dR)[:, :r]
    psi = (A * np.sqrt(schmidt)) @ B.T
    t = psi.reshape([dims[i] for i in left] + [dims[i] for i in right])
    return np.transpose(t, np.argsort(left + right)).reshape(-1)


def _entropy(p, kind: str) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-16]
    if kind == "vn":
        return float(-(p * np.log2(p)).sum())
    return float(1.0 - (p * p).sum())


def _entangle_job(b: _Builder, dims, cut, kind: str):
    rng = b.rng
    d = int(np.prod(dims))
    dL = int(np.prod([dims[i - 1] for i in cut]))
    r = min(dL, d // dL)
    w = rng.uniform(0.2, 1.0, r)
    schmidt = w / w.sum()
    iso = _haar(rng, d)
    state = iso @ _bipartite_state(rng, dims, cut, schmidt)
    spec = b.spec(d, {"iso": iso}, states={"psi": state})
    argv = ["tps", "entangle", spec, "--state", "psi", "--dims", ",".join(map(str, dims)),
            "--iso", "iso", "--measure", kind, "--cut", ",".join(map(str, cut))]
    b.job("entangle", f"{kind}-{'x'.join(map(str, dims))}", argv,
          {"value": _entropy(schmidt, kind)}, spec=spec)


def _pauli_product(a: str, b: str) -> str:
    """Pauli string of the product a.b, phase dropped."""
    table = {("I", c): c for c in "IXYZ"}
    table.update({(c, "I"): c for c in "XYZ"})
    table.update({(c, c): "I" for c in "XYZ"})
    table.update({("X", "Y"): "Z", ("Y", "X"): "Z", ("Y", "Z"): "X", ("Z", "Y"): "X",
                  ("Z", "X"): "Y", ("X", "Z"): "Y"})
    return "".join(table[(x, y)] for x, y in zip(a, b))


def _gf2_rank(rows) -> int:
    m = np.array(rows, dtype=np.uint8) % 2
    rank = 0
    for col in range(m.shape[1]):
        pivot = next((r for r in range(rank, m.shape[0]) if m[r, col]), None)
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(m.shape[0]):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        rank += 1
    return rank


def _commuting_paulis(rng, n: int, k: int) -> list:
    """k independent commuting Pauli strings: GF(2)-independent Z-type rows,
    relabelled qubit by qubit with a random letter."""
    while True:
        rows = rng.integers(0, 2, (k, n))
        if _gf2_rank(rows) == k:
            break
    letters = [str(rng.choice(list("XYZ"))) for _ in range(n)]
    return ["".join(letters[q] if bit else "I" for q, bit in enumerate(row)) for row in rows]


def _parity_valid(b: _Builder, n: int, k: int):
    toks = _commuting_paulis(b.rng, n, k)
    b.job("parity", f"n{n}k{k}", ["tps", "parity", "--parity", *toks],
          {"n": n, "k": k})


def _parity_invalid(b: _Builder, n: int, case: str):
    rng = b.rng
    if case == "noncommuting":
        toks = _commuting_paulis(rng, n, 2)
        q = next(i for i, c in enumerate(toks[0]) if c != "I")
        other = {"X": "Z", "Y": "X", "Z": "X"}[toks[0][q]]
        bad = "I" * q + other + "I" * (n - q - 1)
        argv = ["tps", "parity", "--parity", *toks, bad]
    elif case == "dependent":
        toks = _commuting_paulis(rng, n, 2)
        argv = ["tps", "parity", "--parity", *toks, _pauli_product(toks[0], toks[1])]
    elif case == "signpair":
        # P and -P: every check in validate_parity_set passes, the sector split fails
        from_tok = _commuting_paulis(rng, n, 1)[0]
        P = _pauli_matrix(from_tok)
        V = _haar(rng, 2 ** n)
        spec = b.spec(2 ** n, {"p": V @ P @ V.conj().T, "m": -(V @ P @ V.conj().T)})
        b.job("parity", f"{case}-n{n}", ["tps", "parity", spec, "--parity", "p", "m"],
              {"reject": True}, code=2, spec=spec)
        return
    elif case == "diagpair":
        # diag(1,1,1,1,-1,-1,-1,-1) and diag(1,1,1,-1,-1,-1,-1,1) on 3 qubits,
        # tensored with identities: sector dims [.., 3, 3] instead of 2^k equal ones
        d = 2 ** n
        D1 = np.kron(np.diag([1, 1, 1, 1, -1, -1, -1, -1]), np.eye(d // 8))
        D2 = np.kron(np.diag([1, 1, 1, -1, -1, -1, -1, 1]), np.eye(d // 8))
        V = _haar(rng, d)
        spec = b.spec(d, {"p": V @ D1 @ V.conj().T, "q": V @ D2 @ V.conj().T})
        b.job("parity", f"{case}-n{n}", ["tps", "parity", spec, "--parity", "p", "q"],
              {"reject": True}, code=2, spec=spec)
        return
    else:
        raise ValueError(case)
    b.job("parity", f"{case}-n{n}", argv, {"reject": True}, code=2)


_PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
          "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}


def _pauli_matrix(s: str) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for c in s:
        out = np.kron(out, _PAULI[c])
    return out


def _parity_entangle_job(b: _Builder, n: int, k: int):
    """A random state inside one syndrome sector: a product across
    (logical, syndrome), so its entanglement is exactly zero."""
    rng = b.rng
    toks = _commuting_paulis(rng, n, k)
    d = 2 ** n
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    for t in toks:
        sign = rng.choice([-1.0, 1.0])
        v = (v + sign * (_pauli_matrix(t) @ v)) / 2
    spec = b.spec(d, {}, states={"psi": v / np.linalg.norm(v)})
    b.job("entangle", f"sector-n{n}k{k}",
          ["tps", "entangle", spec, "--state", "psi", "--parity", *toks],
          {"value": 0.0}, spec=spec)


def _permutation_operator(dims1, sigma) -> np.ndarray:
    """P with P[y, x] = 1 where y[sigma[j]] = x[j]: dims2-ordered to dims1-ordered."""
    dims2 = [dims1[s] for s in sigma]
    d = int(np.prod(dims1))
    P = np.zeros((d, d))
    for x in np.ndindex(*dims2):
        y = [0] * len(dims1)
        for j, s in enumerate(sigma):
            y[s] = x[j]
        P[np.ravel_multi_index(y, dims1), np.ravel_multi_index(x, dims2)] = 1.0
    return P


def _equivalent_job(b: _Builder, dims1, sigma=None, dims2=None):
    """sigma given: t2 = t1 with factors permuted by sigma and local unitaries
    applied (equivalent).  sigma None: t2 = t1 after a generic entangling
    unitary, or with the different dims2 (not equivalent)."""
    rng = b.rng
    d = int(np.prod(dims1))
    iso1 = _haar(rng, d)
    if sigma is not None:
        L = np.array([[1.0 + 0j]])
        for n in dims1:
            L = np.kron(L, _haar(rng, n))
        iso2 = iso1 @ L @ _permutation_operator(list(dims1), sigma)
        dims2 = [dims1[s] for s in sigma]
        inv = list(np.argsort(sigma))
        expect = {"equivalent": True, "permutation": [int(i) + 1 for i in inv]}
        label = "perm"
    elif dims2 is None:
        iso2 = iso1 @ _haar(rng, d)
        dims2 = list(dims1)
        expect = {"equivalent": False, "permutation": None}
        label = "entangled"
    else:
        iso2 = _haar(rng, d)
        expect = {"equivalent": False, "permutation": None}
        label = "dims"
    spec = b.spec(d, {"iso1": iso1, "iso2": iso2})
    argv = ["tps", "equivalent", spec, "--dims1", ",".join(map(str, dims1)),
            "--dims2", ",".join(map(str, dims2)), "--iso1", "iso1", "--iso2", "iso2"]
    b.job("equivalent", f"{label}-{'x'.join(map(str, dims1))}", argv, expect, spec=spec)


def _bosonic_job(b: _Builder, N: int, M: int, spec, U, excite: int, cut, kind: str):
    argv = ["tps", "bosonic"] + ([spec, "--unitary", "u"] if spec else []) + [
        "--modes", str(N), "--cutoff", str(M), "--excite", str(excite),
        "--cut", ",".join(map(str, cut)), "--measure", kind]
    Umat = np.eye(N) if U is None else U
    w = float(sum(abs(Umat[j - 1, excite - 1]) ** 2 for j in cut))
    w = min(max(w, 0.0), 1.0)
    b.job("bosonic", f"{'U' if spec else 'id'}-N{N}M{M}-{kind}", argv,
          {"fock_dim": math.comb(N + M, N), "value": _entropy([w, 1.0 - w], kind)},
          spec=spec)


def _holonomy_job(b: _Builder, doublings: int, rect2: bool):
    rng = b.rng
    ax, ay = rng.uniform(-0.4, 0.2, 2)
    bx, by = ax + rng.uniform(0.4, 0.8), ay + rng.uniform(0.4, 0.8)
    rect = [round(float(v), 6) for v in (ax, ay, bx, by)]
    # --flag=value: a leading minus sign would otherwise read as an option
    argv = ["tps", "holonomy", "--rect=" + ",".join(map(repr, rect)),
            "--doublings", str(doublings)]
    if rect2:
        cx, cy = ax - rng.uniform(0.3, 0.6), ay + rng.uniform(0.3, 0.6)
        argv.append("--rect2=" + ",".join(map(repr, [rect[0], rect[1], round(float(cx), 6),
                                                     round(float(cy), 6)])))
    b.job("holonomy", f"d{doublings}{'-rect2' if rect2 else ''}", argv,
          {"doublings": doublings, "refinement": 16, "rect2": rect2})


def _structures(b: _Builder):
    rng = b.rng
    _distance_jobs(b, 2, 2, ["vn", "linear"])
    _distance_jobs(b, 2, 4, ["vn"])
    _distance_jobs(b, 3, 3, ["vn", "linear"])
    _distance_jobs(b, 4, 4, ["linear"])
    _distance_jobs(b, 6, 6, ["vn", "linear"])
    _distance_jobs(b, 8, 8, ["vn", "linear"])
    _distance_jobs(b, 8, 8, ["vn", "linear"])
    _entangle_job(b, (2, 3), (1,), "vn")
    _entangle_job(b, (4, 4), (1,), "linear")
    _entangle_job(b, (2, 2, 2), (1, 3), "vn")
    _parity_entangle_job(b, 4, 2)
    _equivalent_job(b, (2, 3), sigma=[1, 0])
    _equivalent_job(b, (2, 2, 2), sigma=[2, 0, 1])
    _equivalent_job(b, (2, 3, 4), sigma=[1, 2, 0])
    _equivalent_job(b, (4, 4))
    _equivalent_job(b, (2, 6), dims2=(3, 4))
    for n, k in [(6, 2), (6, 4), (7, 3), (7, 5), (8, 2), (8, 4), (8, 5), (8, 6)]:
        _parity_valid(b, n, k)
    _parity_invalid(b, 7, "noncommuting")
    _parity_invalid(b, 8, "dependent")
    _parity_invalid(b, 6, "signpair")
    _parity_invalid(b, 6, "diagpair")
    U2 = _haar(rng, 2)
    _bosonic_job(b, 2, 8, b.spec(2, {"u": U2}), U2, 1, (1,), "linear")
    _bosonic_job(b, 4, 4, None, None, 1, (1,), "vn")
    U3 = _haar(rng, 3)
    spec3 = b.spec(3, {"u": U3})
    _bosonic_job(b, 3, 6, spec3, U3, 3, (1,), "vn")
    _bosonic_job(b, 3, 4, spec3, U3, 1, (2,), "vn")
    U4 = _haar(rng, 4)
    spec4 = b.spec(4, {"u": U4})
    _bosonic_job(b, 4, 7, spec4, U4, 2, (1, 2), "vn")
    _bosonic_job(b, 4, 6, spec4, U4, 1, (3,), "linear")
    for doublings in (3, 4, 5, 5):
        _holonomy_job(b, doublings, False)
        _holonomy_job(b, doublings, True)


# ---------------------------------------------------------------- cli inputs

def _cli(b: _Builder):
    """Three fixture-size jobs for each of the nine subcommands."""
    rng = b.rng
    _decompose_job(b, [(2, 2)], "1x2-M2")
    _decompose_job(b, [(1, 2), (1, 1)], "sum1211")
    _decompose_job(b, [(1, 1)] * 4, "abelian4")
    for case in ("positive", "noncommute", "joinpart"):
        _bipartition_job(b, 2, 2, case)
    for i, n in enumerate(rng.choice([12, 24, 36, 48, 60, 72, 96], 3, replace=False)):
        b.job("partitions", f"p{i}", ["tps", "partitions", str(int(n))], {"n": int(n)})
    _distance_jobs(b, 2, 2, ["vn", "linear"])
    _distance_jobs(b, 2, 3, ["vn"])
    _equivalent_job(b, (2, 2), sigma=[1, 0])
    _equivalent_job(b, (2, 3), sigma=[1, 0])
    _equivalent_job(b, (2, 2))
    _entangle_job(b, (2, 2), (1,), "vn")
    _entangle_job(b, (2, 2), (1,), "linear")
    _parity_entangle_job(b, 2, 1)
    _parity_valid(b, 3, 2)
    _parity_valid(b, 4, 2)
    _parity_invalid(b, 3, "dependent")
    U2 = _haar(rng, 2)
    _bosonic_job(b, 2, 3, b.spec(2, {"u": U2}), U2, 1, (1,), "vn")
    U3 = _haar(rng, 3)
    _bosonic_job(b, 3, 2, b.spec(3, {"u": U3}), U3, 2, (1, 3), "linear")
    _bosonic_job(b, 2, 2, None, None, 1, (1,), "vn")
    _holonomy_job(b, 3, False)
    _holonomy_job(b, 3, False)
    _holonomy_job(b, 3, True)


_BUILDERS = {"algebra": _algebra, "structures": _structures, "cli": _cli}


def generate(workload: str, seed: int, root: str, input_set: int = 0, draw: int = 0) -> list:
    """Write one input set's spec files under root/set<input_set> and return
    its job list.

    Every set of a workload has the same job ids, kinds and shapes; the
    matrices, states and Monte Carlo seeds are drawn afresh from
    (seed, workload, input_set), and the job order is shuffled by them.
    draw > 0 draws the set again from (seed, workload, input_set, draw),
    for a set with a job that hit the known decompose defect
    (may_hit_known_defect).
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    index = WORKLOADS.index(workload)
    key = [int(seed), index, int(input_set)] + ([int(draw)] if draw else [])
    rng = np.random.default_rng(key)
    b = _Builder(root, f"set{input_set}", rng, in_process=workload != "cli")
    _BUILDERS[workload](b)
    order = rng.permutation(len(b.jobs))
    return [b.jobs[i] for i in order]


def may_hit_known_defect(job: Job) -> bool:
    """decompose of a non-factor algebra: about 1 in 1000 such inputs fail
    with "center is not *-closed" (README, known defects)."""
    return job.kind == "decompose" and len(job.expect["blocks"]) > 1


def repeated_input_share(jobs) -> float:
    """Share of jobs whose input (spec file content, or the argv of a job
    without one) another of the jobs also reads."""
    counts: dict = {}
    for j in jobs:
        counts[j.input] = counts.get(j.input, 0) + 1
    return sum(1 for j in jobs if counts[j.input] > 1) / len(jobs)


# ---------------------------------------------------------------- oracles

def _cmat(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _unitarity_defect(M) -> float:
    return float(np.max(np.abs(M.conj().T @ M - np.eye(M.shape[0]))))


def _check_residuals(res: dict):
    bad = {k: v for k, v in res.items() if not 0.0 <= v <= RESID}
    return f"residuals above {RESID:g}: {bad}" if bad else None


def _check_decompose(e, r, res):
    blocks = sorted([b["n"], b["d"]] for b in r["blocks"])
    if blocks != e["blocks"]:
        return f"blocks {blocks} != {e['blocks']}"
    if r["center_dim"] != len(blocks) or r["is_factor"] != (len(blocks) == 1):
        return "center_dim/is_factor disagree with the block count"
    for key in ("dim_algebra", "dim_commutant"):
        if r[key] != e[key]:
            return f"{key} {r[key]} != {e[key]}"
    return _check_residuals(res)


def _check_bipartition(e, r, res):
    for key in ("commuting", "join_is_full", "a1_is_factor", "verdict"):
        if r[key] is not e[key]:
            return f"{key} {r[key]} != {e[key]}"
    need_witness = not (e["commuting"] and e["a1_is_factor"])
    if (r["witness"] is not None) != need_witness:
        return f"witness present: {r['witness'] is not None}, expected {need_witness}"
    if need_witness:
        W = _cmat(r["witness"])
        if W.shape != (e["dim"], e["dim"]) or not np.max(np.abs(W)) > RESID:
            return "witness is not a nonzero dim x dim matrix"
    return None


def _check_distance(e, r, res):
    for key in ("dims", "measure", "seed", "samples"):
        if r[key] != e[key]:
            return f"{key} {r[key]} != {e[key]}"
    mean, se = r["mean"], r["stderr"]
    if not se > 0 or abs(r["distance"] - math.sqrt(max(mean, 0.0))) > 1e-12:
        return "stderr not positive or distance != sqrt(mean)"
    exact = e["linear_exact"]
    if e["measure"] == "linear":
        if abs(mean - exact) > MC_SIGMAS * se:
            return f"linear mean {mean} is {abs(mean - exact) / se:.1f} stderr from {exact}"
        return None
    # von Neumann >= Renyi-2 = -log2(1 - S_lin) >= -log2(1 - E S_lin) (Jensen)
    lower = -math.log2(1.0 - exact)
    if not lower - MC_SIGMAS * se <= mean <= math.log2(min(e["dims"])):
        return f"vn mean {mean} outside [{lower}, log2(min dims)]"
    return None


def _check_entangle(e, r, res):
    if abs(r["value"] - e["value"]) > EXACT_ATOL:
        return f"value {r['value']} != {e['value']}"
    return None


def _check_equivalent(e, r, res):
    if r["equivalent"] is not e["equivalent"] or r["permutation"] != e["permutation"]:
        return f"equivalent/permutation {r['equivalent']}/{r['permutation']} != " \
               f"{e['equivalent']}/{e['permutation']}"
    return None


def _check_parity(e, r, res):
    n, k = e["n"], e["k"]
    if (r["n"], r["k"]) != (n, k):
        return f"n, k = {r['n']}, {r['k']}"
    labels = {tuple(s["label"]) for s in r["sectors"]}
    if len(r["sectors"]) != 2 ** k or len(labels) != 2 ** k \
            or any(len(lab) != k or set(lab) - {1, -1} for lab in labels):
        return f"sector labels are not the 2^{k} sign patterns"
    if any(s["dim"] != 2 ** (n - k) for s in r["sectors"]):
        return f"sector dims {[s['dim'] for s in r['sectors']]} != 2^{n - k}"
    if r["tps_dims"] != [2 ** (n - k), 2 ** k]:
        return f"tps_dims {r['tps_dims']}"
    return None


def _check_bosonic(e, r, res):
    if r["fock_dim"] != e["fock_dim"]:
        return f"fock_dim {r['fock_dim']} != {e['fock_dim']}"
    if abs(r["value"] - e["value"]) > EXACT_ATOL:
        return f"value {r['value']} != binary entropy {e['value']}"
    return _check_residuals(res)


def _check_holonomy(e, r, res):
    H = _cmat(r["holonomy"])
    if H.shape != (2, 2) or _unitarity_defect(H) > RESID:
        return "holonomy is not a 2 x 2 unitary"
    refs = [e["refinement"] * 2 ** j for j in range(e["doublings"] + 1)]
    if r["refinements"] != refs:
        return f"refinements {r['refinements']} != {refs}"
    defects = r["ladder_defects"]
    if len(defects) != e["doublings"] or any(not 0 <= x for x in defects) \
            or any(b >= a for a, b in zip(defects, defects[1:])):
        return f"ladder defects {defects} do not shrink under refinement"
    if ("witness" in r) != e["rect2"] or ("witness" in r and not r["witness"] >= 0):
        return "witness missing, unexpected or negative"
    return _check_residuals(res)


def _count_factorizations(n: int, smallest: int = 2) -> int:
    total = 1  # n itself
    f = smallest
    while f * f <= n:
        if n % f == 0:
            total += _count_factorizations(n // f, f)
        f += 1
    return total


def _check_partitions(e, r, res):
    n = e["n"]
    facts = [tuple(f) for f in r["factorizations"]]
    if r["n"] != n or r["count"] != len(facts) or len(set(facts)) != len(facts):
        return "count or uniqueness mismatch"
    if facts != sorted(facts) or any(math.prod(f) != n or list(f) != sorted(f) or min(f) < 2
                                     for f in facts):
        return "a factorization is not an ascending product equal to n"
    if len(facts) != _count_factorizations(n):
        return f"{len(facts)} factorizations, expected {_count_factorizations(n)}"
    return None


_CHECKS = {"decompose": _check_decompose, "bipartition": _check_bipartition,
           "distance": _check_distance, "entangle": _check_entangle,
           "equivalent": _check_equivalent, "parity": _check_parity,
           "bosonic": _check_bosonic, "holonomy": _check_holonomy,
           "partitions": _check_partitions}


def check(job: Job, code, text) -> str | None:
    """None when the job's outcome is right, else the reason it is wrong.

    An input the CLI must reject is right only when it exits 2.
    """
    if code != job.code:
        return f"exit code {code}, expected {job.code}"
    if job.code != 0:
        return None
    try:
        rep = json.loads(text)
        return _CHECKS[job.kind](job.expect, rep["results"], rep["residuals"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def corrupt(job: Job, code, text):
    """A plausible but wrong (code, report) for the job: the oracle must reject it."""
    if job.code != 0:
        return 0, text
    rep = json.loads(text)
    r = rep["results"]
    if job.kind == "decompose":
        r["dim_commutant"] += 1
    elif job.kind == "bipartition":
        r["verdict"] = not r["verdict"]
    elif job.kind == "distance":
        # just outside the band the oracle allows
        exact = job.expect["linear_exact"]
        shift = (MC_SIGMAS + 1) * r["stderr"]
        r["mean"] = exact + shift if r["measure"] == "linear" else -math.log2(1 - exact) - shift
        r["distance"] = math.sqrt(max(r["mean"], 0.0))
    elif job.kind in ("entangle", "bosonic"):
        r["value"] += 1e-6
    elif job.kind == "equivalent":
        r["equivalent"] = not r["equivalent"]
    elif job.kind == "parity":
        r["sectors"][0]["dim"] += 1
    elif job.kind == "holonomy":
        r["holonomy"][0][0][0] += 1e-6
    elif job.kind == "partitions":
        r["factorizations"].pop()
        r["count"] -= 1
    return code, json.dumps(rep)
