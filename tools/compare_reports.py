"""Compare what two tpskit source trees answer on every benchmark job.

    python tools/compare_reports.py PARENT_SRC CHANGE_SRC [--seeds 7919 11] [--sets 0 1 2]

PARENT_SRC and CHANGE_SRC are directories holding a ``tpskit`` package
(a checkout's ``src``).  Every job of the three benchmark workloads is
built once, for each seed and input set, by perfbench.workloads.generate
in a temporary directory; every decompose job gets a twin with
``--emit-basis`` appended, so the basis change T is compared as well, and
every holonomy job one with ``--eigenspace 2``, since the jobs transport
eigenspace 1 only.  A ``fixtures`` group adds the ``tests/data`` spec
files: each through ``decompose --emit-basis``, each that names a1/a2
generators through ``bipartition``, and ``tps equivalent``, ``tps parity``
and ``tps bosonic`` each with and without a spec file; one ``decompose`` and
three ``bipartition`` jobs, one per ``bip_*.json``, at ``--seed 5``; four
sizes past the byte budget, whose refusal messages are compared; ``tps
holonomy --doublings 10``, with and without ``--rect2``, a longer ladder
than any benchmark job's, and
``--doublings 12``, the longest the byte budget admits; ``tps holonomy``
at ``--tol-resid`` 1e-14, 1e-15, 1e-16 and 1e-300, under the rounding of its
holonomy, frames and eigenbases, which answer as at the default
(TIGHT_HOLONOMY); ``tps bosonic`` in the identity frame at ``--tol-resid``
1e-15, 1e-16 and 1e-300, under the CCR bound's rounding of the ladder tables,
which answer as at the default (TIGHT_BOSONIC); ``tps parity`` and ``tps entangle --parity`` of two
parities on two qubits, refused for leaving no logical factor;
``tps parity`` of six all-Pauli sets, five refused with messages no
benchmark job reaches and one valid on 9 qubits; ``tps entangle --parity``
of ``bell_xx.json``'s ``pauli`` entry, also at ``--tol-resid 1e-300``, under
the rounding of the sector basis, and of a 10-qubit bare token, refused
against the spec's dim (PARITY_ENTANGLE); ``tps parity`` over the ``pauli``
entries of a 3-qubit spec file written in code (a valid, a non-commuting
and a dependent set, and a set mixing an entry with a bare token), which
take the bit route as bare tokens do; and, built in code, collective spin
on 3 to 5 qubits and its adjacent-swap dual, and two
algebras whose basis is past the byte budget but whose block form is not
(collective spin on 8 qubits and M_64 from clock and shift), through
``decompose --emit-basis``; ``tps distance`` on the routes no benchmark job
takes (``distance_jobs``): a Haar unitary at ``--dims 3,4`` and ``4,3``,
vn and linear, whose 3 x 3 reduced densities sit on the cut side and on
the complement, and vn of a 3 x 3 local unitary, exactly 0; ``tps bosonic``
past every benchmark job's four modes, where the Fock-space build changes
most (``bosonic_reach_jobs``): the identity frame at ``--modes 64 --cutoff 2``
and ``--modes 200 --cutoff 1``, a Haar frame from a spec file written in
code at ``--modes 24 --cutoff 3 --excite 2 --cut 1,2``, and the 200 modes cut
in half (``--cut 1,...,100``), the one job that cuts more than two modes; and six
``tps`` jobs whose operators sit between the default ``--tol-resid`` and a tight one, each run at both, so
a tolerance that stops reaching its check changes a verdict or an exit code
(every benchmark job runs at the default tolerance).
Each tree then runs all the jobs in process, through tpskit.cli.main, in
its own interpreter with single-threaded BLAS.  Exit code, report and
stderr are compared, with the wall-time line masked.  Prints
identical/different counts per workload and the first differing jobs,
each with the JSON key paths at which its reports differ
(``residuals.product``; a list differs as a whole), and tallies those paths
per workload.  Where both sides hold numbers, or equal-shape numeric lists
(complex entries as [re, im] pairs), a path also shows the largest absolute
change of any one number, for the job and over the workload
(``results.holonomy: 96 jobs, largest change 2.4e-13``).  Exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import traceback
from collections import Counter

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(REPO, "tests", "data")
WALL_TIME = re.compile(r"wall-time \d+\.\d+ s")
SHOW = 10  # differing jobs listed per workload
MISSING = "<missing>"  # stands for a key only one report has
TWIN_FLAGS = {"decompose": ["--emit-basis"], "holonomy": ["--eigenspace", "2"]}  # appended to a twin job
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# a seed other than 0: decompose closes its algebra at S; bipartition solves a1 at S, and a
# verdict of each kind (positive, non-commuting, a1 not a factor) reads it
SEEDED = [
    ["decompose", "--emit-basis", "--seed", "5", os.path.join(DATA, "slot_xz.json")],
    *(["bipartition", "--seed", "5", os.path.join(DATA, name)]
      for name in ("bip_slots.json", "bip_overlap.json", "bip_abelian.json")),
]
# sizes past the byte budget, each refused before it is built and at once
REFUSALS = [
    ["tps", "holonomy", "--doublings", "40"],
    ["tps", "distance", os.path.join(DATA, "cnot.json"), "--unitary", "cnot", "--dims", "2,2",
     "--samples", "100000000"],
    ["tps", "equivalent", "--dims1", "4096,4096", "--dims2", "4096,4096"],
    ["tps", "parity", "--parity", "Z" * 20],
]
# long ladders: every benchmark holonomy job stops at 5 doublings, so a rounding change that
# shows only on long loops shows here, at 65,537 points, with and without the witness, and at
# 262,145 points, the longest ladder whose frames the byte budget admits
LONG_LADDERS = [
    ["tps", "holonomy", "--doublings", "10"],
    ["tps", "holonomy", "--doublings", "10", "--rect2", "0,0,-0.7,0.5"],
    ["tps", "holonomy", "--doublings", "12"],
]
# the built-in family at a resid_abs under the rounding of its holonomy (6.2e-14), its frames
# (1.1e-15) and its eigenbases (4.4e-16), none of which is judged at it
TIGHT_HOLONOMY = [["tps", "holonomy", "--tol-resid", tol] for tol in ("1e-14", "1e-15", "1e-16", "1e-300")]
# the identity frame at a resid_abs under its CCR bound (1.8e-15), the ladder tables' own
# rounding, which is reported and not judged
TIGHT_BOSONIC = [["tps", "bosonic", "--modes", "2", "--cutoff", "3", "--tol-resid", tol]
                 for tol in ("1e-15", "1e-16", "1e-300")]
# parity sets with no logical factor, refused where the sector structure is built
NO_LOGICAL_FACTOR = [
    ["tps", "parity", "--parity", "XX", "ZZ"],
    ["tps", "entangle", os.path.join(DATA, "bell_xx.json"), "--state", "bell_plus", "--parity", "XX", "ZZ"],
]
# all-Pauli parity sets, judged from their bits: one for each verdict that no benchmark
# job reaches (an all-I string, strings of two lengths, a dependent set with a sign, a
# repeated string, a letter outside IXYZ) and a valid set on 9 qubits
PAULI_PARITY = [["tps", "parity", "--parity", *tokens] for tokens in (
    ["IIII", "ZZII"], ["ZZ", "ZZZ"], ["XX", "YY", "ZZ"], ["ZZI", "ZZI"], ["ZA"],
    ["ZZIIIIIII", "IIXXIIIII", "YYYYIIIII"])]
# tps entangle --parity of bell_xx.json at a resid_abs under the rounding of the sector basis,
# which its XX entry meets exactly, and of a bare token refused against the spec's dim of 4
PARITY_ENTANGLE = [["tps", "entangle", os.path.join(DATA, "bell_xx.json"), "--state", "bell_plus", "--parity",
                    *tokens] for tokens in (["xx", "--tol-resid", "1e-300"], ["Z" * 10])]
# spec-file pauli entries, each set on one route with bare tokens: valid, non-commuting,
# dependent, and an entry mixed with a bare token
PAULI_ENTRIES = {"zzi": "ZZI", "izz": "IZZ", "ziz": "ZIZ", "xii": "XII"}
PAULI_ENTRY_SETS = [["zzi", "izz"], ["zzi", "xii"], ["zzi", "izz", "ziz"], ["zzi", "IZZ"]]


def build_jobs(root: str, seeds, sets) -> list[dict]:
    """Every job of every workload, seed and input set, with its working directory,
    each decompose job followed by its --emit-basis twin and each holonomy job
    by its --eigenspace 2 twin; then the fixtures group, run in root."""
    sys.path.insert(0, REPO)
    from perfbench.workloads import WORKLOADS, generate

    jobs = []
    for workload in WORKLOADS:
        for seed in seeds:
            cwd = os.path.join(root, f"{workload}-{seed}")
            for input_set in sets:
                for job in generate(workload, seed, cwd, input_set):
                    jobs.append({"workload": workload,
                                 "key": f"seed {seed} set {input_set} {job.id}",
                                 "cwd": cwd, "argv": job.argv, "out": job.out})
                    twin = TWIN_FLAGS.get(job.kind)
                    if twin:
                        jobs.append({**jobs[-1], "key": " ".join([jobs[-1]["key"], *twin]),
                                     "argv": job.argv + twin})
    return jobs + fixture_jobs(root)


def fixture_jobs(cwd: str) -> list[dict]:
    """The fixtures group: every tests/data spec file through decompose --emit-basis,
    those naming a1/a2 generators through bipartition, the SEEDED jobs, tps
    equivalent, parity and bosonic each with and without a spec file, the
    REFUSALS, LONG_LADDERS, TIGHT_HOLONOMY, TIGHT_BOSONIC, NO_LOGICAL_FACTOR and PAULI_PARITY, tps
    entangle --parity of a pauli entry and the PARITY_ENTANGLE, tps parity of the
    PAULI_ENTRY_SETS, the spin_specs and reach_specs through decompose, the distance_jobs, the
    bosonic_reach_jobs and the tolerance_jobs."""
    files = sorted(os.path.join(DATA, name) for name in os.listdir(DATA) if name.endswith(".json"))
    argvs = [["decompose", "--emit-basis", path] for path in files]
    for path in files:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if "a1_generators" in doc and "a2_generators" in doc:
            argvs.append(["bipartition", path])
    cnot, bell = os.path.join(DATA, "cnot.json"), os.path.join(DATA, "bell_xx.json")
    argvs += [
        *SEEDED,
        ["tps", "equivalent", cnot, "--dims1", "2,2", "--dims2", "2,2", "--iso1", "swap"],
        ["tps", "equivalent", "--dims1", "2,3", "--dims2", "3,2"],
        ["tps", "equivalent", "--dims1", "2,3,2", "--dims2", "2,3,2"],
        ["tps", "parity", bell, "--parity", "xx"],
        ["tps", "parity", "--parity", "ZZI", "IZZ"],
        ["tps", "bosonic", cnot, "--modes", "4", "--cutoff", "1", "--unitary", "cnot",
         "--excite", "2"],
        ["tps", "bosonic", cnot, "--modes", "2", "--cutoff", "2"],
        ["tps", "bosonic", "--modes", "2", "--cutoff", "2"],
        *REFUSALS,
        *LONG_LADDERS,
        *TIGHT_HOLONOMY,
        *TIGHT_BOSONIC,
        *NO_LOGICAL_FACTOR,
        *PAULI_PARITY,
        ["tps", "entangle", bell, "--state", "bell_plus", "--parity", "xx"],
        *PARITY_ENTANGLE,
    ]
    paulis = os.path.join(cwd, "paulis3.json")
    with open(paulis, "w", encoding="utf-8") as fh:
        json.dump({"dim": 8, "operators": [{"name": k, "pauli": v} for k, v in PAULI_ENTRIES.items()]}, fh)
    argvs += [["tps", "parity", paulis, "--parity", *names] for names in PAULI_ENTRY_SETS]
    argvs += [["decompose", "--emit-basis", path] for path in spin_specs(cwd) + reach_specs(cwd)]
    argvs += distance_jobs(cwd)
    argvs += bosonic_reach_jobs(cwd)
    argvs += tolerance_jobs(cwd)
    return [{"workload": "fixtures", "cwd": cwd, "argv": argv, "out": None,
             "key": " ".join(os.path.relpath(a, REPO) if a.startswith(DATA)
                             else os.path.basename(a) if a.startswith(cwd) else a for a in argv)}
            for argv in argvs]


def write_spec(path: str, ops: dict, states: dict | None = None) -> str:
    """A spec file at path declaring the named dense operators and states; returns path."""
    dim = len(next(iter(ops.values())))
    pairs = lambda v: [[float(z.real), float(z.imag)] for z in v]
    doc = {"dim": dim, "operators": [{"name": k, "matrix": [pairs(row) for row in M]} for k, M in ops.items()]}
    if states:
        doc["states"] = [{"name": k, "vector": pairs(v)} for k, v in states.items()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def haar(d: int, rng):
    """A Haar-random d x d unitary drawn from rng."""
    import numpy as np

    Q, R = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def collective_spin(N: int) -> dict:
    """Jx, Jy and Jz on N qubits."""
    import numpy as np

    paulis = {"x": [[0, 1], [1, 0]], "y": [[0, -1j], [1j, 0]], "z": [[1, 0], [0, -1]]}
    on = lambda q, m: np.kron(np.kron(np.eye(2 ** q), m), np.eye(2 ** (N - q - 1)))
    return {f"j{a}": sum(on(q, np.array(P)) for q in range(N)) / 2 for a, P in paulis.items()}


def spin_specs(cwd: str) -> list[str]:
    """Spec files, written to cwd, of collective spin (Jx, Jy, Jz) on N = 3..5 qubits
    and of its Schur-Weyl dual, the swaps of adjacent qubits."""
    import numpy as np

    swap = np.eye(4)[[0, 2, 1, 3]]
    paths = []
    for N in (3, 4, 5):
        swaps = {f"s{q}": np.kron(np.kron(np.eye(2 ** q), swap), np.eye(2 ** (N - q - 2))) for q in range(N - 1)}
        paths += [write_spec(os.path.join(cwd, f"spin{N}.json"), collective_spin(N)),
                  write_spec(os.path.join(cwd, f"swaps{N}.json"), swaps)]
    return paths


def reach_specs(cwd: str) -> list[str]:
    """Spec files, written to cwd, of algebras whose basis is past the byte budget and
    whose block form is not: collective spin on 8 qubits (165 units of 256 x 256,
    165 MiB) and M_64 from clock and shift (4096 units of 64 x 64, 256 MiB)."""
    import numpy as np

    clock, shift = np.diag(np.exp(2j * np.pi * np.arange(64) / 64)), np.roll(np.eye(64), 1, axis=0)
    return [write_spec(os.path.join(cwd, "spin8.json"), collective_spin(8)),
            write_spec(os.path.join(cwd, "clock64.json"), {"clock": clock, "shift": shift})]


def distance_jobs(cwd: str) -> list[list[str]]:
    """tps distance on spec files written to cwd, on the routes no benchmark job takes: a
    seeded Haar unitary at --dims 3,4 and 4,3, vn and linear, whose 3 x 3 reduced densities
    are on the cut side and then on the complement, and vn of a 3 x 3 local unitary, whose
    rank-1 reduced densities give exactly 0."""
    import numpy as np

    rng = np.random.default_rng(12)
    haar12 = write_spec(os.path.join(cwd, "haar12.json"), {"u": haar(12, rng)})
    local9 = write_spec(os.path.join(cwd, "local9.json"), {"u": np.kron(haar(3, rng), haar(3, rng))})
    return [["tps", "distance", haar12, "--unitary", "u", "--dims", dims, "--measure", m]
            for dims in ("3,4", "4,3") for m in ("vn", "linear")] + [
        ["tps", "distance", local9, "--unitary", "u", "--dims", "3,3", "--measure", "vn"]]


def bosonic_reach_jobs(cwd: str) -> list[list[str]]:
    """tps bosonic past every benchmark job's four modes, where the Fock-space build
    changes most: the identity frame at 64 modes, cutoff 2 and 200 modes, cutoff 1, a
    seeded Haar frame on 24 modes at cutoff 3, from a spec file written to cwd, exciting
    mode 2 across the cut 1,2, and the 200 modes cut in half, 1,...,100, the one cut of
    more than two modes."""
    import numpy as np

    haar24 = write_spec(os.path.join(cwd, "haar24.json"), {"u": haar(24, np.random.default_rng(24))})
    return [["tps", "bosonic", "--modes", "64", "--cutoff", "2"],
            ["tps", "bosonic", "--modes", "200", "--cutoff", "1"],
            ["tps", "bosonic", haar24, "--modes", "24", "--cutoff", "3", "--unitary", "u",
             "--excite", "2", "--cut", "1,2"],
            ["tps", "bosonic", "--modes", "200", "--cutoff", "1", "--cut", ",".join(map(str, range(1, 101)))]]


def tolerance_jobs(cwd: str) -> list[list[str]]:
    """tps jobs on spec files written to cwd, each followed by its twin at a tight
    --tol-resid, under which it is refused or its verdict flips: distance, equivalent,
    entangle and bosonic on operators with a unitarity defect of ~5e-13 (tight 1e-14),
    parity with a Hermiticity defect of 1e-10 (tight 1e-11), equivalent of a natural
    structure and exp(1e-9 i Z (x) Z), whose realignment ratio is ~1e-9 (tight 1e-10)."""
    import numpy as np

    scale = 1 + 2.5e-13
    cnot = np.eye(4)[[0, 1, 3, 2]]
    zzi = np.diag([1, 1, -1, -1, -1, -1, 1, 1]).astype(complex)
    zzi[0, 1] += 1e-10j
    two = write_spec(os.path.join(cwd, "near_bs.json"), {"bs": scale * np.array([[1, 1], [1, -1]]) / np.sqrt(2)})
    four = write_spec(os.path.join(cwd, "near_cnot.json"), {"u": scale * cnot},
                      {"s": np.array([1, 0, 0, 1]) / np.sqrt(2)})
    eight = write_spec(os.path.join(cwd, "near_zzi.json"), {"zzi": zzi})
    zz = write_spec(os.path.join(cwd, "near_zz.json"), {"u": np.diag(np.exp(1e-9j * np.array([1, -1, -1, 1])))})
    tight = [
        (["tps", "distance", four, "--unitary", "u", "--dims", "2,2", "--samples", "100"], "1e-14"),
        (["tps", "equivalent", four, "--dims1", "2,2", "--dims2", "2,2", "--iso2", "u"], "1e-14"),
        (["tps", "entangle", four, "--state", "s", "--dims", "2,2", "--iso", "u"], "1e-14"),
        (["tps", "bosonic", two, "--modes", "2", "--cutoff", "2", "--unitary", "bs"], "1e-14"),
        (["tps", "parity", eight, "--parity", "zzi", "IZZ"], "1e-11"),
        (["tps", "equivalent", zz, "--dims1", "2,2", "--dims2", "2,2", "--iso2", "u"], "1e-10"),
    ]
    return [argv for default, tol in tight for argv in (default, default + ["--tol-resid", tol])]


def run_jobs(jobs_path: str, results_path: str) -> None:
    """Run each job through tpskit.cli.main; record (exit code, report, masked stderr)."""
    import tpskit.cli

    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    results = []
    for job in jobs:
        os.chdir(job["cwd"])
        if job["out"]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(job["out"])
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tpskit.cli.main(job["argv"])
        except Exception:
            code = None
            err.write(traceback.format_exc(limit=0))
        report = out.getvalue()
        if job["out"] and os.path.exists(job["out"]):
            with open(job["out"], encoding="utf-8") as fh:
                report = fh.read()
        results.append([code, report, WALL_TIME.sub("wall-time <masked> s", err.getvalue())])
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump({"tpskit": tpskit.__file__, "results": results}, fh)


def run_tree(src: str, jobs_path: str, results_path: str) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **SINGLE_THREAD)
    subprocess.run([sys.executable, os.path.abspath(__file__), "--run", jobs_path, results_path],
                   env=env, check=True)
    with open(results_path, encoding="utf-8") as fh:
        run = json.load(fh)
    print(f"ran {run['tpskit']}")
    return run["results"]


def differing_leaves(a, b, path: str = "") -> list[tuple]:
    """(key path, value a, value b) at each key path where two parsed JSON values
    differ; lists are leaves."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [leaf for key in dict.fromkeys([*a, *b])
                for leaf in differing_leaves(a.get(key, MISSING), b.get(key, MISSING),
                                             f"{path}.{key}".lstrip("."))]
    return [] if a == b else [(path or "<whole report>", a, b)]


def largest_change(a, b) -> float | None:
    """Largest absolute change of any one number between two numbers or two equal-shape
    numeric lists (complex entries as [re, im] pairs, part by part); None otherwise."""
    import numpy as np

    try:
        x, y = np.asarray(a), np.asarray(b)
    except ValueError:  # a ragged list
        return None
    if x.shape != y.shape or x.dtype.kind not in "iuf" or y.dtype.kind not in "iuf":
        return None
    return float(np.max(np.abs(x.astype(float) - y.astype(float)), initial=0.0))


def report_changes(a: str, b: str) -> list[tuple[str, float | None]]:
    """The key paths at which two reports differ, each with its ``largest_change``."""
    try:
        leaves = differing_leaves(json.loads(a), json.loads(b))
    except json.JSONDecodeError:
        return [("<not JSON>", None)]
    return [(path, largest_change(x, y)) for path, x, y in leaves] or [("<text only>", None)]


def change_text(path: str, change: float | None) -> str:
    return path if change is None else f"{path} by {change:.2g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7919, 11])
    parser.add_argument("--sets", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="compare-reports-") as root:
        jobs = build_jobs(root, args.seeds, args.sets)
        jobs_path = os.path.join(root, "jobs.json")
        with open(jobs_path, "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        parent = run_tree(args.parent_src, jobs_path, os.path.join(root, "parent.json"))
        change = run_tree(args.change_src, jobs_path, os.path.join(root, "change.json"))

    fields = ("exit code", "report", "stderr")
    counts, tallies, largest = {}, {}, {}
    for job, a, b in zip(jobs, parent, change):
        same_diff = counts.setdefault(job["workload"], [0, 0])
        same_diff[a != b] += 1
        if a == b:
            continue
        changes = report_changes(a[1], b[1]) if a[1] != b[1] else []
        tallies.setdefault(job["workload"], Counter()).update(path for path, _ in changes)
        moved = largest.setdefault(job["workload"], {})
        for path, x in changes:
            if x is not None:
                moved[path] = max(x, moved.get(path, x))
        if same_diff[1] <= SHOW:
            which = ", ".join(f for f, x, y in zip(fields, a, b) if x != y)
            print(f"  {job['workload']}: {job['key']} differs in {which}"
                  + (f" ({', '.join(change_text(*c) for c in changes)})" if changes else ""))
    for workload, (same, diff) in counts.items():
        print(f"{workload}: {same} identical, {diff} different")
        for path, n in tallies.get(workload, Counter()).most_common():
            x = largest[workload].get(path)
            print(f"  {path}: {n} jobs" + ("" if x is None else f", largest change {x:.2g}"))
    different = sum(diff for _, diff in counts.values())
    return 1 if different else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        run_jobs(*sys.argv[2:4])
    else:
        sys.exit(main())
