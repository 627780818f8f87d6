"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a tpskit checkout.  It checks that
  1. BENCHMARK.json has the contract's shape, its metric names and units
     are exactly the ones run.py and tracer.py emit, and the layer map in
     reference.json covers every per-layer metric;
  2. the same seed gives byte-identical spec files and job order; another
     seed, and another input set of the same seed, give other spec files,
     and every input set has the same job slots;
  3. the oracle rejects a corrupted report of every job kind and a wrong
     exit code for an input the CLI must reject;
  4. the screen that draws input sets again when a job hits the known
     decompose defect flags exactly the jobs `python -m tpskit` fails on;
  5. a short run (one job of every kind, every workload) is correct.
It also reports, without failing, whether the known tpskit defects listed
in README.md still reproduce.  Exit code 0 when 1-5 hold.
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import run
import tracer
import worker
import workloads

with open(os.path.join(run.HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)
HELD_OUT_SEED = REFERENCE["held_out_seed"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_schema(bench) -> list:
    errs = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        errs.append(f"top-level keys {sorted(bench)}")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        errs.append("workload names differ from workloads.WORKLOADS")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errs.append(f"workload entry {w['name']}")
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        errs.append("run_seconds")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        errs.append(f"end_to_end {e2e} != emitted {run.END_TO_END_UNITS}")
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errs.append(f"end_to_end entry {m['name']}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" \
            or setup[0]["bound"] != max(m["bound"] for m in bench["end_to_end"]):
        errs.append("setup_s must be in s, lower is better, with the largest bound")
    layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    if layer != tracer.per_layer_names():
        errs.append("per_layer names/units differ from tracer.per_layer_names()")
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errs.append(f"per_layer entry {m['name']}")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + \
        [w["name"] for w in bench["workloads"]]
    bad = [n for n in names if not NAME.match(n)]
    if bad or len(set(names)) != len(names):
        errs.append(f"bad or repeated names {bad}")
    units = [m["unit"] for m in bench["end_to_end"] + bench["per_layer"]]
    if any(not UNIT.match(u) for u in units):
        errs.append("bad unit")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if m["better"] not in ("higher", "lower"):
            errs.append(f"direction of {m['name']}")
    mapped = [n for row in REFERENCE["layer_map"] for n in row["per_layer"]]
    moves = {n for row in REFERENCE["layer_map"] for n in row["moves"]}
    if sorted(mapped) != sorted(n for n, _ in layer) or not moves <= set(e2e):
        errs.append("reference.json layer_map does not cover exactly the per_layer metrics")
    return errs


def check_determinism(scratch) -> list:
    errs = []
    for w in workloads.WORKLOADS:
        a, b, c = (os.path.join(scratch, f"{w}-{k}") for k in "abc")
        ja = workloads.generate(w, HELD_OUT_SEED, a, 1)
        jb = workloads.generate(w, HELD_OUT_SEED, b, 1)
        if [j.to_json() for j in ja] != [j.to_json() for j in jb]:
            errs.append(f"{w}: job list differs for one seed")
        files = sorted(os.listdir(os.path.join(a, "set1", "in")))
        _, mismatch, missing = filecmp.cmpfiles(os.path.join(a, "set1", "in"),
                                                os.path.join(b, "set1", "in"), files,
                                                shallow=False)
        if mismatch or missing:
            errs.append(f"{w}: spec files differ for one seed: {mismatch + missing}")
        for what, other in [("another seed", workloads.generate(w, HELD_OUT_SEED + 1, c, 1)),
                            ("another input set", workloads.generate(w, HELD_OUT_SEED, c, 2)),
                            ("a redrawn input set", workloads.generate(w, HELD_OUT_SEED, c, 1, 1))]:
            if sorted((j.id, j.kind) for j in other) != sorted((j.id, j.kind) for j in ja):
                errs.append(f"{w}: {what} has other job slots")
            # random matrices are never drawn twice; a job given by argv alone
            # (say tps bosonic without --unitary) may repeat
            if {j.input for j in ja if j.spec} & {j.input for j in other if j.spec}:
                errs.append(f"{w}: {what} repeats a spec file of the first")
    return errs


def check_oracle_rejects_wrong_exit() -> list:
    job = workloads.Job(id="x", kind="parity", argv=[], expect={"reject": True}, code=2)
    errs = []
    if workloads.check(job, 2, None) is not None:
        errs.append("a rejected input exiting 2 is not accepted")
    if workloads.check(job, *workloads.corrupt(job, 2, None)) is None:
        errs.append("an input the CLI must reject passes with exit 0")
    if workloads.check(job, 1, None) is None:
        errs.append("exit 1 accepted where 2 is required")
    return errs


def check_screen(scratch, env) -> list:
    """The screen of run.draw_sets (worker.py --screen, in-process) flags a
    job exactly when `python -m tpskit` hits the known defect on it: on the
    workload input that reproduces the defect and on the other non-factor
    decompose jobs of its set."""
    jobs = [j for j in workloads.generate("algebra", 14, scratch, 2)
            if workloads.may_hit_known_defect(j)]
    with open(os.path.join(scratch, "screen.json"), "w", encoding="utf-8") as fh:
        json.dump([{"key": [2, j.id], "argv": j.argv} for j in jobs], fh)
    run.run_worker("algebra", scratch, env, "--screen")
    with open(os.path.join(scratch, "screened.json"), encoding="utf-8") as fh:
        flagged = {jid for _, jid in json.load(fh)}
    errs = []
    for j in jobs:
        proc = subprocess.run([sys.executable, "-m", "tpskit", *j.argv], capture_output=True,
                              text=True, env=env, cwd=scratch, timeout=60)
        hit = proc.returncode == 2 and worker.KNOWN_DEFECT in proc.stderr
        if hit != (j.id in flagged):
            errs.append(f"{j.id}: screen {'flags' if j.id in flagged else 'passes'} it, "
                        f"python -m tpskit {'hits' if hit else 'does not hit'} the defect")
    return errs


def check_short_run() -> list:
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "all",
                           "--short", "--seed", str(HELD_OUT_SEED)],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"short run exited {proc.returncode}: {proc.stderr[-500:]}"]
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    errs = [f"short run of {w} not correct" for w, r in results.items() if not r["correct"]]
    if errs:
        print(proc.stdout)
    return errs


def known_defects(scratch, env) -> list:
    """(description, still reproduces) for the defects listed in README.md."""
    # two Gaussian diagonal generators in a random basis: a 3-block abelian algebra
    rng = np.random.default_rng(100)
    V = workloads._haar(rng, 3)
    gens = [V @ np.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3)) @ V.conj().T
            for _ in range(2)]
    path = os.path.join(scratch, "defect-abelian.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": 3, "operators": [{"name": f"g{i}", "matrix": workloads._mat(g)}
                                           for i, g in enumerate(gens)]}, fh)
    out = []
    proc = subprocess.run([sys.executable, "-m", "tpskit", "decompose", path],
                          capture_output=True, text=True, env=env, timeout=60)
    out.append(("decompose of a Gaussian-generated 3-block abelian algebra fails: "
                "center is not *-closed", "not *-closed" in proc.stderr))
    # the same defect on an input of the algebra workload (seed 14, input set 2)
    job = next(j for j in workloads.generate("algebra", 14, scratch, 2) if "abelian8" in j.id)
    proc = subprocess.run([sys.executable, "-m", "tpskit", "decompose", job.spec],
                          capture_output=True, text=True, env=env, cwd=scratch, timeout=60)
    out.append(("decompose of algebra input abelian8 (seed 14, input set 2) fails: "
                "center is not *-closed", "not *-closed" in proc.stderr))
    # XX.ZZ.YY = -I: passes validation, fails at the sector split
    proc = subprocess.run([sys.executable, "-m", "tpskit", "tps", "parity", "--parity", "XXII",
                           "ZZII", "YYII"], capture_output=True, text=True, env=env, timeout=60)
    out.append(("a sign-dependent Pauli set passes validation and fails at the sector split",
                "sector dimensions" in proc.stderr))
    return out


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    state = os.path.join(root, ".perfbench")
    os.makedirs(state, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selfcheck-", dir=state)
    env = run.child_env(os.path.join(root, "src"))
    try:
        checks = [("schema", check_schema(bench)),
                  ("determinism", check_determinism(scratch)),
                  ("oracle exit codes", check_oracle_rejects_wrong_exit()),
                  ("defect screen", check_screen(scratch, env)),
                  ("short run", check_short_run())]
        defects = known_defects(scratch, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, errs in checks:
        print(f"{'ok  ' if not errs else 'FAIL'} {name}")
        for e in errs:
            print(f"     {e}")
    for desc, present in defects:
        print(f"{'defect present' if present else 'defect gone   '}: {desc}")
    return 0 if all(not errs for _, errs in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
