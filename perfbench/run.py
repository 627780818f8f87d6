"""tpskit benchmark: CLI jobs timed end to end, checked against oracles.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 20 --trace 0

Run from the root of a tpskit checkout (the directory holding src/tpskit).
Workloads: algebra, structures, cli, or all.  For each one the inputs are
generated from --seed as spec files under .perfbench/, a fresh input set
for the warm-up and for every cycle (one pass over the job list), and a
set on which a job hits tpskit's known decompose defect is drawn again
(draw_sets); the cycles run in a fresh worker process (worker.py) as a
closed loop with one client, and every report is checked by the oracle in
workloads.py.

--trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and a
traced phase and prints the per-layer metrics of BENCHMARK.json instead,
and writes the spans to .perfbench/spans-<workload>-<seed>.jsonl.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --short runs one job of
every kind, unmeasured, and checks them.

Exit codes: 0 result printed, 2 not run from a tpskit checkout or bad
arguments, 3 the worker failed or timed out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import tracer
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# CPUs available before main() pins the run to one of them; BLAS gets
# that one CPU alone
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
# Seconds one cycle of each workload takes at the seed commit.  A run makes
# round(seconds / CYCLE_S) cycles (at least one), a count fixed by --seconds
# alone, so every commit is measured over the same number of runs per job
# slot whatever its speed.  A slot's latency sample is its fastest run over
# the cycles' distinct inputs, which discards slowdowns from other tenants
# of a shared machine (they only ever add time).
CYCLE_S = {"algebra": 9.5, "structures": 10.3, "cli": 18.0}
WORKER_TIMEOUT = 150
# Draws of one input set at most, when it keeps hitting the known defect
# (draw_sets).
MAX_REDRAWS = 5
SETUP_IMPORTS = 5
STARTUP_RUNS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import tpskit; t = time.perf_counter() - t; "
                f"import sys; sys.path.insert(0, {HERE!r}); import worker; "
                "print(t, worker.calibration_ms())")
# Durations are reported at the speed at which the calibration kernel of
# worker.py takes this long (its median on the reference machine).
CAL_REF_MS = 10.0
END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    pass


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least 10 samples beyond it."""
    return math.floor(100 * (1 - 10 / samples))


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_S[workload]))


def best_of_cycles(verdicts, scaled=True) -> dict:
    """Each job slot's fastest run (ms) over the cycles of a phase."""
    best: dict = {}
    for rec, _ in verdicts:
        ms = rec["ms"] * CAL_REF_MS / rec["cal_ms"] if scaled else rec["ms"]
        best[rec["id"]] = min(best.get(rec["id"], math.inf), ms)
    return best


def throughput(verdicts, scaled=True) -> float:
    """Verified jobs per second of a cycle made of each job's fastest run."""
    best = best_of_cycles(verdicts, scaled).values()
    ok_share = sum(1 for _, reason in verdicts if reason is None) / len(verdicts)
    return len(best) * ok_share / (sum(best) / 1e3)


def percentile(values, pct: float) -> float:
    v = sorted(values)
    pos = (len(v) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run(argv, env):
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, check=True)


def setup_seconds(env) -> list:
    """Fresh-interpreter `import tpskit` times as (raw, speed-scaled by the
    calibration kernel run right after); a first, discarded import writes
    the bytecode cache."""
    times = []
    for _ in range(SETUP_IMPORTS + 1):
        t, cal = map(float, _run([sys.executable, "-c", IMPORT_PROBE], env).stdout.split())
        times.append((t, t * CAL_REF_MS / cal))
    return times[1:]


def startup_ms(env) -> dict:
    """Interpreter start from `python -c pass`, module imports from -X importtime,
    speed-scaled like setup_s by the calibration kernel run after the imports."""
    interp, rows = [], {"numpy": [], "scipy.linalg": [], "tpskit": []}
    for _ in range(STARTUP_RUNS):
        t = time.perf_counter()
        _run([sys.executable, "-c", "pass"], env)
        t = (time.perf_counter() - t) * 1e3
        proc = _run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE], env)
        scale = CAL_REF_MS / float(proc.stdout.split()[1])
        interp.append(t * scale)
        seen = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)", line)
            if m:
                seen[m.group(2)] = int(m.group(1)) / 1e3
        for mod in rows:
            rows[mod].append(seen.get(mod, 0.0) * scale)
    med = statistics.median
    return {"startup.interpreter_ms": med(interp),
            "startup.import_numpy_ms": med(rows["numpy"]),
            "startup.import_scipy_linalg_ms": med(rows["scipy.linalg"]),
            "startup.import_tpskit_ms": med(rows["tpskit"])}


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def check_records(jobs_by_key, records):
    """Oracle verdict for each record: list of (record, reason or None)."""
    out = []
    for rec in records:
        job = jobs_by_key[rec["set"], rec["id"]]
        reason = rec["error"] if rec["code"] is None else workloads.check(
            job, rec["code"], rec["report"])
        out.append((rec, reason))
    return out


def blind_oracle_kinds(jobs_by_key, verdicts) -> list:
    """Kinds whose corrupted report the oracle failed to reject."""
    done, blind = set(), []
    for rec, reason in verdicts:
        job = jobs_by_key[rec["set"], rec["id"]]
        if reason is None and job.kind not in done:
            done.add(job.kind)
            if workloads.check(job, *workloads.corrupt(job, rec["code"], rec["report"])) is None:
                blind.append(job.kind)
    return blind


def run_worker(workload, workdir, env, *flags):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workdir, *flags]
    # own process group, so a timeout also ends the job the worker is running
    with subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            _, err = proc.communicate(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload}: worker exceeded {WORKER_TIMEOUT} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{err[-2000:]}")


def draw_sets(workload, seed, workdir, count, env, warm_up):
    """The run's input sets, with the sets that hit tpskit's known decompose
    defect drawn again; returns (sets, number of redraws).

    The defect fails about 1 in 1000 non-factor decompose inputs
    (README, known defects), and the benchmark's workloads must be ones on
    which no job fails, so every such job is run once, untimed, in a fresh
    worker before the run, and a set with a job that hits the defect is
    drawn again.  Any other failure is left to the timed run.  The
    redraws are counted and printed, and selfcheck.py keeps inputs that
    reproduce the defect.  Set 0 is the warm-up's: only its warm jobs run,
    and only when warm_up.
    """
    sets = [workloads.generate(workload, seed, workdir, k) for k in range(count)]
    draws = [0] * count
    pending = range(count)
    while True:
        jobs = [{"key": [k, j.id], "argv": j.argv} for k in pending for j in sets[k]
                if workloads.may_hit_known_defect(j) and (k or (warm_up and j.warm))]
        if not jobs:
            break
        with open(os.path.join(workdir, "screen.json"), "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        run_worker(workload, workdir, env, "--screen")
        with open(os.path.join(workdir, "screened.json"), encoding="utf-8") as fh:
            pending = sorted({k for k, _ in json.load(fh)})
        for k in pending:
            draws[k] += 1
            if draws[k] > MAX_REDRAWS:
                raise BenchError(f"{workload}: input set {k} hit the known decompose defect "
                                 f"in {draws[k]} draws")
            shutil.rmtree(os.path.join(workdir, f"set{k}"))
            sets[k] = workloads.generate(workload, seed, workdir, k, draws[k])
    return sets, sum(draws)


def run_workload(workload, seed, seconds, trace, short, root, env, bench):
    state = os.path.join(root, ".perfbench")
    os.makedirs(state, exist_ok=True)
    setup = setup_seconds(env)
    in_process = workload != "cli"
    # input set 0 is the warm-up's, sets 1.. one per cycle
    if short:
        counts = {}
    elif trace:
        counts = {"untraced": cycles_for(workload, seconds / 2),
                  "traced": cycles_for(workload, seconds / 2)}
    else:
        counts = {"untraced": cycles_for(workload, seconds)}
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=state)
    try:
        # a fresh interpreter per job has nothing to warm up
        warm_up = short or in_process
        sets, redrawn = draw_sets(workload, seed, workdir, 1 + sum(counts.values()), env,
                                  warm_up)
        warm = [j for j in sets[0] if j.warm] if warm_up else []
        spec = {"in_process": in_process, "warm": [dict(j.to_json(), set=0) for j in warm],
                "phases": {}}
        k = 1
        for phase, n in counts.items():
            spec["phases"][phase] = [[dict(j.to_json(), set=k + c) for j in sets[k + c]]
                                     for c in range(n)]
            k += n
        with open(os.path.join(workdir, "jobs.json"), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        startup = startup_ms(env) if trace else {}
        run_worker(workload, workdir, env)
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
            res = json.load(fh)
        spans_path = os.path.join(workdir, "spans.jsonl")
        spans = tracer.read_spans(spans_path) if trace and not short else []
        if spans:
            shutil.copyfile(spans_path, os.path.join(state, f"spans-{workload}-{seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    by_key = {(k, j.id): j for k, jobs in enumerate(sets) for j in jobs}
    warm = check_records(by_key, res["warm"])
    phases = {name: dict(ph, verdicts=check_records(by_key, ph["records"]))
              for name, ph in res["phases"].items()}
    timed = [v for ph in phases.values() for v in ph["verdicts"]]
    failures = [(rec["tag"], reason) for rec, reason in warm + timed if reason is not None]
    blind = blind_oracle_kinds(by_key, warm + timed)
    attempted = len(timed) if timed else len(warm)
    failed = sum(1 for _, reason in (timed or warm) if reason is not None)
    executed = [by_key[rec["set"], rec["id"]] for rec, _ in warm + timed]

    info = {"workload": workload, "seed": seed, "jobs_per_cycle": len(sets[0]),
            "repeated_input_share": workloads.repeated_input_share(executed),
            "redrawn_sets": redrawn,
            "error_rate": failed / attempted, "failures": failures[:20],
            "oracle_blind_kinds": blind,
            "env": {"nproc": NPROC, "pinned_cpu": max(os.sched_getaffinity(0)),
                    "blas_threads": BLAS_THREADS, "python": sys.version.split()[0],
                    "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
                    "commit": git_commit(root)},
            "setup_import_s": [t for t, _ in setup],
            "setup_import_scaled_s": [t for _, t in setup]}
    metrics = {}
    if not short:
        un = phases["untraced"]
        info["untraced"] = {"cycles": un["cycles"], "cycle_s": un["cycle_s"],
                            "calibration_ms": statistics.median(r["cal_ms"] for r in un["records"])}
        if trace:
            tr = phases["traced"]
            metrics = tracer.aggregate(spans, tr["cycles"])
            metrics.update(startup)
            metrics["trace.overhead"] = throughput(tr["verdicts"]) / throughput(un["verdicts"])
            info["traced"] = {"cycles": tr["cycles"], "cycle_s": tr["cycle_s"]}
            info["layer_share"] = layer_share(spans)
        else:
            info["job_best_ms"] = best_of_cycles(un["verdicts"])
            best = list(info["job_best_ms"].values())
            pct = tail_percentile(len(best))
            info["tail"] = {"percentile": pct, "samples": len(best),
                            "runs_per_sample": un["cycles"], "beyond": len(best) * (1 - pct / 100)}
            metrics = {"jobs_per_s": throughput(un["verdicts"]),
                       "job_p50_ms": percentile(best, 50),
                       "job_tail_ms": percentile(best, pct),
                       "peak_rss_mb": res["peak_rss_mb"],
                       "setup_s": statistics.median(t for _, t in setup)}
            # the same figures in wall time, unscaled, for the record
            raw = list(best_of_cycles(un["verdicts"], False).values())
            info["wall"] = {"jobs_per_s": throughput(un["verdicts"], False),
                           "job_p50_ms": percentile(raw, 50),
                           "job_tail_ms": percentile(raw, pct),
                           "peak_rss_mb": res["peak_rss_mb"],
                           "setup_s": statistics.median(t for t, _ in setup)}
    units = dict(tracer.per_layer_names()) if trace else END_TO_END_UNITS
    expected = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    if not short and sorted(metrics) != sorted(expected):
        raise BenchError(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(expected))}")
    result = {"correct": not failures and not blind, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in expected
                          if k in metrics}}
    with open(os.path.join(state, f"record-{workload}-{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"result": result, **info}, fh, indent=1)
    print_summary(result, info)
    return result


def layer_share(spans) -> dict:
    """Share of cli.main time spent in each module's top-level spans."""
    mains = {(s["job"], s["id"]): s["end"] - s["start"] for s in spans if s["name"] == "cli.main"}
    total = sum(mains.values()) or 1.0
    share: dict = {}
    for s in spans:
        if (s["job"], s["parent"]) in mains:
            mod = s["name"].split(".")[0]
            share[mod] = share.get(mod, 0.0) + (s["end"] - s["start"]) / total
    return dict(sorted(share.items()))


def print_summary(result, info):
    print(f"# workload={info['workload']} seed={info['seed']} "
          f"jobs/cycle={info['jobs_per_cycle']} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    if "tail" in info:
        t = info["tail"]
        print(f"#   tail = p{t['percentile']} over {t['samples']} samples, each the fastest of "
              f"{t['runs_per_sample']} runs ({t['beyond']:.1f} beyond)")
    for k, v in result["metrics"].items():
        print(f"#   {k:44s} {v['value']:.6g} {v['unit']}")
    print(f"#   {'error_rate':44s} {info['error_rate']:.6g} ratio")
    print(f"#   repeated_input_share={info['repeated_input_share']:.3f}")
    if info["redrawn_sets"]:
        print(f"#   KNOWN DEFECT: {info['redrawn_sets']} input set(s) drawn again because a "
              f"decompose job hit '{worker.KNOWN_DEFECT}'")
    if "layer_share" in info:
        print("#   layer share of cli.main: " +
              " ".join(f"{k}={v:.3f}" for k, v in info["layer_share"].items()))
    e = info["env"]
    print(f"#   env nproc={e['nproc']} pinned_cpu={e['pinned_cpu']} "
          f"blas_threads={e['blas_threads']} python={e['python']} numpy={e['numpy']} "
          f"scipy={e['scipy']} commit={e['commit']}")
    for tag, reason in info["failures"]:
        print(f"#   FAIL {tag}: {reason}")
    for kind in info["oracle_blind_kinds"]:
        print(f"#   ORACLE BLIND: a corrupted {kind} report was accepted")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="nominal timed seconds per run, which fix its number of cycles "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--short", action="store_true", help="one unmeasured job of every kind")
    args = ap.parse_args(argv)

    root = os.getcwd()
    # one CPU for this process and all it starts, so the calibration kernel
    # and the jobs share the same core and the same contention
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tpskit", "__init__.py")):
        print(f"error: no tpskit sources under {src}; run from a tpskit checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    env = child_env(src)
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for w in names:
            results[w] = run_workload(w, args.seed, seconds, args.trace, args.short,
                                      root, env, bench)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
