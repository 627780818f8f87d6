"""One workload's job list, run as a closed loop with one client.

    python worker.py WORKDIR
    python worker.py WORKDIR --screen

Started by run.py as a fresh process in WORKDIR's parent checkout, with
PYTHONPATH pointing at the tpskit sources.  It reads WORKDIR/jobs.json:
the untimed warm-up jobs, then for each phase ("untraced", and "traced"
for a per-layer run) a fixed list of cycles, each a whole job list on its
own input set.  It runs them in that order, one job at a time, and writes
WORKDIR/result.json.  In-process jobs call tpskit.cli.main(argv); the
others start ``python -m tpskit`` once per job.  The traced phase runs in
the same process as the untraced one, so the tracing overhead is measured
under the same conditions.

With --screen it instead runs the jobs of WORKDIR/screen.json once each,
in-process, and writes to WORKDIR/screened.json the keys of those that hit
tpskit's known decompose defect, so run.py can draw their sets again.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

# Address-space limit of the worker and every process it starts: a memory
# regression fails jobs instead of exhausting the machine.
MEMORY_LIMIT = 3 << 30
# Longest a single CLI subprocess may run.
JOB_TIMEOUT = 120
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")
# What tpskit prints when decompose hits its known defect on a valid
# non-factor input (README, known defects).
KNOWN_DEFECT = "center is not *-closed"


def calibration_ms() -> float:
    """Time of a fixed numpy + interpreter kernel that does not touch tpskit.

    The machine's speed drifts by up to 30% over seconds while the ratio
    between unrelated CPU kernels stays within a few percent, so run.py
    scales every job by this kernel's time measured around it.
    """
    import numpy as np
    m = np.arange(48 * 48, dtype=float).reshape(48, 48) % 7 + 1j * np.eye(48)
    m = m + m.conj().T
    start = time.perf_counter()
    for _ in range(20):
        np.linalg.eigh(m)
    acc = 0
    for i in range(60000):
        acc += i * i
    return (time.perf_counter() - start) * 1e3


class InProcess:
    """Jobs as tpskit.cli.main(argv) calls; spans are tagged with the job id."""

    def __init__(self):
        import tpskit.cli  # noqa: F401
        self.rec = None

    def run(self, job, tag):
        if self.rec is not None:
            self.rec.job = tag
        with contextlib.suppress(FileNotFoundError):
            os.remove(job["out"])
        err = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                # looked up per call, so the traced phase sees the wrapper
                code = sys.modules["tpskit.cli"].main(job["argv"])
        except Exception:
            code, error = None, traceback.format_exc(limit=4)
        ms = (time.perf_counter() - start) * 1e3
        report = None
        if os.path.exists(job["out"]):
            with open(job["out"], encoding="utf-8") as fh:
                report = fh.read()
        return {"tag": tag, "id": job["id"], "code": code, "ms": ms, "report": report,
                "error": error or (err.getvalue()[-400:] if code else None)}


class Subprocess:
    """Jobs as a fresh ``python -m tpskit`` (or traced stand-in) per job."""

    traced = False

    def run(self, job, tag):
        if self.traced:
            argv = [sys.executable, TRACER, "spans.jsonl", tag, "--", *job["argv"]]
        else:
            argv = [sys.executable, "-m", "tpskit", *job["argv"]]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=JOB_TIMEOUT)
            code, report, error = proc.returncode, proc.stdout, proc.stderr[-400:] or None
        except subprocess.TimeoutExpired:
            code, report, error = None, None, f"timed out after {JOB_TIMEOUT} s"
        ms = (time.perf_counter() - start) * 1e3
        return {"tag": tag, "id": job["id"], "code": code, "ms": ms, "report": report,
                "error": error if code else None}


def run_phase(runner, name, cycles):
    """Each cycle's job list once, in order."""
    records, cycle_s = [], []
    cal = calibration_ms()
    for c, jobs in enumerate(cycles):
        c0 = time.perf_counter()
        for job in jobs:
            rec = runner.run(job, f"{job['id']}#{name}{c}")
            after = calibration_ms()
            rec["cal_ms"] = (cal + after) / 2
            cal = after
            rec["set"] = job["set"]
            records.append(rec)
        cycle_s.append(time.perf_counter() - c0)
    return {"records": records, "cycles": len(cycles), "cycle_s": cycle_s}


def screen(jobs) -> list:
    """Keys of the jobs on which tpskit.cli.main hits KNOWN_DEFECT, each
    run once, untimed.  Any other outcome is left to the timed run."""
    import tpskit.cli
    hit = []
    for job in jobs:
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = tpskit.cli.main(job["argv"])
        except Exception:
            continue
        if code == 2 and KNOWN_DEFECT in err.getvalue():
            hit.append(job["key"])
    return hit


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workdir")
    ap.add_argument("--screen", action="store_true",
                    help="run the jobs of screen.json once and write screened.json")
    args = ap.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    os.chdir(args.workdir)
    if args.screen:
        with open("screen.json", encoding="utf-8") as fh:
            jobs = json.load(fh)
        with open("screened.json", "w", encoding="utf-8") as fh:
            json.dump(screen(jobs), fh)
        return 0
    with open("jobs.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    runner = InProcess() if spec["in_process"] else Subprocess()

    warm = run_phase(runner, "warm", [spec["warm"]])["records"]
    result = {"warm": warm, "phases": {}}
    for name, cycles in spec["phases"].items():
        if name == "traced":
            result["phases"][name] = traced_phase(runner, cycles)
        else:
            result["phases"][name] = run_phase(runner, name, cycles)
    who = resource.RUSAGE_SELF if spec["in_process"] else resource.RUSAGE_CHILDREN
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def traced_phase(runner, cycles):
    if isinstance(runner, Subprocess):
        runner.traced = True
        return run_phase(runner, "traced", cycles)
    import tracer
    runner.rec = tracer.Recorder()
    undo = tracer.install(runner.rec)
    try:
        return run_phase(runner, "traced", cycles)
    finally:
        tracer.uninstall(undo)
        runner.rec.write("spans.jsonl")


if __name__ == "__main__":
    sys.exit(main())
