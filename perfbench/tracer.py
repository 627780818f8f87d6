"""Layer spans recorded from outside tpskit, and their per-layer metrics.

install() replaces each public function named in REPORTED by a wrapper,
wherever the function object is bound in a loaded ``tpskit.*`` module
namespace, so nested calls inside the package (structure_decompose ->
center -> commutant -> nullspace) are caught as well.  Each call becomes
a span: name, start, end, parent span, job id, the nested-safe
tracemalloc peak and whether it raised.  Spans are kept in memory and
written out as JSON lines when the run ends.

Run as a script, this module is the traced stand-in for
``python -m tpskit``:  python tracer.py SPANS_OUT JOB_ID -- ARGV...
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
import types

# wrapped public functions, as module.function, and the statistics
# reported for each (see aggregate)
REPORTED = {
    "numerics.nullspace": ("s", "calls", "rows", "in_mb"),
    "algebra.commutant": ("s", "self_s", "calls", "peak_mb"),
    "algebra.center": ("s", "self_s", "calls", "peak_mb"),
    "algebra.close_algebra": ("s", "self_s", "calls", "peak_mb"),
    "algebra.join": ("s", "calls"),
    "numerics.hs_orthonormalize": ("s", "calls"),
    "algebra.structure_decompose": ("s", "self_s", "calls", "peak_mb", "fail"),
    "numerics.hermitian_eig": ("s", "calls"),
    "algebra.check_bipartition": ("s", "self_s", "calls", "peak_mb"),
    "algebra.is_factor": ("s", "calls"),
    "algebra.algebra_residuals": ("s", "calls"),
    "tps.entangling_power": ("s", "self_s", "calls", "peak_mb"),
    "tps.entanglement": ("s", "calls"),
    "tps.tps_equivalent": ("s", "calls"),
    "tps.local_algebra": ("s", "calls"),
    "parity.validate_parity_set": ("s", "calls", "fail"),
    "parity.syndrome_decompose": ("s", "calls", "fail"),
    "bosonic.build_fock": ("s", "calls", "peak_mb"),
    "bosonic.ccr_residual": ("s", "calls", "peak_mb"),
    "bosonic.transform_modes": ("s", "self_s", "calls", "peak_mb"),
    "bosonic.mode_entanglement": ("s", "calls"),
    "holonomy.refinement_ladder": ("s", "calls"),
    "holonomy.holonomy_nonabelian_witness": ("s", "calls"),
    "holonomy.loop_holonomy": ("s", "self_s", "calls"),
    "numerics.polar_isometry": ("s", "calls"),
    "cli.main": ("s", "self_s", "calls", "fail"),
    "opfile.load_spec": ("s", "calls"),
}

STAT_UNITS = {"s": "s", "self_s": "s", "calls": "count", "rows": "count", "in_mb": "MB",
              "peak_mb": "MB", "fail": "count"}

STARTUP = ("interpreter_ms", "import_numpy_ms", "import_scipy_linalg_ms", "import_tpskit_ms")


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for span, stats in REPORTED.items():
        out += [(f"{span}.{st}", STAT_UNITS[st]) for st in stats]
        if span == "algebra.structure_decompose":
            out.append((f"{span}.probe_ratio", "ratio"))
    out += [(f"startup.{k}", "ms") for k in STARTUP]
    out += [("trace.coverage", "ratio"), ("trace.overhead", "ratio")]
    return out


def _extras(name, args, result):
    """Size annotations taken from the call itself."""
    if name == "numerics.nullspace":
        shape = getattr(args[0], "shape", (0, 0))
        # the kernel works on a complex128 copy of its input
        return {"rows": int(shape[0]), "in_mb": shape[0] * shape[1] * 16 / 1e6}
    if name == "algebra.structure_decompose" and result is not None:
        return {"blocks": len(result.blocks)}
    return None


# spans whose peak_mb is reported: tracemalloc runs only while one is open,
# so the many small calls elsewhere (polar_isometry per loop step) stay cheap
_PEAK_SPANS = {name for name, stats in REPORTED.items() if "peak_mb" in stats}


class Recorder:
    """Span stack plus the nested-safe tracemalloc peak of each open span."""

    def __init__(self):
        self.spans: list = []
        self.job = None
        # open spans: [span id, start, start bytes, max bytes seen, started tracemalloc]
        self._stack: list = []
        self._next = 0

    def enter(self, name):
        sid = self._next
        self._next += 1
        owner = name in _PEAK_SPANS and not tracemalloc.is_tracing()
        if owner:
            tracemalloc.start()
        cur, peak = tracemalloc.get_traced_memory()
        if self._stack:
            top = self._stack[-1]
            top[3] = max(top[3], peak)
        tracemalloc.reset_peak()
        self._stack.append([sid, time.perf_counter(), cur, cur, owner])

    def leave(self, name, failed, extra):
        end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        sid, start, base, seen, owner = self._stack.pop()
        seen = max(seen, peak)
        if owner:
            tracemalloc.stop()
        elif self._stack:
            top = self._stack[-1]
            top[3] = max(top[3], seen)
        tracemalloc.reset_peak()
        span = {"id": sid, "parent": self._stack[-1][0] if self._stack else None,
                "job": self.job, "name": name, "start": start, "end": end,
                "peak_mb": (seen - base) / 1e6, "fail": failed}
        if extra:
            span.update(extra)
        self.spans.append(span)

    def write(self, path):
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        self.spans = []


def _wrap(func, name, rec: Recorder):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        rec.enter(name)
        try:
            result = func(*args, **kwargs)
        except BaseException:
            rec.leave(name, True, None)
            raise
        rec.leave(name, False, _extras(name, args, result))
        return result
    return traced


def install(rec: Recorder):
    """Wrap every REPORTED function at all its tpskit bindings; returns an undo list."""
    targets = {}
    for name in REPORTED:
        mod, func = name.split(".")
        f = getattr(importlib.import_module(f"tpskit.{mod}"), func)
        targets[f] = _wrap(f, name, rec)
    undo = []
    for mname, mod in list(sys.modules.items()):
        if mod is None or not (mname == "tpskit" or mname.startswith("tpskit.")):
            continue
        for attr, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and val in targets:
                undo.append((mod, attr, val))
                setattr(mod, attr, targets[val])
    return undo


def uninstall(undo):
    for mod, attr, val in undo:
        setattr(mod, attr, val)


# ------------------------------------------------------------ aggregation

def aggregate(spans: list, cycles: int) -> dict:
    """Per-layer metrics from spans, as totals per pass over the job list.

    s is inclusive time, self_s excludes wrapped child spans, peak_mb is
    the largest single-call peak.  probe_ratio is hermitian_eig calls
    under structure_decompose per (blocks + 1): 1.0 means no probe retries.
    trace.coverage is the share of cli.main time inside its child spans.
    """
    child_time: dict = {}
    children: dict = {}
    for s in spans:
        p = s["parent"]
        if p is not None:
            child_time[(s["job"], p)] = child_time.get((s["job"], p), 0.0) + s["end"] - s["start"]
            children.setdefault((s["job"], p), []).append(s)
    acc: dict = {}
    for s in spans:
        dur = s["end"] - s["start"]
        a = acc.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0, "rows": 0,
                                       "in_mb": 0.0, "peak_mb": 0.0, "fail": 0})
        a["s"] += dur
        a["self_s"] += dur - child_time.get((s["job"], s["id"]), 0.0)
        a["calls"] += 1
        a["rows"] += s.get("rows", 0)
        a["in_mb"] += s.get("in_mb", 0.0)
        a["peak_mb"] = max(a["peak_mb"], s["peak_mb"])
        a["fail"] += int(s["fail"])

    def descendants(s, name):
        total = 0
        for c in children.get((s["job"], s["id"]), []):
            total += (c["name"] == name) + descendants(c, name)
        return total

    eig = probes = 0
    main_total = main_covered = 0.0
    for s in spans:
        if s["name"] == "algebra.structure_decompose" and not s["fail"]:
            eig += descendants(s, "numerics.hermitian_eig")
            probes += s["blocks"] + 1
        elif s["name"] == "cli.main":
            main_total += s["end"] - s["start"]
            main_covered += child_time.get((s["job"], s["id"]), 0.0)

    out = {}
    for span, stats in REPORTED.items():
        a = acc.get(span, {})
        for st in stats:
            v = a.get(st, 0)
            out[f"{span}.{st}"] = v if st == "peak_mb" else v / cycles
        if span == "algebra.structure_decompose":
            out[f"{span}.probe_ratio"] = eig / probes if probes else 0.0
    out["trace.coverage"] = main_covered / main_total if main_total else 0.0
    return out


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ------------------------------------------------------------ traced CLI child

def _child(argv):
    spans_out, job = argv[0], argv[1]
    cli_argv = argv[3:] if argv[2:3] == ["--"] else argv[2:]
    import tpskit.cli  # noqa: F401  (load every layer module before wrapping)
    rec = Recorder()
    rec.job = job
    install(rec)
    try:
        code = sys.modules["tpskit.cli"].main(cli_argv)
    finally:
        rec.write(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
