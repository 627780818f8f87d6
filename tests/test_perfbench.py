"""The benchmark tracer wraps tpskit functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_resolve_in_tpskit():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name in tracer.REPORTED:
        module, func = name.split(".")
        if not callable(getattr(importlib.import_module(f"tpskit.{module}"), func, None)):
            missing.append(name)
    assert not missing
