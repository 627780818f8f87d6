"""The benchmark tracer wraps tpskit functions by name; every name must resolve, and
its size annotations must read every decomposition."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from tpskit.algebra import close_algebra, commutant, structure_decompose

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve_in_tpskit():
    tracer = load_tracer()
    missing = []
    for name in tracer.REPORTED:
        module, func = name.split(".")
        if not callable(getattr(importlib.import_module(f"tpskit.{module}"), func, None)):
            missing.append(name)
    assert not missing


def test_the_tracer_counts_the_blocks_of_a_solved_and_of_a_derived_decomposition():
    # the tracer reads len(result.blocks): without that alias its structure_decompose spans fail
    tracer = load_tracer()
    sx, sz = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    alg = close_algebra([np.kron(np.eye(2), sx), np.kron(np.eye(2), sz), np.kron(sz, np.eye(2))])
    for algebra, blocks in ((alg, [(1, 2), (1, 2)]), (commutant(alg), [(2, 1), (2, 1)])):
        sd = structure_decompose(algebra)
        assert sd.block_shape == blocks
        assert tracer._extras("algebra.structure_decompose", (algebra,), sd) == {"blocks": 2}
