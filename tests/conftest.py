"""Make the source tree importable without installing the package: in the
test process and in the ``python -m tpskit`` subprocesses that the CLI
tests start."""

import os
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
