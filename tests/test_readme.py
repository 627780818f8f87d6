"""README's "Library example" runs as written and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_example():
    """The fenced python block under README's "## Library example" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_prints_its_comments():
    code = library_example()
    # each print's expected value is its trailing comment, less a unit word after it
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert expected == ["[(2, 2)]", "1.0 bit", "0.0 bits"]
    assert len(printed) == len(expected)
    for value, comment in zip(printed, expected):
        assert comment == value or comment.startswith(value + " "), (value, comment)
