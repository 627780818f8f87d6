"""JSON operator specification files.

A spec file declares a dimension and named operators, each either a dense
complex matrix (entries as finite [re, im] pairs, row-major) or a Pauli
string over IXYZ (dimension 2^length), kept as a string until a dense
reader builds it (``as_matrices``).  Optional sections name generator
lists for bipartition checks and complex state vectors.  Parse failures
raise SpecFileError with the offending field spelled out; they are usage
errors, not computation errors.  Only a dense entry loads numpy.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field

from .errors import SpecFileError
from .pure import parse_pauli_token, pauli_bits, refuse_past_budget


@dataclass(eq=False)
class OperatorSpecFile:
    dim: int
    operators: dict  # name -> dense matrix or Pauli string, as the file gave it
    states: dict = field(default_factory=dict)
    a1_generators: list = field(default_factory=list)
    a2_generators: list = field(default_factory=list)

    def operator(self, name: str) -> np.ndarray:
        if name not in self.operators:
            raise SpecFileError(f"no operator named {name!r} in spec file")
        return as_matrices([self.operators[name]])[0]

    def state(self, name: str) -> np.ndarray:
        if name not in self.states:
            raise SpecFileError(f"no state named {name!r} in spec file")
        return self.states[name]

    def generator_matrices(self, which: str) -> list:
        names = self.a1_generators if which == "a1" else self.a2_generators
        if not names:
            raise SpecFileError(f"spec file declares no {which}_generators")
        return as_matrices(self.operators[n] for n in names)


def as_matrices(ops) -> list:
    """The matrices of ops, each a dense matrix or a Pauli string: each string is refused past
    the byte budget as its own matrix is, then all of them together, before any is built."""
    ops = list(ops)
    if not (strings := [op for op in ops if isinstance(op, str)]):
        return ops
    from .parity import pauli_string_matrix  # only a Pauli string loads parity
    refuse_past_budget((sum(4 ** pauli_bits(s)[0] for s in strings),),  # each string first, then all
                       f"the matrix list of {len(strings)} Pauli strings")
    return [pauli_string_matrix(op) if isinstance(op, str) else op for op in ops]


def _complex_entry(value, where: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) for v in value)):
        raise SpecFileError(f"{where}: expected an [re, im] pair, got {value!r}")
    try:
        z = complex(value[0], value[1])
    except OverflowError:  # an integer past the float range
        raise SpecFileError(f"{where}: entry out of the float range") from None
    if not cmath.isfinite(z):
        raise SpecFileError(f"{where}: non-finite entry {value!r}")
    return z


def _numeric_pairs(value, shape) -> np.ndarray | None:
    """value as a complex array when it is an all-numeric, finite array of
    [re, im] pairs of the given shape (bit-identical to complex(re, im)
    entry by entry), else None: other input takes the per-entry checks."""
    import numpy as np  # only a dense entry loads numpy
    try:
        arr = np.asarray(value)
    except (ValueError, TypeError):
        return None
    if arr.shape != shape + (2,) or arr.dtype.kind not in "biuf" or not np.isfinite(arr).all():
        return None
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = arr[..., 0], arr[..., 1]
    return out


def _dense_matrix(rows, dim: int, where: str) -> np.ndarray:
    import numpy as np  # only a dense entry loads numpy
    if not isinstance(rows, list) or len(rows) != dim:
        raise SpecFileError(f"{where}: expected {dim} rows")
    if all(isinstance(row, list) for row in rows):
        out = _numeric_pairs(rows, (dim, dim))
        if out is not None:
            return out
    out = np.empty((dim, dim), dtype=complex)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise SpecFileError(f"{where} row {r}: expected {dim} entries")
        for c, entry in enumerate(row):
            out[r, c] = _complex_entry(entry, f"{where} row {r} col {c}")
    return out


def _state_vector(entries, dim: int, where: str) -> np.ndarray:
    import numpy as np  # only a dense entry loads numpy
    if not isinstance(entries, list) or len(entries) != dim:
        raise SpecFileError(f"{where}: expected {dim} amplitudes")
    vec = _numeric_pairs(entries, (dim,))
    if vec is None:
        vec = np.array([_complex_entry(e, f"{where} entry {k}")
                        for k, e in enumerate(entries)])
    norm = np.linalg.norm(vec)
    if norm < 1e-14:
        raise SpecFileError(f"{where}: state vector is zero")
    return vec / norm


def _named_entries(data: dict, key: str, what: str, required: tuple):
    """(where, name, entry) for each entry of the section key, which must be a list of
    objects, each with the required fields and a string 'name' that no earlier entry has."""
    fields = " and ".join(map(repr, required)) if len(required) > 1 else f"a {required[0]!r}"
    if not isinstance(section := data.get(key, []), list):
        raise SpecFileError(f"'{key}' must be a list of {what} entries")
    names = set()
    for k, entry in enumerate(section):
        where = f"{key}[{k}]"
        if not isinstance(entry, dict) or any(f not in entry for f in required):
            raise SpecFileError(f"{where}: expected an object with {fields}")
        if not isinstance(name := entry["name"], str):
            raise SpecFileError(f"{where}: 'name' must be a string, got {name!r}")
        if name in names:
            raise SpecFileError(f"{where}: duplicate {what} name {name!r}")
        names.add(name)
        yield where, name, entry


def parse_spec(data: dict) -> OperatorSpecFile:
    if not isinstance(data, dict):
        raise SpecFileError("top level must be a JSON object")
    if "dim" not in data:
        raise SpecFileError("missing required field 'dim'")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SpecFileError(f"'dim' must be a positive integer, got {dim!r}")

    operators = {}
    for where, name, entry in _named_entries(data, "operators", "operator", ("name",)):
        if ("matrix" in entry) == ("pauli" in entry):
            raise SpecFileError(f"{where}: need exactly one of 'matrix' or 'pauli'")
        if "pauli" in entry:
            operators[name] = parse_pauli_token(entry["pauli"], dim)
        else:
            operators[name] = _dense_matrix(entry["matrix"], dim, f"{where}.matrix")

    states = {name: _state_vector(entry["vector"], dim, f"{where}.vector")
              for where, name, entry in _named_entries(data, "states", "state", ("name", "vector"))}

    def name_list(key):
        names = data.get(key, [])
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise SpecFileError(f"'{key}' must be a list of operator names")
        for n in names:
            if n not in operators:
                raise SpecFileError(f"'{key}' references unknown operator {n!r}")
        return list(names)

    return OperatorSpecFile(
        dim=dim,
        operators=operators,
        states=states,
        a1_generators=name_list("a1_generators"),
        a2_generators=name_list("a2_generators"),
    )


def load_spec(path: str) -> OperatorSpecFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"invalid JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    # ValueError: not UTF-8, or an integer literal past Python's 4300-digit limit
    except (OSError, ValueError) as exc:
        raise SpecFileError(f"cannot read spec file {path}: {exc}") from exc
    return parse_spec(data)
