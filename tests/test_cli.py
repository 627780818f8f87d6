"""Spec-file parsing and CLI behavior: reports, errors, determinism."""

import inspect
import json
import os
import re
import resource
import subprocess
import sys
import time
import types
from math import comb
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import tpskit
import tpskit.cli as cli
from tpskit.algebra import OperatorAlgebra, algebra_residuals
from tpskit.cli import main, render_json
from tpskit.opfile import (
    OperatorSpecFile,
    SpecFileError,
    as_matrices,
    load_spec,
    parse_pauli_token,
    parse_spec,
)
from tpskit.parity import pauli_string_matrix

from helpers import haar_unitary

DATA = Path(__file__).parent / "data"


def as_pairs(M):
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def residuals_of_the_emitted_form(rep, seed):
    """The residuals ``decompose --emit-basis --seed seed`` must report: the oracle's on the
    block shape and the T the report emits."""
    T = np.array([[complex(re, im) for re, im in row] for row in rep["results"]["basis_change"]])
    shape = [(b["n"], b["d"]) for b in rep["results"]["blocks"]]
    alg = OperatorAlgebra(shape, T, rep["residuals"]["block_form"])
    return {"block_form": alg.residual, **algebra_residuals(alg, seed=seed)}


def write_spec(path, dim, operators, states=None, a1=None, a2=None):
    doc = {"dim": dim, "operators": [
        {"name": name, "matrix": as_pairs(M)} for name, M in operators.items()]}
    if states:
        doc["states"] = [{"name": n, "vector": [[float(z.real), float(z.imag)] for z in v]}
                         for n, v in states.items()]
    if a1:
        doc["a1_generators"] = a1
    if a2:
        doc["a2_generators"] = a2
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    return json.loads(out)


# ------------------------------------------------------------------ spec files

class TestSpecFiles:
    def test_parse_dense_and_pauli(self):
        spec = parse_spec({
            "dim": 2,
            "operators": [
                {"name": "m", "matrix": [[[0, 0], [1, -1]], [[1, 1], [0, 0]]]},
            ],
        })
        assert spec.dim == 2
        assert np.allclose(spec.operator("m"), [[0, 1 - 1j], [1 + 1j, 0]])

    def test_pauli_expansion(self):
        spec = parse_spec({"dim": 4, "operators": [{"name": "xx", "pauli": "XX"}]})
        assert np.allclose(spec.operator("xx"), pauli_string_matrix("XX"))

    def test_missing_dim(self):
        with pytest.raises(SpecFileError, match="dim"):
            parse_spec({"operators": []})

    def test_bad_entry_reports_location(self):
        with pytest.raises(SpecFileError, match="row 1 col 0"):
            parse_spec({"dim": 2, "operators": [
                {"name": "m", "matrix": [[[0, 0], [0, 0]], ["bad", [0, 0]]]}]})

    def test_pauli_dim_mismatch(self):
        with pytest.raises(SpecFileError, match="dimension"):
            parse_spec({"dim": 2, "operators": [{"name": "xx", "pauli": "XX"}]})

    def test_duplicate_names(self):
        with pytest.raises(SpecFileError, match="duplicate"):
            parse_spec({"dim": 2, "operators": [
                {"name": "a", "pauli": "X"}, {"name": "a", "pauli": "Z"}]})

    def test_matrix_and_pauli_exclusive(self):
        with pytest.raises(SpecFileError, match="exactly one"):
            parse_spec({"dim": 2, "operators": [
                {"name": "a", "pauli": "X", "matrix": [[[0, 0]]]}]})

    def test_states_are_normalized(self):
        spec = parse_spec({"dim": 2, "operators": [],
                           "states": [{"name": "s", "vector": [[3, 0], [4, 0]]}]})
        assert np.allclose(spec.state("s"), [0.6, 0.8])

    def test_generator_lists_check_references(self):
        with pytest.raises(SpecFileError, match="unknown operator"):
            parse_spec({"dim": 2, "operators": [{"name": "a", "pauli": "X"}],
                        "a1_generators": ["missing"]})

    def test_unknown_operator_lookup(self):
        spec = parse_spec({"dim": 2, "operators": []})
        with pytest.raises(SpecFileError, match="no operator"):
            spec.operator("ghost")

    def test_load_reports_json_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2,\n  "operators": }')
        with pytest.raises(SpecFileError, match="line 2"):
            load_spec(str(bad))

    # messages of parse_spec's checks, those of the per-entry parser among
    # them, which the all-numeric fast path must leave unchanged
    MALFORMED = [
        ("top_level_not_object", [1, 2], "top level must be a JSON object"),
        ("operator_without_name", {"dim": 2, "operators": [{"pauli": "X"}]},
         "operators[0]: expected an object with a 'name'"),
        ("state_without_name", {"dim": 2, "operators": [], "states": [{"vector": [[1, 0], [0, 0]]}]},
         "states[0]: expected an object with 'name' and 'vector'"),
        ("state_without_vector", {"dim": 2, "operators": [], "states": [{"name": "s"}]},
         "states[0]: expected an object with 'name' and 'vector'"),
        ("duplicate_state", {"dim": 2, "operators": [],
                             "states": [{"name": "s", "vector": [[1, 0], [0, 0]]},
                                        {"name": "s", "vector": [[0, 0], [1, 0]]}]},
         "states[1]: duplicate state name 's'"),
        ("generators_not_a_list", {"dim": 2, "operators": [{"name": "a", "pauli": "X"}],
                                   "a1_generators": "a"},
         "'a1_generators' must be a list of operator names"),
        ("generators_not_strings", {"dim": 2, "operators": [{"name": "a", "pauli": "X"}],
                                    "a2_generators": [1]},
         "'a2_generators' must be a list of operator names"),
        ("dim_bool", {"dim": True, "operators": []},
         "'dim' must be a positive integer, got True"),
        ("dim_zero", {"dim": 0, "operators": []},
         "'dim' must be a positive integer, got 0"),
        ("rows_not_list", {"dim": 2, "operators": [{"name": "m", "matrix": "x"}]},
         "operators[0].matrix: expected 2 rows"),
        ("too_few_rows", {"dim": 2, "operators": [
            {"name": "m", "matrix": [[[0, 0], [0, 0]]]}]},
         "operators[0].matrix: expected 2 rows"),
        ("short_row", {"dim": 2, "operators": [
            {"name": "m", "matrix": [[[0, 0], [0, 0]], [[0, 0]]]}]},
         "operators[0].matrix row 1: expected 2 entries"),
        ("row_not_list", {"dim": 2, "operators": [
            {"name": "m", "matrix": [[[0, 0], [0, 0]], "ab"]}]},
         "operators[0].matrix row 1: expected 2 entries"),
        ("tuple_row", {"dim": 2, "operators": [
            {"name": "m", "matrix": [((0, 0), (0, 0)), [[0, 0], [0, 0]]]}]},
         "operators[0].matrix row 0: expected 2 entries"),
        ("string_entry", {"dim": 2, "operators": [
            {"name": "m", "matrix": [[[0, 0], [0, 0]], ["bad", [0, 0]]]}]},
         "operators[0].matrix row 1 col 0: expected an [re, im] pair, got 'bad'"),
        ("numeric_string", {"dim": 2, "operators": [
            {"name": "m", "matrix": [[["1.5", 0], [0, 0]], [[0, 0], [0, 0]]]}]},
         "operators[0].matrix row 0 col 0: expected an [re, im] pair, got ['1.5', 0]"),
        ("triple", {"dim": 2, "operators": [
            {"name": "m", "matrix": [[[0, 0], [0, 0, 0]], [[0, 0], [0, 0]]]}]},
         "operators[0].matrix row 0 col 1: expected an [re, im] pair, got [0, 0, 0]"),
        ("null", {"dim": 2, "operators": [
            {"name": "m", "matrix": [[[0, 0], [0, 0]], [[0, None], [0, 0]]]}]},
         "operators[0].matrix row 1 col 0: expected an [re, im] pair, got [0, None]"),
        ("scalar_entry", {"dim": 2, "operators": [
            {"name": "m", "matrix": [[[0, 0], 1], [[0, 0], [0, 0]]]}]},
         "operators[0].matrix row 0 col 1: expected an [re, im] pair, got 1"),
        ("state_short", {"dim": 2, "operators": [],
                         "states": [{"name": "s", "vector": [[1, 0]]}]},
         "states[0].vector: expected 2 amplitudes"),
        ("state_string", {"dim": 2, "operators": [],
                          "states": [{"name": "s", "vector": [[1, 0], ["0", 1]]}]},
         "states[0].vector entry 1: expected an [re, im] pair, got ['0', 1]"),
        ("state_zero", {"dim": 2, "operators": [],
                        "states": [{"name": "s", "vector": [[0, 0], [0, 0]]}]},
         "states[0].vector: state vector is zero"),
        ("state_nested", {"dim": 2, "operators": [],
                          "states": [{"name": "s", "vector": [[1, [0]], [0, 1]]}]},
         "states[0].vector entry 0: expected an [re, im] pair, got [1, [0]]"),
        ("matrix_int_overflow", {"dim": 2, "operators": [
            {"name": "m", "matrix": [[[10 ** 400, 0], [0, 0]], [[0, 0], [0, 0]]]}]},
         "operators[0].matrix row 0 col 0: entry out of the float range"),
        ("state_int_overflow", {"dim": 2, "operators": [],
                                "states": [{"name": "s", "vector": [[1, 0], [0, -10 ** 400]]}]},
         "states[0].vector entry 1: entry out of the float range"),
    ]

    @pytest.mark.parametrize("case, doc, message", MALFORMED, ids=[c[0] for c in MALFORMED])
    def test_malformed_spec_messages(self, case, doc, message):
        with pytest.raises(SpecFileError) as err:
            parse_spec(doc)
        assert str(err.value) == message

    def test_boolean_dim_is_a_spec_file_error(self, tmp_path, capsys):
        path = tmp_path / "bool_dim.json"
        path.write_text(json.dumps({"dim": True, "operators": [{"name": "x", "pauli": "X"}]}))
        code, out, err = run_cli(["decompose", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == "spec file error: 'dim' must be a positive integer, got True\n"

    def test_numeric_entries_match_per_entry_complex(self):
        # ints, floats and bools, as JSON delivers them, read bit for bit
        # like complex(re, im)
        rng = np.random.default_rng(3)
        dim = 8
        pool = [0, 1, -3, True, False, 0.5, -0.0, 1e-300, 2 ** 60 + 1]
        rows = [[[pool[rng.integers(len(pool))] if rng.random() < 0.3 else float(x)
                  for x in rng.standard_normal(2)] for _ in range(dim)] for _ in range(dim)]
        vector = [[float(x) for x in rng.standard_normal(2)] for _ in range(dim)]
        spec = parse_spec({"dim": dim, "operators": [{"name": "m", "matrix": rows}],
                           "states": [{"name": "s", "vector": vector}]})
        expected = np.array([[complex(re, im) for re, im in row] for row in rows])
        assert spec.operator("m").tobytes() == expected.tobytes()
        v = np.array([complex(re, im) for re, im in vector])
        assert spec.state("s").tobytes() == (v / np.linalg.norm(v)).tobytes()

    @pytest.mark.parametrize("command", ["decompose", "equivalent", "distance",
                                         "entangle-iso", "entangle-state", "bosonic"])
    def test_non_finite_entry_is_a_spec_file_error(self, command, tmp_path, capsys):
        # JSON NaN and Infinity parse as floats; each used to reach a command,
        # which answered, tracebacked or blamed another fault
        u4 = np.eye(4, dtype=complex)
        u4[2, 1] = np.nan
        u2 = np.eye(2, dtype=complex)
        u2[0, 1] = complex(0, np.inf)
        state = np.array([1, 0, 0, np.nan]) / np.sqrt(2)
        four = write_spec(tmp_path / "four.json", 4, {"u": u4},
                          states={"bell": np.array([1, 0, 0, 1]) / np.sqrt(2)})
        states = write_spec(tmp_path / "states.json", 4, {}, states={"s": state})
        two = write_spec(tmp_path / "two.json", 2, {"u": u2})
        argv, where = {
            "decompose": (["decompose", four], "operators[0].matrix row 2 col 1: non-finite entry [nan, 0.0]"),
            "equivalent": (["tps", "equivalent", four, "--dims1", "2,2", "--dims2", "2,2",
                            "--iso1", "u"], "operators[0].matrix row 2 col 1"),
            "distance": (["tps", "distance", four, "--unitary", "u", "--dims", "2,2",
                          "--samples", "100"], "operators[0].matrix row 2 col 1"),
            "entangle-iso": (["tps", "entangle", four, "--state", "bell", "--dims", "2,2",
                              "--iso", "u"], "operators[0].matrix row 2 col 1"),
            "entangle-state": (["tps", "entangle", states, "--state", "s", "--dims", "2,2"],
                               "states[0].vector entry 3: non-finite entry [nan, 0.0]"),
            "bosonic": (["tps", "bosonic", two, "--modes", "2", "--cutoff", "2", "--unitary", "u"],
                        "operators[0].matrix row 0 col 1: non-finite entry [0.0, inf]"),
        }[command]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"spec file error: {where}")

    @pytest.mark.parametrize("raw", [b'{"dim": 1' + b"0" * 4300 + b', "operators": []}',
                                     b'{"dim": 2, "operators": [], "metadata": "\xff"}'],
                             ids=["int_past_4300_digits", "not_utf8"])
    def test_unreadable_file_is_a_spec_file_error(self, raw, tmp_path, capsys):
        # json.load raised ValueError (the int-to-str digit limit) or
        # UnicodeDecodeError, which load_spec let through as a traceback
        path = tmp_path / "spec.json"
        path.write_bytes(raw)
        code, out, err = run_cli(["decompose", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"spec file error: cannot read spec file {path}: ")
        assert err.count("\n") == 1

    MALFORMED_ENTRIES = [
        ("operators_not_a_list", {"dim": 2, "operators": 5},
         "'operators' must be a list of operator entries"),
        ("states_not_a_list", {"dim": 2, "operators": [{"name": "x", "pauli": "X"}], "states": 7},
         "'states' must be a list of state entries"),
        ("operator_name_a_list", {"dim": 2, "operators": [{"name": ["x"], "pauli": "X"}]},
         "operators[0]: 'name' must be a string, got ['x']"),
        ("state_name_an_object", {"dim": 2, "operators": [{"name": "x", "pauli": "X"}],
                                  "states": [{"name": {"a": 1}, "vector": [[1, 0], [0, 0]]}]},
         "states[0]: 'name' must be a string, got {'a': 1}"),
        ("pauli_not_a_string", {"dim": 2, "operators": [{"name": "x", "pauli": 5}]},
         "not a Pauli string over IXYZ: 5"),
    ]

    @pytest.mark.parametrize("case, doc, message", MALFORMED_ENTRIES, ids=[c[0] for c in MALFORMED_ENTRIES])
    def test_malformed_sections_and_names_are_one_spec_file_line(self, case, doc, message, tmp_path, capsys):
        # each raised a raw TypeError: a number is no section, a list or object
        # no name, a number no Pauli string
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["decompose", str(path)], capsys) == (1, "", f"spec file error: {message}\n")

    def test_checks_after_parsing_are_one_spec_file_line(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"dim": 2, "operators": []}')
        assert run_cli(["decompose", str(empty)], capsys) == (
            1, "", "spec file error: spec file declares no operators\n")
        argv = ["tps", "entangle", str(DATA / "bell_xx.json"), "--state", "ghost", "--dims", "2,2"]
        assert run_cli(argv, capsys) == (
            1, "", "spec file error: no state named 'ghost' in spec file\n")

    def test_integer_past_int64_parses_entry_by_entry(self):
        # numpy holds 10**20 in an object array, which the all-numeric path
        # hands to the per-entry parser
        spec = parse_spec({"dim": 1, "operators": [{"name": "m", "matrix": [[[10**20, 0]]]}]})
        assert spec.operator("m")[0, 0] == 1e20

    def test_parse_pauli_token_rejects_junk(self):
        with pytest.raises(SpecFileError):
            parse_pauli_token("XQ")
        with pytest.raises(SpecFileError):
            parse_pauli_token("")


# -------------------------------------------------------------- JSON renderer

class TestRenderJson:
    def test_scalars(self):
        assert render_json(True) == "true"
        assert render_json(None) == "null"
        assert render_json(3) == "3"
        assert render_json(0.5) == "0.5"
        assert render_json(1 / 3) == format(1 / 3, ".17g")

    def test_complex_as_pair(self):
        assert render_json(1 + 2j) == "[1, 2]"

    def test_matrix_rows_inline(self):
        out = render_json(np.eye(2, dtype=complex))
        parsed = json.loads(out)
        assert parsed == [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]

    def test_dict_preserves_order(self):
        out = render_json({"b": 1, "a": 2})
        assert out.index('"b"') < out.index('"a"')

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            render_json(float("nan"))

    def test_rejects_a_type_no_report_holds(self):
        with pytest.raises(TypeError, match="^cannot render set in a report$"):
            render_json({1, 2})

    def test_numpy_scalars_render_as_python_scalars(self):
        # exact Python types take a lookup table, numpy scalars the same table after .item()
        py = [0.1, 3, True, 1 + 2j, None, "a"]
        as_numpy = [np.float64(0.1), np.int64(3), np.bool_(True), np.complex128(1 + 2j),
                    None, "a"]
        expected = '[0.10000000000000001, 3, true, [1, 2], null, "a"]'
        assert render_json(py) == render_json(as_numpy) == expected
        assert render_json([np.float32(0.5), (1, [2])]) == "[\n  0.5,\n  [\n    1,\n    [2]\n  ]\n]"

    def test_empty_lists(self):
        # `tps holonomy --doublings 0` reports ladder_defects as []
        assert render_json([]) == render_json(()) == "[]"
        assert render_json({"a": []}) == '{\n  "a": []\n}'
        assert render_json([[]]) == "[\n  []\n]"


# ------------------------------------------------------------------- commands

class TestDecompose:
    def test_slot_algebra(self, capsys):
        rep = report_of(["decompose", str(DATA / "slot_xz.json")], capsys)
        assert rep["command"] == "decompose"
        assert rep["results"]["blocks"] == [{"n": 2, "d": 2}]
        assert rep["results"]["is_factor"] is True
        assert rep["results"]["dim_algebra"] == 4
        assert rep["results"]["dim_commutant"] == 4
        assert rep["residuals"]["block_form"] < 1e-8
        assert rep["tolerances"]["resid_abs"] == 1e-8

    def test_diagonal_algebra(self, tmp_path, capsys):
        path = write_spec(tmp_path / "diag.json", 4,
                          {"d1": np.diag([1.0, 2.0, 3.0, 4.0])})
        rep = report_of(["decompose", path], capsys)
        assert rep["results"]["blocks"] == [{"n": 1, "d": 1}] * 4
        assert rep["results"]["is_factor"] is False
        assert rep["results"]["center_dim"] == 4

    def test_collective_spin(self, tmp_path, capsys):
        ops = {}
        for axis in "XYZ":
            total = sum(pauli_string_matrix("".join(
                axis if j == q else "I" for j in range(3))) for q in range(3))
            ops[f"s{axis.lower()}"] = total
        path = write_spec(tmp_path / "spin.json", 8, ops)
        rep = report_of(["decompose", path], capsys)
        assert rep["results"]["blocks"] == [{"n": 1, "d": 4}, {"n": 2, "d": 2}]

    def test_commutant_solved_once(self, monkeypatch, capsys):
        import tpskit.algebra as algebra

        real = algebra._generic_commutant
        solves = []
        monkeypatch.setattr(algebra, "_generic_commutant",
                            lambda ops, rng, tol, count: solves.append((len(ops), count))
                            or real(ops, rng, tol, count))
        rep = report_of(["decompose", str(DATA / "slot_xz.json")], capsys)
        # the closure's one solve, on I, X1, Z1: the decomposition is the one it
        # kept, and dim_commutant is read off its shape
        assert solves == [(3, 3)]
        assert rep["results"]["dim_commutant"] == 4

    def test_a_seeded_decompose_solves_once_at_its_seed(self, monkeypatch, capsys):
        # decompose --seed S closes at S: one solve, whose form is the one
        # structure_decompose gives at S
        import tpskit.algebra as algebra

        spec = load_spec(DATA / "slot_xz.json")
        twice = algebra.structure_decompose(
            algebra.close_algebra(as_matrices(spec.operators.values()), dim=spec.dim), seed=5)
        real = algebra._decompose
        seeds = []
        monkeypatch.setattr(algebra, "_decompose",
                            lambda ops, tol, seed: seeds.append(seed) or real(ops, tol, seed))
        rep = report_of(["decompose", "--emit-basis", "--seed", "5", str(DATA / "slot_xz.json")],
                        capsys)
        assert seeds == [5]
        assert rep["results"]["basis_change"] == as_pairs(twice.basis_change)
        assert rep["residuals"]["block_form"] == twice.residual

    def test_full_matrix_algebra_on_thirty_two_dimensions(self, tmp_path, capsys):
        # reach guard: checking all 1024^2 basis products took minutes; the
        # probe pairs leave closure and decomposition to set the pace
        clock = np.diag(np.exp(2j * np.pi * np.arange(32) / 32))
        path = write_spec(tmp_path / "m32.json", 32,
                          {"clock": clock, "shift": np.roll(np.eye(32), 1, axis=0)})
        start = time.perf_counter()
        rep = report_of(["decompose", path], capsys)
        elapsed = time.perf_counter() - start
        assert rep["results"]["blocks"] == [{"n": 1, "d": 32}]
        assert rep["results"]["dim_commutant"] == 1
        assert max(rep["residuals"].values()) < 1e-12
        assert elapsed < 10.0, f"decompose of M_32 took {elapsed:.2f} s"

    def test_the_seed_draws_the_residual_probes(self, capsys):
        # the probe pairs come from --seed: the same seed repeats the report
        # byte for byte, another seed moves the probed residuals, and each seed
        # measures the T it reports (M_2 (x) 1_2)
        argv = ["decompose", str(DATA / "slot_xz.json")]
        seven = [run_cli([*argv, "--seed", "7"], capsys)[1] for _ in range(2)]
        assert seven[0] == seven[1]
        eight = json.loads(run_cli([*argv, "--seed", "8"], capsys)[1])
        seven = json.loads(seven[0])
        assert eight["results"] == seven["results"]
        assert eight["residuals"]["product"] != seven["residuals"]["product"]
        for seed, rep in ((7, seven), (8, eight)):
            emitted = report_of([*argv, "--emit-basis", "--seed", str(seed)], capsys)
            assert emitted["residuals"] == rep["residuals"]
            assert rep["residuals"] == residuals_of_the_emitted_form(emitted, seed)

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_the_residuals_are_those_of_the_reported_form(self, seed, capsys):
        # the closure solves at --seed, and its T need not be seed 0's: the oracle
        # measures the one the report emits
        argv = ["decompose", str(DATA / "slot_xz.json"), "--emit-basis", "--seed", str(seed)]
        rep = report_of(argv, capsys)
        assert rep["residuals"] == residuals_of_the_emitted_form(rep, seed)

    def test_emit_basis(self, capsys):
        rep = report_of(["decompose", str(DATA / "slot_xz.json"), "--emit-basis"], capsys)
        T = np.array([[complex(re, im) for re, im in row]
                      for row in rep["results"]["basis_change"]])
        assert np.max(np.abs(T.conj().T @ T - np.eye(4))) < 1e-10


class TestBipartition:
    def test_natural_slots_accepted(self, tmp_path, capsys):
        w = np.exp(2j * np.pi / 3)
        clock = np.diag([1.0, w, w ** 2])
        shift = np.roll(np.eye(3), 1, axis=0)
        ops = {
            "x1": np.kron(pauli_string_matrix("X"), np.eye(3)),
            "z1": np.kron(pauli_string_matrix("Z"), np.eye(3)),
            "c2": np.kron(np.eye(2), clock),
            "s2": np.kron(np.eye(2), shift),
        }
        path = write_spec(tmp_path / "slots.json", 6, ops,
                          a1=["x1", "z1"], a2=["c2", "s2"])
        rep = report_of(["bipartition", path], capsys)
        assert rep["results"] == {"commuting": True, "join_is_full": True,
                                  "a1_is_factor": True, "verdict": True,
                                  "witness": None}

    def test_duplicated_abelian_rejected(self, tmp_path, capsys):
        D = np.diag([1.0, 2.0, 3.0, 4.0])
        path = write_spec(tmp_path / "abelian.json", 4, {"d": D},
                          a1=["d"], a2=["d"])
        rep = report_of(["bipartition", path], capsys)
        assert rep["results"]["verdict"] is False
        assert rep["results"]["commuting"] is True
        assert rep["results"]["join_is_full"] is False
        assert rep["results"]["witness"] is not None

    def test_the_seed_reaches_the_decomposition(self, capsys):
        # residuals.block_form is the --seed decomposition's, not seed 0's
        from tpskit.algebra import _block_form_residual, close_algebra, structure_decompose

        spec = load_spec(DATA / "bip_slots.json")
        a1, a2 = (close_algebra(spec.generator_matrices(w), dim=spec.dim) for w in ("a1", "a2"))

        def block_form(seed):
            sd = structure_decompose(a1, seed=seed)
            return max(sd.residual, _block_form_residual(a2.generators, sd.basis_change,
                                                         sd.block_shape, side="left"))

        argv = ["bipartition", str(DATA / "bip_slots.json")]
        five = report_of([*argv, "--seed", "5"], capsys)["residuals"]["block_form"]
        zero = report_of(argv, capsys)["residuals"]["block_form"]
        assert (five, zero) == (block_form(5), block_form(0))
        assert five != zero

    @pytest.mark.parametrize("name", ["bip_slots.json", "bip_overlap.json", "bip_abelian.json"])
    def test_a_seeded_bipartition_solves_a1_alone_once_at_its_seed(self, name, monkeypatch, capsys):
        # bipartition --seed S solves one block form, a1's, at S: a2 enters the certificate
        # as its closure seed and is never decomposed, and the report is the certificate of
        # a1 re-solved at S
        import tpskit.algebra as algebra

        spec = load_spec(DATA / name)
        a1, a2 = (algebra.close_algebra(spec.generator_matrices(w), dim=spec.dim) for w in ("a1", "a2"))
        cert = algebra.check_bipartition(algebra.structure_decompose(a1, seed=5), a2, seed=5)
        real = algebra._decompose
        calls = []
        monkeypatch.setattr(algebra, "_decompose",
                            lambda ops, tol, seed: calls.append((ops, seed)) or real(ops, tol, seed))
        rep = report_of(["bipartition", "--seed", "5", str(DATA / name)], capsys)
        assert [seed for _, seed in calls] == [5]
        assert np.array_equal(calls[0][0], a1.generators)
        assert rep["results"]["verdict"] is cert.verdict is (name == "bip_slots.json")
        assert rep["residuals"] == cert.residuals

    def test_a2_noisy_past_its_own_block_form_is_answered(self, tmp_path, capsys):
        # a1 = V (M_8 (x) 1_2) V^dag from two Ginibre generators, a2 = V (1_8 (x) {X, Z}) V^dag
        # plus 1e-6 Hermitian noise of HS norm 1: close_algebra refuses a2's own block form,
        # but the certificate reads a2 as its closure seed alone, so bipartition answers from
        # the commutators
        from tpskit.algebra import close_algebra
        from tpskit.errors import ToleranceError

        rng = np.random.default_rng(3)
        V = haar_unitary(16, rng)

        def noise():
            H = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            return (H + H.conj().T) / np.linalg.norm(H + H.conj().T)

        a1 = [V @ np.kron(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)), np.eye(2)) @ V.conj().T
              for _ in range(2)]
        a2 = [V @ np.kron(np.eye(8), pauli_string_matrix(p)) @ V.conj().T + 1e-6 * noise() for p in "XZ"]
        with pytest.raises(ToleranceError, match="block-form residual"):
            close_algebra(a2)
        path = write_spec(tmp_path / "noisy.json", 16, {"g1": a1[0], "g2": a1[1], "x": a2[0], "z": a2[1]},
                          a1=["g1", "g2"], a2=["x", "z"])
        rep = report_of(["bipartition", path], capsys)
        assert {k: v for k, v in rep["results"].items() if k != "witness"} == {
            "commuting": False, "join_is_full": True, "a1_is_factor": True, "verdict": False}
        witness = np.array([[complex(re, im) for re, im in row] for row in rep["results"]["witness"]])
        assert np.max(np.abs(witness)) == rep["residuals"]["commutator"] > 1e-8

    def test_a_positive_verdict_is_refused_past_its_slot_form(self, tmp_path, capsys):
        # a1 = M_3 (x) 1_2 from diag(1, 1 + 1e-3, -2 - 1e-3) and the hops 1-3, 2-3; a2's X leg
        # leans by eps into P (x) 1, P the projector on (e1 - e2) / sqrt(2), which the hops miss
        # and the 1e-3 gap turns only slowly: the commutator (~1e-3 eps) stays under resid_abs
        # while the slot residual (~0.27 eps) passes it at eps = 1e-7 and not at 2.5e-8
        G1 = np.diag([1.0, 1.0 + 1e-3, -2.0 - 1e-3])
        G2 = np.zeros((3, 3))
        G2[2, :2] = G2[:2, 2] = 1.0
        minus = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        P = np.kron(np.outer(minus, minus), np.eye(2))
        X, Z = (np.kron(np.eye(3), pauli_string_matrix(p)) for p in "XZ")
        answers = []
        for eps in (2.5e-8, 1e-7):
            ops = {"g1": np.kron(G1, np.eye(2)), "g2": np.kron(G2, np.eye(2)), "x": X + eps * P, "z": Z}
            path = write_spec(tmp_path / "lean.json", 6, ops, a1=["g1", "g2"], a2=["x", "z"])
            answers.append(run_cli(["bipartition", path], capsys))
        (code, out, _), (refused, _, err) = answers
        rep = json.loads(out)
        assert code == 0 and rep["results"]["verdict"] is True
        assert rep["residuals"]["commutator"] < 1e-10 < rep["residuals"]["block_form"] <= 1e-8  # the default
        assert (refused, err) == (2, "computation error: ToleranceError: slot-form verification failed "
                                     "on a positive verdict\n")

    def test_missing_generators_is_usage_error(self, tmp_path, capsys):
        path = write_spec(tmp_path / "nogen.json", 2, {"x": pauli_string_matrix("X")})
        code, _, err = run_cli(["bipartition", path], capsys)
        assert code == 1
        assert "a1_generators" in err


def test_records_holding_arrays_compare_by_identity():
    # each record that holds arrays answers == as identity, as OperatorAlgebra does: a
    # field-wise == would ask numpy for one truth value of a whole array and raise
    from tpskit.algebra import check_bipartition, close_algebra
    from tpskit.bosonic import build_fock
    from tpskit.holonomy import LoopPath, builtin_family, refinement_ladder
    from tpskit.parity import validate_parity_set
    from tpskit.tps import TPS

    rect = LoopPath.rectangle((0.0, 0.0), (0.5, 0.5), refinement=2)
    overlap = load_spec(DATA / "bip_overlap.json")  # a negative verdict: its witness is a matrix
    pairs = {
        "UnitaryFamily": lambda: builtin_family("fixture-n2d2")[0],
        "TPS": lambda: TPS.natural((2, 2)),
        "FockSpace": lambda: build_fock(2, 2),
        "ParitySet": lambda: validate_parity_set([pauli_string_matrix("ZZ")]),
        "OperatorSpecFile": lambda: load_spec(DATA / "cnot.json"),  # dense matrices
        "LoopPath": lambda: LoopPath(rect.waypoints.copy(), refinement=2),
        "RefinementLadder": lambda: refinement_ladder(builtin_family("fixture-n2d2")[0], rect, 1, 2, doublings=1),
        "BipartitionCertificate": lambda: check_bipartition(
            *(close_algebra(overlap.generator_matrices(w), dim=overlap.dim) for w in ("a1", "a2"))),
    }
    for kind, build in pairs.items():
        a, b = build(), build()
        assert type(a).__name__ == kind
        assert (a == a, a == b, a != b) == (True, False, True), kind


def _blocks(*shape):
    return [{"n": n, "d": d} for n, d in shape]


DECOMPOSE_RESIDUALS = ["block_form", "identity", "adjoint", "product"]
# Every report field of the fixture commands except basis_change and witness
# matrices (pinned as present or absent) and residual values (pinned by name).
GOLDEN = [
    (["decompose", "slot_xz.json"],
     {"blocks": _blocks((2, 2)), "center_dim": 1, "is_factor": True, "dim_algebra": 4,
      "dim_commutant": 4}, DECOMPOSE_RESIDUALS),
    (["decompose", "slot_xz.json", "--emit-basis"],
     {"blocks": _blocks((2, 2)), "center_dim": 1, "is_factor": True, "dim_algebra": 4,
      "dim_commutant": 4, "basis_change": "matrix"}, DECOMPOSE_RESIDUALS),
    (["decompose", "bell_xx.json"],
     {"blocks": _blocks((2, 1), (2, 1)), "center_dim": 2, "is_factor": False,
      "dim_algebra": 2, "dim_commutant": 8}, DECOMPOSE_RESIDUALS),
    (["decompose", "cnot.json"],
     {"blocks": _blocks((1, 2), (2, 1)), "center_dim": 2, "is_factor": False,
      "dim_algebra": 5, "dim_commutant": 5}, DECOMPOSE_RESIDUALS),
    (["decompose", "bip_slots.json"],
     {"blocks": _blocks((1, 4)), "center_dim": 1, "is_factor": True, "dim_algebra": 16,
      "dim_commutant": 1}, DECOMPOSE_RESIDUALS),
    (["decompose", "bip_overlap.json"],
     {"blocks": _blocks((1, 2), (1, 2)), "center_dim": 2, "is_factor": False,
      "dim_algebra": 8, "dim_commutant": 2}, DECOMPOSE_RESIDUALS),
    (["decompose", "bip_abelian.json"],
     {"blocks": _blocks((1, 1), (1, 1), (1, 1), (1, 1)), "center_dim": 4, "is_factor": False,
      "dim_algebra": 4, "dim_commutant": 4}, DECOMPOSE_RESIDUALS),
    (["bipartition", "bip_slots.json"],
     {"commuting": True, "join_is_full": True, "a1_is_factor": True, "verdict": True,
      "witness": None}, ["commutator", "block_form"]),
    (["bipartition", "bip_overlap.json"],
     {"commuting": False, "join_is_full": False, "a1_is_factor": True, "verdict": False,
      "witness": "matrix"}, ["commutator"]),
    (["bipartition", "bip_abelian.json"],
     {"commuting": True, "join_is_full": False, "a1_is_factor": False, "verdict": False,
      "witness": "matrix"}, ["commutator"]),
]


class TestGoldenFields:
    @pytest.mark.parametrize("argv,results,residuals", GOLDEN,
                             ids=[" ".join(g[0]) for g in GOLDEN])
    def test_fixture_report(self, argv, results, residuals, capsys):
        argv = [argv[0], str(DATA / argv[1]), *argv[2:]]
        rep = report_of(argv, capsys)
        assert list(rep) == ["command", "argv", "seed", "tolerances", "results", "residuals"]
        assert (rep["command"], rep["argv"], rep["seed"]) == (argv[0], argv, 0)
        assert rep["tolerances"] == {"rank_rel": 1e-10, "resid_abs": 1e-8, "degeneracy_gap": 1e-7}
        got = dict(rep["results"])
        for key in ("basis_change", "witness"):
            if got.get(key) is not None:
                got[key] = "matrix"
        assert list(got.items()) == list(results.items())
        assert list(rep["residuals"]) == residuals
        assert all(0.0 <= v < 1e-8 for k, v in rep["residuals"].items() if k != "commutator")


class TestTpsCommands:
    def test_partitions_eight(self, capsys):
        rep = report_of(["tps", "partitions", "8"], capsys)
        assert rep["results"]["count"] == 3
        assert rep["results"]["factorizations"] == [[2, 2, 2], [2, 4], [8]]

    def test_partitions_twelve(self, capsys):
        rep = report_of(["tps", "partitions", "12"], capsys)
        assert rep["results"]["count"] == 4

    def test_partitions_past_the_bound_is_refused_before_dividing(self, capsys):
        # trial division of this prime would take ~1e9 steps
        start = time.perf_counter()
        code, out, err = run_cli(["tps", "partitions", "1000000000000000003"], capsys)
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert err == ("computation error: ContractViolationError: "
                       "n = 1000000000000000003 exceeds the bound 1000000\n")

    def test_partitions_at_the_bound_answers(self, capsys):
        res = report_of(["tps", "partitions", "1000000"], capsys)["results"]
        assert res["count"] == len(res["factorizations"]) > 1
        assert res["factorizations"][-1] == [1000000]

    def test_distance_draw_past_the_budget_is_refused_before_drawing(self, capsys):
        # 1e8 samples' entropies would take 1.6 GB
        start = time.perf_counter()
        code, out, err = run_cli(["tps", "distance", str(DATA / "cnot.json"), "--unitary", "cnot",
                                  "--dims", "2,2", "--samples", "100000000"], capsys)
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert err == ("computation error: ContractViolationError: an entropy stack of 100000000 "
                       "samples needs 1.53e+03 MiB, over the 64 MiB budget\n")

    def test_distance_identity_is_zero(self, capsys):
        rep = report_of(["tps", "distance", str(DATA / "cnot.json"),
                         "--unitary", "identity", "--dims", "2,2",
                         "--samples", "500"], capsys)
        assert rep["results"]["mean"] == 0.0
        assert rep["results"]["stderr"] == 0.0
        assert rep["results"]["distance"] == 0.0

    def test_distance_cnot_reports_fields(self, capsys):
        rep = report_of(["tps", "distance", str(DATA / "cnot.json"),
                         "--unitary", "cnot", "--dims", "2,2",
                         "--samples", "2000", "--seed", "3"], capsys)
        res = rep["results"]
        assert res["samples"] == 2000 and res["seed"] == 3
        assert 0.3 < res["mean"] < 0.7
        assert res["stderr"] > 0
        assert abs(res["distance"] - np.sqrt(res["mean"])) < 1e-15
        assert 0.0 <= rep["residuals"]["unitarity_defect"] < 1e-8

    def test_equivalent_naturals_with_transposed_dims_differ(self, capsys):
        # same dims multiset, but the slots occupy different index strides
        rep = report_of(["tps", "equivalent", "--dims1", "2,4",
                         "--dims2", "4,2"], capsys)
        assert rep["results"]["equivalent"] is False

    def test_equivalent_after_index_swap_iso(self, tmp_path, capsys):
        swap = np.zeros((8, 8))
        for a in range(2):
            for b in range(4):
                swap[a * 4 + b, b * 2 + a] = 1.0
        path = write_spec(tmp_path / "swap.json", 8, {"swap": swap})
        rep = report_of(["tps", "equivalent", path, "--dims1", "2,4",
                         "--dims2", "4,2", "--iso2", "swap"], capsys)
        assert rep["results"]["equivalent"] is True
        assert rep["results"]["permutation"] == [2, 1]

    def test_equivalent_multiset_mismatch(self, capsys):
        rep = report_of(["tps", "equivalent", "--dims1", "2,2,2",
                         "--dims2", "2,4"], capsys)
        assert rep["results"]["equivalent"] is False
        assert rep["results"]["permutation"] is None

    def test_entangle_bell_parity_tps(self, capsys):
        rep = report_of(["tps", "entangle", str(DATA / "bell_xx.json"),
                         "--state", "bell_plus", "--parity", "xx"], capsys)
        assert rep["results"]["value"] == 0.0
        assert rep["results"]["tps_dims"] == [2, 2]

    def test_entangle_bell_natural_tps(self, capsys):
        rep = report_of(["tps", "entangle", str(DATA / "bell_xx.json"),
                         "--state", "bell_plus", "--dims", "2,2"], capsys)
        assert abs(rep["results"]["value"] - 1.0) < 1e-8

    def test_entangle_accepts_bare_pauli_token(self, capsys):
        rep = report_of(["tps", "entangle", str(DATA / "bell_xx.json"),
                         "--state", "bell_minus", "--parity", "XX"], capsys)
        assert rep["results"]["value"] == 0.0

    def test_entangle_parity_answers_at_a_tol_resid_under_the_sector_basis_rounding(self, capsys):
        # the sector iso, built unchecked, has a unitarity defect of 2.2e-16: a check of it
        # refused both tolerances; XX itself meets them exactly
        argv = ["tps", "entangle", str(DATA / "bell_xx.json"), "--state", "bell_plus", "--parity", "xx"]
        default = report_of(argv, capsys)["results"]
        for tol in ("1e-300", "1e-16"):
            assert report_of(argv + ["--tol-resid", tol], capsys)["results"] == default

    def test_entangle_reads_a_bare_token_against_the_spec_dimension(self, capsys):
        # refused as a spec pauli entry is, before its 1024 x 1024 matrix is built and split
        code, out, err = run_cli(["tps", "entangle", str(DATA / "bell_xx.json"),
                                  "--state", "bell_plus", "--parity", "Z" * 10], capsys)
        assert (code, out) == (1, "")
        assert err == "spec file error: Pauli string 'ZZZZZZZZZZ' has dimension 1024, spec declares 4\n"

    def test_entangle_requires_one_structure(self, capsys):
        code, _, err = run_cli(["tps", "entangle", str(DATA / "bell_xx.json"),
                                "--state", "bell_plus"], capsys)
        assert code == 1 and "exactly one" in err

    def test_entangle_rejects_iso_with_parity(self, capsys):
        code, out, err = run_cli(["tps", "entangle", str(DATA / "bell_xx.json"),
                                  "--state", "bell_plus", "--parity", "xx", "--iso", "xx"],
                                 capsys)
        assert code == 1 and out == ""
        assert "usage error: --iso goes with --dims only" in err

    def test_parity_repetition_code(self, capsys):
        rep = report_of(["tps", "parity", "--parity", "ZZI", "IZZ"], capsys)
        assert rep["results"]["n"] == 3 and rep["results"]["k"] == 2
        assert len(rep["results"]["sectors"]) == 4
        assert all(s["dim"] == 2 for s in rep["results"]["sectors"])
        assert rep["results"]["sectors"][0]["label"] == [1, 1]
        assert rep["results"]["tps_dims"] == [2, 4]

    def test_parity_hermiticity_governed_by_tol_resid(self, tmp_path, capsys):
        # a 1e-10 Hermiticity defect: inside the default residual bound,
        # outside --tol-resid 1e-11
        zzi = pauli_string_matrix("ZZI")
        zzi[0, 1] += 1e-10j
        spec = write_spec(tmp_path / "zzi.json", 8, {"zzi": zzi})
        argv = ["tps", "parity", spec, "--parity", "zzi", "IZZ"]
        rep = report_of(argv, capsys)
        assert [s["dim"] for s in rep["results"]["sectors"]] == [2, 2, 2, 2]
        code, _, err = run_cli(argv + ["--tol-resid", "1e-11"], capsys)
        assert code == 2
        assert "ParitySetError" in err

    @pytest.mark.parametrize("tokens, k", [(["XIII", "IYYY"], 2), (["IXZ"], 1)])
    def test_an_all_pauli_set_is_judged_exactly_at_any_tol_resid(self, tokens, k, capsys):
        # the dense split refused these at 1e-300 on its own rounding ("invariant only
        # within 1.110e-16", "iso unitarity defect 2.220e-16"); their bits decide exactly
        rep = report_of(["tps", "parity", "--parity", *tokens, "--tol-resid", "1e-300"], capsys)
        assert rep["results"]["k"] == k

    def test_a_non_commuting_pauli_pair_is_named_at_a_loose_tol_resid(self, capsys):
        # at 1.5 the dense split let XX past ZI and called the pair dependent
        code, out, err = run_cli(["tps", "parity", "--parity", "XX", "ZI", "--tol-resid", "1.5"], capsys)
        assert (code, out) == (2, "")
        assert err == "computation error: ParitySetError: ops 0 and 1 do not commute\n"

    @pytest.mark.parametrize("names", [["a", "b"], ["i", "b"]], ids=["non-commuting", "identity"])
    def test_spec_file_parities_refuse_a_tol_resid_of_one_or_more(self, names, tmp_path, capsys):
        # from 1 up the dense checks pass the identity as traceless and 0 as +-1, so
        # they would call XX, ZI dependent and II, ZI dependent
        spec = write_spec(tmp_path / "ops.json", 4, {"a": pauli_string_matrix("XX"),
                                                     "b": pauli_string_matrix("ZI"),
                                                     "i": pauli_string_matrix("II")})
        for tol in ("1.5", "1"):
            code, out, err = run_cli(["tps", "parity", spec, "--parity", *names, "--tol-resid", tol],
                                     capsys)
            assert (code, out) == (2, "")
            assert err == (f"computation error: ContractViolationError: resid_abs {tol} is not "
                           "below 1, the bound under which a parity set's trace and +-1 checks "
                           "can decide\n")

    def test_parity_full_set_is_computation_error(self, capsys):
        code, _, err = run_cli(["tps", "parity", "--parity", "XX", "YY"], capsys)
        assert code == 2
        assert "ParitySetError" in err

    @pytest.mark.parametrize("argv", [
        ["tps", "parity", "--parity", "XX", "ZZ"],
        ["tps", "entangle", str(DATA / "bell_xx.json"), "--state", "bell_plus", "--parity", "XX", "ZZ"],
    ], ids=["parity", "entangle"])
    def test_no_logical_factor_is_refused_with_its_message(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err == ("computation error: ParitySetError: 2 parities on 2 qubits "
                       "leave no logical factor to decompose\n")

    def test_bosonic_reference_mode_is_product(self, monkeypatch, capsys):
        # the identity frame is build_fock's own: only --unitary goes through transform_modes
        import tpskit.bosonic
        monkeypatch.setattr(tpskit.bosonic, "transform_modes", lambda *args: pytest.fail("rotated"))
        rep = report_of(["tps", "bosonic", "--modes", "2", "--cutoff", "2"], capsys)
        assert rep["results"]["value"] == 0.0
        assert rep["results"]["fock_dim"] == 6
        assert rep["residuals"]["ccr"] < 1e-12

    def test_bosonic_ccr_bound_is_tol_resid(self, tmp_path, capsys):
        # a rotation scaled by 1 + 2e-10 breaks [a_i, a_i^dag] = 1 by ~4e-10:
        # inside the default residual bound, outside --tol-resid 1e-10
        path = write_spec(tmp_path / "scaled.json", 2, {"u": np.eye(2) * (1 + 2e-10)})
        argv = ["tps", "bosonic", path, "--modes", "2", "--cutoff", "3", "--unitary", "u"]
        rep = report_of(argv, capsys)
        assert abs(rep["residuals"]["ccr"] - 4e-10) < 1e-12
        code, out, err = run_cli(argv + ["--tol-resid", "1e-10"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("computation error: ")

    def test_bosonic_beamsplitter_photon(self, tmp_path, capsys):
        path = write_spec(tmp_path / "bs.json", 2,
                          {"bs": np.array([[1, 1], [1, -1]]) / np.sqrt(2)})
        rep = report_of(["tps", "bosonic", path, "--modes", "2", "--cutoff", "2",
                         "--unitary", "bs"], capsys)
        assert abs(rep["results"]["value"] - 1.0) < 1e-8

    def test_bosonic_past_the_size_rule_is_refused_before_any_table(self, capsys):
        # dim 4096 passes the dimension cap; the build's peak is predicted from N and M
        start = time.perf_counter()
        code, out, err = run_cli(["tps", "bosonic", "--modes", "4095", "--cutoff", "1"], capsys)
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert err == ("computation error: ContractViolationError: building the ladder tables of 4095 "
                       "modes at cutoff 1 needs 1.03e+03 MiB, over the 64 MiB budget\n")

    @pytest.mark.parametrize("modes, cutoff", [(60, 2), (200, 1)])
    def test_bosonic_past_the_old_embedding_cap(self, modes, cutoff, capsys):
        # (M+1)^N is 4e28 and 1.6e60: the Schmidt matrix keeps 2 x N
        # occupations; mode 1 of the reference frame is a product
        rep = report_of(["tps", "bosonic", "--modes", str(modes), "--cutoff", str(cutoff)],
                        capsys)
        assert rep["results"]["fock_dim"] == comb(modes + cutoff, modes)
        assert rep["results"]["value"] == 0.0

    def test_holonomy_report(self, capsys):
        rep = report_of(["tps", "holonomy", "--refinement", "8",
                         "--doublings", "2"], capsys)
        res = rep["results"]
        assert res["family"] == "fixture-n2d2"
        assert res["refinements"] == [8, 16, 32]
        assert res["ladder_defects"][1] < res["ladder_defects"][0]
        assert rep["residuals"]["unitarity_defect"] < 1e-8
        H = np.array([[complex(re, im) for re, im in row] for row in res["holonomy"]])
        assert np.max(np.abs(H.conj().T @ H - np.eye(2))) < 1e-10

    def test_holonomy_witness(self, capsys):
        rep = report_of(["tps", "holonomy", "--rect", "0,0,0.8,0.6",
                         "--rect2", "0,0,-0.7,0.5", "--refinement", "32"], capsys)
        assert rep["results"]["witness"] > 0.1

    def test_holonomy_ladder_past_the_stack_cap_is_refused_before_allocation(self, capsys):
        # 2^40 doublings of refinement 16 would be ~7e13 points; the size is
        # predicted from the point count and refused before any is built
        start = time.perf_counter()
        code, out, err = run_cli(["tps", "holonomy", "--doublings", "40"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "ContractViolationError" in err and "budget" in err

    def test_holonomy_eigenspace_out_of_range_is_a_computation_error(self, capsys):
        code, out, err = run_cli(["tps", "holonomy", "--eigenspace", "3"], capsys)
        assert (code, out) == (2, "")
        assert err.strip() == ("computation error: IndexRangeError: "
                               "eigenspace index 3 out of range 1..2")

    @pytest.mark.parametrize("cut", ["5", "0"])
    def test_entangle_cut_out_of_range_is_a_computation_error(self, cut, capsys):
        code, out, err = run_cli(["tps", "entangle", str(DATA / "bell_xx.json"),
                                  "--state", "bell_plus", "--dims", "2,2", "--cut", cut], capsys)
        assert (code, out) == (2, "")
        assert err.strip() == f"computation error: IndexRangeError: cut [{cut}] out of range for 2 factors"

    def test_holonomy_non_finite_rectangle_is_a_computation_error(self, capsys):
        for rect in ("--rect=0,0,inf,0.6", "--rect2=nan,0,0.8,0.6"):
            code, out, err = run_cli(["tps", "holonomy", rect], capsys)
            assert code == 2 and out == ""
            assert "ContractViolationError: waypoints must be finite" in err


def run_fresh(argv, timeout=60, python=("-m", "tpskit")):
    """python -m tpskit ARGV (or python PYTHON ARGV) in a new process, with single-threaded
    BLAS and a 1 GiB address-space limit; returns (exit code, stdout, stderr, seconds)."""
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *python, *argv], capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                          preexec_fn=limit_address_space, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


ASTRONOMIC = str(10**400)


class TestSizeRefusals:
    """Sizes past every budget, and --dims that do not match the spec file,
    are refused with a typed error before anything of that size is built."""

    @pytest.mark.parametrize("argv,error", [
        (["tps", "holonomy", "--refinement", ASTRONOMIC], "ContractViolationError"),
        (["tps", "distance", str(DATA / "cnot.json"), "--unitary", "cnot", "--dims", "2,2",
          "--samples", ASTRONOMIC], "ContractViolationError"),
        # 1e8 samples' entropies are predicted past the budget before the first draw
        (["tps", "distance", str(DATA / "cnot.json"), "--unitary", "cnot", "--dims", "2,2",
          "--samples", "100000000"], "ContractViolationError"),
        (["tps", "holonomy", "--doublings", "20000"], "ContractViolationError"),
        (["tps", "holonomy", "--doublings", "300000"], "ContractViolationError"),
        (["tps", "holonomy", "--doublings", "1000000000"], "ContractViolationError"),
        (["tps", "entangle", str(DATA / "bell_xx.json"), "--state", "bell_plus",
          "--dims", "512,512"], "DimensionMismatchError"),
        (["tps", "entangle", str(DATA / "bell_xx.json"), "--state", "bell_plus",
          "--dims", "64,64"], "DimensionMismatchError"),
        (["tps", "distance", str(DATA / "cnot.json"), "--unitary", "cnot",
          "--dims", "65536,65536"], "DimensionMismatchError"),
        # the point count has more digits than str prints
        (["tps", "holonomy", "--refinement", "9" * 4300], "ContractViolationError"),
        (["tps", "equivalent", str(DATA / "cnot.json"), "--dims1", "4096,4096",
          "--dims2", "4096,4096"], "DimensionMismatchError"),
        # no spec file: the natural structures' identities are predicted past the budget
        (["tps", "equivalent", "--dims1", "4096,4096", "--dims2", "4096,4096"],
         "ContractViolationError"),
        (["tps", "equivalent", "--dims1", "2,2048", "--dims2", "2,2048"],
         "ContractViolationError"),
        # a Pauli string's dense matrix is predicted from its length
        (["tps", "parity", "--parity", "Z" * 12], "ContractViolationError"),
        (["tps", "parity", "--parity", "Z" * 40], "ContractViolationError"),
    ], ids=["refinement", "samples", "samples-1e8", "doublings-2e4", "doublings-3e5", "doublings-1e9",
            "entangle-dims-512", "entangle-dims-64", "distance-dims-65536",
            "refinement-4300-digits", "equivalent-dims-4096", "equivalent-natural-4096x4096",
            "equivalent-natural-2x2048", "parity-pauli-12", "parity-pauli-40"])
    def test_refused_in_a_fresh_process_under_a_second(self, argv, error):
        code, out, err, seconds = run_fresh(argv)
        assert (code, out) == (2, ""), err
        assert err.startswith(f"computation error: {error}: ") and err.count("\n") == 1
        assert seconds < 1.0

    def test_bosonic_past_the_old_work_cap_answers_in_a_fresh_process(self):
        # (64, 2), dim 2145, was refused by the tables' own O(N^2 dim) CCR check; mode 1 of
        # the reference frame is a product, and the ccr is 64 times the tables' rounding
        code, out, err, seconds = run_fresh(["tps", "bosonic", "--modes", "64", "--cutoff", "2"])
        assert code == 0, err
        rep = json.loads(out)
        assert rep["results"]["fock_dim"] == 2145 and rep["results"]["value"] == 0.0
        assert 0 < rep["residuals"]["ccr"] < 1e-13

    @staticmethod
    def twenty_paulis(tmp_path):
        """A spec of twenty seeded 11-letter pauli entries, 64 MiB each as matrices and 1.28e+03
        MiB together, all named in a1_generators, with a state; and the twenty strings."""
        strings = ["".join(row) for row in np.random.default_rng(20).choice(list("IXYZ"), (20, 11))]
        names = [f"p{j}" for j in range(20)]
        path = tmp_path / "twenty.json"
        path.write_text(json.dumps({
            "dim": 2 ** 11, "operators": [{"name": n, "pauli": p} for n, p in zip(names, strings)],
            "states": [{"name": "s", "vector": [[1, 0]] + [[0, 0]] * (2 ** 11 - 1)}],
            "a1_generators": names, "a2_generators": names[:1]}))
        return str(path), strings

    def test_pauli_entries_that_a_command_does_not_read_are_not_built(self, tmp_path):
        # the twenty entries were built at load and died in a raw _ArrayMemoryError
        path, _ = self.twenty_paulis(tmp_path)
        code, out, err, seconds = run_fresh(["tps", "parity", path, "--parity", "ZZIIIIIIIII"])
        assert code == 0, err
        assert json.loads(out)["results"]["tps_dims"] == [1024, 2]
        assert seconds < 1.0

    @pytest.mark.parametrize("command", ["decompose", "bipartition", "entangle"])
    def test_pauli_strings_that_fit_one_at_a_time_are_refused_together(self, command, tmp_path):
        # each of the twenty 11-letter strings fits the budget, and their matrices together do not
        path, strings = self.twenty_paulis(tmp_path)
        argv = {"decompose": ["decompose", path], "bipartition": ["bipartition", path],
                "entangle": ["tps", "entangle", path, "--state", "s", "--parity", *strings]}[command]
        code, out, err, seconds = run_fresh(argv)
        assert (code, out) == (2, "")
        assert err == ("computation error: ContractViolationError: the matrix list of 20 Pauli strings "
                       "needs 1.28e+03 MiB, over the 64 MiB budget\n")
        assert seconds < 1.0

    def test_sizes_that_fit_a_float_keep_their_message(self):
        code, out, err, _ = run_fresh(["tps", "holonomy", "--doublings", "40"])
        assert (code, out) == (2, "")
        assert err == ("computation error: ContractViolationError: a frame stack of 70368744177665 "
                       "points at 4 x 2 needs 8.59e+09 MiB, over the 64 MiB budget\n")

    def test_a_ladder_of_twelve_doublings_answers(self):
        # 262,145 points: their (P, 4, 2) frames, 32 MiB, fit the budget where the
        # (P, 4, 4) family stack was refused by 256 bytes
        code, out, err, _ = run_fresh(["tps", "holonomy", "--doublings", "12"])
        assert code == 0, err
        rep = json.loads(out)
        assert rep["results"]["refinements"][-1] == 16 * 2 ** 12
        assert rep["residuals"]["unitarity_defect"] < 1e-8

    def test_a_pauli_string_is_checked_against_the_spec_dim_before_it_is_built(self, tmp_path):
        # 40 Z's asked for an 8 TiB matrix before the dimension was compared
        path = tmp_path / "z40.json"
        path.write_text(json.dumps({"dim": 4, "operators": [{"name": "z", "pauli": "Z" * 40}]}))
        code, out, err, seconds = run_fresh(["tps", "parity", str(path), "--parity", "z"])
        assert (code, out) == (1, "")
        assert err == (f"spec file error: Pauli string {'Z' * 40!r} has dimension 1099511627776, "
                       "spec declares 4\n")
        assert seconds < 1.0

    @pytest.mark.parametrize("qubits, message", [
        (10, "a commutant product stack of 3 x 3 operators at dim 1024 needs 144 MiB"),
        (11, "the matrix list of 2 Pauli strings needs 128 MiB"),
    ])
    def test_two_paulis_on_many_qubits_are_refused_before_a_stack_is_built(self, qubits, message, tmp_path):
        # X and Z on the first qubit: unchecked, these died in a raw _ArrayMemoryError,
        # in the oracle's probe stack at 10 qubits and in Gram-Schmidt at 11.  At 11 the
        # two matrices, counted together, are refused before either is built; at 10
        # they fit, and so does the closure's seed (the identity, X and Z: both are Hermitian)
        path = tmp_path / f"xz{qubits}.json"
        path.write_text(json.dumps({"dim": 2 ** qubits, "operators": [
            {"name": p.lower(), "pauli": p + "I" * (qubits - 1)} for p in "XZ"]}))
        code, out, err, seconds = run_fresh(["decompose", str(path)])
        assert (code, out) == (2, "")
        assert err == f"computation error: ContractViolationError: {message}, over the 64 MiB budget\n"
        assert seconds < 1.0

    def test_a_local_algebra_past_the_budget_is_refused_at_its_basis(self):
        # factor 2 of (2, 1024) has 1024^2 units at dim 2048: a 64 TiB _ArrayMemoryError unchecked
        code, out, err, seconds = run_fresh(
            [], python=("-c", "from tpskit.tps import TPS, local_algebra; "
                              "local_algebra(TPS.natural((2, 1024)), 2).basis"))
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == ("tpskit.errors.ContractViolationError: a basis of 1048576 elements "
                                        "at dim 2048 needs 6.71e+07 MiB, over the 64 MiB budget")
        assert seconds < 1.0

    def test_dims_are_checked_against_the_spec_before_any_structure(self, monkeypatch, capsys):
        from tpskit import tps

        def no_structure(*args, **kwargs):
            raise AssertionError("a structure was built for mismatched --dims")

        monkeypatch.setattr(tps.TPS, "__post_init__", no_structure)
        for argv in (["tps", "entangle", str(DATA / "bell_xx.json"), "--state", "bell_plus",
                      "--dims", "2,3"],
                     ["tps", "entangle", str(DATA / "bell_xx.json"), "--state", "bell_plus",
                      "--dims", "3,3", "--iso", "xx"],
                     ["tps", "distance", str(DATA / "cnot.json"), "--unitary", "cnot",
                      "--dims", "2,2,2"],
                     ["tps", "equivalent", str(DATA / "cnot.json"), "--dims1", "2,3",
                      "--dims2", "2,2"]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert "DimensionMismatchError: --dims give dimension" in err
            assert "but the spec file declares 4" in err


def test_equivalent_answers_large_pairs_in_a_fresh_process(tmp_path):
    # one transition unitary: no local algebra (d x d per matrix unit) is built
    code, out, err, seconds = run_fresh(["tps", "equivalent", "--dims1", "2,512",
                                         "--dims2", "2,512"])
    assert code == 0, err
    assert json.loads(out)["results"]["permutation"] == [1, 2] and seconds < 5.0
    rng = np.random.default_rng(16)
    iso1 = haar_unitary(256, rng)
    swap = np.eye(256)[np.arange(256).reshape(16, 16).T.reshape(-1)]
    iso2 = iso1 @ swap @ np.kron(haar_unitary(16, rng), haar_unitary(16, rng))
    spec = write_spec(tmp_path / "pair.json", 256, {"iso1": iso1, "iso2": iso2})
    code, out, err, seconds = run_fresh(["tps", "equivalent", spec, "--dims1", "16,16",
                                         "--dims2", "16,16", "--iso1", "iso1", "--iso2", "iso2"])
    assert code == 0, err
    assert json.loads(out)["results"]["permutation"] == [2, 1] and seconds < 5.0


def _collective_spin_spec(tmp_path, N):
    """Jx, Jy and Jz on N qubits."""
    ops = {f"j{axis.lower()}": sum(pauli_string_matrix("".join(axis if j == q else "I" for j in range(N)))
                                   for q in range(N)) / 2 for axis in "XYZ"}
    return write_spec(tmp_path / f"spin{N}.json", 2 ** N, ops)


def test_collective_spin_on_seven_qubits_decomposes_in_a_fresh_process(tmp_path):
    # the double-commutant cuts started from 3432 eigenblock units (858 MiB)
    # and ended in a raw MemoryError under this limit
    code, out, err, _ = run_fresh(["decompose", _collective_spin_spec(tmp_path, 7)])
    assert code == 0, err
    results = json.loads(out)["results"]
    assert sorted((b["n"], b["d"]) for b in results["blocks"]) == [(1, 8), (6, 6), (14, 2), (14, 4)]
    assert (results["dim_algebra"], results["dim_commutant"]) == (120, 429)


def test_collective_spin_on_eight_qubits_decomposes_in_a_fresh_process(tmp_path):
    # eight qubits answer: 165 matrix units of 256 x 256 would take 165 MiB, and
    # neither the decomposition nor its residual oracle builds them
    code, out, err, seconds = run_fresh(["decompose", _collective_spin_spec(tmp_path, 8)])
    assert code == 0, err
    results = json.loads(out)["results"]
    assert sorted((b["n"], b["d"]) for b in results["blocks"]) == [(1, 9), (7, 7), (14, 1), (20, 5), (28, 3)]
    assert (results["dim_algebra"], results["dim_commutant"]) == (165, 1430)
    assert seconds < 10.0, f"decompose of spin N=8 took {seconds:.2f} s"


def _clock_shift(m):
    return np.diag(np.exp(2j * np.pi * np.arange(m) / m)), np.roll(np.eye(m), 1, axis=0)


def test_full_matrix_algebra_on_sixty_four_dimensions_in_a_fresh_process(tmp_path):
    # its 4096-element basis would take 256 MiB
    clock, shift = _clock_shift(64)
    code, out, err, seconds = run_fresh(["decompose", write_spec(tmp_path / "m64.json", 64,
                                                                 {"clock": clock, "shift": shift})])
    assert code == 0, err
    assert json.loads(out)["results"]["blocks"] == [{"n": 1, "d": 64}]
    assert seconds < 3.0, f"decompose of M_64 took {seconds:.2f} s"


def test_a_positive_bipartition_past_a2s_basis_in_a_fresh_process(tmp_path):
    # X, Z (x) 1_40 against 1_2 (x) clock and shift on C^40: a2's basis would take 156 MiB
    clock, shift = _clock_shift(40)
    ops = {"x": np.kron(pauli_string_matrix("X"), np.eye(40)), "z": np.kron(pauli_string_matrix("Z"), np.eye(40)),
           "c": np.kron(np.eye(2), clock), "s": np.kron(np.eye(2), shift)}
    path = write_spec(tmp_path / "bip40.json", 80, ops, a1=["x", "z"], a2=["c", "s"])
    code, out, err, seconds = run_fresh(["bipartition", path])
    assert code == 0, err
    assert json.loads(out)["results"]["verdict"] is True
    assert seconds < 5.0, f"bipartition at d=80 took {seconds:.2f} s"


def test_decompose_and_a_positive_bipartition_build_no_basis(monkeypatch, capsys):
    # the oracle reads the block form and a2 is checked through its generators
    from tpskit import algebra

    def no_units(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(algebra, "_units", no_units)
    for path in sorted(DATA.glob("*.json")):
        for flags in ([], ["--emit-basis"]):
            assert run_cli(["decompose", str(path), *flags], capsys)[0] == 0, path.name
    assert report_of(["bipartition", str(DATA / "bip_slots.json")], capsys)["results"]["verdict"] is True


class TestCliPlumbing:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run_cli(["no-such-command"], capsys)
        assert code == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(["tps", "frobnicate"], capsys)
        assert code == 1

    CNOT_SPEC = str(DATA / "cnot.json")
    ARGUMENT_ERRORS = [
        ("dims_not_integers", ["tps", "distance", CNOT_SPEC, "--unitary", "cnot", "--dims", "2,x"],
         "argument --dims: --dims expects comma-separated integers"),
        ("dims_empty", ["tps", "distance", CNOT_SPEC, "--unitary", "cnot", "--dims", ""],
         "argument --dims: --dims expects comma-separated integers"),
        ("rect_three_numbers", ["tps", "holonomy", "--rect", "1,2,3"],
         "argument --rect: rectangle expects exactly four numbers"),
        ("rect_not_numbers", ["tps", "holonomy", "--rect", "a,b,c,d"],
         "argument --rect: rectangle expects ax,ay,bx,by"),
        ("bosonic_unitary_without_file", ["tps", "bosonic", "--modes", "2", "--cutoff", "2",
                                          "--unitary", "u"],
         "--unitary needs a spec file to read from"),
        ("equivalent_iso_without_file", ["tps", "equivalent", "--dims1", "2,2", "--dims2", "2,2",
                                         "--iso1", "u"],
         "--iso1/--iso2 need a spec file to read from"),
        ("tol_resid_inf", ["tps", "partitions", "4", "--tol-resid", "inf"],
         "tolerances must be finite and strictly positive"),
        ("tol_resid_past_the_float_range", ["tps", "partitions", "4", "--tol-resid", "1e400"],
         "tolerances must be finite and strictly positive"),
        ("seed_negative_decompose", ["decompose", str(DATA / "slot_xz.json"), "--seed", "-1"],
         "argument --seed: --seed expects a non-negative integer, got '-1'"),
        ("seed_negative_distance", ["tps", "distance", CNOT_SPEC, "--unitary", "cnot",
                                    "--dims", "2,2", "--seed", "-1"],
         "argument --seed: --seed expects a non-negative integer, got '-1'"),
        ("seed_not_an_integer", ["tps", "partitions", "4", "--seed", "x"],
         "argument --seed: --seed expects a non-negative integer, got 'x'"),
    ]

    @pytest.mark.parametrize("case, argv, message", ARGUMENT_ERRORS,
                             ids=[c[0] for c in ARGUMENT_ERRORS])
    def test_argument_errors_are_one_usage_line(self, case, argv, message, capsys):
        assert run_cli(argv, capsys) == (1, "", f"usage error: {message}\n")

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(["decompose", "/no/such/file.json"], capsys)
        assert code == 1
        assert "spec file" in err

    def test_bosonic_reads_its_file_without_unitary(self, tmp_path, capsys):
        # the spec file is read before any command runs, even one that needs none of it
        argv = ["tps", "bosonic", str(tmp_path / "MISSING.json"), "--modes", "2", "--cutoff", "2"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("spec file error: cannot read spec file ")

    def test_bad_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(["decompose", str(bad)], capsys)
        assert code == 1 and "line" in err

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(["tps", "partitions", "8", "--out", str(out)], capsys)
        assert code == 0 and stdout == ""
        assert json.loads(out.read_text())["results"]["count"] == 3

    @pytest.mark.parametrize("where", ["missing_directory", "directory"])
    def test_an_unwritable_out_path_is_a_usage_error(self, where, tmp_path, capsys):
        # the write failed with a raw FileNotFoundError or IsADirectoryError traceback
        # after the work was done; it is one line in the CLI's style, and exit 1
        out = {"missing_directory": tmp_path / "no_such_dir" / "x.json", "directory": tmp_path}[where]
        reason = {"missing_directory": "No such file or directory", "directory": "Is a directory"}[where]
        code, stdout, err = run_cli(["tps", "partitions", "12", "--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert err == f"usage error: cannot write report to {out}: {reason}\n"

    def test_argv_echoed(self, capsys):
        rep = report_of(["tps", "partitions", "8"], capsys)
        assert rep["argv"] == ["tps", "partitions", "8"]

    def test_custom_tolerances_echoed(self, capsys):
        rep = report_of(["tps", "partitions", "8", "--tol-resid", "1e-6"], capsys)
        assert rep["tolerances"]["resid_abs"] == 1e-6

    def test_wall_time_on_stderr_only(self, capsys):
        code, out, err = run_cli(["tps", "partitions", "8"], capsys)
        assert "wall-time" in err
        assert "wall-time" not in out


class TestToleranceReachesChecks:
    # operators with a unitarity defect of ~5e-13: inside the default
    # residual bound, outside --tol-resid 1e-14
    SCALE = 1 + 2.5e-13
    CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

    def spec(self, tmp_path):
        bs = self.SCALE * np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        two = write_spec(tmp_path / "two.json", 2, {"bs": bs})
        four = write_spec(tmp_path / "four.json", 4, {"u": self.SCALE * self.CNOT},
                          states={"s": np.array([1, 0, 0, 1]) / np.sqrt(2)})
        return two, four

    @pytest.mark.parametrize("command", ["distance", "equivalent", "entangle", "bosonic"])
    def test_defect_accepted_by_default_rejected_when_tight(self, command, tmp_path, capsys):
        two, four = self.spec(tmp_path)
        argv = {
            "distance": ["tps", "distance", four, "--unitary", "u", "--dims", "2,2",
                         "--samples", "100"],
            "equivalent": ["tps", "equivalent", four, "--dims1", "2,2", "--dims2", "2,2",
                           "--iso2", "u"],
            "entangle": ["tps", "entangle", four, "--state", "s", "--dims", "2,2", "--iso", "u"],
            "bosonic": ["tps", "bosonic", two, "--modes", "2", "--cutoff", "2",
                        "--unitary", "bs"],
        }[command]
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        code, _, err = run_cli(argv + ["--tol-resid", "1e-14"], capsys)
        assert code == 2
        assert "ContractViolationError" in err and "unitar" in err


@pytest.mark.parametrize("rect2", [[], ["--rect2", "0,0,-0.7,0.5"]], ids=["ladder", "witness"])
def test_holonomy_answers_as_at_the_default_under_its_own_rounding(rect2, capsys):
    # the holonomy (6.2e-14 off unitary), its frames (1.1e-15) and the generators'
    # eigenbases (4.4e-16) are unitary by construction and not judged at --tol-resid:
    # a bound under their rounding refused them; it now gives the default's report
    default = report_of(["tps", "holonomy", *rect2], capsys)
    for tol in ("1e-14", "1e-16", "1e-300"):
        rep = report_of(["tps", "holonomy", *rect2, "--tol-resid", tol], capsys)
        assert (rep["results"], rep["residuals"]) == (default["results"], default["residuals"]), tol


def test_the_natural_structure_is_built_at_the_cli_tolerance(tmp_path, capsys):
    # exp(1e-9 i Z (x) Z) realigns with s_2 / s_1 = tan(1e-9): a match at the default
    # resid_abs, none at --tol-resid 1e-10, which the natural structure --dims1 must carry
    u = np.diag(np.exp(1e-9j * np.array([1, -1, -1, 1])))
    argv = ["tps", "equivalent", write_spec(tmp_path / "zz.json", 4, {"u": u}),
            "--dims1", "2,2", "--dims2", "2,2", "--iso2", "u"]
    assert report_of(argv, capsys)["results"]["permutation"] == [1, 2]
    assert report_of(argv + ["--tol-resid", "1e-10"], capsys)["results"]["equivalent"] is False


@pytest.mark.parametrize("command, name", [("decompose", "slot_xz.json"), ("bipartition", "bip_overlap.json")])
def test_a_tolerance_under_rounding_names_the_k3_bound(command, name, capsys):
    # at 1e-300 every probe draw links its copies and fails K3's left slot-form check on
    # rounding alone (6.2e-17 to 4.7e-16 in the 16 draws): the refusal names the smallest
    # of those residuals and the bound it was held to
    code, out, err = run_cli([command, str(DATA / name), "--tol-resid", "1e-300"], capsys)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"computation error: DegeneracyError: no generic commutant element in 16 draws: "
                        r"smallest K3 slot-form residual \d\.\d{3}e-1[67], over resid_abs 1\.000e-300\n", err), err


class TestDeterminism:
    def run_bytes(self, argv):
        proc = subprocess.run([sys.executable, "-m", "tpskit", *argv],
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    def test_distance_byte_identical(self):
        argv = ["tps", "distance", str(DATA / "cnot.json"), "--unitary", "cnot",
                "--dims", "2,2", "--samples", "2000", "--seed", "7"]
        assert self.run_bytes(argv) == self.run_bytes(argv)

    def test_decompose_byte_identical(self):
        argv = ["decompose", str(DATA / "slot_xz.json"), "--emit-basis", "--seed", "1"]
        assert self.run_bytes(argv) == self.run_bytes(argv)

    def test_holonomy_byte_identical(self):
        argv = ["tps", "holonomy", "--refinement", "8", "--doublings", "1"]
        assert self.run_bytes(argv) == self.run_bytes(argv)


class TestParserReuse:
    def test_one_parser_per_process(self, monkeypatch, capsys):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "tpskit":
                built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        codes = [main(argv) for argv in (
            ["tps", "partitions", "8"],
            ["decompose", str(DATA / "slot_xz.json")],
            ["tps", "frobnicate"],
            ["tps", "holonomy", "--rect=0,0,inf,0.6"],
            ["bipartition"],
            ["tps", "parity", "--parity", "ZZ"],
        )]
        capsys.readouterr()
        assert codes == [0, 0, 1, 2, 1, 0]
        assert len(built) == 1

    def test_reused_parser_leaks_no_state(self, tmp_path, capsys):
        # each command with non-default flags, then with its defaults, all
        # in this process; every outcome must match a fresh process's
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        slot, bip = str(DATA / "slot_xz.json"), str(DATA / "bip_slots.json")
        cnot, bell = str(DATA / "cnot.json"), str(DATA / "bell_xx.json")
        iso_with_parity = ["tps", "entangle", bell, "--state", "bell_plus", "--parity", "xx",
                           "--iso", "xx"]
        cases = [
            (["decompose", slot, "--emit-basis", "--seed", "4", "--tol-rank", "1e-9",
              "--out", out1], 0),
            (["decompose", slot], 0),
            (["bipartition", bip, "--tol-resid", "1e-7", "--seed", "2"], 0),
            (["bipartition", bip], 0),
            (["tps", "partitions", "12", "--seed", "5", "--out", out2], 0),
            (["tps", "partitions", "12"], 0),
            (["tps", "distance", cnot, "--unitary", "cnot", "--dims", "2,2",
              "--measure", "linear", "--cut", "2", "--samples", "50", "--seed", "3",
              "--tol-resid", "1e-9"], 0),
            (["tps", "distance", cnot, "--unitary", "cnot", "--dims", "1,2"], 1),
            (["tps", "distance", cnot, "--unitary", "cnot", "--dims", "2,2"], 0),
            (["tps", "equivalent", cnot, "--dims1", "2,2", "--dims2", "2,2",
              "--iso1", "cnot", "--iso2", "swap"], 0),
            (["tps", "equivalent", "--dims1", "2,2", "--dims2", "4"], 0),
            (["tps", "entangle", bell, "--state", "bell_minus", "--parity", "xx",
              "--measure", "linear"], 0),
            (iso_with_parity, 1),
            (["tps", "entangle", bell, "--state", "bell_plus", "--dims", "2,2"], 0),
            (["tps", "parity", "--parity", "ZZI", "IZZ", "--seed", "9"], 0),
            (["tps", "parity", "--parity", "ZZ"], 0),
            (["tps", "bosonic", "--modes", "3", "--cutoff", "2", "--excite", "2",
              "--measure", "linear", "--cut", "1,2"], 0),
            (["tps", "bosonic", "--modes", "2", "--cutoff", "2"], 0),
            (["tps", "holonomy", "--rect2", "0,0,0.5,0.9", "--doublings", "2",
              "--refinement", "8"], 0),
            (["tps", "holonomy", "--rect2", "0.1,0,0.5,0.9"], 2),
            (["tps", "frobnicate"], 1),
            (["tps", "holonomy"], 0),
            (["decompose", slot, "--tol-rank", "2"], 1),
            (["decompose", slot, "--emit-basis"], 0),
        ]

        def outcome(argv, code, stdout, stderr):
            path = argv[argv.index("--out") + 1] if "--out" in argv else None
            written = Path(path).read_text(encoding="utf-8") if path else None
            # a successful run's stderr holds only its wall time
            return code, stdout, written, stderr if code else None

        mine = [outcome(argv, *run_cli(argv, capsys)) for argv, _ in cases]

        def fresh(argv):
            proc = subprocess.run([sys.executable, "-m", "tpskit", *argv],
                                  capture_output=True, text=True, timeout=120)
            return outcome(argv, proc.returncode, proc.stdout, proc.stderr)

        with ThreadPoolExecutor(max_workers=2) as pool:
            theirs = list(pool.map(fresh, [argv for argv, _ in cases]))
        for (argv, expected), m, t in zip(cases, mine, theirs):
            assert m[0] == expected and m == t, argv
        iso_error = mine[cases.index((iso_with_parity, 1))][3]
        assert iso_error == "usage error: --iso goes with --dims only\n"


def _fresh_import_of_tpskit(expr, then="pass"):
    """Evaluate expr in a new interpreter right after `import sys, tpskit` and `then`."""
    src = Path(sys.modules["tpskit"].__file__).parents[1]
    proc = subprocess.run([sys.executable, "-c", f"import sys, tpskit; {then}; print({expr})"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: no module of the package may pull it in
    assert _fresh_import_of_tpskit(
        "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        then="import importlib, pkgutil; [importlib.import_module('tpskit.' + m.name) "
             "for m in pkgutil.iter_modules(tpskit.__path__) if m.name != '__main__']") == "[]"


def test_import_builds_no_parser():
    # the benchmark's set-up time is `import tpskit`: the CLI module and its
    # parser load on first use, not there
    assert _fresh_import_of_tpskit(
        "[m for m in ('argparse', 'tpskit.cli') if m in sys.modules]") == "[]"


def test_import_loads_no_layer():
    assert _fresh_import_of_tpskit(
        "[m for m in sys.modules if m == 'numpy' or m.startswith('tpskit.')]") == "[]"


def _fresh_main(argv, unloaded):
    """Exit code of main(argv) in a new interpreter, and which of the modules
    `unloaded` it loaded."""
    return _fresh_import_of_tpskit(
        f"code, [m for m in {unloaded!r} if m in sys.modules]",
        then=f"import tpskit.cli; code = tpskit.cli.main({argv!r})")


def test_a_command_loads_only_its_layers(tmp_path):
    # a matrix spec: a Pauli entry would load parity to build its matrix
    spec = write_spec(tmp_path / "slot.json", 4, {"x1": pauli_string_matrix("XI"),
                                                   "z1": pauli_string_matrix("ZI")})
    out = str(tmp_path / "report.json")
    assert _fresh_main(["decompose", spec, "--out", out],
                       ("tpskit.holonomy", "tpskit.bosonic", "tpskit.parity", "tpskit.tps")
                       ) == "0 []"
    for argv in (["tps", "holonomy"], ["tps", "partitions", "12"],
                 ["tps", "equivalent", str(DATA / "cnot.json"), "--dims1", "2,2", "--dims2", "2,2",
                  "--iso1", "swap"]):
        assert _fresh_main([*argv, "--out", out], ("tpskit.algebra",)) == "0 []"
    # a command that builds no matrix loads no numpy, and neither do the numpy-free exports
    no_matrix = ("numpy", "tpskit.numerics", "tpskit.opfile", "tpskit.parity", "tpskit.tps")
    for argv in (["tps", "partitions", "12"], ["tps", "parity", "--parity", "ZZI", "IZZ"]):
        assert _fresh_main([*argv, "--out", out], no_matrix) == "0 []"
    assert _fresh_import_of_tpskit("'numpy' in sys.modules", then="tpskit.Tolerance, "
                                   "tpskit.DEFAULT_TOL, tpskit.multiplicative_partitions") == "False"
    # Pauli tokens are judged from their bits: no sector structure is built
    assert _fresh_main(["tps", "parity", "--parity", "ZZI", "IZZ", "--out", out],
                       ("tpskit.tps", "tpskit.algebra")) == "0 []"
    # and so are spec-file Pauli entries, read with no numpy: only a dense entry loads it
    paulis = tmp_path / "paulis.json"
    paulis.write_text(json.dumps({"dim": 8, "operators": [{"name": "a", "pauli": "ZZI"},
                                                          {"name": "b", "pauli": "IZZ"}]}))
    assert _fresh_main(["tps", "parity", str(paulis), "--parity", "a", "b", "--out", out],
                       ("tpskit.tps", "tpskit.algebra", "numpy", "tpskit.numerics", "tpskit.parity")
                       ) == "0 []"


def test_eleven_qubit_parities_answer_from_their_bits_in_a_fresh_process(tmp_path):
    # three 11-qubit strings: the dense split ran on 2048 x 2048 matrices for ~7 s
    argv = ["tps", "parity", "--parity", "ZZIIIIIIIII", "IZZIIIIIIII", "XXXXXXXXXXX"]
    code, out, err, seconds = run_fresh(argv)
    assert code == 0, err
    assert [s["dim"] for s in json.loads(out)["results"]["sectors"]] == [256] * 8
    assert seconds < 0.5
    out_path = str(tmp_path / "report.json")
    assert _fresh_main([*argv, "--out", out_path],
                       ("tpskit.tps", "tpskit.algebra", "numpy", "tpskit.numerics", "tpskit.opfile")
                       ) == "0 []"


def test_export_list_matches_the_package_namespace():
    # __init__ names each export once, in its table of home modules, and binds
    # it on first access to the object its home module defines
    for name in tpskit.__all__:
        if name != "__version__":
            value = getattr(tpskit, name)
            assert value is getattr(sys.modules[value.__module__], name), name
    public = {name for name, value in vars(tpskit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(tpskit.__all__) - {"__version__"} == public


def test_no_export_that_reads_a_record_takes_a_tolerance():
    # an algebra, a family, a structure, a parity set, a Fock space or its modes carries
    # the tolerance it was checked at, and every function or method that reads one decides
    # there: only a constructor sets it; annotations are read as written, a name or a class
    records = ("OperatorAlgebra", "UnitaryFamily", "TPS", "ParitySet", "FockSpace")
    assert all("tol" in inspect.signature(getattr(tpskit, r)).parameters for r in records)
    # a family is built from its generators, by its constructor: no second builder is exported
    assert "exponential_family" not in tpskit._HOME
    offenders = []
    for name in (name for names in tpskit._HOMES.values() for name in names):
        value = getattr(tpskit, name)
        if isinstance(value, type):
            members = [(f"{name}.{m}", f, name in records) for m, f in vars(value).items()
                       if inspect.isfunction(f) and m != "__init__"]
        else:
            members = [(name, value, False)] if callable(value) else []
        for label, f, is_method in members:
            params = inspect.signature(f).parameters
            if "tol" in params and (is_method or any(r in str(p.annotation) for p in params.values()
                                                     for r in records)):
                offenders.append(label)
    assert offenders == []
