"""Spec-file parsing and CLI behavior: reports, errors, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tpskit.cli import main, render_json
from tpskit.opfile import (
    OperatorSpecFile,
    SpecFileError,
    load_spec,
    parse_pauli_token,
    parse_spec,
)
from tpskit.parity import pauli_string_matrix

DATA = Path(__file__).parent / "data"


def as_pairs(M):
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


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

    def test_hyphenated_generator_keys_accepted(self):
        spec = parse_spec({"dim": 2, "operators": [{"name": "a", "pauli": "X"}],
                           "a1-generators": ["a"]})
        assert spec.a1_generators == ["a"]

    def test_unknown_operator_lookup(self):
        spec = parse_spec({"dim": 2, "operators": []})
        with pytest.raises(SpecFileError, match="no operator"):
            spec.operator("ghost")

    def test_load_reports_json_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2,\n  "operators": }')
        with pytest.raises(SpecFileError, match="line 2"):
            load_spec(str(bad))

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

    def test_missing_generators_is_usage_error(self, tmp_path, capsys):
        path = write_spec(tmp_path / "nogen.json", 2, {"x": pauli_string_matrix("X")})
        code, _, err = run_cli(["bipartition", path], capsys)
        assert code == 1
        assert "a1_generators" in err


class TestTpsCommands:
    def test_partitions_eight(self, capsys):
        rep = report_of(["tps", "partitions", "8"], capsys)
        assert rep["results"]["count"] == 3
        assert rep["results"]["factorizations"] == [[2, 2, 2], [2, 4], [8]]

    def test_partitions_twelve(self, capsys):
        rep = report_of(["tps", "partitions", "12"], capsys)
        assert rep["results"]["count"] == 4

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

    def test_entangle_requires_one_structure(self, capsys):
        code, _, err = run_cli(["tps", "entangle", str(DATA / "bell_xx.json"),
                                "--state", "bell_plus"], capsys)
        assert code == 1 and "exactly one" in err

    def test_parity_repetition_code(self, capsys):
        rep = report_of(["tps", "parity", "--parity", "ZZI", "IZZ"], capsys)
        assert rep["results"]["n"] == 3 and rep["results"]["k"] == 2
        assert len(rep["results"]["sectors"]) == 4
        assert all(s["dim"] == 2 for s in rep["results"]["sectors"])
        assert rep["results"]["sectors"][0]["label"] == [1, 1]
        assert rep["results"]["tps_dims"] == [2, 4]

    def test_parity_full_set_is_computation_error(self, capsys):
        code, _, err = run_cli(["tps", "parity", "--parity", "XX", "YY"], capsys)
        assert code == 2
        assert "ParitySetError" in err

    def test_bosonic_reference_mode_is_product(self, capsys):
        rep = report_of(["tps", "bosonic", "--modes", "2", "--cutoff", "2"], capsys)
        assert rep["results"]["value"] == 0.0
        assert rep["results"]["fock_dim"] == 6
        assert rep["residuals"]["ccr"] < 1e-12

    def test_bosonic_beamsplitter_photon(self, tmp_path, capsys):
        path = write_spec(tmp_path / "bs.json", 2,
                          {"bs": np.array([[1, 1], [1, -1]]) / np.sqrt(2)})
        rep = report_of(["tps", "bosonic", path, "--modes", "2", "--cutoff", "2",
                         "--unitary", "bs"], capsys)
        assert abs(rep["results"]["value"] - 1.0) < 1e-8

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


class TestCliPlumbing:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run_cli(["no-such-command"], capsys)
        assert code == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(["tps", "frobnicate"], capsys)
        assert code == 1

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(["decompose", "/no/such/file.json"], capsys)
        assert code == 1
        assert "spec file" in err

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


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: the package itself must not pull it in
    src = Path(sys.modules["tpskit"].__file__).parents[1]
    code = "import sys, tpskit; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
