"""tools/compare_reports.py names the JSON key paths at which two reports differ."""

import importlib.util
import json
from math import comb
from pathlib import Path

from tpskit.cli import main

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _TOOL)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def test_paths_of_differing_keys_nested_and_one_sided():
    a = {"results": {"blocks": [{"n": 1, "d": 2}], "dim": 4},
         "residuals": {"identity": 1e-16, "product": 2e-16}}
    b = {"results": {"blocks": [{"n": 1, "d": 2}], "dim": 4},
         "residuals": {"identity": 1e-16, "product": 3e-16, "adjoint": 0.0}}
    assert compare_reports.report_changes(json.dumps(a), json.dumps(b)) == [
        ("residuals.product", 1e-16), ("residuals.adjoint", None)]


def test_a_list_differs_as_a_whole():
    a = {"results": {"blocks": [{"n": 1, "d": 2}, {"n": 2, "d": 1}]}}
    b = {"results": {"blocks": [{"n": 1, "d": 2}, {"n": 1, "d": 1}]}}
    assert compare_reports.report_changes(json.dumps(a), json.dumps(b)) == [("results.blocks", None)]


def test_reports_that_differ_only_in_text_or_are_not_json():
    assert compare_reports.report_changes('{"a": 1}', '{"a":1}') == [("<text only>", None)]
    assert compare_reports.report_changes("", '{"a": 1}') == [("<not JSON>", None)]
    assert compare_reports.report_changes("[1]", "[2]") == [("<whole report>", 1.0)]


def test_each_differing_path_carries_its_largest_change():
    # numbers and equal-shape numeric lists, complex [re, im] pairs included, give the
    # largest change of any one number; anything else gives None
    a = {"results": {"holonomy": [[[0.5, -0.25], [0.0, 1.0]], [[1.0, 0.0], [0.5, 0.25]]],
                     "mean": 0.75, "defects": [1e-3, 2e-4], "equivalent": True,
                     "blocks": [{"n": 1}], "shape": [1, 2], "name": "a"},
         "residuals": {"unitarity_defect": 1e-13}}
    b = {"results": {"holonomy": [[[0.5, -0.25 + 2**-42], [0.0, 1.0]], [[1.0 - 2**-47, 0.0], [0.5, 0.25]]],
                     "mean": 0.75 + 2**-50, "defects": [1e-3, 2.5e-4], "equivalent": False,
                     "blocks": [{"n": 2}], "shape": [1, 2, 3], "name": "b"},
         "residuals": {"unitarity_defect": 3}}
    changes = dict(compare_reports.report_changes(json.dumps(a), json.dumps(b)))
    assert list(changes) == ["results.holonomy", "results.mean", "results.defects",
                             "results.equivalent", "results.blocks", "results.shape",
                             "results.name", "residuals.unitarity_defect"]
    assert changes["results.holonomy"] == 2**-42 and changes["results.mean"] == 2**-50
    assert changes["results.defects"] == 2.5e-4 - 2e-4
    assert changes["residuals.unitarity_defect"] == 3 - 1e-13
    assert [changes[p] for p in ("results.equivalent", "results.blocks", "results.shape",
                                 "results.name")] == [None] * 4
    assert compare_reports.largest_change([[1, 2], [3]], [[1, 2], [4]]) is None  # ragged
    assert compare_reports.largest_change(None, 1.0) is None
    assert compare_reports.change_text("results.mean", 1e-15) == "results.mean by 1e-15"
    assert compare_reports.change_text("results.blocks", None) == "results.blocks"


def test_every_decompose_job_has_an_emit_basis_twin(tmp_path):
    # no benchmark job emits basis_change: the twins are what compares T
    jobs = compare_reports.build_jobs(str(tmp_path), [7919], [0])
    by_key = {job["key"]: job for job in jobs}
    plain = [job for job in jobs if job["argv"][0] == "decompose" and "--emit-basis" not in job["argv"]]
    assert plain and len(jobs) == len(by_key)
    assert sum(job["key"].endswith(" --emit-basis") for job in jobs) == len(plain)
    for job in plain:
        twin = by_key[job["key"] + " --emit-basis"]
        assert twin == {**job, "key": twin["key"], "argv": job["argv"] + ["--emit-basis"]}


def test_every_holonomy_job_has_an_eigenspace_2_twin(tmp_path):
    # every benchmark holonomy job transports eigenspace 1: the twins compare eigenspace 2
    jobs = compare_reports.build_jobs(str(tmp_path), [7919, 11], [0, 1])
    by_key = {job["key"]: job for job in jobs}
    plain = [job for job in jobs if job["argv"][:2] == ["tps", "holonomy"]
             and "--eigenspace" not in job["argv"] and job["workload"] != "fixtures"]
    assert plain and {job["workload"] for job in plain} == {"structures", "cli"}
    assert sum(job["key"].endswith(" --eigenspace 2") for job in jobs) == len(plain)
    for job in plain:
        twin = by_key[job["key"] + " --eigenspace 2"]
        assert twin == {**job, "key": twin["key"], "argv": job["argv"] + ["--eigenspace", "2"]}


def test_the_fixtures_group_runs_every_spec_file_and_both_input_paths(tmp_path, capsys):
    jobs = compare_reports.build_jobs(str(tmp_path), [7919], [0])
    fixtures = [job for job in jobs if job["workload"] == "fixtures"]
    assert fixtures == jobs[-len(fixtures):]
    assert all(job["cwd"] == str(tmp_path) and job["out"] is None for job in fixtures)
    argvs = [job["argv"] for job in fixtures]
    data = Path(compare_reports.DATA)
    files = sorted(str(path) for path in data.glob("*.json"))
    spins = [str(tmp_path / f"{name}{N}.json") for N in (3, 4, 5) for name in ("spin", "swaps")] + [
        str(tmp_path / "spin8.json"), str(tmp_path / "clock64.json")]
    # a decompose and a bipartition of each verdict at a seed other than 0
    seeded = [["decompose", "--emit-basis", "--seed", "5", str(data / "slot_xz.json")],
              ["bipartition", "--seed", "5", str(data / "bip_slots.json")],
              ["bipartition", "--seed", "5", str(data / "bip_overlap.json")],
              ["bipartition", "--seed", "5", str(data / "bip_abelian.json")]]
    assert [a for a in argvs if a[0] == "decompose"] == [
        ["decompose", "--emit-basis", f] for f in files] + seeded[:1] + [
        ["decompose", "--emit-basis", f] for f in spins]
    named = [f for f in files
             if {"a1_generators", "a2_generators"} <= json.loads(Path(f).read_text()).keys()]
    assert named and [a for a in argvs if a[0] == "bipartition"] == [
        ["bipartition", f] for f in named] + seeded[1:]
    for argv in seeded:
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5
    for command in ("equivalent", "parity", "bosonic"):
        with_spec = {a[2] in files for a in argvs if a[:2] == ["tps", command]}
        assert with_spec == {True, False}, command
    # sizes past the byte budget: their refusal messages are compared too
    refusals = [["tps", "holonomy", "--doublings", "40"],
                ["tps", "distance", str(data / "cnot.json"), "--unitary", "cnot", "--dims", "2,2",
                 "--samples", "100000000"],
                ["tps", "equivalent", "--dims1", "4096,4096", "--dims2", "4096,4096"],
                ["tps", "parity", "--parity", "Z" * 20]]
    assert [a for a in argvs if a in refusals] == refusals
    for argv in refusals:
        assert main(argv) == 2
        assert "over the 64 MiB budget" in capsys.readouterr().err
    # long ladders, past every benchmark holonomy job's doublings, with and without the witness
    long_ladders = [["tps", "holonomy", "--doublings", "10"],
                    ["tps", "holonomy", "--doublings", "10", "--rect2", "0,0,-0.7,0.5"],
                    ["tps", "holonomy", "--doublings", "12"]]
    tight = compare_reports.TIGHT_HOLONOMY
    assert [a for a in argvs if a[:2] == ["tps", "holonomy"] and a not in refusals + tight] == long_ladders
    assert max(int(job["argv"][job["argv"].index("--doublings") + 1]) for job in jobs
               if job["argv"][:2] == ["tps", "holonomy"] and job["workload"] != "fixtures") < 10
    for argv in long_ladders:
        assert main(argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        doublings = int(argv[argv.index("--doublings") + 1])
        assert len(results["ladder_defects"]) == doublings and ("witness" in results) == ("--rect2" in argv)
    # the family under the rounding of its holonomy, frames and eigenbases answers as at the default
    assert [a for a in argvs if a in tight] == tight
    assert [float(a[-1]) for a in tight] == [1e-14, 1e-15, 1e-16, 1e-300]
    answers = []
    for argv in [["tps", "holonomy"], *tight]:
        assert main(argv) == 0, argv
        report = json.loads(capsys.readouterr().out)
        answers.append((report["results"], report["residuals"]))
    assert answers[1:] == answers[:1] * len(tight)
    # the identity frame under its CCR bound, the tables' own rounding, answers as at the default
    tight_bosonic = compare_reports.TIGHT_BOSONIC
    assert [a for a in argvs if a in tight_bosonic] == tight_bosonic
    assert [float(a[-1]) for a in tight_bosonic] == [1e-15, 1e-16, 1e-300]
    answers = []
    for argv in [tight_bosonic[0][:-2], *tight_bosonic]:
        assert main(argv) == 0, argv
        report = json.loads(capsys.readouterr().out)
        answers.append((report["results"], report["residuals"]))
    assert answers[0][1] == {"ccr": 1.7763568394002505e-15}
    assert answers[1:] == answers[:1] * len(tight_bosonic)
    # parity sets with no logical factor: the refusal of the sector structure is compared
    no_logical_factor = [["tps", "parity", "--parity", "XX", "ZZ"],
                         ["tps", "entangle", str(data / "bell_xx.json"), "--state", "bell_plus",
                          "--parity", "XX", "ZZ"]]
    assert [a for a in argvs if a in no_logical_factor] == no_logical_factor
    for argv in no_logical_factor:
        assert main(argv) == 2
        assert "leave no logical factor to decompose" in capsys.readouterr().err
    # all-Pauli parity sets: each refusal of the exact route is compared, and a valid set
    pauli = [a for a in argvs if a in compare_reports.PAULI_PARITY]
    assert pauli == compare_reports.PAULI_PARITY
    expected = [(2, "op 0 is not traceless"), (2, "parity operators differ in dimension"),
                (2, "[1, 1, 1, 1] are not 8 equal ones"), (2, "[4, 4] are not 4 equal ones"),
                (1, "not a Pauli string over IXYZ"), (0, '"tps_dims": [64, 8]')]
    for argv, (code, text) in zip(pauli, expected):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert text in (captured.err if code else captured.out), argv
    # spec-file pauli entries: each verdict, and an entry mixed with a bare token
    paulis = str(tmp_path / "paulis3.json")
    entries = [a for a in argvs if a[:3] == ["tps", "parity", paulis]]
    assert [a[4:] for a in entries] == compare_reports.PAULI_ENTRY_SETS
    expected = [(0, '"tps_dims": [2, 4]'), (2, "ops 0 and 1 do not commute"),
                (2, "[2, 2, 2, 2] are not 8 equal ones"), (0, '"tps_dims": [2, 4]')]
    for argv, (code, text) in zip(entries, expected):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert text in (captured.err if code else captured.out), argv
    entangle = ["tps", "entangle", str(data / "bell_xx.json"), "--state", "bell_plus", "--parity", "xx"]
    assert entangle in argvs and main(entangle) == 0
    assert json.loads(capsys.readouterr().out)["results"]["value"] == 0.0
    # entangle --parity at a resid_abs under the sector basis's rounding, and a bare token
    # refused against the spec's dim before it is split
    tight, mismatch = compare_reports.PARITY_ENTANGLE
    assert argvs[argvs.index(entangle) + 1:argvs.index(entangle) + 3] == [tight, mismatch]
    assert tight == entangle + ["--tol-resid", "1e-300"] and main(tight) == 0
    assert json.loads(capsys.readouterr().out)["results"]["value"] == 0.0
    assert main(mismatch) == 1
    assert "Pauli string 'ZZZZZZZZZZ' has dimension 1024, spec declares 4" in capsys.readouterr().err
    # the other spec-less equivalent jobs reach both verdicts of the no-FILE path
    verdicts = set()
    for argv in (a for a in argvs if a[:3] == ["tps", "equivalent", "--dims1"] and a not in refusals):
        assert main(argv) == 0
        verdicts.add(json.loads(capsys.readouterr().out)["results"]["equivalent"])
    assert verdicts == {True, False}
    assert len({job["key"] for job in fixtures}) == len(fixtures)


def test_the_spin_fixtures_decompose_to_the_schur_weyl_shapes_and_their_transposes(tmp_path, capsys):
    # N = 4: spin 2, 1, 0 with multiplicities 1, 3, 2; the swaps exchange n and d
    paths = compare_reports.spin_specs(str(tmp_path))
    shapes = {}
    for path in paths:
        assert main(["decompose", path]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        shapes[Path(path).stem] = (sorted((b["n"], b["d"]) for b in results["blocks"]),
                                   results["dim_algebra"], results["dim_commutant"])
    assert shapes["spin4"] == ([(1, 5), (2, 1), (3, 3)], 35, 14)
    assert shapes["swaps4"] == ([(1, 2), (3, 3), (5, 1)], 14, 35)
    for N in (3, 4, 5):
        spin, swaps = shapes[f"spin{N}"], shapes[f"swaps{N}"]
        assert swaps == (sorted((d, n) for n, d in spin[0]), spin[2], spin[1])


def test_the_distance_jobs_take_the_routes_no_benchmark_job_takes(tmp_path, capsys):
    # 3 x 4 and 4 x 3 reduce to 3 x 3 densities on either side of the cut, vn and linear;
    # a 3 x 3 local unitary's rank-1 outputs take eigvalsh's exact zeros (every input set
    # has the same job slots, so one set shows every benchmark job's dims)
    jobs = compare_reports.build_jobs(str(tmp_path), [7919], [0])
    distance = [job["argv"] for job in jobs if job["argv"][:2] == ["tps", "distance"]]
    dims = lambda argv: argv[argv.index("--dims") + 1]
    fixtures = compare_reports.distance_jobs(str(tmp_path))
    assert [a for a in distance if a in fixtures] == fixtures
    assert {(dims(a), a[-1]) for a in fixtures} == {("3,4", "vn"), ("3,4", "linear"), ("4,3", "vn"),
                                                     ("4,3", "linear"), ("3,3", "vn")}
    assert not {dims(a) for a in distance if a not in fixtures} & {"3,4", "4,3"}
    means = []
    for argv in fixtures:
        assert main(argv) == 0
        means.append(json.loads(capsys.readouterr().out)["results"]["mean"])
    assert min(means[:4]) > 0.1 and means[4] == 0.0


def test_every_tolerance_job_has_a_tight_twin_that_answers_otherwise(tmp_path, capsys):
    # the benchmark jobs all run at the default tolerance: these twins are what show
    # a tolerance that no longer reaches its check
    jobs = compare_reports.build_jobs(str(tmp_path), [7919], [0])
    assert not any(a.startswith("--tol-") for job in jobs if job["workload"] != "fixtures" for a in job["argv"])
    argvs = [job["argv"] for job in jobs if job["workload"] == "fixtures"]
    tight = [a for a in argvs if "--tol-resid" in a and a not in
             compare_reports.TIGHT_HOLONOMY + compare_reports.TIGHT_BOSONIC + compare_reports.PARITY_ENTANGLE]
    assert len(tight) == 6 and {a[1] for a in tight} == {"distance", "equivalent", "entangle", "bosonic", "parity"}
    for argv in tight:
        default = argv[:argv.index("--tol-resid")]
        assert argvs[argvs.index(argv) - 1] == default
        answers = []
        for a in (default, argv):
            code, out = main(a), capsys.readouterr().out
            answers.append((code, json.loads(out)["results"].get("equivalent") if code == 0 else None))
        assert answers[0][0] == 0 and answers[0] != answers[1], argv


def test_the_bosonic_reach_jobs_pass_every_benchmark_jobs_modes(tmp_path, capsys):
    # every benchmark bosonic job stops at four modes; the reach group builds 64, 200 and
    # 24 modes, the last in a seeded Haar frame read from a spec file written in code, and
    # cuts 200 modes in half
    jobs = compare_reports.build_jobs(str(tmp_path), [7919, 11], [0, 1, 2])
    modes = lambda argv: int(argv[argv.index("--modes") + 1])
    bosonic = [job for job in jobs if job["argv"][:2] == ["tps", "bosonic"]]
    assert max(modes(job["argv"]) for job in bosonic if job["workload"] != "fixtures") <= 4
    reach = compare_reports.bosonic_reach_jobs(str(tmp_path))
    assert [job["argv"] for job in bosonic if job["argv"] in reach] == reach
    assert [(modes(a), a[a.index("--cutoff") + 1], "--unitary" in a) for a in reach] == [
        (64, "2", False), (200, "1", False), (24, "3", True), (200, "1", False)]
    assert reach[3][-2:] == ["--cut", ",".join(str(i) for i in range(1, 101))]
    values = []
    for argv in reach:
        assert main(argv) == 0, argv
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["fock_dim"] == comb(modes(argv) + int(results["cutoff"]), modes(argv))
        values.append(results["value"])
    assert values[:2] + values[3:] == [0.0, 0.0, 0.0] and 0.1 < values[2] < 1
