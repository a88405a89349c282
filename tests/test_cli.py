import hashlib
import json
import os
import re
import subprocess
import sys
import time

import pytest

from quivdef import cli, slnlab
from quivdef import families as fam
from quivdef.cli import build_parser, run_command
from quivdef.families import a_presentation
from quivdef.linalg import ONE
from quivdef.quiver import Arrow, Quiver, QuiverPresentation, bounded_quotient
from quivdef.reports import Report


def run_cli(args, env=None, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "quivdef.cli"] + args,
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    return proc


def test_families_k3_dimension_check():
    proc = run_cli(["families", "--k", "3"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    dim = [c for c in doc["checks"] if c["name"] == "dim_A3"][0]
    assert dim["status"] == "pass" and dim["actual"] == 10


def test_hochschild_k2_dims():
    proc = run_cli(["hochschild", "--k", "2", "--max-degree", "3"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    hh = [c for c in doc["checks"] if c["name"] == "hh_dims_A2"][0]
    assert hh["actual"] == [3, 1, 1, 1]


def test_exit_code_reflects_failures(tmp_path):
    # a presentation whose quotient is not symmetric: one failing check
    pres = """{
      "vertices": ["1", "2"],
      "arrows": [{"name": "c", "source": "1", "target": "2", "degree": 1}],
      "relations": []
    }"""
    path = tmp_path / "triangular.json"
    path.write_text(pres, encoding="utf-8")
    proc = run_cli(["families", "--presentation", str(path), "--bound", "2"])
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["summary"]["failed"] == 1
    sym = [c for c in doc["checks"] if c["name"] == "symmetric"][0]
    assert sym["status"] == "fail"


def test_presentation_errors_name_the_exception_type(tmp_path):
    path = tmp_path / "no_arrows.json"
    path.write_text('{"vertices": ["1"], "relations": []}', encoding="utf-8")
    args = build_parser().parse_args(["families", "--presentation", str(path)])
    (load,) = run_command(args).checks
    assert load.name == "load" and load.status == "fail"
    assert load.actual == "error: ValueError: presentation keys missing or mistyped: arrows"


@pytest.mark.parametrize(
    "doc, places",
    [
        ({"arrows": [], "relations": []}, "vertices"),
        (
            {"vertices": ["1"], "arrows": [{"name": "x", "target": "1", "degree": "2"}], "relations": [[{"path": ["x"]}]]},
            "arrows[0].source, arrows[0].degree, relations[0][0].coeff",
        ),
        ({"vertices": ["1"], "arrows": {}, "relations": [{"coeff": "1", "path": "x"}]}, "arrows, relations[0]"),
        ([], "the document"),
    ],
    ids=["no_vertices", "arrow_and_term_keys", "mistyped_lists", "not_an_object"],
)
def test_presentation_key_errors_are_one_failing_check(tmp_path, doc, places):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_cli(["families", "--presentation", str(path)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (load,) = json.loads(proc.stdout)["checks"]
    assert load["name"] == "load" and load["status"] == "fail"
    assert load["actual"] == "error: ValueError: presentation keys missing or mistyped: " + places


def test_presentation_paths_through_undeclared_arrows_are_named(tmp_path):
    doc = {
        "vertices": ["1"],
        "arrows": [{"name": "x", "source": "1", "target": "1", "degree": 1}],
        "relations": [[{"coeff": "1", "path": ["x", "x", "x"]}], [{"coeff": "1", "path": ["z", "x"]}, {"coeff": "-1", "path": ["x", "y"]}]],
    }
    path = tmp_path / "undeclared.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_cli(["families", "--presentation", str(path)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (load,) = json.loads(proc.stdout)["checks"]
    assert load["name"] == "load" and load["status"] == "fail"
    assert load["actual"] == (
        "error: ValueError: presentation keys missing or mistyped: relations[1][0].path[0], relations[1][1].path[1]"
    )


def test_missing_presentation_file_is_a_failing_check(tmp_path):
    path = tmp_path / "absent.json"
    proc = run_cli(["families", "--presentation", str(path)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    (load,) = doc["checks"]
    assert load["name"] == "load" and load["status"] == "fail"
    assert load["actual"].startswith("error: FileNotFoundError: ")


def test_unwritable_output_fails_before_any_check(monkeypatch, capsys, tmp_path):
    # a bad argument: exit 2 and one line naming the path and the error
    ran = []
    monkeypatch.setattr(cli, "run_command", lambda args: ran.append(args))
    path = tmp_path / "absent" / "x.json"
    assert cli.main(["families", "--k", "2", "--output", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "quivdef: cannot write --output %s: No such file or directory\n" % path)
    assert cli.main(["families", "--k", "2", "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "quivdef: cannot write --output %s: Is a directory\n" % tmp_path
    assert ran == []


def test_raising_check_names_the_exception_type():
    report = Report("t", {})
    check = report.run("div", "a check that raises", 1, lambda: 1 // 0)
    assert check.status == "fail"
    assert check.actual == "error: ZeroDivisionError: integer division or modulo by zero"


def test_emit_and_reload_presentation(tmp_path):
    path = tmp_path / "a3.json"
    proc = run_cli(["families", "--k", "3", "--emit-presentation", "--output", str(path)])
    assert proc.returncode == 0
    text = path.read_text(encoding="utf-8")
    assert text.strip() == a_presentation(3).to_json()
    proc2 = run_cli(["families", "--presentation", str(path), "--bound", "3"])
    assert proc2.returncode == 0
    doc = json.loads(proc2.stdout)
    dim = [c for c in doc["checks"] if c["name"] == "dimension"][0]
    assert dim["actual"] == 10


def test_atilde3_presentation_report_is_pinned(tmp_path):
    # Atilde(3) is not symmetric: e_1 soc(A) is a plane, so the check fails
    path = tmp_path / "atilde3.json"
    args = ["families", "--k", "3", "--family", "atilde", "--emit-presentation"]
    assert run_cli(args + ["--output", str(path)]).returncode == 0
    proc = run_cli(["families", "--presentation", str(path)], timeout=20)
    assert proc.returncode == 1
    checks = json.loads(proc.stdout)["checks"]
    assert [(c["name"], c["status"], c["expected"], c["actual"]) for c in checks] == [
        ("dimension", "pass", 13, 13),
        ("associative", "pass", None, None),
        ("unital", "pass", True, True),
        ("center_dim", "pass", 4, 4),
        ("symmetric", "fail", True, False),
    ]


def test_emit_bhat_presentation():
    proc = run_cli(["families", "--k", "2", "--emit-presentation", "--family", "bhat"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert {a["name"] for a in doc["arrows"]} == {"x1", "x2", "y1", "y2"}


def test_seeded_subcommand_reports_are_deterministic():
    parser = build_parser()
    args = parser.parse_args(["slnlab", "--n", "2", "--radius", "2", "--seed", "7"])
    assert run_command(args).to_json() == run_command(args).to_json()


def test_timings_flag_adds_elapsed():
    parser = build_parser()
    args = parser.parse_args(["families", "--k", "2"])
    report = run_command(args)
    plain = json.loads(report.to_json())
    timed = json.loads(report.to_json(with_timings=True))
    assert "elapsed_ms" not in plain["checks"][0]
    assert "elapsed_ms" in timed["checks"][0]


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "quivdef", "families", "--k", "2"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["command"] == "families" and doc["summary"]["failed"] == 0


@pytest.mark.parametrize(
    "args, bound",
    [
        (["--n", "0"], "n = 0 is below 2"),
        (["--n", "1"], "n = 1 is below 2"),
        (["--radius", "-1"], "radius = -1 is below 2"),
        (["--fiber", "0"], "fiber = 0 is below 1"),
        # radius 0 has no Casimir block, and at radius 1 the extension
        # solver solves no block
        (["--radius", "0"], "radius = 0 is below 2"),
        (["--radius", "1"], "radius = 1 is below 2"),
    ],
)
def test_slnlab_arguments_out_of_range_fail_one_check(args, bound):
    proc = run_cli(["slnlab"] + args)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (check,) = json.loads(proc.stdout)["checks"]
    assert check["name"] == "arguments" and check["status"] == "fail"
    assert check["actual"] == [bound]


@pytest.mark.parametrize(
    "args, bounds",
    [
        (["--k", "0"], ["k = 0 is below 2"]),
        (["--k", "1", "--emit-family"], ["k = 1 is below 2"]),
        (["--order", "0", "--params", "0"], ["order = 0 is below 1", "params = 0 is below 1"]),
    ],
)
def test_deform_arguments_out_of_range_fail_one_check(args, bounds):
    proc = run_cli(["deform"] + args)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (check,) = json.loads(proc.stdout)["checks"]
    assert check["name"] == "arguments" and check["status"] == "fail"
    assert check["actual"] == bounds


def test_deform_to_order_40_with_three_parameters_passes_in_seconds():
    # 12340 multi-indices; the span check makes one associator call for all
    start = time.monotonic()
    proc = run_cli(["deform", "--k", "2", "--order", "40", "--params", "3"], timeout=60)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["summary"]["failed"] == 0
    assert elapsed < 5, elapsed


@pytest.mark.parametrize(
    "args, bounds",
    [
        (["hochschild", "--k", "0"], ["k = 0 is below 1"]),
        (["hochschild", "--k", "2", "--max-degree", "-1"], ["max_degree = -1 is below 0"]),
        (["koszul", "--k", "2", "--hom-degree", "-1"], ["hom_degree = -1 is below 3"]),
        (["koszul", "--k", "2", "--hom-degree", "2"], ["hom_degree = 2 is below 3"]),
        (["koszul", "--k", "1"], ["k = 1 is below 2"]),
        (["koszul", "--k", "2", "--hom-degree", "6"], ["max_degree = 5 is below 6"]),
        (["koszul", "--k", "2", "--max-degree", "1", "--emit-table"], ["max_degree = 1 is below 4"]),
        (["families", "--k", "0"], ["k = 0 is below 1"]),
        # below bound 2 central_B2 checks no monomial, yet it passed
        (["families", "--k", "2", "--bound", "-1"], ["bound = -1 is below 2"]),
        (["families", "--k", "2", "--bound", "1"], ["bound = 1 is below 2"]),
        (["families", "--k", "0", "--emit-presentation"], ["k = 0 is below 1"]),
        (["families", "--k", "1", "--family", "bhat", "--emit-presentation"], ["k = 1 is below 2"]),
        (["slnlab", "--n", "1", "--dump"], ["n = 1 is below 2"]),
        (["verify-all", "--radius", "-1"], ["radius = -1 is below 2"]),
        (["verify-all", "--radius", "0"], ["radius = 0 is below 2"]),
        (["verify-all", "--radius", "1"], ["radius = 1 is below 2"]),
    ],
)
def test_size_arguments_out_of_range_fail_one_check(args, bounds):
    proc = run_cli(args)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (check,) = json.loads(proc.stdout)["checks"]
    assert check["name"] == "arguments" and check["status"] == "fail"
    assert check["actual"] == bounds


# md5 of the printed output under PYTHONHASHSEED=0; a value printed with a
# different type (an int where a Fraction was) changes it
@pytest.mark.parametrize(
    "args, md5",
    [
        (["hochschild", "--k", "2", "--max-degree", "6"], "fc97b3a110fb0bb647ce117b00b3bcf1"),
        (
            ["deform", "--k", "3", "--order", "5", "--params", "2", "--emit-family"],
            "56ddf8daa297a32746a026f6fec0cf76",
        ),
        (["families", "--k", "3"], "70513ba39bb072596c9268845f0d3d64"),
        (["koszul"], "6254c9d1006684db72653f89bea53339"),
        (["deform"], "99c2449bbf0793c82ac62e9d8df0b6d4"),
        (["families", "--k", "2", "--emit-presentation"], "efc14dd265a190eb9c083971f3d05f95"),
        (["families", "--k", "40"], "b47aa7a1ed625551b494d7c35813b448"),
        (["hochschild", "--k", "12", "--max-degree", "5"], "eccf522abc8c1bcb97854910774e9954"),
        (["slnlab", "--n", "3", "--radius", "2"], "51e7e73312cfe6a9bf72d04fe704d68d"),
        (
            ["slnlab", "--n", "3", "--radius", "2", "--fiber", "2", "--dump"],
            "91b627c94ec69d19e08acc93e582e9d6",
        ),
        (["koszul", "--k", "2", "--emit-table"], "142d959986d75b9a58bf8b88edd82eff"),
        (
            ["families", "--k", "3", "--family", "atilde", "--emit-presentation"],
            "de7c4c5ddd8570e090f47ff7e06323c0",
        ),
        # its parameters take 63 whole-tuple draws, under random_parameters' cap
        (["slnlab", "--n", "11", "--radius", "2", "--fiber", "1"], "2a3b2814fbfdb6c4d4100ff619eee44d"),
        # ranks d_0..d_12 of A(2), each off the pivots of the one before
        (["hochschild", "--k", "2", "--max-degree", "12"], "d97640599fa6e3081c4a4d47ef30be8e"),
        # every lookup of A(200) and Atilde(200) reads the vertex-pair index
        (["families", "--k", "200"], "263ecee62611e07bd406046d74155c17"),
        # each runs the full bar complex: of A(2) to degree 2 and of A(1) to degree 3
        (["hochschild"], "10691743b582f126d2b80c799af8cb4b"),
        (["hochschild", "--k", "1"], "be4b683fb2ac71656dbafd2e50174664"),
    ],
)
def test_cli_output_is_pinned(args, md5):
    proc = run_cli(args, env={**os.environ, "PYTHONHASHSEED": "0"})
    assert proc.returncode == 0, proc.stderr
    assert hashlib.md5(proc.stdout.encode()).hexdigest() == md5


def _full_table_breaks(alg, k):
    """The oracle of cli.hom_pattern_breaks: every entry of the k x k table of dim e_i A e_j."""
    vertices = range(1, k + 1)
    return [
        (i, j)
        for i in vertices
        for j in vertices
        if len(alg.between.get((str(i), str(j)), ())) != max(0, 2 - abs(i - j))
    ]


def _one_way_line(k):
    """The path algebra of 1 -> 2 -> ... -> k, no relations: e_j A e_i is 1-dimensional for every i <= j."""
    q = Quiver([str(i) for i in range(1, k + 1)], [Arrow("c%d" % i, str(i), str(i + 1), 1) for i in range(1, k)])
    return bounded_quotient(QuiverPresentation(q, []), k)


@pytest.mark.parametrize(
    "alg, k, breaks",
    [
        *[(fam.make_a(k), k, False) for k in range(1, 8)],
        # a vertex past the algebra's, so the band pairs at it read 0
        *[(fam.make_a(k), k + 1, True) for k in range(1, 5)],
        (fam.make_atilde(3), 3, False),
        (fam.make_atilde(3), 4, True),
        (_one_way_line(5), 5, True),
        (_one_way_line(5), 3, True),
    ],
)
def test_hom_pattern_breaks_match_the_full_table(alg, k, breaks):
    got = cli.hom_pattern_breaks(alg, k)
    assert got == _full_table_breaks(alg, k)
    assert bool(got) == breaks


def test_deform_check_names_are_unique_for_one_parameter():
    args = build_parser().parse_args(["deform", "--params", "1", "--order", "2"])
    names = [c.name for c in run_command(args).checks]
    assert "flat_deformation_A2_m1" in names
    assert len(names) == len(set(names)), names


def test_slnlab_battery_reports_the_build_error_in_each_check(monkeypatch):
    # fiber matrices that build_f rejects: the three checks on the module
    # each build it and fail with the same error
    report = Report("t", {})
    monkeypatch.setattr(slnlab, "random_commuting_nilpotents", lambda n, dim, rng: [[[ONE]]] * n)
    cli.checks_slnlab(report, [2], 1, 1, [5])
    names = [c.name for c in report.checks[:4]]
    assert names == ["relations_N_n2_s5", "relations_F_n2_s5", "roundtrip_n2_s5", "weight_criterion_n2_s5"]
    assert report.checks[0].status == "pass"
    assert {c.actual for c in report.checks[1:4]} == {"error: ValueError: fiber matrix 1 is not nilpotent"}


def test_slnlab_battery_builds_each_module_once(monkeypatch):
    # build_n, the module its three checks share, and reconstruct's N' at
    # n = 2; reconstruct's comparison module at n = 3
    built = []
    build_f = slnlab.build_f
    monkeypatch.setattr(slnlab, "build_f", lambda n, *args, **kw: built.append(n) or build_f(n, *args, **kw))
    report = Report("t", {})
    cli.checks_slnlab(report, [2], 2, 1, [5])
    assert all(c.status == "pass" for c in report.checks)
    assert sorted(built) == [2, 2, 2, 3]


def test_verify_all_builds_each_family_member_once(tmp_path):
    # A(k) for k = 1..6 and B(k) in six (k, grading) pairs, each built once
    for constructor in (fam.make_a, fam.make_atilde, fam.make_bhat):
        constructor.cache_clear()
    assert cli.main(["verify-all", "--output", str(tmp_path / "report.json")]) == 0
    assert fam.make_a.cache_info().misses == 6
    assert fam.make_bhat.cache_info().misses == 6
    assert fam.make_atilde.cache_info().misses == 4


def test_slnlab_n7_radius6_passes_without_listing_its_points():
    # 2473325 support points; the certificate reads the formula only
    proc = run_cli(["slnlab", "--n", "7", "--radius", "6"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert checks and all(c["status"] == "pass" for c in checks)


def test_slnlab_n19_ends():
    # whole-tuple draws of its parameters pass too rarely to end
    proc = run_cli(["slnlab", "--n", "19", "--radius", "2", "--fiber", "1"], timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_slnlab_dump_above_its_limit_fails_one_check():
    proc = run_cli(["slnlab", "--n", "7", "--radius", "6", "--dump"], timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (check,) = json.loads(proc.stdout)["checks"]
    assert check["name"] == "dump" and check["status"] == "fail"
    assert check["actual"] == (
        "error: ValueError: the dump of 2473325 points prints up to %d values, above its limit of %d"
        % (2473325 * 18 * 16, slnlab.DUMP_VALUES)
    )


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_verify_all_without_lattice_seeds_fails_one_check(seeds, tmp_path):
    # no seed would run none of the lattice checks and still exit 0; the
    # sizes are checked before any other check runs
    out = tmp_path / "report.json"
    assert cli.main(["verify-all", "--slnlab-seeds", seeds, "--output", str(out)]) == 1
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert [(c["name"], c["status"], c["actual"]) for c in checks] == [
        ("arguments", "fail", ["slnlab_seeds = %s is below 1" % seeds])
    ]


DEFAULTS = {
    "families": {"k": 3, "bound": 6},
    "hochschild": {"k": 2, "max_degree": 3},
    "deform": {"k": 2, "order": 4, "params": 3, "seed": 2011},
    "koszul": {"k": 2, "hom_degree": 3, "max_degree": 5},
    "slnlab": {"n": 3, "radius": 3, "fiber": 3, "seed": 2011},
    "verify-all": {"seed": 2011, "radius": 3, "slnlab_seeds": 5},
}


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_parser_defaults_and_report_params_are_the_command_rows(name):
    command = cli.COMMANDS[name]
    assert command.defaults == DEFAULTS[name]
    args = build_parser().parse_args([name])
    ints = {arg: value for arg, value in vars(args).items() if type(value) is int}
    assert ints == command.defaults
    others = {"command", "output", "timings"} | ({command.flag} if command.flag else set())
    if name == "families":
        others |= {"presentation", "family"}
    assert vars(args).keys() - ints.keys() == others
    assert cli._report(args).params == command.defaults
    for arg in command.defaults:
        assert getattr(build_parser().parse_args([name, "--" + arg.replace("_", "-"), "7"]), arg) == 7


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_help_lists_every_argument_and_the_flag(name, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([name, "--help"])
    text = capsys.readouterr().out
    command = cli.COMMANDS[name]
    options = ["--" + arg.replace("_", "-") for arg in command.defaults]
    if command.flag:
        options.append("--" + command.flag.replace("_", "-"))
    assert [option for option in options if option + " " not in text] == []


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_help_shows_every_default(name, capsys):
    # each int option's help is its default, on its line or the next
    with pytest.raises(SystemExit):
        build_parser().parse_args([name, "--help"])
    text = capsys.readouterr().out
    shown = {
        arg: re.search(r"--%s %s\s+default: (\S+)\n" % (arg.replace("_", "-"), arg.upper()), text)
        for arg in cli.COMMANDS[name].defaults
    }
    assert {arg: match and int(match.group(1)) for arg, match in shown.items()} == DEFAULTS[name]
    if name == "families":
        assert re.search(r"--family \{a,atilde,bhat\}\s+default: a\n", text)
