import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from hexcurv import cli, errors
from hexcurv._kernels import BAD_CENTER
from hexcurv._kernels.center import INCOHERENT
from hexcurv.cli import build_parser, cmd_hexagon, main

from helpers import plant_jacobian_error

PANTS = """\
format 1
v 0 alpha=0
v 1 alpha=0
v 2 alpha=0
e 0 0 1 eta=3
e 1 1 2 eta=3
e 2 2 0 eta=3
f 0 0 1 2 0 1 2
f 1 0 1 2 0 1 2
structure family=A1
"""


@pytest.fixture
def pants_file(tmp_path):
    p = tmp_path / "pants.mesh"
    p.write_text(PANTS)
    return str(p)


def test_validate(pants_file, capsys):
    assert main(["validate", pants_file]) == 0
    out = capsys.readouterr().out
    assert "ok, N=3, |E|=3, |F|=2" in out


def test_validate_json(pants_file, capsys):
    assert main(["validate", pants_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_boundary"] == 3 and doc["family"] == "A1"


def test_validate_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.mesh"
    p.write_text(PANTS.replace("f 0 0 1 2 0 1 2", "f 0 0 1 2 0 1 9"))
    assert main(["validate", str(p)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_non_finite_weight_rejected(tmp_path, capsys, weight):
    p = tmp_path / "bad.mesh"
    p.write_text(PANTS.replace("e 1 1 2 eta=3", f"e 1 1 2 eta={weight}"))
    fpath = tmp_path / "factors.txt"
    fpath.write_text("f 0 0.0\nf 1 0.0\nf 2 0.0\n")
    assert main(["validate", str(p)]) == 1
    assert "eta[1]" in capsys.readouterr().err
    assert main(["curvature", str(p), "--factors", str(fpath)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "not finite" in captured.err


@pytest.mark.parametrize("command", ["validate", "curvature"])
def test_weight_beyond_the_evaluable_range_rejected(tmp_path, capsys, command):
    # at eta = 1e200 the theta stage's products overflow; parse rejects it
    p = tmp_path / "huge.mesh"
    p.write_text(PANTS.replace("eta=3", "eta=1e200", 1).replace("A1", "A3"))
    fpath = tmp_path / "factors.txt"
    fpath.write_text("f 0 0.0\nf 1 0.0\nf 2 0.0\n")
    factors = ["--factors", str(fpath)] if command == "curvature" else []
    assert main([command, str(p), *factors]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Warning" not in captured.err
    assert "eta[0]=1e+200 has |eta| > 5.15e+19" in captured.err


def test_component_on_no_face_is_a_domain_error(tmp_path, capsys):
    # its K is identically 0, so a solve would factor a singular Jacobian
    p = tmp_path / "orphan.mesh"
    p.write_text(PANTS.replace("v 2 alpha=0\n", "v 2 alpha=0\nv 3 alpha=0\n"))
    tpath = tmp_path / "target.txt"
    tpath.write_text("K 0 2.0\nK 1 2.0\nK 2 2.0\nK 3 2.0\n")
    for argv in (["validate", str(p)], ["solve", str(p), "--target", str(tpath)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "boundary component 3 lies on no face" in captured.err


def test_repeated_edge_id_is_a_domain_error(tmp_path, capsys):
    # under open-edges it once passed validation and broke the edge program
    p = tmp_path / "repeated.mesh"
    p.write_text(PANTS.replace("f 1 0 1 2 0 1 2\n", "").replace(
        "e 2 2 0 eta=3", "e 1 1 2 eta=5\ne 2 2 0 eta=3").replace(
        "family=A1", "family=A1 open-edges"))
    fpath = tmp_path / "factors.txt"
    fpath.write_text("f 0 0.0\nf 1 0.0\nf 2 0.0\n")
    assert main(["curvature", str(p), "--factors", str(fpath)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: edge id 1 is repeated\n"


@pytest.mark.parametrize("structure, initial, message", [
    ("family=MixedIII special=1,2", None, "edge 1 joins two special components"),
    ("family=A3 special=0", None, "A3 admits no special components"),
    # A1 at alpha 0 charts the whole line; u_0 + u_1 overflows at these factors
    ("family=A1", "f 0 1e308\nf 1 1e308\nf 2 0\n", "user initial point is not admissible"),
    # "\udcff" stands for the byte 0xff, which no UTF-8 text holds
    ("family=A1 # \udcff", None, "{mesh}: not UTF-8 text"),
], ids=["double-special", "a3-special", "far-initial", "not-utf8"])
def test_malformed_input_ends_in_one_error_line(tmp_path, capsys, structure, initial, message):
    p = tmp_path / "pants.mesh"
    p.write_bytes(PANTS.replace("family=A1", structure).encode("utf-8", "surrogateescape"))
    argv = ["validate", str(p)]
    if initial is not None:
        (tmp_path / "target.txt").write_text("K 0 1.0\nK 1 1.0\nK 2 1.0\n")
        (tmp_path / "initial.txt").write_text(initial)
        argv = ["solve", str(p), "--target", str(tmp_path / "target.txt"),
                "--initial", str(tmp_path / "initial.txt")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message.format(mesh=p)}\n"


def test_usage_error_exit_code(pants_file):
    with pytest.raises(SystemExit) as err:
        main(["validate", pants_file, "--bogus"])
    assert err.value.code == 2


def test_curvature_and_jacobian(pants_file, tmp_path, capsys):
    fpath = tmp_path / "factors.txt"
    fpath.write_text("f 0 0.0\nf 1 0.0\nf 2 0.0\n")
    assert main(["curvature", pants_file, "--factors", str(fpath)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    val = float(out[0].split()[2])
    assert val == pytest.approx(2.0 * math.acosh(2.0), abs=1e-12)
    assert main(["jacobian", pants_file, "--factors", str(fpath), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["entries"]) == 9


def test_hexagon_regular(capsys):
    assert main(["hexagon", "--lengths", "1.3169579,1.3169579,1.3169579"]) == 0
    out = capsys.readouterr().out
    kv = dict(line.split(None, 1) for line in out.splitlines())
    assert float(kv["theta_i"]) == pytest.approx(1.3169579, abs=1e-6)
    assert kv["domain"] == "D13"
    assert kv["center_class"] == "time-like"
    # 17 significant digits requested
    assert len(kv["theta_i"].replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_hexagon_with_ratios(capsys):
    assert main(["hexagon", "--lengths", "1.0,1.3,1.6",
                 "--ratios", "2.0,1.5,0.3333333333333333"]) == 0
    kv = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    d_ij, d_ji = float(kv["d_ij"]), float(kv["d_ji"])
    assert math.sinh(d_ij) / math.sinh(d_ji) == pytest.approx(2.0, abs=1e-10)


# hexagon --json documents of five inputs, recorded with an independent
# scalar implementation of the hexagon geometry; the last input has a dual
# center outside the plane
GOLDEN = json.loads((pathlib.Path(__file__).parent / "hexagon_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: case["argv"][2])
def test_hexagon_golden(case, capsys):
    assert main(case["argv"]) == case["exit"]
    if "error" in case:
        with pytest.raises(getattr(errors, case["error"])):
            cmd_hexagon(build_parser().parse_args(case["argv"]))
        return
    doc = json.loads(capsys.readouterr().out)
    assert doc.keys() == case["doc"].keys()
    for key, want in case["doc"].items():
        if isinstance(want, str):
            assert doc[key] == want, key
        else:
            assert abs(doc[key] - want) <= max(1e-10 * abs(want), 1e-12), key


def test_hexagon_light_like_center(capsys):
    # ratios bisected to a face center with causal value -2.5e-11
    assert main(["hexagon", "--lengths", "2.14697,1.96148,2.05437", "--ratios",
                 "0.15606825739081695,4.80437164047198,1.3336713571643453", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["center_class"], doc["domain"]) == ("light-like", "LightCone")
    assert not {"h_i", "q_i"} & doc.keys() and "arc_01" in doc


@pytest.mark.parametrize("args", [
    ["--lengths", "a,b,c"],
    ["--lengths", "1,1"],
    ["--lengths", "1000,1,1"],
    ["--lengths", "nan,1,1"],
    ["--lengths", "1,1,1", "--ratios", "nan,1,1"],
    ["--lengths", "1,1,1", "--ratios", "inf,0,1"],
    ["--lengths", "1,1,1", "--ratios", "0,1,1"],
    # a split center that rounds onto a corner: a zero partial
    ["--lengths", "4.808229950066189,1.773396123848065,4.329573371247728",
     "--ratios", "4.0053065999274045e-12,4.858486948276269e-05,5138817487411539.0"],
])
def test_hexagon_malformed_input_is_a_domain_error(args, capsys):
    assert main(["hexagon", *args]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("field, value, message", [
    ("status", BAD_CENTER, "edge perpendiculars do not meet in a line"),
    ("domain", INCOHERENT, "the signs of h and q match no position domain"),
])
def test_hexagon_exits_no_random_hexagon_reaches(monkeypatch, capsys, field, value, message):
    # no valid input is known to reach these records, so each is planted on
    # the record of a valid hexagon
    real = cli.face_centers
    monkeypatch.setattr(cli, "face_centers",
                        lambda arcs: real(arcs)._replace(**{field: np.array([value])}))
    assert main(["hexagon", "--lengths", "0.7,1.3,2.1", "--ratios", "2,0.25,2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("family", ["A1", "A2", "A3", "MixedI", "MixedII", "MixedIII"])
def test_check_identities_seeded_reproducible(family, capsys):
    args = ["check-identities", "--family", family, "--samples", "40", "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("family", ["A1", "A2", "A3", "MixedI", "MixedII", "MixedIII"])
def test_check_identities_reports_branch_counts(family, capsys):
    # every kept sample lies in one causal branch; the paper's identity
    # blocks run, and pass, on the samples with a position domain
    args = ["check-identities", "--family", family, "--samples", "40", "--seed", "11"]
    assert main(args + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    branches = doc["branches"]
    assert sorted(branches) == ["light-like", "space-like", "time-like"]
    assert sum(branches.values()) == doc["checks"]["compatibility"]["count"]
    for name in ("center-distance-identities", "sign-coherence"):
        assert doc["checks"][name]["pass"] is True and doc["checks"][name]["count"] > 0
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "branches " + " ".join(
        f"{name}={branches[name]}" for name in ("time-like", "space-like", "light-like"))


def test_identity_suites_pass_at_seed_11(capsys):
    # with step 1e-6 the A3 finite difference read its own rounding on a
    # near-zero entry (3.56e-5 against the 1e-5 bound); step 1e-5 does not
    args = ["check-identities", "--family", "A3", "--samples", "500", "--seed", "11", "--json"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_failing_identity_check_is_reported_as_json(monkeypatch, capsys):
    # an analytic matrix off by 1e-4 in one entry fails the finite-difference
    # check; --json reports it in the document, with exit code 1
    plant_jacobian_error(monkeypatch)
    args = ["check-identities", "--family", "A3", "--samples", "500", "--seed", "11"]
    assert main(args + ["--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["checks"]["finite-difference"]["pass"] is False
    # the checks that do not read the matrix still pass
    assert doc["checks"]["compatibility"]["pass"] is True
    assert doc["checks"]["negative-definite"]["pass"] is True


def test_solve_roundtrip(pants_file, tmp_path, capsys):
    k = 2.0 * math.acosh(2.0)
    tpath = tmp_path / "target.txt"
    tpath.write_text(f"K 0 {k!r}\nK 1 {k!r}\nK 2 {k!r}\n")
    rpath = tmp_path / "report.txt"
    assert main(["solve", pants_file, "--target", str(tpath),
                 "--report", str(rpath)]) == 0
    out = capsys.readouterr().out.splitlines()
    for line in out:
        assert abs(float(line.split()[2])) < 1e-8
    report = rpath.read_text()
    assert "converged 1" in report
    assert "chord_steps 0" in report.splitlines()  # the start is the solution
    assert "existence_unproven 0" in report


def test_solve_json_with_initial(pants_file, tmp_path, capsys):
    k = 2.0 * math.acosh(2.0)
    tpath = tmp_path / "target.txt"
    tpath.write_text(f"K 0 {k!r}\nK 1 {k!r}\nK 2 {k!r}\n")
    ipath = tmp_path / "init.txt"
    # from 0.02 the last step is a chord step, from 0.05 a Newton step
    for start, chord_steps in (("0.05", 0), ("0.02", 1)):
        ipath.write_text(f"f 0 {start}\nf 1 {start}\nf 2 {start}\n")
        assert main(["solve", pants_file, "--target", str(tpath),
                     "--initial", str(ipath), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["converged"] is True
        assert (doc["report"]["iterations"], doc["report"]["chord_steps"]) == (4, chord_steps)
        assert abs(doc["f"]["0"]) < 1e-8


def test_failed_solve_writes_its_report_and_json(pants_file, tmp_path, capsys):
    # target 1e-9 exhausts the damping budget: the report file and the JSON
    # document hold the last accepted iterate, beside the one error line
    tpath, rpath = tmp_path / "tiny.txt", tmp_path / "report.txt"
    tpath.write_text("K 0 1e-9\nK 1 1e-9\nK 2 1e-9\n")
    assert main(["solve", pants_file, "--target", str(tpath),
                 "--report", str(rpath), "--json"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: damping budget exhausted") and err.count("\n") == 1
    doc = json.loads(out)
    report = doc["report"]
    assert report["converged"] is False
    assert len(report["trajectory"]) == report["iterations"] + 1
    assert report["residual"] == report["trajectory"][-1]
    assert sorted(doc["f"]) == ["0", "1", "2"]
    lines = rpath.read_text().splitlines()
    assert "converged 0" in lines
    assert f"iterations {report['iterations']}" in lines
    assert sum(line.startswith("trajectory ") for line in lines) == report["iterations"] + 1
    # without --json the failed solve prints nothing on stdout
    assert main(["solve", pants_file, "--target", str(tpath)]) == 1
    assert capsys.readouterr().out == ""


def test_missing_file_is_an_error(pants_file, tmp_path, capsys):
    missing = str(tmp_path / "nowhere.txt")
    assert main(["validate", missing]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["curvature", pants_file, "--factors", missing]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


@pytest.mark.parametrize("records, message", [
    ("f 0 0.0\nf 1 0.0\n", "one record per component 0..2"),  # missing
    ("f 0 0.0\nf 1 0.0\nf 2 0.0\nf 3 0.0\n", "one record per component"),  # unknown
    ("f 0 0.0\nf 1 0.0\nf 2 0.0\nf 1 0.5\n", "one record per component"),  # twice
    ("f 0 0.0\nf one 0.0\nf 2 0.0\n", "expected 'f <id> <value>' records"),
])
def test_factor_records_name_each_component_once(pants_file, tmp_path, capsys,
                                                 records, message):
    fpath = tmp_path / "factors.txt"
    fpath.write_text(records)
    for command in ("curvature", "jacobian"):
        assert main([command, pants_file, "--factors", str(fpath)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", pytest.param("\udcff", id="not-utf8")])
@pytest.mark.parametrize("option, tag", [("--factors", "f"), ("--target", "K"),
                                         ("--initial", "f")])
def test_non_finite_records_name_their_file(pants_file, tmp_path, capsys, option,
                                            tag, value):
    # "\udcff" stands for the byte 0xff, which no UTF-8 text holds
    bad = tmp_path / "bad.txt"
    bad.write_bytes(f"{tag} 0 1.0\n{tag} 1 {value}\n{tag} 2 1.0\n".encode(
        "utf-8", "surrogateescape"))
    target = tmp_path / "K.txt"
    target.write_text("K 0 1.0\nK 1 1.0\nK 2 1.0\n")
    args = {"--factors": ["curvature", pants_file, "--factors", str(bad)],
            "--target": ["solve", pants_file, "--target", str(bad)],
            "--initial": ["solve", pants_file, "--target", str(target),
                          "--initial", str(bad)]}[option]
    assert main(args) == 1
    captured = capsys.readouterr()
    message = "not UTF-8 text" if value == "\udcff" else f"value of '{tag} 1' is not finite"
    assert captured.out == "" and captured.err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("samples", ["0", "-3", "two"])
def test_check_identities_needs_positive_samples(samples, capsys):
    with pytest.raises(SystemExit) as err:
        main(["check-identities", "--samples", samples])
    assert err.value.code == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("option", [
    ["--tol", "-1"], ["--tol", "0"], ["--tol", "nan"], ["--tol", "inf"],
    ["--tol", "tiny"], ["--max-iter", "-3"], ["--max-iter", "0"], ["--max-iter", "2.5"],
])
def test_solve_needs_positive_tolerance_and_iteration_budget(pants_file, tmp_path,
                                                           capsys, option):
    tpath = tmp_path / "target.txt"
    tpath.write_text("K 0 1.0\nK 1 1.0\nK 2 1.0\n")
    with pytest.raises(SystemExit) as err:
        main(["solve", pants_file, "--target", str(tpath), *option])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and option[0] in captured.err


@pytest.mark.parametrize("tol", ["1e-3", "1e-6"])
def test_solve_stops_at_its_tolerance(pants_file, tmp_path, capsys, tol):
    # --tol sets the residual bound: the solve ends at the first iterate
    # under it
    tpath = tmp_path / "target.txt"
    tpath.write_text("K 0 2.5\nK 1 2.5\nK 2 2.5\n")
    assert main(["solve", pants_file, "--target", str(tpath), "--tol", tol, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["converged"] is True
    assert report["residual"] == report["trajectory"][-1] <= float(tol)
    assert min(report["trajectory"][:-1]) > float(tol)


def test_check_identities_names_an_unknown_family(capsys):
    assert main(["check-identities", "--family", "B7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: unknown family 'B7'\n"


def test_target_records_with_another_tag_name_their_file(pants_file, tmp_path, capsys):
    # a factor file given as the target
    bad = tmp_path / "factors.txt"
    bad.write_text("f 0 1.0\nf 1 1.0\nf 2 1.0\n")
    assert main(["solve", pants_file, "--target", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: expected 'K <id> <value>' records\n"


def test_validate_curvature_hexagon_and_check_identities_load_no_scipy_sparse(pants_file,
                                                                             tmp_path):
    # the cold commands parse, validate, evaluate K and one hexagon, and run
    # the identity suites; SuperLU and the sparse arrays are imported only by
    # the commands that use them
    factors = tmp_path / "factors.txt"
    factors.write_text("f 0 0.0\nf 1 0.0\nf 2 0.0\n")
    script = (
        "import sys\n"
        "from hexcurv import cli\n"
        "codes = (cli.main(['validate', sys.argv[1]]),\n"
        "         cli.main(['curvature', sys.argv[1], '--factors', sys.argv[2]]),\n"
        "         cli.main(['hexagon', '--lengths', '1.0,1.3,1.6', '--json']),\n"
        "         cli.main(['check-identities', '--family', 'MixedIII', '--samples', '20']))\n"
        "sys.exit(codes != (0, 0, 0, 0) or 'scipy.sparse' in sys.modules)\n"
    )
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", script, pants_file, str(factors)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
