import json
import math

import pytest

from hexcurv.cli import main

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


def test_check_identities_seeded_reproducible(capsys):
    assert main(["check-identities", "--family", "A3", "--samples", "40",
                 "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["check-identities", "--family", "A3", "--samples", "40",
                 "--seed", "11"]) == 0
    assert capsys.readouterr().out == first


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
    assert "existence_unproven 0" in report


def test_solve_json_with_initial(pants_file, tmp_path, capsys):
    k = 2.0 * math.acosh(2.0)
    tpath = tmp_path / "target.txt"
    tpath.write_text(f"K 0 {k!r}\nK 1 {k!r}\nK 2 {k!r}\n")
    ipath = tmp_path / "init.txt"
    ipath.write_text("f 0 0.05\nf 1 0.05\nf 2 0.05\n")
    assert main(["solve", pants_file, "--target", str(tpath),
                 "--initial", str(ipath), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["converged"] is True
    assert abs(doc["f"]["0"]) < 1e-8


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


@pytest.mark.parametrize("samples", ["0", "-3", "two"])
def test_check_identities_needs_positive_samples(samples, capsys):
    with pytest.raises(SystemExit) as err:
        main(["check-identities", "--samples", samples])
    assert err.value.code == 2
    assert "--samples" in capsys.readouterr().err
