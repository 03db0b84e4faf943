"""Smoke tests of the benchmark at tiny sizes."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import tracing

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def tiny(name):
    wl = bench.WORKLOADS[name]
    return dataclasses.replace(wl, n=12, meshes=tuple(dict.fromkeys(wl.meshes)),
                               points_per_mesh=2, traced=0)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_untraced_run_passes_its_gates(name):
    out = bench.run_untraced(tiny(name), seed=3, seconds=0.05)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_counts_repeat_for_one_seed(name):
    runs = [bench.run_traced(tiny(name), seed=5, seconds=0.05) for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for out in runs:
        assert out["correct"] and out["failed"] == 0
        assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    first, second = (r["metrics"] for r in runs)
    assert {k: first[k]["value"] for k in COUNTS} == \
        {k: second[k]["value"] for k in COUNTS}
    assert first["kernels.face_eval.calls"]["value"] > 0


def test_eval_sweep_bypasses_solver():
    m = bench.run_traced(tiny("eval-sweep"), seed=1, seconds=0.05)["metrics"]
    for key in ("solver.solve_prescribed_curvature.calls",
                "solver.default_initial.calls", "conformal.admissible.calls",
                "solver.newton_iters", "solver.trials"):
        assert m[key]["value"] == 0
    assert m["solver.linalg.s"]["value"] == 0.0
    assert m["curvature.curvature_map.calls"]["value"] > 0


def test_missing_hook_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (
        ("hexcurv.curvature", "no_such_function", "curvature.gone"),))
    tracer = tracing.Tracer()
    with tracer.install():
        pass
    assert tracer.layer_times()["curvature.gone"] == (0, 0.0, 0.0)


def test_gates_reject_wrong_outputs():
    import numpy as np
    import scipy.sparse

    K = np.array([1.0, 2.0])
    with pytest.raises(bench.GateError):
        bench.check_eval(K, K + 1e-6, np.eye(2))
    with pytest.raises(bench.GateError):
        bench.check_eval(K, K, np.array([[1.0, 0.5], [0.0, 1.0]]))
    n = 2 * bench.ASYM_BLOCK + 3  # the asymmetry lies outside the first block
    J = np.eye(n)
    J[n - 1, n - 2] = 0.5
    K = np.zeros(n)
    for jac in (J, scipy.sparse.csr_matrix(J)):
        bench.check_eval(K, K, jac + jac.T)
        with pytest.raises(bench.GateError):
            bench.check_eval(K, K, jac)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "solve-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
