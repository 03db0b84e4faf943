"""Every committed BENCH_*.json is a well-formed before/after record of the
benchmark declared in BENCHMARK.json: it names its environment (with the
BLAS thread count), the commits compared and the method, measures only
declared workloads, and gives a parent and a change value of every
end-to-end metric on each of them."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_is_well_formed(path):
    bench = json.loads(path.read_text())
    assert "OPENBLAS_NUM_THREADS" in bench["env"], path.name
    assert bench["commits"] and bench["method"], path.name
    workloads = bench["workloads"]
    assert workloads and set(workloads) <= {w["name"] for w in DECLARED["workloads"]}
    for name, measured in workloads.items():
        for metric in DECLARED["end_to_end"]:
            value = measured[metric["name"]]
            for side in ("parent", "change"):
                assert isinstance(value[side], (int, float)), (name, metric["name"], side)
                assert math.isfinite(value[side]), (name, metric["name"], side)
