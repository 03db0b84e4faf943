"""Benchmark of hexcurv's prescribed-curvature solve and curvature evaluation.

Run from the root of a source checkout (the package is imported from
``src/``, not installed):

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

    solve-small  solves on N=40 sphere meshes of all six families
    solve-large  solves on N=3000 sphere meshes, families A1 and A3
    eval-sweep   K-only then K+J evaluation at seeded points, N=400

``--trace 0`` times the workload for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` reports the per-layer split of a traced
pass.  The last line of standard output is the JSON result; an earlier
line starting with ``env`` records the software and machine.  Single
process, single thread: BLAS and OpenMP pools are pinned to one thread
before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    import numpy
    import scipy

    from hexcurv import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "kernel_backend": _kernels.BACKEND,
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "hexcurv" / "__init__.py").is_file():
        print(f"error: no hexcurv sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))

    import bench

    if args.workload not in bench.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(bench.WORKLOADS)}")
    wl = bench.WORKLOADS[args.workload]
    print("env " + json.dumps(environment()))
    run = bench.run_traced if args.trace else bench.run_untraced
    print(json.dumps(run(wl, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
