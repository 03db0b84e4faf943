"""Workloads, correctness gates and metrics of the hexcurv benchmark.

One process runs one workload as a closed loop with a single caller: the
next operation starts when the previous one has returned.  Inputs come from
``inputs`` and depend only on the workload and the seed.  Every operation is
checked after its timer stops; a failed check or an exception counts the
operation as failed.

Times are taken on ``SpeedTrack.clock`` and rescaled to a nominal machine
speed (see ``speed``); the stderr summary also gives the raw times.

The library is called through module attributes (``solver.solve_...``,
``curvature.curvature_map``, ``mesh.parse``) so that the tracer in
``tracing`` sees the same calls when it rebinds those names.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from hexcurv import conformal, curvature, mesh, solver
from hexcurv.errors import NotConverged

import inputs
from speed import SpeedTrack
from tracing import INDEFINITE_SOLVE, Tracer

SETUP_REPEATS = 11
RTOL_K = 1e-12  # K-only vs K+J evaluation of the same point
RTOL_ASYM = 1e-12  # max |J - J^T| relative to the Frobenius norm of J
RTOL_FD = 1e-6  # directional central difference vs J d
FD_STEP = 1e-7
U_TOL = 1e-9  # recovered u vs the generating point (rigidity)
EVAL_REPEATS = 3  # timed K-only and K+J evaluations at each solution
ASYM_BLOCK = 64  # rows per block of the symmetry check


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve" or "eval"
    n: int  # boundary components per mesh
    meshes: tuple  # the family of each mesh
    points_per_mesh: int
    traced: int = 0  # problems in the traced pass; 0 means the whole pool


# Why each workload exists is recorded in BENCHMARK.json.  On solve-large a
# few solves make the median.  There A1 solves take 5 or 6 Newton iterations,
# depending on the point, and A3 solves take 6; when near half the solves
# took 5, the median would jump between the two groups from run to run.  So
# A3 supplies two thirds of the solves, and op_ms.p50 there is an A3 solve;
# A1 solves count in ops_per_s only.  The traced pass takes one solve per
# mesh.
WORKLOADS = {
    w.name: w for w in (
        Workload("solve-small", "solve", 40, inputs.FAMILIES * 4, 3),
        Workload("solve-large", "solve", 3000, ("A3", "A1", "A3"), 2, traced=3),
        Workload("eval-sweep", "eval", 400, ("A1", "A3", "MixedIII", "MixedI") * 2, 4),
    )
}


@dataclass
class Problem:
    mesh: int  # index into the workload's meshes
    tri: object
    spec: object
    u: dict  # generating point
    f: dict
    target: dict  # curvature at f (solve workloads)
    fd_dir: dict | None  # direction of the mesh's finite-difference check


class GateError(Exception):
    """An operation returned, but its output failed a correctness check."""


# -- inputs --------------------------------------------------------------------

def mesh_texts(wl: Workload, rng: random.Random) -> list:
    return [inputs.mesh_text(fam, wl.n, rng) for fam in wl.meshes]


def parse_all(texts) -> list:
    return [mesh.parse(t) for t in texts]


def make_problems(wl: Workload, meshes, rng: random.Random) -> list:
    """Seeded points on each mesh, ordered so that families interleave."""
    per_mesh = []
    for k, (tri, spec) in enumerate(meshes):
        u0 = solver.default_initial(spec, tri)
        probs = []
        for j in range(wl.points_per_mesh):
            u = inputs.admissible_point(spec, tri, rng, u0)
            f = conformal.f_from_u(spec, u)
            K = curvature.curvature_map(spec, tri, f)
            d = {i: rng.uniform(-1.0, 1.0) for i in u} if j == 0 else None
            probs.append(Problem(k, tri, spec, u, f,
                                 {i: float(K[i]) for i in range(tri.n_boundary)}, d))
        per_mesh.append(probs)
    return [probs[j] for j in range(wl.points_per_mesh) for probs in per_mesh]


# -- gates ---------------------------------------------------------------------

def asymmetry(jac) -> float:
    """max |J - J^T| over the Frobenius norm of J.

    Works in row blocks (or on the sparse form), so the check allocates no
    N x N array of its own and leaves the process's peak memory to the
    library.
    """
    if hasattr(jac, "toarray"):  # a scipy sparse matrix
        return abs(jac - jac.T).max() / np.sqrt(jac.multiply(jac).sum())
    J = np.asarray(jac)
    worst = 0.0
    for i in range(0, J.shape[0], ASYM_BLOCK):
        worst = max(worst, float(np.max(np.abs(
            J[i:i + ASYM_BLOCK] - J[:, i:i + ASYM_BLOCK].T))))
    return worst / np.linalg.norm(J)


def check_eval(K, K2, jac) -> None:
    """K-only and K+J evaluations of one point agree; J is symmetric."""
    K, K2 = np.asarray(K), np.asarray(K2)
    if np.max(np.abs(K - K2)) > RTOL_K * max(1.0, np.max(np.abs(K))):
        raise GateError("K-only and K+J evaluations disagree")
    if asymmetry(jac) > RTOL_ASYM:
        raise GateError("Jacobian is not symmetric")


def check_fd(p: Problem, jac) -> None:
    """J d against a central difference of K along the mesh's direction."""
    d = np.array([p.fd_dir[i] for i in range(p.tri.n_boundary)])
    K_at = [
        curvature.curvature_map(p.spec, p.tri, conformal.f_from_u(
            p.spec, {i: p.u[i] + s * FD_STEP * d[i] for i in p.u}))
        for s in (1.0, -1.0)
    ]
    fd = (K_at[0] - K_at[1]) / (2.0 * FD_STEP)
    jd = jac @ d
    if np.max(np.abs(fd - jd)) > RTOL_FD * np.max(np.abs(jd)):
        raise GateError("Jacobian disagrees with a central difference of K")


# -- operations ----------------------------------------------------------------

class Runner:
    """Times operations on one workload's problems and gates their outputs.

    ``samples`` maps "op", "K" and "KJ" to the (start, end) intervals, on
    ``track.clock``, of each timed operation, K-only evaluation and K+J
    evaluation.  On eval-sweep an operation is one K-only evaluation followed
    by one K+J evaluation of the same point.  On the solve workloads the
    evaluations are the ones the gate makes at the solution, EVAL_REPEATS
    of each, so that N=3000 has enough samples for a median; the last pair
    is checked.
    """

    def __init__(self, wl: Workload, track: SpeedTrack):
        self.wl = wl
        self.track = track
        self.samples = {"op": [], "K": [], "KJ": []}
        self.attempted = 0
        self.failed = 0
        self.reports: list = []
        self.fd_checked: set = set()
        self.tol_K = solver.SolveOptions().tol_K

    def run(self, p: Problem, tracer: Tracer | None = None) -> bool:
        """One timed operation plus its gate; False when it raised or
        failed its gate."""
        self.attempted += 1
        traced = tracer.install() if tracer is not None else nullcontext()
        try:
            if self.wl.kind == "solve":
                self._solve(p, traced)
            else:
                self._eval(p, traced)
        except Exception as exc:  # the loop goes on; the miss is counted
            self.failed += 1
            print(f"failed: {self.wl.name} mesh {p.mesh}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return False
        return True

    def _timed(self, key, fn, *args):
        t0 = self.track.clock()
        out = fn(*args)
        self.samples[key].append((t0, self.track.clock()))
        return out

    def _solve(self, p, traced):
        try:
            with traced:
                f, report = self._timed(
                    "op", solver.solve_prescribed_curvature, p.spec, p.tri, p.target)
        except NotConverged as exc:
            self.reports.append(exc.report)
            raise
        self.reports.append(report)
        if not report.converged:
            raise GateError("solve returned without convergence")
        for _ in range(EVAL_REPEATS):
            K = self._timed("K", curvature.curvature_map, p.spec, p.tri, f)
            K2 = jac = None  # no older Jacobian stays alive beside the next
            K2, jac = self._timed("KJ", curvature.curvature_and_jacobian,
                                  p.spec, p.tri, f)
        check_eval(K, K2, jac)
        tgt = np.array([p.target[i] for i in range(p.tri.n_boundary)])
        if np.max(np.abs(np.asarray(K) - tgt)) > self.tol_K:
            raise GateError("recomputed residual exceeds tol_K")
        u = conformal.u_from_f(p.spec, f)
        if max(abs(u[i] - p.u[i]) for i in p.u) > U_TOL:
            raise GateError("solution is not the generating point")

    def _eval(self, p, traced):
        with traced:
            t0 = self.track.clock()
            K = self._timed("K", curvature.curvature_map, p.spec, p.tri, p.f)
            K2, jac = self._timed("KJ", curvature.curvature_and_jacobian,
                                  p.spec, p.tri, p.f)
        self.samples["op"].append((t0, self.samples["KJ"][-1][1]))
        check_eval(K, K2, jac)
        if p.fd_dir is not None and p.mesh not in self.fd_checked:
            self.fd_checked.add(p.mesh)
            check_fd(p, jac)

    def seconds(self, key: str, rows=None) -> list:
        """Rescaled seconds of the given (default: all) samples of a kind."""
        rows = self.samples[key] if rows is None else rows
        return [(t1 - t0) * self.track.scale(t0, t1) for t0, t1 in rows]


def cycle(runner: Runner, pool: list, seconds: float) -> None:
    """Run the pool round robin for ``seconds`` of wall time, and at least
    once through."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(pool) or time.perf_counter() < deadline:
        runner.run(pool[i % len(pool)])
        i += 1


# -- metrics -------------------------------------------------------------------

def _ms(x: float) -> float:
    return x * 1e3


def _tail(samples: list) -> str:
    """p50 and, when at least ten samples lie beyond it, p90 (ms)."""
    s = sorted(samples)
    if not s:
        return "n=0"
    out = f"n={len(s)} p50={_ms(statistics.median(s)):.3f}"
    if len(s) >= 100:
        out += f" p90={_ms(statistics.quantiles(s, n=10)[-1]):.3f}"
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(texts, track: SpeedTrack) -> tuple:
    """Parse every mesh, SETUP_REPEATS times; (median rescaled seconds,
    median raw seconds, the parsed meshes).

    Each repeat starts from a collected heap without the previous result, so
    that repeats differ only in the machine's noise.
    """
    raw, rescaled = [], []
    for _ in range(SETUP_REPEATS):
        meshes = None
        gc.collect()
        t0 = track.clock()
        meshes = parse_all(texts)
        t1 = track.clock()
        raw.append(t1 - t0)
        rescaled.append((t1 - t0) * track.scale(t0, t1))
    return statistics.median(rescaled), statistics.median(raw), meshes


def run_untraced(wl: Workload, seed: int, seconds: float) -> dict:
    rng = random.Random(f"{wl.name}/{seed}")
    texts = mesh_texts(wl, rng)
    with SpeedTrack() as track:
        setup_s, raw_setup_s, meshes = timed_setup(texts, track)
        pool = make_problems(wl, meshes, rng)
        runner = Runner(wl, track)
        cycle(runner, pool, seconds)
    op, K, KJ = (runner.seconds(key) for key in ("op", "K", "KJ"))
    raw = {key: [t1 - t0 for t0, t1 in rows] for key, rows in runner.samples.items()}
    print(f"summary: {wl.name} seed={seed} setup_s={setup_s:.4f} "
          f"raw_setup_s={raw_setup_s:.4f} op_ms[{_tail(op)}] "
          f"raw_op_ms[{_tail(raw['op'])}] eval_K_ms[{_tail(K)}] "
          f"raw_eval_K_ms[{_tail(raw['K'])}] eval_KJ_ms[{_tail(KJ)}] "
          f"raw_eval_KJ_ms[{_tail(raw['KJ'])}]", file=sys.stderr)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms.p50": (_ms(statistics.median(op)), "ms"),
        "ops_per_s": (len(op) / sum(op), "1/s"),
        "eval_K_ms.p50": (_ms(statistics.median(K)), "ms"),
        "eval_KJ_ms.p50": (_ms(statistics.median(KJ)), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return result(runner, metrics)


def run_traced(wl: Workload, seed: int, seconds: float) -> dict:
    """Per-layer split over a fixed set of problems, so its counts repeat.

    The problems first run untraced, round robin for ``seconds``; the sum of
    their median times is the base of the tracing overhead.  Then each runs
    once under the tracer.  Span times are rescaled like the end-to-end ones.
    """
    rng = random.Random(f"{wl.name}/{seed}")
    texts = mesh_texts(wl, rng)
    with SpeedTrack() as track:
        tracer = Tracer(track.clock)
        with tracer.install():
            meshes = parse_all(texts)
        pool = make_problems(wl, meshes, rng)
        subset = pool[:wl.traced] if wl.traced else pool
        runner = Runner(wl, track)
        ops = runner.samples["op"]
        base = [[] for _ in subset]
        deadline = time.perf_counter() + seconds
        while not all(base) or time.perf_counter() < deadline:
            for k, p in enumerate(subset):
                if runner.run(p):
                    base[k].append(ops[-1])
            if runner.failed:
                break
        first_report, first_op = len(runner.reports), len(ops)
        for p in subset:
            runner.run(p, tracer)
    traced = runner.seconds("op", ops[first_op:])
    untraced = sum(statistics.median(runner.seconds("op", rows)) for rows in base if rows)
    return result(runner, layer_metrics(
        tracer.layer_times(track.scale), tracer, runner.reports[first_report:],
        sum(traced), sum(traced) / untraced if untraced else 0.0, runner))


def layer_metrics(lt: dict, tracer: Tracer, reports, traced_s: float,
                  overhead: float, runner: Runner) -> dict:

    def calls(name):
        return lt[name][0]

    def total(name):
        return lt[name][1]

    def self_s(name):
        return lt[name][2]

    adm = "conformal.admissible"
    iters = sum(r.iterations for r in reports)
    trials = tracer.calls_under(adm, "solver.solve_prescribed_curvature")
    m = {}
    for name in ("mesh.parse", adm, "conformal.f_from_u", "conformal.u_from_f",
                 "kernels.face_theta", "kernels.face_eval"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (total(name), "s")
    m[f"{adm}.reject_ratio"] = (
        tracer.admissible_rejects / calls(adm) if calls(adm) else 0.0, "ratio")
    for name in ("curvature.curvature_map", "curvature.curvature_and_jacobian",
                 "solver.default_initial", "solver.solve_prescribed_curvature"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["curvature.jacobian_bytes"] = (tracer.jacobian_bytes, "B")
    m["solver.linalg.s"] = (total("solver.linalg") + total(INDEFINITE_SOLVE), "s")
    m["solver.newton_iters"] = (iters, "count")
    m["solver.trials"] = (trials, "count")
    m["solver.trial_accept_ratio"] = (iters / trials if trials else 0.0, "ratio")
    m["solver.boundary_hits"] = (sum(r.boundary_hits for r in reports), "count")
    m["solver.indefinite_solves"] = (calls(INDEFINITE_SOLVE), "count")
    m["traced.ops_s"] = (traced_s, "s")
    m["tracing.overhead_ratio"] = (overhead, "ratio")
    m["failed_ratio"] = (runner.failed / runner.attempted, "ratio")
    return m


def result(runner: Runner, metrics: dict) -> dict:
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
