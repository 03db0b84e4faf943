"""Prescribed-curvature Newton solver.

Inverts the curvature map: given a positive target vector, finds the
factors whose boundary curvatures match it.  Works in the u-coordinates,
where the Jacobian is symmetric and, outside the hyper-ideal split
windows, negative definite.  Each Newton step factors the sparse
Jacobian once; backtracking damping keeps iterates inside the admissible
polytope and the residual strictly decreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .conformal import StructureSpec, admissible, f_from_u, polytope, u_from_f
from .curvature import curvature_and_jacobian, curvature_map, face_angles
from .errors import (
    HexcurvError,
    NoFeasibleStart,
    NotAdmissible,
    NotConverged,
    PathLeavesDomain,
)


@dataclass
class SolveOptions:
    tol_K: float = 1e-10
    max_iter: int = 100
    damping: float = 0.5
    max_halvings: int = 60
    initial: dict | None = None  # factor values; None selects the family default

    def __post_init__(self):
        if not self.tol_K > 0.0:
            raise ValueError("tol_K must be positive")
        if not (0.0 < self.damping < 1.0):
            raise ValueError("damping factor must lie in (0, 1)")


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual: float
    trajectory: list = field(default_factory=list)
    boundary_hits: int = 0
    existence_unproven: bool = False
    quad_constant: float = float("nan")
    notes: list = field(default_factory=list)


def existence_unproven(spec: StructureSpec, tri) -> bool:
    """Whether the configuration sits outside the proven-solvable classes."""
    fam = spec.family
    if fam == "A3" or fam == "MixedIII":
        return False
    if fam == "MixedII":
        return True
    if fam == "A1":
        return any(a == -1 for a in spec.alpha.values())
    if fam == "A2":
        return any(not (-1.0 <= spec.eta[e.id] <= 0.0) for e in tri.edges)
    # MixedI: proven only for alpha in {0,1} with at most one non-special
    # corner of each special face carrying alpha = 1
    if any(a == -1 for a in spec.alpha.values()):
        return True
    for face in tri.faces:
        others = [v for v in face.vertices if not spec.is_special(v)]
        if len(others) == 2 and spec.alpha[others[0]] == spec.alpha[others[1]] == 1:
            return True
    return False


def _chart_margin(lo: float, hi: float) -> tuple:
    if math.isinf(lo) and math.isinf(hi):
        return lo, hi
    width = hi - lo
    pad = 0.05 if math.isinf(width) else min(0.05, 0.05 * width)
    return (lo + pad if not math.isinf(lo) else lo,
            hi - pad if not math.isinf(hi) else hi)


def default_initial(spec: StructureSpec, tri) -> dict:
    """A point strictly inside every face polytope.

    Starts from per-chart base points and repairs feasibility by sweeping
    the pairwise constraints, nudging both coordinates of a violated pair
    toward the constraint's interior.
    """
    poly = [x.tolist() for x in polytope(spec, tri)]
    charts, bounds = list(zip(*poly[:2])), list(zip(*poly[2:6]))
    u = {}
    for i, (lo, hi) in enumerate(charts):
        if math.isinf(lo) and math.isinf(hi):
            u[i] = 0.0
        elif math.isinf(hi):
            u[i] = lo + 0.5
        elif math.isinf(lo):
            u[i] = hi - 0.5
        else:
            u[i] = 0.5 * (lo + hi)
    margins = [_chart_margin(lo, hi) for lo, hi in charts]
    for _ in range(100):
        moved = False
        for a, b, lo, hi in bounds:
            s = u[a] + u[b]
            if math.isinf(hi):
                margin = 0.5
                target = lo + margin if s <= lo + 0.25 * margin else None
            elif math.isinf(lo):
                margin = 0.5
                target = hi - margin if s >= hi - 0.25 * margin else None
            else:
                mid = 0.5 * (lo + hi)
                width = hi - lo
                target = mid if min(s - lo, hi - s) <= 0.05 * width else None
            if target is not None:
                delta = 0.5 * (target - s)
                u[a] += delta
                if b != a:
                    u[b] += delta
                moved = True
        for i, (lo, hi) in enumerate(margins):
            clamped = min(max(u[i], lo), hi)
            if clamped != u[i]:
                u[i] = clamped
                moved = True
        if not moved and admissible(spec, tri, u).ok:
            return u
    if admissible(spec, tri, u).ok:
        return u
    raise NoFeasibleStart(
        "feasibility repair failed after 100 sweeps; "
        "weights sit at the edge of their validity range"
    )


def _solve_step(lam, g: np.ndarray, report: SolveReport) -> np.ndarray:
    """lam^-1 g from one sparse LU factorization of the symmetric lam.

    Pivots stay on the diagonal unless one is exactly zero, which no
    definite matrix has.  Then P lam P^T = L U with U = D L^T, and by
    Sylvester's law of inertia lam is negative definite exactly when every
    pivot in D is negative; otherwise (a hyper-ideal split window) the
    report notes it.
    """
    lu = scipy.sparse.linalg.splu(lam, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                  options={"SymmetricMode": True})
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() < 0.0)):
        note = "jacobian indefinite at an iterate"
        if note not in report.notes:
            report.notes.append(note)
    return lu.solve(g)


def solve_prescribed_curvature(
    spec: StructureSpec, tri, target, opts: SolveOptions | None = None
):
    """Find factors f with curvature equal to the target vector.

    target maps boundary components to positive reals (dict or array).
    Returns (f, report); raises NotConverged with the best iterate attached
    when the iteration or damping budget runs out.
    """
    opts = opts or SolveOptions()
    tgt = np.array([target[i] for i in range(tri.n_boundary)], dtype=float)
    if np.any(tgt <= 0.0) or not np.all(np.isfinite(tgt)):
        raise HexcurvError("target curvatures must be positive reals")

    report = SolveReport(False, 0, math.inf)
    report.existence_unproven = existence_unproven(spec, tri)
    if report.existence_unproven:
        report.notes.append(
            "no existence theorem covers this configuration; "
            "a failed solve is not evidence either way about the target"
        )

    if opts.initial is not None:
        u = u_from_f(spec, opts.initial)
        if not admissible(spec, tri, u).ok:
            raise NoFeasibleStart("user initial point is not admissible")
    else:
        u = default_initial(spec, tri)

    f = f_from_u(spec, u)
    K, lam = curvature_and_jacobian(spec, tri, f)
    res = float(np.max(np.abs(K - tgt)))
    report.trajectory.append(res)

    for it in range(opts.max_iter):
        report.iterations = it
        report.residual = res
        if res <= opts.tol_K:
            report.converged = True
            report.quad_constant = _quad_constant(report.trajectory)
            return f, report
        step = _solve_step(lam, K - tgt, report)
        lam_scale = 1.0
        accepted = False
        for _ in range(opts.max_halvings):
            u_trial = {i: u[i] - lam_scale * step[i] for i in u}
            if not admissible(spec, tri, u_trial).ok:
                report.boundary_hits += 1
                lam_scale *= opts.damping
                continue
            try:
                f_trial = f_from_u(spec, u_trial)
                K_trial = curvature_map(spec, tri, f_trial)
            except (HexcurvError, OverflowError, ValueError):
                report.boundary_hits += 1
                lam_scale *= opts.damping
                continue
            res_trial = float(np.max(np.abs(K_trial - tgt)))
            if res_trial < res:
                u, f = u_trial, f_trial
                res = res_trial
                accepted = True
                break
            lam_scale *= opts.damping
        if not accepted:
            report.residual = res
            raise NotConverged(
                f"damping budget exhausted at residual {res}",
                factors=f, report=report,
            )
        K, lam = curvature_and_jacobian(spec, tri, f)
        res = float(np.max(np.abs(K - tgt)))
        report.trajectory.append(res)

    report.iterations = opts.max_iter
    report.residual = res
    if res <= opts.tol_K:
        report.converged = True
        report.quad_constant = _quad_constant(report.trajectory)
        return f, report
    raise NotConverged(
        f"no convergence in {opts.max_iter} iterations (residual {res})",
        factors=f, report=report,
    )


def _quad_constant(traj) -> float:
    tail = [r for r in traj if r > 0.0][-4:]
    cs = [
        tail[n + 1] / tail[n] ** 2
        for n in range(len(tail) - 1)
        if tail[n] ** 2 > 0.0
    ]
    return max(cs) if cs else float("nan")


# -- variational energy (diagnostic) ------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def energy_face(spec: StructureSpec, tri, face, u_from, u_to, tol=1e-9) -> float:
    """Line integral of the arc-length 1-form along a straight u-segment.

    Composite Gauss-Legendre with panel doubling until the value settles;
    the closed-form symmetry of the Jacobian makes the 1-form exact, so
    the result is path independent.
    """
    idx = face.vertices
    a = np.array([u_from[v] for v in idx], dtype=float)
    b = np.array([u_to[v] for v in idx], dtype=float)
    dvec = b - a

    def integrand(t):
        uc = a + t * dvec
        upoint = dict(u_from)
        for pos, v in enumerate(idx):
            upoint[v] = uc[pos]
        if not admissible(spec, tri, upoint).ok:
            raise PathLeavesDomain("integration segment exits the face polytope")
        try:
            theta = face_angles(spec, tri, face, f_from_u(spec, upoint))
        except NotAdmissible as exc:
            raise PathLeavesDomain(str(exc)) from exc
        return sum(theta[pos] * dvec[pos] for pos in range(3))

    prev = None
    panels = 1
    for _ in range(12):
        half = 0.5 / panels
        total = 0.0
        for p in range(panels):
            mid = (p + 0.5) / panels
            for x, w in zip(_GL_NODES, _GL_WEIGHTS):
                total += w * integrand(mid + half * x)
        total *= half
        if prev is not None and abs(total - prev) < tol * max(1.0, abs(total)):
            return total
        prev = total
        panels *= 2
    return prev
