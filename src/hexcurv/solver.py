"""Prescribed-curvature Newton solver.

Inverts the curvature map: given a positive target vector, finds the
factors whose boundary curvatures match it.  Works in the u-coordinates,
where the Jacobian is symmetric and, outside the hyper-ideal split
windows, negative definite.  Each Newton step sums the face blocks
straight into the Jacobian permuted to its elimination order, a new
sparse array from curvature's one Jacobian helper, and factors it once
(_factor); a Gershgorin certificate on its data decides definiteness, and
only where it fails are the pivots read.  The step itself (_solve_step)
solves with the factor and replays its verdict into the report.
Backtracking keeps iterates inside the admissible polytope and the
residual strictly decreasing.  A full step that leaves the polytope is
cut to BOUNDARY_FRACTION of the step fraction t_max < 1 at which it meets
the boundary, read from conformal.slack (the fraction-to-the-boundary rule
of interior-point methods, Nocedal and Wright, Numerical Optimization,
2nd ed., section 19.2); every other rejected trial halves the step.  The
Jacobian and its arcs are freed before the line search; the step's LU is
kept through it.  Where the last step took the residual from r_prev to r
with r * r <= tol_K * r_prev, its contraction predicts tol_K in one more
step, and a chord step comes first: one full trial u - lam_prev^-1 (K -
tgt) with that LU and no new Jacobian (the Newton-chord or Shamanskii
method, Kelley, Iterative Methods for Linear and Nonlinear Equations,
SIAM 1995, ch. 5).  It ends the solve where it is admissible and reaches
tol_K; otherwise the Newton step follows at the same iterate, whose arcs
are still alive, so the dropped trial costs one theta pass.  A chord step
is thus only ever the last step, and the report counts it in chord_steps.

What stays fixed is built once and kept.  Per mesh, read once per solve:
the Jacobian's layout in its elimination order, with the diagonal
positions (Triangulation.jacobian_order, a mesh.Layout).  Per (spec,
mesh), fields of its record conformal.spec_arrays(spec, tri): the default
start, the existence verdict and the Newton state there (NewtonStart: f,
K and the Jacobian's factor, None where it is exactly singular).  The
first solve that steps from the default start keeps that state; every
later one loads it before its first iteration and steps first from the
kept factor, so it makes one theta pass, one Jacobian and one
factorization fewer, with the same bits.  A solve from a user initial
point neither reads nor keeps it.  The record keeps that one LU for its
life, which is the mesh's until it is used with another spec.  Per
iterate, one theta pass gives the trial's residual and the arcs from
which a Newton step there builds its Jacobian; the kept start alone has
no arcs.

energy gives the difference of the mesh energy E, whose u-gradient is K,
between two admissible points: a solution u* of K = tgt maximizes
E(u) - tgt . u wherever J is negative definite (the variational principle
behind rigidity).
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .conformal import StructureSpec, Weights, admissible, component_values, slack, spec_arrays
from .curvature import _jacobian, curvature_and_arcs, curvature_map
from .errors import (
    HexcurvError,
    NoFeasibleStart,
    NotAdmissible,
    NotConverged,
    PathLeavesDomain,
)


# backtracking: at most MAX_HALVINGS trials per Newton step; a full step
# that leaves the polytope is cut to BOUNDARY_FRACTION of its way to the
# boundary, every other rejected trial scales the step by DAMPING
DAMPING = 0.5
BOUNDARY_FRACTION = 0.8
MAX_HALVINGS = 60

# SpecArrays.newton, the Newton state at the default start: f and K there,
# read-only, and _factor's factor of the Jacobian there (None: singular).
NewtonStart = namedtuple("NewtonStart", "f K factor")


@dataclass
class SolveOptions:
    tol_K: float = 1e-10
    max_iter: int = 100
    initial: Mapping[int, float] | np.ndarray | None = None  # factors; None: the default

    def __post_init__(self):
        tol, n = self.tol_K, self.max_iter
        if not (isinstance(tol, numbers.Real) and not isinstance(tol, bool)
                and tol > 0.0 and math.isfinite(tol)):
            raise ValueError(f"tol_K must be a positive finite real number, not {tol!r}")
        if isinstance(n, bool) or not hasattr(n, "__index__") or operator.index(n) < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, not {n!r}")


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
    chord_steps: int = 0


def default_initial(spec: StructureSpec, tri) -> dict:
    """The default start, spec_arrays(spec, tri).start, as a new dict."""
    return dict(enumerate(spec_arrays(spec, tri).start.tolist()))


def _result(f: np.ndarray) -> Weights:
    """The factors f of the components 0..N-1, as the read-only Weights a
    solve returns and NotConverged carries."""
    return Weights(np.arange(len(f)), f)


def _factor(lam, order: tuple):
    """(lu, definite): one sparse LU factorization of the symmetric lam and
    whether lam is negative definite, or None where SuperLU finds lam
    exactly singular.

    order is mesh.elimination_order's Layout of lam's pattern, and lam, in
    that layout, holds P lam P^T = lam[perm][:, perm] for perm =
    order.order, which SuperLU factors in its natural order; lam carries
    the layout's checked format flags.
    Pivots stay on the diagonal unless one is exactly zero, which no
    definite matrix has.  Then P lam P^T = L U with U = D L^T, and by
    Sylvester's law of inertia lam is negative definite exactly when every
    pivot in D is negative.  The pivots, which build L and U, are read only
    when a Gershgorin certificate fails: where every column j has
    2 lam_jj + sum_i |lam_ij| < 0, every leading block A_k of P lam P^T has
    its eigenvalues in the open left half-plane, so every pivot
    det A_k / det A_(k-1) is negative.
    The factor has little fill, so SuperLU's panel bookkeeping dominates:
    panel_size=1, relax=1 cut it (BENCH_9.json), as where the order is read.
    """
    diag, data = order.diagonal, lam.data
    try:
        lu = scipy.sparse.linalg.splu(
            lam, permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1, panel_size=1,
            options={"SymmetricMode": True})
    except RuntimeError as err:
        if "exactly singular" not in str(err):
            raise
        return None
    certified = len(diag) == lam.shape[0] and np.all(
        2.0 * data[diag] + np.add.reduceat(np.abs(data), lam.indptr[:-1]) < 0.0)
    return lu, bool(certified or (np.array_equal(lu.perm_r, lu.perm_c)
                                  and np.all(lu.U.diagonal() < 0.0)))


def _solve_step(factor, g: np.ndarray, report: SolveReport, order: tuple):
    """lam^-1 g from _factor's factor of lam in order's layout; where lam is
    not negative definite (a hyper-ideal split window) the report notes it."""
    lu, definite = factor
    if not definite:
        note = "jacobian indefinite at an iterate"
        if note not in report.notes:
            report.notes.append(note)
    step = np.empty(len(g))
    step[order.order] = lu.solve(g[order.order])
    return step


def solve_prescribed_curvature(
    spec: StructureSpec, tri, target, opts: SolveOptions | None = None
):
    """Find factors f with curvature equal to the target vector.

    target maps boundary components to positive reals (a mapping, such as
    a Weights, or an array).  Returns (f, report), f the factors as a
    read-only Weights keyed 0..N-1.  Otherwise raises NotConverged with
    factors, the last accepted iterate as such a Weights, and the report,
    whose residual r is max|K(factors) - target| and whose trajectory holds
    iterations + 1 residuals; the message names the ending: "no convergence
    in <max_iter> iterations (residual r)", "jacobian exactly singular at
    residual r" or "damping budget exhausted at residual r".
    """
    opts = opts or SolveOptions()
    n = tri.n_boundary
    tgt = component_values(target, n)
    if np.any(tgt <= 0.0) or not np.all(np.isfinite(tgt)):
        raise HexcurvError("target curvatures must be positive reals")

    arrays = spec_arrays(spec, tri)
    report = SolveReport(False, 0, math.inf, existence_unproven=arrays.unproven)
    if report.existence_unproven:
        report.notes.append(
            "no existence theorem covers this configuration; "
            "a failed solve is not evidence either way about the target"
        )

    cov, kept = arrays.cov, None
    if opts.initial is not None:
        u = cov.to_u(component_values(opts.initial, n))
        if not admissible(spec, tri, u).ok:
            raise NoFeasibleStart("user initial point is not admissible")
    else:
        u, kept = arrays.start, arrays.newton

    if kept is None:
        f, factor = cov.to_f(u), None
        K, arcs = curvature_and_arcs(spec, tri, f)
    else:
        (f, K, factor), arcs = kept, None
    order, res = tri.jacobian_order, float(np.max(np.abs(K - tgt)))
    report.trajectory.append(res)

    prev_res = 0.0  # the residual before the last step; 0 allows no chord trial
    for it in range(opts.max_iter + 1):
        report.iterations, report.residual = it, res
        if res <= opts.tol_K:
            report.converged = True
            report.quad_constant = _quad_constant(report.trajectory[:it + 1 - report.chord_steps])
            return _result(f), report
        if it == opts.max_iter:
            why = f"no convergence in {opts.max_iter} iterations (residual {res})"
            break
        trial = None
        if res * res <= opts.tol_K * prev_res:
            # the last step's contraction predicts tol_K in one more step: a
            # full chord trial with that step's factor ends the solve if it
            # reaches tol_K, and is dropped otherwise
            trial = _trial(spec, tri, cov, u - _solve_step(factor, K - tgt, report, order),
                           tgt, report)
            if trial is not None and trial[4] <= opts.tol_K:
                report.chord_steps += 1
            else:
                trial = None
        if trial is None:
            # the Jacobian and the arcs behind it are freed before any trial;
            # its LU is kept for a chord trial at the next iterate
            if arcs is not None:  # every iterate but the kept start
                factor = None  # the last step's LU is freed before the next is built
                factor = _factor(_jacobian(arcs, cov.derivative(f), order), order)
                if it == 0 and opts.initial is None:
                    f.flags.writeable = K.flags.writeable = False
                    arrays.newton = NewtonStart(f, K, factor)
            if factor is None:
                why = f"jacobian exactly singular at residual {res}"
                break
            step = _solve_step(factor, K - tgt, report, order)
            arcs, lam_scale = None, 1.0
            for k in range(MAX_HALVINGS):
                trial = _trial(spec, tri, cov, u - lam_scale * step, tgt, report)
                if trial is not None and trial[4] < res:
                    break
                # a full step that leaves the polytope is cut short of its boundary
                t_max = _to_boundary(arrays.polytope, u, step) if k == 0 and trial is None else 1.0
                lam_scale = BOUNDARY_FRACTION * t_max if t_max < 1.0 else lam_scale * DAMPING
                trial = None  # no rejected trial's arrays stay alive
            else:
                why = f"damping budget exhausted at residual {res}"
                break
        prev_res, (u, f, K, arcs, res) = res, trial
        report.trajectory.append(res)
    raise NotConverged(why, factors=_result(f), report=report)


def _trial(spec, tri, cov, u, tgt, report: SolveReport):
    """(u, f, K, arcs, residual) at the trial point u, or None where u is
    not admissible or an edge or arc degenerates there (a boundary hit)."""
    if admissible(spec, tri, u).ok:
        try:
            f = cov.to_f(u)
            K, arcs = curvature_and_arcs(spec, tri, f)
            return u, f, K, arcs, float(np.max(np.abs(K - tgt)))
        except HexcurvError:
            pass
    report.boundary_hits += 1
    return None


def _to_boundary(poly, u, step) -> float:
    """The step fraction t at which u - t step meets poly's boundary (inf
    where it never does): each slack falls at the rate of the step's own
    slack under zero bounds."""
    # an overflowed pair sum reads as inf, and so does the ratio of a slack that does not fall
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rate = slack(poly._replace(lo=0.0, hi=0.0, pair_lo=0.0, pair_hi=0.0), step)
        return float(np.min(np.where(rate > 0.0, slack(poly, u) / rate, np.inf), initial=np.inf))


def _quad_constant(traj) -> float:
    tail = [r for r in traj if r > 0.0][-4:]
    cs = [
        tail[n + 1] / tail[n] ** 2
        for n in range(len(tail) - 1)
        if tail[n] ** 2 > 0.0
    ]
    return max(cs) if cs else float("nan")


# -- variational energy ------------------------------------------------------

# 12-node Gauss-Legendre, panels doubled until two levels agree to
# ENERGY_RTOL relative (absolute below 1)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
ENERGY_RTOL = 1e-9


def energy(spec: StructureSpec, tri, u_from, u_to) -> float:
    """E(u_to) - E(u_from) for the mesh energy E, whose u-gradient is K:
    the integral of K(a + t (b - a)) . (b - a) over t in [0, 1].

    The Jacobian's symmetry makes K . du exact, so the value is path
    independent; where J is negative definite E is strictly concave.  Each
    quadrature node is one curvature_map pass.  The admissible polytope is
    convex, so both ends admissible keep the segment inside it; a node
    whose theta stage fails raises PathLeavesDomain.
    """
    a, b = (component_values(u, tri.n_boundary) for u in (u_from, u_to))
    if not (admissible(spec, tri, a).ok and admissible(spec, tri, b).ok):
        raise PathLeavesDomain("integration segment ends outside the admissible polytope")
    d, to_f = b - a, spec_arrays(spec, tri).cov.to_f

    def slope(t):
        try:
            return curvature_map(spec, tri, to_f(a + t * d)) @ d
        except NotAdmissible as exc:
            raise PathLeavesDomain(str(exc)) from exc

    prev = None
    for level in range(12):
        panels = 2 ** level
        half = 0.5 / panels
        total = half * sum(w * slope((p + 0.5) / panels + half * x)
                           for p in range(panels) for x, w in zip(_GL_NODES, _GL_WEIGHTS))
        if prev is not None and abs(total - prev) < ENERGY_RTOL * max(1.0, abs(total)):
            return float(total)
        prev = total
    return float(prev)
