"""Randomized identity suites for the hexagon and curvature machinery.

Each suite draws admissible samples for one structure family, evaluates a
set of exact identities, and reports the worst residual against its bound.
Used by the check-identities subcommand and by the test suite.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from . import curvature, mesh, solver
from ._kernels import OK, face_eval
from ._kernels.center import face_centers
from .conformal import StructureSpec, component_values, polytope, spec_arrays
from .errors import HexcurvError
from .hexagon import HexagonGeometry
from .lorentz import CausalClass

_SIGN_TOL = 1e-9


def _sgn(v):
    return 0 if abs(v) <= _SIGN_TOL else (1 if v > 0 else -1)


@functools.cache
def stock_spec(family: str) -> StructureSpec:
    """A representative single-face spec per family for randomized suites.

    One shared object per family: a mesh keeps the spec_arrays of the last
    spec object used on it, so repeated draws of one family reuse them."""
    al0 = { i: 0 for i in range(3)}
    if family == "A1":
        return StructureSpec("A1", {0: 0, 1: 1, 2: 0}, {0: 3.0, 1: 2.5, 2: 2.0})
    if family == "A2":
        return StructureSpec("A2", {i: -1 for i in range(3)}, {0: -0.25, 1: 0.5, 2: 2.0})
    if family == "A3":
        return StructureSpec("A3", al0, {0: 2.0, 1: 3.0, 2: 1.5})
    if family == "MixedI":
        # window with a uniformly negative-definite Jacobian
        return StructureSpec("MixedI", {0: -1, 1: 1, 2: 1},
                             {0: -4.0, 1: 3.0, 2: -4.0}, special=frozenset({0}))
    if family == "MixedII":
        return StructureSpec("MixedII", {i: -1 for i in range(3)},
                             {0: 1.0, 1: 1.0, 2: 1.0}, special=frozenset({0}))
    if family == "MixedIII":
        return StructureSpec("MixedIII", al0, {0: -4.0, 1: 3.0, 2: -5.0},
                             special=frozenset({0}))
    raise HexcurvError(f"unknown family {family!r}")


def sample_face_points(spec, tri, rng, n, scale=1.0, min_slack=0.25):
    """Admissible u samples around the feasible default.

    min_slack keeps every chart bound and pairwise constraint at distance
    >= min_slack, so derivative magnitudes stay moderate (fixed-step
    finite differences and absolute residual bounds need that).
    """
    u0 = solver.default_initial(spec, tri)
    poly = [x.tolist() for x in polytope(spec, tri)]
    (lo, hi), pairs = poly[:2], list(zip(*poly[2:6]))

    def slacks(u):  # python floats: most draws fail early, on a single face
        for i, ui in u.items():
            yield ui - lo[i]
            yield hi[i] - ui
        for a, b, pair_lo, pair_hi in pairs:
            s = u[a] + u[b]
            yield s - pair_lo
            yield pair_hi - s

    out = []
    tries = 0
    while len(out) < n and tries < 400 * n:
        tries += 1
        s = scale * rng.uniform(0.05, 1.0)
        u = {}
        for i in u0:
            ui = u0[i] + rng.uniform(-s, s)
            u[i] = ui if lo[i] < ui < hi[i] else u0[i]
        if all(x >= min_slack and x > 0.0 for x in slacks(u)):
            out.append(u)
    return out


def split_values(ch, rho):
    """Complex-extended partial lengths (d_ab, d_ba) of each edge of one
    face, from its cosh l and partial ratio (arcs.ch and arcs.rho)."""
    out = []
    for c, r in zip(np.asarray(ch).tolist(), np.asarray(rho).tolist()):
        l = math.acosh(c)
        s = math.sqrt((c - 1.0) * (c + 1.0))
        num, den = r * s, 1.0 + r * c
        if abs(num) < abs(den):
            d_ab = math.atanh(num / den)
            out.append((complex(d_ab), complex(l - d_ab)))
        elif abs(num) > abs(den):
            x = math.atanh(den / num)
            out.append((complex(x, math.pi / 2), complex(l - x, -math.pi / 2)))
        else:
            raise HexcurvError("degenerate split sample")
    return out


def compatibility_residual_general(splits) -> float:
    lhs = cmath.sinh(splits[0][0]) * cmath.sinh(splits[1][0]) * cmath.sinh(splits[2][0])
    rhs = cmath.sinh(splits[0][1]) * cmath.sinh(splits[1][1]) * cmath.sinh(splits[2][1])
    return abs(lhs - rhs)


def run_suite(family: str, samples: int, rng) -> dict:
    """Run every residual suite for one family.

    Each sample is the single-face mesh's record at one admissible point;
    samples whose theta stage or face center fails are skipped.  Returns
    {check name: (count, worst residual, bound)}.
    """
    spec = stock_spec(family)
    tri = mesh.single_face()
    res = {
        "compatibility": [0, 0.0, 1e-10],
        "finite-difference": [0, 0.0, 1e-5],
        "reciprocal-cosh-diagonal": [0, 0.0, 1e-10],
        "center-distance-formula": [0, 0.0, 1e-9],
        "u-symmetry": [0, 0.0, 1e-12],
        "negative-definite": [0, 0.0, 1.0],
    }
    points = sample_face_points(spec, tri, rng, samples)
    cov = spec_arrays(spec, tri).cov
    for u in points:
        f = cov.to_f(component_values(u, tri.n_boundary))
        try:
            _, arcs = curvature.curvature_and_arcs(spec, tri, f)
            status, _, _, _, center = face_centers(arcs)
            if status[0] != OK:
                continue
            sp = split_values(arcs.ch[0], arcs.rho[0])
        except HexcurvError:
            continue
        c = res["compatibility"]
        c[0] += 1
        c[1] = max(c[1], compatibility_residual_general(sp))
        # the paper's center-distance matrix against the cosine-law one
        mc = face_eval(arcs, np.ones(3))[0]
        g = res["center-distance-formula"]
        g[0] += 1
        g[1] = max(g[1], float(np.max(np.abs(center[0] - mc)))
                   / max(1.0, float(np.max(np.abs(mc)))))
        # diagonal identity, on the cosine-law matrix
        g = res["reciprocal-cosh-diagonal"]
        lcosh = arcs.ch[0].tolist()
        worst = max(
            abs(mc[0, 0] - (lcosh[0] * mc[1, 0] + lcosh[2] * mc[2, 0])),
            abs(mc[1, 1] - (lcosh[0] * mc[0, 1] + lcosh[1] * mc[2, 1])),
            abs(mc[2, 2] - (lcosh[2] * mc[0, 2] + lcosh[1] * mc[1, 2])),
        )
        g[0] += 1
        g[1] = max(g[1], worst)
        # symmetry and definiteness of the release u-Jacobian
        s = res["u-symmetry"]
        jac = curvature.jacobian_from_arcs(tri, arcs, cov.derivative(f)).toarray()
        s[0] += 1
        s[1] = max(s[1], float(np.max(np.abs(jac - jac.T))))
        nd = res["negative-definite"]
        nd[0] += 1
        if not curvature.is_negative_definite(jac):
            nd[1] = max(nd[1], 2.0)
        # finite differences of the arcs against the analytic matrix
        fdres = _fd_residual(spec, tri, f, mc)
        if fdres is not None:
            d = res["finite-difference"]
            d[0] += 1
            d[1] = max(d[1], fdres)
    return {k: tuple(v) for k, v in res.items()}


def _fd_residual(spec, tri, f, mc, step=1e-6):
    """Worst relative gap between mc = d theta / d f of the single face and
    central differences of its arcs, or None where a perturbed point fails."""
    worst = 0.0
    for col in range(3):
        fp, fm = f.copy(), f.copy()
        fp[col] += step
        fm[col] -= step
        try:
            tp = curvature.curvature_map(spec, tri, fp)
            tm = curvature.curvature_map(spec, tri, fm)
        except HexcurvError:
            return None
        for row in range(3):
            num = (tp[row] - tm[row]) / (2.0 * step)
            an = mc[row, col]
            worst = max(worst, abs(an - num) / max(1e-8, abs(an), abs(num)))
    return worst


# -- hexagon-level identity blocks --------------------------------------------

def time_like_residual(geom: HexagonGeometry) -> float:
    """Worst residual of the time-like center distance identities."""
    h, q = geom.h, geom.q
    d, t = geom.edge_partial, geom.arc_partial
    others = ((1, 2), (2, 0), (0, 1))
    worst = 0.0
    for r in range(3):
        s, t_ = others[r]
        worst = max(
            worst,
            abs(math.sinh(q[r]) - math.cosh(h[s]) * math.sinh(d(r, t_))),
            abs(math.sinh(q[r]) - math.cosh(h[t_]) * math.sinh(d(r, s))),
            abs(math.sinh(h[r]) - math.cosh(q[s]) * math.sinh(t(r, t_))),
            abs(math.sinh(h[r]) - math.cosh(q[t_]) * math.sinh(t(r, s))),
        )
    return worst


def space_like_residual(geom: HexagonGeometry):
    """(block name, worst residual) of the space-like identity blocks.

    Block 'one-negative' covers centers with a single negative distance;
    'two-negative' covers the paired q/h negative domains.
    """
    h, q = geom.h, geom.q
    d, t = geom.edge_partial, geom.arc_partial
    negq = [r for r in range(3) if _sgn(q[r]) < 0]
    negh = [r for r in range(3) if _sgn(h[r]) < 0]
    S, C = math.sinh, math.cosh

    def block(qq, hh, dd, tt, r, s, t_):
        return max(
            abs(C(qq[r]) + S(hh[s]) * S(dd(r, t_))),
            abs(C(qq[r]) + S(hh[t_]) * S(dd(r, s))),
            abs(C(qq[s]) - S(hh[r]) * S(dd(s, t_))),
            abs(C(qq[s]) - S(hh[t_]) * S(dd(s, r))),
            abs(C(qq[t_]) - S(hh[r]) * S(dd(t_, s))),
            abs(C(qq[t_]) - S(hh[s]) * S(dd(t_, r))),
            abs(C(hh[r]) - S(qq[s]) * S(tt(r, t_))),
            abs(C(hh[r]) - S(qq[t_]) * S(tt(r, s))),
            abs(C(hh[s]) + S(qq[r]) * S(tt(s, t_))),
            abs(C(hh[s]) - S(qq[t_]) * S(tt(s, r))),
            abs(C(hh[t_]) + S(qq[r]) * S(tt(t_, s))),
            abs(C(hh[t_]) - S(qq[s]) * S(tt(t_, r))),
        )

    if len(negq) == 1 and not negh:
        r = negq[0]
        s, t_ = [x for x in range(3) if x != r]
        return "one-negative", block(q, h, d, t, r, s, t_)
    if len(negh) == 1 and not negq:
        # swapped roles: distances to arcs exchange with distances to edges
        r = negh[0]
        s, t_ = [x for x in range(3) if x != r]
        return "one-negative", block(h, q, t, d, r, s, t_)
    if len(negq) == 1 and len(negh) == 1 and negq[0] != negh[0]:
        r, s = negq[0], negh[0]
        t_ = 3 - r - s
        worst = max(
            abs(C(q[r]) - S(h[s]) * S(d(r, t_))),
            abs(C(q[r]) + S(h[t_]) * S(d(r, s))),
            abs(C(q[s]) - S(h[r]) * S(d(s, t_))),
            abs(C(q[s]) - S(h[t_]) * S(d(s, r))),
            abs(C(q[t_]) - S(h[r]) * S(d(t_, s))),
            abs(C(q[t_]) + S(h[s]) * S(d(t_, r))),
            abs(C(h[r]) - S(q[s]) * S(t(r, t_))),
            abs(C(h[r]) - S(q[t_]) * S(t(r, s))),
            abs(C(h[s]) - S(q[r]) * S(t(s, t_))),
            abs(C(h[s]) + S(q[t_]) * S(t(s, r))),
            abs(C(h[t_]) + S(q[r]) * S(t(t_, s))),
            abs(C(h[t_]) - S(q[s]) * S(t(t_, r))),
        )
        return "two-negative", worst
    return "unmatched", math.inf


def sign_coherence_ok(geom: HexagonGeometry) -> bool:
    """Signs of q_r match both edge partials at r; h_r both arc partials."""
    if geom.center_class is CausalClass.LIGHT_LIKE:
        return True
    others = ((1, 2), (2, 0), (0, 1))
    for r in range(3):
        s, t_ = others[r]
        sq = _sgn(geom.q[r])
        for val in (geom.edge_partial(r, s), geom.edge_partial(r, t_)):
            if sq and _sgn(val) and _sgn(val) != sq:
                return False
        sh = _sgn(geom.h[r])
        for val in (geom.arc_partial(r, s), geom.arc_partial(r, t_)):
            if sh and _sgn(val) and _sgn(val) != sh:
                return False
    return True
