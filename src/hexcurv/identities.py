"""Randomized identity suites for the hexagon and curvature machinery.

run_suite draws admissible samples for one structure family around the
spec's kept default start (conformal.spec_arrays), one (k, N) array
(sample_face_points) that one change of variables maps to factors, evaluates
a set of exact identities, among them the paper's center-distance identity
blocks of each causal branch, and reports the worst residual against its
bound and the samples per branch.  Used by the check-identities subcommand
and by the test suite, it imports neither the solver nor scipy.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from . import curvature, mesh
from ._kernels import _NEXT, _PREV, _ROWS, LIGHT, OK, TIME, disjoint_faces, face_eval, face_theta
from ._kernels.center import _sign, face_centers
from .conformal import ChangeOfVariables, StructureSpec, slack, spec_arrays
from .errors import HexcurvError
from .tol import TAU_SIGN

BRANCHES = ("time-like", "space-like", "light-like")  # by branch code


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
    """Admissible u samples around the default start u0 of (spec, tri), in
    draw order as the k <= n rows of a (k, N) array: per try, u0 +
    rng.uniform(-s, s) per coordinate inside its chart, s = scale *
    rng.uniform(0.05, 1.0), kept where every slack is >= min_slack, so that
    derivatives stay moderate; at most 400 n tries, in array blocks whose
    last is redrawn up to its last kept try, as one try at a time draws."""
    arrays = spec_arrays(spec, tri)
    u0, poly = arrays.start, arrays.polytope
    width, out, tries = len(u0) + 1, np.empty((0, len(u0))), 0  # draws per try
    while len(out) < n and tries < 400 * n:
        block = min(max(16, 24 * (n - len(out))), 4096, 65536 // width, 400 * n - tries)
        state = rng.getstate()
        r = np.fromiter(iter(rng.random, None), float, block * width).reshape(block, width)
        s = scale * (0.05 + (1.0 - 0.05) * r[:, :1])
        u = u0 + (-s + (s - -s) * r[:, 1:])
        u = np.where((poly.lo < u) & (u < poly.hi), u, u0)
        x = slack(poly, u)
        kept = np.flatnonzero(((x >= min_slack) & (x > 0.0)).all(axis=1))[:n - len(out)]
        if len(out) + len(kept) == n and kept[-1] + 1 < block:
            rng.setstate(state)
            block = int(kept[-1]) + 1
            np.fromiter(iter(rng.random, None), float, block * width)
        out = np.concatenate((out, u[kept]))
        tries += block
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


def run_suite(family: str, samples: int, rng) -> tuple:
    """Run every residual suite for one family.

    Each sample is the single-face mesh's face at one admissible point; one
    change of variables over the samples' stacked components gives f and
    df/du, and all samples are evaluated in one pass, as disjoint faces;
    those whose theta stage or face center fails are skipped.  The finite
    differences come from one more theta pass over six shifted faces per
    sample (each factor moved by +-1e-5, near eps^(1/3)); a sample with a
    failing shifted face has none.  The paper's identity blocks run on the
    kept samples whose face center has a position domain, from the same
    face-center record.  Returns ({check name: (count, worst residual,
    bound)}, {causal branch: number of kept samples}).
    """
    spec, tri = stock_spec(family), mesh.single_face()
    e, (vert, side) = spec_arrays(spec, tri).edges, tri.face_arrays
    u = sample_face_points(spec, tri, rng, samples)
    cov = ChangeOfVariables(spec, np.tile(np.arange(tri.n_boundary), len(u)))
    f = cov.to_f(u.ravel()).reshape(u.shape)

    def theta_stage(f):  # the single face at each row of f, as disjoint faces
        rows = (np.tile(x, (len(f), 1)) for x in (e.code[side], e.alpha[vert], e.eta[side]))
        return face_theta(disjoint_faces(*rows), f.ravel())

    arcs = theta_stage(f)
    rec, rho = face_centers(arcs), arcs.rho
    # face_centers gives BAD_SPLIT where split_values would raise
    keep = np.flatnonzero(rec.status == OK).tolist()
    compat = [compatibility_residual_general(split_values(arcs.ch[k], rho[k])) for k in keep]
    # the paper's center-distance matrix against the cosine-law one
    mc = face_eval(arcs, np.ones(f.size))[keep]
    center = np.abs(rec.m[keep] - mc).max(axis=(1, 2), initial=0.0) / np.maximum(
        1.0, np.abs(mc).max(axis=(1, 2), initial=0.0))
    # diagonal identity on the cosine-law matrix: side a joins corners a, a + 1
    ch = arcs.ch[keep]
    diagonal = np.abs(mc[:, _ROWS, _ROWS] - (ch * mc[:, _NEXT, _ROWS] + ch[:, _PREV]
                                             * mc[:, _PREV, _ROWS])).max(axis=1, initial=0.0)
    # the paper's identity blocks of each branch, on kept samples with a domain
    placed = np.array(keep, dtype=np.intp)[rec.domain[keep] >= 0]
    blocks = np.where(rec.branch == TIME, time_like_residual(rec), space_like_residual(rec))
    # symmetry and definiteness of the u-Jacobian, the face block in u
    jac = face_eval(arcs, cov.derivative(f.ravel()))[keep]
    # central differences of the arcs against the analytic matrix: row
    # 2 col + s of a sample's shifted faces moves factor col by +-step; a
    # step near eps^(1/3) balances the difference's rounding and truncation
    step = 1e-5
    shifted = np.repeat(f[keep, None, :], 6, axis=1)
    shifted[:, 0::2][:, _ROWS, _ROWS] += step
    shifted[:, 1::2][:, _ROWS, _ROWS] -= step
    moved = theta_stage(shifted.reshape(-1, 3))
    theta = moved.theta.reshape(-1, 3, 2, 3)  # sample, col, sign, row
    num = (theta[:, :, 0] - theta[:, :, 1]) / (2.0 * step)
    an = mc.transpose(0, 2, 1)
    fd = (np.abs(an - num) / np.maximum(np.maximum(1e-8, np.abs(an)), np.abs(num))).max(
        axis=(1, 2), initial=0.0)[(moved.status == OK).reshape(-1, 6).all(axis=1)]
    checks = {  # name: (residual per sample, bound)
        "compatibility": (np.array(compat), 1e-10),
        "finite-difference": (fd, 1e-5),
        "reciprocal-cosh-diagonal": (diagonal, 1e-10),
        "center-distance-formula": (center, 1e-9),
        "u-symmetry": (np.abs(jac - jac.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0),
                       1e-12),
        "negative-definite": (np.array([0.0 if curvature.is_negative_definite(x) else 2.0
                                        for x in jac]), 1.0),
        "center-distance-identities": (blocks[placed], 1e-8),
        "sign-coherence": (np.where(sign_coherence_ok(rec), 0.0, 2.0)[placed], 1.0),
    }
    return ({name: (len(x), float(x.max(initial=0.0)), bound)
             for name, (x, bound) in checks.items()},
            {name: int(np.count_nonzero(rec.branch[keep] == code))
             for code, name in enumerate(BRANCHES)})


# -- hexagon-level identity blocks --------------------------------------------
#
# Each block reads a face-center record (Centers) and gives one value per
# face; it is meaningful on faces with a domain, whose center is time-like
# or space-like, and run_suite reads it there.  For corner a, b runs over
# the other two corners and c is the third one.

_B = np.array([_NEXT, _PREV])
_C = np.array([_PREV, _NEXT])
_A = np.array([_ROWS, _ROWS])


def time_like_residual(rec) -> np.ndarray:
    """Worst residual per face of the time-like center-distance identities
    sinh q_a = cosh h_b sinh d_ac and sinh h_a = cosh q_b sinh theta_ac."""
    h, q = rec.h, rec.q
    res = np.maximum(
        np.abs(np.sinh(q)[:, None] - np.cosh(h[:, _B]) * np.sinh(rec.d[:, _A, _C])),
        np.abs(np.sinh(h)[:, None] - np.cosh(q[:, _B]) * np.sinh(rec.dual[:, _A, _C])))
    return res.max(axis=(1, 2))


def space_like_residual(rec) -> np.ndarray:
    """Worst residual per face of the space-like identity blocks,
    cosh q_a = e(q_a) e(h_b) sinh h_b sinh d_ac and
    cosh h_a = e(h_a) e(q_b) sinh q_b sinh theta_ac, where e(x) is -1 for a
    negative distance and 1 otherwise.  The blocks cover centers with one
    negative distance, and those with one negative q and one negative h at
    different corners; other sign patterns read inf."""
    h, q = rec.h, rec.q
    eh, eq = np.where(h < -TAU_SIGN, -1.0, 1.0), np.where(q < -TAU_SIGN, -1.0, 1.0)
    res = np.maximum(
        np.abs(np.cosh(q)[:, None] - (eq[:, None] * eh[:, _B]) * np.sinh(h[:, _B])
               * np.sinh(rec.d[:, _A, _C])),
        np.abs(np.cosh(h)[:, None] - (eh[:, None] * eq[:, _B]) * np.sinh(q[:, _B])
               * np.sinh(rec.dual[:, _A, _C]))).max(axis=(1, 2))
    nq, nh = (eq < 0).sum(axis=1), (eh < 0).sum(axis=1)
    one = nq + nh == 1
    two = (nq == 1) & (nh == 1) & (np.argmin(eq, axis=1) != np.argmin(eh, axis=1))
    return np.where(one | two, res, np.inf)


def sign_coherence_ok(rec) -> np.ndarray:
    """Per face: the sign of q_a matches both edge partials at a, and that
    of h_a both arc partials at a (signs up to TAU_SIGN count as 0)."""
    conflict = (
        (_sign(rec.q)[:, None] * _sign(rec.d[:, _A, _B]) < 0.0)
        | (_sign(rec.h)[:, None] * _sign(rec.dual[:, _A, _B]) < 0.0))
    return ~conflict.any(axis=(1, 2)) | (rec.branch == LIGHT)
