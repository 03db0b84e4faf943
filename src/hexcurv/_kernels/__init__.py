"""Batched per-face evaluation kernel and the six edge rules.

Evaluates F hexagonal faces in two numpy passes.  The theta stage
(face_theta) gives the boundary arcs by the hexagon cosine law

    cosh theta_a = (cosh l_o + cosh l_p cosh l_q) / (sinh l_p sinh l_q)

(side o opposite corner a, sides p and q at it) and keeps the edge data
the second stage reuses.  The derivative stage (face_eval) differentiates
that law by the chain rule J = dtheta/dl . dl/df . df/du, without a
second theta pass:

    d theta_a / d l_o = sinh l_o / (sinh theta_a sinh l_p sinh l_q)
    d theta_a / d l_b = -cosh theta_c * d theta_a / d l_o   (b = p, q)

with c the other end of side b.  For an edge rule cosh l = s root +
eta e^{f_a + f_b}, sinh l * dl/df_a = s droot/df_a + eta e^{f_a + f_b}
equals cosh l + 1/rho, with rho the partial ratio of edge_state, and
sinh l * dl/df_b equals cosh l + rho.  All nine entries of each face are
computed.  The stage is singular only where sinh l or sinh theta
vanishes, and the theta stage rejects both, so it has no status of its
own.  The paper's face-center formula is the diagnostic
center.face_centers.  The test suite holds the scalar reference of both
stages and of the diagnostic.

Inputs are F x 3 arrays of face vertex ids, edge codes (edge m joins
corners m and m + 1 mod 3), corner alphas and edge weights, plus factor
values indexed by vertex id.

Status codes of the theta stage: 0 ok, 1 degenerate edge (cosh l <= 1),
5 factors outside the evaluable range or the edge rule's domain, 6
vanishing arc (cosh theta <= 1, which only rounding reaches).  The
face-center diagnostic adds 2 degenerate split, 3 degenerate face center
and 4 singular height.  A face reports its first failing check in the
order range, edge, arc, split, center, height, with the edge or corner
position for per-edge and per-arc checks (else -1); later steps mask its
lanes out.  Branch codes: 0 time-like, 1 space-like, 2 light-like face
center.
"""

from typing import NamedTuple

import numpy as np

BACKEND = "numpy"

OK, BAD_EDGE, BAD_SPLIT, BAD_CENTER, BAD_HEIGHT, BAD_RANGE, BAD_ARC = range(7)
TIME, SPACE, LIGHT = range(3)

# factor magnitudes beyond this overflow the double-precision pipeline
F_LIMIT = 150.0

# index triples over the three corners / edges of a face
_NEXT = np.array([1, 2, 0])  # second endpoint of edge m
_PREV = np.array([2, 0, 1])
_ROWS = np.arange(3)
_P, _Q = np.array([0, 0, 1]), np.array([2, 1, 2])


def edge_state(code, aa, ab, fa, fb, eta):
    """(ok, cosh l, ratio sinh d_ab / sinh d_ba) of the edge rules, lane by lane.

    Arguments broadcast together.  Codes 0-2 are the plain
    sqrt(1 + alpha e^{2f}), sqrt(e^{2f} - 1) and cosh(f_b - f_a) rules,
    codes 3-5 their sign-flipped versions.  ok is False where the factors
    leave the rule's domain (a non-positive square-root argument); there
    cosh l and the ratio are 0.
    """
    code = np.asarray(code)
    rule = code % 3
    ee = eta * np.exp(fa + fb)
    xa = np.where(rule == 0, 1.0 + aa * np.exp(2.0 * fa), np.expm1(2.0 * fa))
    xb = np.where(rule == 0, 1.0 + ab * np.exp(2.0 * fb), np.expm1(2.0 * fb))
    pos = (xa > 0.0) & (xb > 0.0)
    ok = pos | (rule == 2)
    xa, xb = np.where(pos, xa, 1.0), np.where(pos, xb, 1.0)
    root = np.where(rule == 2, np.cosh(fb - fa), np.sqrt(xa * xb))
    rho = np.where(rule == 2, np.exp(fa - fb), np.sqrt(xa / xb))
    ch = np.where(code % 2 == 1, root, -root) + ee
    rho = np.where(code >= 3, -rho, rho)
    return ok, np.where(ok, ch, 0.0), np.where(ok, rho, 0.0)


def _fail(status, bad, fails):
    """Give each face still OK the first non-zero code of fails (F x 3)."""
    pos = np.argmax(fails != OK, axis=1)
    code = fails[np.arange(len(fails)), pos]
    hit = (status == OK) & (code != OK)
    status[hit] = code[hit]
    bad[hit] = pos[hit]


class Arcs(NamedTuple):
    """The theta stage of every face: status and bad position (see the
    module docstring), the F x 3 arcs theta, and the face vertex ids and
    edge data (cosh and sinh of the edges, partial ratios, cosh of the
    arcs) that the derivative stage reuses.  Failed faces carry finite
    filler: the regular hexagon's edges with partial ratio 1, or cosh
    theta = 2 at a vanishing arc."""

    status: np.ndarray
    bad: np.ndarray
    theta: np.ndarray
    vert: np.ndarray
    ch: np.ndarray
    sh: np.ndarray
    rho: np.ndarray
    chth: np.ndarray


def face_theta(vert, codes, alphas, etas, f) -> Arcs:
    """The theta stage of every face; theta is F x 3."""
    fv = np.asarray(f, dtype=float)[vert]
    status = np.zeros(len(fv), dtype=np.int64)
    bad = np.full(len(fv), -1, dtype=np.int64)
    in_range = (np.abs(fv) <= F_LIMIT).all(axis=1)
    status[~in_range] = BAD_RANGE
    fv = np.where(in_range[:, None], fv, 0.0)
    ok, ch, rho = edge_state(codes, alphas, alphas[:, _NEXT], fv, fv[:, _NEXT], etas)
    _fail(status, bad, np.where(ok, np.where(ch <= 1.0, BAD_EDGE, OK), BAD_RANGE))
    # masked faces evaluate the regular hexagon, split at its edge midpoints
    if status.any():
        live = (status == OK)[:, None]
        ch, rho = np.where(live, ch, 2.0), np.where(live, rho, 1.0)
    sh = np.sqrt((ch - 1.0) * (ch + 1.0))
    # cosine law: corner a lies between edges a and a - 1, opposite edge a + 1
    chth = (ch[:, _NEXT] + ch[:, _P] * ch[:, _Q]) / (sh[:, _P] * sh[:, _Q])
    if not chth.min(initial=2.0) > 1.0:
        arc = chth > 1.0
        _fail(status, bad, np.where(arc, OK, BAD_ARC))
        chth = np.where(arc, chth, 2.0)
    return Arcs(status, bad, np.arccosh(chth), vert, ch, sh, rho, chth)


def face_eval(arcs: Arcs, du):
    """The derivative stage of every face, from its theta stage.

    du holds df/du per vertex id.  Returns jac, F x 3 x 3 with
    jac[k, a, b] = d theta_a / d u of corner b of face k; entries of
    failed faces are filler.
    """
    ch, sh, rho, chth = arcs[4:]
    shth = np.sqrt((chth - 1.0) * (chth + 1.0))
    # dtheta/dl: row a, column = edge; edge a + 1 is opposite corner a
    d = sh[:, _NEXT] / (shth * sh * sh[:, _PREV])
    dl = np.empty((len(ch), 3, 3))
    dl[:, _ROWS, _NEXT] = d
    dl[:, _ROWS, _ROWS] = -chth[:, _NEXT] * d
    dl[:, _ROWS, _PREV] = -chth[:, _PREV] * d
    # dl/df . df/du of each edge at its first and second endpoint; column b
    # collects edge b, which starts at corner b, and edge b - 1, which ends there
    duv = np.asarray(du, dtype=float)[arcs.vert]
    first = (ch + 1.0 / rho) / sh * duv
    second = (ch + rho) / sh * duv[:, _NEXT]
    return dl * first[:, None, :] + dl[:, :, _PREV] * second[:, None, _PREV]
