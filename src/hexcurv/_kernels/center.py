"""Every face as a right-angled hexagon: its geometry and the paper's
center-distance derivative formula.

face_centers takes a theta stage (Arcs).  It splits every edge at its
partial ratio, embeds each face in the hyperboloid model, meets the edge
perpendiculars in the face center, and derives d theta / d f from the
signed distances of the center to the edge geodesics.  Its matrix equals
the cosine-law one of face_eval wherever the center exists; the identity
suites check the two against each other, and the test suite holds a
scalar twin of the status, branch and matrix.  The same record
carries the rest of the hexagon: the dual splits of the boundary arcs,
the signed distances h and q of the center and its position domain,
which the hexagon command and the paper's identity blocks
(hexcurv.identities) read.  hexagon_arcs runs the kernel's one side pass
on side lengths and partial ratios, so they fail as factors do.  Status
codes extend those of the theta stage with BAD_SPLIT, BAD_CENTER and
BAD_HEIGHT (see the package docstring); callers read them, and no
evaluation raises for them.
"""

from typing import NamedTuple

import numpy as np

from ..tol import TAU_CAUSAL, TAU_SIGN
from . import _NEXT, _PREV, _ROWS, BAD_CENTER, BAD_HEIGHT, BAD_SPLIT, LIGHT, OK, SPACE, TIME
from . import Arcs, _fail, _sides, disjoint_faces

CH_MAX = 1e154  # the largest cosh l of a side (l ~ 355.3) whose cosine law stays finite

# The thirteen position domains of a face center: the signs of
# (h_0, h_1, h_2, q_0, q_1, q_2) in each, and the names of its time-like
# and space-like version (a space-like center is never in D13).
DOMAINS = (
    ((1, -1, 1, 1, 1, -1), "D1", "Di"),
    ((1, 1, 1, 1, 1, -1), "D2", "DI"),
    ((-1, 1, 1, 1, 1, -1), "D3", "Dii"),
    ((-1, 1, 1, 1, 1, 1), "D4", "DII"),
    ((-1, 1, 1, 1, -1, 1), "D5", "Diii"),
    ((1, 1, 1, 1, -1, 1), "D6", "DIII"),
    ((1, 1, -1, 1, -1, 1), "D7", "Div"),
    ((1, 1, -1, 1, 1, 1), "D8", "DIV"),
    ((1, 1, -1, -1, 1, 1), "D9", "Dv"),
    ((1, 1, 1, -1, 1, 1), "D10", "DV"),
    ((1, -1, 1, -1, 1, 1), "D11", "Dvi"),
    ((1, -1, 1, 1, 1, 1), "D12", "DVI"),
    ((1, 1, 1, 1, 1, 1), "D13", None),
)
_SIGNS = np.array([signs for signs, _, _ in DOMAINS], dtype=float)

# Domain codes of faces without one: no face center (a failed status), a
# side whose center is hyper-ideal, or a light-like center; a dual center
# off the plane, or dual partials that miss their arc by more than 1e-7;
# signs of h and q that are incoherent or match no domain.
NO_DOMAIN, DUAL_OUTSIDE, INCOHERENT = -1, -2, -3


class Centers(NamedTuple):
    """The face-center record of F faces; entries of failed faces are
    filler, finite and mostly 0.

    status, bad   the theta stage's, extended by the center checks
    branch        causal class of the face center (TIME, SPACE, LIGHT)
    m             F x 3 x 3, m[k, a, b] = d theta_a / d f of corner b by
                  the center-distance formula
    v, p          F x 3 x 3, row a the unit space-like normal of the arc at
                  corner a in the canonical embedding, and of the side
                  opposite corner a (p_a . v_a < 0)
    edge_centers  F x 3 x 3, row m the center of side m: the time-like unit
                  point of its split, space-like where that is hyper-ideal
    center        F x 3, the face center: unit with x3 > 0 (x1 > 0 where a
                  space-like x3 is 0), or unnormalized where light-like
    d             F x 3 x 3, d[k, a, b] the signed partial at corner a of
                  the side between corners a and b (0 on hyper-ideal sides)
    dual          F x 3 x 3, dual[k, a, b] the signed partial at a's end of
                  the arc at the third corner, from the dual split (0 where
                  the dual center is off the plane)
    h, q          F x 3, signed distances of the center to the side opposite
                  corner a and to the arc at corner a (0 without a domain)
    domain        F, index into DOMAINS, or NO_DOMAIN, DUAL_OUTSIDE or
                  INCOHERENT
    """

    status: np.ndarray
    bad: np.ndarray
    branch: np.ndarray
    m: np.ndarray
    v: np.ndarray
    p: np.ndarray
    edge_centers: np.ndarray
    center: np.ndarray
    d: np.ndarray
    dual: np.ndarray
    h: np.ndarray
    q: np.ndarray
    domain: np.ndarray


def _div(a, b, where):
    """a / b on the lanes in where, 0 elsewhere (masked lanes may divide by 0).

    a has the shape of the result; b and where broadcast to it.
    """
    return np.divide(a, b, out=np.zeros(a.shape), where=where)


def _cross(x, y):
    # Lorentzian cross product over the last axis: Euclidean cross pushed
    # through diag(1, 1, -1).
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
    out = np.empty(np.broadcast_shapes(x.shape, y.shape))
    out[..., 0] = x1 * y2 - x2 * y1
    out[..., 1] = x2 * y0 - x0 * y2
    out[..., 2] = -(x0 * y1 - x1 * y0)
    return out


def _mdot(x, y):
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] - x[..., 2] * y[..., 2]


def _edot(x, y):
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def _sign(x):
    """-1, 0 or 1, with magnitudes up to TAU_SIGN counted as 0."""
    return np.where(np.abs(x) <= TAU_SIGN, 0.0, np.sign(x))


def _coherent(a, b):
    """(sign, coherent): the common sign of a and b, where neither is
    opposite to the other."""
    sa, sb = _sign(a), _sign(b)
    return np.where(sa != 0.0, sa, sb), sa * sb >= 0.0


def hexagon_arcs(lengths, ratios) -> Arcs:
    """The theta stage of hexagons given by positive side lengths and partial
    ratios (F x 3 each, side m from corner m to corner m + 1), one disjoint
    face per row, by face_theta's side pass, without a warning: a face fails
    at its first side whose cosh l is NaN or above CH_MAX (BAD_RANGE) or
    rounds to 1 (BAD_EDGE), then at an arc that rounds to 0 (BAD_ARC)."""
    prog = disjoint_faces(*np.zeros((3, len(lengths), 3), dtype=int))
    ch = np.cosh(np.clip(lengths, -400.0, 400.0)).ravel()
    return _sides(prog, prog.status, prog.bad, ch <= CH_MAX, ch, np.ravel(ratios))


def face_centers(arcs: Arcs) -> Centers:
    """The face-center record (Centers) of every face of arcs.

    status and bad extend those of arcs with the center checks, and a face
    that fails only the height check keeps its geometry and domain.
    """
    ch, sh, rho, chth = arcs.ch, arcs.sh, arcs.rho, arcs.chth

    # edge splits: kind 0 puts the edge center on the geodesic, kind 1
    # (hyper-ideal center) uses the real partial offsets
    num = rho * sh
    den = 1.0 + rho * ch
    k0 = np.abs(num) < np.abs(den)
    k1 = np.abs(num) > np.abs(den)
    status, bad = _fail(arcs.status, arcs.bad, np.where(k0 | k1, OK, BAD_SPLIT).T)
    live = (status == OK)[:, None]  # faces failed so far embed finite filler
    ch, sh, chth = (np.where(live, x, 1.0) for x in (ch, sh, chth))
    k0 &= live
    k1 &= live
    t = _div(num, den, k0)
    w = _div(den, num, k1)
    x = np.where(k1, w, t)
    inv = 1.0 / np.sqrt(1.0 - x * x)
    # kind 0: sinh of the signed partials; kind 1: cosh of the offsets
    dab = np.where(k1, inv, t * inv)
    dba = np.where(k1, ch - sh * w, sh - ch * t) * inv
    r1, r2 = -dab, np.where(k1, dba, -dba)
    # a split center rounded onto an end leaves a zero partial, a divisor below
    rounded = (k0 | k1) & ((dab == 0.0) | (dba == 0.0))
    status, bad = _fail(status, bad, np.where(rounded, BAD_SPLIT, OK).T)

    # canonical embedding: v0 on the x1 axis, v1 in the x1-x3 plane
    shth0 = np.sqrt((chth[:, 0] - 1.0) * (chth[:, 0] + 1.0))
    v = np.zeros((len(ch), 3, 3))
    v[:, 0, 0] = 1.0
    v[:, 1, 0] = -ch[:, 0]
    v[:, 1, 2] = sh[:, 0]
    v[:, 2, 0] = -ch[:, 2]
    v[:, 2, 1] = sh[:, 2] * shth0
    v[:, 2, 2] = sh[:, 2] * chth[:, 0]
    # polar vectors, normalized space-like, oriented so p_r * v_r < 0
    p = _cross(v[:, _NEXT], v[:, _PREV]) / sh[:, _NEXT, None]

    s2 = sh * sh
    ca = -(r1 + ch * r2) / s2
    cb = -(r2 + ch * r1) / s2
    centers = ca[..., None] * v + cb[..., None] * v[:, _NEXT]

    n1 = _cross(p[:, 2], centers[:, 0])
    n2 = _cross(p[:, 1], centers[:, 2])
    craw = _cross(n1, n2)
    nrm = np.sqrt(_edot(craw, craw))
    scale = np.sqrt(_edot(n1, n1) * _edot(n2, n2))
    flat = (nrm <= 1e-14 * scale) | (nrm == 0.0)
    status = np.where((status == OK) & flat, BAD_CENTER, status)
    found = status == OK
    chat = _div(craw, nrm[:, None], found[:, None])
    sigma = _mdot(chat, chat)
    branch = np.where(
        np.abs(sigma) <= TAU_CAUSAL, LIGHT, np.where(sigma < 0.0, TIME, SPACE)
    )

    # derivative factor per edge: tanh(h)^beta as a normalization-free ratio
    hnum = _mdot(p[:, _PREV], chat[:, None])
    hden = _mdot(centers, chat[:, None])
    ratio = _div(hnum, hden, found[:, None] & (hden != 0.0))
    ratio = np.where((branch == LIGHT)[:, None], np.copysign(1.0, ratio), ratio)
    steep = (branch == SPACE)[:, None] & (np.abs(ratio) > 1e12)
    status, bad = _fail(status, bad, np.where((hden == 0.0) | steep, BAD_HEIGHT, OK).T)

    # Rows divide by the partial at the opposite endpoint.  For an edge
    # with a hyper-ideal center the two partials carry conjugate imaginary
    # offsets, so the entry dividing by the first-endpoint partial takes
    # the opposite sign in the real form.
    live = (status == OK)[:, None]
    sg = np.where(k1, 1.0, -1.0)
    m_ab = _div(-ratio, dba * sh, live)
    m_ba = _div(sg * ratio, dab * sh, live)
    m = np.empty((len(ch), 3, 3))
    m[:, _ROWS, _NEXT] = m_ab
    m[:, _NEXT, _ROWS] = m_ba
    m[:, _ROWS, _ROWS] = ch * m_ba + ch[:, _PREV] * m_ab[:, _PREV]

    # the center proper: unit where it is time- or space-like
    light = found & (branch == LIGHT)
    center = _div(chat, np.sqrt(np.abs(sigma))[:, None], (found & ~light)[:, None])
    flip = (center[:, 2] < 0.0) | ((center[:, 2] == 0.0) & (center[:, 0] < 0.0))
    center[flip] *= -1.0
    center[light] = craw[light]

    # signed partials of the sides whose center lies on the geodesic
    d = np.zeros((len(ch), 3, 3))
    d[:, _ROWS, _NEXT] = np.where(k0, np.arcsinh(dab), 0.0)
    d[:, _NEXT, _ROWS] = np.where(k0, np.arcsinh(dba), 0.0)

    # dual splits: the foot of the perpendicular from the center to the arc
    # at corner r splits it; the polars p_{r+1} and p_{r-1} of its two
    # sides give the partials
    ps, pt = p[:, _NEXT], p[:, _PREV]
    foot = _cross(_cross(v, chat[:, None]), v)
    nn = _mdot(foot, foot)
    inside = nn < 0.0
    foot = _div(foot, np.sqrt(np.abs(nn))[..., None], inside[..., None])
    foot[foot[..., 2] < 0.0] *= -1.0
    th_st, th_ts = np.arcsinh(-_mdot(ps, foot)), np.arcsinh(-_mdot(pt, foot))
    theta = arcs.theta
    inside &= np.abs(th_st + th_ts - theta) <= 1e-7 * np.maximum(1.0, theta)
    dual = np.zeros((len(ch), 3, 3))
    dual[:, _NEXT, _PREV] = np.where(inside, th_st, 0.0)
    dual[:, _PREV, _NEXT] = np.where(inside, th_ts, 0.0)

    # signed distances: a time-like center reads sinh h and sinh q off its
    # inner products; a space-like one reads cosh from them and takes the
    # signs of the edge and arc partials, which must agree
    time = (branch == TIME)[:, None]
    vq, vh = _mdot(v, center[:, None]), _mdot(p, center[:, None])
    sign_q, ok_q = _coherent(d[:, _ROWS, _NEXT], d[:, _ROWS, _PREV])
    sign_h, ok_h = _coherent(dual[:, _ROWS, _NEXT], dual[:, _ROWS, _PREV])
    h = np.where(time, np.arcsinh(-vh), sign_h * np.arccosh(np.maximum(1.0, np.abs(vh))))
    q = np.where(time, np.arcsinh(-vq), sign_q * np.arccosh(np.maximum(1.0, np.abs(vq))))

    # position domain: the first whose signs the nonzero signs match
    signs = _sign(np.concatenate((h, q), axis=1))
    match = np.all((signs[:, None] == 0.0) | (signs[:, None] == _SIGNS), axis=2)
    match[:, -1] &= time[:, 0]
    domain = np.where(match.any(axis=1), np.argmax(match, axis=1), INCOHERENT)
    space = branch == SPACE
    domain[space & ~(ok_q.all(axis=1) & ok_h.all(axis=1))] = INCOHERENT
    domain[light] = NO_DOMAIN
    domain[~inside.all(axis=1)] = DUAL_OUTSIDE
    domain[~(found & k0.all(axis=1))] = NO_DOMAIN
    has = (domain >= 0)[:, None]
    return Centers(status, bad, branch, m, v, p, centers, center, d, dual,
                   np.where(has, h, 0.0), np.where(has, q, 0.0), domain)
