"""Batched per-face evaluation kernel and the six edge rules.

Evaluates the boundary arcs of F hexagonal faces in one numpy pass and, on
request, their 3x3 derivative matrices in the u-coordinates together with
the causal branch and normalized causal value of each face center.  Masks
select the edge rule and the split kind lane by lane.  ``_core_py`` holds
the scalar reference for tests.

Inputs are F x 3 arrays of face vertex ids, edge codes (edge m joins
corners m and m + 1 mod 3), corner alphas and edge weights, plus factor
values indexed by vertex id.

Status codes: 0 ok, 1 degenerate edge (cosh l <= 1), 2 degenerate split,
3 degenerate face center, 4 singular height, 5 factors outside the
evaluable range or the edge rule's domain.  A face reports its first
failing check in the order range, edge, split, center, height, with the
edge position for per-edge checks (else -1); later steps mask its lanes
out.  Branch codes: 0 time-like, 1 space-like, 2 light-like face center.
"""

import numpy as np

from ..tol import TAU_CAUSAL

BACKEND = "numpy"

OK, BAD_EDGE, BAD_SPLIT, BAD_CENTER, BAD_HEIGHT, BAD_RANGE = range(6)
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
    out = np.empty(x.shape)
    out[..., 0] = x1 * y2 - x2 * y1
    out[..., 1] = x2 * y0 - x0 * y2
    out[..., 2] = -(x0 * y1 - x1 * y0)
    return out


def _mdot(x, y):
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] - x[..., 2] * y[..., 2]


def _edot(x, y):
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def _arcs(vert, codes, alphas, etas, f):
    """Status, bad position, theta and the edge data the derivatives reuse."""
    fv = np.asarray(f, dtype=float)[vert]
    status = np.zeros(len(fv), dtype=np.int64)
    bad = np.full(len(fv), -1, dtype=np.int64)
    in_range = (np.abs(fv) <= F_LIMIT).all(axis=1)
    status[~in_range] = BAD_RANGE
    fv = np.where(in_range[:, None], fv, 0.0)
    ok, ch, rho = edge_state(codes, alphas, alphas[:, _NEXT], fv, fv[:, _NEXT], etas)
    _fail(status, bad, np.where(ok, np.where(ch <= 1.0, BAD_EDGE, OK), BAD_RANGE))
    # masked faces evaluate the regular hexagon
    ch = np.where((status == OK)[:, None], ch, 2.0)
    sh = np.sqrt((ch - 1.0) * (ch + 1.0))
    # cosine law: corner a lies between edges a and a - 1, opposite edge a + 1
    chth = np.maximum(
        1.0, (ch[:, _NEXT] + ch[:, _P] * ch[:, _Q]) / (sh[:, _P] * sh[:, _Q])
    )
    return status, bad, np.arccosh(chth), ch, sh, rho, chth


def face_theta(vert, codes, alphas, etas, f):
    """(status, bad position, theta) of every face; theta is F x 3."""
    return _arcs(vert, codes, alphas, etas, f)[:3]


def face_eval(vert, codes, alphas, etas, f, du):
    """Full evaluation of every face.

    du holds df/du per vertex id.  Returns (status, bad position, theta,
    jac, branch, sigma): jac[k, a, b] = d theta_a / d u of corner b of
    face k, and sigma is the normalized causal value of the face center.
    Entries of failed faces are filler.
    """
    status, bad, theta, ch, sh, rho, chth = _arcs(vert, codes, alphas, etas, f)

    # edge splits: kind 0 puts the edge center on the geodesic, kind 1
    # (hyper-ideal center) uses the real partial offsets
    num = rho * sh
    den = 1.0 + rho * ch
    k0 = np.abs(num) < np.abs(den)
    k1 = np.abs(num) > np.abs(den)
    _fail(status, bad, np.where(k0 | k1, OK, BAD_SPLIT))
    live = (status == OK)[:, None]
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
    status[(status == OK) & flat] = BAD_CENTER
    live = status == OK
    chat = _div(craw, nrm[:, None], live[:, None])
    sigma = _mdot(chat, chat)
    branch = np.where(
        np.abs(sigma) <= TAU_CAUSAL, LIGHT, np.where(sigma < 0.0, TIME, SPACE)
    )

    # derivative factor per edge: tanh(h)^beta as a normalization-free ratio
    hnum = _mdot(p[:, _PREV], chat[:, None])
    hden = _mdot(centers, chat[:, None])
    ratio = _div(hnum, hden, live[:, None] & (hden != 0.0))
    ratio = np.where((branch == LIGHT)[:, None], np.copysign(1.0, ratio), ratio)
    steep = (branch == SPACE)[:, None] & (np.abs(ratio) > 1e12)
    _fail(status, bad, np.where((hden == 0.0) | steep, BAD_HEIGHT, OK))

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
    jac = m * np.asarray(du, dtype=float)[vert][:, None, :]
    return status, bad, theta, jac, branch, sigma
