"""The face center of every face: the paper's center-distance derivative
formula, as a diagnostic beside the release derivative stage.

face_centers takes a theta stage (Arcs).  It splits every edge at its
partial ratio, embeds each face in the hyperboloid model, meets the edge
perpendiculars in the face center, and derives d theta / d f from the
signed distances of the center to the edge geodesics.  Its matrix equals
the cosine-law one of face_eval wherever the center exists; the identity
suites check the two against each other, and the test suite holds a
scalar twin of this function.  Status codes extend those of
the theta stage with BAD_SPLIT, BAD_CENTER and BAD_HEIGHT (see the
package docstring); callers read them, and no evaluation raises for them.
"""

import numpy as np

from ..tol import TAU_CAUSAL
from . import _NEXT, _PREV, _ROWS, BAD_CENTER, BAD_HEIGHT, BAD_SPLIT, LIGHT, OK
from . import SPACE, TIME, Arcs, _fail


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


def face_centers(arcs: Arcs):
    """(status, bad position, branch, sigma, m) of every face.

    status and bad extend those of arcs with the center checks, branch is
    the causal class of the face center and sigma its normalized causal
    value, and m[k, a, b] = d theta_a / d f of corner b of face k by the
    center-distance formula.  Entries of failed faces are filler.
    """
    ch, sh, rho, chth = arcs.ch, arcs.sh, arcs.rho, arcs.chth
    status, bad = arcs.status.copy(), arcs.bad.copy()

    # edge splits: kind 0 puts the edge center on the geodesic, kind 1
    # (hyper-ideal center) uses the real partial offsets
    num = rho * sh
    den = 1.0 + rho * ch
    k0 = np.abs(num) < np.abs(den)
    k1 = np.abs(num) > np.abs(den)
    _fail(status, bad, np.where(k0 | k1, OK, BAD_SPLIT).T)
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
    _fail(status, bad, np.where((hden == 0.0) | steep, BAD_HEIGHT, OK).T)

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
    return status, bad, branch, sigma, m
