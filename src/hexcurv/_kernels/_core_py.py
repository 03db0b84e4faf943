"""Scalar per-face evaluation kernel: the scalar reference for tests.

Given one hexagonal face's edge rules, weights and factor values, computes
the three boundary-arc lengths and, on request, the 3x3 derivative matrix
of the arcs with respect to the u-coordinates.  The batched kernel in
``hexcurv._kernels`` runs the same algorithm on all faces at once; this
module checks it and backs the chain-rule oracle.

Status codes: 0 ok, 1 degenerate edge (cosh l <= 1), 2 degenerate split,
3 degenerate face center, 4 singular height, 5 factors outside the
evaluable range or the edge rule's domain.  Branch codes: 0 time-like,
1 space-like, 2 light-like face center.
"""

import math

from . import BAD_CENTER, BAD_EDGE, BAD_HEIGHT, BAD_RANGE, BAD_SPLIT, OK
from . import F_LIMIT, LIGHT, SPACE, TAU_CAUSAL, TIME


def _edge_state(code, aa, ab, fa, fb, eta):
    """(ok, cosh l, ratio sinh d_ab / sinh d_ba) for one edge rule.

    ok is False when the factors leave the rule's domain (non-positive
    square-root arguments).
    """
    ee = eta * math.exp(fa + fb)
    if code == 0 or code == 3:  # plain / flipped sqrt(1 + alpha e^{2f}) rule
        xa = 1.0 + aa * math.exp(2.0 * fa)
        xb = 1.0 + ab * math.exp(2.0 * fb)
        if xa <= 0.0 or xb <= 0.0:
            return False, 0.0, 0.0
        root = math.sqrt(xa * xb)
        rho = math.sqrt(xa / xb)
        if code == 0:
            return True, -root + ee, rho
        return True, root + ee, -rho
    if code == 1 or code == 4:  # plain / flipped sqrt(e^{2f} - 1) rule
        ya = math.expm1(2.0 * fa)
        yb = math.expm1(2.0 * fb)
        if ya <= 0.0 or yb <= 0.0:
            return False, 0.0, 0.0
        root = math.sqrt(ya * yb)
        rho = math.sqrt(ya / yb)
        if code == 1:
            return True, root + ee, rho
        return True, -root + ee, -rho
    # plain / flipped cosh(f_b - f_a) rule
    ch = math.cosh(fb - fa)
    rho = math.exp(fa - fb)
    if code == 2:
        return True, -ch + ee, rho
    return True, ch + ee, -rho


def _split(rho, ch, sh):
    """Split one edge of cosh/sinh (ch, sh) at partial ratio rho.

    Returns (kind, D_ab, D_ba, r1, r2): for kind 0 (edge center on the
    geodesic) D are the sinh of the signed partials and (r1, r2) the
    time-like center conditions; for kind 1 (hyper-ideal edge center) D are
    the cosh of the real partial offsets and (r1, r2) the space-like center
    conditions.  Kind -1 signals a degenerate split.
    """
    num = rho * sh
    den = 1.0 + rho * ch
    if abs(num) < abs(den):
        t = num / den
        inv = 1.0 / math.sqrt(1.0 - t * t)
        sd_ab = t * inv
        sd_ba = (sh - ch * t) * inv
        return 0, sd_ab, sd_ba, -sd_ab, -sd_ba
    if abs(num) > abs(den):
        w = den / num
        inv = 1.0 / math.sqrt(1.0 - w * w)
        ch_ab = inv
        ch_ba = (ch - sh * w) * inv
        return 1, ch_ab, ch_ba, -ch_ab, ch_ba
    return -1, 0.0, 0.0, 0.0, 0.0


def _cross(x, y):
    # Lorentzian cross product: Euclidean cross pushed through diag(1,1,-1).
    return (
        x[1] * y[2] - x[2] * y[1],
        x[2] * y[0] - x[0] * y[2],
        -(x[0] * y[1] - x[1] * y[0]),
    )


def _mdot(x, y):
    return x[0] * y[0] + x[1] * y[1] - x[2] * y[2]


def face_theta(codes, alphas, etas, f):
    """(status, bad edge index or -1, theta triple)."""
    if max(abs(f[0]), abs(f[1]), abs(f[2])) > F_LIMIT:
        return BAD_RANGE, -1, (0.0, 0.0, 0.0)
    ch = [0.0, 0.0, 0.0]
    pairs = ((0, 1), (1, 2), (2, 0))
    for m in range(3):
        a, b = pairs[m]
        ok, c, _ = _edge_state(codes[m], alphas[a], alphas[b], f[a], f[b], etas[m])
        if not ok:
            return BAD_RANGE, m, (0.0, 0.0, 0.0)
        if c <= 1.0:
            return BAD_EDGE, m, (0.0, 0.0, 0.0)
        ch[m] = c
    sh = [math.sqrt((c - 1.0) * (c + 1.0)) for c in ch]
    th0 = math.acosh(max(1.0, (ch[1] + ch[0] * ch[2]) / (sh[0] * sh[2])))
    th1 = math.acosh(max(1.0, (ch[2] + ch[0] * ch[1]) / (sh[0] * sh[1])))
    th2 = math.acosh(max(1.0, (ch[0] + ch[1] * ch[2]) / (sh[1] * sh[2])))
    return OK, -1, (th0, th1, th2)


def face_eval(codes, alphas, etas, f, du):
    """Full evaluation of one face.

    Returns (status, bad index, theta triple, jac 3x3 rows d theta/d u,
    branch, sigma) where sigma is the normalized causal value of the face
    center.  On non-zero status the trailing fields are filler.
    """
    fail = ((0.0, 0.0, 0.0), ((0.0,) * 3,) * 3, -1, 0.0)
    if max(abs(f[0]), abs(f[1]), abs(f[2])) > F_LIMIT:
        return (BAD_RANGE, -1) + fail
    ch = [0.0, 0.0, 0.0]
    rho = [0.0, 0.0, 0.0]
    pairs = ((0, 1), (1, 2), (2, 0))
    for m in range(3):
        a, b = pairs[m]
        ok, c, r = _edge_state(codes[m], alphas[a], alphas[b], f[a], f[b], etas[m])
        if not ok:
            return (BAD_RANGE, m) + fail
        if c <= 1.0:
            return (BAD_EDGE, m) + fail
        ch[m] = c
        rho[m] = r
    sh = [math.sqrt((c - 1.0) * (c + 1.0)) for c in ch]
    chth0 = max(1.0, (ch[1] + ch[0] * ch[2]) / (sh[0] * sh[2]))
    chth1 = max(1.0, (ch[2] + ch[0] * ch[1]) / (sh[0] * sh[1]))
    chth2 = max(1.0, (ch[0] + ch[1] * ch[2]) / (sh[1] * sh[2]))
    theta = (math.acosh(chth0), math.acosh(chth1), math.acosh(chth2))

    kind = [0, 0, 0]
    dab = [0.0, 0.0, 0.0]
    dba = [0.0, 0.0, 0.0]
    rhs = [(0.0, 0.0)] * 3
    for m in range(3):
        k, da, db, r1, r2 = _split(rho[m], ch[m], sh[m])
        if k < 0:
            return (BAD_SPLIT, m) + fail
        kind[m] = k
        dab[m] = da
        dba[m] = db
        rhs[m] = (r1, r2)

    # canonical embedding: v0 on the x1 axis, v1 in the x1-x3 plane
    shth0 = math.sqrt((chth0 - 1.0) * (chth0 + 1.0))
    v = (
        (1.0, 0.0, 0.0),
        (-ch[0], 0.0, sh[0]),
        (-ch[2], sh[2] * shth0, sh[2] * chth0),
    )
    # polar vectors, normalized space-like, oriented so p_r * v_r < 0
    p = [None, None, None]
    c12 = _cross(v[1], v[2])
    c20 = _cross(v[2], v[0])
    c01 = _cross(v[0], v[1])
    p[0] = (c12[0] / sh[1], c12[1] / sh[1], c12[2] / sh[1])
    p[1] = (c20[0] / sh[2], c20[1] / sh[2], c20[2] / sh[2])
    p[2] = (c01[0] / sh[0], c01[1] / sh[0], c01[2] / sh[0])

    centers = [None, None, None]
    for m in range(3):
        a, b = pairs[m]
        r1, r2 = rhs[m]
        s2 = sh[m] * sh[m]
        ca = -(r1 + ch[m] * r2) / s2
        cb = -(r2 + ch[m] * r1) / s2
        va, vb = v[a], v[b]
        centers[m] = (
            ca * va[0] + cb * vb[0],
            ca * va[1] + cb * vb[1],
            ca * va[2] + cb * vb[2],
        )

    n1 = _cross(p[2], centers[0])
    n2 = _cross(p[1], centers[2])
    craw = _cross(n1, n2)
    nrm = math.sqrt(craw[0] ** 2 + craw[1] ** 2 + craw[2] ** 2)
    scale = math.sqrt(
        (n1[0] ** 2 + n1[1] ** 2 + n1[2] ** 2)
        * (n2[0] ** 2 + n2[1] ** 2 + n2[2] ** 2)
    )
    if nrm <= 1e-14 * scale or nrm == 0.0:
        return (BAD_CENTER, -1) + fail
    chat = (craw[0] / nrm, craw[1] / nrm, craw[2] / nrm)
    sigma = _mdot(chat, chat)
    if abs(sigma) <= TAU_CAUSAL:
        branch = LIGHT
    elif sigma < 0.0:
        branch = TIME
    else:
        branch = SPACE

    # derivative factor per edge: tanh(h)^beta as a normalization-free ratio
    opp = (2, 0, 1)
    ratio = [0.0, 0.0, 0.0]
    for m in range(3):
        num = _mdot(p[opp[m]], chat)
        den = _mdot(centers[m], chat)
        if den == 0.0:
            return (BAD_HEIGHT, m) + fail
        r = num / den
        if branch == LIGHT:
            r = math.copysign(1.0, r)
        elif branch == SPACE and abs(r) > 1e12:
            return (BAD_HEIGHT, m) + fail
        ratio[m] = r

    # Rows divide by the partial at the opposite endpoint.  For an edge
    # with a hyper-ideal center the two partials carry conjugate imaginary
    # offsets, so the entry dividing by the first-endpoint partial takes
    # the opposite sign in the real form.
    sg = [1.0 if k == 1 else -1.0 for k in kind]
    m01 = -ratio[0] / (dba[0] * sh[0])
    m10 = sg[0] * ratio[0] / (dab[0] * sh[0])
    m12 = -ratio[1] / (dba[1] * sh[1])
    m21 = sg[1] * ratio[1] / (dab[1] * sh[1])
    m20 = -ratio[2] / (dba[2] * sh[2])
    m02 = sg[2] * ratio[2] / (dab[2] * sh[2])
    m00 = ch[0] * m10 + ch[2] * m20
    m11 = ch[0] * m01 + ch[1] * m21
    m22 = ch[2] * m02 + ch[1] * m12

    jac = (
        (m00 * du[0], m01 * du[1], m02 * du[2]),
        (m10 * du[0], m11 * du[1], m12 * du[2]),
        (m20 * du[0], m21 * du[1], m22 * du[2]),
    )
    return OK, -1, theta, jac, branch, sigma
