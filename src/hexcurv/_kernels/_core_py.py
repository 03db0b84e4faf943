"""Scalar per-face evaluation kernel: the scalar reference for tests.

Given one hexagonal face's edge rules, weights and factor values, computes
the three boundary-arc lengths (face_theta) and their derivative matrix in
the u-coordinates by the cosine-law chain rule (face_eval).  The batched
kernel in ``hexcurv._kernels`` runs the same algorithm on all faces at
once; this module checks it.  Status codes are those of the batched
kernel.
"""

import math

from . import BAD_ARC, BAD_EDGE, BAD_RANGE, F_LIMIT, OK


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


def _theta_stage(codes, alphas, etas, f):
    """(status, bad index, ch, sh, rho, chth) of one face; on a non-zero
    status the trailing fields are None."""
    fail = (None,) * 4
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
    chth = [
        (ch[1] + ch[0] * ch[2]) / (sh[0] * sh[2]),
        (ch[2] + ch[0] * ch[1]) / (sh[0] * sh[1]),
        (ch[0] + ch[1] * ch[2]) / (sh[1] * sh[2]),
    ]
    for a in range(3):
        if chth[a] <= 1.0:
            return (BAD_ARC, a) + fail
    return OK, -1, ch, sh, rho, chth


def face_theta(codes, alphas, etas, f):
    """(status, bad index or -1, theta triple)."""
    status, bad, _, _, _, chth = _theta_stage(codes, alphas, etas, f)
    if status != OK:
        return status, bad, (0.0, 0.0, 0.0)
    return OK, -1, tuple(math.acosh(c) for c in chth)


def face_eval(codes, alphas, etas, f, du):
    """(status, bad index, theta triple, jac 3x3 rows d theta/d u) of one
    face, jac by the cosine-law chain rule.  On non-zero status the
    trailing fields are filler."""
    status, bad, ch, sh, rho, chth = _theta_stage(codes, alphas, etas, f)
    if status != OK:
        return status, bad, (0.0, 0.0, 0.0), ((0.0,) * 3,) * 3
    theta = tuple(math.acosh(c) for c in chth)
    nxt, prv = (1, 2, 0), (2, 0, 1)
    dl = [[0.0] * 3 for _ in range(3)]
    for a in range(3):
        shth = math.sqrt((chth[a] - 1.0) * (chth[a] + 1.0))
        d = sh[nxt[a]] / (shth * sh[a] * sh[prv[a]])
        dl[a][nxt[a]] = d
        dl[a][a] = -chth[nxt[a]] * d
        dl[a][prv[a]] = -chth[prv[a]] * d
    first = [(ch[e] + 1.0 / rho[e]) / sh[e] * du[e] for e in range(3)]
    second = [(ch[e] + rho[e]) / sh[e] * du[nxt[e]] for e in range(3)]
    jac = tuple(
        tuple(dl[a][v] * first[v] + dl[a][prv[v]] * second[prv[v]] for v in range(3))
        for a in range(3)
    )
    return OK, -1, theta, jac
