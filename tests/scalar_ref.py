"""Scalar per-face reference of the batched kernel and of the
center-distance formula in its face-center record, for the tests.

Given one hexagonal face's edge rules, weights and factor values,
face_theta computes the three boundary-arc lengths and face_eval their
derivative matrix in the u-coordinates by the cosine-law chain rule, as
``hexcurv._kernels`` does on all faces at once.  face_centers runs the edge
splits, the embedding, the face center and the center-distance derivative
formula on one face, with the operation sequence of
``hexcurv._kernels.center``.  Status codes are those of the batched
kernel.  test_kernels compares the batched code with this module face by
face.  The module also keeps the scalar walkers that the weight table
conformal.RULES replaced, as the oracles of test_conformal: edge_code,
edge_constraint (the pair bound of one edge), validate_spec and unproven
(the existence verdict).
"""

import math
from dataclasses import dataclass

from hexcurv._kernels import BAD_ARC, BAD_CENTER, BAD_EDGE, BAD_HEIGHT, BAD_RANGE
from hexcurv._kernels import BAD_SPLIT, F_LIMIT, LIGHT, OK, SPACE, TIME
from hexcurv.conformal import EDGE_A1, EDGE_A2, EDGE_A3, EDGE_B2, EDGE_B3, FAMILIES
from hexcurv.conformal import StructureSpec
from hexcurv.errors import FamilyConstraint, UnsupportedWeightRange
from hexcurv.tol import TAU_CAUSAL


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


def face_centers(codes, alphas, etas, f):
    """(status, bad index, branch, sigma, m) of one face, as the first five
    fields of the batched face-center record: m[a][b] = d theta_a / d f_b by the
    center-distance formula.  On non-zero status the trailing fields are
    filler."""
    status, bad, ch, sh, rho, chth = _theta_stage(codes, alphas, etas, f)
    fail = (-1, 0.0, ((0.0,) * 3,) * 3)
    if status != OK:
        return (status, bad) + fail
    pairs = ((0, 1), (1, 2), (2, 0))

    kind = [0, 0, 0]
    dab = [0.0, 0.0, 0.0]
    dba = [0.0, 0.0, 0.0]
    rhs = [(0.0, 0.0)] * 3
    for m in range(3):
        k, da, db, r1, r2 = _split(rho[m], ch[m], sh[m])
        if k < 0 or da == 0.0 or db == 0.0:
            return (BAD_SPLIT, m) + fail
        kind[m] = k
        dab[m] = da
        dba[m] = db
        rhs[m] = (r1, r2)

    # canonical embedding: v0 on the x1 axis, v1 in the x1-x3 plane
    shth0 = math.sqrt((chth[0] - 1.0) * (chth[0] + 1.0))
    v = (
        (1.0, 0.0, 0.0),
        (-ch[0], 0.0, sh[0]),
        (-ch[2], sh[2] * shth0, sh[2] * chth[0]),
    )
    # polar vectors, normalized space-like, oriented so p_r * v_r < 0
    c12 = _cross(v[1], v[2])
    c20 = _cross(v[2], v[0])
    c01 = _cross(v[0], v[1])
    p = (
        (c12[0] / sh[1], c12[1] / sh[1], c12[2] / sh[1]),
        (c20[0] / sh[2], c20[1] / sh[2], c20[2] / sh[2]),
        (c01[0] / sh[0], c01[1] / sh[0], c01[2] / sh[0]),
    )

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

    # an edge with a hyper-ideal center flips the sign of the entry that
    # divides by its first-endpoint partial
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
    return OK, -1, branch, sigma, ((m00, m01, m02), (m10, m11, m12), (m20, m21, m22))


# -- scalar oracles of the weight table ---------------------------------------

def _face_edges(by_id, face):
    return [by_id[eid] for eid in face.edge_ids]


def edge_code(spec: StructureSpec, a, b) -> int:
    """Edge rule code for the edge joining boundary components a and b of
    a valid spec, which has at most one special end."""
    return FAMILIES.index(spec.family) % 3 + 3 * (a in spec.special or b in spec.special)


@dataclass(frozen=True)
class PairBound:
    """Open interval constraint lo < u_a + u_b < hi tied to one edge."""

    a: int
    b: int
    lo: float
    hi: float


def _a1_pair_bound(aa: int, ab: int, eta: float):
    """Lower bound constant of the plain (non-special) edge rule."""
    key = frozenset((aa, ab))
    if key == frozenset((0,)):
        return math.log(2.0 / eta)
    if key in (frozenset((0, -1)), frozenset((0, 1))):
        return math.log(1.0 / eta)
    if key in (frozenset((-1,)), frozenset((1,))):
        return -math.acosh(eta)
    return math.asinh(-eta)  # alphas {1, -1}


def edge_constraint(spec: StructureSpec, edge) -> PairBound | None:
    """The membership constraint contributed by one edge of a spec that
    passed validate_spec, or None.

    Exact under the family charts: the constraint holds iff the edge length
    is real and positive.
    """
    i, j = edge.a, edge.b
    eta = spec.eta[edge.id]
    code = edge_code(spec, i, j)
    lo, hi = -math.inf, math.inf
    if code == EDGE_A1:
        lo = _a1_pair_bound(spec.alpha[i], spec.alpha[j], eta)
    elif code == EDGE_A2:
        # cosh l > 1 reduces to cos(u_a + u_b) > -eta on the chart
        if eta < 1.0:
            lo = -math.acos(-eta)
    elif code == EDGE_A3:
        lo = -math.sqrt(2.0 * eta)
    elif code == EDGE_B3:
        if eta <= 0.0:
            lo = math.sqrt(-2.0 * eta)
    elif code == EDGE_B2:
        if eta <= 1.0:
            lo = -math.asin(min(eta, 1.0))
    else:  # EDGE_B1: depends on the alpha pair, special endpoint first
        s, m = (i, j) if i in spec.special else (j, i)
        asm = (spec.alpha[s], spec.alpha[m])
        if asm == (0, 0) or asm == (1, 1):
            pass  # eta range validated separately; no u constraint
        elif asm == (1, 0):
            if eta < 0.0:
                hi = math.log(-1.0 / eta)
        elif asm == (-1, 0):
            lo = math.log(1.0 / eta)
        elif asm == (0, 1):
            if eta < 0.0:
                lo = math.log(-eta)
        elif asm == (-1, 1):
            lo = math.asinh(-eta)
        elif asm == (0, -1):
            hi = math.log(eta)
        elif asm == (1, -1):
            hi = math.asinh(eta)
        else:  # (-1, -1)
            lo, hi = -math.acosh(eta), math.acosh(eta)
    if lo == -math.inf and hi == math.inf:
        return None
    return PairBound(i, j, lo, hi)


def _face_corners(spec: StructureSpec, face):
    """(special corner or None, other corners) of one face."""
    sp = [v for v in face.vertices if v in spec.special]
    if len(set(sp)) > 1 or len(sp) > 1:
        raise FamilyConstraint(
            f"face {face.id} has more than one special component"
        )
    if sp:
        others = [v for v in face.vertices if v != sp[0]]
        return sp[0], others
    return None, list(face.vertices)


def _check_a1_edge(eta: float, aa: int, ab: int, where: str) -> None:
    if eta <= 0.0:
        raise FamilyConstraint(f"{where}: plain edge weight must be positive")
    if aa == ab and eta <= aa * ab:
        raise FamilyConstraint(
            f"{where}: weight must exceed {aa * ab} for equal alphas"
        )


def _check_mixed1_face(spec: StructureSpec, by_id, face) -> None:
    s, others = _face_corners(spec, face)
    by_pair = {}
    for eid in face.edge_ids:
        e = by_id[eid]
        by_pair.setdefault(frozenset((e.a, e.b)), []).append(e)
    if s is None:
        for eid in face.edge_ids:
            e = by_id[eid]
            _check_a1_edge(spec.eta[eid], spec.alpha[e.a], spec.alpha[e.b],
                           f"face {face.id} edge {eid}")
        return
    m1, m2 = others
    a_s, a1, a2 = spec.alpha[s], spec.alpha[m1], spec.alpha[m2]
    edges = _face_edges(by_id, face)
    a_edges = [e for e in edges if not (e.a in spec.special or e.b in spec.special)]
    b_edges = [e for e in edges if e.a in spec.special or e.b in spec.special]
    for e in a_edges:
        _check_a1_edge(spec.eta[e.id], spec.alpha[e.a], spec.alpha[e.b],
                       f"face {face.id} edge {e.id}")
    b_eta = {}
    for e in b_edges:
        m = e.b if e.a in spec.special else e.a
        b_eta[e.id] = (spec.alpha[m], spec.eta[e.id])
        eta = spec.eta[e.id]
        am = spec.alpha[m]
        where = f"face {face.id} edge {e.id}"
        if a_s == 0 and am == 0 and eta <= 0.0:
            raise FamilyConstraint(f"{where}: weight must be positive")
        if a_s == 1 and am == 0 and eta < 0.0:
            raise UnsupportedWeightRange(f"{where}: negative weight window excluded")
        if a_s == -1 and am == 0 and eta <= 0.0:
            raise FamilyConstraint(f"{where}: weight must be positive")
        if a_s == 1 and am == 1 and eta <= -1.0:
            raise UnsupportedWeightRange(f"{where}: weight <= -1 window excluded")
        if a_s == 0 and am == -1 and eta <= 0.0:
            raise FamilyConstraint(f"{where}: weight must be positive")
        if a_s == -1 and am == -1 and eta <= 1.0:
            raise FamilyConstraint(f"{where}: weight must exceed 1")
    # side conditions coupling the weights of one face
    sorted_am = tuple(sorted((a1, a2)))
    if a_s == 0 and sorted_am == (-1, 1):
        e_pos = next(e for e in b_edges if b_eta[e.id][0] == 1)
        e_neg = next(e for e in b_edges if b_eta[e.id][0] == -1)
        eta_pos, eta_neg = spec.eta[e_pos.id], spec.eta[e_neg.id]
        if eta_pos < 0.0 and eta_pos + eta_neg <= 0.0:
            raise UnsupportedWeightRange(
                f"face {face.id}: weight combination outside supported window"
            )
    if a_s == 1 and sorted_am == (-1, 1):
        e_neg = next(e for e in b_edges if b_eta[e.id][0] == -1)
        a_edge = a_edges[0]
        if spec.eta[e_neg.id] + spec.eta[a_edge.id] <= 0.0:
            raise FamilyConstraint(
                f"face {face.id}: incompatible weights on opposite edges"
            )
    if a_s == -1 and sorted_am == (-1, 1):
        e_pos = next(e for e in b_edges if b_eta[e.id][0] == 1)
        if spec.eta[e_pos.id] <= 0.0:
            raise UnsupportedWeightRange(
                f"face {face.id} edge {e_pos.id}: non-positive weight excluded"
            )
    if a_s == 1 and sorted_am == (-1, -1):
        for e in b_edges:
            if spec.eta[e.id] <= 0.0:
                raise UnsupportedWeightRange(
                    f"face {face.id} edge {e.id}: non-positive weight excluded"
                )


def validate_spec(spec: StructureSpec, tri) -> None:
    """Family-level weight and special-set validation against a mesh."""
    fam = spec.family
    if not fam.startswith("Mixed") and spec.special:
        raise FamilyConstraint(f"{fam} admits no special components")
    for v in spec.special:
        if v not in range(tri.n_boundary):
            raise FamilyConstraint(f"special component {v} is not a vertex")
    for e in tri.edges:
        if e.a in spec.special and e.b in spec.special:
            raise FamilyConstraint(f"edge {e.id} joins two special components")
    for face in tri.faces:
        _face_corners(spec, face)  # raises on two specials in one face
    by_id = {e.id: e for e in tri.edges}

    if fam in ("A2", "MixedII"):
        for i, a in spec.alpha.items():
            if a != -1:
                raise FamilyConstraint(f"{fam} requires alpha=-1 (component {i})")
    if fam == "A1":
        for e in tri.edges:
            _check_a1_edge(spec.eta[e.id], spec.alpha[e.a], spec.alpha[e.b],
                           f"edge {e.id}")
    elif fam == "A2":
        for e in tri.edges:
            if spec.eta[e.id] < -1.0:
                raise FamilyConstraint(f"edge {e.id}: weight below -1")
    elif fam == "A3":
        for e in tri.edges:
            if spec.eta[e.id] <= 0.0:
                raise FamilyConstraint(f"edge {e.id}: weight must be positive")
    elif fam == "MixedII":
        for e in tri.edges:
            if spec.eta[e.id] < 1.0:
                raise FamilyConstraint(f"edge {e.id}: weight below 1")
    elif fam == "MixedIII":
        for face in tri.faces:
            s, _ = _face_corners(spec, face)
            edges = list(_face_edges(by_id, face))
            if s is None:
                for e in edges:
                    if spec.eta[e.id] <= 0.0:
                        raise FamilyConstraint(
                            f"edge {e.id}: weight must be positive"
                        )
                continue
            a_edge = next(e for e in edges
                          if not (e.a in spec.special or e.b in spec.special))
            if spec.eta[a_edge.id] <= 0.0:
                raise FamilyConstraint(
                    f"face {face.id} edge {a_edge.id}: weight must be positive"
                )
            for e in edges:
                if e.id == a_edge.id:
                    continue
                if spec.eta[e.id] <= 0.0 and spec.eta[a_edge.id] + spec.eta[e.id] > 0.0:
                    raise UnsupportedWeightRange(
                        f"face {face.id}: weight combination outside supported window"
                    )
    elif fam == "MixedI":
        for face in tri.faces:
            _check_mixed1_face(spec, by_id, face)


def unproven(spec: StructureSpec, tri) -> bool:
    """Whether no existence theorem covers (spec, tri)."""
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
        others = [v for v in face.vertices if v not in spec.special]
        if len(others) == 2 and spec.alpha[others[0]] == spec.alpha[others[1]] == 1:
            return True
    return False
