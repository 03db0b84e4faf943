"""The six conformal structure families on ideal edges.

Per-edge length formulas, partial-length ratios, the per-vertex change of
variables u <-> f, its derivative factors, and admissible-space membership.

Family tags: A1, A2, A3 (uniform edge rule) and MixedI, MixedII, MixedIII
(faces holding one distinguished "special" boundary component use the
sign-flipped edge rule on the two edges at that component).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._kernels import edge_state
from .errors import (
    DomainViolation,
    FamilyConstraint,
    NotAdmissible,
    UnsupportedWeightRange,
)

FAMILIES = ("A1", "A2", "A3", "MixedI", "MixedII", "MixedIII")

# Edge rule codes shared with the evaluation kernels.
EDGE_A1, EDGE_A2, EDGE_A3, EDGE_B1, EDGE_B2, EDGE_B3 = range(6)

_BASE_CODE = {
    "A1": EDGE_A1, "MixedI": EDGE_A1,
    "A2": EDGE_A2, "MixedII": EDGE_A2,
    "A3": EDGE_A3, "MixedIII": EDGE_A3,
}
_B_OFFSET = 3  # EDGE_B* = EDGE_A* + 3


@dataclass(frozen=True)
class StructureSpec:
    """Family tag plus all per-vertex / per-edge weights.

    alpha maps boundary components to {-1, 0, 1}; eta maps edge ids to the
    symmetric edge weight, a finite real; special lists the distinguished
    boundary components of the mixed families (empty otherwise).
    """

    family: str
    alpha: Mapping[int, int]
    eta: Mapping[int, float]
    special: frozenset = frozenset()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FamilyConstraint(f"unknown family {self.family!r}")
        for i, a in self.alpha.items():
            if a not in (-1, 0, 1):
                raise FamilyConstraint(f"alpha[{i}]={a} outside {{-1,0,1}}")
        for e, w in self.eta.items():
            if not math.isfinite(w):
                raise FamilyConstraint(f"eta[{e}]={w} is not finite")

    def is_special(self, i) -> bool:
        return i in self.special

    def is_mixed(self) -> bool:
        return self.family.startswith("Mixed")


def rule_code(family: str, flipped):
    """Edge rule code of a family; flipped (bool or bool array) picks B."""
    return _BASE_CODE[family] + _B_OFFSET * flipped


def edge_code(spec: StructureSpec, a, b) -> int:
    """Edge rule code for the edge joining boundary components a and b."""
    sa, sb = spec.is_special(a), spec.is_special(b)
    if sa and sb:
        raise FamilyConstraint(f"edge ({a},{b}) joins two special components")
    return rule_code(spec.family, sa or sb)


def _require_factor_domain(spec: StructureSpec, i, fi: float) -> None:
    fam = spec.family
    if fam in ("A2", "MixedII"):
        if fi <= 0.0:
            raise DomainViolation(f"f[{i}]={fi} must be positive for {fam}")
    elif fam in ("A1", "MixedI") and spec.alpha[i] == -1:
        if fi >= 0.0:
            raise DomainViolation(f"f[{i}]={fi} must be negative when alpha=-1")


def factors_in_domain(spec: StructureSpec, f: Mapping[int, float]) -> None:
    """Raise DomainViolation unless every factor lies in the family domain."""
    for i, fi in f.items():
        if not math.isfinite(fi):
            raise DomainViolation(f"f[{i}] is not finite")
        _require_factor_domain(spec, i, fi)


def _edge_rule(spec: StructureSpec, edge, f: Mapping[int, float]) -> tuple:
    """(cosh l, partial ratio) of one edge under the family rule."""
    i, j = edge.a, edge.b
    fi, fj = f[i], f[j]
    _require_factor_domain(spec, i, fi)
    _require_factor_domain(spec, j, fj)
    ok, ch, rho = edge_state(edge_code(spec, i, j), spec.alpha[i], spec.alpha[j],
                             fi, fj, spec.eta[edge.id])
    if not ok:
        raise DomainViolation(f"square-root argument non-positive on edge {edge.id}")
    return float(ch), float(rho)


def cosh_edge_length(spec: StructureSpec, edge, f: Mapping[int, float]) -> float:
    """cosh of the edge length under the family rule; may be <= 1."""
    return _edge_rule(spec, edge, f)[0]


def edge_length(spec: StructureSpec, edge, f: Mapping[int, float]) -> float:
    """Edge length l > 0, or NotAdmissible when the edge degenerates."""
    ch = cosh_edge_length(spec, edge, f)
    if ch <= 1.0:
        raise NotAdmissible(
            f"edge {edge.id} degenerates: cosh l = {ch} <= 1", edge=edge.id
        )
    return math.acosh(ch)


def partial_ratio(spec: StructureSpec, edge, f: Mapping[int, float]) -> float:
    """Ratio sinh d_ab / sinh d_ba of the partial lengths, oriented a -> b.

    Positive on A-type edges; negative on B-type edges regardless of which
    endpoint is the special one (the two orientations are reciprocal).
    """
    return _edge_rule(spec, edge, f)[1]


# -- change of variables ---------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """Domain of one u-coordinate: open interval (lo, hi)."""

    lo: float
    hi: float

    def contains(self, u: float) -> bool:
        return self.lo < u < self.hi


_REAL = Chart(-math.inf, math.inf)
_NEG = Chart(-math.inf, 0.0)
_POS = Chart(0.0, math.inf)
_TRIG = Chart(-math.pi / 2.0, 0.0)


def chart(spec: StructureSpec, i) -> Chart:
    """The u-domain of boundary component i under the family chart."""
    fam = spec.family
    if fam in ("A2", "MixedII"):
        return _TRIG
    if fam in ("A3", "MixedIII"):
        return _POS if spec.is_special(i) else _NEG
    if spec.alpha[i] == 0:
        return _REAL
    return _POS if spec.is_special(i) else _NEG


def u_of_f(spec: StructureSpec, i, fi: float) -> float:
    """The u-coordinate of component i at factor value fi."""
    _require_factor_domain(spec, i, fi)
    fam = spec.family
    sp = spec.is_special(i)
    if fam in ("A3", "MixedIII"):
        return math.exp(-fi) if sp else -math.exp(-fi)
    if fam in ("A2", "MixedII"):
        # e^f = 1/cos u (special) or -1/sin u, both on (-pi/2, 0)
        return -math.acos(math.exp(-fi)) if sp else -math.asin(math.exp(-fi))
    a = spec.alpha[i]
    if a == 0:
        return -fi if sp else fi
    if a == -1:
        u = math.acosh(math.exp(-fi))
        return u if sp else -u
    u = math.asinh(math.exp(-fi))
    return u if sp else -u


def f_of_u(spec: StructureSpec, i, ui: float) -> float:
    """Inverse of u_of_f; DomainViolation outside the chart."""
    if not chart(spec, i).contains(ui):
        raise DomainViolation(f"u[{i}]={ui} outside chart for {spec.family}")
    fam = spec.family
    sp = spec.is_special(i)
    if fam in ("A3", "MixedIII"):
        return -math.log(ui) if sp else -math.log(-ui)
    if fam in ("A2", "MixedII"):
        return -math.log(math.cos(ui)) if sp else -math.log(-math.sin(ui))
    a = spec.alpha[i]
    if a == 0:
        return -ui if sp else ui
    if a == -1:
        return -math.log(math.cosh(ui))
    return -math.log(abs(math.sinh(ui)))


def u_from_f(spec: StructureSpec, f: Mapping[int, float]) -> dict:
    return {i: u_of_f(spec, i, fi) for i, fi in f.items()}


def f_from_u(spec: StructureSpec, u: Mapping[int, float]) -> dict:
    return {i: f_of_u(spec, i, ui) for i, ui in u.items()}


def dfdu(spec: StructureSpec, i, f: Mapping[int, float]) -> float:
    """Diagonal derivative df_i/du_i of the change of variables."""
    fi = f[i]
    _require_factor_domain(spec, i, fi)
    fam = spec.family
    sign = -1.0 if spec.is_special(i) else 1.0
    if fam in ("A3", "MixedIII"):
        return sign * math.exp(fi)
    if fam in ("A2", "MixedII"):
        v = math.expm1(2.0 * fi)
        return sign * math.sqrt(v)
    v = 1.0 + spec.alpha[i] * math.exp(2.0 * fi)
    if v < 0.0:
        raise DomainViolation(f"1 + alpha e^(2f) negative at component {i}")
    return sign * math.sqrt(v)


# -- admissible-space membership --------------------------------------------

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
    """The membership constraint contributed by one edge, or None.

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
        s, m = (i, j) if spec.is_special(i) else (j, i)
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


def polytope(spec: StructureSpec, tri) -> tuple:
    """The admissible polytope of (spec, tri) as arrays (lo, hi, a, b,
    pair_lo, pair_hi, edge): the chart lo < u_i < hi of every component, and
    pair_lo < u_a + u_b < pair_hi for every constrained edge, in edge order.
    tri keeps the polytope of the last spec object it was used with."""
    if tri.polytope_memo is None or tri.polytope_memo[0] is not spec:
        charts = [chart(spec, i) for i in range(tri.n_boundary)]
        pairs = np.array([(pb.a, pb.b, e.id, pb.lo, pb.hi) for e in tri.edges
                          if (pb := edge_constraint(spec, e)) is not None])
        a, b, edge, pair_lo, pair_hi = pairs.reshape(-1, 5).T.copy()
        a, b, edge = a.astype(np.intp), b.astype(np.intp), edge.astype(np.intp)
        tri.polytope_memo = (spec, (np.array([c.lo for c in charts]),
                                    np.array([c.hi for c in charts]),
                                    a, b, pair_lo, pair_hi, edge))
    return tri.polytope_memo[1]


@dataclass
class Admissibility:
    ok: bool
    violations: list  # names of the violated charts and edge constraints


def admissible(spec: StructureSpec, tri, u: Mapping[int, float]) -> Admissibility:
    """Check chart membership, then every edge constraint."""
    lo, hi, a, b, pair_lo, pair_hi, edge = polytope(spec, tri)
    uv = np.array([u[i] for i in range(tri.n_boundary)], dtype=float)
    bad = ~((lo < uv) & (uv < hi))
    if bad.any():
        return Admissibility(False, [f"chart of u[{i}]" for i in np.flatnonzero(bad)])
    s = uv[a] + uv[b]
    bad = ~((pair_lo < s) & (s < pair_hi))
    return Admissibility(not bad.any(), [f"edge {e}" for e in edge[bad]])


# -- family / weight validation ---------------------------------------------

def _face_corners(spec: StructureSpec, face):
    """(special corner or None, other corners) of one face."""
    sp = [v for v in face.vertices if spec.is_special(v)]
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


def _check_mixed1_face(spec: StructureSpec, tri, face) -> None:
    s, others = _face_corners(spec, face)
    by_pair = {}
    for eid in face.edge_ids:
        e = tri.edge_by_id[eid]
        by_pair.setdefault(frozenset((e.a, e.b)), []).append(e)
    if s is None:
        for eid in face.edge_ids:
            e = tri.edge_by_id[eid]
            _check_a1_edge(spec.eta[eid], spec.alpha[e.a], spec.alpha[e.b],
                           f"face {face.id} edge {eid}")
        return
    m1, m2 = others
    a_s, a1, a2 = spec.alpha[s], spec.alpha[m1], spec.alpha[m2]
    a_edges = [e for e in tri.face_edges(face) if not (spec.is_special(e.a) or spec.is_special(e.b))]
    b_edges = [e for e in tri.face_edges(face) if spec.is_special(e.a) or spec.is_special(e.b)]
    for e in a_edges:
        _check_a1_edge(spec.eta[e.id], spec.alpha[e.a], spec.alpha[e.b],
                       f"face {face.id} edge {e.id}")
    b_eta = {}
    for e in b_edges:
        m = e.b if spec.is_special(e.a) else e.a
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
    if not spec.is_mixed() and spec.special:
        raise FamilyConstraint(f"{fam} admits no special components")
    for v in spec.special:
        if v not in spec.alpha:
            raise FamilyConstraint(f"special component {v} is not a vertex")
    for e in tri.edges:
        if spec.is_special(e.a) and spec.is_special(e.b):
            raise FamilyConstraint(f"edge {e.id} joins two special components")
    for face in tri.faces:
        _face_corners(spec, face)  # raises on two specials in one face

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
            edges = list(tri.face_edges(face))
            if s is None:
                for e in edges:
                    if spec.eta[e.id] <= 0.0:
                        raise FamilyConstraint(
                            f"edge {e.id}: weight must be positive"
                        )
                continue
            a_edge = next(e for e in edges
                          if not (spec.is_special(e.a) or spec.is_special(e.b)))
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
            _check_mixed1_face(spec, tri, face)
