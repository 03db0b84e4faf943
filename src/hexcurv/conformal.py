"""The six conformal structure families on ideal edges.

The edge rule code of every edge, the per-vertex change of variables
u <-> f and df/du on arrays (ChangeOfVariables), and admissible-space
membership.  The edge rules themselves live once, in _kernels (one
function per rule code, behind edge_state and the kernel's edge pass).
spec_arrays(spec, tri) derives the arrays of a spec on a mesh once, the
evaluation kernel's edge program among them; the mesh keeps those of the
last spec it was used with.  Functions taking u or f accept a mapping or an
array indexed by component; f_from_u and u_from_f map dicts to dicts at
the API boundary.

Family tags: A1, A2, A3 (uniform edge rule) and MixedI, MixedII, MixedIII
(faces holding one distinguished "special" boundary component use the
sign-flipped edge rule on the two edges at that component).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._kernels import _NEXT, F_LIMIT, EdgeProgram
from .errors import DomainViolation, FamilyConstraint, UnsupportedWeightRange

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


# Laws of the change of variables.  With s = 1 on special components and
# s = -1 elsewhere, and v = s u: f = F(v), u = s H(f) and df/du = -s G(f).
_EXP, _SIN, _COS, _LIN, _COSH, _SINH = range(6)
_LAWS = (  # (F, H, G, domain of f, chart of a plain component, of a special one)
    (lambda v: -np.log(v), lambda f: np.exp(-f), np.exp, _REAL, _NEG, _POS),
    (lambda v: -np.log(np.sin(v)), lambda f: np.arcsin(np.exp(-f)),
     lambda f: np.sqrt(np.expm1(2.0 * f)), _POS, _TRIG, _TRIG),
    (lambda v: -np.log(np.cos(v)), lambda f: -np.arccos(np.exp(-f)),
     lambda f: np.sqrt(np.expm1(2.0 * f)), _POS, _TRIG, _TRIG),
    (np.negative, np.negative, np.ones_like, _REAL, _REAL, _REAL),
    (lambda v: -np.log(np.cosh(v)), lambda f: np.arccosh(np.exp(-f)),
     lambda f: np.sqrt(1.0 - np.exp(2.0 * f)), _NEG, _NEG, _POS),
    (lambda v: -np.log(np.sinh(v)), lambda f: np.arcsinh(np.exp(-f)),
     lambda f: np.sqrt(1.0 + np.exp(2.0 * f)), _REAL, _NEG, _POS),
)
_BOUNDS = np.array([[(c.lo, c.hi) for c in law[3:]] for law in _LAWS])
_EXP_MAX = math.log(sys.float_info.max)  # exp, cosh and sinh overflow beyond


def _law(spec: StructureSpec, i) -> int:
    if spec.family in ("A3", "MixedIII"):
        return _EXP
    if spec.family in ("A2", "MixedII"):
        return _COS if spec.is_special(i) else _SIN
    return (_LIN, _SINH, _COSH)[spec.alpha[i]]


def chart(spec: StructureSpec, i) -> Chart:
    """The u-domain of boundary component i under the family chart."""
    return _LAWS[_law(spec, i)][5 if spec.is_special(i) else 4]


class ChangeOfVariables:
    """u <-> f and df/du of the components ids of a spec, on float arrays
    indexed like ids.  Each map checks its whole input first and raises
    DomainViolation for the first component outside its open domain; then
    each law runs on its own components only, so no numpy warning fires."""

    def __init__(self, spec: StructureSpec, ids):
        self.family, self.ids = spec.family, ids
        special = np.array([spec.is_special(i) for i in ids], dtype=np.intp)
        self.law = np.array([_law(spec, i) for i in ids], dtype=np.intp)
        self.sign = 2.0 * special - 1.0
        self.f_lo, self.f_hi = _BOUNDS[self.law, 0].T
        self.lo, self.hi = _BOUNDS[self.law, 1 + special].T
        self.groups = [(k, np.flatnonzero(self.law == k)) for k in set(self.law.tolist())]

    def _require(self, name: str, x, lo, hi) -> None:
        bad = ~((lo < x) & (x < hi))  # NaN fails too
        if bad.any():
            k = int(np.argmax(bad))
            raise DomainViolation(f"{name}[{self.ids[k]}]={x[k]} outside "
                                  f"({lo[k]}, {hi[k]}) for {self.family}")

    def _apply(self, which: int, x) -> np.ndarray:
        out = np.empty(len(x))
        for law, idx in self.groups:
            out[idx] = _LAWS[law][which](x[idx])
        return out

    def to_f(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        big = np.where(self.law >= _COSH, _EXP_MAX, np.inf)  # cosh, sinh overflow beyond
        self._require("u", u, np.maximum(self.lo, -big), np.minimum(self.hi, big))
        return self._apply(0, self.sign * u)

    def to_u(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        # exp(-f) overflows below -_EXP_MAX in every law but the linear one
        lo = np.where(self.law == _LIN, self.f_lo, np.maximum(self.f_lo, -_EXP_MAX))
        self._require("f", f, lo, self.f_hi)
        return self.sign * self._apply(1, f)

    def derivative(self, f) -> np.ndarray:
        """df/du; filler where |f| > F_LIMIT, which the kernel rejects."""
        f = np.asarray(f, dtype=float)
        self._require("f", f, self.f_lo, self.f_hi)
        return -self.sign * self._apply(2, np.where(np.abs(f) <= F_LIMIT, f, 0.0))


def component_values(x, n: int) -> np.ndarray:
    """x[0], ..., x[n-1] as a float array; x is a mapping or an array
    indexed by component."""
    if isinstance(x, np.ndarray) and x.shape == (n,):
        return x.astype(float, copy=False)
    return np.array([x[i] for i in range(n)], dtype=float)


def u_from_f(spec: StructureSpec, f: Mapping[int, float]) -> dict:
    return dict(zip(f, ChangeOfVariables(spec, list(f)).to_u(list(f.values())).tolist()))


def f_from_u(spec: StructureSpec, u: Mapping[int, float]) -> dict:
    return dict(zip(u, ChangeOfVariables(spec, list(u)).to_f(list(u.values())).tolist()))


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
    try:
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
    except (ValueError, ZeroDivisionError):  # math rejects such weights
        raise FamilyConstraint(
            f"edge {edge.id}: weight {eta} outside the range of its edge rule"
        ) from None
    if lo == -math.inf and hi == math.inf:
        return None
    return PairBound(i, j, lo, hi)


class SpecArrays:
    """The arrays of one spec on one mesh: cov, the change of variables of
    every component; program, the evaluation kernel's EdgeProgram of the
    faces in face order, each edge oriented the way its first face side
    runs; polytope, set by polytope() on first use; start, the default
    start in u, and unproven, whether no existence theorem covers the
    configuration, each set by the solver on first use."""

    def __init__(self, spec: StructureSpec, tri):
        self.spec, self.polytope, self.start, self.unproven = spec, None, None, None
        n = tri.n_boundary
        self.cov = ChangeOfVariables(spec, range(n))
        vert, epos, eids = tri.face_arrays
        alpha = np.array([spec.alpha[v] for v in range(n)], dtype=float)
        special = np.array([spec.is_special(v) for v in range(n)], dtype=bool)
        eta = np.array([spec.eta[e] for e in eids], dtype=float)
        first = np.unique(epos, return_index=True)[1]  # every edge lies on a face
        ends = np.stack((vert.ravel()[first], vert[:, _NEXT].ravel()[first]))
        sa, sb = special[ends]
        self.program = EdgeProgram(vert, ends, rule_code(spec.family, sa | sb),
                                   alpha[ends], eta, epos, sa & sb)


def spec_arrays(spec: StructureSpec, tri) -> SpecArrays:
    """The SpecArrays of (spec, tri), built on first use; tri keeps those of
    the last spec object it was used with."""
    if tri.spec_memo is None or tri.spec_memo.spec is not spec:
        tri.spec_memo = SpecArrays(spec, tri)
    return tri.spec_memo


def polytope(spec: StructureSpec, tri) -> tuple:
    """The admissible polytope of (spec, tri) as arrays (lo, hi, a, b,
    pair_lo, pair_hi, edge): the chart lo < u_i < hi of every component, and
    pair_lo < u_a + u_b < pair_hi for every constrained edge, in edge order."""
    arrays = spec_arrays(spec, tri)
    if arrays.polytope is None:
        pairs = np.array([(pb.a, pb.b, e.id, pb.lo, pb.hi) for e in tri.edges
                          if (pb := edge_constraint(spec, e)) is not None])
        a, b, edge, pair_lo, pair_hi = pairs.reshape(-1, 5).T.copy()
        a, b, edge = a.astype(np.intp), b.astype(np.intp), edge.astype(np.intp)
        arrays.polytope = (arrays.cov.lo, arrays.cov.hi, a, b, pair_lo, pair_hi, edge)
    return arrays.polytope


@dataclass
class Admissibility:
    ok: bool
    violations: list  # names of the violated charts and edge constraints


def admissible(spec: StructureSpec, tri, u) -> Admissibility:
    """Check chart membership, then every edge constraint; u is a mapping
    or an array indexed by component."""
    lo, hi, a, b, pair_lo, pair_hi, edge = polytope(spec, tri)
    uv = component_values(u, tri.n_boundary)
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
