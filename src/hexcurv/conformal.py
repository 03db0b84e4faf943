"""The six conformal structure families on ideal edges.

A spec (StructureSpec) holds its weights as Weights: read-only mappings
backed by arrays of sorted integer keys and their values.  The weight
table RULES, which validation, the admissible polytope and the existence
verdict read as arrays over the edges, the per-vertex change of
variables u <-> f and df/du on arrays (ChangeOfVariables), and
admissible-space membership.  The edge rules themselves live once, in
_kernels (one function of the three root laws, behind the kernel's edge
pass).  spec_arrays(spec, tri) is the one record of a spec on a mesh
(SpecArrays), made for a spec it validated, each field built on first
use; the mesh keeps the record of the last spec it was used with.
Functions taking u or f accept a mapping or an array indexed by
component, and read a Weights keyed 0..N-1 as its own array
(component_values).  Per-component results are Weights too: f_from_u
and u_from_f map a mapping to a Weights with its keys, an array to one
keyed 0..len - 1, and read a Weights argument's arrays, never its items.

Family tags: A1, A2, A3 (uniform edge rule) and MixedI, MixedII, MixedIII
(faces holding one distinguished "special" boundary component use the
sign-flipped edge rule on the two edges at that component).
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import sys
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import _NEXT, F_LIMIT, EdgeProgram
from .errors import DomainViolation, FamilyConstraint, NoFeasibleStart, OutOfRange
from .errors import UnsupportedWeightRange

FAMILIES = ("A1", "A2", "A3", "MixedI", "MixedII", "MixedIII")

# Edge rule codes shared with the evaluation kernels: FAMILIES.index(tag) % 3
# on plain edges, 3 more on the flipped edges at a special component.
EDGE_A1, EDGE_A2, EDGE_A3, EDGE_B1, EDGE_B2, EDGE_B3 = range(6)

# The largest |eta| (5.1e19): cosh l <= (|eta| + 1) e^(2 F_LIMIT) ~ 1e150, so products of two
# cosh l and sinh l, as the cosine law takes them, stay finite
ETA_LIMIT = 1e150 * math.exp(-2.0 * F_LIMIT)


class Weights(Mapping):
    """A read-only mapping of distinct integer keys to numbers, held as two
    read-only arrays: ids, the keys in ascending order, and data, their
    values; a spec's weights and every per-component result are Weights.  The constructor copies both and sorts them by key where they
    are not in order; it raises ValueError for a repeated key.  Items read
    as Python ints and floats, from a dict built on the first item access
    or iteration; two Weights compare and hash by their arrays' values."""

    def __init__(self, ids, data):
        ids, data = np.array(ids, dtype=np.intp), np.array(data)
        if not (ids[1:] > ids[:-1]).all():
            order = np.argsort(ids, kind="stable")
            ids, data = ids[order], data[order]
            if (ids[1:] == ids[:-1]).any():
                raise ValueError("a key is repeated")
        ids.flags.writeable = data.flags.writeable = False
        self.ids, self.data = ids, data

    @cached_property
    def _items(self) -> dict:
        return dict(zip(self.ids.tolist(), self.data.tolist()))

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other):
        if isinstance(other, Weights):
            return np.array_equal(self.ids, other.ids) and np.array_equal(self.data, other.data)
        return super().__eq__(other)

    def __hash__(self):
        return hash((tuple(self.ids.tolist()), tuple(self.data.tolist())))

    def __repr__(self) -> str:
        return f"Weights({self._items!r})"

    def __reduce__(self):
        return Weights, (self.ids, self.data)


def _weights(name: str, m) -> Weights:
    """The weights m of a spec as Weights: alpha (name "alpha"), each value
    in {-1, 0, 1}, as np.intp; else eta, reals within ETA_LIMIT, as floats.
    m is a Weights, kept as it is where its values have that type, or any
    dict() takes, whose keys must be integers.  All values are checked in
    one array pass; m's items are walked only to name the first bad one."""
    if not isinstance(m, Weights):
        m = m if isinstance(m, Mapping) else dict(m)
        try:
            ids = np.fromiter(map(operator.index, m), np.intp, len(m))
        except (TypeError, OverflowError):
            raise FamilyConstraint(f"{name} keys must be integers") from None
        try:
            data = np.array(list(m.values()))
        except ValueError:  # values of unequal shapes
            data = None
    else:
        ids, data = m.ids, m.data
    alpha, dtype = name == "alpha", np.intp if name == "alpha" else float
    if data is None or data.shape != ids.shape or data.dtype.kind not in "biuf" or not (
            ((data == -1) | (data == 0) | (data == 1)).all() if alpha
            else (np.abs(data) <= ETA_LIMIT).all()):
        for k, x in m.items():
            if alpha and x not in (-1, 0, 1):
                raise FamilyConstraint(f"alpha[{k}]={x} outside {{-1,0,1}}")
            if not (alpha or _is_real(x)):
                raise FamilyConstraint(f"eta[{k}]={x!r} is not a real number")
            if not (alpha or abs(x) <= ETA_LIMIT):  # NaN neither
                why = f"has |eta| > {ETA_LIMIT:.3g}" if abs(x) < math.inf else "is not finite"
                raise FamilyConstraint(f"eta[{k}]={x} {why}")
        # each value equals one of -1, 0, 1, or is a real within ETA_LIMIT
        data = np.array([{-1: -1, 0: 0, 1: 1}[x] if alpha else float(x) for x in m.values()])
    if isinstance(m, Weights) and data.dtype == dtype:
        return m
    return Weights(ids, data.astype(dtype))


def _is_real(x) -> bool:
    """Whether x is one real number: it has __float__ (no string, None or
    list does), and is no complex and no array of dimension 1 or more."""
    return hasattr(x, "__float__") and not (np.ndim(x) or np.iscomplexobj(x))


def _take(w: Weights, keys: np.ndarray) -> tuple:
    """(w's values at keys, the position in keys of the first key w lacks,
    or None): w's own array where keys are its ids, else one searchsorted."""
    if np.array_equal(w.ids, keys):
        return w.data, None
    at = np.searchsorted(w.ids, keys)
    found = at < len(w.ids)
    found[found] = w.ids[at[found]] == keys[found]
    if not found.all():
        return None, int(np.argmin(found))
    return w.data[at], None


@dataclass(frozen=True)
class StructureSpec:
    """Family tag plus all per-vertex / per-edge weights, as a value.

    alpha maps boundary components to {-1, 0, 1}; eta maps edge ids to the
    symmetric edge weight, a real, |eta| <= ETA_LIMIT; special lists the distinguished
    boundary components of the mixed families (empty otherwise).  alpha
    and eta are held as Weights, np.intp and float arrays sorted by key: a
    Weights is kept as it is, any other mapping copied into one, and
    special is copied into a frozenset, so changing the caller's containers
    later changes no spec.  Raises FamilyConstraint for an unknown family,
    then a key that is no integer or the first bad alpha, then likewise
    for eta, then specials on a family other than the mixed ones.
    """

    family: str
    alpha: Mapping[int, int]
    eta: Mapping[int, float]
    special: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "special", frozenset(self.special))
        if self.family not in FAMILIES:
            raise FamilyConstraint(f"unknown family {self.family!r}")
        for name in ("alpha", "eta"):
            object.__setattr__(self, name, _weights(name, getattr(self, name)))
        if self.special and not self.family.startswith("Mixed"):
            raise FamilyConstraint(f"{self.family} admits no special components")


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


def _law(family: str, alpha, special):
    """The law of each component, elementwise from its alpha (read by A1
    and MixedI only) and whether it is special."""
    if family in ("A3", "MixedIII"):
        return np.full(np.shape(special), _EXP)
    if family in ("A2", "MixedII"):
        return np.where(special, _COS, _SIN)
    return np.array((_LIN, _SINH, _COSH))[alpha]


def chart(spec: StructureSpec, i) -> Chart:
    """The u-domain of boundary component i under the family chart."""
    special, alpha = i in spec.special, None
    if spec.family in ("A1", "MixedI"):
        if i not in spec.alpha:
            raise FamilyConstraint(f"no alpha for boundary component {i}")
        alpha = spec.alpha[i]
    return _LAWS[_law(spec.family, alpha, special)][5 if special else 4]


class ChangeOfVariables:
    """u <-> f and df/du of the components ids of a spec, on float arrays
    indexed like ids.  Each component's law and sign come from the spec's
    arrays: its alpha, where the family's law reads alpha, and whether it
    is special.  Each map checks its whole input first and raises
    DomainViolation for the first component outside its open domain; then
    each law runs on its own components only (a one-law map on the whole
    vector), so no numpy warning fires.  Its bounds are built once.
    Raises FamilyConstraint naming the first component without an alpha
    that the law reads."""

    def __init__(self, spec: StructureSpec, ids):
        self.family, self.ids = spec.family, ids
        keys = np.asarray(ids)
        special = np.isin(keys, [i for i in spec.special if isinstance(i, numbers.Real)])
        alpha = None
        if spec.family in ("A1", "MixedI"):
            alpha, missing = _take(spec.alpha, keys)
            if missing is not None:
                raise FamilyConstraint(f"no alpha for boundary component {ids[missing]}")
        self.law = _law(spec.family, alpha, special)
        self.sign, self._neg_sign = 2.0 * special - 1.0, 1.0 - 2.0 * special
        self.f_lo, self.f_hi = _BOUNDS[self.law, 0].T
        self.lo, self.hi = _BOUNDS[self.law, 1 + special].T
        big = np.where(self.law >= _COSH, _EXP_MAX, np.inf)  # cosh, sinh overflow beyond
        self.u_lo, self.u_hi = np.maximum(self.lo, -big), np.minimum(self.hi, big)
        # exp(-f) overflows below -_EXP_MAX in every law but the linear one
        self.f_min = np.where(self.law == _LIN, self.f_lo, np.maximum(self.f_lo, -_EXP_MAX))
        self.groups = [(k, np.flatnonzero(self.law == k)) for k in set(self.law.tolist())]

    def _require(self, name: str, x, lo, hi) -> None:
        inside = (lo < x) & (x < hi)  # NaN fails too
        if not inside.all():
            k = int(np.argmin(inside))
            raise DomainViolation(f"{name}[{self.ids[k]}]={x[k]} outside "
                                  f"({lo[k]}, {hi[k]}) for {self.family}")

    def _apply(self, which: int, x) -> np.ndarray:
        if len(self.groups) == 1:
            return _LAWS[self.groups[0][0]][which](x)
        out = np.empty(len(x))
        for law, idx in self.groups:
            out[idx] = _LAWS[law][which](x[idx])
        return out

    def to_f(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        self._require("u", u, self.u_lo, self.u_hi)
        return self._apply(0, self.sign * u)

    def to_u(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        self._require("f", f, self.f_min, self.f_hi)
        return self.sign * self._apply(1, f)

    def derivative(self, f) -> np.ndarray:
        """df/du; filler where |f| > F_LIMIT, which the kernel rejects."""
        f = np.asarray(f, dtype=float)
        self._require("f", f, self.f_lo, self.f_hi)
        if not np.abs(f).max(initial=0.0) <= F_LIMIT:
            f = np.where(np.abs(f) <= F_LIMIT, f, 0.0)
        return self._neg_sign * self._apply(2, f)


def _floats(values, n: int, ids=None) -> np.ndarray:
    """n values, a sequence or an array, as a float array read by one array
    pass; where it reads no reals, the first value that is no real number
    raises DomainViolation naming its id in ids (default: its position).
    Raises OutOfRange for a shape other than (n,)."""
    try:
        out = np.asarray(values)
    except ValueError:  # values of unequal shapes: some value is a sequence
        out = None
    if out is None or out.ndim == 1 and out.dtype.kind not in "biuf":
        for k, x in enumerate(values):
            if not _is_real(x):
                raise DomainViolation(f"component {k if ids is None else ids[k]}={x!r} "
                                      "is not a real number")
        out = np.asarray(values, dtype=float)
    if out.shape != (n,):
        raise OutOfRange(f"expected {n} component values, got shape {out.shape}")
    return out.astype(float, copy=False)


def component_values(x, n: int) -> np.ndarray:
    """x[0], ..., x[n-1] as a float array; x is a mapping with the keys
    0..n-1 or an array-like of shape (n,).  A Weights with those keys gives
    its own data, with no item read: its keys are sorted and distinct, so n
    of them from 0 to n-1 are exactly 0..n-1.  Raises OutOfRange naming the
    first missing or extra component, or the wrong shape, and as _floats."""
    if isinstance(x, Weights) and len(x.ids) == n > 0 and x.ids[0] == 0 and x.ids[-1] == n - 1:
        x = x.data
    if isinstance(x, np.ndarray) and x.shape == (n,) and x.dtype.kind in "biuf":
        return x.astype(float, copy=False)
    if not isinstance(x, Mapping):
        return _floats(x, n)
    if len(x) == n:
        try:
            return _floats(list(map(x.__getitem__, range(n))), n)
        except KeyError:
            pass
    missing = next((i for i in range(n) if i not in x), None)
    if missing is not None:
        raise OutOfRange(f"no value for component {missing}")
    extra = next(i for i in x if i not in range(n))
    raise OutOfRange(f"component {extra} is not one of 0..{n - 1}")


def _components(x) -> Weights:
    """x, a mapping or an array of components 0..len(x) - 1, as a Weights of
    float values, x itself where it is one of reals; raises OutOfRange
    naming the first key that is no integer, else as _floats."""
    if isinstance(x, Weights) and x.data.dtype.kind in "biuf":
        return x
    if not isinstance(x, Mapping):  # no len: one value, which _floats rejects
        n = len(x) if np.iterable(x) and hasattr(x, "__len__") else 1
        return Weights(np.arange(n), _floats(x, n))
    keys = list(x)
    try:
        ids = np.fromiter(map(operator.index, keys), np.intp, len(keys))
    except (TypeError, OverflowError):
        for k in keys:  # the first key that is no integer raises
            try:
                np.intp(operator.index(k))
            except (TypeError, OverflowError):
                raise OutOfRange(f"component {k!r} is not an integer") from None
    return Weights(ids, _floats(list(x.values()), len(ids), ids))


def u_from_f(spec: StructureSpec, f) -> Weights:
    """The coordinates u of the factors f, keyed as f, as a Weights."""
    f = _components(f)
    return Weights(f.ids, ChangeOfVariables(spec, f.ids).to_u(f.data))


def f_from_u(spec: StructureSpec, u) -> Weights:
    """The factors f of the coordinates u, keyed as u, as a Weights."""
    u = _components(u)
    return Weights(u.ids, ChangeOfVariables(spec, u.ids).to_f(u.data))


# -- the weight table --------------------------------------------------------

def _ge(x: float) -> float:
    """The window eta >= x, as eta > the float below x."""
    return math.nextafter(x, -math.inf)


# One row per family group, rule code and alpha pairs, each pair (alpha at
# the special end, or at end a, alpha at the other end).  Validation admits
# the weights eta > admit and raises error, a (class, message) pair, for the
# others.  The pair bound lo(eta) < u_a + u_b < hi(eta) (None: unbounded) is
# defined, never NaN, on the weights validation admits.  An existence
# theorem covers the edge where proven[0] <= eta <= proven[1].
Rule = namedtuple("Rule", "families code pairs admit error lo hi proven")

_ANY, _ALWAYS, _NEVER = -math.inf, (-math.inf, math.inf), (math.inf, -math.inf)
_ALL = [(p, q) for p in (-1, 0, 1) for q in (-1, 0, 1)]
_A1, _A3 = ("A1", "MixedI"), ("A3", "MixedIII")
_PLAIN = (FamilyConstraint, "plain edge weight must be positive")
_EQUAL = (FamilyConstraint, "weight must exceed 1 for equal alphas")
_POSITIVE = (FamilyConstraint, "weight must be positive")
_FLOOR_1 = (FamilyConstraint, "weight below 1")


def _cos_bound(eta):
    # cosh l > 1 reduces to cos(u_a + u_b) > -eta on the chart
    return np.where(eta < 1.0, -np.arccos(-eta), -np.inf)


RULES = (
    # the plain rules; A1's is symmetric in its ends
    Rule(_A1, EDGE_A1, [(0, 0)], 0.0, _PLAIN, lambda eta: np.log(2.0 / eta), None, _ALWAYS),
    Rule(_A1, EDGE_A1, [(0, 1), (1, 0)], 0.0, _PLAIN, lambda eta: np.log(1.0 / eta), None,
         _ALWAYS),
    Rule(_A1, EDGE_A1, [(0, -1), (-1, 0)], 0.0, _PLAIN, lambda eta: np.log(1.0 / eta), None,
         _NEVER),
    Rule(_A1, EDGE_A1, [(1, 1)], 1.0, _EQUAL, lambda eta: -np.arccosh(eta), None, _ALWAYS),
    Rule(_A1, EDGE_A1, [(-1, -1)], 1.0, _EQUAL, lambda eta: -np.arccosh(eta), None, _NEVER),
    Rule(_A1, EDGE_A1, [(1, -1), (-1, 1)], 0.0, _PLAIN, lambda eta: np.arcsinh(-eta), None,
         _NEVER),
    Rule(("A2",), EDGE_A2, _ALL, _ge(-1.0), (FamilyConstraint, "weight below -1"), _cos_bound,
         None, (-1.0, 0.0)),
    Rule(("MixedII",), EDGE_A2, _ALL, _ge(1.0), _FLOOR_1, _cos_bound, None, _NEVER),
    Rule(_A3, EDGE_A3, _ALL, 0.0, _POSITIVE, lambda eta: -np.sqrt(2.0 * eta), None, _ALWAYS),
    # the flipped rules at a special component
    Rule(("MixedI",), EDGE_B1, [(0, 0)], 0.0, _POSITIVE, None, None, _ALWAYS),
    Rule(("MixedI",), EDGE_B1, [(1, 1)], -1.0,
         (UnsupportedWeightRange, "weight <= -1 window excluded"), None, None, _ALWAYS),
    Rule(("MixedI",), EDGE_B1, [(1, 0)], _ge(0.0),
         (UnsupportedWeightRange, "negative weight window excluded"), None,
         lambda eta: np.where(eta < 0.0, np.log(-1.0 / eta), np.inf), _ALWAYS),
    Rule(("MixedI",), EDGE_B1, [(-1, 0)], 0.0, _POSITIVE, lambda eta: np.log(1.0 / eta), None,
         _NEVER),
    Rule(("MixedI",), EDGE_B1, [(0, 1)], _ANY, None,
         lambda eta: np.where(eta < 0.0, np.log(-eta), -np.inf), None, _ALWAYS),
    Rule(("MixedI",), EDGE_B1, [(-1, 1)], _ANY, None, lambda eta: np.arcsinh(-eta), None,
         _NEVER),
    Rule(("MixedI",), EDGE_B1, [(0, -1)], 0.0, _POSITIVE, None, np.log, _NEVER),
    Rule(("MixedI",), EDGE_B1, [(1, -1)], _ANY, None, None, np.arcsinh, _NEVER),
    Rule(("MixedI",), EDGE_B1, [(-1, -1)], 1.0, (FamilyConstraint, "weight must exceed 1"),
         lambda eta: -np.arccosh(eta), np.arccosh, _NEVER),
    Rule(("MixedII",), EDGE_B2, _ALL, _ge(1.0), _FLOOR_1,
         lambda eta: np.where(eta <= 1.0, -np.arcsin(eta), -np.inf), None, _NEVER),
    Rule(("MixedIII",), EDGE_B3, _ALL, _ANY, None,
         lambda eta: np.where(eta <= 0.0, np.sqrt(-2.0 * eta), -np.inf), None, _ALWAYS),
)

# The row of each (family, code, alpha pair)
_ROW = np.zeros((len(FAMILIES), 6, 3, 3), dtype=np.intp)
for _k, _rule in enumerate(RULES):
    for _fam, (_p, _q) in itertools.product(_rule.families, _rule.pairs):
        _ROW[FAMILIES.index(_fam), _rule.code, _p + 1, _q + 1] = _k
_ADMIT = np.array([r.admit for r in RULES])
_PROVEN = np.array([r.proven for r in RULES]).T

# The within-face weight couplings of MixedI and MixedIII, by code 1, 2.
_COUPLINGS = ((UnsupportedWeightRange, "weight combination outside supported window"),
              (FamilyConstraint, "incompatible weights on opposite edges"))

# A spec's inputs to RULES on a mesh: per edge in edge-list order its id,
# ends a and b, rule code, row and weight; per component its alpha and
# whether it is special.
_Edges = namedtuple("_Edges", "ids a b code row eta alpha special")

Polytope = namedtuple("Polytope", "lo hi a b pair_lo pair_hi edge")


def _special_faces(arrays: SpecArrays) -> tuple:
    """Per face: whether exactly one corner c is special; then along the
    corners c, c + 1, c + 2 their alphas, and the weights of the sides c
    (from the special corner), c + 1 (between the plain corners) and c + 2
    (into the special corner), each 3 x F."""
    (vert, epos), e = arrays.face_arrays, arrays.edges
    sp = e.special[vert]
    ring = (np.argmax(sp, axis=1)[:, None] + np.arange(3)) % 3
    return (sp.sum(axis=1) == 1, np.take_along_axis(e.alpha[vert], ring, 1).T,
            np.take_along_axis(e.eta[epos], ring, 1).T)


class SpecArrays:
    """The record of one spec on one mesh; every field but edges takes the
    spec as valid.  It keeps the mesh's arrays, not the mesh, and builds
    each field on first use: edges, the spec's inputs to RULES; cov, the
    change of variables of every component; program, the evaluation
    kernel's EdgeProgram of the faces in face order, each edge oriented the
    way its first face side runs; unproven, whether no existence theorem
    covers the configuration; polytope, the admissible polytope; start,
    the default start, a read-only point inside the polytope.  newton, the
    Newton state at the default start (solver.NewtonStart: f and K there
    and the SuperLU factor of the Jacobian there with its definiteness
    verdict, or the fact that it is exactly singular; no arcs, Jacobian or
    mesh), is None until the first solve that steps from the start leaves
    it, since only the solver loads scipy; every later solve from the
    start takes its first step from it."""

    newton = None

    def __init__(self, spec: StructureSpec, tri):
        self.spec, self.n, self.face_ids = spec, tri.n_boundary, tri.face_ids
        self.edge_arrays, self.face_arrays = tri.edge_arrays, tri.face_arrays

    @cached_property
    def edges(self) -> _Edges:
        """The spec's alphas of the components 0..n-1 and etas of the edge
        ids in edge-list order, read from its Weights, with no lookup where
        the keys are those ids in that order, as parse gives them.  Raises
        FamilyConstraint naming the first component without an alpha, else
        the first edge without an eta, else a special off the mesh."""
        spec, n, (ids, a, b) = self.spec, self.n, self.edge_arrays
        alpha, v = _take(spec.alpha, np.arange(n))
        if v is not None:
            raise FamilyConstraint(f"no alpha for boundary component {v}")
        eta, e = _take(spec.eta, ids)
        if e is not None:
            raise FamilyConstraint(f"no eta for edge {ids[e]}")
        for v in spec.special.difference(range(n)):  # the first one raises
            raise FamilyConstraint(f"special component {v} is not a vertex")
        special = np.zeros(n, dtype=bool)
        special[list(map(int, spec.special))] = True  # a special True or 1.0 is 1
        sa, sb, fam = special[a], special[b], FAMILIES.index(spec.family)
        code = fam % 3 + 3 * (sa | sb)
        first = np.where(sb & ~sa, b, a)  # the special end, else a
        row = _ROW[fam, code, alpha[first] + 1, alpha[a + b - first] + 1]
        return _Edges(ids, a, b, code, row, eta, alpha, special)

    @cached_property
    def cov(self) -> ChangeOfVariables:
        return ChangeOfVariables(self.spec, np.arange(self.n))

    @cached_property
    def program(self) -> EdgeProgram:
        e, (vert, epos) = self.edges, self.face_arrays
        first = np.unique(epos, return_index=True)[1]  # every edge lies on a face
        ends = np.stack((vert.ravel()[first], vert[:, _NEXT].ravel()[first]))
        return EdgeProgram(vert, e.alpha, ends, e.code, e.eta, epos)

    @cached_property
    def unproven(self) -> bool:
        e = self.edges
        lo, hi = _PROVEN[:, e.row]
        if not np.all((lo <= e.eta) & (e.eta <= hi)):
            return True
        if self.spec.family != "MixedI":
            return False
        # nor where a face at a special component has plain alphas 1, 1
        one, (_, a1, a2), _ = _special_faces(self)
        return bool(np.any(one & (a1 == 1) & (a2 == 1)))

    @cached_property
    def polytope(self) -> Polytope:
        """The admissible polytope: the chart lo < u_i < hi of every
        component, and pair_lo < u_a + u_b < pair_hi for every edge whose
        pair bound in RULES is finite on either side, in edge-list order."""
        e = self.edges
        lo, hi = np.full(len(e.eta), -np.inf), np.full(len(e.eta), np.inf)
        with np.errstate(all="ignore"):  # np.where evaluates both branches
            for k in np.unique(e.row).tolist():
                at, rule = e.row == k, RULES[k]
                if rule.lo is not None:
                    lo[at] = rule.lo(e.eta[at])
                if rule.hi is not None:
                    hi[at] = rule.hi(e.eta[at])
        keep = (lo > -np.inf) | (hi < np.inf)
        return Polytope(self.cov.lo, self.cov.hi, *(x[keep] for x in (e.a, e.b, lo, hi, e.ids)))

    @cached_property
    def start(self) -> np.ndarray:
        """The default start: each chart's base point, then up to 100
        sweeps, each moving both ends of every pair bound that u nears
        halfway toward its interior, in edge-list order, then clamping u
        into the charts shrunk by a margin, until a sweep moves nothing.
        The pair moves run in that order, one by one: each reads the moves
        before it.  Raises NoFeasibleStart where the sweeps end outside the
        polytope."""
        poly = self.polytope
        lo, hi = poly[:2]
        with np.errstate(invalid="ignore"):  # lo + hi on a chart with no bound
            base = np.where(hi == np.inf, np.where(lo == -np.inf, 0.0, lo + 0.5),
                            np.where(lo == -np.inf, hi - 0.5, 0.5 * (lo + hi)))
        pad = np.minimum(0.05, 0.05 * (hi - lo))
        u, bounds = base.tolist(), list(zip(*(x.tolist() for x in poly[2:6])))
        for _ in range(100):
            moved = False
            for a, b, p_lo, p_hi in bounds:
                s = u[a] + u[b]
                if math.isinf(p_hi):
                    target = p_lo + 0.5 if s <= p_lo + 0.125 else None
                elif math.isinf(p_lo):
                    target = p_hi - 0.5 if s >= p_hi - 0.125 else None
                else:
                    near = min(s - p_lo, p_hi - s) <= 0.05 * (p_hi - p_lo)
                    target = 0.5 * (p_lo + p_hi) if near else None
                if target is not None:
                    delta = 0.5 * (target - s)
                    u[a] += delta
                    if b != a:
                        u[b] += delta
                    moved = True
            x = np.clip(u, lo + pad, hi - pad)
            if not (moved or np.any(x != u)):
                break  # every later sweep would move nothing either
            u = x.tolist()
        if not _admits(poly, x).ok:
            raise NoFeasibleStart("feasibility repair failed after 100 sweeps; "
                                  "weights sit at the edge of their validity range")
        x.flags.writeable = False
        return x


def spec_arrays(spec: StructureSpec, tri) -> SpecArrays:
    """The SpecArrays of (spec, tri) with its edges, the spec validated
    against the mesh (_validate) when the record is built; tri keeps the
    record of the last spec object it was used with, none that fails."""
    if tri.spec_memo is None or tri.spec_memo.spec is not spec:
        arrays = SpecArrays(spec, tri)
        _validate(arrays)
        tri.spec_memo = arrays
    return tri.spec_memo


# -- admissible-space membership --------------------------------------------

@dataclass
class Admissibility:
    ok: bool
    violations: list  # names of the violated charts and edge constraints


def slack(poly: Polytope, u) -> np.ndarray:
    """The slacks u - lo, hi - u, s - pair_lo and pair_hi - s (s = u_a +
    u_b) of poly's bounds at the points u, an (..., N) array, as one
    (..., 2N + 2P) array: u lies inside poly where all are positive."""
    s = u[..., poly.a] + u[..., poly.b]
    return np.concatenate((u - poly.lo, poly.hi - u, s - poly.pair_lo, poly.pair_hi - s), -1)


def _admits(poly: Polytope, uv: np.ndarray) -> Admissibility:
    lo, hi, a, b, pair_lo, pair_hi, edge = poly
    inside = (lo < uv) & (uv < hi)
    if not inside.all():
        return Admissibility(False, [f"chart of u[{i}]" for i in np.flatnonzero(~inside)])
    with np.errstate(over="ignore"):  # an overflowed sum gets the verdict of its sign
        s = uv[a] + uv[b]
    inside = (pair_lo < s) & (s < pair_hi)
    ok = bool(inside.all())
    return Admissibility(ok, [] if ok else [f"edge {e}" for e in edge[~inside]])


def admissible(spec: StructureSpec, tri, u) -> Admissibility:
    """Check chart membership, then every edge constraint; u is a mapping
    or an array indexed by component.  An Admissibility is always truthy:
    read its ok."""
    return _admits(spec_arrays(spec, tri).polytope, component_values(u, tri.n_boundary))


# -- family / weight validation ---------------------------------------------

def _couplings(arrays: SpecArrays) -> np.ndarray:
    """The code in _COUPLINGS of the coupling each face fails, or 0."""
    one, (a_s, a1, a2), (e1, e_a, e2) = _special_faces(arrays)
    if arrays.spec.family == "MixedIII":  # at the special corner eta <= 0 needs eta <= -e_a
        return one & ((e1 <= 0.0) & (e_a + e1 > 0.0) | (e2 <= 0.0) & (e_a + e2 > 0.0))
    # on plain alphas 1 and -1: the weights of the sides at the special corner
    pos, neg = np.where(a1 == 1, e1, e2), np.where(a1 == 1, e2, e1)
    opposite = one & (a1 * a2 == -1)
    return np.where(opposite & (a_s == 1) & (neg + e_a <= 0.0), 2, (
        opposite & (a_s == 0) & (pos < 0.0) & (pos + neg <= 0.0)
        | opposite & (a_s == -1) & (pos <= 0.0)
        | one & (a_s == 1) & (a1 == -1) & (a2 == -1) & ((e1 <= 0.0) | (e2 <= 0.0))))


def _validate(arrays: SpecArrays) -> None:
    """The family, special set and weights of arrays' spec on its mesh,
    against RULES.  Raises FamilyConstraint or UnsupportedWeightRange for
    the first violation: a missing alpha or eta, a special component
    outside the mesh (as SpecArrays.edges), an edge joining two special
    components, the alphas A2 and MixedII require, then the weights.
    Weights go in edge-list order; on MixedI and MixedIII, whose weights
    also couple within a face, in face order, and in a face its plain
    sides, then its sides at the special corner, then the coupling."""
    fam, e = arrays.spec.family, arrays.edges
    double = e.special[e.a] & e.special[e.b]
    if double.any():
        raise FamilyConstraint(f"edge {e.ids[np.argmax(double)]} joins two special components")
    if fam in ("A2", "MixedII") and np.any(e.alpha != -1):
        raise FamilyConstraint(f"{fam} requires alpha=-1 "
                               f"(component {np.argmax(e.alpha != -1)})")
    bad = np.where(e.eta > _ADMIT[e.row], 0, e.row + 1)  # 1 + the row
    if fam not in ("MixedI", "MixedIII"):
        if bad.any():
            k = int(np.argmax(bad))
            cls, text = RULES[e.row[k]].error
            raise cls(f"edge {e.ids[k]}: {text}")
        return
    vert, epos = arrays.face_arrays
    sp = e.special[vert]
    order = np.zeros((len(vert), 7), dtype=np.intp)
    np.put_along_axis(order, np.where(sp | sp[:, _NEXT], 3, 0) + np.arange(3),
                      bad[epos], axis=1)
    order[:, 6] = _couplings(arrays)
    if order.any():
        k, col = divmod(int(np.argmax(order.ravel() != 0)), 7)
        face = arrays.face_ids[k]
        if col == 6:
            cls, text = _COUPLINGS[order[k, col] - 1]
            raise cls(f"face {face}: {text}")
        cls, text = RULES[order[k, col] - 1].error
        raise cls(f"face {face} edge {e.ids[epos[k, col % 3]]}: {text}")
