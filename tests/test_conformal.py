import copy
import functools
import itertools
import math
import pickle
import random
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcurv import conformal as cf
from hexcurv import curvature, mesh, solver
from hexcurv.errors import (
    DomainViolation,
    FamilyConstraint,
    HexcurvError,
    NotAdmissible,
    OutOfRange,
    UnsupportedWeightRange,
)
from hexcurv.mesh import Edge

import scalar_ref
from helpers import ALL_FAMILIES, edge_lanes, make_spec, sample_admissible_u
from helpers import sphere_triangulation


def spec1(family, alphas, etas, special=()):
    return cf.StructureSpec(family, alphas, etas, special=frozenset(special))


E01 = Edge(0, 0, 1)


def edge_rule(spec, edge, f):
    """(cosh l, partial ratio oriented a -> b) of one edge by the kernel's
    edge rules."""
    a, b = edge.a, edge.b
    ok, ch, rho = edge_lanes(scalar_ref.edge_code(spec, a, b), spec.alpha[a], spec.alpha[b],
                             f[a], f[b], spec.eta[edge.id])
    assert ok
    return float(ch), float(rho)


def face_edge_rules(spec, tri, fs):
    """(ok, cosh l, partial ratio) of the edges of a single-face mesh at
    every row of factors fs, in one call: edge m runs from corner m to
    corner m + 1."""
    prog = cf.spec_arrays(spec, tri).program
    side = prog.side[:, 0]
    assert not prog.rev.any()  # each edge runs the way its one face side does
    fa, fb = (np.asarray(fs)[:, e] for e in prog.ends[:, side])
    return edge_lanes(prog.codes[side], *prog.alpha[prog.ends[:, side]], fa, fb, prog.etas[side])


def test_edge_length_a1_plain():
    spec = spec1("A1", {0: 0, 1: 0}, {0: 3.0})
    ch, _ = edge_rule(spec, E01, {0: 0.0, 1: 0.0})
    assert ch == pytest.approx(2.0, abs=1e-15)
    assert math.acosh(ch) == pytest.approx(math.acosh(2.0), abs=1e-15)


def test_edge_length_a2_example():
    spec = spec1("A2", {0: -1, 1: -1}, {0: -0.25})
    f = {0: math.log(2.0), 1: math.log(2.0)}
    assert edge_rule(spec, E01, f)[0] == pytest.approx(2.0, abs=1e-12)
    # admissibility cross-check in u: cos(u0+u1) > -eta
    u = cf.u_from_f(spec, f)
    assert u[0] == pytest.approx(-math.pi / 6.0, abs=1e-12)
    assert math.cos(u[0] + u[1]) == pytest.approx(0.5, abs=1e-12)
    assert math.cos(u[0] + u[1]) > 0.25


def test_edge_length_boundary_rejected():
    # cosh l = -1 + 2 = 1 on every edge
    spec = spec1("A1", {i: 0 for i in range(3)}, {i: 2.0 for i in range(3)})
    with pytest.raises(NotAdmissible, match="edge position 0 degenerates") as err:
        curvature.curvature_map(spec, mesh.single_face(), {i: 0.0 for i in range(3)})
    assert err.value.edge == 0


def test_partial_ratio_symmetry_and_a3():
    spec = spec1("A1", {0: 1, 1: 1}, {0: 3.0})
    assert edge_rule(spec, E01, {0: 0.3, 1: 0.3})[1] == pytest.approx(1.0)
    spec3 = spec1("A3", {0: 0, 1: 0}, {0: 3.0})
    assert edge_rule(spec3, E01, {0: 1.0, 1: 0.0})[1] == pytest.approx(
        math.e, abs=1e-12
    )


def test_partial_ratio_mixed_negative():
    spec = spec1("MixedIII", {0: 0, 1: 0}, {0: -4.0}, special=(0,))
    rho = edge_rule(spec, E01, {0: 1.0, 1: 0.0})[1]
    assert rho == pytest.approx(-math.e, abs=1e-12)
    # reversed orientation gives the reciprocal
    e10 = Edge(0, 1, 0)
    assert edge_rule(spec, e10, {0: 1.0, 1: 0.0})[1] == pytest.approx(
        -1.0 / math.e, abs=1e-12
    )


def test_u_change_examples():
    spec3 = spec1("A3", {0: 0}, {})
    assert cf.u_from_f(spec3, {0: 0.0})[0] == pytest.approx(-1.0, abs=1e-15)
    spec1p = spec1("A1", {0: 1}, {})
    u = -math.asinh(1.0)
    assert cf.f_from_u(spec1p, {0: u})[0] == pytest.approx(0.0, abs=1e-14)
    spec2 = spec1("A2", {0: -1}, {})
    assert cf.f_from_u(spec2, {0: -math.pi / 6.0})[0] == pytest.approx(
        math.log(2.0), abs=1e-14
    )


def test_u_roundtrip_all_families():
    rng = random.Random(0)
    tri = mesh.single_face()
    for fam in ALL_FAMILIES:
        spec = make_spec(fam, tri, rng)
        poly = cf.spec_arrays(spec, tri).polytope
        ids, us = [], []
        for _ in range(10000):
            i = rng.randrange(3)
            lo = poly.lo[i] if math.isfinite(poly.lo[i]) else -4.0
            hi = poly.hi[i] if math.isfinite(poly.hi[i]) else 4.0
            pad = 1e-3 * (hi - lo)
            ids.append(i)
            us.append(rng.uniform(lo + pad, hi - pad))
        cov = cf.ChangeOfVariables(spec, ids)  # one lane per draw
        u = np.array(us)
        back = cov.to_u(cov.to_f(u))
        assert np.all(np.abs(back - u) < 1e-12 * np.maximum(1.0, np.abs(u)))


def test_change_of_variables_reads_the_alpha_the_spec_holds():
    # an alpha of 1.0 or True reads as 1, as SpecArrays reads it
    eta, u = {0: 2.0}, {0: -0.5, 1: -0.7, 2: -0.9}
    ones = spec1("A1", {0: 1, 1: 1, 2: 1}, eta)
    for alpha in ({0: 1.0, 1: 1.0, 2: 1.0}, {0: True, 1: 1.0, 2: 1}):
        spec = spec1("A1", alpha, eta)
        assert cf.f_from_u(spec, u) == cf.f_from_u(ones, u)
        f = cf.f_from_u(ones, u)
        assert cf.u_from_f(spec, f) == cf.u_from_f(ones, f)


def test_change_of_variables_names_a_component_without_alpha():
    # as SpecArrays.edges names it
    spec = spec1("A1", {0: 0, 1: 1, 2: -1}, {0: 2.0, 1: 2.0, 2: 2.0})
    for call, x in ((cf.f_from_u, {0: -1.0, 5: -1.0}), (cf.u_from_f, {0: 1.0, 5: 1.0})):
        with pytest.raises(FamilyConstraint, match="^no alpha for boundary component 5$"):
            call(spec, x)


def test_change_of_variables_names_a_key_that_is_no_integer():
    # on every family, as a spec's weights name theirs; True is the integer
    # 1 there, and here
    a1 = spec1("A1", {0: 0, 1: 0}, {0: 2.0})
    a3 = spec1("A3", {0: 0, 1: 0}, {0: 2.0})
    for spec in (a1, a3):
        for call, x in ((cf.f_from_u, -0.5), (cf.u_from_f, 0.5)):
            for key in ("a", None, 0.5):
                with pytest.raises(OutOfRange, match=f"^component {re.escape(repr(key))} "
                                                     "is not an integer$"):
                    call(spec, {0: x, key: x})
            out = call(spec, {True: x, 0: x})
            assert out == call(spec, {0: x, 1: x}) and out.ids.tolist() == [0, 1]


def test_change_of_variables_reads_arrays_by_component():
    # a list, a tuple or an array holds components 0..len - 1 and maps to
    # the Weights of the dict of the same values
    rng = random.Random(41)
    tri = sphere_triangulation(40, rng)
    pants = spec1("A1", {0: 0, 1: 0, 2: 0}, {0: 3.0, 1: 3.0, 2: 3.0})
    cases = [(pants, cf.u_from_f, [1, 2, 0]), (pants, cf.u_from_f, [0.3, 0.2, 0.1])]
    for fam in ALL_FAMILIES:
        spec = make_spec(fam, tri, rng)
        u = list(solver.default_initial(spec, tri).values())
        cases += [(spec, cf.f_from_u, u), (spec, cf.u_from_f, list(cf.f_from_u(spec, u).data))]
    for spec, call, values in cases:
        want = call(spec, dict(enumerate(values)))
        assert want.ids.tolist() == list(range(len(values)))
        for x in (values, tuple(values), np.array(values)):
            assert call(spec, x) == want


def test_change_of_variables_names_a_bad_array():
    spec = spec1("A3", {0: 0, 1: 0, 2: 0}, {0: 2.0, 1: 2.0, 2: 2.0})
    for call in (cf.f_from_u, cf.u_from_f):
        with pytest.raises(DomainViolation, match="^component 0='a' is not a real number$"):
            call(spec, ["a", 1, 2])
        for x, message in ((0.5, "expected 1 component values, got shape ()"),
                           (np.array(-0.5), "expected 1 component values, got shape ()"),
                           (-np.ones((2, 3)), "expected 2 component values, got shape (2, 3)")):
            with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
                call(spec, x)
        # a mapping's messages are its own
        with pytest.raises(DomainViolation, match="^component 0='a' is not a real number$"):
            call(spec, {0: "a", 1: 1, 2: 2})
        with pytest.raises(OutOfRange, match="^component 'x' is not an integer$"):
            call(spec, {"x": 1})


def test_chart_is_the_change_of_variables_interval():
    # chart(spec, i) is the open interval ChangeOfVariables holds for
    # component i, on every component of every family
    rng = random.Random(42)
    tri = sphere_triangulation(40, rng)
    for fam in ALL_FAMILIES:
        spec = make_spec(fam, tri, rng)
        cov = cf.spec_arrays(spec, tri).cov
        for i in range(tri.n_boundary):
            c = cf.chart(spec, i)
            assert c == cf.Chart(cov.lo[i], cov.hi[i]), (fam, i)
            inner = [x for x in (c.lo + 0.25, c.hi - 0.25, 0.5 * (c.lo + c.hi), 0.0)
                     if math.isfinite(x) and c.lo < x < c.hi]
            assert inner and all(map(c.contains, inner))
            assert not (c.contains(c.lo) or c.contains(c.hi) or c.contains(math.nan))
    a1 = spec1("A1", {0: 0, 1: 1}, {0: 2.0})
    assert cf.chart(a1, 1) == cf.Chart(-math.inf, 0.0)
    with pytest.raises(FamilyConstraint, match="^no alpha for boundary component 2$"):
        cf.chart(a1, 2)


def test_weights_repr_shows_its_items():
    w = cf.Weights([2, 0], [0.5, -1.0])
    assert repr(w) == "Weights({0: -1.0, 2: 0.5})"
    assert repr(cf.Weights([], [])) == "Weights({})"


def test_dfdu_examples_and_fd():
    def dfdu(spec, f):
        return cf.ChangeOfVariables(spec, [0]).derivative(np.array([f]))[0]

    spec3 = spec1("A3", {0: 0}, {})
    assert dfdu(spec3, 0.0) == pytest.approx(1.0)
    specm = spec1("MixedIII", {0: 0}, {}, special=(0,))
    assert dfdu(specm, 0.0) == pytest.approx(-1.0)
    spec1p = spec1("A1", {0: 1}, {})
    assert dfdu(spec1p, 0.0) == pytest.approx(math.sqrt(2.0))

    rng = random.Random(1)
    tri = mesh.single_face()
    for fam in ALL_FAMILIES:
        spec = make_spec(fam, tri, rng)
        cov = cf.ChangeOfVariables(spec, range(3))
        poly = cf.spec_arrays(spec, tri).polytope
        for u in sample_admissible_u(spec, tri, rng, 30):
            u = np.array([u[i] for i in range(3)])
            df = cov.derivative(cov.to_f(u))
            for i in range(3):
                h = 1e-7
                up, um = u.copy(), u.copy()
                up[i] += h
                um[i] -= h
                if not (poly.lo[i] < um[i] and up[i] < poly.hi[i]):
                    continue
                num = (cov.to_f(up)[i] - cov.to_f(um)[i]) / (2 * h)
                assert df[i] == pytest.approx(num, rel=1e-7, abs=1e-7)


def test_admissible_examples():
    tri = mesh.single_face()
    spec = cf.StructureSpec("A1", {0: 0, 1: 0, 2: 0}, {0: 3.0, 1: 3.0, 2: 3.0})
    u = {0: math.log(2.0 / 3.0) / 2 + 0.05, 1: math.log(2.0 / 3.0) / 2 + 0.05, 2: 5.0}
    assert cf.admissible(spec, tri, u).ok
    u[1] = math.log(2.0 / 3.0) - u[0]  # boundary is not admissible
    assert not cf.admissible(spec, tri, u).ok

    spec3 = cf.StructureSpec("A3", {0: 0, 1: 0, 2: 0}, {0: 2.0, 1: 2.0, 2: 2.0})
    b = -math.sqrt(4.0) / 2.0
    assert not cf.admissible(spec3, tri, {0: b, 1: b, 2: b}).ok

    spec2 = cf.StructureSpec("A2", {i: -1 for i in range(3)}, {i: 1.5 for i in range(3)})
    u = {0: -0.45 * math.pi, 1: -0.45 * math.pi, 2: -0.45 * math.pi}
    assert cf.admissible(spec2, tri, u).ok


def test_admissible_names_each_violated_bound_once():
    tri = mesh.pair_of_pants()  # each edge borders both faces
    loose = cf.StructureSpec("A1", {i: 0 for i in range(3)}, {i: 3.0 for i in range(3)})
    tight = cf.StructureSpec("A1", {i: 0 for i in range(3)}, {i: 1.0 for i in range(3)})
    a3 = cf.StructureSpec("A3", {i: 0 for i in range(3)}, {i: 2.0 for i in range(3)})
    u = {i: 0.0 for i in range(3)}  # u_a + u_b = 0 lies above log(2/3), below log 2
    f = {i: 0.5 for i in range(3)}  # evaluable under all three specs
    for _ in range(2):  # the mesh keeps the arrays of the last spec only
        assert cf.admissible(loose, tri, u).ok
        res = cf.admissible(tight, tri, u)
        assert not res.ok and res.violations == ["edge 0", "edge 1", "edge 2"]
        res = cf.admissible(a3, tri, {0: 1.0, 1: -1.0, 2: 1.0})
        assert not res.ok and res.violations == ["chart of u[0]", "chart of u[2]"]
        for spec in (loose, tight, a3):  # K and J follow the spec as well
            K, J = curvature.curvature_and_jacobian(spec, tri, f)
            K0, J0 = curvature.curvature_and_jacobian(spec, mesh.pair_of_pants(), f)
            assert K.tobytes() == K0.tobytes()
            assert curvature.curvature_map(spec, tri, f).tobytes() == K0.tobytes()
            assert J.toarray().tobytes() == J0.toarray().tobytes()
    # B-edges at a special alpha=0 component bound u_a + u_b from above
    mixed = cf.StructureSpec("MixedI", {0: 0, 1: -1, 2: -1}, {0: 2.0, 1: 3.0, 2: 2.0},
                             special=frozenset({0}))
    assert cf.admissible(mixed, tri, {0: 1.0, 1: -0.5, 2: -0.5}).ok
    res = cf.admissible(mixed, tri, {0: 1.0, 1: -0.2, 2: -0.5})
    assert not res.ok and res.violations == ["edge 0"]


@functools.cache
def _polytope(case):
    """The polytope and start of an N=12 sphere of each family, by index
    into ALL_FAMILIES, or (case 6) of a pair of pants whose edges at a
    special alpha=0 component bound u_a + u_b from above."""
    rng, tri = random.Random(case), mesh.pair_of_pants()
    if case < 6:
        tri = sphere_triangulation(12, rng)
    spec = (make_spec(ALL_FAMILIES[case], tri, rng) if case < 6 else cf.StructureSpec(
        "MixedI", {0: 0, 1: -1, 2: -1}, {0: 2.0, 1: 3.0, 2: 2.0}, special=frozenset({0})))
    arrays = cf.spec_arrays(spec, tri)
    return arrays.polytope, arrays.start


@pytest.mark.parametrize("case", range(7))
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_admits_reads_the_sign_of_every_slack(case, data):
    # lane for lane, lo < u < hi is u - lo > 0 and hi - u > 0, and likewise
    # for the pair bounds, at infinite and NaN lanes and at exact bounds too
    poly, start = _polytope(case)
    n = len(poly.lo)
    u = start + np.array(data.draw(st.lists(st.floats(-0.25, 0.25), min_size=n, max_size=n)))
    for upper in data.draw(st.lists(st.booleans(), max_size=3)):
        bound = poly.pair_hi if upper else poly.pair_lo
        at = np.flatnonzero(np.isfinite(bound))
        if len(at):  # u_b = bound - u_a, then ulp steps of the smaller end to s = bound
            k = at[data.draw(st.integers(0, len(at) - 1))]
            a, b = poly.a[k], poly.b[k]
            if not poly.lo[b] < bound[k] - u[a] < poly.hi[b]:
                a, b = b, a  # move the end whose chart holds the tie
            u[b] = bound[k] - u[a]
            j = a if abs(u[a]) < abs(u[b]) else b
            for _ in range(4):
                s = u[a] + u[b]
                if s != bound[k]:
                    u[j] = np.nextafter(u[j], math.inf if s < bound[k] else -math.inf)
    lanes = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 4)), max_size=3)
    for i, kind in data.draw(lanes) if data.draw(st.booleans()) else ():
        u[i] = (math.inf, -math.inf, math.nan, poly.lo[i], poly.hi[i])[kind]
    with np.errstate(invalid="ignore"):  # inf - inf
        bad = ~(cf.slack(poly, u) > 0.0)
    p = len(poly.a)
    charts, pairs = bad[:n] | bad[n:2 * n], bad[2 * n:2 * n + p] | bad[2 * n + p:]
    res = cf._admits(poly, u)
    assert res.ok == (not bad.any())
    assert res.violations == ([f"chart of u[{i}]" for i in np.flatnonzero(charts)]
                              if charts.any() else [f"edge {e}" for e in poly.edge[pairs]])


@pytest.mark.parametrize("alpha, eta", [
    ((0, 1, 1), 0.5),  # A1 rule at alphas (1, 1): acosh of a weight below 1
    ((0, -1, 0), -1.0),  # alphas (-1, 0): log of a negative weight
    ((0, 0, 0), 0.0),  # alphas (0, 0): log of 2 / 0
    (None, -1.0),  # A3 rule: square root of a negative weight
])
def test_weight_outside_its_edge_rule_is_a_family_constraint(alpha, eta):
    # such a weight fails validation, and every reader of the spec on the
    # mesh raises validation's error for it, before it evaluates anything
    tri = mesh.pair_of_pants()  # edge 1 joins components 1 and 2
    weights = {0: 3.0, 1: eta, 2: 3.0}
    spec = (cf.StructureSpec("A3", {i: 0 for i in range(3)}, weights) if alpha is None
            else cf.StructureSpec("A1", dict(enumerate(alpha)), weights))
    text, u = mesh.serialize(tri, spec), [-1.0] * 3
    err, _ = _raised(mesh.parse, text)
    assert type(err) is FamilyConstraint and re.match(r"edge 1: .*weight", str(err))
    calls = [
        lambda: cf.spec_arrays(spec, tri),
        lambda: curvature.curvature_map(spec, tri, [0.3, 0.2, 0.1]),
        lambda: curvature.curvature_and_jacobian(spec, tri, [0.3, 0.2, 0.1]),
        lambda: cf.admissible(spec, tri, u),
        lambda: solver.default_initial(spec, tri),
        lambda: solver.solve_prescribed_curvature(spec, tri, {i: 1.0 for i in range(3)}),
        lambda: solver.energy(spec, tri, u, u),
    ]
    for call in calls:
        with pytest.raises(FamilyConstraint, match=f"^{re.escape(str(err))}$"):
            call()
        assert tri.spec_memo is None


def test_change_of_variables_names_the_first_bad_component():
    tri = mesh.pair_of_pants()
    a3 = cf.StructureSpec("A3", {i: 0 for i in range(3)}, {i: 3.0 for i in range(3)})
    with pytest.raises(DomainViolation, match=r"^u\[1\]=0.5 outside \(-inf, 0.0\) for A3"):
        cf.f_from_u(a3, {0: -1.0, 1: 0.5, 2: 0.0})
    a2 = cf.StructureSpec("A2", {i: -1 for i in range(3)}, {i: -0.25 for i in range(3)})
    a1 = cf.StructureSpec("A1", {0: 0, 1: -1, 2: -1}, {i: 3.0 for i in range(3)})
    cases = [
        (a2, {0: 0.3, 1: 0.0, 2: -1.0}, r"^f\[1\]=0.0 outside \(0.0, inf\) for A2"),
        (a1, {0: 0.3, 1: 0.5, 2: 0.0}, r"^f\[1\]=0.5 outside \(\S+, 0.0\) for A1"),
        (a3, {0: 0.1, 1: math.nan, 2: math.inf}, r"^f\[1\]=nan outside \(\S+, inf\) for A3"),
        (a2, {0: 0.3, 1: -math.inf, 2: 0.3}, r"^f\[1\]=-inf outside \(0.0, inf\) for A2"),
    ]
    for spec, f, message in cases:
        with pytest.raises(DomainViolation, match=message):
            cf.u_from_f(spec, f)
        with pytest.raises(DomainViolation, match=message):
            curvature.curvature_and_jacobian(spec, tri, f)
    # where exp, cosh or sinh would overflow: an error, not a warning or traceback
    with pytest.raises(DomainViolation, match=r"^u\[1\]=-800.0 outside"):
        cf.f_from_u(a1, {0: 0.0, 1: -800.0, 2: -1.0})
    with pytest.raises(DomainViolation, match=r"^f\[0\]=-800.0 outside"):
        cf.u_from_f(a3, {0: -800.0, 1: 0.0, 2: 0.0})
    with pytest.raises(NotAdmissible, match="exceed the evaluable range"):
        curvature.curvature_and_jacobian(a3, tri, {0: 400.0, 1: 0.0, 2: 0.0})


def _maps_by_component(cov, which, x):
    """_LAWS[law][which] of each component of cov alone, on a one-element
    array, with the sign that map takes there."""
    out = []
    for law, sign, xi in zip(cov.law.tolist(), cov.sign.tolist(), x.tolist()):
        if which == 0:
            out.append(cf._LAWS[law][0](np.array([sign * xi]))[0])
        elif which == 1:
            out.append(sign * cf._LAWS[law][1](np.array([xi]))[0])
        else:
            xi = xi if abs(xi) <= cf.F_LIMIT else 0.0  # the kernel rejects the filler's lanes
            out.append(-sign * cf._LAWS[law][2](np.array([xi]))[0])
    return np.array(out)


def _first_outside(lo, x, hi):
    return next(i for i in range(len(x)) if not lo[i] < x[i] < hi[i])


@pytest.mark.parametrize("family, special, laws", [
    ("A3", (), 1), ("MixedIII", (1, 4), 1), ("A1", (), 3), ("MixedII", (2, 3), 2),
])
def test_change_of_variables_is_its_laws_component_by_component(family, special, laws):
    # a one-law map applies its law to the whole vector, a mixed one each
    # law to its own components: the bytes of each component's law alone;
    # a value outside a domain is named as the first one in component order
    rng = random.Random(30)
    n = 12
    spec = spec1(family, {i: i % 3 - 1 if family == "A1" else -1 for i in range(n)}, {},
                 special)
    cov = cf.ChangeOfVariables(spec, list(range(n)))
    assert len(set(cov.law.tolist())) == laws
    lo, hi = np.maximum(cov.u_lo, -3.0), np.minimum(cov.u_hi, 3.0)
    for _ in range(50):
        u = lo + (hi - lo) * np.array([rng.uniform(0.01, 0.99) for _ in range(n)])
        f = cov.to_f(u)
        assert f.tobytes() == _maps_by_component(cov, 0, u).tobytes()
        assert cov.to_u(f).tobytes() == _maps_by_component(cov, 1, f).tobytes()
        # at the kernel's limit, and past it where the law's domain reaches
        for k, x in zip(rng.sample(range(n), 3), rng.sample([cf.F_LIMIT, -cf.F_LIMIT, 200.0,
                                                            -200.0, -1e300], 3)):
            if cov.f_lo[k] < x < cov.f_hi[k]:
                f[k] = x
        assert cov.derivative(f).tobytes() == _maps_by_component(cov, 2, f).tobytes()
        for name, x, call, bounds in (("u", u, cov.to_f, (cov.u_lo, cov.u_hi)),
                                      ("f", f, cov.to_u, (cov.f_min, cov.f_hi)),
                                      ("f", f, cov.derivative, (cov.f_lo, cov.f_hi))):
            x = x.copy()
            x[rng.sample(range(n), 2)] = rng.sample([math.nan, math.inf, -math.inf, 1e300,
                                                     -1e300, 0.0], 2)
            if all(bounds[0] < x) and all(x < bounds[1]):
                continue
            k = _first_outside(bounds[0], x, bounds[1])
            with pytest.raises(DomainViolation, match=rf"^{name}\[{k}\]={re.escape(str(x[k]))} "):
                call(x)


def test_admissible_matches_edge_lengths():
    # membership agrees with per-edge positivity everywhere sampled
    rng = random.Random(2)
    tri = mesh.single_face()
    for fam in ALL_FAMILIES:
        spec = make_spec(fam, tri, rng)
        poly = cf.spec_arrays(spec, tri).polytope
        us = []
        for _ in range(800):
            u0 = sample_admissible_u(spec, tri, rng, 1)[0]
            u = {i: u0[i] + rng.uniform(-1.5, 1.5) for i in u0}
            if all(poly.lo[i] < u[i] < poly.hi[i] for i in u):
                us.append(u)
        assert len(us) > 100
        cov = cf.spec_arrays(spec, tri).cov
        ok, ch, _ = face_edge_rules(spec, tri, [cov.to_f(cf.component_values(u, 3))
                                               for u in us])
        assert ok.all()
        for u, ok_lengths in zip(us, (ch > 1.0).all(axis=1)):
            ok_member = cf.admissible(spec, tri, u).ok
            if fam == "MixedII":
                # the sine constraint at weight 1 has a second, non-convex
                # length-positive component; membership keeps the convex one
                assert not ok_member or ok_lengths
            else:
                assert ok_member == ok_lengths


def test_length_factor_derivative_is_coth_split():
    # d l / d f_a equals coth d_ab read off the split, on-geodesic case
    rng = random.Random(3)
    tri = mesh.single_face()
    h = 1e-6
    for fam in ("A1", "A2", "A3", "MixedIII"):
        spec = make_spec(fam, tri, rng)
        cov = cf.spec_arrays(spec, tri).cov
        fs = np.array([cov.to_f(cf.component_values(u, 3))
                       for u in sample_admissible_u(spec, tri, rng, 40)])
        ok, ch, rho = face_edge_rules(spec, tri, fs)
        assert ok.all() and (ch > 1.0).all()
        for m in range(3):  # edge m runs from corner m to corner m + 1
            fp, fm = fs.copy(), fs.copy()
            fp[:, m] += h
            fm[:, m] -= h
            chp, chm = (face_edge_rules(spec, tri, x)[1][:, m] for x in (fp, fm))
            assert (chp > 1.0).all() and (chm > 1.0).all()
            for c, r, cp, cm in zip(*(x.tolist() for x in (ch[:, m], rho[:, m], chp, chm))):
                l = math.acosh(c)
                num, den = r * math.sinh(l), 1.0 + r * math.cosh(l)
                fd = (math.acosh(cp) - math.acosh(cm)) / (2 * h)
                if abs(num) < abs(den):
                    d_ab = math.atanh(num / den)
                    assert fd == pytest.approx(1.0 / math.tanh(d_ab), rel=1e-6)
                else:
                    x = math.atanh(den / num)
                    assert fd == pytest.approx(math.tanh(x), rel=1e-6)


def test_family_constraint_validation():
    tri = mesh.pair_of_pants()
    with pytest.raises(FamilyConstraint):
        cf.spec_arrays(
            cf.StructureSpec("A1", {0: 0, 1: 0, 2: 0}, {0: -1.0, 1: 3.0, 2: 3.0}),
            tri,
        )
    with pytest.raises(FamilyConstraint):
        cf.spec_arrays(
            cf.StructureSpec("A1", {0: 1, 1: 1, 2: 0}, {0: 0.5, 1: 3.0, 2: 3.0}),
            tri,
        )
    # two special components always share a face on the pair of pants
    with pytest.raises(FamilyConstraint):
        cf.spec_arrays(
            cf.StructureSpec(
                "MixedIII", {0: 0, 1: 0, 2: 0}, {0: 3.0, 1: 3.0, 2: 3.0},
                special=frozenset({0, 2}),
            ),
            tri,
        )
    with pytest.raises(FamilyConstraint):
        cf.StructureSpec("A1", {0: 2}, {})
    # specials on an A family raise when the spec is built, after its weights
    with pytest.raises(FamilyConstraint, match="^A3 admits no special components$"):
        cf.StructureSpec("A3", {i: 0 for i in range(3)}, {i: 3.0 for i in range(3)}, {0})
    with pytest.raises(FamilyConstraint, match=r"^alpha\[0\]=2"):
        cf.StructureSpec("A3", {0: 2}, {}, {0})


def test_mixed1_unsupported_windows():
    tri = mesh.pair_of_pants()
    # special component 0 with alpha 1 and a negative weight on its edge
    spec = cf.StructureSpec(
        "MixedI", {0: 1, 1: 0, 2: 0}, {0: -0.5, 1: 3.0, 2: 1.0},
        special=frozenset({0}),
    )
    with pytest.raises(UnsupportedWeightRange):
        cf.spec_arrays(spec, tri)


def test_mixed2_weight_floor():
    tri = mesh.pair_of_pants()
    spec = cf.StructureSpec(
        "MixedII", {i: -1 for i in range(3)}, {0: 0.5, 1: 1.0, 2: 1.0},
        special=frozenset({0}),
    )
    with pytest.raises(FamilyConstraint):
        cf.spec_arrays(spec, tri)


def test_all_make_spec_windows_validate():
    rng = random.Random(4)
    for fam in ALL_FAMILIES:
        for n in (4, 12):
            tri = sphere_triangulation(n, rng)
            spec = make_spec(fam, tri, rng)
            cf.spec_arrays(spec, tri)


# -- the weight table against the scalar oracles in scalar_ref -----------------

_REGIMES = [("A1", "default"), ("A1", "alpha-neg"), ("A2", "default"), ("A2", "eta-pos"),
            ("A3", "default"), ("MixedI", "default"), ("MixedI", "definite"),
            ("MixedII", "default"), ("MixedIII", "default")]
_WEIGHTS = [-6.0, -2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 5e-324, -5e-324]


def _edited(regime, seed, share):
    """(mesh, StructureSpec arguments) of a make_spec window on a small
    sphere with a share of its alphas and weights redrawn, to boundary
    values of the windows or any real weight, and perhaps one more special
    component, beside another one; on an A family the spec raises when it
    is built."""
    family, regime = regime
    rng = random.Random(seed)
    tri = sphere_triangulation(rng.randrange(4, 10), rng)
    spec = make_spec(family, tri, rng, regime=regime)
    alpha = {i: rng.choice((-1, 0, 1)) if rng.random() < share else a
             for i, a in spec.alpha.items()}
    eta = {e: (rng.choice(_WEIGHTS) if rng.random() < 0.5 else rng.uniform(-8.0, 8.0))
           if rng.random() < share else w for e, w in spec.eta.items()}
    special = set(spec.special)
    if rng.random() < share / 2:
        special.add(rng.randrange(tri.n_boundary))
    return tri, (family, alpha, eta, frozenset(special))


_edited_specs = st.builds(_edited, st.sampled_from(_REGIMES), st.integers(0, 2**32),
                          st.sampled_from([0.05, 0.15, 0.4]))


def _raised(fn, *args):
    try:
        return None, fn(*args)
    except HexcurvError as exc:
        return exc, None


def _oracle_polytope(args, tri):
    """The scalar oracle's pair bounds of the spec of args on tri, once its
    scalar validation passed: (a, b, edge id, lo, hi) per bounded edge."""
    spec = cf.StructureSpec(*args)
    scalar_ref.validate_spec(spec, tri)
    bounds = [(e, scalar_ref.edge_constraint(spec, e)) for e in tri.edges]
    return [(pb.a, pb.b, e.id, pb.lo, pb.hi) for e, pb in bounds if pb is not None]


def _assert_polytope(args, tri):
    """spec_arrays's polytope of the spec of args raises the oracle's class,
    and where neither raises, it has the oracle's pair bounds."""
    err, ref = _raised(_oracle_polytope, args, tri)
    got_err, got = _raised(lambda: cf.spec_arrays(cf.StructureSpec(*args), tri).polytope)
    assert type(got_err) is type(err), (err, got_err)
    if err is not None:
        return
    a, b, edge, lo, hi = (list(x) for x in zip(*ref)) if ref else ([],) * 5
    assert (got.a.tolist(), got.b.tolist(), got.edge.tolist()) == (a, b, edge)
    # numpy's libm and math may differ by an ulp
    for x, y in ((got.pair_lo, lo), (got.pair_hi, hi)):
        y = np.array(y, dtype=float)
        fin = np.isfinite(y)
        assert np.array_equal(x[~fin], y[~fin])
        assert np.all(np.abs(x[fin] - y[fin]) <= 2 * np.spacing(np.abs(y[fin])))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_edited_specs)
def test_polytope_matches_scalar_oracle(case):
    _assert_polytope(case[1], case[0])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_edited_specs)
def test_validate_spec_matches_scalar_oracle(case):
    tri, args = case
    err, _ = _raised(lambda: scalar_ref.validate_spec(cf.StructureSpec(*args), tri))
    got, arrays = _raised(lambda: cf.spec_arrays(cf.StructureSpec(*args), tri))
    assert type(got) is type(err), (err, got)
    if err is None:
        assert arrays.unproven == scalar_ref.unproven(arrays.spec, tri)


def test_single_face_windows_match_scalar_oracle():
    """One face, its corner 0 special in the mixed families, every alpha
    pattern, and weights from the window boundaries.  On every weight
    triple validation raises the oracle's class, and the verdict of a
    valid spec is the oracle's; with one weight varied and the others 2,
    the polytope raises the oracle's class or has its bounds.  Every row of
    RULES is read, and both error classes come from edges and from
    couplings."""
    tri, rows, raised = mesh.single_face(), set(), set()
    weights = (-2.0, -1.0, 0.0, 1.0, 2.0)
    for fam in cf.FAMILIES:
        alphas = {"A1": [(p, q, p) for p in (-1, 0, 1) for q in (-1, 0, 1)],  # every pair
                  "MixedI": itertools.product((-1, 0, 1), repeat=3),
                  "A3": [(0,) * 3], "MixedIII": [(0,) * 3]}.get(fam, [(-1,) * 3])
        special = frozenset({0} if fam.startswith("Mixed") else ())
        for alpha in alphas:
            for eta in itertools.product(weights, repeat=3):
                spec = cf.StructureSpec(fam, dict(enumerate(alpha)), dict(enumerate(eta)),
                                        special)
                err, _ = _raised(scalar_ref.validate_spec, spec, tri)
                got, _ = _raised(cf.spec_arrays, spec, tri)
                assert type(got) is type(err), (spec, err, got)
                if err is None:
                    assert cf.spec_arrays(spec, tri).unproven == scalar_ref.unproven(spec, tri)
                else:
                    raised.add((type(err), "edge" in str(got).split(":")[0]))
            for k, w in itertools.product(range(3), weights):
                args = (fam, dict(enumerate(alpha)), {e: w if e == k else 2.0 for e in range(3)},
                        special)
                _assert_polytope(args, tri)
                rows.update(cf.SpecArrays(cf.StructureSpec(*args), tri).edges.row.tolist())
    assert rows == set(range(len(cf.RULES)))
    assert raised == {(FamilyConstraint, True), (UnsupportedWeightRange, True),
                      (FamilyConstraint, False), (UnsupportedWeightRange, False)}


def test_existence_verdict_matches_scalar_oracle_on_every_window():
    rng = random.Random(12)
    verdicts = set()
    for family, regime in _REGIMES:
        for n in (4, 12, 40):
            for _ in range(3):
                tri = sphere_triangulation(n, rng)
                spec = make_spec(family, tri, rng, regime=regime)
                want = scalar_ref.unproven(spec, tri)
                assert cf.spec_arrays(spec, tri).unproven == want, (family, regime, n)
                verdicts.add(want)
    assert verdicts == {True, False}


def test_every_pair_bound_is_defined_on_the_weights_validation_admits():
    # so the polytope needs no domain of its own: on every row, at the least
    # weight above admit, at the window edges, at 1, 1e6 and ETA_LIMIT, no
    # bound is NaN
    edges = [x for w in (-1.0, 0.0, 1.0) for x in (np.nextafter(w, -np.inf), w,
                                                     np.nextafter(w, np.inf))]
    for rule in cf.RULES:
        least = np.nextafter(rule.admit, np.inf) if rule.admit > -np.inf else -cf.ETA_LIMIT
        eta = np.array([least, *edges, -0.5, 0.5, 2.0, 1e6, cf.ETA_LIMIT])
        eta = eta[eta > rule.admit]
        for bound in (rule.lo, rule.hi):
            if bound is not None:
                with np.errstate(all="ignore"):  # np.where evaluates both branches
                    assert not np.isnan(bound(eta)).any(), (rule, eta)


def test_a_failing_spec_leaves_the_kept_record():
    # spec_arrays keeps no record of a spec that fails validation: the mesh
    # keeps the record of the last valid spec, which later calls reuse
    tri = mesh.pair_of_pants()
    good = cf.StructureSpec("A3", {i: 0 for i in range(3)}, {i: 3.0 for i in range(3)})
    kept = cf.spec_arrays(good, tri)
    for bad in (cf.StructureSpec("A3", {i: 0 for i in range(3)}, {0: 3.0, 1: -1.0, 2: 3.0}),
                cf.StructureSpec("MixedIII", {i: 0 for i in range(3)},
                                 {i: 3.0 for i in range(3)}, special={1, 2}),
                cf.StructureSpec("A3", {0: 0}, {i: 3.0 for i in range(3)})):
        with pytest.raises(FamilyConstraint):
            cf.spec_arrays(bad, tri)
        assert tri.spec_memo is kept and cf.spec_arrays(good, tri) is kept


def test_parse_validates_without_spec_arrays(monkeypatch):
    """parse validates on the mesh arrays: of its spec's record it builds
    the rule inputs only, no edge program, change of variables, verdict,
    polytope or start, and no Edge or Face views; later readers of the
    record reuse those rule inputs."""
    for name in ("EdgeProgram", "ChangeOfVariables"):
        monkeypatch.setattr(cf, name, None)
    rng = random.Random(8)
    for family, regime in _REGIMES:
        tri = sphere_triangulation(12, rng)
        tri, spec = mesh.parse(mesh.serialize(tri, make_spec(family, tri, rng, regime=regime)))
        assert tri.spec_memo.spec is spec
        assert "edges" in vars(tri.spec_memo)
        assert not {"cov", "program", "unproven", "polytope", "start"} & set(vars(tri.spec_memo))
        assert "edges" not in vars(tri) and "faces" not in vars(tri)
    monkeypatch.undo()
    edges = tri.spec_memo.edges
    assert cf.spec_arrays(spec, tri).edges is edges



def _malformed_vectors(n):
    """(component vector, message part) pairs, each vector malformed for a
    mesh of n components: a missing or extra key, or a wrong shape."""
    full = {i: 0.1 for i in range(n)}
    return [
        ({i: 0.1 for i in range(n - 1)}, f"no value for component {n - 1}"),
        ({i: 0.1 for i in range(1, n)}, "no value for component 0"),
        ({**full, n: 0.1}, f"component {n} is not one of 0..{n - 1}"),
        ({**full, "x": 0.1}, f"component x is not one of 0..{n - 1}"),
        (np.full(n - 1, 0.1), f"got shape ({n - 1},)"),
        (np.full((1, n), 0.1), f"got shape (1, {n})"),
        (np.full(n + 1, 0.1), f"got shape ({n + 1},)"),
        ([0.1] * (n + 1), f"got shape ({n + 1},)"),
    ]


def test_malformed_component_vectors_are_out_of_range():
    # every entry point that reads a vector per component names what is
    # wrong with it, instead of a KeyError, an IndexError or a silent cut
    rng = random.Random(40)
    tri = sphere_triangulation(40, rng)
    spec = make_spec("A1", tri, rng)
    u0 = solver.default_initial(spec, tri)
    f0 = cf.f_from_u(spec, u0)
    target = curvature.curvature_map(spec, tri, f0)
    calls = {
        "solve target": lambda x: solver.solve_prescribed_curvature(spec, tri, x),
        "solve initial": lambda x: solver.solve_prescribed_curvature(
            spec, tri, target, solver.SolveOptions(initial=x)),
        "curvature_map": lambda x: curvature.curvature_map(spec, tri, x),
        "curvature_and_jacobian": lambda x: curvature.curvature_and_jacobian(spec, tri, x),
        "admissible": lambda x: cf.admissible(spec, tri, x),
        "energy from": lambda x: solver.energy(spec, tri, x, u0),
        "energy to": lambda x: solver.energy(spec, tri, u0, x),
    }
    for name, call in calls.items():
        for x, message in _malformed_vectors(tri.n_boundary):
            with pytest.raises(OutOfRange, match=re.escape(message)):
                call(x)
    # well-formed vectors of every kind still give the same values
    arr = np.array([f0[i] for i in range(tri.n_boundary)])
    for x in (f0, arr, arr.tolist(), tuple(arr)):
        assert curvature.curvature_map(spec, tri, x).tobytes() == target.tobytes()


_NON_REALS = ["a", "0.5", None, 1j, np.complex128(0.5), [1.0, 2.0], np.array([0.5])]


@pytest.mark.parametrize("bad", _NON_REALS, ids=repr)
def test_non_real_component_values_are_a_domain_violation(bad):
    # a string, even one of a number, None, a complex or a sequence is no
    # component value: every entry that reads a vector per component names
    # it, instead of a raw TypeError or ValueError, or a silent NaN
    tri = mesh.pair_of_pants()
    spec = cf.StructureSpec("A3", {i: 0 for i in range(3)}, {i: 3.0 for i in range(3)})
    u0 = solver.default_initial(spec, tri)
    target = curvature.curvature_map(spec, tri, cf.f_from_u(spec, u0))
    calls = {
        "f_from_u": lambda x: cf.f_from_u(spec, x),
        "u_from_f": lambda x: cf.u_from_f(spec, x),
        "curvature_map": lambda x: curvature.curvature_map(spec, tri, x),
        "curvature_and_jacobian": lambda x: curvature.curvature_and_jacobian(spec, tri, x),
        "admissible": lambda x: cf.admissible(spec, tri, x),
        "solve target": lambda x: solver.solve_prescribed_curvature(spec, tri, x),
        "solve initial": lambda x: solver.solve_prescribed_curvature(
            spec, tri, target, solver.SolveOptions(initial=x)),
        "energy": lambda x: solver.energy(spec, tri, u0, x),
    }
    column = np.empty(3, dtype=object)
    column[:] = [-0.5, bad, -0.5]
    vectors = [{0: -0.5, 1: bad, 2: -0.5}, [-0.5, bad, -0.5], column]
    for name, call in calls.items():
        for x in vectors:
            with pytest.raises(DomainViolation, match=f"^component 1={re.escape(repr(bad))} "
                                                      "is not a real number$"):
                call(x)


def test_real_component_values_are_read_without_a_walk(monkeypatch):
    # a float array, a Weights of reals and a dict of reals are read by one
    # array pass each; only a vector that holds no array of reals is walked
    rng = random.Random(40)
    tri = sphere_triangulation(40, rng)
    spec = make_spec("A1", tri, rng)
    f0 = cf.f_from_u(spec, solver.default_initial(spec, tri))
    want = curvature.curvature_map(spec, tri, f0)
    monkeypatch.setattr(cf, "_is_real", None)
    for x in (f0, f0.data, dict(f0), list(f0.values())):
        assert curvature.curvature_map(spec, tri, x).tobytes() == want.tobytes()
    assert cf.u_from_f(spec, dict(f0)) == cf.u_from_f(spec, f0)


def test_admissible_far_out_on_an_unbounded_chart_warns_nothing():
    # A1 at alpha 0 charts the whole line, so both ends of a pair bound may
    # sit at +-1e308, where u_a + u_b overflows: the verdict holds, silently
    tri = mesh.pair_of_pants()
    spec = cf.StructureSpec("A1", {i: 0 for i in range(3)}, {i: 3.0 for i in range(3)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cf.admissible(spec, tri, [1e308, 1e308, 0.0]).violations == ["edge 0"]
        assert cf.admissible(spec, tri, [-1e308, -1e308, 0.0]).violations == [
            "edge 0", "edge 1", "edge 2"]


def test_structure_spec_is_a_value():
    # the spec copies its weights: a later change to the caller's dicts
    # reaches neither the spec nor the arrays derived from it
    tri = mesh.pair_of_pants()
    alpha, eta, special = {i: 0 for i in range(3)}, {i: 2.0 for i in range(3)}, set()
    spec = cf.StructureSpec("A3", alpha, eta, special=special)
    f = np.array([0.3, 0.2, 0.1])
    before = curvature.curvature_map(spec, tri, f)
    eta[0], alpha[1] = -5.0, 7  # weights that fail validation
    special.add(0)
    del eta[2]
    for fresh in (tri, mesh.pair_of_pants()):  # kept arrays, and arrays built anew
        assert curvature.curvature_map(spec, fresh, f).tobytes() == before.tobytes()
    assert dict(spec.eta) == {i: 2.0 for i in range(3)} and spec.alpha[1] == 0
    assert spec.special == frozenset() and isinstance(spec.special, frozenset)
    cf.spec_arrays(spec, tri)
    with pytest.raises(TypeError):
        spec.eta[0] = 1.0
    with pytest.raises(TypeError):
        spec.alpha[0] = 1
    # a spec made from the changed dicts reads the changed weights
    with pytest.raises(FamilyConstraint, match="alpha\\[1\\]=7"):
        cf.StructureSpec("A3", alpha, eta)
    alpha[1] = 0
    with pytest.raises(FamilyConstraint, match="weight must be positive"):
        cf.spec_arrays(cf.StructureSpec("A3", alpha, {**eta, 2: 2.0}), tri)
    assert spec == cf.StructureSpec("A3", {i: 0 for i in range(3)}, {i: 2.0 for i in range(3)})
    for twin in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec), copy.copy(spec)):
        assert twin == spec and isinstance(twin.eta, type(spec.eta))
    # a parsed spec holds its weights in read-only arrays and is the same value
    # as a spec built from plain dicts of them
    rng = random.Random(4)
    tri = sphere_triangulation(30, rng)
    tri, spec = mesh.parse(mesh.serialize(tri, make_spec("MixedI", tri, rng)))
    # neither parse nor a solve reads the weights through a dict
    arrays = cf.spec_arrays(spec, tri)
    target = curvature.curvature_map(spec, tri, arrays.cov.to_f(arrays.start))
    solver.solve_prescribed_curvature(spec, tri, 1.01 * target)
    assert "_items" not in vars(spec.alpha) and "_items" not in vars(spec.eta)
    plain = cf.StructureSpec(spec.family, dict(spec.alpha), dict(spec.eta), set(spec.special))
    for weights in (spec.alpha, spec.eta):
        assert type(weights) is cf.Weights
        for x in (weights.ids, weights.data):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 0
    assert spec == plain and plain == spec and spec.alpha == dict(plain.alpha)
    for twin in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec), copy.copy(spec)):
        assert twin == spec and type(twin) is type(spec)
        assert type(twin.alpha) is type(twin.eta) is cf.Weights
        assert not (twin.eta.data.flags.writeable or twin.alpha.ids.flags.writeable)


def test_structure_spec_items_are_python_numbers():
    # whatever number types the caller gave; an alpha True or 1.0 reads as 1
    spec = cf.StructureSpec("A1", {0: True, 1: 1.0, 2: np.int8(-1), 3: 0.0},
                            {0: 2, 1: np.float32(0.5), 2: True})
    assert spec.alpha == {0: 1, 1: 1, 2: -1, 3: 0} and spec.eta == {0: 2.0, 1: 0.5, 2: 1.0}
    for weights, kind in ((spec.alpha, int), (spec.eta, float)):
        assert all(type(k) is int for k in weights)
        assert all(type(x) is kind for x in weights.values())
    pants = cf.StructureSpec("A1", {0: 0, 1: 1, 2: 0}, {0: 2.5, 1: 3.0, 2: 1.5})
    tri, parsed = mesh.parse(mesh.serialize(mesh.pair_of_pants(), pants))
    assert all(type(x) is int for x in parsed.alpha.values())
    assert all(type(x) is float for x in parsed.eta.values())
    assert list(parsed.alpha.items()) == [(0, 0), (1, 1), (2, 0)]


def test_structure_spec_hashes_as_the_value_it_equals():
    # a parsed spec and its twin from plain dicts find each other in a set
    # and as a dict key; an int weight hashes as the float of the same number
    rng = random.Random(4)
    tri = sphere_triangulation(30, rng)
    spec = mesh.parse(mesh.serialize(tri, make_spec("MixedI", tri, rng)))[1]
    plain = cf.StructureSpec(spec.family, dict(spec.alpha), dict(spec.eta), set(spec.special))
    assert spec == plain and hash(spec) == hash(plain)
    assert plain in {spec} and spec in {plain}
    assert {spec: 1}[plain] == 1 and {plain: 2}[spec] == 2
    ints, floats = cf.Weights([0, 1], [1, 0]), cf.Weights([1, 0], [0.0, 1.0])
    assert ints == floats and hash(ints) == hash(floats)
    other = cf.StructureSpec(spec.family, dict(spec.alpha), {**spec.eta, 0: spec.eta[0] + 1.0},
                             set(spec.special))
    assert other not in {spec}


@pytest.mark.parametrize("alpha, eta, message", [
    ({0: 0, 1: 2, 2: -2}, {}, "alpha[1]=2 outside {-1,0,1}"),
    ({0: 1.0, 1: True, 2: 0.5}, {}, "alpha[2]=0.5 outside {-1,0,1}"),
    ({0: 0, 1: [1], 2: 2}, {}, "alpha[1]=[1] outside {-1,0,1}"),  # unhashable
    ({0: 0}, {3: 1.0, 4: math.inf, 5: math.nan}, "eta[4]=inf is not finite"),
    # beyond ETA_LIMIT cosh l overflows the cosine law's products
    ({0: 0}, cf.Weights([3, 4, 5], [1.0, 1e200, math.nan]),
     "eta[4]=1e+200 has |eta| > 5.15e+19"),
    ({0: 0}, {3: -1e20, 4: math.inf}, "eta[3]=-1e+20 has |eta| > 5.15e+19"),
    ({0: 0}, {3: 10**400}, f"eta[3]={10**400} has |eta| > 5.15e+19"),
    ({0: 0}, {3: 1.0, 4: "x", 5: math.inf}, "eta[4]='x' is not a real number"),
    ({0: 0}, {3: None}, "eta[3]=None is not a real number"),
    ({0: 0}, {3: 1j}, "eta[3]=1j is not a real number"),
    ({0: 0}, {3: [1.0]}, "eta[3]=[1.0] is not a real number"),
    ({0: 0, 0.5: 0}, {}, "alpha keys must be integers"),
    ({"0": 0}, {}, "alpha keys must be integers"),
    ({0: 0}, {1.0: 2.0}, "eta keys must be integers"),
    ({0: 0}, {10**30: 2.0}, "eta keys must be integers"),  # beyond every array index
])
def test_structure_spec_names_its_first_bad_weight(alpha, eta, message):
    with pytest.raises(FamilyConstraint, match=f"^{re.escape(message)}$"):
        cf.StructureSpec("A1", alpha, eta)


def test_unknown_family_is_a_family_constraint():
    with pytest.raises(FamilyConstraint, match="^unknown family 'B7'$"):
        cf.StructureSpec("B7", {0: 0}, {0: 1.0})


def test_a_repeated_weights_key_is_a_value_error():
    with pytest.raises(ValueError, match="^a key is repeated$"):
        cf.Weights([0, 2, 0], [1.0, 2.0, 3.0])


def test_fraction_and_decimal_weights_and_values_read_as_their_floats():
    # a Fraction or Decimal is a real number with no array dtype: the
    # weights and the component values holding them are walked, and read as
    # the floats of the same numbers
    tri = mesh.pair_of_pants()
    exact = cf.StructureSpec("A1", {0: Fraction(1), 1: Decimal(0), 2: Fraction(0)},
                             {0: Fraction(5, 2), 1: Decimal("3.0"), 2: Decimal("2.25")})
    spec = cf.StructureSpec("A1", {0: 1, 1: 0, 2: 0}, {0: 2.5, 1: 3.0, 2: 2.25})
    assert exact == spec
    assert exact.alpha.data.tobytes() == spec.alpha.data.tobytes()
    assert exact.eta.data.tobytes() == spec.eta.data.tobytes()
    values = [Fraction(3, 10), Decimal("0.2"), Fraction(1, 10)]
    want = curvature.curvature_map(spec, tri, [0.3, 0.2, 0.1])
    for x in (values, dict(enumerate(values))):
        assert curvature.curvature_map(exact, tri, x).tobytes() == want.tobytes()
    floats = {0: 0.3, 1: 0.2, 2: 0.1}
    assert cf.u_from_f(exact, dict(enumerate(values))) == cf.u_from_f(spec, floats)


def test_the_largest_weight_evaluates_at_the_largest_factors():
    # cosh l = ETA_LIMIT e^300 + 1 = 1e150, and the cosine law's products stay finite
    tri, f = mesh.pair_of_pants(), [150.0, 150.0, -150.0]
    spec = cf.StructureSpec("A1", {i: 0 for i in range(3)}, {0: cf.ETA_LIMIT, 1: 3.0, 2: 3.0})
    K, J = curvature.curvature_and_jacobian(spec, tri, f)
    assert curvature.curvature_and_arcs(spec, tri, f)[1].ch.max() == pytest.approx(1e150)
    assert np.isfinite(K).all() and np.isfinite(J.data).all()
    above = np.nextafter(cf.ETA_LIMIT, math.inf)
    message = f"eta[0]={above} has |eta| > 5.15e+19"
    with pytest.raises(FamilyConstraint, match=f"^{re.escape(message)}$"):
        cf.StructureSpec("A1", {}, {0: above})


# every entry that reads a spec against the pair of pants
_ENTRIES = {
    "spec_arrays": cf.spec_arrays,
    "admissible": lambda spec, tri: cf.admissible(spec, tri, [-1.0] * 3),
    "curvature_map": lambda spec, tri: curvature.curvature_map(spec, tri, [0.3, 0.2, 0.1]),
    "solve_prescribed_curvature": lambda spec, tri: solver.solve_prescribed_curvature(
        spec, tri, {i: 1.0 for i in range(3)}),
    "serialize": lambda spec, tri: mesh.serialize(tri, spec),
}


@pytest.mark.parametrize("entry", list(_ENTRIES))
@pytest.mark.parametrize("alpha", [{0: 0, 1: 0, 2: 0}, {0: 0, 1: 0, 2: 0, 7: 0}],
                         ids=["no-alpha-7", "alpha-7"])
def test_a_special_component_off_the_mesh_is_rejected(entry, alpha):
    # with or without an alpha of its own, component 7 is none of the mesh's
    tri = mesh.pair_of_pants()
    spec = cf.StructureSpec("MixedIII", alpha, {0: 2.0, 1: 3.0, 2: 1.5},
                            special=frozenset({7}))
    with pytest.raises(FamilyConstraint, match="^special component 7 is not a vertex$"):
        _ENTRIES[entry](spec, tri)
    assert tri.spec_memo is None


@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_missing_weights_are_a_family_constraint(entry):
    tri = mesh.pair_of_pants()
    alpha, eta = {i: 0 for i in range(3)}, {i: 2.0 for i in range(3)}
    for weights, message in (
            (({0: 0}, {}), "no alpha for boundary component 1"),
            (({0: 0, 2: 0}, eta), "no alpha for boundary component 1"),
            ((alpha, {1: 2.0}), "no eta for edge 0"),
            ((alpha, {0: 2.0, 2: 2.0, 7: 2.0}), "no eta for edge 1")):
        with pytest.raises(FamilyConstraint, match=f"^{message}$"):
            _ENTRIES[entry](cf.StructureSpec("A1", *weights), tri)
