import math
import random

import pytest

from hexcurv import conformal as cf
from hexcurv import mesh
from hexcurv.errors import (
    DomainViolation,
    FamilyConstraint,
    NotAdmissible,
    UnsupportedWeightRange,
)
from hexcurv.mesh import Edge

from helpers import ALL_FAMILIES, make_spec, sample_admissible_u, sphere_triangulation


def spec1(family, alphas, etas, special=()):
    return cf.StructureSpec(family, alphas, etas, special=frozenset(special))


E01 = Edge(0, 0, 1)


def test_edge_length_a1_plain():
    spec = spec1("A1", {0: 0, 1: 0}, {0: 3.0})
    f = {0: 0.0, 1: 0.0}
    assert cf.cosh_edge_length(spec, E01, f) == pytest.approx(2.0, abs=1e-15)
    assert cf.edge_length(spec, E01, f) == pytest.approx(math.acosh(2.0), abs=1e-15)


def test_edge_length_a2_example():
    spec = spec1("A2", {0: -1, 1: -1}, {0: -0.25})
    f = {0: math.log(2.0), 1: math.log(2.0)}
    assert cf.cosh_edge_length(spec, E01, f) == pytest.approx(2.0, abs=1e-12)
    # admissibility cross-check in u: cos(u0+u1) > -eta
    u = cf.u_from_f(spec, f)
    assert u[0] == pytest.approx(-math.pi / 6.0, abs=1e-12)
    assert math.cos(u[0] + u[1]) == pytest.approx(0.5, abs=1e-12)
    assert math.cos(u[0] + u[1]) > 0.25


def test_edge_length_boundary_rejected():
    spec = spec1("A1", {0: 0, 1: 0}, {0: 2.0})
    with pytest.raises(NotAdmissible):
        cf.edge_length(spec, E01, {0: 0.0, 1: 0.0})


def test_partial_ratio_symmetry_and_a3():
    spec = spec1("A1", {0: 1, 1: 1}, {0: 3.0})
    assert cf.partial_ratio(spec, E01, {0: 0.3, 1: 0.3}) == pytest.approx(1.0)
    spec3 = spec1("A3", {0: 0, 1: 0}, {0: 3.0})
    assert cf.partial_ratio(spec3, E01, {0: 1.0, 1: 0.0}) == pytest.approx(
        math.e, abs=1e-12
    )


def test_partial_ratio_mixed_negative():
    spec = spec1("MixedIII", {0: 0, 1: 0}, {0: -4.0}, special=(0,))
    rho = cf.partial_ratio(spec, E01, {0: 1.0, 1: 0.0})
    assert rho == pytest.approx(-math.e, abs=1e-12)
    # reversed orientation gives the reciprocal
    e10 = Edge(0, 1, 0)
    assert cf.partial_ratio(spec, e10, {0: 1.0, 1: 0.0}) == pytest.approx(
        -1.0 / math.e, abs=1e-12
    )


def test_u_change_examples():
    spec3 = spec1("A3", {0: 0}, {})
    assert cf.u_of_f(spec3, 0, 0.0) == pytest.approx(-1.0, abs=1e-15)
    spec1p = spec1("A1", {0: 1}, {})
    u = -math.asinh(1.0)
    assert cf.f_of_u(spec1p, 0, u) == pytest.approx(0.0, abs=1e-14)
    spec2 = spec1("A2", {0: -1}, {})
    assert cf.f_of_u(spec2, 0, -math.pi / 6.0) == pytest.approx(
        math.log(2.0), abs=1e-14
    )


def test_u_roundtrip_all_families():
    rng = random.Random(0)
    tri = mesh.single_face()
    for fam in ALL_FAMILIES:
        spec = make_spec(fam, tri, rng)
        for _ in range(10000):
            i = rng.randrange(3)
            ch = cf.chart(spec, i)
            lo = ch.lo if math.isfinite(ch.lo) else -4.0
            hi = ch.hi if math.isfinite(ch.hi) else 4.0
            pad = 1e-3 * (hi - lo)
            ui = rng.uniform(lo + pad, hi - pad)
            fi = cf.f_of_u(spec, i, ui)
            assert abs(cf.u_of_f(spec, i, fi) - ui) < 1e-12 * max(1.0, abs(ui))


def test_dfdu_examples_and_fd():
    spec3 = spec1("A3", {0: 0}, {})
    assert cf.dfdu(spec3, 0, {0: 0.0}) == pytest.approx(1.0)
    specm = spec1("MixedIII", {0: 0}, {}, special=(0,))
    assert cf.dfdu(specm, 0, {0: 0.0}) == pytest.approx(-1.0)
    spec1p = spec1("A1", {0: 1}, {})
    assert cf.dfdu(spec1p, 0, {0: 0.0}) == pytest.approx(math.sqrt(2.0))

    rng = random.Random(1)
    tri = mesh.single_face()
    for fam in ALL_FAMILIES:
        spec = make_spec(fam, tri, rng)
        for u in sample_admissible_u(spec, tri, rng, 30):
            f = cf.f_from_u(spec, u)
            for i in range(3):
                h = 1e-7
                up, um = dict(u), dict(u)
                up[i] += h
                um[i] -= h
                if not (cf.chart(spec, i).contains(up[i]) and cf.chart(spec, i).contains(um[i])):
                    continue
                num = (cf.f_of_u(spec, i, up[i]) - cf.f_of_u(spec, i, um[i])) / (2 * h)
                assert cf.dfdu(spec, i, f) == pytest.approx(num, rel=1e-7, abs=1e-7)


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
    for _ in range(2):  # the mesh keeps the polytope of the last spec only
        assert cf.admissible(loose, tri, u).ok
        res = cf.admissible(tight, tri, u)
        assert not res.ok and res.violations == ["edge 0", "edge 1", "edge 2"]
        res = cf.admissible(a3, tri, {0: 1.0, 1: -1.0, 2: 1.0})
        assert not res.ok and res.violations == ["chart of u[0]", "chart of u[2]"]
    # B-edges at a special alpha=0 component bound u_a + u_b from above
    mixed = cf.StructureSpec("MixedI", {0: 0, 1: -1, 2: -1}, {0: 2.0, 1: 3.0, 2: 2.0},
                             special=frozenset({0}))
    assert cf.admissible(mixed, tri, {0: 1.0, 1: -0.5, 2: -0.5}).ok
    res = cf.admissible(mixed, tri, {0: 1.0, 1: -0.2, 2: -0.5})
    assert not res.ok and res.violations == ["edge 0"]


def test_admissible_matches_edge_lengths():
    # membership agrees with per-edge positivity everywhere sampled
    rng = random.Random(2)
    tri = mesh.single_face()
    for fam in ALL_FAMILIES:
        spec = make_spec(fam, tri, rng)
        hits = 0
        for _ in range(800):
            u0 = sample_admissible_u(spec, tri, rng, 1)[0]
            u = {i: u0[i] + rng.uniform(-1.5, 1.5) for i in u0}
            if not all(cf.chart(spec, i).contains(u[i]) for i in u):
                continue
            f = cf.f_from_u(spec, u)
            ok_lengths = True
            try:
                for e in tri.edges:
                    cf.edge_length(spec, e, f)
            except NotAdmissible:
                ok_lengths = False
            ok_member = cf.admissible(spec, tri, u).ok
            if fam == "MixedII":
                # the sine constraint at weight 1 has a second, non-convex
                # length-positive component; membership keeps the convex one
                assert not ok_member or ok_lengths
            else:
                assert ok_member == ok_lengths
            hits += 1
        assert hits > 100


def test_length_factor_derivative_is_coth_split():
    # d l / d f_a equals coth d_ab read off the split, on-geodesic case
    rng = random.Random(3)
    tri = mesh.single_face()
    for fam in ("A1", "A2", "A3", "MixedIII"):
        spec = make_spec(fam, tri, rng)
        from hexcurv import solver

        for u in sample_admissible_u(spec, tri, rng, 40):
            f = cf.f_from_u(spec, u)
            for e in tri.edges:
                l = cf.edge_length(spec, e, f)
                rho = cf.partial_ratio(spec, e, f)
                num, den = rho * math.sinh(l), 1.0 + rho * math.cosh(l)
                h = 1e-6
                fp, fm = dict(f), dict(f)
                fp[e.a] += h
                fm[e.a] -= h
                fd = (cf.edge_length(spec, e, fp) - cf.edge_length(spec, e, fm)) / (2 * h)
                if abs(num) < abs(den):
                    from hexcurv.hexagon import split_edge

                    d = split_edge(l, rho)
                    assert fd == pytest.approx(1.0 / math.tanh(d.d_ab), rel=1e-6)
                else:
                    x = math.atanh(den / num)
                    assert fd == pytest.approx(math.tanh(x), rel=1e-6)


def test_family_constraint_validation():
    tri = mesh.pair_of_pants()
    with pytest.raises(FamilyConstraint):
        cf.validate_spec(
            cf.StructureSpec("A1", {0: 0, 1: 0, 2: 0}, {0: -1.0, 1: 3.0, 2: 3.0}),
            tri,
        )
    with pytest.raises(FamilyConstraint):
        cf.validate_spec(
            cf.StructureSpec("A1", {0: 1, 1: 1, 2: 0}, {0: 0.5, 1: 3.0, 2: 3.0}),
            tri,
        )
    # two special components always share a face on the pair of pants
    with pytest.raises(FamilyConstraint):
        cf.validate_spec(
            cf.StructureSpec(
                "MixedIII", {0: 0, 1: 0, 2: 0}, {0: 3.0, 1: 3.0, 2: 3.0},
                special=frozenset({0, 2}),
            ),
            tri,
        )
    with pytest.raises(FamilyConstraint):
        cf.StructureSpec("A1", {0: 2}, {})


def test_mixed1_unsupported_windows():
    tri = mesh.pair_of_pants()
    # special component 0 with alpha 1 and a negative weight on its edge
    spec = cf.StructureSpec(
        "MixedI", {0: 1, 1: 0, 2: 0}, {0: -0.5, 1: 3.0, 2: 1.0},
        special=frozenset({0}),
    )
    with pytest.raises(UnsupportedWeightRange):
        cf.validate_spec(spec, tri)


def test_mixed2_weight_floor():
    tri = mesh.pair_of_pants()
    spec = cf.StructureSpec(
        "MixedII", {i: -1 for i in range(3)}, {0: 0.5, 1: 1.0, 2: 1.0},
        special=frozenset({0}),
    )
    with pytest.raises(FamilyConstraint):
        cf.validate_spec(spec, tri)


def test_all_make_spec_windows_validate():
    rng = random.Random(4)
    for fam in ALL_FAMILIES:
        for n in (4, 12):
            tri = sphere_triangulation(n, rng)
            spec = make_spec(fam, tri, rng)
            cf.validate_spec(spec, tri)
