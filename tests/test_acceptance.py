"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import time

import numpy as np
import pytest

from hexcurv import curvature, hexagon as hx, mesh, solver
from hexcurv.conformal import (
    StructureSpec,
    admissible,
    chart,
    edge_constraint,
    f_from_u,
    u_from_f,
)
from hexcurv.errors import HexcurvError
from hexcurv.identities import (
    compatibility_residual_general,
    sample_face_points,
    sign_coherence_ok,
    space_like_residual,
    split_values,
    stock_spec,
    time_like_residual,
)
from hexcurv.lorentz import CausalClass, minkowski_dot

from helpers import ALL_FAMILIES, make_spec, sample_admissible_f, sphere_triangulation

ACOSH2 = math.acosh(2.0)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_regular_hexagon_fixed_point():
    lens = hx.HexLengths(ACOSH2, ACOSH2, ACOSH2)
    best = math.inf
    for _ in range(200):
        t0 = time.perf_counter()
        angles = hx.angles_from_lengths(lens)
        best = min(best, time.perf_counter() - t0)
    worst = max(abs(th - ACOSH2) for th in angles.as_tuple())
    assert worst < 1e-12
    assert best < 1e-3
    report(1, f"|theta - l| = {worst:.2e}, runtime {best * 1e6:.1f} us")


def test_criterion_02_compatibility_all_families():
    rng = random.Random(20)
    tri = mesh.single_face()
    worst = 0.0
    for fam in ALL_FAMILIES:
        spec = stock_spec(fam)
        pts = sample_face_points(spec, tri, rng, 1000)
        assert len(pts) == 1000, fam
        for u in pts:
            f = f_from_u(spec, u)
            resid = compatibility_residual_general(split_values(spec, tri, tri.faces[0], f))
            assert resid < 1e-10, fam
            worst = max(worst, resid)
    report(2, f"worst split-product residual {worst:.2e} over 1000 faces x 6 families")


def _fd_matrix(spec, tri, face, f, step=1e-6):
    out = np.zeros((3, 3))
    for col, v in enumerate(face.vertices):
        fp, fm = dict(f), dict(f)
        fp[v] += step
        fm[v] -= step
        tp = curvature.face_angles(spec, tri, face, fp)
        tm = curvature.face_angles(spec, tri, face, fm)
        for row in range(3):
            out[row, col] = (tp[row] - tm[row]) / (2 * step)
    return out


def _rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(1e-8, np.maximum(np.abs(a), np.abs(b))))


def test_criterion_03_angle_variation_vs_fd_per_branch():
    rng = random.Random(3)
    tri = mesh.single_face()
    face = tri.faces[0]
    want = 300
    buckets = {"time-like": [], "space-like": []}
    tries = 0
    while min(map(len, buckets.values())) < want and tries < 80000:
        tries += 1
        spec = stock_spec(rng.choice(ALL_FAMILIES))
        pts = sample_face_points(spec, tri, rng, 1, scale=1.2)
        if not pts:
            continue
        f = f_from_u(spec, pts[0])
        try:
            fd = curvature.face_derivatives(spec, tri, face, f)
        except HexcurvError:
            continue
        if fd.branch in buckets and len(buckets[fd.branch]) < want:
            buckets[fd.branch].append((spec, f, fd))
    worst = {}
    for name, bucket in buckets.items():
        assert len(bucket) == want, name
        w = 0.0
        for spec, f, fd in bucket:
            w = max(w, _rel_err(fd.dtheta_df, _fd_matrix(spec, tri, face, f)))
        assert w < 1e-5, name
        worst[name] = w

    # light-like branch by bisecting sign changes of the causal value
    light = []
    tries = 0
    while len(light) < want and tries < 20000:
        tries += 1
        spec = stock_spec(rng.choice(("A1", "A2", "MixedII", "MixedIII")))
        pts = sample_face_points(spec, tri, rng, 2, scale=1.2)
        if len(pts) < 2:
            continue
        f0, f1 = (f_from_u(spec, p) for p in pts)
        try:
            s0 = curvature.face_derivatives(spec, tri, face, f0).sigma
            s1 = curvature.face_derivatives(spec, tri, face, f1).sigma
        except HexcurvError:
            continue
        if s0 * s1 >= 0.0:
            continue
        lo, hi = 0.0, 1.0
        fm = f0
        for _ in range(70):
            mid = 0.5 * (lo + hi)
            fm = {i: f0[i] + mid * (f1[i] - f0[i]) for i in f0}
            try:
                sm = curvature.face_derivatives(spec, tri, face, fm).sigma
            except HexcurvError:
                break
            if abs(sm) <= 1e-12:
                break
            if (sm > 0) == (s1 > 0):
                hi = mid
            else:
                lo = mid
        try:
            fd = curvature.face_derivatives(spec, tri, face, fm)
        except HexcurvError:
            continue
        if fd.branch == "light-like":
            light.append((spec, fm, fd))
    assert len(light) == want
    w = 0.0
    for spec, f, fd in light:
        w = max(w, _rel_err(fd.dtheta_df, _fd_matrix(spec, tri, face, f)))
    assert w < 1e-3
    worst["light-like"] = w
    report(3, "rel err vs central differences: "
              + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def test_criterion_04_two_term_cosh_diagonal_identity():
    from hexcurv.identities import _edge_coshes

    rng = random.Random(4)
    tri = mesh.single_face()
    worst = 0.0
    for fam in ALL_FAMILIES:
        spec = stock_spec(fam)
        for u in sample_face_points(spec, tri, rng, 150):
            f = f_from_u(spec, u)
            mc = curvature.dtheta_df_chain(spec, tri, tri.faces[0], f)
            ch = _edge_coshes(spec, tri, tri.faces[0], f)
            worst = max(
                worst,
                abs(mc[0, 0] - (ch[0] * mc[1, 0] + ch[2] * mc[2, 0])),
                abs(mc[1, 1] - (ch[0] * mc[0, 1] + ch[1] * mc[2, 1])),
                abs(mc[2, 2] - (ch[2] * mc[0, 2] + ch[1] * mc[1, 2])),
            )
    assert worst < 1e-10
    report(4, f"worst diagonal identity residual {worst:.2e}")


def test_criterion_05_jacobian_symmetry():
    rng = random.Random(5)
    tri = mesh.single_face()
    worst_face = 0.0
    for fam in ALL_FAMILIES:
        spec = stock_spec(fam)
        for u in sample_face_points(spec, tri, rng, 200):
            jac = curvature.face_jacobian_u(spec, tri, tri.faces[0], f_from_u(spec, u))
            worst_face = max(worst_face, float(np.max(np.abs(jac - jac.T))))
    assert worst_face < 1e-12
    worst_global = 0.0
    for fam in ALL_FAMILIES:
        tri_m = sphere_triangulation(20, rng)
        spec = make_spec(fam, tri_m, rng)
        for f in sample_admissible_f(spec, tri_m, rng, 5, scale=0.5):
            lam = curvature.curvature_and_jacobian(spec, tri_m, f)[1].toarray()
            worst_global = max(worst_global, float(np.max(np.abs(lam - lam.T))))
    assert worst_global < 1e-11
    report(5, f"asymmetry: face {worst_face:.2e}, assembled {worst_global:.2e}")


def _near_boundary_point(spec, tri, u, rng, slack=1e-4):
    bounds = [b for b in (edge_constraint(spec, e) for e in tri.edges) if b]
    if not bounds:
        return None
    pb = rng.choice(bounds)
    s = u[pb.a] + u[pb.b]
    if math.isfinite(pb.lo):
        delta = (pb.lo + slack) - s
    elif math.isfinite(pb.hi):
        delta = (pb.hi - slack) - s
    else:
        return None
    v = dict(u)
    v[pb.a] += delta / 2.0
    if pb.b != pb.a:
        v[pb.b] += delta / 2.0
    if not all(chart(spec, i).contains(v[i]) for i in v):
        return None
    if not admissible(spec, tri, v).ok:
        return None
    return v


def test_criterion_06_negative_definiteness():
    rng = random.Random(6)
    tri = mesh.single_face()
    counts = {}
    for fam in ALL_FAMILIES:
        spec = stock_spec(fam)
        pts = sample_face_points(spec, tri, rng, 1000)
        assert len(pts) == 1000, fam
        near = 0
        for k, u in enumerate(pts):
            if k % 5 == 0:
                v = _near_boundary_point(spec, tri, u, rng)
                if v is not None:
                    u = v
                    near += 1
            jac = curvature.face_jacobian_u(spec, tri, tri.faces[0], f_from_u(spec, u))
            assert curvature.is_negative_definite(jac), fam
        counts[fam] = near
        tri_m = sphere_triangulation(16, rng)
        spec_m = make_spec(fam, tri_m, rng,
                           regime="definite" if fam == "MixedI" else "default")
        for f in sample_admissible_f(spec_m, tri_m, rng, 3, scale=0.5):
            lam = curvature.curvature_and_jacobian(spec_m, tri_m, f)[1].toarray()
            assert curvature.is_negative_definite(lam), fam
    report(6, "1000 face samples per family all negative definite "
              f"(near-boundary counts {counts})")


def test_criterion_07_rigidity_roundtrip():
    rng = random.Random(7)
    worst = 0.0
    slowest = 0.0
    for fam in ALL_FAMILIES:
        meshes = [mesh.pair_of_pants(),
                  sphere_triangulation(10, rng),
                  sphere_triangulation(30, rng)]
        for tri in meshes:
            spec = make_spec(fam, tri, rng)
            for f0 in sample_admissible_f(spec, tri, rng, 2, scale=0.6):
                K0 = curvature.curvature_map(spec, tri, f0)
                t0 = time.perf_counter()
                f, rep = solver.solve_prescribed_curvature(
                    spec, tri, {i: K0[i] for i in range(tri.n_boundary)}
                )
                dt = time.perf_counter() - t0
                slowest = max(slowest, dt)
                assert dt < 1.0
                assert rep.converged
                err = max(abs(f[i] - f0[i]) for i in f0)
                assert err < 1e-8, (fam, tri.n_boundary, err)
                worst = max(worst, err)
    report(7, f"worst factor recovery {worst:.2e}, slowest solve {slowest * 1e3:.0f} ms")


def test_criterion_08_existence_desk_test():
    rng = random.Random(8)
    t_suite = time.perf_counter()
    worst_iters = 0
    for fam in ("A1", "A2", "A3", "MixedIII", "MixedI"):
        for n in (20, 50):
            tri = sphere_triangulation(n, rng)
            spec = make_spec(fam, tri, rng)
            for _ in range(3):
                tgt = {i: rng.uniform(0.5, 5.0) for i in range(tri.n_boundary)}
                f, rep = solver.solve_prescribed_curvature(
                    spec, tri, tgt, solver.SolveOptions(max_iter=40)
                )
                assert rep.converged
                assert rep.iterations <= 40
                worst_iters = max(worst_iters, rep.iterations)
    dt = time.perf_counter() - t_suite
    assert dt < 30.0
    report(8, f"targets in [0.5,5]^N solved, worst {worst_iters} iterations, "
              f"suite {dt:.1f} s")


def _random_geometry(rng):
    lens = hx.HexLengths(*(rng.uniform(0.3, 2.5) for _ in range(3)))
    e = [math.exp(-l) for l in lens.as_tuple()]
    kind = rng.randrange(4)
    if kind == 0:
        r1, r2 = rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)
    elif kind == 1:
        r1 = -rng.uniform(0.05, 0.95) * e[0]
        r2 = rng.uniform(0.1, 10.0)
    elif kind == 2:
        r1 = rng.uniform(0.1, 10.0)
        r2 = -rng.uniform(0.05, 0.95) * e[1]
    else:
        r1 = -rng.uniform(0.05, 0.95) * e[0]
        r2 = -rng.uniform(0.05, 0.95) * e[1]
    splits = hx.splits_from_ratios(lens, (r1, r2, 1.0 / (r1 * r2)))
    return hx.build_hexagon(lens, splits)


def test_criterion_09_center_distance_identity_suite():
    rng = random.Random(9)
    want = 500
    counts = {"time": 0, "space": 0}
    worst = {"time": 0.0, "space": 0.0}
    tries = 0
    while min(counts.values()) < want and tries < 300000:
        tries += 1
        try:
            g = _random_geometry(rng)
        except HexcurvError:
            continue
        assert sign_coherence_ok(g)
        # classification is total and reproduces the observed signs
        from hexcurv.hexagon import _DOMAIN_SIGNS, _SPACE_LABEL

        if g.center_class is not CausalClass.LIGHT_LIKE:
            label = g.domain
            base = label if label in _DOMAIN_SIGNS else next(
                k for k, v in _SPACE_LABEL.items() if v == label
            )
            col = _DOMAIN_SIGNS[base]
            for val, sign in zip(tuple(g.h) + tuple(g.q), col):
                assert val * sign > -1e-9
        if g.center_class is CausalClass.TIME_LIKE and counts["time"] < want:
            counts["time"] += 1
            worst["time"] = max(worst["time"], time_like_residual(g))
        elif g.center_class is CausalClass.SPACE_LIKE and counts["space"] < want:
            counts["space"] += 1
            tag, resid = space_like_residual(g)
            assert tag in ("one-negative", "two-negative")
            worst["space"] = max(worst["space"], resid)
    assert counts["time"] == want and counts["space"] == want
    assert worst["time"] < 1e-8 and worst["space"] < 1e-8
    report(9, f"500 hexagons per class, residuals time {worst['time']:.2e} "
              f"space {worst['space']:.2e}, all classified")


def test_criterion_10_embedding_contracts():
    rng = random.Random(10)
    worst_gram = 0.0
    worst_polar = 0.0
    for _ in range(10000):
        lens = hx.HexLengths(*(rng.uniform(0.2, 4.0) for _ in range(3)))
        v = hx.embed(lens)
        ls = lens.as_tuple()
        for (a, b), l in zip(((0, 1), (1, 2), (2, 0)), ls):
            resid = abs(minkowski_dot(v[a], v[b]) + math.cosh(l)) / max(1.0, math.cosh(l))
            worst_gram = max(worst_gram, resid)
        for a in range(3):
            # measured relative to the vector scale: double-precision dots
            # of cosh(4)-sized components carry ~|v|^2 eps noise
            scale = max(1.0, v[a].euclidean_norm() ** 2)
            worst_gram = max(worst_gram, abs(minkowski_dot(v[a], v[a]) - 1.0) / scale)
        p = hx.polar(*v)
        for r in range(3):
            for s in range(3):
                if r != s:
                    resid = abs(minkowski_dot(p[r], v[s])) / v[s].euclidean_norm()
                    worst_polar = max(worst_polar, resid)
    assert worst_gram < 1e-11
    assert worst_polar < 1e-11
    report(10, f"10^4 embeddings: gram {worst_gram:.2e}, polar {worst_polar:.2e}")


def test_criterion_11_convexity_witness():
    rng = random.Random(11)
    tri = mesh.single_face()
    for fam in ALL_FAMILIES:
        spec = stock_spec(fam)
        pts = sample_face_points(spec, tri, rng, 2000, scale=1.3, min_slack=0.0)
        assert len(pts) == 2000, fam
        for a, b in zip(pts[::2], pts[1::2]):
            mid = {i: 0.5 * (a[i] + b[i]) for i in a}
            assert admissible(spec, tri, mid).ok, fam
    report(11, "midpoints of 1000 admissible pairs stay admissible, all families")


def test_criterion_12_energy_path_independence():
    rng = random.Random(12)
    tri = mesh.single_face()
    face = tri.faces[0]
    worst = 0.0
    done = 0
    fams = ("A1", "A2", "A3", "MixedIII", "MixedI", "MixedII")
    while done < 100:
        spec = stock_spec(fams[done % len(fams)])
        pts = sample_face_points(spec, tri, rng, 3, scale=0.5)
        if len(pts) < 3:
            continue
        a, b, c = pts
        try:
            direct = solver.energy_face(spec, tri, face, a, b)
            legs = solver.energy_face(spec, tri, face, a, c) + solver.energy_face(
                spec, tri, face, c, b
            )
        except HexcurvError:
            continue
        diff = abs(direct - legs)
        assert diff < 1e-8
        worst = max(worst, diff)
        done += 1
    report(12, f"two-path energy discrepancy max {worst:.2e} over 100 segments")
