"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import time

import numpy as np

from hexcurv import curvature, mesh, solver
from hexcurv._kernels import SPACE, TIME, face_eval
from hexcurv._kernels.center import DOMAINS, INCOHERENT, face_centers, hexagon_arcs
from hexcurv.conformal import admissible, component_values, f_from_u, spec_arrays
from hexcurv.conformal import u_from_f
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

from helpers import (
    ALL_FAMILIES,
    branch_samples,
    embedding_residuals,
    face_f,
    face_jacobians,
    fd_dtheta_df,
    light_like_samples,
    make_spec,
    random_hexagons,
    sample_admissible_f,
    sample_admissible_u,
    sphere_triangulation,
    stack_faces,
)

ACOSH2 = math.acosh(2.0)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_regular_hexagon_fixed_point():
    best = math.inf
    for _ in range(200):
        t0 = time.perf_counter()
        theta = hexagon_arcs([[ACOSH2] * 3], [[1.0] * 3]).theta
        best = min(best, time.perf_counter() - t0)
    worst = float(np.max(np.abs(theta - ACOSH2)))
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
        arcs = stack_faces([(spec, face_f(spec, u)) for u in pts])
        assert not arcs.status.any(), fam
        for ch, rho in zip(arcs.ch, arcs.rho):
            resid = compatibility_residual_general(split_values(ch, rho))
            assert resid < 1e-10, fam
            worst = max(worst, resid)
    report(2, f"worst split-product residual {worst:.2e} over 1000 faces x 6 families")


def _rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(1e-8, np.maximum(np.abs(a), np.abs(b))))


def test_criterion_03_angle_variation_vs_fd_per_branch():
    rng = random.Random(3)
    want = 300
    buckets = branch_samples(rng, want, cap=80000)
    # light-like branch by bisecting sign changes of the causal value
    buckets["light-like"] = light_like_samples(rng, want, cap=20000)
    worst, center = {}, {}
    for name, bucket in buckets.items():
        assert len(bucket) == want, name
        arcs = stack_faces(bucket)
        rec = face_centers(arcs)
        assert not rec.status.any(), name
        m = face_eval(arcs, np.ones(arcs.theta.size))
        worst[name] = max(map(_rel_err, m, fd_dtheta_df(bucket)))
        assert worst[name] < (1e-3 if name == "light-like" else 1e-5), name
        # the paper's center-distance formula reproduces the cosine-law matrix
        center[name] = max(map(_rel_err, rec.m, m))
        assert center[name] < 1e-9, name
    report(3, "rel err vs central differences: "
              + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
              + "; center-distance vs cosine-law matrix: "
              + ", ".join(f"{k} {v:.2e}" for k, v in center.items()))


def test_criterion_04_two_term_cosh_diagonal_identity():
    rng = random.Random(4)
    tri = mesh.single_face()
    worst = 0.0
    for fam in ALL_FAMILIES:
        spec = stock_spec(fam)
        arcs = stack_faces([(spec, face_f(spec, u))
                            for u in sample_face_points(spec, tri, rng, 150)])
        assert not arcs.status.any(), fam
        for mc, ch in zip(face_eval(arcs, np.ones(arcs.theta.size)), arcs.ch.tolist()):
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
        jac = face_jacobians([(spec, face_f(spec, u))
                              for u in sample_face_points(spec, tri, rng, 200)])
        worst_face = max(worst_face, float(np.max(np.abs(jac - jac.transpose(0, 2, 1)))))
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
    poly = spec_arrays(spec, tri).polytope
    a, b, pair_lo, pair_hi = (x.tolist() for x in (poly.a, poly.b, poly.pair_lo, poly.pair_hi))
    if not a:
        return None
    k = rng.choice(range(len(a)))
    s = u[a[k]] + u[b[k]]
    if math.isfinite(pair_lo[k]):
        delta = (pair_lo[k] + slack) - s
    elif math.isfinite(pair_hi[k]):
        delta = (pair_hi[k] - slack) - s
    else:
        return None
    v = u.copy()
    v[a[k]] += delta / 2.0
    if b[k] != a[k]:
        v[b[k]] += delta / 2.0
    return v if admissible(spec, tri, v).ok else None


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
                    pts[k] = v
                    near += 1
        for jac in face_jacobians([(spec, face_f(spec, u)) for u in pts]):
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


def test_criterion_09_center_distance_identity_suite():
    want = 500
    # the first 500 hexagons per class of 64,000 draws, all evaluated at once
    arcs = hexagon_arcs(*random_hexagons(np.random.default_rng(9), 64000))
    rec = face_centers(arcs)
    placed = rec.domain >= 0
    assert sign_coherence_ok(rec)[placed].all()
    # classification is total and reproduces the observed signs
    assert not (rec.domain == INCOHERENT).any()
    cols = np.array([signs for signs, _, _ in DOMAINS])[rec.domain[placed]]
    assert np.all(np.hstack((rec.h, rec.q))[placed] * cols > -1e-9)
    timelike = np.flatnonzero(placed & (rec.branch == TIME))[:want]
    spacelike = np.flatnonzero(placed & (rec.branch == SPACE))[:want]
    assert len(timelike) == want and len(spacelike) == want
    worst = {"time": time_like_residual(rec)[timelike].max(),
             "space": space_like_residual(rec)[spacelike].max()}
    assert worst["time"] < 1e-8 and worst["space"] < 1e-8
    # on the same hexagons the center-distance matrix is the cosine-law one
    drawn = np.concatenate((timelike, spacelike))
    jac = face_eval(arcs, np.ones(arcs.theta.size))
    assert not rec.status[drawn].any()
    agree = max(_rel_err(a, b) for a, b in zip(rec.m[drawn], jac[drawn]))
    assert agree < 1e-9
    report(9, f"500 hexagons per class, residuals time {worst['time']:.2e} "
              f"space {worst['space']:.2e}, all classified; center-distance vs "
              f"cosine-law matrix {agree:.2e}")


def test_criterion_10_embedding_contracts():
    rng = random.Random(10)
    lengths = np.array([[rng.uniform(0.2, 4.0) for _ in range(3)] for _ in range(10000)])
    rec = face_centers(hexagon_arcs(lengths, np.ones_like(lengths)))
    worst_gram, worst_polar = embedding_residuals(rec, lengths)
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
            mid = 0.5 * (a + b)
            assert admissible(spec, tri, mid).ok, fam
    report(11, "midpoints of 1000 admissible pairs stay admissible, all families")


def test_criterion_12_energy_path_independence():
    rng = random.Random(12)
    tri = mesh.single_face()
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
            direct = solver.energy(spec, tri, a, b)
            legs = solver.energy(spec, tri, a, c) + solver.energy(spec, tri, c, b)
        except HexcurvError:
            continue
        diff = abs(direct - legs)
        assert diff < 1e-8
        worst = max(worst, diff)
        done += 1
    report(12, f"two-path energy discrepancy max {worst:.2e} over 100 segments")


def test_variational_principle_solution_maximizes_the_energy():
    # the paper's rigidity argument: F(u) = E(u) - tgt . u has gradient
    # K(u) - tgt, which vanishes at a solution u*, and is strictly concave
    # where J is negative definite, so u* is its maximum on the polytope;
    # asserted on the four proven classes, read on MixedI and MixedII
    rng = random.Random(13)
    seen = {}
    for fam in ALL_FAMILIES:
        tri = sphere_triangulation(40, rng)
        spec = make_spec(fam, tri, rng)
        (u_t,) = sample_admissible_u(spec, tri, rng, 1)
        tgt = curvature.curvature_map(spec, tri, f_from_u(spec, u_t))
        f, rep = solver.solve_prescribed_curvature(spec, tri, tgt)
        assert rep.converged, fam
        u_star = component_values(u_from_f(spec, f), tri.n_boundary)
        rise = []
        for u in sample_admissible_u(spec, tri, rng, 6):
            u = component_values(u, tri.n_boundary)
            rise.append(solver.energy(spec, tri, u_star, u) - tgt @ (u - u_star))
        seen[fam] = max(rise)
        if fam in ("A1", "A2", "A3", "MixedIII"):
            assert seen[fam] < 0.0, (fam, rise)
    print("PASS variational principle: max F(u) - F(u*) over 6 points per family "
          + ", ".join(f"{fam} {x:.2f}" for fam, x in seen.items()))
