import math
import random

import numpy as np
import scipy.sparse
import pytest

from hexcurv import curvature, mesh, solver
from hexcurv.conformal import StructureSpec, admissible, f_from_u, u_from_f
from hexcurv.errors import HexcurvError, NoFeasibleStart, NotConverged, PathLeavesDomain
from hexcurv.mesh import Edge, Face, Triangulation

from helpers import ALL_FAMILIES, make_spec, sample_admissible_f, sample_admissible_u, sphere_triangulation

ACOSH2 = math.acosh(2.0)


def pants_spec():
    return StructureSpec("A1", {i: 0 for i in range(3)}, {i: 3.0 for i in range(3)})


def test_pair_of_pants_regular_target():
    tri = mesh.pair_of_pants()
    f, rep = solver.solve_prescribed_curvature(
        pants_spec(), tri, {i: 2.0 * ACOSH2 for i in range(3)}
    )
    assert rep.converged
    for i in range(3):
        assert abs(f[i]) < 1e-8


def test_positive_target_required():
    tri = mesh.pair_of_pants()
    with pytest.raises(HexcurvError):
        solver.solve_prescribed_curvature(pants_spec(), tri, {0: 0.0, 1: 1.0, 2: 1.0})


def test_rigidity_roundtrip_all_families():
    rng = random.Random(0)
    for fam in ALL_FAMILIES:
        for tri in (mesh.pair_of_pants(), sphere_triangulation(10, rng)):
            spec = make_spec(fam, tri, rng)
            f0 = sample_admissible_f(spec, tri, rng, 1, scale=0.6)[0]
            K0 = curvature.curvature_map(spec, tri, f0)
            f, rep = solver.solve_prescribed_curvature(
                spec, tri, {i: K0[i] for i in range(tri.n_boundary)}
            )
            assert rep.converged
            assert max(abs(f[i] - f0[i]) for i in f0) < 1e-8


def test_monotone_residual_trajectory():
    rng = random.Random(1)
    tri = sphere_triangulation(12, rng)
    spec = make_spec("A1", tri, rng)
    tgt = {i: rng.uniform(0.8, 4.0) for i in range(tri.n_boundary)}
    _, rep = solver.solve_prescribed_curvature(spec, tri, tgt)
    for a, b in zip(rep.trajectory, rep.trajectory[1:]):
        assert b < a


def test_quadratic_tail_constant():
    rng = random.Random(2)
    tri = sphere_triangulation(10, rng)
    spec = make_spec("A3", tri, rng)
    tgt = {i: rng.uniform(0.8, 4.0) for i in range(tri.n_boundary)}
    _, rep = solver.solve_prescribed_curvature(spec, tri, tgt)
    assert rep.converged
    assert rep.quad_constant < 1e6


def test_determinism():
    rng = random.Random(3)
    tri = sphere_triangulation(14, rng)
    spec = make_spec("A1", tri, rng)
    tgt = {i: 2.0 for i in range(tri.n_boundary)}
    f1, r1 = solver.solve_prescribed_curvature(spec, tri, tgt)
    f2, r2 = solver.solve_prescribed_curvature(spec, tri, tgt)
    assert f1 == f2
    assert r1.trajectory == r2.trajectory
    assert r1.iterations == r2.iterations


def test_existence_unproven_flags():
    tri = mesh.pair_of_pants()
    cases = [
        (StructureSpec("A1", {0: -1, 1: 0, 2: 0}, {i: 3.0 for i in range(3)}), True),
        (StructureSpec("A1", {0: 1, 1: 0, 2: 0}, {i: 3.0 for i in range(3)}), False),
        (StructureSpec("A2", {i: -1 for i in range(3)}, {i: -0.5 for i in range(3)}), False),
        (StructureSpec("A2", {i: -1 for i in range(3)}, {i: 0.5 for i in range(3)}), True),
        (StructureSpec("A3", {i: 0 for i in range(3)}, {i: 2.0 for i in range(3)}), False),
        (StructureSpec("MixedII", {i: -1 for i in range(3)}, {i: 1.0 for i in range(3)},
                       special=frozenset({0})), True),
        (StructureSpec("MixedIII", {i: 0 for i in range(3)}, {0: -4.0, 1: 3.0, 2: -4.0},
                       special=frozenset({0})), False),
        (StructureSpec("MixedI", {0: 0, 1: 1, 2: 1}, {0: 1.0, 1: 2.0, 2: 1.0},
                       special=frozenset({0})), True),
        (StructureSpec("MixedI", {0: 1, 1: 0, 2: 1}, {0: 1.0, 1: 2.0, 2: 1.0},
                       special=frozenset({0})), False),
    ]
    for spec, want in cases:
        assert solver.existence_unproven(spec, tri) == want, spec


def test_user_initial_and_report_fields():
    tri = mesh.pair_of_pants()
    spec = pants_spec()
    opts = solver.SolveOptions(initial={i: 0.1 for i in range(3)})
    f, rep = solver.solve_prescribed_curvature(spec, tri, {i: 2.0 * ACOSH2 for i in range(3)}, opts)
    assert rep.converged and rep.residual <= opts.tol_K
    assert rep.trajectory[0] > rep.residual
    with pytest.raises(NoFeasibleStart):
        solver.solve_prescribed_curvature(
            spec, tri, {i: 1.0 for i in range(3)},
            solver.SolveOptions(initial={i: -5.0 for i in range(3)}),
        )


def test_default_initial_examples():
    tri = mesh.pair_of_pants()
    u = solver.default_initial(pants_spec(), tri)
    assert admissible(pants_spec(), tri, u).ok
    spec3 = StructureSpec("A3", {i: 0 for i in range(3)}, {i: 2.0 for i in range(3)})
    u = solver.default_initial(spec3, tri)
    assert admissible(spec3, tri, u).ok
    assert all(v < 0 for v in u.values())


def infeasible_mixed1():
    """Crafted contradictory weight file: empty admissible polytope.

    One face forces u_0 above 10 through a strongly negative weight, while
    a bounded window pins u_0 + u_3 near zero and a loop edge caps u_3 from
    below, forcing u_0 below 0.75.
    """
    edges = [
        Edge(0, 0, 1), Edge(1, 0, 2), Edge(2, 1, 2),
        Edge(3, 0, 3), Edge(4, 0, 4), Edge(5, 3, 4),
        Edge(6, 3, 3), Edge(7, 3, 1), Edge(8, 1, 3),
    ]
    faces = [
        Face(0, (0, 1, 2), (0, 2, 1)),
        Face(1, (0, 3, 4), (3, 5, 4)),
        Face(2, (3, 3, 1), (6, 7, 8)),
    ]
    tri = Triangulation(5, edges, faces, open_edges=True)
    alpha = {0: -1, 1: 1, 2: 1, 3: -1, 4: -1}
    eta = {
        0: -math.sinh(10.0), 1: 1.0, 2: 2.0,
        3: math.cosh(0.5), 4: math.cosh(0.5), 5: 2.0,
        6: math.cosh(0.5), 7: 1.0, 8: 1.0,
    }
    return tri, StructureSpec("MixedI", alpha, eta, special=frozenset({0}))


def test_no_feasible_start_on_contradictory_weights():
    tri, spec = infeasible_mixed1()
    from hexcurv.conformal import validate_spec

    validate_spec(spec, tri)
    with pytest.raises(NoFeasibleStart):
        solver.default_initial(spec, tri)


def test_not_converged_carries_best_iterate():
    tri = mesh.pair_of_pants()
    spec = pants_spec()
    with pytest.raises(NotConverged) as err:
        solver.solve_prescribed_curvature(
            spec, tri, {i: 2.0 for i in range(3)}, solver.SolveOptions(max_iter=1)
        )
    assert err.value.factors is not None
    assert err.value.report.trajectory


def test_energy_zero_segment_and_path_independence():
    rng = random.Random(4)
    tri = mesh.single_face()
    for fam in ("A1", "A3", "MixedIII"):
        spec = make_spec(fam, tri, rng)
        face = tri.faces[0]
        pts = sample_admissible_u(spec, tri, rng, 3, scale=0.4)
        a, b, c = pts
        assert solver.energy_face(spec, tri, face, a, a) == pytest.approx(0.0, abs=1e-12)
        mid = {i: 0.5 * (a[i] + c[i]) for i in a}
        direct = solver.energy_face(spec, tri, face, a, b)
        legs = solver.energy_face(spec, tri, face, a, c) + solver.energy_face(
            spec, tri, face, c, b
        )
        assert abs(direct - legs) < 1e-8


def test_energy_concavity_along_segment():
    rng = random.Random(5)
    tri = mesh.single_face()
    spec = make_spec("A1", tri, rng)
    face = tri.faces[0]
    a, b = sample_admissible_u(spec, tri, rng, 2, scale=0.5)
    dvec = {i: b[i] - a[i] for i in a}
    slopes = []
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        u = {i: a[i] + t * dvec[i] for i in a}
        theta = curvature.face_angles(spec, tri, face, f_from_u(spec, u))
        slopes.append(sum(theta[p] * dvec[v] for p, v in enumerate(face.vertices)))
    for s0, s1 in zip(slopes, slopes[1:]):
        assert s1 < s0 + 1e-12


def test_energy_path_leaves_domain():
    tri = mesh.single_face()
    spec = StructureSpec("A3", {i: 0 for i in range(3)}, {i: 2.0 for i in range(3)})
    u0 = solver.default_initial(spec, tri)
    bad = {i: -3.0 for i in u0}
    with pytest.raises(PathLeavesDomain):
        solver.energy_face(spec, tri, tri.faces[0], u0, bad)


def _tridiagonal(n, diag, off):
    return scipy.sparse.diags_array([off, diag, off], offsets=[-1, 0, 1],
                                    shape=(n, n), format="csc")


def _sphere_jacobian(n, shifted):
    """An A3 sphere Jacobian (negative definite); shifted, it is indefinite:
    minus the midpoint of its widest eigenvalue gap past the 100 lowest."""
    rng = random.Random(n)
    tri = sphere_triangulation(n, rng)
    spec = make_spec("A3", tri, rng)
    lam = curvature.curvature_and_jacobian(
        spec, tri, sample_admissible_f(spec, tri, rng, 1, scale=0.5)[0])[1]
    if not shifted:
        return lam
    ev = np.linalg.eigvalsh(lam.toarray())[100:]
    k = int(np.argmax(np.diff(ev)))
    mid = scipy.sparse.diags_array(np.full(n, 0.5 * (ev[k] + ev[k + 1])), format="csc")
    return (lam - mid).tocsc()


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _tridiagonal(40, -3.0, 1.0), id="definite-40"),
    pytest.param(lambda: _tridiagonal(600, -3.0, 1.0), id="definite-600"),
    pytest.param(lambda: _tridiagonal(40, -1.0, 1.0), id="indefinite-40"),
    pytest.param(lambda: _tridiagonal(600, -1.0, 1.0), id="indefinite-600"),
    pytest.param(lambda: _tridiagonal(2, 0.0, 1.0), id="zero-diagonal-2"),
    # pivots off the diagonal, all negative
    pytest.param(lambda: _tridiagonal(2, 0.0, -1.0), id="zero-diagonal-negative-2"),
    pytest.param(lambda: _tridiagonal(600, 0.0, 1.0), id="zero-diagonal-600"),
    pytest.param(lambda: _sphere_jacobian(600, shifted=False), id="sphere-600"),
    pytest.param(lambda: _sphere_jacobian(600, shifted=True), id="sphere-shifted-600"),
])
def test_newton_step_notes_exactly_the_indefinite_jacobians(make):
    lam = make()
    g = np.random.default_rng(lam.shape[0]).standard_normal(lam.shape[0])
    report = solver.SolveReport(False, 0, math.inf)
    step = solver._solve_step(lam, g, report)
    assert np.linalg.norm(lam @ step - g) <= 1e-12 * np.linalg.norm(g)
    definite = np.linalg.eigvalsh(lam.toarray()).max() < 0.0
    assert report.notes == ([] if definite else ["jacobian indefinite at an iterate"])


def _solve_recording_jacobians(fam, tri, seed, monkeypatch):
    """Roundtrip solve as in test_rigidity_roundtrip_all_families; also
    returns the largest eigenvalue of every Jacobian the solve factored."""
    rng = random.Random(seed)
    spec = make_spec(fam, tri, rng)
    f0 = sample_admissible_f(spec, tri, rng, 1, scale=0.6)[0]
    K0 = curvature.curvature_map(spec, tri, f0)
    tops = []

    def recording(*args):
        K, lam = curvature.curvature_and_jacobian(*args)
        tops.append(np.linalg.eigvalsh(lam.toarray()).max())
        return K, lam

    monkeypatch.setattr(solver, "curvature_and_jacobian", recording)
    _, rep = solver.solve_prescribed_curvature(
        spec, tri, {i: K0[i] for i in range(tri.n_boundary)})
    assert rep.converged
    return rep, tops[:-1]  # the Jacobian at the solution is not factored


def test_indefinite_note_follows_the_jacobians(monkeypatch):
    # the default MixedI window sits in the hyper-ideal split regime
    rep, tops = _solve_recording_jacobians("MixedI", mesh.pair_of_pants(), 0,
                                           monkeypatch)
    assert max(tops) > 0.0
    assert "jacobian indefinite at an iterate" in rep.notes
    rep, tops = _solve_recording_jacobians(
        "A3", sphere_triangulation(10, random.Random(0)), 0, monkeypatch)
    assert max(tops) < 0.0
    assert not any("indefinite" in note for note in rep.notes)
