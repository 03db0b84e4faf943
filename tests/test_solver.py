import fractions
import functools
import gc
import math
import pickle
import random
import warnings
import weakref

import numpy as np
import scipy.sparse
import pytest

from hexcurv import conformal, curvature, mesh, solver
from hexcurv._kernels import BAD_ARC, OK
from hexcurv.conformal import StructureSpec, admissible, f_from_u, spec_arrays
from hexcurv.errors import HexcurvError, NoFeasibleStart, NotAdmissible, NotConverged
from hexcurv.errors import OutOfRange
from hexcurv.errors import PathLeavesDomain
from hexcurv.mesh import Edge, Face, Triangulation

import scalar_ref
from helpers import ALL_FAMILIES, flipped_sphere, make_spec, sample_admissible_f, sample_admissible_u
from helpers import sphere_triangulation

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


def _outcome(spec, tri, target, opts=None) -> bytes:
    """f and every report field of a solve, or of its NotConverged, as bytes."""
    try:
        f, rep = solver.solve_prescribed_curvature(spec, tri, target, opts)
    except NotConverged as err:
        f, rep = err.factors, err.report
    return pickle.dumps((f, rep))


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
    # solves that step first from the record's kept Newton state give the
    # bytes of a solve on a freshly parsed copy of the mesh, whose record
    # keeps nothing yet: six families at N=40, and a Jacobian whose factor
    # has fill
    cases = [(fam, sphere_triangulation(40, rng)) for fam in ALL_FAMILIES]
    cases.append(("A3", flipped_sphere(40, rng, 40)))
    for fam, tri in cases:
        spec = make_spec(fam, tri, rng)
        targets = [curvature.curvature_map(spec, tri, f)
                   for f in sample_admissible_f(spec, tri, rng, 2, scale=0.6)]
        for target in (targets[0], targets[1], targets[0]):
            warm = _outcome(spec, tri, target)
            cold_tri, cold_spec = mesh.parse(mesh.serialize(tri, spec))
            assert cold_tri == tri and spec_arrays(cold_spec, cold_tri).newton is None
            assert _outcome(cold_spec, cold_tri, target) == warm
            assert spec_arrays(spec, tri).newton is not None
    lu = spec_arrays(spec, tri).newton.factor[0]
    assert lu.L.nnz + lu.U.nnz > tri.jacobian_order.matrix.nnz + tri.n_boundary


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
        assert spec_arrays(spec, tri).unproven == want, spec


def test_existence_verdict_is_kept_per_spec_and_mesh(monkeypatch):
    rng = random.Random(23)
    tri = sphere_triangulation(30, rng)
    specs = [make_spec(fam, tri, rng) for fam in ALL_FAMILIES]
    # each reference decided by the scalar oracle on a fresh copy of the mesh
    fresh = [scalar_ref.unproven(spec, sphere_triangulation(30, random.Random(23)))
             for spec in specs]
    assert True in fresh and False in fresh
    # the verdict is decided with the rest of the spec's arrays
    builds, build = [], conformal.SpecArrays
    monkeypatch.setattr(conformal, "SpecArrays",
                        lambda spec, tri_: builds.append(spec) or build(spec, tri_))
    for k in (0, 1, 1, 2, 3, 4, 4, 5, 5, 0):
        assert spec_arrays(specs[k], tri).unproven == fresh[k]
    assert builds == [specs[k] for k in (0, 1, 2, 3, 4, 5, 0)]
    # repeated solves read the kept verdict and note it as before; the mesh
    # keeps the last spec's, so each other spec's is decided once more
    note = ("no existence theorem covers this configuration; "
            "a failed solve is not evidence either way about the target")
    for k, spec in enumerate(specs):
        built = len(builds)
        f = f_from_u(spec, solver.default_initial(spec, tri))
        target = curvature.curvature_map(spec, tri, f)
        for _ in range(2):
            _, rep = solver.solve_prescribed_curvature(spec, tri, target)
            assert rep.existence_unproven == fresh[k]
            assert rep.notes == ([note] if fresh[k] else [])
        assert len(builds) == built + (k != 0)


def test_user_initial_and_report_fields(monkeypatch):
    tri = mesh.pair_of_pants()
    spec = pants_spec()
    opts = solver.SolveOptions(initial={i: 0.1 for i in range(3)})
    f, rep = solver.solve_prescribed_curvature(spec, tri, {i: 2.0 * ACOSH2 for i in range(3)}, opts)
    assert rep.converged and rep.residual <= opts.tol_K
    assert rep.trajectory[0] > rep.residual
    # a user initial point, even the default start, neither reads nor
    # builds the record's Newton state at the default start
    target = {i: 1.5 * ACOSH2 for i in range(3)}
    at_start = solver.SolveOptions(initial=f_from_u(spec, solver.default_initial(spec, tri)))
    outcomes = []
    for _ in range(2):  # without a kept state, then with one
        kept = vars(spec_arrays(spec, tri)).get("newton")
        with monkeypatch.context() as m:
            m.setattr(conformal.SpecArrays, "newton", property(
                lambda arrays: pytest.fail("the Newton state was read")))
            outcomes.append(_outcome(spec, tri, target, at_start))
        assert vars(spec_arrays(spec, tri)).get("newton") is kept
        _outcome(spec, tri, target)  # a default solve keeps the state
        assert spec_arrays(spec, tri).newton is not None
    assert outcomes[0] == outcomes[1] == _outcome(spec, tri, target)
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
    spec_arrays(spec, tri)  # the spec is valid
    with pytest.raises(NoFeasibleStart):
        solver.default_initial(spec, tri)


def _zero_first_row_and_column(built):
    """A stand-in for solver._jacobian whose Jacobian has component 0's row
    and column zeroed, so SuperLU finds it exactly singular; each Jacobian
    it builds is appended to built."""
    build = solver._jacobian

    def jacobian(arcs, du, layout):
        lam = build(arcs, du, layout)
        rows, colptr = lam.indices, lam.indptr
        first = int(np.flatnonzero(layout.order == 0)[0])  # component 0 in factor order
        cols = np.repeat(np.arange(len(colptr) - 1), np.diff(colptr))
        lam.data[(rows == first) | (cols == first)] = 0.0
        built.append(lam)
        return lam

    return jacobian


@pytest.mark.parametrize("target, max_iter, singular, message", [
    (2.0, 1, False, "no convergence in 1 iterations (residual {})"),
    (1e-9, 100, False, "damping budget exhausted at residual {}"),
    (2.0, 100, True, "jacobian exactly singular at residual {}"),
], ids=["iteration-budget", "damping-budget", "singular-jacobian"])
def test_not_converged_carries_best_iterate(monkeypatch, target, max_iter, singular, message):
    # each way a solve ends without convergence carries the iterate whose
    # residual the message and the report give, and its whole trajectory
    if singular:
        monkeypatch.setattr(solver, "_jacobian", _zero_first_row_and_column([]))
    tri, spec = mesh.pair_of_pants(), pants_spec()
    tgt = {i: target for i in range(3)}
    with pytest.raises(NotConverged) as err:
        solver.solve_prescribed_curvature(spec, tri, tgt, solver.SolveOptions(max_iter=max_iter))
    report = err.value.report
    assert str(err.value) == message.format(report.residual)
    assert report.converged is False
    assert len(report.trajectory) == report.iterations + 1
    assert report.trajectory[-1] == report.residual
    K = curvature.curvature_map(spec, tri, err.value.factors)
    assert np.max(np.abs(K - target)) == report.residual


@pytest.mark.parametrize("fam", ["A1", "A3", "MixedIII", "MixedI"])
def test_hard_targets_return_or_raise_not_converged(fam):
    # 5 K0 from the default start, on the N=40 meshes of the hard-target
    # probe.  A Jacobian built from the face centers raised SingularHeight or
    # InconsistentRatio at accepted iterates here and leaked a divide by zero
    # (an error under the RuntimeWarning filter); a solve must return or end
    # with NotConverged and its best iterate.
    for seed in range(6):
        rng = random.Random(1000 * seed + 40)
        tri = sphere_triangulation(40, rng)
        spec = make_spec(fam, tri, rng, regime="definite" if fam == "MixedI" else "default")
        K0 = curvature.curvature_map(spec, tri,
                                     f_from_u(spec, solver.default_initial(spec, tri)))
        try:
            solver.solve_prescribed_curvature(spec, tri, 5.0 * K0)
        except NotConverged as err:
            assert err.factors is not None and err.report.trajectory


# Newton iterations of the N=40 probe solves, seeds 0-7 (Random(1000 s +
# 40), MixedI in its definite window), from the default start to c K0,
# None where the solve raises NotConverged: with the line search halving
# every rejected trial, and with a full step that leaves the polytope cut
# to BOUNDARY_FRACTION of its way to the boundary.
HALVING_ITERATIONS = {
    1.5: {"A1": [6, 5, 6, 5, 7, 6, 6, 6], "A2": [6, 6, 6, 6, 6, 6, 6, 6],
          "A3": [6, 6, 6, 7, 6, 6, 6, 6], "MixedI": [5, 7, 7, 6, 6, 8, 7, 7],
          "MixedII": [5, 5, 5, 5, 5, 5, 5, 5], "MixedIII": [5, 7, 7, 7, 7, 7, 6, 7]},
    3.0: {"A1": [15, 11, 13, 11, None, 12, 16, 11], "A2": [9, 10, 11, 8, 8, 11, 11, 11],
          "A3": [11, 9, 11, 9, 12, 11, 11, 9],
          "MixedI": [None, None, None, None, 14, None, 17, None],
          "MixedII": [None] * 8, "MixedIII": [None] * 8},
}
CUT_ITERATIONS = {
    1.5: {"A1": [8, 6, 5, 6, 6, 6, 6, 5], "A2": [5, 5, 5, 6, 6, 5, 5, 5],
          "A3": [5, 6, 5, 7, 5, 5, 5, 6], "MixedI": [6, 8, 7, 6, 7, 7, 7, 8],
          "MixedII": [6, 5, 5, 5, 5, 5, 5, 5], "MixedIII": [7, 6, 7, 6, 6, 8, 7, 7]},
    3.0: {"A1": [13, 10, 11, 12, None, 12, 14, 10], "A2": [9, 9, 9, 8, 8, 10, 10, 10],
          "A3": [9, 10, 9, 12, 10, 10, 11, 9],
          "MixedI": [None, None, None, None, 15, None, 15, None],
          "MixedII": [None] * 8, "MixedIII": [None] * 8},
}


def test_the_boundary_cut_keeps_the_probe_grid_converging():
    # the same solves converge as with halving, and the grid takes fewer
    # iterations at each target, though some solves take more
    for c, families in CUT_ITERATIONS.items():
        for fam, want in families.items():
            got = []
            for seed in range(8):
                rng = random.Random(1000 * seed + 40)
                tri = sphere_triangulation(40, rng)
                spec = make_spec(fam, tri, rng, regime="definite" if fam == "MixedI" else "default")
                arrays = spec_arrays(spec, tri)
                K0 = curvature.curvature_map(spec, tri, arrays.cov.to_f(arrays.start))
                try:
                    got.append(solver.solve_prescribed_curvature(spec, tri, c * K0)[1].iterations)
                except NotConverged:
                    got.append(None)
            assert got == want, (c, fam)
            assert [n is None for n in got] == [n is None for n in HALVING_ITERATIONS[c][fam]]
        total = [sum(n for row in table[c].values() for n in row if n is not None)
                 for table in (CUT_ITERATIONS, HALVING_ITERATIONS)]
        assert total[0] < total[1]


def test_trials_with_a_vanishing_arc_are_rejected(monkeypatch):
    # arcs of 5e-10 lie below what cosh theta resolves in doubles, so the
    # solve meets trial points whose arcs round to zero: the theta stage
    # reports them, the solver rejects them and builds no Jacobian there
    statuses, built = [], []
    theta, jacobian = curvature.face_theta, curvature.face_eval

    def recording_theta(*args):
        arcs = theta(*args)
        statuses.append(arcs.status.tolist())
        return arcs

    monkeypatch.setattr(curvature, "face_theta", recording_theta)
    monkeypatch.setattr(curvature, "face_eval", lambda arcs, du: built.append(
        arcs.status.tolist()) or jacobian(arcs, du))
    with pytest.raises(NotConverged) as err:
        solver.solve_prescribed_curvature(pants_spec(), mesh.pair_of_pants(),
                                          {i: 1e-9 for i in range(3)})
    assert any(BAD_ARC in st for st in statuses)
    assert built and all(st == [OK, OK] for st in built)
    assert err.value.factors is not None
    K = curvature.curvature_map(pants_spec(), mesh.pair_of_pants(), err.value.factors)
    assert np.max(np.abs(K - 1e-9)) == err.value.report.residual


def _line_searches(monkeypatch, spec, tri, target):
    """A solve from the default start, recorded: (u, step, trials) per
    call of solver._solve_step, u the iterate it steps from and trials the
    (point, result) of each solver._trial after it; and the solve's report."""
    searches, iterates = [], [spec_arrays(spec, tri).start]
    solve_step, trial = solver._solve_step, solver._trial

    def recording_step(factor, g, report, order):
        if len(report.trajectory) > len(iterates):  # the last search's last trial was accepted
            iterates.append(searches[-1][2][-1][0])
        step = solve_step(factor, g, report, order)
        searches.append((iterates[-1], step, []))
        return step

    def recording_trial(spec_, tri_, cov, u, tgt, report):
        out = trial(spec_, tri_, cov, u, tgt, report)
        searches[-1][2].append((u, out))
        return out

    with monkeypatch.context() as m:
        m.setattr(solver, "_solve_step", recording_step)
        m.setattr(solver, "_trial", recording_trial)
        try:
            report = solver.solve_prescribed_curvature(spec, tri, target)[1]
        except NotConverged as err:
            report = err.report
    return searches, report


def _to_boundary(poly, u, step) -> float:
    """The t at which u - t step meets poly's boundary, from the slack of u
    and that of the step under zero bounds, the rate at which each falls."""
    at_u = conformal.slack(poly, u)
    rate = conformal.slack(poly._replace(lo=0.0, hi=0.0, pair_lo=0.0, pair_hi=0.0), step)
    finite = np.isfinite(at_u)
    assert np.allclose(rate[finite], at_u[finite] - conformal.slack(poly, u - step)[finite],
                       rtol=1e-9, atol=1e-9)
    return min((s / r for s, r in zip(at_u.tolist(), rate.tolist()) if r > 0.0),
               default=math.inf)


def _check_schedule(spec, tri, searches) -> list:
    """Asserts that each line search tries u - step first, then, where that
    point leaves the polytope, u - BOUNDARY_FRACTION t_max step, and halves
    after every other rejection, and that every trial point that passed the
    theta stage is admissible; returns the t_max of each cut."""
    poly, cuts = spec_arrays(spec, tri).polytope, []
    for u, step, trials in searches:
        scale = 1.0
        for k, (point, out) in enumerate(trials):
            assert np.array_equal(point, u - scale * step)
            inside = admissible(spec, tri, point).ok
            assert out is None or inside
            if k == 0 and not inside:
                cuts.append(_to_boundary(poly, u, step))
                assert cuts[-1] < 1.0
                scale = solver.BOUNDARY_FRACTION * cuts[-1]
            else:
                scale *= solver.DAMPING
    return cuts


@pytest.mark.parametrize("fam", ALL_FAMILIES)
def test_a_full_step_that_leaves_the_polytope_is_cut_short_of_its_boundary(fam, monkeypatch):
    # seed 0 of the N=40 probe grid at 1.5 K0: the first full step leaves
    # the polytope, and the next trial goes BOUNDARY_FRACTION of the way
    # to where the step meets its boundary
    rng = random.Random(40)
    tri = sphere_triangulation(40, rng)
    spec = make_spec(fam, tri, rng, regime="definite" if fam == "MixedI" else "default")
    arrays = spec_arrays(spec, tri)
    K0 = curvature.curvature_map(spec, tri, arrays.cov.to_f(arrays.start))
    searches, report = _line_searches(monkeypatch, spec, tri, 1.5 * K0)
    assert report.converged
    u, step, trials = searches[0]
    assert not admissible(spec, tri, trials[0][0]).ok and trials[0][1] is None
    t_max = _to_boundary(arrays.polytope, u, step)
    assert t_max < 1.0
    assert np.array_equal(trials[1][0], u - (solver.BOUNDARY_FRACTION * t_max) * step)
    # t_max is where the ray leaves the polytope
    assert np.all(conformal.slack(arrays.polytope, u - (1.0 - 1e-6) * t_max * step) > 0.0)
    assert np.any(conformal.slack(arrays.polytope, u - (1.0 + 1e-6) * t_max * step) < 0.0)
    assert _check_schedule(spec, tri, searches)[0] == t_max


def test_a_full_step_rejected_inside_the_polytope_is_halved(monkeypatch):
    # target 1e-9 on the pants: the last Newton step's trial points lie
    # inside the polytope, but their arcs vanish, so its line search halves
    # from the full step until the damping budget runs out
    spec, tri = pants_spec(), mesh.pair_of_pants()
    searches, report = _line_searches(monkeypatch, spec, tri, {i: 1e-9 for i in range(3)})
    assert not report.converged
    assert _check_schedule(spec, tri, searches) == []
    u, step, trials = searches[-1]
    assert len(trials) == solver.MAX_HALVINGS
    assert trials[0][1] is None and admissible(spec, tri, trials[0][0]).ok
    assert np.array_equal(trials[1][0], u - solver.DAMPING * step)


def _masked_to_boundary(poly, u, step) -> float:
    """The boundary ray over the falling slacks alone, gathered by mask."""
    with np.errstate(all="ignore"):
        rate = conformal.slack(poly._replace(lo=0.0, hi=0.0, pair_lo=0.0, pair_hi=0.0), step)
        ahead = rate > 0.0
        return float(np.min(conformal.slack(poly, u)[ahead] / rate[ahead], initial=np.inf))


def test_the_boundary_ray_is_the_minimum_over_the_falling_slacks():
    # _to_boundary takes the minimum over every quotient, with inf where a
    # slack does not fall; that is the float of the masked minimum, also
    # where step components vanish, the step is zero or a pair sum of the
    # step overflows
    rng, nprng = random.Random(33), np.random.default_rng(33)
    seen = set()
    for fam in ALL_FAMILIES:
        tri = sphere_triangulation(40, rng)
        spec = make_spec(fam, tri, rng)
        poly, n = spec_arrays(spec, tri).polytope, tri.n_boundary
        for point in [spec_arrays(spec, tri).start, *sample_admissible_u(spec, tri, rng, 3)]:
            u = np.array([point[i] for i in range(n)])
            for kind in range(4):
                step = nprng.normal(scale=rng.choice((0.1, 1.0, 10.0)), size=n)
                if kind == 1:
                    step[nprng.random(n) < 0.5] = 0.0
                elif kind == 2:
                    step[:] = 0.0
                elif kind == 3:
                    k = rng.randrange(len(poly.a))
                    step[[poly.a[k], poly.b[k]]] = rng.choice((1.0, -1.0)) * 1e308
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    t_max = solver._to_boundary(poly, u, step)
                ref = _masked_to_boundary(poly, u, step)
                assert np.float64(t_max).tobytes() == np.float64(ref).tobytes(), (fam, kind)
                seen.add("inf" if t_max == math.inf else "0" if t_max == 0.0
                         else "short" if t_max < 1.0 else "long")
    assert seen == {"inf", "0", "short", "long"}


def test_exactly_singular_jacobian_ends_as_not_converged(monkeypatch):
    built = []
    monkeypatch.setattr(solver, "_jacobian", _zero_first_row_and_column(built))
    tri, spec, outcomes = mesh.pair_of_pants(), pants_spec(), []
    for _ in range(3):  # the record keeps the verdict: each solve raises alike
        with pytest.raises(NotConverged, match="exactly singular") as err:
            solver.solve_prescribed_curvature(spec, tri, {i: 2.0 for i in range(3)})
        assert len(built) == 1
        assert err.value.factors is not None and err.value.report.trajectory
        outcomes.append(pickle.dumps((str(err.value), err.value.factors, err.value.report)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_other_factorization_errors_propagate(monkeypatch):
    # only SuperLU's zero-pivot verdict is a non-convergence; any other
    # error of the factorization is a fault and keeps its type
    def failing_splu(*args, **kwargs):
        raise RuntimeError("some other failure")

    tri = mesh.pair_of_pants()
    tri.jacobian_order  # the mesh's own SuperLU call comes first
    monkeypatch.setattr(solver.scipy.sparse.linalg, "splu", failing_splu)
    with pytest.raises(RuntimeError, match="some other failure"):
        solver.solve_prescribed_curvature(pants_spec(), tri, {i: 2.0 for i in range(3)})


def test_energy_zero_segment_and_path_independence():
    rng = random.Random(4)
    tri = mesh.single_face()
    for fam in ("A1", "A3", "MixedIII"):
        spec = make_spec(fam, tri, rng)
        pts = sample_admissible_u(spec, tri, rng, 3, scale=0.4)
        a, b, c = pts
        assert solver.energy(spec, tri, a, a) == pytest.approx(0.0, abs=1e-12)
        direct = solver.energy(spec, tri, a, b)
        legs = solver.energy(spec, tri, a, c) + solver.energy(spec, tri, c, b)
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
        theta = curvature.curvature_map(spec, tri, f_from_u(spec, u))  # one face: K is theta
        slopes.append(sum(theta[p] * dvec[v] for p, v in enumerate(face.vertices)))
    for s0, s1 in zip(slopes, slopes[1:]):
        assert s1 < s0 + 1e-12


def test_mesh_energy_is_the_sum_of_its_face_energies():
    # K . du sums theta . du over the faces, so the energy of a sphere is
    # the sum of the energies of its faces, each alone, relabelled 0, 1, 2
    rng = random.Random(14)
    tri = sphere_triangulation(8, rng)
    spec = make_spec("A3", tri, rng)
    a, b = sample_admissible_u(spec, tri, rng, 2, scale=0.5)
    alone = mesh.single_face()
    parts = []
    for face in tri.faces:
        vs = face.vertices
        spec1 = StructureSpec("A3", {i: spec.alpha[v] for i, v in enumerate(vs)},
                              {i: spec.eta[e] for i, e in enumerate(face.edge_ids)})
        ua, ub = ({i: u[v] for i, v in enumerate(vs)} for u in (a, b))
        parts.append(solver.energy(spec1, alone, ua, ub))
    assert solver.energy(spec, tri, a, b) == pytest.approx(math.fsum(parts), rel=1e-12)


def test_energy_path_leaves_domain(monkeypatch):
    tri = mesh.single_face()
    spec = StructureSpec("A3", {i: 0 for i in range(3)}, {i: 2.0 for i in range(3)})
    u0 = solver.default_initial(spec, tri)
    bad = {i: -3.0 for i in u0}
    with pytest.raises(PathLeavesDomain):
        solver.energy(spec, tri, u0, bad)
    # a theta stage that fails at a node between admissible ends

    def failing(*args):
        raise NotAdmissible("face 0: arc 1 vanishes")

    monkeypatch.setattr(solver, "curvature_map", failing)
    with pytest.raises(PathLeavesDomain, match="arc 1 vanishes"):
        solver.energy(spec, tri, u0, u0)


def _tridiagonal(n, diag, off):
    return scipy.sparse.diags_array([off, diag, off], offsets=[-1, 0, 1],
                                    shape=(n, n), format="csc")


def _sphere_jacobian(n, shifted, flips=0):
    """An A3 sphere Jacobian (negative definite); shifted, it is indefinite:
    minus the midpoint of its widest eigenvalue gap past the 100 lowest.
    With flips, the sphere is flipped_sphere's and its factor has fill."""
    rng = random.Random(n)
    tri = flipped_sphere(n, rng, flips)
    spec = make_spec("A3", tri, rng)
    lam = curvature.curvature_and_jacobian(
        spec, tri, sample_admissible_f(spec, tri, rng, 1, scale=0.5)[0])[1]
    if not shifted:
        return lam
    ev = np.linalg.eigvalsh(lam.toarray())[100:]
    k = int(np.argmax(np.diff(ev)))
    mid = scipy.sparse.diags_array(np.full(n, 0.5 * (ev[k] + ev[k + 1])), format="csc")
    return (lam - mid).tocsc()


def _order_of(lam):
    """mesh.elimination_order of lam's pattern, each stored entry its own
    source."""
    cols = np.repeat(np.arange(lam.shape[1]), np.diff(lam.indptr))
    return mesh.elimination_order(mesh.make_layout(lam.indices, cols, lam.shape[0]))


def _in_order(lam, order):
    """P lam P^T in order's layout, as _solve_step takes it, from lam's
    entries (the sources of order's slot map)."""
    data = np.empty(lam.nnz)
    data[order.slot] = lam.data
    return scipy.sparse.csc_array((data, order.matrix.indices, order.matrix.indptr),
                                  shape=lam.shape)


class _CountingLU:
    """A SuperLU factorization that records the reads of its pivots: the
    row and column permutations and the L and U factors, which are built
    on each read."""

    def __init__(self, lu, reads):
        self._lu, self._reads = lu, reads

    def __getattr__(self, name):
        if name in ("perm_r", "perm_c", "L", "U"):
            self._reads.append(name)
        return getattr(self._lu, name)


_STEP_MATRICES = [
    pytest.param(lambda: _tridiagonal(40, -3.0, 1.0), id="definite-40"),
    pytest.param(lambda: _tridiagonal(600, -3.0, 1.0), id="definite-600"),
    # definite, but not strictly dominant: the pivots decide
    pytest.param(lambda: _tridiagonal(40, -2.0, 1.0), id="definite-weak-40"),
    pytest.param(lambda: _tridiagonal(600, -2.0, 1.0), id="definite-weak-600"),
    # strictly dominant, but with a positive diagonal
    pytest.param(lambda: _tridiagonal(40, 3.0, 1.0), id="positive-dominant-40"),
    pytest.param(lambda: _tridiagonal(40, -1.0, 1.0), id="indefinite-40"),
    pytest.param(lambda: _tridiagonal(600, -1.0, 1.0), id="indefinite-600"),
    pytest.param(lambda: _tridiagonal(2, 0.0, 1.0), id="zero-diagonal-2"),
    # pivots off the diagonal, all negative
    pytest.param(lambda: _tridiagonal(2, 0.0, -1.0), id="zero-diagonal-negative-2"),
    pytest.param(lambda: _tridiagonal(600, 0.0, 1.0), id="zero-diagonal-600"),
    pytest.param(lambda: _sphere_jacobian(600, shifted=False), id="sphere-600"),
    pytest.param(lambda: _sphere_jacobian(600, shifted=True), id="sphere-shifted-600"),
    pytest.param(lambda: _sphere_jacobian(600, False, 600), id="flipped-sphere-600"),
    pytest.param(lambda: _sphere_jacobian(600, True, 600), id="flipped-sphere-shifted-600"),
]


@pytest.mark.parametrize("make", _STEP_MATRICES)
def test_newton_step_notes_exactly_the_indefinite_jacobians(make, monkeypatch):
    lam = make()
    g = np.random.default_rng(lam.shape[0]).standard_normal(lam.shape[0])
    report = solver.SolveReport(False, 0, math.inf)
    order = _order_of(lam)
    reads, splu = [], scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda *args, **kwargs: _CountingLU(splu(*args, **kwargs), reads))
    step = solver._solve_step(solver._factor(_in_order(lam, order), order), g, report, order)
    assert np.linalg.norm(lam @ step - g) <= 1e-12 * np.linalg.norm(g)
    dense = lam.toarray()
    definite = np.linalg.eigvalsh(dense).max() < 0.0
    assert report.notes == ([] if definite else ["jacobian indefinite at an iterate"])
    # the pivots are read exactly when the Gershgorin certificate fails, so
    # L and U are never built for a certified matrix
    dominant = np.all(2.0 * np.diag(dense) + np.abs(dense).sum(axis=0) < 0.0)
    assert bool(reads) == (not dominant)


def _reference_step(lam, g, order):
    """The step of _factor and _solve_step from a fresh sparse array of
    lam's entries and splu with its options."""
    fresh = scipy.sparse.csc_array((lam.data.copy(), lam.indices.copy(), lam.indptr.copy()),
                                   shape=lam.shape)
    lu = scipy.sparse.linalg.splu(
        fresh, permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1, panel_size=1,
        options={"SymmetricMode": True})
    step = np.empty(len(g))
    step[order.order] = lu.solve(g[order.order])
    return step


def test_kept_matrix_serves_each_pattern_alone(monkeypatch):
    # steps alternate between three meshes of N = 40; each factors a new
    # array of its own, which equals a fresh factorization bit for bit
    rng = random.Random(11)
    sources = []
    for tri in (sphere_triangulation(40, rng), flipped_sphere(40, rng, 40),
                sphere_triangulation(40, rng)):
        spec = make_spec("A3", tri, rng)
        points = []
        for f in sample_admissible_f(spec, tri, rng, 3, scale=0.5):
            fv = np.array([f[i] for i in range(40)])
            arcs = curvature.curvature_and_arcs(spec, tri, fv)[1]
            points.append((arcs, spec_arrays(spec, tri).cov.derivative(fv)))
        sources.append((tri, points))
    kept = [tri.jacobian_order.matrix for tri, _ in sources]
    arrays = [(matrix.data, matrix.indices, matrix.indptr) for matrix in kept]
    factored, splu = [], scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda matrix, **kwargs: factored.append(matrix) or splu(matrix, **kwargs))
    gen, steps = np.random.default_rng(11), []
    for k in range(3):
        for tri, points in sources:
            order = tri.jacobian_order
            lam = curvature._jacobian(*points[k], order)
            data, g = lam.data.copy(), gen.standard_normal(40)
            report = solver.SolveReport(False, 0, math.inf)
            step = solver._solve_step(solver._factor(lam, order), g, report, order)
            assert step.tobytes() == _reference_step(lam, g, order).tobytes()
            assert factored[-2] is lam
            steps.append((lam, data))
    # each step factored its own array, sharing no array with a kept matrix
    # or another step, and that array still holds its step's data
    assert len({id(lam) for lam, _ in steps}) == len(steps) == 9
    owned = [x for lam, _ in steps for x in (lam.data, lam.indices, lam.indptr)]
    owned += [x for kept_arrays in arrays for x in kept_arrays]
    assert not any(np.shares_memory(x, y) for i, x in enumerate(owned) for y in owned[:i])
    assert all(lam.data.tobytes() == data.tobytes() for lam, data in steps)
    # the kept matrices still hold the read-only arrays they were built with
    for matrix, (data, indices, indptr) in zip(kept, arrays):
        assert matrix.data is data and not data.any()
        assert matrix.indices is indices and matrix.indptr is indptr
        assert not (data.flags.writeable or indices.flags.writeable or indptr.flags.writeable)


def test_factors_with_fill_solve_the_rigidity_roundtrip(monkeypatch):
    # a stacked sphere's Jacobian factors without fill in its elimination
    # order; a flipped sphere's takes SuperLU's supernodal updates
    rng = random.Random(5)
    tri = flipped_sphere(300, rng, 300)
    spec = make_spec("A1", tri, rng)
    f0 = sample_admissible_f(spec, tri, rng, 1, scale=0.6)[0]
    K0 = curvature.curvature_map(spec, tri, f0)
    tri.jacobian_order  # the mesh's own SuperLU call comes first
    factors = []
    splu = scipy.sparse.linalg.splu

    def recording(lam, **kwargs):
        factors.append((lam, splu(lam, **kwargs)))
        return factors[-1][1]

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
    f, rep = solver.solve_prescribed_curvature(
        spec, tri, {i: K0[i] for i in range(tri.n_boundary)})
    assert rep.converged and rep.iterations - rep.chord_steps == len(factors) > 0
    assert max(abs(f[i] - f0[i]) for i in f0) < 1e-8
    for lam, lu in factors:
        assert lu.L.nnz + lu.U.nnz > lam.nnz + tri.n_boundary


def _solve_recording_jacobians(fam, tri, seed, monkeypatch):
    """Roundtrip solve as in test_rigidity_roundtrip_all_families; also
    returns the largest eigenvalue of every Jacobian the solve factored and
    the reads of their pivots."""
    rng = random.Random(seed)
    spec = make_spec(fam, tri, rng)
    f0 = sample_admissible_f(spec, tri, rng, 1, scale=0.6)[0]
    K0 = curvature.curvature_map(spec, tri, f0)
    tops, reads = [], []
    factor, splu = solver._factor, scipy.sparse.linalg.splu

    def recording(lam, order):
        tops.append(np.linalg.eigvalsh(lam.toarray()).max())
        return factor(lam, order)

    tri.jacobian_order  # the mesh's own SuperLU call comes first
    with monkeypatch.context() as m:
        m.setattr(solver, "_factor", recording)
        m.setattr(scipy.sparse.linalg, "splu",
                  lambda *args, **kwargs: _CountingLU(splu(*args, **kwargs), reads))
        _, rep = solver.solve_prescribed_curvature(
            spec, tri, {i: K0[i] for i in range(tri.n_boundary)})
    assert rep.converged
    return rep, tops, reads


def test_indefinite_note_follows_the_jacobians(monkeypatch):
    # the default MixedI window sits in the hyper-ideal split regime
    tri = mesh.pair_of_pants()
    rep, tops, reads = _solve_recording_jacobians("MixedI", tri, 0, monkeypatch)
    assert max(tops) > 0.0
    assert "jacobian indefinite at an iterate" in rep.notes
    assert reads
    # the Jacobian at the start is indefinite too, and every later solve
    # from the start replays that verdict from the kept factor: these
    # targets take one Newton step, which factors nothing
    assert tops[0] > 0.0
    arrays = tri.spec_memo
    for scale in (1.0 + 1e-7, 1.0 - 1e-7):
        with monkeypatch.context() as m:
            m.setattr(solver, "_factor", None)
            _, rep = solver.solve_prescribed_curvature(arrays.spec, tri, scale * arrays.newton.K)
        assert rep.converged and rep.iterations == 1
        assert "jacobian indefinite at an iterate" in rep.notes
    # an A3 sphere's Jacobians are certified: no pivot is read, no L or U built
    rep, tops, reads = _solve_recording_jacobians(
        "A3", sphere_triangulation(10, random.Random(0)), 0, monkeypatch)
    assert max(tops) < 0.0
    assert not any("indefinite" in note for note in rep.notes)
    assert len(tops) == rep.iterations - rep.chord_steps > 0 and not reads


def _roundtrip_problems():
    """(spec, mesh, target) of the rigidity roundtrips, six families on two meshes."""
    rng = random.Random(0)
    for fam in ALL_FAMILIES:
        for tri in (mesh.pair_of_pants(), sphere_triangulation(10, rng)):
            spec = make_spec(fam, tri, rng)
            f0 = sample_admissible_f(spec, tri, rng, 1, scale=0.6)[0]
            yield spec, tri, curvature.curvature_map(spec, tri, f0)


def _counting(counts, key, fn, counts_if=lambda out: True):
    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        counts[key] += counts_if(out)
        return out
    return counted


def test_one_theta_pass_per_trial_point_and_one_jacobian_per_step(monkeypatch):
    rejected = 0
    for spec, tri, target in _roundtrip_problems():
        tri.jacobian_order  # the mesh's own SuperLU call and kept matrix come first
        sparse = 0  # sparse arrays constructed over all solves
        # two consecutive solves on the mesh, then one with an equal spec
        # object, which gets a new record
        equal = StructureSpec(spec.family, spec.alpha, spec.eta, spec.special)
        for repeat, spec_ in zip((0, 1, 0), (spec, spec, equal)):
            counts = {"theta": 0, "jacobian": 0, "trials": 0, "sparse": 0, "splu": 0}
            with monkeypatch.context() as m:
                m.setattr(curvature, "face_theta",
                          _counting(counts, "theta", curvature.face_theta))
                m.setattr(curvature, "face_eval",
                          _counting(counts, "jacobian", curvature.face_eval))
                m.setattr(scipy.sparse, "csc_array",
                          _counting(counts, "sparse", scipy.sparse.csc_array))
                m.setattr(scipy.sparse.linalg, "splu",
                          _counting(counts, "splu", scipy.sparse.linalg.splu))
                m.setattr(solver, "admissible", _counting(counts, "trials", solver.admissible,
                                                          lambda out: out.ok))
                _, rep = solver.solve_prescribed_curvature(spec_, tri, target)
            assert rep.converged
            # the repeat takes the curvature at the start and the first
            # step's factor from the record; a chord step builds no Jacobian
            # and factors nothing
            assert counts["theta"] == counts["trials"] + 1 - repeat
            assert (counts["jacobian"] == counts["splu"]
                    == rep.iterations - repeat - rep.chord_steps)
            rejected += counts["trials"] - rep.iterations
            sparse += counts["sparse"]
        assert sparse == 0  # every step factors a copy of the matrix kept with the order
    assert rejected > 0  # some trials were evaluated and rejected


def test_accepted_iterates_carry_the_exact_K_and_J(monkeypatch):
    all_chords = 0
    for spec, tri, target in _roundtrip_problems():
        evaluate, factor, step = solver.curvature_and_arcs, solver._factor, solver._solve_step
        for repeat in range(2):  # the repeat steps first from the record's factor
            events, factored = [], []  # factored: (factor, lam), each factor kept alive

            def recording_evaluate(spec_, tri_, f):
                out = evaluate(spec_, tri_, f)
                events.append(("eval", np.array(f), out[0]))
                return out

            def recording_factor(lam, order):
                out = factor(lam, order)
                factored.append((out, lam.toarray()))
                return out

            def recording_step(factor_, g, report, order):
                events.append(("step", factor_, g))
                return step(factor_, g, report, order)

            with monkeypatch.context() as m:
                m.setattr(solver, "curvature_and_arcs", recording_evaluate)
                m.setattr(solver, "_factor", recording_factor)
                m.setattr(solver, "_solve_step", recording_step)
                f_final, rep = solver.solve_prescribed_curvature(spec, tri, target)
            if repeat:
                # the start's f and K from the record, before the first step
                kept = spec_arrays(spec, tri).newton
                events.insert(0, ("eval", kept.f, kept.K))
                factored.append((kept.factor, lam0))
            steps = [k for k, e in enumerate(events) if e[0] == "step"]
            assert len(steps) == rep.iterations  # no chord trial is rejected here
            assert len(factored) == rep.iterations - rep.chord_steps
            chords = 0
            for n, k in enumerate(steps):
                _, f, K = events[k - 1]  # the accepted trial, or the start
                _, factor_, g = events[k]
                K_ref, J_ref = curvature.curvature_and_jacobian(spec, tri, f)
                assert K.tobytes() == K_ref.tobytes()
                assert g.tobytes() == (K_ref - target).tobytes()
                if n and factor_ is events[steps[n - 1]][1]:
                    chords += 1  # a chord step solves with the step before's factor
                    continue
                lam = next(lam for out, lam in factored if out is factor_)
                # the factored matrix is J permuted into the mesh's elimination order
                perm = tri.jacobian_order.order
                assert lam.tobytes() == J_ref.toarray()[np.ix_(perm, perm)].tobytes()
            assert chords == rep.chord_steps
            all_chords += chords
            lam0 = next(lam for out, lam in factored if out is events[steps[0]][1])
            K_final = curvature.curvature_map(spec, tri, f_final)
            assert rep.residual == float(np.max(np.abs(K_final - target)))
    assert all_chords > 0


def test_a_rejected_chord_trial_falls_through_to_the_newton_step(monkeypatch):
    # the contraction of the step to 3.1e-7 predicts tol_K in one more step,
    # but the chord trial from that step's factor lands above tol_K
    rng = random.Random(31)
    tri = sphere_triangulation(10, rng)
    spec = make_spec("A1", tri, rng)
    target = curvature.curvature_map(spec, tri, sample_admissible_f(spec, tri, rng, 1, 0.9)[0])
    tri.jacobian_order  # the mesh's own SuperLU call comes first
    events = []
    evaluate, factor, step = solver.curvature_and_arcs, solver._factor, solver._solve_step
    counts = {"jacobian": 0, "splu": 0}
    with monkeypatch.context() as m:
        m.setattr(solver, "curvature_and_arcs", lambda spec_, tri_, f: events.append(
            ("eval", np.array(f), evaluate(spec_, tri_, f))) or events[-1][2])
        m.setattr(solver, "_factor", lambda lam, order: events.append(
            ("factor", lam.toarray(), factor(lam, order))) or events[-1][2])
        m.setattr(solver, "_solve_step", lambda factor_, g, report, order: events.append(
            ("step", factor_, g.copy())) or step(factor_, g, report, order))
        m.setattr(curvature, "face_eval", _counting(counts, "jacobian", curvature.face_eval))
        m.setattr(scipy.sparse.linalg, "splu", _counting(counts, "splu", scipy.sparse.linalg.splu))
        _, rep = solver.solve_prescribed_curvature(spec, tri, target)
    assert rep.converged and rep.chord_steps == 0
    assert counts["jacobian"] == counts["splu"] == rep.iterations
    # one step more than there are iterations: the chord trial, which
    # solves with the factor of the step before
    steps = [k for k, e in enumerate(events) if e[0] == "step"]
    chords = [k for n, k in enumerate(steps) if n and events[k][1] is events[steps[n - 1]][1]]
    assert len(steps) == rep.iterations + 1 and len(chords) == 1
    # then one theta pass at its point, the Jacobian at the iterate it left
    # and the Newton step there, whose first trial ends the solve
    k = chords[0]
    assert [e[0] for e in events[k - 1:]] == ["eval", "step", "eval", "factor", "step", "eval"]
    (_, f, (K, _)), (_, _, g), (_, _, (K_chord, _)) = events[k - 1:k + 2]
    (_, lam, newton), (_, newton_, g_) = events[k + 2:k + 4]
    assert newton_ is newton and g_.tobytes() == g.tobytes()
    residual = lambda K_: np.max(np.abs(K_ - target))
    assert solver.SolveOptions().tol_K < residual(K_chord) < residual(K)
    perm = tri.jacobian_order.order
    J = curvature.curvature_and_jacobian(spec, tri, f)[1].toarray()
    assert lam.tobytes() == J[np.ix_(perm, perm)].tobytes()


def test_quad_constant_reads_the_newton_steps_only():
    traj = [1.0, 0.5, 0.25, 0.125, 0.0625]  # ratios r[n+1] / r[n]^2: 0.5, 1, 2, 4
    assert (solver._quad_constant(traj), solver._quad_constant(traj[:-1])) == (4.0, 2.0)
    # a chord step ends the trajectory; its ratio is left out
    chorded = 0
    for spec, tri, target in _roundtrip_problems():
        _, rep = solver.solve_prescribed_curvature(spec, tri, target)
        newton = rep.trajectory[:len(rep.trajectory) - rep.chord_steps]
        assert rep.quad_constant == solver._quad_constant(newton)
        chorded += rep.quad_constant != solver._quad_constant(rep.trajectory)
    assert chorded > 0


def test_a_repeat_solve_counts_its_first_step_as_newton(monkeypatch):
    # the first step of a solve from the default start is a Newton step,
    # whether it factors the Jacobian there or reads the record's factor
    rng = random.Random(7)
    tri = sphere_triangulation(40, rng)
    spec = make_spec("A3", tri, rng)
    arrays = spec_arrays(spec, tri)
    K0 = curvature.curvature_map(spec, tri, arrays.cov.to_f(arrays.start))
    solver.solve_prescribed_curvature(spec, tri, 1.01 * K0)  # keeps the Newton state
    for scale in (1.0 + 1e-4, 1.0 - 1e-4):
        # a freshly parsed copy of the mesh keeps nothing and factors at the start
        cold_tri, cold_spec = mesh.parse(mesh.serialize(tri, spec))
        cold = _outcome(cold_spec, cold_tri, scale * K0)
        splu = []
        with monkeypatch.context() as m:
            m.setattr(scipy.sparse.linalg, "splu", lambda *args, **kw: splu.append(1))
            f, rep = solver.solve_prescribed_curvature(spec, tri, scale * K0)
        assert not splu and pickle.dumps((f, rep)) == cold
        # the first step from the kept factor, the second a chord step
        assert (rep.iterations, rep.chord_steps) == (2, 1)
        assert rep.quad_constant == rep.trajectory[1] / rep.trajectory[0] ** 2


def test_default_start_is_kept_per_spec_and_mesh(monkeypatch):
    rng = random.Random(21)
    tri = sphere_triangulation(30, rng)
    specs = [make_spec(fam, tri, rng) for fam in ("A1", "A3", "MixedIII")]
    # each reference on a fresh copy of the mesh, which keeps nothing yet
    fresh = [solver.default_initial(spec, sphere_triangulation(30, random.Random(21)))
             for spec in specs]
    builds, build = [], conformal.SpecArrays.start.func
    counted = functools.cached_property(lambda arrays: builds.append(arrays.spec) or build(arrays))
    counted.__set_name__(conformal.SpecArrays, "start")
    monkeypatch.setattr(conformal.SpecArrays, "start", counted)
    for k in (0, 1, 0, 0, 2, 2, 1):
        u = solver.default_initial(specs[k], tri)
        assert u == fresh[k]
        u[0] += 1.0  # the caller's dict is its own
        del u[1]
    assert builds == [specs[k] for k in (0, 1, 0, 2, 1)]
    # the solver starts from the kept array, not the dict, with the same bits
    starts, evaluate = [], solver.curvature_and_arcs
    monkeypatch.setattr(solver, "curvature_and_arcs",
                        lambda spec, tri_, f: starts.append(f) or evaluate(spec, tri_, f))
    for k, spec in enumerate(specs):
        f = f_from_u(spec, solver.default_initial(spec, tri))
        target = curvature.curvature_map(spec, tri, f)
        built = len(builds)
        with monkeypatch.context() as m:
            m.setattr(solver, "default_initial", None)
            _, rep = solver.solve_prescribed_curvature(spec, tri, target)
        assert rep.converged and rep.iterations == 0 and len(builds) == built
        assert starts[k].tobytes() == np.array(list(f.values())).tobytes()


def test_a_mesh_dropped_after_a_solve_is_freed_without_the_cycle_collector():
    # the mesh's record of its spec keeps the mesh's arrays, not the mesh
    rng = random.Random(23)
    tri = sphere_triangulation(30, rng)
    spec = make_spec("MixedIII", tri, rng)
    target = curvature.curvature_map(spec, tri, sample_admissible_f(spec, tri, rng)[0])
    twice = sphere_triangulation(30, random.Random(23))  # solved twice below
    gc.disable()
    try:
        _, rep = solver.solve_prescribed_curvature(spec, tri, target)
        assert rep.converged and rep.iterations > 0
        assert {"polytope", "start", "newton"} <= set(vars(tri.spec_memo))
        kept = weakref.ref(tri)
        del tri
        assert kept() is None
        # the kept Newton state, SuperLU factor included, holds no mesh either
        for _ in range(2):
            _, rep = solver.solve_prescribed_curvature(spec, twice, target)
            assert rep.converged and rep.iterations > 0
        assert twice.spec_memo.newton is not None
        kept = weakref.ref(twice)
        del twice
        assert kept() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("kwargs", [
    {"tol_K": 0.0}, {"tol_K": -1.0}, {"tol_K": math.nan}, {"tol_K": math.inf},
    {"max_iter": 0}, {"max_iter": -3},
    # values of the wrong type: before, a solve died in range() or in a
    # comparison, or took True for 1 iteration
    {"max_iter": 2.5}, {"max_iter": 3.0}, {"max_iter": True}, {"max_iter": np.True_},
    {"max_iter": "3"}, {"max_iter": None}, {"max_iter": np.int64(0)},
    {"tol_K": "a"}, {"tol_K": True}, {"tol_K": np.True_}, {"tol_K": None}, {"tol_K": 1e-10j},
    {"tol_K": [1e-10]},
])
def test_solve_options_reject_unusable_budgets(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        solver.SolveOptions(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"max_iter": 100}, {"max_iter": np.int64(100)}, {"tol_K": 1}, {"tol_K": np.float32(1e-6)},
    {"tol_K": fractions.Fraction(1, 10**10)},
])
def test_solve_options_take_integer_budgets_and_real_tolerances(kwargs):
    opts = solver.SolveOptions(**kwargs)
    spec = StructureSpec("A3", {i: 0 for i in range(3)}, {i: 3.0 for i in range(3)})
    tri = mesh.pair_of_pants()
    target = curvature.curvature_map(spec, tri, [0.1, 0.2, 0.3])
    _, rep = solver.solve_prescribed_curvature(spec, tri, target, opts)
    assert rep.converged and 0 < rep.iterations <= 100 and rep.residual <= opts.tol_K


def test_weights_in_read_like_a_dict_in():
    # solve's f, NotConverged.factors and the results of f_from_u and
    # u_from_f, fed back as they are and as dicts of their items: the same
    # bytes out, and no item dict built on the way
    rng = random.Random(25)
    tri = sphere_triangulation(40, rng)
    n = tri.n_boundary
    for fam in ALL_FAMILIES:
        spec = make_spec(fam, tri, rng)
        u0 = solver.default_initial(spec, tri)
        f = f_from_u(spec, sample_admissible_u(spec, tri, rng, 1, scale=0.3)[0])
        target = curvature.curvature_map(spec, tri, f)
        f_sol = solver.solve_prescribed_curvature(spec, tri, target)[0]
        with pytest.raises(NotConverged) as err:
            solver.solve_prescribed_curvature(spec, tri, target, solver.SolveOptions(max_iter=1))
        for x in (f, f_sol, err.value.factors):
            u = conformal.u_from_f(spec, x)
            assert type(x) is type(u) is conformal.Weights
            items = [dict(zip(w.ids.tolist(), w.data.tolist())) for w in (x, u)]

            def outcomes(f, u):
                K, jac = curvature.curvature_and_jacobian(spec, tri, f)
                solved, rep = solver.solve_prescribed_curvature(
                    spec, tri, target, solver.SolveOptions(initial=f))
                return [curvature.curvature_map(spec, tri, f).tobytes(), K.tobytes(),
                        jac.data.tobytes(), jac.indices.tobytes(), jac.indptr.tobytes(),
                        conformal.admissible(spec, tri, u), solver.energy(spec, tri, u0, u),
                        solved.data.tobytes(), pickle.dumps(rep)]

            assert outcomes(x, u) == outcomes(*items)
            for w in (x, u):
                assert "_items" not in vars(w)
                with pytest.raises(TypeError):
                    w[0] = 1.0
        # keys other than 0..n-1 raise as a dict with them does
        data = np.arange(1.0, n + 1.0)
        for ids in (np.arange(1, n + 1), np.r_[0:n - 1, n], np.arange(n - 1)):
            w = conformal.Weights(ids, data[:len(ids)])
            messages = []
            for x in (w, dict(w)):
                with pytest.raises(OutOfRange) as bad:
                    curvature.curvature_map(spec, tri, x)
                messages.append(str(bad.value))
            assert messages[0] == messages[1]
