import hashlib
import math
import random

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from hexcurv import curvature, identities, mesh
from hexcurv.conformal import StructureSpec, admissible, f_from_u, spec_arrays, u_from_f
from hexcurv._kernels import TIME, face_eval, face_theta
from hexcurv._kernels.center import face_centers
from hexcurv.errors import FamilyConstraint, HexcurvError, NotAdmissible
from hexcurv.identities import sample_face_points, stock_spec

import scalar_ref
from helpers import (
    ALL_FAMILIES,
    branch_samples,
    causal_value,
    face_f,
    face_jacobians,
    fd_dtheta_df,
    flipped_sphere,
    light_like_samples,
    make_spec,
    pick_special,
    plant_jacobian_error,
    plant_record_error,
    sample_admissible_f,
    sample_admissible_u,
    sphere_triangulation,
    stack_faces,
)

ACOSH2 = math.acosh(2.0)


def pants_spec():
    return StructureSpec("A1", {i: 0 for i in range(3)}, {i: 3.0 for i in range(3)})


def test_face_angles_regular():
    tri = mesh.pair_of_pants()
    arcs = curvature.curvature_and_arcs(pants_spec(), tri, {i: 0.0 for i in range(3)})[1]
    for th in arcs.theta[0]:
        assert th == pytest.approx(ACOSH2, abs=1e-14)


def test_face_angles_near_boundary_blowup():
    tri = mesh.single_face()
    # cosh l on edge 0 pinned to 1 + 1e-10
    eps = 1e-10
    spec = StructureSpec("A1", {i: 0 for i in range(3)},
                         {0: 2.0 + eps, 1: 3.0, 2: 3.0})
    # on one face K is the arc triple
    theta = curvature.curvature_map(spec, tri, {i: 0.0 for i in range(3)})
    # arcs at the endpoints of the degenerating edge explode
    assert theta[0] > 10.0 and theta[1] > 10.0
    assert all(map(math.isfinite, theta))


def test_face_angles_inadmissible():
    tri = mesh.single_face()
    spec = StructureSpec("A1", {i: 0 for i in range(3)}, {i: 1.5 for i in range(3)})
    with pytest.raises(NotAdmissible):
        curvature.curvature_map(spec, tri, {0: -2.0, 1: -2.0, 2: 0.0})


def test_first_failing_face_and_check_are_reported():
    # two disjoint faces: face 7 degenerates at edge positions 1 and 2,
    # face 3 has a factor outside the evaluable range
    edges = [mesh.Edge(10 + k, a, b) for k, (a, b) in
             enumerate(((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))]
    a = mesh.Face(7, (0, 1, 2), (10, 11, 12))
    b = mesh.Face(3, (3, 4, 5), (13, 14, 15))
    spec = StructureSpec("A1", {i: 0 for i in range(6)},
                         {10: 3.0, 11: 1.5, 12: 1.0, 13: 3.0, 14: 3.0, 15: 3.0})
    f = {0: 0.0, 1: 0.0, 2: 0.0, 3: 200.0, 4: 0.0, 5: 0.0}
    for faces, match, edge in (
        ([a, b], "face 7: edge position 1 degenerates", 1),
        ([b, a], "face 3: factor magnitudes exceed", None),
    ):
        tri = mesh.Triangulation(6, edges, faces, open_edges=True)
        for evaluate in (curvature.curvature_map, curvature.curvature_and_jacobian):
            with pytest.raises(NotAdmissible, match=match) as err:
                evaluate(spec, tri, f)
            assert err.value.edge == edge


def test_edge_joining_two_special_components_is_found_once_by_validation():
    # face 7 has the edge 11 = (1,2) between two special components, face 3
    # a factor outside the evaluable range; validation finds the edge when
    # the record is built, so every reader raises for it, in either face
    # order and at any factors, and the mesh keeps no record of the spec
    edges = [mesh.Edge(10 + k, a, b) for k, (a, b) in
             enumerate(((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))]
    a = mesh.Face(7, (0, 1, 2), (10, 11, 12))
    b = mesh.Face(3, (3, 4, 5), (13, 14, 15))
    spec = StructureSpec("MixedIII", {i: 0 for i in range(6)},
                         {10 + k: 3.0 for k in range(6)}, special=frozenset({1, 2}))
    out = {0: 0.0, 1: 0.0, 2: 0.0, 3: 200.0, 4: 0.0, 5: 0.0}
    for faces, f in (([a, b], out), ([b, a], out), ([b, a], {i: 0.0 for i in range(6)})):
        tri = mesh.Triangulation(6, edges, faces, open_edges=True)
        for evaluate in (curvature.curvature_map, curvature.curvature_and_jacobian,
                         admissible, lambda spec, tri, f: spec_arrays(spec, tri)):
            with pytest.raises(FamilyConstraint,
                               match="^edge 11 joins two special components$"):
                evaluate(spec, tri, f)
            assert tri.spec_memo is None


def test_error_names_first_failure_of_the_per_face_loop():
    rng = random.Random(11)
    tri = sphere_triangulation(30, rng)
    spec = make_spec("A1", tri, rng)
    failed = 0
    for _ in range(30):
        f = {i: rng.uniform(-2.5, 0.5) for i in range(tri.n_boundary)}
        expected = None
        prog = spec_arrays(spec, tri).program
        codes, etas = prog.codes[prog.side.T], prog.etas[prog.side.T]
        for face, fc, fe in zip(tri.faces, codes.tolist(), etas.tolist()):
            status, bad, _ = scalar_ref.face_theta(
                fc, [spec.alpha[v] for v in face.vertices], fe, [f[v] for v in face.vertices])
            if status:
                expected = f"face {face.id}: edge position {bad} "
                break
        if expected is None:
            curvature.curvature_map(spec, tri, f)
            continue
        failed += 1
        with pytest.raises(NotAdmissible, match=expected):
            curvature.curvature_map(spec, tri, f)
    assert failed > 10


def test_pair_of_pants_curvature():
    tri = mesh.pair_of_pants()
    K = curvature.curvature_map(pants_spec(), tri, {i: 0.0 for i in range(3)})
    for v in K:
        assert v == pytest.approx(2.0 * ACOSH2, abs=1e-13)


def test_curvature_face_order_invariance():
    rng = random.Random(0)
    tri = sphere_triangulation(12, rng)
    spec = make_spec("A3", tri, rng)
    f = sample_admissible_f(spec, tri, rng, 1)[0]
    K = curvature.curvature_map(spec, tri, f)
    shuffled = mesh.Triangulation(
        tri.n_boundary, tri.edges, list(reversed(tri.faces))
    )
    K2 = curvature.curvature_map(spec, shuffled, f)
    assert np.allclose(K, K2, atol=0.0)


def test_dtheta_df_matches_fd_both_branches():
    rng = random.Random(1)
    buckets = branch_samples(rng, 40)
    for name, bucket in buckets.items():
        assert len(bucket) == 40, f"missing {name} samples"
        arcs = stack_faces(bucket)
        an = face_eval(arcs, np.ones(arcs.theta.size))
        num = fd_dtheta_df(bucket)
        rel = np.abs(an - num) / np.maximum(1e-8, np.maximum(np.abs(num), np.abs(an)))
        assert rel.max() < 1e-5


def test_dtheta_df_light_like_branch():
    rng = random.Random(2)
    samples = light_like_samples(rng, 10)
    assert len(samples) == 10
    arcs = stack_faces(samples)
    assert np.all(np.abs(causal_value(face_centers(arcs))) <= 1e-10)
    an = face_eval(arcs, np.ones(arcs.theta.size))
    num = fd_dtheta_df(samples)
    rel = np.abs(an - num) / np.maximum(1e-8, np.maximum(np.abs(num), np.abs(an)))
    assert rel.max() < 1e-3


def _family_arcs(rng, n):
    """(family, theta stage) of n single-face samples of each family."""
    tri = mesh.single_face()
    for fam in ALL_FAMILIES:
        spec = stock_spec(fam)
        arcs = stack_faces([(spec, face_f(spec, u))
                            for u in sample_face_points(spec, tri, rng, n)])
        assert not arcs.status.any(), fam
        yield spec, arcs


def test_chain_rule_oracle_agreement():
    rng = random.Random(3)
    for _, arcs in _family_arcs(rng, 50):
        # the paper's center-distance matrix against the cosine-law one
        rec = face_centers(arcs)
        assert not rec.status.any()
        for g, chain in zip(rec.m, face_eval(arcs, np.ones(arcs.theta.size))):
            assert np.max(np.abs(g - chain)) < 1e-9 * max(1.0, np.max(np.abs(chain)))


def test_reciprocal_cosh_diagonal_identity():
    # diagonals of the cosine-law matrix satisfy the two-term cosh relation
    rng = random.Random(4)
    for _, arcs in _family_arcs(rng, 60):
        for mc, ch in zip(face_eval(arcs, np.ones(arcs.theta.size)), arcs.ch.tolist()):
            assert abs(mc[0, 0] - (ch[0] * mc[1, 0] + ch[2] * mc[2, 0])) < 1e-10
            assert abs(mc[1, 1] - (ch[0] * mc[0, 1] + ch[1] * mc[2, 1])) < 1e-10
            assert abs(mc[2, 2] - (ch[2] * mc[0, 2] + ch[1] * mc[1, 2])) < 1e-10


def test_face_jacobian_symmetry_independent_entries():
    rng = random.Random(5)
    tri = mesh.single_face()
    for fam in ALL_FAMILIES:
        spec = stock_spec(fam)
        pts = sample_face_points(spec, tri, rng, 60)
        for jac in face_jacobians([(spec, face_f(spec, u)) for u in pts]):
            assert np.max(np.abs(jac - jac.T)) < 1e-12
            # the determinant of a negative definite 3x3 matrix is negative
            if curvature.is_negative_definite(jac):
                assert np.linalg.det(jac) < 0.0


def test_jacobian_matches_fd_in_u():
    rng = random.Random(6)
    for fam in ALL_FAMILIES:
        tri = mesh.pair_of_pants()
        spec = make_spec(fam, tri, rng)
        for f in sample_admissible_f(spec, tri, rng, 10, scale=0.5):
            lam = curvature.curvature_and_jacobian(spec, tri, f)[1].toarray()
            assert np.max(np.abs(lam - lam.T)) < 1e-11
            u0 = u_from_f(spec, f)
            h = 1e-6
            for j in range(3):
                up, um = dict(u0), dict(u0)
                up[j] += h
                um[j] -= h
                Kp = curvature.curvature_map(spec, tri, f_from_u(spec, up))
                Km = curvature.curvature_map(spec, tri, f_from_u(spec, um))
                col = (Kp - Km) / (2 * h)
                rel = np.abs(lam[:, j] - col) / np.maximum(
                    1e-8, np.maximum(np.abs(col), np.abs(lam[:, j]))
                )
                assert rel.max() < 1e-5


def test_negative_definite_families():
    rng = random.Random(7)
    tri = mesh.single_face()
    for fam in ALL_FAMILIES:
        spec = stock_spec(fam)
        pts = sample_face_points(spec, tri, rng, 100)
        for jac in face_jacobians([(spec, face_f(spec, u)) for u in pts]):
            assert curvature.is_negative_definite(jac)


def test_global_jacobian_definite_and_circulant_on_pants():
    tri = mesh.pair_of_pants()
    lam = curvature.curvature_and_jacobian(pants_spec(), tri, {i: 0.0 for i in range(3)})[1].toarray()
    assert curvature.is_negative_definite(lam)
    assert lam[0, 0] == pytest.approx(lam[1, 1], abs=1e-12)
    assert lam[0, 1] == pytest.approx(lam[1, 2], abs=1e-12)
    assert lam[0, 1] == pytest.approx(lam[1, 0], abs=1e-12)


def test_branch_coverage_statistics():
    rng = random.Random(8)
    buckets = branch_samples(rng, 5)
    assert all(len(b) == 5 for b in buckets.values())


def _dense_jacobian(spec, tri, f):
    """The u-Jacobian summed densely from the kernel's face blocks."""
    arrays = spec_arrays(spec, tri)
    vert = arrays.program.vert
    fv = np.array([f[v] for v in range(tri.n_boundary)])
    jac = face_eval(face_theta(arrays.program, fv), arrays.cov.derivative(fv))
    lam = np.zeros((tri.n_boundary, tri.n_boundary))
    np.add.at(lam, (vert[:, :, None], vert[:, None, :]), jac)
    return lam


def _repeating_mesh():
    """Two faces that both repeat component 0, so one face adds into
    J[0, 0] four times: four face-block entries share one slot."""
    edges = [mesh.Edge(0, 0, 0), mesh.Edge(1, 0, 1), mesh.Edge(2, 1, 0)]
    return mesh.Triangulation(2, edges, [mesh.Face(0, (0, 0, 1), (0, 1, 2)),
                                         mesh.Face(1, (0, 0, 1), (0, 1, 2))])


def test_make_spec_keeps_loop_edges_off_the_special_set():
    # component 0 lies on the loop edge (0, 0), which would join two
    # special components; the Mixed families pick component 1 instead
    for seed in range(4):
        for fam in ("MixedI", "MixedII", "MixedIII"):
            tri = _repeating_mesh()
            spec = make_spec(fam, tri, random.Random(seed))
            assert spec.special == {1}
            assert admissible(spec, tri, spec_arrays(spec, tri).start).ok
    # on loop-free meshes the picks are the ones made before loop edges
    # were blocked
    picks = [sorted(pick_special(sphere_triangulation(10, rng), rng))
             for rng in map(random.Random, range(4))]
    assert picks == [[0, 5, 9], [2, 5], [2, 5], [2, 4, 9]]


def test_sparse_jacobian_equals_dense_face_sum_bit_for_bit():
    rng = random.Random(12)
    sphere = sphere_triangulation(40, rng)
    repeated = _repeating_mesh()
    cases = [(sphere, make_spec(fam, sphere, rng, regime="definite"))
             for fam in ALL_FAMILIES]
    cases.append((repeated, StructureSpec("A3", {0: 0, 1: 0},
                                          {0: 4.0, 1: 5.0, 2: 6.0})))
    for tri, spec in cases:
        for f in sample_admissible_f(spec, tri, rng, 2, scale=0.5):
            lam = curvature.curvature_and_jacobian(spec, tri, f)[1]
            assert lam.format == "csc" and lam.has_canonical_format
            assert lam.shape == (tri.n_boundary, tri.n_boundary)
            assert lam.toarray().tobytes() == _dense_jacobian(spec, tri, f).tobytes()
    assert repeated.jacobian_layout.matrix.indices.tolist() == [0, 1, 0, 1]


def test_dict_and_array_factors_give_identical_results():
    rng = random.Random(13)
    tri = sphere_triangulation(40, rng)
    for fam in ALL_FAMILIES:
        spec = make_spec(fam, tri, rng, regime="definite")
        f = sample_admissible_f(spec, tri, rng, 1, scale=0.5)[0]
        fa = np.array([f[i] for i in range(tri.n_boundary)])
        K, J = curvature.curvature_and_jacobian(spec, tri, f)
        Ka, Ja = curvature.curvature_and_jacobian(spec, tri, fa)
        assert Ka.tobytes() == K.tobytes()
        assert curvature.curvature_map(spec, tri, fa).tobytes() == K.tobytes()
        assert Ja.toarray().tobytes() == J.toarray().tobytes()


@pytest.mark.parametrize("seed, build, families", [
    pytest.param(40, lambda rng: sphere_triangulation(40, rng), ALL_FAMILIES, id="40"),
    pytest.param(400, lambda rng: sphere_triangulation(400, rng), ALL_FAMILIES, id="400"),
    # a factor with fill
    pytest.param(400, lambda rng: flipped_sphere(400, rng, 400), ALL_FAMILIES,
                 id="flipped-400"),
    pytest.param(2, lambda rng: _repeating_mesh(), ALL_FAMILIES, id="repeated-component"),
])
def test_jacobian_order_is_superlus_mmd_order(seed, build, families):
    rng = random.Random(seed)
    tri = build(rng)
    n, layout = tri.n_boundary, tri.jacobian_order
    # the diagonal entry of every column, in column order, in both layouts
    for kept in (tri.jacobian_layout, layout):
        rows, colptr, diag = kept.matrix.indices, kept.matrix.indptr, kept.diagonal
        assert np.array_equal(rows[diag], np.arange(n))
        assert np.all((colptr[:-1] <= diag) & (diag < colptr[1:]))
    order, rows, colptr = layout.order, layout.matrix.indices, layout.matrix.indptr
    for fam in families:
        spec = make_spec(fam, tri, rng, regime="definite")
        for f in sample_admissible_f(spec, tri, rng, 2, scale=0.5):
            lam = curvature.curvature_and_jacobian(spec, tri, f)[1]
            lu = scipy.sparse.linalg.splu(lam, permc_spec="MMD_AT_PLUS_A",
                                          diag_pivot_thresh=0.0,
                                          options={"SymmetricMode": True})
            assert np.array_equal(np.argsort(lu.perm_c), order)
            # the face blocks summed straight into P J P^T give J's bits,
            # in a canonical CSC array of the kept pattern
            fv = np.array([f[i] for i in range(n)])
            arcs = curvature.curvature_and_arcs(spec, tri, fv)[1]
            permuted = curvature._jacobian(arcs, spec_arrays(spec, tri).cov.derivative(fv), layout)
            assert type(permuted) is type(lam)
            assert np.array_equal(permuted.indices, rows)
            assert np.array_equal(permuted.indptr, colptr)
            fresh = scipy.sparse.csc_array((permuted.data, permuted.indices, permuted.indptr),
                                           shape=lam.shape)
            assert fresh.has_canonical_format
            dense = lam.toarray()[np.ix_(order, order)]
            assert permuted.toarray().tobytes() == dense.tobytes()
            cols = np.repeat(np.arange(n), np.diff(colptr))
            assert permuted.data.tobytes() == dense[rows, cols].tobytes()


def test_returned_jacobians_own_their_arrays():
    # an in-place structural edit of one Jacobian reaches no later one
    tri = mesh.pair_of_pants()
    spec = StructureSpec("A3", {i: 0 for i in range(3)}, {i: 2.0 for i in range(3)})
    f = np.array([0.3, 0.2, 0.1])

    def evaluated():
        jac = curvature.curvature_and_jacobian(spec, tri, f)[1]
        return jac, [x.tobytes() for x in (jac.data, jac.indices, jac.indptr)]

    first, bits = evaluated()
    first.data[1] = 0.0
    first.eliminate_zeros()
    second, after_eliminate = evaluated()
    assert after_eliminate == bits
    second.indices[:] = second.indices[::-1].copy()
    second.indptr[1] += 1
    third, after_write = evaluated()
    assert after_write == bits
    # two consecutive results share no array
    fourth = evaluated()[0]
    assert not any(np.shares_memory(x, y) for x in (third.data, third.indices, third.indptr)
                   for y in (fourth.data, fourth.indices, fourth.indptr))
    # the arrays both layouts of the mesh keep refuse writes
    for layout in (tri.jacobian_layout, tri.jacobian_order):
        for x in (layout.matrix.indices, layout.matrix.indptr):
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 1


def _identity_suite_per_sample(family, samples, seed):
    """run_suite's residuals and branch counts, one sample at a time
    through the mesh record: curvature_and_arcs, curvature._jacobian and
    curvature_map at the shifted factors."""
    spec, tri = stock_spec(family), mesh.single_face()
    cov = spec_arrays(spec, tri).cov
    res = {name: [0, 0.0] for name in ("compatibility", "finite-difference",
                                       "reciprocal-cosh-diagonal", "center-distance-formula",
                                       "u-symmetry", "negative-definite",
                                       "center-distance-identities", "sign-coherence")}
    branches = dict.fromkeys(identities.BRANCHES, 0)

    def note(name, value):
        res[name] = [res[name][0] + 1, max(res[name][1], float(value))]

    for u in sample_face_points(spec, tri, random.Random(seed), samples):
        f = cov.to_f(np.array([u[i] for i in range(3)]))
        try:
            arcs = curvature.curvature_and_arcs(spec, tri, f)[1]
        except HexcurvError:
            continue
        rec = face_centers(arcs)
        if rec.status[0] != 0:
            continue
        splits = identities.split_values(arcs.ch[0], arcs.rho[0])
        note("compatibility", identities.compatibility_residual_general(splits))
        branches[identities.BRANCHES[rec.branch[0]]] += 1
        if rec.domain[0] >= 0:  # the blocks of the sample's branch
            block = (identities.time_like_residual if rec.branch[0] == TIME
                     else identities.space_like_residual)
            note("center-distance-identities", block(rec)[0])
            note("sign-coherence", 0.0 if identities.sign_coherence_ok(rec)[0] else 2.0)
        mc = face_eval(arcs, np.ones(3))[0]
        note("center-distance-formula", float(np.max(np.abs(rec.m[0] - mc)))
             / max(1.0, float(np.max(np.abs(mc)))))
        c = arcs.ch[0].tolist()
        note("reciprocal-cosh-diagonal", max(
            abs(mc[0, 0] - (c[0] * mc[1, 0] + c[2] * mc[2, 0])),
            abs(mc[1, 1] - (c[0] * mc[0, 1] + c[1] * mc[2, 1])),
            abs(mc[2, 2] - (c[2] * mc[0, 2] + c[1] * mc[1, 2]))))
        jac = curvature._jacobian(arcs, cov.derivative(f), tri.jacobian_layout).toarray()
        note("u-symmetry", np.max(np.abs(jac - jac.T)))
        note("negative-definite", 0.0 if curvature.is_negative_definite(jac) else 2.0)
        worst, step = 0.0, 1e-5
        try:
            for col in range(3):
                fp, fm = f.copy(), f.copy()
                fp[col] += step
                fm[col] -= step
                tp = curvature.curvature_map(spec, tri, fp)
                tm = curvature.curvature_map(spec, tri, fm)
                for row in range(3):
                    num, an = (tp[row] - tm[row]) / (2.0 * step), mc[row, col]
                    worst = max(worst, abs(an - num) / max(1e-8, abs(an), abs(num)))
        except HexcurvError:
            continue
        note("finite-difference", worst)
    return {name: tuple(v) for name, v in res.items()}, branches


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_split_values_holds_on_every_face_with_a_center(family):
    # face_centers fails a face with BAD_SPLIT wherever split_values would
    # raise, on the same cosh l, sinh l and rho, so run_suite needs no guard
    spec = stock_spec(family)
    pts = sample_face_points(spec, mesh.single_face(), random.Random(2), 2000, 1.3, 0.0)
    arcs = stack_faces([(spec, face_f(spec, u)) for u in pts])
    ch, rho = arcs.ch, arcs.rho
    for k in np.flatnonzero(face_centers(arcs).status == 0).tolist():
        identities.split_values(ch[k], rho[k])


def _drawn(sample, rng) -> str:
    try:
        got = sample(rng)
    except RuntimeError as exc:
        got = str(exc)
    return repr((got, rng.random()))


# Per family, the sha256 of the draws of test_samplers_keep_their_draws:
# each call's points (or RuntimeError message), then rng's next value, as
# the loops that drew one try at a time gave them
_DRAWN = dict(zip(ALL_FAMILIES, (
    "d7ef44fdf10491701f6965fd1cd2fb9ebf10421d022d6ad96c9b11cfeb20961c",
    "0d34f948cf54b1fb9d8c85c92bc39d25679b046c36f7f6c246ca3eff3c3e47e5",
    "6ead00771ab8ad2450af7227760432bf6fff465799e0ac2bb0ec5a1bd951634f",
    "9c36991012bf6dedee3358e9b85266942e978c82103e9f3101a396fffe0a7390",
    "f58bffdbd4716f88a29356d29158c1416c30214623d664bf0d478a5bbdd25a4c",
    "0726ff2d7ae30570fd8bccd0366ae604e5a20330eadf1681fc5deaf0048bd14f")))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_samplers_keep_their_draws(family):
    # the block sampler draws the points, short returns included, and
    # leaves rng's stream as drawing one try at a time did; so does the
    # test helper, which reads the polytope's chart arrays; the sampler's
    # rows are hashed as the per-point dicts the one-try loops returned
    drawn, spec, face = [], stock_spec(family), mesh.single_face()
    for seed in (0, 7, 11):
        for n, scale, min_slack in ((1, 1.2, 0.25), (2, 1.2, 0.25), (3, 0.5, 0.25),
                                    (500, 1.0, 0.25), (2000, 1.3, 0.0)):
            drawn.append(_drawn(lambda rng: [dict(enumerate(u)) for u in sample_face_points(
                spec, face, rng, n, scale, min_slack).tolist()], random.Random(seed)))
    for seed in range(3):
        rng = random.Random(seed)
        tri = sphere_triangulation(40, rng)
        s = make_spec(family, tri, rng)
        drawn += [_drawn(lambda rng: sample_admissible_u(s, tri, rng, n), rng) for n in (1, 30)]
    assert hashlib.sha256("".join(drawn).encode()).hexdigest() == _DRAWN[family]


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_identity_suite_is_the_per_sample_evaluation(family):
    # the batched suite gives the counts and worst residuals of evaluating
    # each sample alone through the mesh record, bit for bit, and its
    # branch counts
    checks, branches = identities.run_suite(family, 60, random.Random(7))
    assert ({name: v[:2] for name, v in checks.items()}, branches) == \
        _identity_suite_per_sample(family, 60, 7)
    assert all(type(v[1]) is float for v in checks.values())
    assert checks["center-distance-identities"][0] > 0


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_finite_difference_check_finds_a_planted_error(family, monkeypatch):
    # one entry of the analytic matrix off by 1e-4 relative fails the
    # check, so the step that keeps its rounding below the bound keeps
    # its power
    plant_jacobian_error(monkeypatch)
    count, worst, bound = identities.run_suite(family, 500, random.Random(11))[0][
        "finite-difference"]
    assert count > 0 and worst > bound


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_center_distance_identity_check_finds_a_planted_error(family, monkeypatch):
    # distances h off by 1e-6 relative fail the identity blocks, and only them
    plant_record_error(monkeypatch, lambda rec: rec._replace(h=rec.h * (1.0 + 1e-6)))
    checks = identities.run_suite(family, 200, random.Random(11))[0]
    failed = {name for name, (count, worst, bound) in checks.items()
              if not (count > 0 and worst < bound)}
    assert failed == {"center-distance-identities"}


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_sign_coherence_check_finds_a_flipped_q(family, monkeypatch):
    # one sample with the signs of its q negated fails the sign check
    def flip(rec):
        q = rec.q.copy()
        q[np.argmax(rec.domain >= 0)] *= -1.0  # the first sample with a domain
        return rec._replace(q=q)

    plant_record_error(monkeypatch, flip)
    count, worst, bound = identities.run_suite(family, 200, random.Random(11))[0][
        "sign-coherence"]
    assert count > 0 and worst > bound
