import math
import random

import numpy as np
import pytest

from hexcurv import curvature, mesh, solver
from hexcurv.conformal import StructureSpec, dfdu, f_from_u, u_from_f
from hexcurv._kernels import _core_py, face_eval
from hexcurv.errors import NotAdmissible
from hexcurv.identities import sample_face_points, stock_spec

from helpers import (
    ALL_FAMILIES,
    branch_samples,
    light_like_samples,
    make_spec,
    sample_admissible_f,
    sphere_triangulation,
)

ACOSH2 = math.acosh(2.0)


def pants_spec():
    return StructureSpec("A1", {i: 0 for i in range(3)}, {i: 3.0 for i in range(3)})


def test_face_angles_regular():
    tri = mesh.pair_of_pants()
    theta = curvature.face_angles(pants_spec(), tri, tri.faces[0], {i: 0.0 for i in range(3)})
    for th in theta:
        assert th == pytest.approx(ACOSH2, abs=1e-14)


def test_face_angles_near_boundary_blowup():
    tri = mesh.single_face()
    # cosh l on edge 0 pinned to 1 + 1e-10
    eps = 1e-10
    spec = StructureSpec("A1", {i: 0 for i in range(3)},
                         {0: 2.0 + eps, 1: 3.0, 2: 3.0})
    theta = curvature.face_angles(spec, tri, tri.faces[0], {i: 0.0 for i in range(3)})
    # arcs at the endpoints of the degenerating edge explode
    assert theta[0] > 10.0 and theta[1] > 10.0
    assert all(map(math.isfinite, theta))


def test_face_angles_inadmissible():
    tri = mesh.single_face()
    spec = StructureSpec("A1", {i: 0 for i in range(3)}, {i: 1.5 for i in range(3)})
    with pytest.raises(NotAdmissible):
        curvature.face_angles(spec, tri, tri.faces[0], {0: -2.0, 1: -2.0, 2: 0.0})


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


def test_error_names_first_failure_of_the_per_face_loop():
    rng = random.Random(11)
    tri = sphere_triangulation(30, rng)
    spec = make_spec("A1", tri, rng)
    failed = 0
    for _ in range(30):
        f = {i: rng.uniform(-2.5, 0.5) for i in range(tri.n_boundary)}
        expected = None
        for face in tri.faces:
            args = curvature.face_edge_args(spec, face, f)
            status, bad, _ = _core_py.face_theta(
                [a[0] for a in args], [spec.alpha[v] for v in face.vertices],
                [a[5] for a in args], [f[v] for v in face.vertices])
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


def fd_matrix(spec, tri, face, f, step=1e-6):
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


def test_dtheta_df_matches_fd_both_branches():
    rng = random.Random(1)
    tri = mesh.single_face()
    buckets = branch_samples(rng, 40)
    for name, bucket in buckets.items():
        assert len(bucket) == 40, f"missing {name} samples"
        for spec, f, fd in bucket:
            num = fd_matrix(spec, tri, tri.faces[0], f)
            rel = np.abs(fd.dtheta_df - num) / np.maximum(
                1e-8, np.maximum(np.abs(num), np.abs(fd.dtheta_df))
            )
            assert rel.max() < 1e-5


def test_dtheta_df_light_like_branch():
    rng = random.Random(2)
    tri = mesh.single_face()
    samples = light_like_samples(rng, 10)
    assert len(samples) == 10
    for spec, f, fd in samples:
        assert abs(fd.sigma) <= 1e-10
        num = fd_matrix(spec, tri, tri.faces[0], f)
        rel = np.abs(fd.dtheta_df - num) / np.maximum(
            1e-8, np.maximum(np.abs(num), np.abs(fd.dtheta_df))
        )
        assert rel.max() < 1e-3


def test_chain_rule_oracle_agreement():
    rng = random.Random(3)
    tri = mesh.single_face()
    for fam in ALL_FAMILIES:
        spec = stock_spec(fam)
        for u in sample_face_points(spec, tri, rng, 50):
            f = f_from_u(spec, u)
            geo = curvature.dtheta_df(spec, tri, tri.faces[0], f)
            chain = curvature.dtheta_df_chain(spec, tri, tri.faces[0], f)
            assert np.max(np.abs(geo - chain)) < 1e-9 * max(1.0, np.max(np.abs(chain)))


def test_reciprocal_cosh_diagonal_identity():
    # diagonals of the chain-rule matrix satisfy the two-term cosh relation
    rng = random.Random(4)
    tri = mesh.single_face()
    from hexcurv.identities import _edge_coshes

    for fam in ALL_FAMILIES:
        spec = stock_spec(fam)
        for u in sample_face_points(spec, tri, rng, 60):
            f = f_from_u(spec, u)
            mc = curvature.dtheta_df_chain(spec, tri, tri.faces[0], f)
            ch = _edge_coshes(spec, tri, tri.faces[0], f)
            assert abs(mc[0, 0] - (ch[0] * mc[1, 0] + ch[2] * mc[2, 0])) < 1e-10
            assert abs(mc[1, 1] - (ch[0] * mc[0, 1] + ch[1] * mc[2, 1])) < 1e-10
            assert abs(mc[2, 2] - (ch[2] * mc[0, 2] + ch[1] * mc[1, 2])) < 1e-10


def test_face_jacobian_symmetry_independent_entries():
    rng = random.Random(5)
    tri = mesh.single_face()
    for fam in ALL_FAMILIES:
        spec = stock_spec(fam)
        for u in sample_face_points(spec, tri, rng, 60):
            f = f_from_u(spec, u)
            jac = curvature.face_jacobian_u(spec, tri, tri.faces[0], f)
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
        for u in sample_face_points(spec, tri, rng, 100):
            f = f_from_u(spec, u)
            jac = curvature.face_jacobian_u(spec, tri, tri.faces[0], f)
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
    vert, codes, alphas, etas, fv, _ = curvature._mesh_inputs(spec, tri, f)
    du = np.array([dfdu(spec, v, f) for v in range(tri.n_boundary)])
    jac = face_eval(vert, codes, alphas, etas, fv, du)[3]
    lam = np.zeros((tri.n_boundary, tri.n_boundary))
    np.add.at(lam, (vert[:, :, None], vert[:, None, :]), jac)
    return lam


def test_sparse_jacobian_equals_dense_face_sum_bit_for_bit():
    rng = random.Random(12)
    sphere = sphere_triangulation(40, rng)
    # both faces repeat component 0, so one face adds into J[0, 0] four times
    edges = [mesh.Edge(0, 0, 0), mesh.Edge(1, 0, 1), mesh.Edge(2, 1, 0)]
    repeated = mesh.Triangulation(2, edges, [mesh.Face(0, (0, 0, 1), (0, 1, 2)),
                                             mesh.Face(1, (0, 0, 1), (0, 1, 2))])
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
    assert repeated.jacobian_pattern[1].tolist() == [0, 1, 0, 1]
