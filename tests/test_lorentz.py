"""Lorentzian products of the face-center kernel (hexcurv._kernels.center),
and the causal class of face centers in its records."""

import math
import random

import numpy as np
import pytest

from hexcurv._kernels import LIGHT, SPACE, TIME
from hexcurv._kernels.center import NO_DOMAIN, _cross, _mdot, face_centers, hexagon_arcs
from hexcurv.tol import TAU_CAUSAL

from helpers import causal_value


def V(*x):
    return np.array(x, dtype=float)


def test_dot_basics():
    assert _mdot(V(1, 0, 0), V(1, 0, 0)) == 1.0
    assert _mdot(V(0, 0, 1), V(0, 0, 1)) == -1.0
    assert _mdot(V(1, 0, 1), V(1, 0, 1)) == 0.0


def test_dot_symmetric_bilinear():
    rng = random.Random(0)
    for _ in range(200):
        a = V(*(rng.uniform(-3, 3) for _ in range(3)))
        b = V(*(rng.uniform(-3, 3) for _ in range(3)))
        assert _mdot(a, b) == _mdot(b, a)
        s = rng.uniform(-2, 2)
        assert _mdot(s * a, b) == pytest.approx(s * _mdot(a, b), rel=1e-14)


def test_cross_basis_and_antisymmetry():
    assert _cross(V(1, 0, 0), V(0, 1, 0)).tolist() == [0.0, 0.0, -1.0]
    a = V(0.3, -1.2, 0.7)
    assert _cross(a, a).tolist() == [0.0, 0.0, 0.0]
    d = _cross(V(1, 0, 0), V(0, 0, 1))
    assert _mdot(d, V(1, 0, 0)) == 0.0


def test_cross_orthogonality_property():
    rng = np.random.default_rng(1)
    a, b = rng.uniform(-2, 2, (2, 300, 3))
    c = _cross(a, b)
    m = np.maximum(1.0, np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    assert np.all(np.abs(_mdot(c, a)) < 1e-13 * m * m)
    assert np.all(np.abs(_mdot(c, b)) < 1e-13 * m * m)


def _faces_along(t):
    # one hexagon whose ratios run from 1 (time-like center) at t = 0 to a
    # space-like center at t = 1; every split stays on its geodesic
    lengths = (2.14697, 1.96148, 2.05437)
    r = np.exp(np.outer(t, np.log([0.15306677696454063, 4.883856468517821])))
    ratios = np.column_stack((r, 1.0 / (r[:, 0] * r[:, 1])))
    return face_centers(hexagon_arcs(np.tile(lengths, (len(t), 1)), ratios))


def test_causal_classification():
    ends = _faces_along(np.array([0.0, 1.0]))
    assert ends.branch.tolist() == [TIME, SPACE]
    lo, hi = 0.0, 1.0
    for _ in range(60):  # bisect the sign change of the causal value
        mid = 0.5 * (lo + hi)
        rec = _faces_along(np.array([mid]))
        if rec.branch[0] == LIGHT:
            break
        lo, hi = (mid, hi) if rec.branch[0] == TIME else (lo, mid)
    assert rec.branch[0] == LIGHT and abs(causal_value(rec)[0]) <= TAU_CAUSAL
    # a light-like center has no domain, h or q
    assert rec.domain[0] == NO_DOMAIN and not rec.h.any() and not rec.q.any()


def test_causal_class_boost_invariant():
    # relabeling the corners moves the canonical embedding by a Lorentz
    # transformation: the causal class stays, h and q turn with the corners
    rng = np.random.default_rng(2)
    lengths = rng.uniform(0.3, 2.5, (300, 3))
    r = np.exp(rng.uniform(-2.0, 2.0, (300, 2)))
    ratios = np.column_stack((r, 1.0 / (r[:, 0] * r[:, 1])))
    rec = face_centers(hexagon_arcs(lengths, ratios))
    turned = face_centers(hexagon_arcs(lengths[:, [1, 2, 0]], ratios[:, [1, 2, 0]]))
    sure = (rec.domain >= 0) & (np.abs(causal_value(rec)) > 1e-6)
    assert sure.sum() > 100
    assert np.array_equal(rec.branch[sure], turned.branch[sure])
    assert np.allclose(rec.h[sure][:, [1, 2, 0]], turned.h[sure], atol=1e-9)
    assert np.allclose(rec.q[sure][:, [1, 2, 0]], turned.q[sure], atol=1e-9)


def test_right_angle_identity():
    # legs through a hyperboloid point x along orthogonal tangents
    rng = random.Random(4)
    for _ in range(300):
        a, phi = rng.uniform(-1.5, 1.5), rng.uniform(0, 2 * math.pi)
        x = V(math.sinh(a) * math.cos(phi), math.sinh(a) * math.sin(phi), math.cosh(a))
        t1 = V(-math.sin(phi), math.cos(phi), 0.0)
        t2 = V(math.cosh(a) * math.cos(phi), math.cosh(a) * math.sin(phi), math.sinh(a))
        r, s = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        y = math.cosh(r) * x + math.sinh(r) * t1
        z = math.sinh(s) * x + math.cosh(s) * t2  # space-like far endpoint
        lhs = -_mdot(z, y)
        rhs = _mdot(z, x) * _mdot(x, y)
        assert abs(lhs - rhs) < 1e-10
