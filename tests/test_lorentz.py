import math
import random

import pytest

from hexcurv.errors import DomainViolation
from hexcurv.lorentz import (
    CausalClass,
    MinkowskiVec,
    causal_class,
    minkowski_cross,
    minkowski_dot,
)

V = MinkowskiVec


def boost(phi):
    c, s = math.cosh(phi), math.sinh(phi)
    return lambda v: V(c * v.x1 + s * v.x3, v.x2, s * v.x1 + c * v.x3)


def test_dot_basics():
    assert minkowski_dot(V(1, 0, 0), V(1, 0, 0)) == 1.0
    assert minkowski_dot(V(0, 0, 1), V(0, 0, 1)) == -1.0
    assert minkowski_dot(V(1, 0, 1), V(1, 0, 1)) == 0.0


def test_dot_symmetric_bilinear():
    rng = random.Random(0)
    for _ in range(200):
        a = V(*(rng.uniform(-3, 3) for _ in range(3)))
        b = V(*(rng.uniform(-3, 3) for _ in range(3)))
        assert minkowski_dot(a, b) == minkowski_dot(b, a)
        s = rng.uniform(-2, 2)
        assert minkowski_dot(s * a, b) == pytest.approx(s * minkowski_dot(a, b), rel=1e-14)


def test_cross_basis_and_antisymmetry():
    c = minkowski_cross(V(1, 0, 0), V(0, 1, 0))
    assert (c.x1, c.x2, c.x3) == (0.0, 0.0, -1.0)
    a = V(0.3, -1.2, 0.7)
    z = minkowski_cross(a, a)
    assert (z.x1, z.x2, z.x3) == (0.0, 0.0, 0.0)
    d = minkowski_cross(V(1, 0, 0), V(0, 0, 1))
    assert minkowski_dot(d, V(1, 0, 0)) == 0.0


def test_cross_orthogonality_property():
    rng = random.Random(1)
    for _ in range(300):
        a = V(*(rng.uniform(-2, 2) for _ in range(3)))
        b = V(*(rng.uniform(-2, 2) for _ in range(3)))
        c = minkowski_cross(a, b)
        m = max(1.0, a.euclidean_norm() * b.euclidean_norm())
        assert abs(minkowski_dot(c, a)) < 1e-13 * m * m
        assert abs(minkowski_dot(c, b)) < 1e-13 * m * m


def test_causal_classification():
    assert causal_class(V(0, 0, 1)) is CausalClass.TIME_LIKE
    assert causal_class(V(2, 0, 1)) is CausalClass.SPACE_LIKE
    assert causal_class(V(1, 0, 1)) is CausalClass.LIGHT_LIKE
    with pytest.raises(DomainViolation):
        causal_class(V(math.inf, 0, 0))


def test_causal_class_boost_invariant():
    rng = random.Random(2)
    vecs = [V(0, 0, 1), V(2, 0, 1), V(1, 0, 1), V(0.3, 0.4, 0.5), V(1, 1, -1.5)]
    for v in vecs:
        cls = causal_class(v)
        for _ in range(20):
            phi = rng.uniform(-2, 2)
            assert causal_class(boost(phi)(v)) is cls


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
        lhs = -minkowski_dot(z, y)
        rhs = minkowski_dot(z, x) * minkowski_dot(x, y)
        assert abs(lhs - rhs) < 1e-10
