"""Minkowski R^{2,1} vector primitives.

Works with the quadratic form x1^2 + x2^2 - x3^2 (metric J = diag(1,1,-1)).
Vectors are plain immutable values; no implicit projective normalization is
performed, callers normalize explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import tol
from .errors import DomainViolation


class CausalClass(Enum):
    TIME_LIKE = "time-like"
    SPACE_LIKE = "space-like"
    LIGHT_LIKE = "light-like"


@dataclass(frozen=True)
class MinkowskiVec:
    x1: float
    x2: float
    x3: float

    def __iter__(self):
        return iter((self.x1, self.x2, self.x3))

    def __add__(self, other: "MinkowskiVec") -> "MinkowskiVec":
        return MinkowskiVec(self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "MinkowskiVec") -> "MinkowskiVec":
        return MinkowskiVec(self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3)

    def __mul__(self, s: float) -> "MinkowskiVec":
        return MinkowskiVec(self.x1 * s, self.x2 * s, self.x3 * s)

    __rmul__ = __mul__

    def __neg__(self) -> "MinkowskiVec":
        return MinkowskiVec(-self.x1, -self.x2, -self.x3)

    def euclidean_norm(self) -> float:
        return math.sqrt(self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3)

    def is_finite(self) -> bool:
        return math.isfinite(self.x1) and math.isfinite(self.x2) and math.isfinite(self.x3)


def minkowski_dot(a: MinkowskiVec, b: MinkowskiVec) -> float:
    """Lorentzian inner product a*b = a1 b1 + a2 b2 - a3 b3."""
    return a.x1 * b.x1 + a.x2 * b.x2 - a.x3 * b.x3


def minkowski_cross(a: MinkowskiVec, b: MinkowskiVec) -> MinkowskiVec:
    """Lorentzian cross product, the Euclidean cross product pushed through J.

    The result is Lorentz-orthogonal to both inputs.
    """
    cx = a.x2 * b.x3 - a.x3 * b.x2
    cy = a.x3 * b.x1 - a.x1 * b.x3
    cz = a.x1 * b.x2 - a.x2 * b.x1
    return MinkowskiVec(cx, cy, -cz)


def causal_class(a: MinkowskiVec, tau: float = tol.TAU_CAUSAL) -> CausalClass:
    """Bucket a vector by the sign of a*a with a light-cone tolerance band."""
    if not a.is_finite():
        raise DomainViolation("causal_class requires finite components")
    q = minkowski_dot(a, a)
    if abs(q) <= tau:
        return CausalClass.LIGHT_LIKE
    return CausalClass.TIME_LIKE if q < 0.0 else CausalClass.SPACE_LIKE
