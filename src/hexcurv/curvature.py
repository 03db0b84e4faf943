"""Boundary curvature and its analytic derivatives on a triangulated surface.

Per-face boundary-arc lengths, the curvature vector (total arc length per
boundary component), per-face 3x3 derivative matrices in both f and u
coordinates, sparse global Jacobian assembly, and definiteness checks.

The release derivative path runs through the evaluation kernel (edge
splits, hyperboloid embedding, face-center distance ratios, and the
reciprocal-cosh identity for the diagonal).  An independent chain-rule
path through the cosine law is kept as the test oracle.  The mesh-wide
maps read the kernel inputs from conformal.spec_arrays, so only f is
converted per call; f is a mapping or an array indexed by component.
curvature_and_arcs keeps the kernel's theta stage beside K, and
jacobian_from_arcs builds the Jacobian from it without a second theta
pass; the Newton solver evaluates each trial point that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import tol
from ._kernels import _NEXT, BAD_EDGE, BAD_RANGE, LIGHT, OK, SPACE, TIME
from ._kernels import BAD_CENTER, BAD_HEIGHT, BAD_SPLIT, face_eval, face_theta
from .conformal import ChangeOfVariables, StructureSpec, component_values, edge_code
from .conformal import kernel_inputs, spec_arrays
from .errors import (
    FamilyConstraint,
    IncompatibleSplits,
    InconsistentRatio,
    NotAdmissible,
    SingularHeight,
)

_BRANCH_NAME = {TIME: "time-like", SPACE: "space-like", LIGHT: "light-like"}
_ERRORS = {
    BAD_EDGE: (NotAdmissible, "edge position {} degenerates"),
    BAD_SPLIT: (InconsistentRatio, "split {} degenerates"),
    BAD_CENTER: (IncompatibleSplits, "no face center"),
    BAD_HEIGHT: (SingularHeight, "face center sits on edge geodesic {}"),
    BAD_RANGE: (NotAdmissible, "factor magnitudes exceed the evaluable range"),
}
_ONE_FACE = np.array([[0, 1, 2]])


def _face_inputs(spec: StructureSpec, face, f) -> tuple:
    """(kernel inputs, factors) of one face, its corners indexed 0, 1, 2."""
    fv = np.array([f[v] for v in face.vertices], dtype=float)
    return kernel_inputs(spec, face.vertices, face.edge_ids, _ONE_FACE, _ONE_FACE), fv


def _raise_first(faces, status, bad, double):
    """Raise for the first failing face, and its first failing check."""
    failing = (status != OK) | double.any(axis=1)
    if not failing.any():
        return
    k = int(np.argmax(failing))
    face = faces[k]
    if double[k].any():
        m = int(np.argmax(double[k]))
        a, b = face.vertices[m], face.vertices[_NEXT[m]]
        raise FamilyConstraint(f"edge ({a},{b}) joins two special components")
    cls, text = _ERRORS[int(status[k])]
    exc = cls(f"face {face.id}: " + text.format(int(bad[k])))
    if status[k] == BAD_EDGE:
        exc.edge = int(bad[k])
    raise exc


def face_edge_args(spec: StructureSpec, face, f) -> list:
    """(code, alpha_a, alpha_b, f_a, f_b, eta) of each edge of one face."""
    vs = face.vertices
    return [
        (edge_code(spec, vs[m], vs[_NEXT[m]]), spec.alpha[vs[m]],
         spec.alpha[vs[_NEXT[m]]], f[vs[m]], f[vs[_NEXT[m]]],
         spec.eta[face.edge_ids[m]])
        for m in range(3)
    ]


def face_angles(spec: StructureSpec, tri, face, f) -> tuple:
    """Boundary-arc triple of one face at factor values f."""
    (vert, codes, alphas, etas, double), fv = _face_inputs(spec, face, f)
    arcs = face_theta(vert, codes, alphas, etas, fv)
    _raise_first([face], arcs.status, arcs.bad, double)
    return tuple(arcs.theta[0].tolist())


@dataclass
class FaceDerivatives:
    theta: tuple
    dtheta_df: np.ndarray  # 3x3, rows = arcs, cols = factors
    jac_u: np.ndarray  # 3x3 in u coordinates
    branch: str  # face-center causal class
    sigma: float  # normalized causal value of the face center


def face_derivatives(spec: StructureSpec, tri, face, f) -> FaceDerivatives:
    (vert, codes, alphas, etas, double), fv = _face_inputs(spec, face, f)
    status, bad, theta, jac, branch, sigma = face_eval(
        face_theta(vert, codes, alphas, etas, fv), np.ones(3)
    )
    _raise_first([face], status, bad, double)
    m = jac[0]
    du = ChangeOfVariables(spec, face.vertices).derivative(fv)
    return FaceDerivatives(tuple(theta[0].tolist()), m, m * du[np.newaxis, :],
                           _BRANCH_NAME[int(branch[0])], float(sigma[0]))


def dtheta_df(spec: StructureSpec, tri, face, f) -> np.ndarray:
    return face_derivatives(spec, tri, face, f).dtheta_df


def face_jacobian_u(spec: StructureSpec, tri, face, f) -> np.ndarray:
    return face_derivatives(spec, tri, face, f).jac_u


def dtheta_df_chain(spec: StructureSpec, tri, face, f) -> np.ndarray:
    """Chain-rule oracle for the per-face derivative matrix.

    Differentiates the cosine law through the side lengths, with the
    length-vs-factor derivatives read off the edge splits (the hyper-ideal
    split branch contributes a bounded reciprocal slope).
    """
    ch, coth_ab, coth_ba = [], [], []
    from ._kernels import _core_py as _ref

    for m2, args in enumerate(face_edge_args(spec, face, f)):
        ok, c, rho = _ref._edge_state(*args)
        if not ok or c <= 1.0:
            raise NotAdmissible(f"face {face.id}: edge {m2} degenerates")
        s = math.sqrt((c - 1.0) * (c + 1.0))
        num, den = rho * s, 1.0 + rho * c
        if abs(num) < abs(den):
            t = num / den
            coth_ab.append(1.0 / t)
            coth_ba.append((c - s * t) / (s - c * t))
        elif abs(num) > abs(den):
            w = den / num
            x_ab = math.atanh(w)
            coth_ab.append(math.tanh(x_ab))
            l = math.acosh(c)
            coth_ba.append(math.tanh(l - x_ab))
        else:
            raise InconsistentRatio(f"face {face.id}: split {m2} degenerates")
        ch.append(c)
    sh = [math.sqrt((c - 1.0) * (c + 1.0)) for c in ch]
    # opposite-side lengths: L_a is the side not touching corner a
    L_cosh = (ch[1], ch[2], ch[0])
    L_sinh = (sh[1], sh[2], sh[0])
    cth = [0.0, 0.0, 0.0]
    sth = [0.0, 0.0, 0.0]
    for a in range(3):
        b, cc = (a + 1) % 3, (a + 2) % 3
        cth[a] = (L_cosh[a] + L_cosh[b] * L_cosh[cc]) / (L_sinh[b] * L_sinh[cc])
        sth[a] = math.sqrt((cth[a] - 1.0) * (cth[a] + 1.0))
    dthdl = np.zeros((3, 3))
    for a in range(3):
        b, cc = (a + 1) % 3, (a + 2) % 3
        A = sth[a] * L_sinh[b] * L_sinh[cc]
        dthdl[a, a] = L_sinh[a] / A
        dthdl[a, b] = -cth[cc] * L_sinh[a] / A
        dthdl[a, cc] = -cth[b] * L_sinh[a] / A
    dldf = np.zeros((3, 3))
    # L_0 = side (1,2) = edge 1; L_1 = side (2,0) = edge 2; L_2 = edge 0
    dldf[0, 1], dldf[0, 2] = coth_ab[1], coth_ba[1]
    dldf[1, 2], dldf[1, 0] = coth_ab[2], coth_ba[2]
    dldf[2, 0], dldf[2, 1] = coth_ab[0], coth_ba[0]
    return dthdl @ dldf


def _sums(index, values, n) -> np.ndarray:
    """values summed per index; each sum adds its values in input order."""
    out = np.bincount(index.ravel(), weights=values.ravel(), minlength=n)
    return out.astype(float, copy=False)  # without faces bincount gives ints


def _arcs(spec: StructureSpec, tri, f):
    vert, codes, alphas, etas, _ = spec_arrays(spec, tri).kernel
    return face_theta(vert, codes, alphas, etas, component_values(f, tri.n_boundary))


def curvature_and_arcs(spec: StructureSpec, tri, f) -> tuple:
    """(K, arcs): the total boundary-arc length per boundary component and
    the kernel's theta stage, which jacobian_from_arcs reuses."""
    arcs = _arcs(spec, tri, f)
    _raise_first(tri.faces, arcs.status, arcs.bad, spec_arrays(spec, tri).kernel[4])
    return _sums(arcs.vert, arcs.theta, tri.n_boundary), arcs


def curvature_map(spec: StructureSpec, tri, f) -> np.ndarray:
    """Total boundary-arc length per boundary component."""
    return curvature_and_arcs(spec, tri, f)[0]


def jacobian_from_arcs(spec: StructureSpec, tri, arcs, du):
    """The u-Jacobian (N x N scipy CSC array, one stored entry per pair of
    components that share a face) from the theta stage at f; du is df/du
    at f.  Raises for the first failing face of either stage."""
    status, bad, _, jac, _, _ = face_eval(arcs, du)
    _raise_first(tri.faces, status, bad, spec_arrays(spec, tri).kernel[4])
    slot, rows, colptr = tri.jacobian_pattern
    n = tri.n_boundary
    return scipy.sparse.csc_array((_sums(slot, jac, len(rows)), rows, colptr),
                                  shape=(n, n))


def curvature_and_jacobian(spec: StructureSpec, tri, f):
    """K and its u-Jacobian from one theta pass."""
    fv = component_values(f, tri.n_boundary)
    du = spec_arrays(spec, tri).cov.derivative(fv)
    arcs = _arcs(spec, tri, fv)
    return (_sums(arcs.vert, arcs.theta, tri.n_boundary),
            jacobian_from_arcs(spec, tri, arcs, du))


def is_negative_definite(mat: np.ndarray) -> bool:
    """Whether every eigenvalue of the symmetrized dense matrix lies below
    -TAU_EIG * max(1, ||mat||)."""
    mat = np.asarray(mat, dtype=float)
    margin = tol.TAU_EIG * max(1.0, np.linalg.norm(mat))
    return bool(np.linalg.eigvalsh((mat + mat.T) / 2.0).max() < -margin)
