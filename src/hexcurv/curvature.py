"""Boundary curvature and its analytic derivatives on a triangulated surface.

Per-face boundary-arc lengths, the curvature vector (total arc length per
boundary component), per-face 3x3 derivative matrices in both f and u
coordinates, sparse global Jacobian assembly, and definiteness checks.

The release derivative path is the kernel's cosine-law chain rule
(_kernels.face_eval).  The paper's center-distance formula
(_kernels.center.face_centers) is a diagnostic: face_derivatives returns
its matrix, causal branch and causal value beside the release matrix, and
the identity suites check one against the other.  The mesh-wide maps read
the kernel inputs from conformal.spec_arrays, so only f is converted per
call; f is a mapping or an array indexed by component.
curvature_and_arcs keeps the kernel's theta stage beside K, and
jacobian_from_arcs builds the Jacobian from it without a second theta
pass; the Newton solver evaluates each trial point that way.  Only the
theta stage can fail, so a point whose K evaluates also has a Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import tol
from ._kernels import _NEXT, BAD_ARC, BAD_EDGE, BAD_RANGE, LIGHT, OK, SPACE, TIME
from ._kernels import BAD_CENTER, BAD_HEIGHT, BAD_SPLIT, face_eval, face_theta
from ._kernels.center import face_centers
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
    BAD_ARC: (NotAdmissible, "arc {} vanishes"),
}
_ONE_FACE = np.array([[0, 1, 2]])


def _face_arcs(spec: StructureSpec, face, f) -> tuple:
    """(theta stage, factors, double-special flags) of one face, its corners
    indexed 0, 1, 2; raises for a failing theta stage."""
    fv = np.array([f[v] for v in face.vertices], dtype=float)
    vert, codes, alphas, etas, double = kernel_inputs(
        spec, face.vertices, face.edge_ids, _ONE_FACE, _ONE_FACE)
    arcs = face_theta(vert, codes, alphas, etas, fv)
    _raise_first([face], arcs.status, arcs.bad, double)
    return arcs, fv, double


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
    return tuple(_face_arcs(spec, face, f)[0].theta[0].tolist())


@dataclass
class FaceDerivatives:
    theta: tuple
    dtheta_df: np.ndarray  # 3x3 by the cosine law, rows = arcs, cols = factors
    jac_u: np.ndarray  # 3x3 in u coordinates
    center_df: np.ndarray  # 3x3 dtheta_df by the center-distance formula
    branch: str  # face-center causal class
    sigma: float  # normalized causal value of the face center


def face_derivatives(spec: StructureSpec, tri, face, f) -> FaceDerivatives:
    """Both derivative matrices of one face, with its face center; raises
    for the first failing check, those of the face center included."""
    arcs, fv, double = _face_arcs(spec, face, f)
    status, bad, branch, sigma, center = face_centers(arcs)
    _raise_first([face], status, bad, double)
    m = face_eval(arcs, np.ones(3))[0]
    du = ChangeOfVariables(spec, face.vertices).derivative(fv)
    return FaceDerivatives(tuple(arcs.theta[0].tolist()), m, m * du[np.newaxis, :],
                           center[0], _BRANCH_NAME[int(branch[0])], float(sigma[0]))


def dtheta_df(spec: StructureSpec, tri, face, f) -> np.ndarray:
    return face_eval(_face_arcs(spec, face, f)[0], np.ones(3))[0]


def face_jacobian_u(spec: StructureSpec, tri, face, f) -> np.ndarray:
    arcs, fv, _ = _face_arcs(spec, face, f)
    return face_eval(arcs, ChangeOfVariables(spec, face.vertices).derivative(fv))[0]


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
    at f.  Raises for the first failing face of the theta stage."""
    _raise_first(tri.faces, arcs.status, arcs.bad, spec_arrays(spec, tri).kernel[4])
    slot, rows, colptr = tri.jacobian_pattern
    n = tri.n_boundary
    jac = face_eval(arcs, du)
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
