"""Boundary curvature and its analytic Jacobian on a triangulated surface.

The curvature vector (total arc length per boundary component), the
sparse global u-Jacobian, and a definiteness check.  Every face is
evaluated one way: the edge program of the mesh record
(conformal.spec_arrays(spec, tri).program) feeds the kernel's theta stage
(_kernels.face_theta), whose edge pass evaluates each edge once by its own
rule, and its derivative stage (_kernels.face_eval), the cosine-law chain
rule.  Only f is converted per call; f is a mapping or an array indexed by
component.  curvature_and_arcs keeps the theta stage beside K and raises
for a failing face; one helper, _jacobian, builds every Jacobian from it
without a second theta pass or a second check, and the Newton solver
evaluates each trial point that way.  _jacobian sums the face blocks
under the slot map of a layout the mesh keeps (mesh.Layout, both built by
mesh.make_layout) into a copy of the layout's array, which owns its
arrays; curvature_and_jacobian reads the natural layout, the solver the
elimination order's, with the same bits per entry.  Only the theta stage
can fail, so a point whose K evaluates also has a Jacobian.  The record
validates the spec when it is built, so evaluation raises only for the
faces.  On a mesh of one face with three distinct corners, K
is that face's arc triple and the Jacobian its 3 x 3 u-Jacobian;
face_eval(arcs, ones) gives d theta / d f, and
_kernels.center.face_centers(arcs) the face's hexagon geometry with the
paper's center-distance formula, which the identity suites check.
"""

from __future__ import annotations

import numpy as np

from . import tol
from ._kernels import BAD_ARC, BAD_EDGE, BAD_RANGE, OK, face_eval, face_theta
from .conformal import StructureSpec, component_values, spec_arrays
from .errors import NotAdmissible

_ERRORS = {
    BAD_EDGE: (NotAdmissible, "edge position {} degenerates"),
    BAD_RANGE: (NotAdmissible, "factor magnitudes exceed the evaluable range"),
    BAD_ARC: (NotAdmissible, "arc {} vanishes"),
}


def _raise_first(ids, arcs):
    """Raise for the first failing face of arcs, and its first failing
    check; ids are the face ids of the faces of arcs.  The program's kept
    all-OK status itself means none failed; only a fresh one is searched."""
    status, bad = arcs.status, arcs.bad
    if status is arcs.prog.status or not status.any():
        return
    k = int(np.argmax(status != OK))
    cls, text = _ERRORS[int(status[k])]
    exc = cls(f"face {ids[k]}: " + text.format(int(bad[k])))
    if status[k] == BAD_EDGE:
        exc.edge = int(bad[k])
    raise exc


def _sums(index, values, n) -> np.ndarray:
    """values summed per index; each sum adds its values in input order."""
    out = np.bincount(index.ravel(), weights=values.ravel(), minlength=n)
    return out.astype(float, copy=False)  # without faces bincount gives ints


def curvature_and_arcs(spec: StructureSpec, tri, f) -> tuple:
    """(K, arcs): the total boundary-arc length per boundary component and
    the kernel's theta stage, which _jacobian reuses."""
    arcs = face_theta(spec_arrays(spec, tri).program, component_values(f, tri.n_boundary))
    _raise_first(tri.face_ids, arcs)
    return _sums(arcs.prog.vert, arcs.theta, tri.n_boundary), arcs


def curvature_map(spec: StructureSpec, tri, f) -> np.ndarray:
    """Total boundary-arc length per boundary component."""
    return curvature_and_arcs(spec, tri, f)[0]


def _jacobian(arcs, du, layout):
    """The u-Jacobian from the theta stage at f, du being df/du at f, in a
    layout of the mesh (tri.jacobian_layout for J, tri.jacobian_order for
    P J P^T): the face blocks summed into its slots in face order, the same
    bits per entry in every layout, in a new array of layout.matrix's class
    with its checked format flags and its own copies of the index arrays.
    The arcs must have evaluated: curvature_and_arcs raised for a failing
    face."""
    kept = layout.matrix
    jac = object.__new__(type(kept))
    jac.__dict__.update(vars(kept), data=_sums(layout.slot, face_eval(arcs, du), len(kept.data)),
                        indices=kept.indices.copy(), indptr=kept.indptr.copy())
    return jac


def curvature_and_jacobian(spec: StructureSpec, tri, f):
    """K and its u-Jacobian (N x N scipy CSC array, one stored entry per
    pair of components that share a face) from one theta pass; f outside
    the domain of df/du raises before any face is evaluated."""
    fv = component_values(f, tri.n_boundary)
    du = spec_arrays(spec, tri).cov.derivative(fv)
    K, arcs = curvature_and_arcs(spec, tri, fv)
    return K, _jacobian(arcs, du, tri.jacobian_layout)


def is_negative_definite(mat: np.ndarray) -> bool:
    """Whether every eigenvalue of the symmetrized dense matrix lies below
    -TAU_EIG * max(1, ||mat||)."""
    mat = np.asarray(mat, dtype=float)
    margin = tol.TAU_EIG * max(1.0, np.linalg.norm(mat))
    return bool(np.linalg.eigvalsh((mat + mat.T) / 2.0).max() < -margin)
