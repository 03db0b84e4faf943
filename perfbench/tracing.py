"""Span tracing from outside the library.

``Tracer.install`` rebinds, for the duration of a ``with`` block, the names
that hexcurv modules look up at call time (for example ``admissible`` in
``hexcurv.solver`` or ``face_eval`` in ``hexcurv.curvature``) to wrappers
that record one span per call: name, start, end and the id of the span that
was open when the call began.  Spans stay in memory; ``layer_times`` turns
them into per-layer call counts, total time and self time (a span's time
minus the time of its child spans).

A hook whose target name no longer exists is skipped and its layer reports
zero calls, so the tracer survives refactors of the library.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

# (module, attribute, span name).  A function bound under several names is
# wrapped once, so every binding records under the same span name.
HOOKS = (
    ("hexcurv.mesh", "parse", "mesh.parse"),
    ("hexcurv.conformal", "admissible", "conformal.admissible"),
    ("hexcurv.solver", "admissible", "conformal.admissible"),
    ("hexcurv.conformal", "f_from_u", "conformal.f_from_u"),
    ("hexcurv.solver", "f_from_u", "conformal.f_from_u"),
    ("hexcurv.conformal", "u_from_f", "conformal.u_from_f"),
    ("hexcurv.solver", "u_from_f", "conformal.u_from_f"),
    ("hexcurv.curvature", "curvature_map", "curvature.curvature_map"),
    ("hexcurv.solver", "curvature_map", "curvature.curvature_map"),
    ("hexcurv.curvature", "curvature_and_jacobian", "curvature.curvature_and_jacobian"),
    ("hexcurv.solver", "curvature_and_jacobian", "curvature.curvature_and_jacobian"),
    ("hexcurv.curvature", "face_theta", "kernels.face_theta"),
    ("hexcurv.curvature", "face_eval", "kernels.face_eval"),
    ("hexcurv.solver", "default_initial", "solver.default_initial"),
    ("hexcurv.solver", "solve_prescribed_curvature", "solver.solve_prescribed_curvature"),
)

# scipy entry points the solver reaches through its module-level ``scipy``
# name; all of them count as the solver's linear algebra.  ``linalg.solve``
# is only the symmetric-indefinite fallback, so it records under its own name.
LINALG = (
    ("linalg", "cho_factor"),
    ("linalg", "cho_solve"),
    ("linalg", "solve"),
    ("sparse", "csc_matrix"),
    ("sparse.linalg", "spsolve"),
)
INDEFINITE_SOLVE = "solver.linalg.solve"


class _Proxy:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, target, **override):
        self._target = target
        self.__dict__.update(override)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Spans of the hooked calls; ``clock`` gives their start and end times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.jacobian_bytes = 0
        self.admissible_rejects = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, after=None):
        nid = self._id(name)
        clock = self.clock

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[sid] = clock()
            if after is not None:
                after(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _after_admissible(self, out):
        if not out.ok:
            self.admissible_rejects += 1

    def _after_jacobian(self, out):
        jac = out[1]
        parts = [getattr(jac, a, None) for a in ("data", "indices", "indptr")]
        if all(p is not None and hasattr(p, "nbytes") for p in parts):
            size = sum(p.nbytes for p in parts)
        else:
            size = jac.nbytes
        self.jacobian_bytes = max(self.jacobian_bytes, int(size))

    @contextmanager
    def install(self):
        """Rebind the hooked names to tracing wrappers; undo on exit."""
        after = {
            "conformal.admissible": self._after_admissible,
            "curvature.curvature_and_jacobian": self._after_jacobian,
        }
        saved = []
        wrapped = {}
        for modname, attr, name in HOOKS:
            self._id(name)
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.wrap(fn, name, after.get(name))
            saved.append((mod, attr, fn))
            setattr(mod, attr, wrapped[id(fn)])
        solver = importlib.import_module("hexcurv.solver")
        self._id("solver.linalg")
        self._id(INDEFINITE_SOLVE)
        real = getattr(solver, "scipy", None)
        if real is not None:
            saved.append((solver, "scipy", real))
            solver.scipy = self._scipy_proxy()
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def _scipy_proxy(self):
        import scipy.linalg
        import scipy.sparse
        import scipy.sparse.linalg

        subs = {path: {} for path, _ in LINALG}
        for path, fname in LINALG:
            mod = scipy
            for part in path.split("."):
                mod = getattr(mod, part)
            fn = getattr(mod, fname, None)
            if fn is not None:
                name = INDEFINITE_SOLVE if (path, fname) == ("linalg", "solve") \
                    else "solver.linalg"
                subs[path][fname] = self.wrap(fn, name)
        sparse_linalg = _Proxy(scipy.sparse.linalg, **subs["sparse.linalg"])
        return _Proxy(
            scipy,
            linalg=_Proxy(scipy.linalg, **subs["linalg"]),
            sparse=_Proxy(scipy.sparse, linalg=sparse_linalg, **subs["sparse"]),
        )

    def layer_times(self, scale=None) -> dict:
        """{span name: (calls, total seconds, self seconds)} over all spans.

        ``scale(start, end)``, when given, rescales each span's total and
        self time by the factor of the span's own interval.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            factor = scale(self.start[i], self.end[i]) if scale is not None else 1.0
            row = out[self.names[self.name_id[i]]]
            row[0] += 1
            row[1] += dur[i] * factor
            row[2] += (dur[i] - child[i]) * factor
        return {k: tuple(v) for k, v in out.items()}

    def calls_under(self, name: str, parent_name: str) -> int:
        """Number of spans called ``name`` whose parent span is ``parent_name``."""
        nid, pid = self._ids.get(name), self._ids.get(parent_name)
        return sum(
            1 for i in range(len(self.start))
            if self.name_id[i] == nid and self.parent[i] >= 0
            and self.name_id[self.parent[i]] == pid
        )
