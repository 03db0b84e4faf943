"""Shared fixtures: mesh generators, structure specs, admissible samplers."""

import math
import random

from hexcurv import curvature, solver
from hexcurv.conformal import StructureSpec, admissible, chart, f_from_u
from hexcurv.errors import HexcurvError
from hexcurv.identities import sample_face_points, stock_spec
from hexcurv.mesh import Edge, Face, Triangulation, pair_of_pants, single_face


def sphere_triangulation(n_vertices, rng):
    """Random triangulated sphere by repeated vertex insertion.

    Ideal triangulations derived this way have every edge interior.
    """
    assert n_vertices >= 4
    faces = [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0)]
    nv = 4
    while nv < n_vertices:
        idx = rng.randrange(len(faces))
        a, b, c = faces.pop(idx)
        v = nv
        nv += 1
        faces.extend([(a, b, v), (b, c, v), (c, a, v)])
    edge_ids = {}
    edges = []

    def eid(a, b):
        key = (min(a, b), max(a, b))
        if key not in edge_ids:
            edge_ids[key] = len(edges)
            edges.append(Edge(edge_ids[key], key[0], key[1]))
        return edge_ids[key]

    face_objs = []
    for fi, (a, b, c) in enumerate(faces):
        face_objs.append(Face(fi, (a, b, c), (eid(a, b), eid(b, c), eid(c, a))))
    return Triangulation(nv, edges, face_objs)


def pick_special(tri, rng, want=None):
    """Greedy special set: no two specials share a face."""
    order = list(range(tri.n_boundary))
    rng.shuffle(order)
    special = set()
    blocked = set()
    for v in order:
        if v in blocked:
            continue
        special.add(v)
        for face in tri.faces:
            if v in face.vertices:
                blocked.update(face.vertices)
        if want is not None and len(special) >= want:
            break
    return frozenset(special)


def make_spec(family, tri, rng, regime="default"):
    """A structure spec in a weight window where the theory is clean.

    Mixed families default to windows where the per-edge split regime is
    uniform across the admissible set (no interior Jacobian folds).
    """
    n = tri.n_boundary
    if family == "A1":
        alpha = {i: rng.choice([0, 0, 1]) for i in range(n)}
        if regime == "alpha-neg":
            alpha = {i: rng.choice([0, 1, -1]) for i in range(n)}
        eta = {}
        for e in tri.edges:
            lo = 1.2 if (alpha[e.a] == alpha[e.b] and alpha[e.a] != 0) else 0.8
            eta[e.id] = rng.uniform(lo, lo + 3.0)
        return StructureSpec("A1", alpha, eta)
    if family == "A2":
        eta = {e.id: rng.uniform(-0.9, -0.05) for e in tri.edges}
        if regime == "eta-pos":
            eta = {e.id: rng.uniform(0.5, 3.0) for e in tri.edges}
        return StructureSpec("A2", {i: -1 for i in range(n)}, eta)
    if family == "A3":
        eta = {e.id: rng.uniform(0.8, 4.0) for e in tri.edges}
        return StructureSpec("A3", {i: 0 for i in range(n)}, eta)
    special = pick_special(tri, rng)
    if family == "MixedIII":
        # A-edges positive, edges at special components strongly negative
        eta = {}
        for e in tri.edges:
            if e.a in special or e.b in special:
                eta[e.id] = rng.uniform(-6.0, -3.5)
            else:
                eta[e.id] = rng.uniform(0.8, 3.0)
        return StructureSpec("MixedIII", {i: 0 for i in range(n)}, eta,
                             special=special)
    if family == "MixedII":
        eta = {e.id: 1.0 for e in tri.edges}
        return StructureSpec("MixedII", {i: -1 for i in range(n)}, eta,
                             special=special)
    if family == "MixedI":
        if regime == "definite":
            # special components alpha=-1, others alpha=+1, B-weights
            # strongly negative: uniformly definite window
            alpha = {i: (-1 if i in special else 1) for i in range(n)}
            eta = {}
            for e in tri.edges:
                if e.a in special or e.b in special:
                    eta[e.id] = rng.uniform(-5.0, -3.0)
                else:
                    eta[e.id] = rng.uniform(1.5, 3.0)
            return StructureSpec("MixedI", alpha, eta, special=special)
        # solvable window: alpha in {0,1}, never both plain corners 1
        alpha = {i: 0 for i in range(n)}
        for face in tri.faces:
            others = [v for v in face.vertices if v not in special]
            if len(set(others)) == 2 and all(alpha[v] == 0 for v in others):
                if rng.random() < 0.4:
                    alpha[rng.choice(others)] = 1
        for v in special:
            alpha[v] = rng.choice([0, 1])
        # keep each face's plain pair off (1,1)
        for face in tri.faces:
            others = [v for v in face.vertices if v not in special]
            if len(others) >= 2 and all(alpha[v] == 1 for v in others):
                alpha[others[0]] = 0
        eta = {e.id: rng.uniform(0.8, 3.0) for e in tri.edges}
        return StructureSpec("MixedI", alpha, eta, special=special)
    raise ValueError(family)


def sample_admissible_u(spec, tri, rng, n=1, scale=1.0, max_tries=20000):
    """Random admissible u points near the feasible default."""
    u0 = solver.default_initial(spec, tri)
    out = []
    tries = 0
    while len(out) < n and tries < max_tries:
        tries += 1
        s = scale * rng.uniform(0.1, 1.0)
        u = {}
        for i in u0:
            ch = chart(spec, i)
            ui = u0[i] + rng.uniform(-s, s)
            if not ch.contains(ui):
                ui = u0[i]
            u[i] = ui
        if admissible(spec, tri, u).ok:
            out.append(u)
    if len(out) < n:
        raise RuntimeError(
            f"sampler found {len(out)}/{n} admissible points for {spec.family}"
        )
    return out if n > 1 else out


def sample_admissible_f(spec, tri, rng, n=1, scale=1.0):
    return [f_from_u(spec, u) for u in sample_admissible_u(spec, tri, rng, n, scale)]


ALL_FAMILIES = ("A1", "A2", "A3", "MixedI", "MixedII", "MixedIII")


def branch_samples(rng, want, families=ALL_FAMILIES, cap=40000):
    """(spec, f) samples bucketed by the face-center causal branch."""
    tri = single_face()
    buckets = {"time-like": [], "space-like": []}
    tries = 0
    while (min(len(b) for b in buckets.values()) < want) and tries < cap:
        tries += 1
        fam = rng.choice(families)
        spec = stock_spec(fam)
        pts = sample_face_points(spec, tri, rng, 1, scale=1.2)
        if not pts:
            continue
        f = f_from_u(spec, pts[0])
        try:
            fd = curvature.face_derivatives(spec, tri, tri.faces[0], f)
        except HexcurvError:
            continue
        if fd.branch in buckets and len(buckets[fd.branch]) < want:
            buckets[fd.branch].append((spec, f, fd))
    return buckets


def light_like_samples(rng, want, cap=4000):
    """Bisect between branches to land within the causal tolerance band."""
    tri = single_face()
    face = tri.faces[0]
    out = []
    tries = 0
    while len(out) < want and tries < cap:
        tries += 1
        fam = rng.choice(("A1", "A2", "MixedII", "MixedIII"))
        spec = stock_spec(fam)
        pts = sample_face_points(spec, tri, rng, 2, scale=1.2)
        if len(pts) < 2:
            continue
        f0, f1 = (f_from_u(spec, p) for p in pts)
        try:
            s0 = curvature.face_derivatives(spec, tri, face, f0).sigma
            s1 = curvature.face_derivatives(spec, tri, face, f1).sigma
        except HexcurvError:
            continue
        if s0 * s1 >= 0.0:
            continue
        lo, hi = 0.0, 1.0
        for _ in range(70):
            mid = 0.5 * (lo + hi)
            fm = {i: f0[i] + mid * (f1[i] - f0[i]) for i in f0}
            try:
                sm = curvature.face_derivatives(spec, tri, face, fm).sigma
            except HexcurvError:
                break
            if abs(sm) <= 1e-12:
                break
            if (sm > 0) == (s1 > 0):
                hi = mid
            else:
                lo = mid
        fm = {i: f0[i] + 0.5 * (lo + hi) * (f1[i] - f0[i]) for i in f0}
        try:
            fd = curvature.face_derivatives(spec, tri, face, fm)
        except HexcurvError:
            continue
        if fd.branch == "light-like":
            out.append((spec, fm, fd))
    return out
