"""Seeded inputs for the benchmark: sphere meshes, weights, admissible points.

The mesh and weight generators are a copy of the test fixtures
(``tests/helpers.py``), kept here so that edits to the tests cannot change
what the benchmark measures.  Everything is drawn from one
``random.Random`` seeded by the caller, so a seed fixes the inputs.
"""

from __future__ import annotations

import random

from hexcurv import mesh
from hexcurv.conformal import StructureSpec, admissible, chart
from hexcurv.mesh import Edge, Face, Triangulation

FAMILIES = ("A1", "A2", "A3", "MixedI", "MixedII", "MixedIII")
# Seeded points: offsets of up to SPREAD per coordinate, scaled to DEPTH of
# the way from the solver's start to the admissible boundary.  At this depth
# every seed solve converges and about one trial step per solve is rejected.
SPREAD = 2.0
DEPTH = 0.8
BISECTIONS = 8


def sphere_triangulation(n_vertices: int, rng: random.Random) -> Triangulation:
    """Random triangulated sphere by repeated vertex insertion."""
    if n_vertices < 4:
        raise ValueError("a sphere triangulation needs at least 4 vertices")
    faces = [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0)]
    nv = 4
    while nv < n_vertices:
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces.extend([(a, b, nv), (b, c, nv), (c, a, nv)])
        nv += 1
    edge_ids: dict = {}
    edges = []

    def eid(a, b):
        key = (min(a, b), max(a, b))
        if key not in edge_ids:
            edge_ids[key] = len(edges)
            edges.append(Edge(edge_ids[key], key[0], key[1]))
        return edge_ids[key]

    face_objs = [
        Face(fi, (a, b, c), (eid(a, b), eid(b, c), eid(c, a)))
        for fi, (a, b, c) in enumerate(faces)
    ]
    return Triangulation(nv, edges, face_objs)


def pick_special(tri: Triangulation, rng: random.Random) -> frozenset:
    """Greedy special set: no two specials share a face."""
    order = list(range(tri.n_boundary))
    rng.shuffle(order)
    star = [set() for _ in range(tri.n_boundary)]
    for face in tri.faces:
        for v in face.vertices:
            star[v].update(face.vertices)
    special, blocked = set(), set()
    for v in order:
        if v not in blocked:
            special.add(v)
            blocked.update(star[v])
    return frozenset(special)


def make_spec(family: str, tri: Triangulation, rng: random.Random) -> StructureSpec:
    """A spec in the weight window the tests use; MixedI in its definite regime."""
    n = tri.n_boundary
    if family == "A1":
        alpha = {i: rng.choice([0, 0, 1]) for i in range(n)}
        eta = {}
        for e in tri.edges:
            lo = 1.2 if (alpha[e.a] == alpha[e.b] and alpha[e.a] != 0) else 0.8
            eta[e.id] = rng.uniform(lo, lo + 3.0)
        return StructureSpec("A1", alpha, eta)
    if family == "A2":
        eta = {e.id: rng.uniform(-0.9, -0.05) for e in tri.edges}
        return StructureSpec("A2", {i: -1 for i in range(n)}, eta)
    if family == "A3":
        eta = {e.id: rng.uniform(0.8, 4.0) for e in tri.edges}
        return StructureSpec("A3", {i: 0 for i in range(n)}, eta)
    special = pick_special(tri, rng)
    touches = [e.a in special or e.b in special for e in tri.edges]
    if family == "MixedIII":
        eta = {e.id: rng.uniform(-6.0, -3.5) if t else rng.uniform(0.8, 3.0)
               for e, t in zip(tri.edges, touches)}
        return StructureSpec("MixedIII", {i: 0 for i in range(n)}, eta,
                             special=special)
    if family == "MixedII":
        return StructureSpec("MixedII", {i: -1 for i in range(n)},
                             {e.id: 1.0 for e in tri.edges}, special=special)
    if family == "MixedI":
        alpha = {i: (-1 if i in special else 1) for i in range(n)}
        eta = {e.id: rng.uniform(-5.0, -3.0) if t else rng.uniform(1.5, 3.0)
               for e, t in zip(tri.edges, touches)}
        return StructureSpec("MixedI", alpha, eta, special=special)
    raise ValueError(f"unknown family {family!r}")


def mesh_text(family: str, n: int, rng: random.Random) -> str:
    """Serialized mesh file of a seeded sphere with a seeded spec."""
    tri = sphere_triangulation(n, rng)
    return mesh.serialize(tri, make_spec(family, tri, rng))


def admissible_point(spec, tri, rng: random.Random, u0: dict) -> dict:
    """A seeded admissible u between the solver's default start and the
    boundary of the admissible set.

    u0 is the solver's default start.  Each coordinate of the offset d is
    drawn from [-SPREAD, SPREAD] (coordinates that would leave their chart
    stay put).  The point is u0 + DEPTH * t * d, where t <= 1 is how far the
    segment u0 + t d stays admissible, found by bisection; the admissible
    set is convex and holds u0, so the point is admissible and its depth
    does not depend on N.
    """
    d = {}
    for i, ui in u0.items():
        di = rng.uniform(-SPREAD, SPREAD)
        d[i] = di if chart(spec, i).contains(ui + di) else 0.0

    def ok(t):
        return admissible(spec, tri, {i: u0[i] + t * d[i] for i in u0}).ok

    lo, hi = (1.0, 1.0) if ok(1.0) else (0.0, 1.0)
    for _ in range(BISECTIONS if lo < hi else 0):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    u = {i: u0[i] + DEPTH * lo * d[i] for i in u0}
    if not admissible(spec, tri, u).ok:
        raise RuntimeError("seeded point is not admissible")
    return u
