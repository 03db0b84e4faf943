"""Combinatorial surface: boundary components, ideal edges, hexagonal faces.

The text format is line based, one record per line, `#` comments:

    format 1
    v <id> alpha=<-1|0|1>
    e <id> <a> <b> eta=<real>
    f <id> <va> <vb> <vc> <ea> <eb> <ec>
    structure family=<tag> [special=<id,...>] [open-edges]

Face edge ids are listed so that <ea> joins (va, vb), <eb> joins (vb, vc)
and <ec> joins (vc, va).  Multi-edges and loop edges are allowed; a face
may repeat a boundary component (validation warns, does not reject).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .conformal import StructureSpec, validate_spec
from .errors import DanglingReference, FamilyConstraint, MeshFormatError, OutOfRange

FORMAT_VERSION = 1


def elimination_order(rows, colptr) -> tuple:
    """(order, gather, rows, column pointers, diagonal) of a square pattern
    given in canonical CSC form.

    order is the column order SuperLU's splu picks with MMD_AT_PLUS_A (the
    minimum-degree order of A + A^T, then its elimination-tree postorder),
    as an index array: P A P^T = A[order][:, order].  A's CSC data indexed
    by gather is the CSC data of P A P^T under the returned rows and column
    pointers (C ints, as SuperLU takes them, so no factorization converts
    them); diagonal holds the positions of the diagonal entries in that
    data, column by column, and is shorter than the order where the pattern
    lacks some.  The order depends on the pattern alone, so it is read off a
    column diagonally dominant matrix with the pattern plus the diagonal,
    which factors without pivoting.
    """
    n = len(colptr) - 1
    col = np.repeat(np.arange(n), np.diff(colptr))
    off, diag = rows != col, np.arange(n)
    data = np.concatenate((np.full(off.sum(), -1.0),
                           np.bincount(col[off], minlength=n) + 1.0))
    dominant = scipy.sparse.csc_array(
        (data, (np.concatenate((rows[off], diag)), np.concatenate((col[off], diag)))),
        shape=(n, n))
    position = scipy.sparse.linalg.splu(
        dominant, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True}).perm_c
    new_rows, new_cols = position[rows], position[col]
    gather = np.lexsort((new_rows, new_cols))
    new_rows, new_cols = new_rows[gather], new_cols[gather]
    new_colptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(np.bincount(new_cols, minlength=n), out=new_colptr[1:])
    return (np.argsort(position), gather, new_rows.astype(np.intc), new_colptr,
            np.flatnonzero(new_rows == new_cols))


@dataclass(frozen=True)
class Edge:
    id: int
    a: int
    b: int


@dataclass(frozen=True)
class Face:
    id: int
    vertices: tuple  # (vi, vj, vk)
    edge_ids: tuple  # (e_ij, e_jk, e_ki)


@dataclass
class Triangulation:
    n_boundary: int
    edges: list
    faces: list
    open_edges: bool = False
    warnings: list = field(default_factory=list)
    edge_by_id: dict = field(init=False)
    # the conformal.SpecArrays of the last spec, kept by conformal.spec_arrays
    spec_memo: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.edge_by_id = {e.id: e for e in self.edges}
        self._validate()

    def _validate(self):
        counts = {e.id: 0 for e in self.edges}
        for face in self.faces:
            if len(face.vertices) != 3 or len(face.edge_ids) != 3:
                raise DanglingReference(f"face {face.id} is not a triangle record")
            for v in face.vertices:
                if not (0 <= v < self.n_boundary):
                    raise DanglingReference(
                        f"face {face.id} references unknown vertex {v}"
                    )
            vi, vj, vk = face.vertices
            expect = [(vi, vj), (vj, vk), (vk, vi)]
            for eid, (a, b) in zip(face.edge_ids, expect):
                if eid not in self.edge_by_id:
                    raise DanglingReference(
                        f"face {face.id} references unknown edge {eid}"
                    )
                e = self.edge_by_id[eid]
                if {e.a, e.b} != {a, b}:
                    raise DanglingReference(
                        f"face {face.id}: edge {eid} joins ({e.a},{e.b}), "
                        f"expected ({a},{b})"
                    )
                counts[eid] += 1
            if len(set(face.vertices)) < 3:
                self.warnings.append(
                    f"face {face.id} repeats a boundary component"
                )
        # a component on no face has K identically 0 and an empty Jacobian row
        on_faces = {v for face in self.faces for v in face.vertices}
        orphans = [v for v in range(self.n_boundary) if v not in on_faces]
        if orphans:
            raise DanglingReference(f"boundary component {orphans[0]} lies on no face")
        for e in self.edges:
            if not (0 <= e.a < self.n_boundary and 0 <= e.b < self.n_boundary):
                raise DanglingReference(f"edge {e.id} references unknown vertex")
            c = counts[e.id]
            if c == 0 or c > 2:
                raise DanglingReference(
                    f"edge {e.id} belongs to {c} faces; expected 1 or 2"
                )
            if c == 1 and not self.open_edges:
                raise FamilyConstraint(
                    f"edge {e.id} is open; add the open-edges flag to accept"
                )
        if not self.open_edges and 2 * len(self.edges) != 3 * len(self.faces):
            raise FamilyConstraint(
                "closed-surface count 2|E| = 3|F| fails; "
                "add the open-edges flag to accept"
            )

    @cached_property
    def edge_arrays(self) -> tuple:
        """(ids, ends a, ends b) of the edges in edge-list order; built on first use."""
        return tuple(np.fromiter(map(attrgetter(name), self.edges), np.intp, len(self.edges))
                     for name in ("id", "a", "b"))

    @cached_property
    def face_arrays(self) -> tuple:
        """(F x 3 vertex ids, F x 3 positions of the face edges in the edge
        list) in face order; built on first use."""
        pos = {eid: k for k, eid in enumerate(self.edge_arrays[0].tolist())}
        vert = np.array([f.vertices for f in self.faces], dtype=np.intp)
        epos = np.array([[pos[e] for e in f.edge_ids] for f in self.faces],
                        dtype=np.intp)
        return vert.reshape(-1, 3), epos.reshape(-1, 3)

    @cached_property
    def jacobian_pattern(self) -> tuple:
        """(slot of each F x 3 x 3 face-block entry, row indices, column
        pointers) of the u-Jacobian in canonical CSC form, built on first use;
        entries at one (row, column), as in a face repeating a component,
        share a slot.  It depends on the mesh alone, so every spec shares it,
        as do jacobian_order and jacobian_factor_slot; the arrays that depend
        on the spec are kept on spec_memo."""
        vert, n = self.face_arrays[0], self.n_boundary
        keys = (vert[:, None, :] * n + vert[:, :, None]).ravel()  # col*N + row
        keys, slot = np.unique(keys, return_inverse=True)
        colptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(keys // n, minlength=n), out=colptr[1:])
        return slot, keys % n, colptr

    @cached_property
    def jacobian_order(self) -> tuple:
        """elimination_order of jacobian_pattern, built on first use: the
        Newton solver factors every Jacobian of this mesh in that order.
        Every component lies on a face, so the pattern holds the diagonal."""
        return elimination_order(*self.jacobian_pattern[1:])

    @cached_property
    def jacobian_factor_slot(self) -> np.ndarray:
        """jacobian_pattern's slot map composed with jacobian_order's gather,
        built on first use: the slot of each F x 3 x 3 face-block entry in
        the CSC data of P J P^T, into which the Newton solver sums the face
        blocks directly.  Every spec shares it."""
        gather = self.jacobian_order[1]
        place = np.empty_like(gather)
        place[gather] = np.arange(len(gather))
        return place[self.jacobian_pattern[0]]

    def vertex_star(self, i: int) -> list:
        """All (face, corner index) incidences of boundary component i."""
        if not (0 <= i < self.n_boundary):
            raise OutOfRange(f"boundary component {i} out of range")
        star = []
        for face in self.faces:
            for corner, v in enumerate(face.vertices):
                if v == i:
                    star.append((face, corner))
        return star


# -- text format -------------------------------------------------------------

def parse(text: str) -> tuple[Triangulation, StructureSpec]:
    """Parse mesh text into validated objects.

    Raises MeshFormatError carrying (line, message) diagnostics for syntax
    trouble, and DanglingReference / FamilyConstraint for structural trouble.
    """
    diags = []
    alphas, etas = {}, {}
    edges, faces = [], []
    family = None
    special: frozenset = frozenset()
    open_edges = False

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "format":
                if int(parts[1]) != FORMAT_VERSION:
                    diags.append((ln, f"unsupported format version {parts[1]}"))
            elif kind == "v":
                vid = int(parts[1])
                kv = _keyvals(parts[2:])
                alphas[vid] = int(kv["alpha"])
            elif kind == "e":
                eid, a, b = int(parts[1]), int(parts[2]), int(parts[3])
                kv = _keyvals(parts[4:])
                etas[eid] = float(kv["eta"])
                edges.append(Edge(eid, a, b))
            elif kind == "f":
                fid = int(parts[1])
                vs = tuple(int(p) for p in parts[2:5])
                es = tuple(int(p) for p in parts[5:8])
                if len(vs) != 3 or len(es) != 3:
                    raise ValueError("face needs 3 vertices and 3 edges")
                faces.append(Face(fid, vs, es))
            elif kind == "structure":
                kv = _keyvals(parts[1:], allow_flags=("open-edges",))
                family = kv["family"]
                if "special" in kv and kv["special"]:
                    special = frozenset(int(s) for s in kv["special"].split(","))
                open_edges = "open-edges" in kv
            else:
                diags.append((ln, f"unknown record {kind!r}"))
        except (ValueError, KeyError, IndexError) as exc:
            diags.append((ln, f"bad {kind} record: {exc}"))
    if family is None:
        diags.append((0, "missing structure record"))
    if diags:
        raise MeshFormatError(diags)

    n = max(alphas) + 1 if alphas else 0
    if sorted(alphas) != list(range(n)):
        raise DanglingReference("vertex ids must be 0..N-1 without gaps")
    for e in edges:
        if e.a not in alphas or e.b not in alphas:
            raise DanglingReference(f"edge {e.id} references unknown vertex")
    tri = Triangulation(n, edges, faces, open_edges=open_edges)
    spec = StructureSpec(family, alphas, etas, special=special)
    validate_spec(spec, tri)
    return tri, spec


def _keyvals(parts, allow_flags=()):
    kv = {}
    for p in parts:
        if p in allow_flags:
            kv[p] = True
        elif "=" in p:
            k, v = p.split("=", 1)
            kv[k] = v
        else:
            raise ValueError(f"expected key=value, got {p!r}")
    return kv


def serialize(tri: Triangulation, spec: StructureSpec) -> str:
    """Canonical text form; parse(serialize(x)) == x."""
    out = [f"format {FORMAT_VERSION}"]
    for i in range(tri.n_boundary):
        out.append(f"v {i} alpha={spec.alpha[i]}")
    for e in sorted(tri.edges, key=lambda e: e.id):
        out.append(f"e {e.id} {e.a} {e.b} eta={spec.eta[e.id]:.17g}")
    for f in sorted(tri.faces, key=lambda f: f.id):
        vi, vj, vk = f.vertices
        ea, eb, ec = f.edge_ids
        out.append(f"f {f.id} {vi} {vj} {vk} {ea} {eb} {ec}")
    line = f"structure family={spec.family}"
    if spec.special:
        line += " special=" + ",".join(str(s) for s in sorted(spec.special))
    if tri.open_edges:
        line += " open-edges"
    out.append(line)
    return "\n".join(out) + "\n"


# -- stock meshes ------------------------------------------------------------

def pair_of_pants() -> Triangulation:
    """Three boundary components, three edges, two hexagonal faces."""
    edges = [Edge(0, 0, 1), Edge(1, 1, 2), Edge(2, 2, 0)]
    faces = [Face(0, (0, 1, 2), (0, 1, 2)), Face(1, (0, 1, 2), (0, 1, 2))]
    return Triangulation(3, edges, faces)


def single_face() -> Triangulation:
    """One hexagon with three open edges (test fixture)."""
    edges = [Edge(0, 0, 1), Edge(1, 1, 2), Edge(2, 2, 0)]
    faces = [Face(0, (0, 1, 2), (0, 1, 2))]
    return Triangulation(3, edges, faces, open_edges=True)
