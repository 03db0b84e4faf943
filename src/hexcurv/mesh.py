"""Combinatorial surface: boundary components, ideal edges, hexagonal faces.

The text format is line based, one record per line, `#` comments:

    format 1
    v <id> alpha=<-1|0|1>
    e <id> <a> <b> eta=<real>
    f <id> <va> <vb> <vc> <ea> <eb> <ec>
    structure family=<tag> [special=<id,...>] [open-edges]

Every record has exactly the tokens shown, ids are unique per record kind
and there is one structure record.  Face edge ids are listed so that <ea>
joins (va, vb), <eb> joins (vb, vc) and <ec> joins (vc, va).  Multi-edges
and loop edges are allowed; a face may repeat a boundary component
(validation warns, does not reject).

A mesh keeps the Layout of its u-Jacobian from make_layout in two orders:
jacobian_layout, the natural one, and jacobian_order, the same pattern
relabelled in the elimination order the Newton solver factors in.  Every
Jacobian is a new copy of one (curvature._jacobian), sharing no array
with the mesh.  Its spec_memo holds the conformal.SpecArrays of its spec.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import _NEXT
from .conformal import SpecArrays, StructureSpec, Weights, spec_arrays
from .errors import DanglingReference, FamilyConstraint, MeshFormatError

FORMAT_VERSION = 1


Layout = namedtuple("Layout", "matrix slot order diagonal")


def make_layout(rows, cols, n, slot=None, order=None) -> Layout:
    """Layout(matrix, slot, order, diagonal) of the N x N pattern with
    entries at (rows, cols): matrix is a scipy CSC array of the pattern,
    one stored entry per distinct position, with zero data, its canonical
    form checked here and its arrays read-only, the indices as C ints, as
    SuperLU takes them.  slot holds the position in matrix's data of each
    source entry (the F x 3 x 3 face blocks of a mesh): of each entry, or
    of the entry slot names.  order is the permutation the entries are
    numbered in (None: the natural one); diagonal holds the positions of
    the diagonal entries, column by column, fewer than N where the pattern
    lacks some.  scipy is imported on first use: a parse needs none."""
    import scipy.sparse

    keys = (np.asarray(cols, dtype=np.intp) * n + rows).ravel()  # col*N + row
    keys, inverse = np.unique(keys, return_inverse=True)
    rows, cols = keys % n, keys // n
    matrix = scipy.sparse.csc_array(
        (np.zeros(len(keys)), rows.astype(np.intc),
         np.searchsorted(cols, np.arange(n + 1)).astype(np.intc)), shape=(n, n))
    matrix.has_canonical_format  # checked and cached now; copies carry the flag
    for x in (matrix.data, matrix.indices, matrix.indptr):
        x.flags.writeable = False
    return Layout(matrix, inverse if slot is None else inverse[slot], order,
                  np.flatnonzero(rows == cols))


def elimination_order(layout: Layout) -> Layout:
    """make_layout of P A P^T, for A in layout: A's entries, with A's
    sources, relabelled by the column order SuperLU's splu picks with
    MMD_AT_PLUS_A (the minimum-degree order of A + A^T, then its
    elimination-tree postorder), which is the layout's order: P A P^T =
    A[order][:, order], with the same bits per entry.  The order depends on
    the pattern alone, so it is read off a column diagonally dominant
    matrix of the pattern, -1 off the diagonal and the column's entry
    count on it, which factors without pivoting where the pattern holds
    the diagonal, with the Newton step's SuperLU settings."""
    import scipy.sparse.linalg

    kept, n = layout.matrix, len(layout.matrix.indptr) - 1
    data = np.full(kept.nnz, -1.0)
    data[layout.diagonal] = np.diff(kept.indptr)[kept.indices[layout.diagonal]]
    position = scipy.sparse.linalg.splu(
        scipy.sparse.csc_array((data, kept.indices, kept.indptr), shape=kept.shape),
        permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1, panel_size=1,
        options={"SymmetricMode": True}).perm_c
    order = np.empty(n, dtype=np.intp)
    order[position] = np.arange(n)
    cols = np.repeat(np.arange(n), np.diff(kept.indptr))
    return make_layout(position[kept.indices], position[cols], n, layout.slot, order)


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


class Triangulation:
    """A validated mesh held as arrays: edge_arrays, (ids, ends a, ends b)
    in edge-list order; face_ids and face_arrays, (F x 3 vertex ids, F x 3
    positions of the face edges in the edge list), in face order.

    The constructor converts Edge and Face records once; parse builds the
    arrays directly.  Where the edge ids are 0..E-1 in edge-list order, as
    in every serialized mesh, each face side's id is its position; other
    ids are found by one sort.  edges and faces are record views built on
    first use, for API callers.  Raises DanglingReference or
    FamilyConstraint for the first failing record: a repeated edge or face
    id; then face by face, a record that is no triangle, its vertices, its
    sides in order; then a component on no face; then edge by edge.
    """

    def __init__(self, n_boundary: int, edges, faces, open_edges: bool = False):
        ragged = [len(f.vertices) != 3 or len(f.edge_ids) != 3 for f in faces]
        rows = [(f.id,) + (0,) * 6 if r else (f.id, *f.vertices, *f.edge_ids)
                for f, r in zip(faces, ragged)]
        edges = np.array([(e.id, e.a, e.b) for e in edges], dtype=np.intp).reshape(-1, 3).T
        self._setup(n_boundary, edges, np.array(rows, dtype=np.intp).reshape(-1, 7),
                    open_edges, np.array(ragged, dtype=bool))

    def _setup(self, n, edges, faces, open_edges, ragged):
        """edges: (ids, ends a, ends b); faces: F x 7 rows (id, three
        vertices, three edge ids); ragged: the faces that are no triangle."""
        self.n_boundary, self.open_edges = n, open_edges
        self.spec_memo = None  # the conformal.SpecArrays of the last spec
        self.edge_arrays = ids, a, b = tuple(np.array(x, dtype=np.intp) for x in edges)
        self.face_ids, vert, face_edges = faces[:, 0].copy(), faces[:, 1:4].copy(), faces[:, 4:]
        m = len(ids)
        # no order where each edge id is its position, as serialize writes them
        order = None if np.array_equal(ids, np.arange(m)) else np.argsort(ids, kind="stable")
        for name, x, o in (("edge", ids, order),
                           ("face", self.face_ids, np.argsort(self.face_ids, kind="stable"))):
            if o is None:
                continue  # ids that are positions repeat none
            again = o[1:][x[o][1:] == x[o][:-1]]  # each record whose id an earlier one has
            if again.size:
                raise DanglingReference(f"{name} id {x[again.min()]} is repeated")
        if order is None:  # an unknown id points at the padding
            pos = np.where((face_edges >= 0) & (face_edges < m), face_edges, m)
        else:
            pos = np.append(order, m)[np.searchsorted(ids[order], face_edges)]
        ids_x, a_x, b_x = padded = np.zeros((3, m + 1), dtype=np.intp)
        padded[:, :-1] = ids, a, b
        known = (ids_x[pos] == face_edges) & (pos < m)
        ea, eb, nxt = a_x[pos], b_x[pos], vert[:, _NEXT]
        joins = (ea == vert) & (eb == nxt) | (ea == nxt) & (eb == vert)
        err = np.column_stack((ragged, (vert < 0) | (vert >= n),
                               np.stack((~known, known & ~joins), axis=2).reshape(-1, 6)))
        if err.any():
            k, col = divmod(int(np.argmax(err.ravel())), 10)
            fid, s = self.face_ids[k], (col - 4) // 2
            raise DanglingReference(
                f"face {fid} is not a triangle record" if col == 0 else
                f"face {fid} references unknown vertex {vert[k, col - 1]}" if col < 4 else
                f"face {fid} references unknown edge {face_edges[k, s]}" if col % 2 == 0 else
                f"face {fid}: edge {face_edges[k, s]} joins ({ea[k, s]},{eb[k, s]}), "
                f"expected ({vert[k, s]},{nxt[k, s]})")
        # a component on no face has K identically 0 and an empty Jacobian row
        on_faces = np.bincount(vert.ravel(), minlength=n)
        if not on_faces.all():
            raise DanglingReference(f"boundary component {np.argmin(on_faces)} lies on no face")
        count = np.bincount(pos.ravel(), minlength=m)
        err = np.column_stack(((a < 0) | (a >= n) | (b < 0) | (b >= n),
                               (count == 0) | (count > 2), (count == 1) & (not open_edges)))
        if err.any():
            k, col = divmod(int(np.argmax(err.ravel())), 3)
            if col == 2:
                raise FamilyConstraint(f"edge {ids[k]} is open; add the open-edges flag to accept")
            raise DanglingReference(f"edge {ids[k]} references unknown vertex" if col == 0 else
                                    f"edge {ids[k]} belongs to {count[k]} faces; expected 1 or 2")
        self.face_arrays = vert, pos
        self.warnings = [f"face {k} repeats a boundary component" for k in
                         self.face_ids[~(vert != nxt).all(axis=1)].tolist()]

    def __eq__(self, other):
        if not isinstance(other, Triangulation):
            return NotImplemented
        return all(np.array_equal(x, y) for x, y in zip(*(
            (t.n_boundary, t.open_edges, *t.edge_arrays, t.face_ids, *t.face_arrays)
            for t in (self, other))))

    @cached_property
    def edges(self) -> list:
        """The Edge records in edge-list order, built on first use."""
        return list(map(Edge, *(x.tolist() for x in self.edge_arrays)))

    @cached_property
    def faces(self) -> list:
        """The Face records in face order, built on first use."""
        vert, pos = self.face_arrays
        return [Face(k, tuple(v), tuple(e)) for k, v, e in zip(
            self.face_ids.tolist(), vert.tolist(), self.edge_arrays[0][pos].tolist())]

    @cached_property
    def jacobian_layout(self) -> Layout:
        """make_layout of the u-Jacobian's pattern, built on first use: one
        stored entry per pair of components that share a face, and the slot
        of each F x 3 x 3 face-block entry; entries at one (row, column), as
        in a face repeating a component, share a slot.  It depends on the
        mesh alone, so every spec shares it, as does jacobian_order; the
        arrays that depend on the spec are kept in spec_memo."""
        vert = self.face_arrays[0]
        return make_layout(vert[:, :, None], vert[:, None, :], self.n_boundary)

    @cached_property
    def jacobian_order(self) -> Layout:
        """elimination_order of jacobian_layout, built on first use: the
        Newton solver sums the face blocks of every Jacobian of this mesh
        straight into its elimination order under this layout.  Every
        component lies on a face, so the pattern holds the diagonal."""
        return elimination_order(self.jacobian_layout)


# -- text format -------------------------------------------------------------

def parse(text: str) -> tuple[Triangulation, StructureSpec]:
    """Parse mesh text into validated objects.

    The v, e and f records are read as blocks: a kind's lines, from its
    first line that starts with the kind and a space to its last before
    another kind's first, as one slice of the text, never split into lines
    or tokens (_read_block).  The line reader, the one source of
    diagnostics, reads the rest, each kind whose slice is not in the layout
    serialize writes, and the whole text where a v, e or f record lies
    outside its kind's block.  The vertex-id and alpha columns and the
    edge-id and eta columns go to the spec as conformal.Weights, with no
    dict between.  Raises MeshFormatError carrying (line,
    message) diagnostics for syntax trouble, and DanglingReference /
    FamilyConstraint for structural trouble.
    """
    blocks, starts = {}, {}
    for kind in _WIDTH if text.isascii() else ():  # numpy reads ASCII as int() and float() do
        at = 0 if text.startswith(f"{kind} ") else text.find(f"\n{kind} ") + 1
        if text.startswith(f"{kind} ", at):
            starts[kind] = at
    bounds = sorted(starts.values()) + [len(text)]
    for kind, at in starts.items():  # each block ends before the next begins
        if got := _read_block(text, kind, at, bounds[bounds.index(at) + 1]):
            blocks[kind] = got
    if "v" in blocks:
        ids = np.sort(blocks["v"].ints, axis=None)
        if (ids[1:] == ids[:-1]).any():
            del blocks["v"]  # a repeated vertex record is diagnosed line by line
    read = _read_lines(text, blocks)
    if read is None:  # a v, e or f record outside its kind's block
        blocks = {}
        read = _read_lines(text, blocks)
    family, special, open_edges, columns = read
    columns.update((kind, (got.ints, got.values)) for kind, got in blocks.items())

    (vid, alpha), (edges, eta), (faces, _) = (columns[kind] for kind in _WIDTH)
    n = len(vid)
    if n and (vid.min() != 0 or vid.max() != n - 1):  # the ids are distinct
        raise DanglingReference("vertex ids must be 0..N-1 without gaps")
    eid, a, b = edges.T
    bad = (a < 0) | (a >= n) | (b < 0) | (b >= n)
    if bad.any():
        raise DanglingReference(f"edge {eid[np.argmax(bad)]} references unknown vertex")
    tri = Triangulation.__new__(Triangulation)
    tri._setup(n, edges.T, faces, open_edges, np.zeros(len(faces), dtype=bool))
    spec = StructureSpec(family, Weights(vid.ravel(), alpha), Weights(eid, eta), special=special)
    spec_arrays(spec, tri)  # validates the spec; tri keeps its record
    return tri, spec


# Per record kind: its integers after the kind token, the key and type of
# the value after them, and its token count.
_INTS = {"format": 1, "v": 1, "e": 3, "f": 7, "structure": 0}
_KEY = {"v": ("alpha", int), "e": ("eta", float)}
_WIDTH = {"v": 3, "e": 5, "f": 8}
_INT = np.iinfo(np.intp)
# Per kind read as a block, the separators of its line in the layout
# serialize writes: a space before each integer and before the key, the
# key's '=', and the newline.
_SEPARATORS = {kind: np.frombuffer(b" " * _INTS[kind] + b" =" * (kind in _KEY) + b"\n", np.uint8)
               for kind in _WIDTH}

_Block = namedtuple("_Block", "start stop ints values")


def _read_lines(text: str, blocks: dict) -> tuple | None:
    """(family, special, open_edges, {kind: (M x k integers, M values)})
    of the text outside the blocks, read line by line, the kinds without a
    block among the v, e and f; None where a record of a kind in blocks
    lies outside its block.  Raises MeshFormatError with the diagnostics
    of every bad line, in line order."""
    rows = {kind: [] for kind in _WIDTH if kind not in blocks}
    diags, family, seen, ln, at = [], None, {}, 0, 0
    spans = sorted((got.start, got.stop, len(got.ints)) for got in blocks.values())
    for start, stop, m in spans + [(len(text), len(text), 0)]:
        for line in text[at:start].splitlines():
            ln += 1
            parts = line.split("#", 1)[0].split()
            kind = parts[0] if parts else None
            if kind in blocks:
                return None
            if kind is None:
                continue
            if kind not in _INTS:
                diags.append((ln, f"unknown record {kind!r}"))
                continue
            try:
                fields = _read_line(parts)
                if kind == "format" and fields[0] != FORMAT_VERSION:
                    diags.append((ln, f"unsupported format version {parts[1]}"))
                elif kind == "format" and len(parts) != 2:
                    raise ValueError(f"expected 2 tokens, got {len(parts)}")
                elif kind == "structure":
                    family = fields["family"]
                    special = frozenset(map(int, fields["special"].split(","))) \
                        if fields.get("special") else frozenset()
                    open_edges = "open-edges" in fields
                    extra = set(fields) - {"family", "special", "open-edges"}
                    if extra or len(fields) < len(parts) - 1:
                        raise ValueError(f"unknown key {min(extra)!r}" if extra else "repeated key")
                once = fields[0] if kind == "v" else kind  # one structure record, one per vertex
                if kind in ("v", "structure") and seen.setdefault(once, ln) != ln:
                    raise ValueError(f"repeats line {seen[once]}")
                rows.get(kind, []).append(fields)
            except (ValueError, KeyError, IndexError) as exc:
                diags.append((ln, f"bad {kind} record: {exc}"))
        ln, at = ln + m, stop
    if family is None:
        diags.append((0, "missing structure record"))
    if diags:
        raise MeshFormatError(diags)
    columns = {kind: (np.array([r[:_INTS[kind]] for r in got], dtype=np.intp).reshape(
        -1, _INTS[kind]), np.array([r[_INTS[kind]:] for r in got]).ravel())
        for kind, got in rows.items()}
    return family, special, open_edges, columns


def _read_line(parts) -> list:
    """The fields of one record read token by token: the numbers of a
    format, v, e or f record (its alpha or eta last), or the key=value
    fields of a structure record (a flag maps to True).  Raises ValueError,
    KeyError or IndexError whose text is the line's diagnostic."""
    kind, n = parts[0], _INTS[parts[0]]
    nums = [int(p) for p in parts[1:n + 1]]
    if len(nums) < n:
        if kind == "f" and nums:
            raise ValueError("face needs 3 vertices and 3 edges")
        raise IndexError("list index out of range")
    if kind == "format":
        return nums
    fields = {}
    for p in parts[n + 1:] if kind != "f" else ():
        if kind == "structure" and p == "open-edges":
            fields[p] = True
        elif "=" in p:
            fields.update([p.split("=", 1)])
        else:
            raise ValueError(f"expected key=value, got {p!r}")
    if kind == "structure":
        return fields
    if kind in _KEY:
        key, cast = _KEY[kind]
        nums.append(cast(fields[key]))
    if len(parts) != _WIDTH[kind]:
        raise ValueError(f"expected {_WIDTH[kind]} tokens, got {len(parts)}")
    if any(not _INT.min < x < _INT.max for x in nums[:n]):
        raise ValueError("integer out of range")
    return nums


def _read_block(text: str, kind: str, start: int, bound: int) -> _Block | None:
    """The records of one kind as one _Block: text[start:stop], from the
    line at start to the end of the last line before bound that starts with
    the kind and a space, its M x k integers and its M values of the key.
    None where a line of the slice does not have the layout serialize
    writes, or a number does not read as int() or float() reads it.

    Numpy finds the slice's separators (spaces, '=', newlines) and checks
    them, the kind letters and the keys at their places.  The integers, an
    int value with them, are read from a copy with the letters and keys
    blanked, float values from a text of their own.  No token holds
    whitespace, an empty token reads as no number and a bare sign joins the
    next, so a count of numbers equal to the count of tokens shows that
    each token read as one number."""
    stop = text.find("\n", max(start, text.rfind(f"\n{kind} ", start, bound) + 1)) + 1
    block = text[start:stop]
    if not stop or any(c in block for c in "\t\v\f\r("):
        return None  # whitespace numpy skips inside a token, or a nan(...) payload
    n, (key, cast), layout = _INTS[kind], _KEY.get(kind, ("", None)), _SEPARATORS[kind]
    chars = np.frombuffer(block.encode(), np.uint8)
    cuts = np.flatnonzero((chars == 32) | (chars == 61) | (chars == 10))
    if len(cuts) % len(layout):
        return None
    cuts = cuts.reshape(-1, len(layout))
    m, letter = len(cuts), cuts[:, 0] - 1  # each line's first character
    if not (letter[0] == 0 and (letter[1:] == cuts[:-1, -1] + 1).all()
            and (chars[cuts] == layout).all() and (chars[letter] == ord(kind)).all()):
        return None
    numbers = chars.copy()
    numbers[letter] = 32
    values = np.zeros(0)
    if key:
        at = cuts[:, n, None] + np.arange(1, len(key) + 1)
        if not ((cuts[:, -2] == at[:, -1] + 1).all()
                and (chars[at] == np.frombuffer(key.encode(), np.uint8)).all()):
            return None
        numbers[at] = numbers[cuts[:, -2]] = 32  # the key and its '='
    if cast is float:  # the value tokens, each from its '=' to its newline
        ends = cuts[:, -2:].ravel() + 1
        runs, value = ends.copy(), np.zeros((m, 2), dtype=bool)
        runs[1:] -= ends[:-1]
        value[:, 1] = True
        value = np.repeat(value.ravel(), runs)
        values, numbers = _read_numbers(chars[value], float, m), numbers[~value]
    width = n + (cast is int)
    ints = _read_numbers(numbers, np.intp, width * m)
    if ints is None or values is None:
        return None
    ints = ints.reshape(m, width)
    return _Block(start, stop, ints[:, :n], ints[:, n] if cast is int else values)


def _read_numbers(chars, dtype, count) -> np.ndarray | None:
    """The count numbers of the text chars holds, read with one
    np.fromstring; None where it does not read as count numbers of dtype,
    or an integer lies outside the open range of np.intp."""
    try:  # a sentinel 0 ends the text, so that a bare sign never reads as 0
        values = np.fromstring(chars.tobytes() + b" 0", dtype=dtype, sep=" ")
    except ValueError:
        return None
    if len(values) != count + 1 or dtype is np.intp and (
            (values <= _INT.min) | (values >= _INT.max)).any():
        return None
    return values[:-1]


def serialize(tri: Triangulation, spec: StructureSpec) -> str:
    """Canonical text form; parse(serialize(x)) == x.  The weights and specials
    come from a new SpecArrays record, not validated, raising as its edges do."""
    e, pos = SpecArrays(spec, tri).edges, tri.face_arrays[1]
    edges = np.argsort(e.ids, kind="stable")
    faces = np.column_stack((tri.face_ids, tri.face_arrays[0], tri.edge_arrays[0][pos]))
    faces = faces[np.argsort(tri.face_ids, kind="stable")]
    out = [f"format {FORMAT_VERSION}\n"]
    out += map("v {} alpha={}\n".format, range(len(e.alpha)), e.alpha.tolist())
    out += map("e {} {} {} eta={:.17g}\n".format,
               *(x[edges].tolist() for x in (e.ids, e.a, e.b, e.eta)))
    out += map("f {} {} {} {} {} {} {}\n".format, *faces.T.tolist())
    line = f"structure family={spec.family}"
    if e.special.any():
        line += " special=" + ",".join(map(str, np.flatnonzero(e.special).tolist()))
    if tri.open_edges:
        line += " open-edges"
    out.append(line)
    return "".join(out) + "\n"


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
