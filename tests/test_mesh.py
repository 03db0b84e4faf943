import hashlib
import importlib.util
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcurv import mesh
from hexcurv.conformal import StructureSpec
from hexcurv.errors import DanglingReference, FamilyConstraint, HexcurvError, MeshFormatError
from hexcurv.mesh import Edge, Face, Triangulation

from helpers import make_spec, sphere_triangulation

PANTS_TEXT = """\
format 1
v 0 alpha=0
v 1 alpha=0
v 2 alpha=0
e 0 0 1 eta=3
e 1 1 2 eta=3
e 2 2 0 eta=3
f 0 0 1 2 0 1 2
f 1 0 1 2 0 1 2
structure family=A1
"""


def test_parse_pair_of_pants():
    tri, spec = mesh.parse(PANTS_TEXT)
    assert tri.n_boundary == 3
    assert len(tri.edges) == 3
    assert len(tri.faces) == 2
    assert spec.family == "A1"
    assert not tri.warnings


def test_serialize_roundtrip_canonical():
    tri, spec = mesh.parse(PANTS_TEXT)
    text = mesh.serialize(tri, spec)
    tri2, spec2 = mesh.parse(text)
    assert mesh.serialize(tri2, spec2) == text


def test_random_mesh_roundtrip():
    rng = random.Random(0)
    for fam in ("A1", "A3", "MixedIII"):
        tri = sphere_triangulation(50, rng)
        spec = make_spec(fam, tri, rng)
        text = mesh.serialize(tri, spec)
        tri2, spec2 = mesh.parse(text)
        assert tri2.n_boundary == tri.n_boundary
        assert [(e.id, e.a, e.b) for e in tri2.edges] == sorted(
            (e.id, e.a, e.b) for e in tri.edges
        )
        assert sorted((f.id, f.vertices, f.edge_ids) for f in tri2.faces) == sorted(
            (f.id, f.vertices, f.edge_ids) for f in tri.faces
        )
        assert spec2.family == spec.family and spec2.special == spec.special
        for e in tri.edges:
            assert spec2.eta[e.id] == spec.eta[e.id]
        assert mesh.serialize(tri2, spec2) == text


def test_dangling_edge_reference():
    text = PANTS_TEXT.replace("f 0 0 1 2 0 1 2", "f 0 0 1 2 0 1 9")
    with pytest.raises(DanglingReference):
        mesh.parse(text)


def test_two_specials_on_one_edge_rejected():
    text = PANTS_TEXT.replace(
        "structure family=A1", "structure family=MixedIII special=0,1"
    )
    with pytest.raises(FamilyConstraint):
        mesh.parse(text)


def test_syntax_diagnostics_carry_line_numbers():
    bad = PANTS_TEXT.replace("e 1 1 2 eta=3", "e 1 1 eta=3")
    with pytest.raises(MeshFormatError) as err:
        mesh.parse(bad)
    assert any(ln == 6 for ln, _ in err.value.diagnostics)


def test_open_edges_need_flag():
    lone = """\
v 0 alpha=0
v 1 alpha=0
v 2 alpha=0
e 0 0 1 eta=3
e 1 1 2 eta=3
e 2 2 0 eta=3
f 0 0 1 2 0 1 2
structure family=A1
"""
    with pytest.raises(FamilyConstraint):
        mesh.parse(lone)
    tri, _ = mesh.parse(lone.replace("family=A1", "family=A1 open-edges"))
    assert tri.open_edges


def test_self_adjacent_face_two_corners():
    edges = [Edge(0, 0, 0), Edge(1, 0, 1), Edge(2, 1, 0)]
    faces = [Face(0, (0, 0, 1), (0, 1, 2))]
    tri = Triangulation(2, edges, faces, open_edges=True)
    assert any("repeats" in w for w in tri.warnings)
    corners = tri.face_arrays[0][0].tolist()
    assert [c for c, i in enumerate(corners) if i == 0] == [0, 1]


def test_serialize_writes_alphas_as_parse_reads_them():
    # alphas given as a bool or a float, from a record that leaves the
    # mesh's kept one in place
    tri, spec = mesh.parse(PANTS_TEXT)
    kept = tri.spec_memo
    for alpha in ({0: True, 1: 1.0, 2: 0}, {0: -1.0, 1: 0.0, 2: False}):
        other = StructureSpec("A1", alpha, {0: 2.0, 1: 2, 2: 0.5})
        text = mesh.serialize(tri, other)
        assert "alpha=True" not in text and "alpha=1.0" not in text
        assert mesh.parse(text) == (tri, other)
        assert tri.spec_memo is kept


# sha256 of perfbench.inputs.mesh_text(family, n, random.Random(1)): every
# benchmark problem is parsed from such a text, so a byte change in
# serialize or in the generators changes what the benchmark measures
_BENCH_TEXTS = {
    ("A1", 40): "4f1134fdc4bc9d79b18d4cd1921bd83819e2c540cc801246c1b2968732cd4b8e",
    ("A1", 400): "bb3f97495fa18dc923997be5ff59d2e86c504996c7ed448bf048b4271f629504",
    ("A2", 40): "998a9c9fa52ab364f438e6da9e896f12ad6386e26af21c1ed8f5e5faabe5f840",
    ("A2", 400): "6ab57ca5e9a3b918aac3010926c8d5910dee092cdca474a584a03205e248b4da",
    ("A3", 40): "dce5d25d4371c84042be57912ac4fef8ef852ae342381bc2ee6439e36f949e0b",
    ("A3", 400): "b399fcab5777856a7bf63721fedfecbba92bafd780cd125246634e5379a1b5db",
    ("MixedI", 40): "ad66f2a07ce1454179fbd0ea3e872749811fce66b38369ab242c5f50319c3d7e",
    ("MixedI", 400): "06833aca5dba1387a1eb263a50116d5657f91906ef17993fe45ca6d82fb01ea9",
    ("MixedII", 40): "81993af5e00cd00342f7dfb4f6949f9fff952a5b74fd0e8352e1cedb3c1a452b",
    ("MixedII", 400): "d18f231f103ea89c250d3d98bb1df8e874ab423e0539b45dec2cd7bc0b463c94",
    ("MixedIII", 40): "b8b0b4aa0eea21afd9233735a441b0113b6903ba70709b552416a02a04b2d82c",
    ("MixedIII", 400): "3c4d4f6d0d36d63e9efbc7fb2f3383f2b515f25eab71e41bdd6ce4c0a1f6711d",
}


@pytest.fixture(scope="module")
def bench_inputs():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("family, n", list(_BENCH_TEXTS))
def test_benchmark_mesh_texts_are_pinned(bench_inputs, family, n):
    text = bench_inputs.mesh_text(family, n, random.Random(1))
    assert hashlib.sha256(text.encode()).hexdigest() == _BENCH_TEXTS[family, n]


def test_empty_mesh_serializes_header_only():
    tri = Triangulation(0, [], [], open_edges=True)
    spec = StructureSpec("A1", {}, {})
    text = mesh.serialize(tri, spec)
    assert text.splitlines()[0] == "format 1"
    assert text.splitlines()[-1].startswith("structure")


def test_face_edge_mismatch_rejected():
    text = PANTS_TEXT.replace("f 1 0 1 2 0 1 2", "f 1 0 1 2 1 0 2")
    with pytest.raises(DanglingReference):
        mesh.parse(text)


# -- diagnostics of malformed records ------------------------------------------

@pytest.mark.parametrize("old, new, diagnostics", [
    ("v 1 alpha=0", "v 1", [(3, "bad v record: 'alpha'")]),
    ("v 1 alpha=0", "v", [(3, "bad v record: list index out of range")]),
    ("v 1 alpha=0", "v x alpha=0",
     [(3, "bad v record: invalid literal for int() with base 10: 'x'")]),
    ("v 1 alpha=0", "v 1.5 alpha=0",
     [(3, "bad v record: invalid literal for int() with base 10: '1.5'")]),
    ("v 1 alpha=0", "v 1 alpha=x",
     [(3, "bad v record: invalid literal for int() with base 10: 'x'")]),
    ("v 1 alpha=0", "v 1 beta=0", [(3, "bad v record: 'alpha'")]),
    ("v 1 alpha=0", "v 1 alpha", [(3, "bad v record: expected key=value, got 'alpha'")]),
    ("v 1 alpha=0", "v 1 2 alpha=0", [(3, "bad v record: expected key=value, got '2'")]),
    ("e 1 1 2 eta=3", "e 1 1", [(6, "bad e record: list index out of range")]),
    ("e 1 1 2 eta=3", "e 1 1 eta=3",
     [(6, "bad e record: invalid literal for int() with base 10: 'eta=3'")]),
    ("e 1 1 2 eta=3", "e x 1 2 eta=3",
     [(6, "bad e record: invalid literal for int() with base 10: 'x'")]),
    ("e 1 1 2 eta=3", "e 1 1 2", [(6, "bad e record: 'eta'")]),
    ("e 1 1 2 eta=3", "e 1 1 2 w=3", [(6, "bad e record: 'eta'")]),
    ("e 1 1 2 eta=3", "e 1 1 2 3", [(6, "bad e record: expected key=value, got '3'")]),
    ("e 1 1 2 eta=3", "e 1 1 2 eta=x",
     [(6, "bad e record: could not convert string to float: 'x'")]),
    ("f 0 0 1 2 0 1 2", "f", [(8, "bad f record: list index out of range")]),
    ("f 0 0 1 2 0 1 2", "f 0 0 1", [(8, "bad f record: face needs 3 vertices and 3 edges")]),
    ("f 0 0 1 2 0 1 2", "f 0 0 1 2 0 1",
     [(8, "bad f record: face needs 3 vertices and 3 edges")]),
    ("f 0 0 1 2 0 1 2", "f x 0 1 2 0 1 2",
     [(8, "bad f record: invalid literal for int() with base 10: 'x'")]),
    ("f 0 0 1 2 0 1 2", "f 0 0 1 2 0 1 x",
     [(8, "bad f record: invalid literal for int() with base 10: 'x'")]),
    ("structure family=A1", "structure",
     [(10, "bad structure record: 'family'"), (0, "missing structure record")]),
    ("structure family=A1", "structure fam=A1",
     [(10, "bad structure record: 'family'"), (0, "missing structure record")]),
    ("structure family=A1", "structure A1",
     [(10, "bad structure record: expected key=value, got 'A1'"),
      (0, "missing structure record")]),
    ("structure family=A1", "structure family=A1 special=x",
     [(10, "bad structure record: invalid literal for int() with base 10: 'x'")]),
    ("structure family=A1", "structure family=A1 special=0,,1",
     [(10, "bad structure record: invalid literal for int() with base 10: ''")]),
    ("structure family=A1", "# no structure", [(0, "missing structure record")]),
    ("format 1", "format 2", [(1, "unsupported format version 2")]),
    ("format 1", "format", [(1, "bad format record: list index out of range")]),
    ("format 1", "format x",
     [(1, "bad format record: invalid literal for int() with base 10: 'x'")]),
    ("v 0 alpha=0", "w 0 alpha=0", [(2, "unknown record 'w'")]),
    # inside the lines of a kind that would otherwise read as one block
    ("v 1 alpha=0", "w 1 alpha=0", [(3, "unknown record 'w'")]),
    ("v 2 alpha=0", "v 2 a=0", [(4, "bad v record: 'alpha'")]),
    ("v 1 alpha=0", "v 1 gamma=0", [(3, "bad v record: 'alpha'")]),
    ("v 1 alpha=0", "v- 1 alpha=0", [(3, "unknown record 'v-'")]),
    ("e 1 1 2 eta=3", "e 1 1 2 eta=", [(6, "bad e record: could not convert string to float: ''")]),
])
def test_malformed_record_diagnostics(old, new, diagnostics):
    with pytest.raises(MeshFormatError) as err:
        mesh.parse(PANTS_TEXT.replace(old, new, 1))
    assert err.value.diagnostics == diagnostics


def test_every_bad_line_is_listed_in_line_order():
    text = (PANTS_TEXT.replace("v 1 alpha=0", "v 1 alpha=x")
            .replace("f 1 0 1 2 0 1 2", "f 1 0 1")
            .replace("e 0 0 1 eta=3", "e 0 0 1 eta=y")
            .replace("format 1", "format 7"))
    with pytest.raises(MeshFormatError) as err:
        mesh.parse("# header\n\n" + text)
    assert [ln for ln, _ in err.value.diagnostics] == [3, 5, 7, 11]
    assert str(err.value).startswith("line 3: unsupported format version 7; line 5: bad v")


@pytest.mark.parametrize("old, new, cls, message", [
    ("v 2 alpha=0", "v 3 alpha=0", DanglingReference, "vertex ids must be 0..N-1 without gaps"),
    ("e 2 2 0 eta=3", "e 2 2 5 eta=3", DanglingReference, "edge 2 references unknown vertex"),
    ("f 1 0 1 2 0 1 2", "f 1 0 1 7 0 1 2", DanglingReference,
     "face 1 references unknown vertex 7"),
    ("f 1 0 1 2 0 1 2", "f 1 0 1 2 0 9 2", DanglingReference,
     "face 1 references unknown edge 9"),
    ("f 1 0 1 2 0 1 2", "f 1 0 1 2 1 0 2", DanglingReference,
     "face 1: edge 1 joins (1,2), expected (0,1)"),
    ("f 1 0 1 2 0 1 2", "f 1 0 2 1 1 2 0", DanglingReference,
     "face 1: edge 1 joins (1,2), expected (0,2)"),
])
def test_structural_diagnostics(old, new, cls, message):
    with pytest.raises(cls) as err:
        mesh.parse(PANTS_TEXT.replace(old, new, 1))
    assert str(err.value) == message


def _tri(n, edges, faces, open_edges=False):
    return Triangulation(n, [Edge(*e) for e in edges],
                         [Face(f[0], tuple(f[1]), tuple(f[2])) for f in faces], open_edges)


_PANTS_EDGES = [(0, 0, 1), (1, 1, 2), (2, 2, 0)]


@pytest.mark.parametrize("n, edges, faces, open_edges, cls, message", [
    (3, _PANTS_EDGES, [(0, (0, 1, 2), (0, 1, 2)), (1, (0, 1), (0, 1, 2))], False,
     DanglingReference, "face 1 is not a triangle record"),
    (3, _PANTS_EDGES, [(0, (0, 1, 2), (0, 1, 2)), (1, (0, 1, 2), (0, 1, 2, 0))], False,
     DanglingReference, "face 1 is not a triangle record"),
    (3, _PANTS_EDGES, [(0, (0, 1, 2), (0, 1, 2)), (1, (0, 1, -1), (0, 1, 2))], False,
     DanglingReference, "face 1 references unknown vertex -1"),
    (3, _PANTS_EDGES, [(4, (0, 1, 2), (0, 5, 2))], True,
     DanglingReference, "face 4 references unknown edge 5"),
    (3, _PANTS_EDGES, [(4, (0, 1, 2), (0, 2, 1))], True,
     DanglingReference, "face 4: edge 2 joins (2,0), expected (1,2)"),
    # the first failing face, and in a face its vertices, then its sides in order
    (3, _PANTS_EDGES, [(0, (0, 1, 2), (0, 1, 2)), (5, (0, 1, 2), (9, 1, 2)),
                       (6, (0, 1, 3), (0, 1, 2))], True,
     DanglingReference, "face 5 references unknown edge 9"),
    (3, _PANTS_EDGES, [(5, (0, 1, 2), (1, 9, 2)), (6, (0, 1, 2), (0, 1, 2))], True,
     DanglingReference, "face 5: edge 1 joins (1,2), expected (0,1)"),
    (3, _PANTS_EDGES, [(5, (0, 1, 3), (9, 1, 2))], True,
     DanglingReference, "face 5 references unknown vertex 3"),
    # faces before components on no face, before edges
    (4, _PANTS_EDGES + [(3, 0, 7)], [(0, (0, 1, 2), (0, 1, 2))], True,
     DanglingReference, "boundary component 3 lies on no face"),
    (3, _PANTS_EDGES + [(3, 0, 7)], [(0, (0, 1, 2), (0, 1, 2))], True,
     DanglingReference, "edge 3 references unknown vertex"),
    (3, _PANTS_EDGES + [(3, 0, 1)], [(0, (0, 1, 2), (0, 1, 2))], True,
     DanglingReference, "edge 3 belongs to 0 faces; expected 1 or 2"),
    (3, _PANTS_EDGES, [(k, (0, 1, 2), (0, 1, 2)) for k in range(3)], False,
     DanglingReference, "edge 0 belongs to 3 faces; expected 1 or 2"),
    (3, _PANTS_EDGES, [(0, (0, 1, 2), (0, 1, 2))], False,
     FamilyConstraint, "edge 0 is open; add the open-edges flag to accept"),
])
def test_triangulation_diagnostics(n, edges, faces, open_edges, cls, message):
    with pytest.raises(cls) as err:
        _tri(n, edges, faces, open_edges)
    assert type(err.value) is cls and str(err.value) == message


# -- records that were once ignored or overwritten ------------------------------

def test_repeated_vertex_record_is_a_format_error():
    with pytest.raises(MeshFormatError) as err:
        mesh.parse(PANTS_TEXT.replace("v 1 alpha=0\n", "v 1 alpha=0\nv 0 alpha=1\n"))
    assert err.value.diagnostics == [(4, "bad v record: repeats line 2")]


def test_second_structure_record_is_a_format_error():
    with pytest.raises(MeshFormatError) as err:
        mesh.parse(PANTS_TEXT + "structure family=A3\n")
    assert err.value.diagnostics == [
        (11, "bad structure record: repeats line 10")]


@pytest.mark.parametrize("old, new, message", [
    ("v 0 alpha=0", "v 0 alpha=0 beta=2", "bad v record: expected 3 tokens, got 4"),
    ("v 0 alpha=0", "v 0 alpha=0 alpha=1", "bad v record: expected 3 tokens, got 4"),
    ("e 0 0 1 eta=3", "e 0 0 1 eta=3 eta=4", "bad e record: expected 5 tokens, got 6"),
    ("f 0 0 1 2 0 1 2", "f 0 0 1 2 0 1 2 7", "bad f record: expected 8 tokens, got 9"),
    ("format 1", "format 1 2", "bad format record: expected 2 tokens, got 3"),
    ("structure family=A1", "structure family=A1 family=A3", "bad structure record: repeated key"),
    # two records' tokens on one line, which the block reader must not split
    ("f 0 0 1 2 0 1 2\nf 1 0 1 2 0 1 2", "f 0 0 1 2 0 1 2 f 1 0 1 2 0 1 2",
     "bad f record: expected 8 tokens, got 16"),
    ("structure family=A1", "structure family=A1 colour=red",
     "bad structure record: unknown key 'colour'"),
])
def test_extra_tokens_are_format_errors(old, new, message):
    text = PANTS_TEXT.replace(old, new, 1)
    ln = text.splitlines().index(new) + 1
    with pytest.raises(MeshFormatError) as err:
        mesh.parse(text)
    assert err.value.diagnostics == [(ln, message)]


def test_repeated_face_id_is_a_dangling_reference():
    with pytest.raises(DanglingReference, match="^face id 0 is repeated$"):
        mesh.parse(PANTS_TEXT.replace("f 1 0 1 2 0 1 2", "f 0 0 1 2 0 1 2"))


def test_repeated_edge_id_is_a_dangling_reference():
    """Under open-edges a repeated edge id used to overwrite the first
    weight and fail later, in the edge program, with an IndexError."""
    text = mesh.serialize(*_single_face_mesh()).replace("e 2 ", "e 1 1 2 eta=5\ne 2 ")
    with pytest.raises(DanglingReference, match="^edge id 1 is repeated$"):
        mesh.parse(text)
    with pytest.raises(DanglingReference, match="^edge id 4 is repeated$"):
        Triangulation(3, [Edge(4, 0, 1), Edge(1, 1, 2), Edge(4, 2, 0)],
                      [Face(0, (0, 1, 2), (4, 1, 4))], open_edges=True)


def test_a_mesh_equals_no_other_kind_of_object():
    # Triangulation.__eq__ leaves other types to their own __eq__
    tri = mesh.pair_of_pants()
    assert not tri == 3 and tri != 3 and tri != "pants" and tri != None  # noqa: E711
    assert tri == mesh.parse(PANTS_TEXT)[0] and tri != mesh.single_face()


def test_numbers_read_as_int_and_float_read_them():
    """Numbers the block conversion does not read go through int() and
    float(), and ids beyond the index range are format errors."""
    text = (PANTS_TEXT.replace("v 1 alpha=0", "v +1 alpha=0")
            .replace("e 1 1 2 eta=3", "e 1 1 2 eta=3_0")
            .replace("f 1 0 1 2 0 1 2", "f 1 0 1 2 0 1 \u0662"))
    tri, spec = mesh.parse(text)
    assert spec.eta[1] == 30.0 and tri == mesh.parse(PANTS_TEXT)[0]
    for old, new in (("f 1 0 1 2 0 1 2", f"f {2**63} 0 1 2 0 1 2"),
                     ("f 1 0 1 2 0 1 2", f"f {-2**63} 0 1 2 0 1 2"),
                     ("f 1 0 1 2 0 1 2", "f 1 0 1 2 0 1 +"),
                     *(("f 1 0 1 2 0 1 2", f"f 1 0 1 2 0 1 +{space}2") for space in "\t\v\f\r"),
                     ("e 1 1 2 eta=3", "e 1 1 2 eta=nan(7)")):
        with pytest.raises(MeshFormatError):
            mesh.parse(PANTS_TEXT.replace(old, new))


# -- properties of the text format ---------------------------------------------

_FAMILIES = ("A1", "A2", "A3", "MixedI", "MixedII", "MixedIII")


def _sphere_mesh(family, n, seed):
    rng = random.Random(seed)
    tri = sphere_triangulation(n, rng)
    return tri, make_spec(family, tri, rng)


def _single_face_mesh():
    return mesh.single_face(), StructureSpec("A1", {0: 0, 1: 1, 2: 0},
                                             {0: 2.5, 1: 0.75, 2: 1e-3})


_meshes = st.one_of(
    st.builds(_sphere_mesh, st.sampled_from(_FAMILIES), st.integers(4, 40),
              st.integers(0, 2**32)),
    st.builds(_single_face_mesh))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_meshes, st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(
    ["", "   ", "# a comment", "  # indented comment", " \t"])), max_size=6),
       st.booleans())
def test_parse_inverts_serialize(pair, inserts, trailing):
    """parse(serialize(x)) == x, also with comments and blank lines added."""
    tri, spec = pair
    text = mesh.serialize(tri, spec)
    assert mesh.parse(text) == (tri, spec)
    lines = text.splitlines()
    if trailing:
        lines = [line + "  # note" for line in lines]
    for at, line in inserts:
        lines.insert(at % (len(lines) + 1), line)
    assert mesh.parse("\n".join(lines)) == (tri, spec)


def _mutate(text, draw):
    lines = text.splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    tokens = lines[k].split()
    op = draw(st.sampled_from(["drop", "duplicate", "swap", "truncate", "repeat line", "insert"][
        0 if tokens else 3:]))  # a blank line has no token to move
    if op == "repeat line":
        lines.insert(draw(st.integers(0, len(lines))), lines[k])
    elif op == "truncate":
        lines[k] = lines[k][:draw(st.integers(0, len(lines[k])))]
    elif op == "insert":  # a separator, sign or other character a block must not misread
        at = draw(st.integers(0, len(lines[k])))
        lines[k] = lines[k][:at] + draw(st.sampled_from(" \t\r=+-.#(")) + lines[k][at:]
    else:
        i, j = (draw(st.integers(0, len(tokens) - 1)) for _ in range(2))
        if op == "drop":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(j, tokens[i])
        else:
            tokens[i], tokens[j] = tokens[j], tokens[i]
        lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _outcome(text):
    """parse's result, or the class and diagnostics of the error it raises."""
    try:
        return mesh.parse(text)
    except HexcurvError as exc:
        return type(exc), getattr(exc, "diagnostics", str(exc))


def _records(text):
    """The kinds of the lines of text that _read_line reads, in order."""
    return [p[0] for p in (line.split("#", 1)[0].split() for line in text.splitlines())
            if p and p[0] in mesh._INTS]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(_meshes.map(lambda pair: mesh.serialize(*pair)), st.just(PANTS_TEXT)),
       st.data())
def test_line_mutations_raise_only_domain_errors(text, data):
    """A mutated text parses as the copy with every line indented by one
    space, which no block reads, or both raise the same class with the same
    diagnostics."""
    mutated = text
    for _ in range(data.draw(st.integers(1, 3))):
        mutated = _mutate(mutated, data.draw)
    indented = "".join(" " + line for line in mutated.splitlines(keepends=True))
    with pytest.MonkeyPatch.context() as patch:
        kinds, read_line = [], mesh._read_line
        patch.setattr(mesh, "_read_line", lambda parts: kinds.append(parts[0]) or read_line(parts))
        expected = _outcome(indented)
        assert kinds == _records(indented)  # every record went through the line reader
    assert _outcome(mutated) == expected


def _relabel_edges(text, new_id):
    """text with each edge id e replaced by new_id[e], in the e and f records."""
    lines = []
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0] == "e":
            tokens[1] = str(new_id[int(tokens[1])])
        elif tokens[0] == "f":
            tokens[5:] = (str(new_id[int(e)]) for e in tokens[5:])
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("relabel", ["positions", "shuffled", "gap", "negative"])
def test_edge_ids_need_not_be_positions(relabel):
    """Edge ids that are the edges' positions (as serialize writes them)
    and any other distinct ids give the same mesh, read by blocks or by
    lines, and the same diagnostics for a face side that names no edge or
    the wrong one."""
    tri, spec = _sphere_mesh("A1", 12, 5)
    m = len(tri.edges)
    new_id = {"positions": list(range(m)), "shuffled": random.Random(2).sample(range(m), m),
              "gap": [e + (e >= m // 2) for e in range(m)],
              "negative": [e - 3 for e in range(m)]}[relabel]
    text = _relabel_edges(mesh.serialize(tri, spec), new_id)
    want = Triangulation(tri.n_boundary, [Edge(new_id[e.id], e.a, e.b) for e in tri.edges],
                         [Face(f.id, f.vertices, tuple(new_id[e] for e in f.edge_ids))
                          for f in tri.faces])
    indented = "".join(" " + line for line in text.splitlines(keepends=True))
    for got, got_spec in (mesh.parse(text), mesh.parse(indented)):
        assert got == want
        assert got.face_arrays[1].tobytes() == tri.face_arrays[1].tobytes()
        assert got_spec.eta == {new_id[e]: w for e, w in spec.eta.items()}
    face = want.faces[0]
    (va, vb, vc), side = face.vertices, face.edge_ids
    ends = {e.id: (e.a, e.b) for e in want.edges}[side[1]]
    first = f"f {face.id} {va} {vb} {vc} {side[0]} "
    assert first in text
    for bad, message in (
            (max(new_id) + 1, f"face {face.id} references unknown edge {max(new_id) + 1}"),
            (min(new_id) - 1, f"face {face.id} references unknown edge {min(new_id) - 1}"),
            (side[1], f"face {face.id}: edge {side[1]} joins ({ends[0]},{ends[1]}), "
                      f"expected ({va},{vb})")):
        with pytest.raises(DanglingReference) as err:
            mesh.parse(text.replace(first, f"f {face.id} {va} {vb} {vc} {bad} ", 1))
        assert str(err.value) == message


@pytest.mark.parametrize("family, n", [(family, 40) for family in _FAMILIES] + [("A1", 3000)])
def test_serialized_meshes_read_as_blocks(monkeypatch, family, n):
    """The v, e and f records of a serialized mesh are read as blocks, also
    with comments and blank lines between them: only the format and
    structure records go through the line reader."""
    tri, spec = _sphere_mesh(family, n, 3)
    text = mesh.serialize(tri, spec)
    kinds, read_line = [], mesh._read_line
    monkeypatch.setattr(mesh, "_read_line", lambda parts: kinds.append(parts[0]) or read_line(parts))
    assert mesh.parse(text) == (tri, spec)
    assert kinds == ["format", "structure"]
    kinds.clear()
    spaced = "# header\n" + text.replace("\ne ", "\n\n# edges\ne ", 1).replace("\nf ", "\n  \nf ", 1)
    assert mesh.parse(spaced) == (tri, spec)
    assert kinds == ["format", "structure"]
