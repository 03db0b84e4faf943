"""No module under src/ or tests/ imports a name it never reads, no
definition in src/hexcurv goes unread by the library itself unless it is
on the allowlist below, and no function there takes a parameter it never
reads."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """(line, name) of every name an import in source binds and no
    expression reads; __future__ imports bind no name."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_scan_finds_a_planted_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport scipy.sparse\n"
              "from math import pi as half_turn, tau\nprint(scipy.sparse, tau)\n")
    assert unused_imports(source) == [(2, "os"), (4, "half_turn")]


def test_every_imported_name_is_read():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    found = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in files
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "imported and never read:\n" + "\n".join(found)


# Definitions in src/hexcurv that the library itself never reads, and why
# each stays: public API for callers, or a name perfbench reads (it keeps
# its own copies of everything else it needs).
ALLOWED = {
    "f_from_u": "public API: the factors of coordinates, as read-only Weights",
    "u_from_f": "public API: the coordinates of factors, as read-only Weights",
    "serialize": "public API: the text of a mesh and spec, which parse reads back",
    "pair_of_pants": "public API: the stock two-face mesh",
    "default_initial": "public API: the default start as a dict",
    "energy": "public API: the variational energy between two points",
    "Admissibility.violations": "public API: the bounds admissible finds violated",
    "BACKEND": "perfbench's environment line names the kernel backend",
    "chart": "perfbench's admissible-point sampler reads each component's chart",
    "Chart.contains": "perfbench's sampler keeps each coordinate inside its chart",
}


def _reads(tree, strings: bool, names: bool = True) -> collections.Counter:
    """How often tree reads each name, as an attribute, as a name if names,
    and, if strings, as a string constant that is an identifier (as getattr
    takes it)."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else
        node.attr if isinstance(node, ast.Attribute) else node.value
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) or names and isinstance(node, ast.Name))
        and isinstance(node.ctx, ast.Load)
        or strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.isidentifier())


def _defined(node) -> list:
    """The names a statement defines: a function's or class's, or the
    targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return []


def unreferenced(defining: dict, library: list, others: list = ()) -> list:
    """(path, line, name) of every top-level function, class and assigned
    name (a namedtuple class is one), and every method, property and class
    attribute of a top-level class (named Class.member; dunder methods
    excepted), in the sources of defining, a mapping of path to library
    source, that no source in library or others reads outside the
    definition itself.  A top-level name is read as a name or an attribute;
    a class member only as an attribute, so a local of the same name reads
    nothing.  A string naming it counts as a read in library sources only,
    so an allowlist's keys in a test read nothing."""
    sources = [(source, True) for source in library] + [(source, False) for source in others]
    read, attributes = (sum((_reads(ast.parse(source), strings, names) for source, strings
                             in sources), collections.Counter()) for names in (True, False))
    found = []
    for path, source in defining.items():
        body = ast.parse(source).body
        members = [(node, cls.name) for cls in body if isinstance(cls, ast.ClassDef)
                   for node in cls.body]
        for node, cls in [(node, None) for node in body] + members:
            own = _reads(node, True, cls is None)
            count = read if cls is None else attributes
            found += [(path, node.lineno, name if cls is None else f"{cls}.{name}")
                      for name in _defined(node)
                      if count[name] == own[name]
                      and not (name.startswith("__") and name.endswith("__"))]
    return sorted(found, key=lambda x: (str(x[0]), x[1]))


def test_the_scan_finds_planted_unreferenced_definitions():
    source = ("from collections import namedtuple\n\n\ndef kept():\n    return LIMIT\n\n\n"
              "def helper(n):\n    return helper(n - 1) if n else kept()\n\n\n"
              "Left = namedtuple('Left', 'a b')\nLIMIT = 3\n")
    assert unreferenced({"m.py": source}, [source], ["print(LIMIT)\n"]) == [
        ("m.py", 8, "helper"), ("m.py", 12, "Left")]


def test_the_scan_finds_a_planted_test_only_method():
    # the library reads the property, and the class attribute through
    # getattr; only a test reads peek, and poke only itself
    library = ("class Box:\n    size = 3\n\n    def __init__(self, n):\n        self.n = n\n\n"
               "    @property\n    def full(self):\n        return self.n > 2\n\n"
               "    def peek(self):\n        return self.n\n\n"
               "    def poke(self):\n        return self.poke()\n\n\n"
               "print(Box(1).full, getattr(Box, 'size'))\n")
    test = "print(Box(2).peek())\n"
    assert unreferenced({"m.py": library}, [library]) == [
        ("m.py", 11, "Box.peek"), ("m.py", 14, "Box.poke")]
    assert unreferenced({"m.py": library}, [library], [test]) == [("m.py", 14, "Box.poke")]


def test_the_scan_reads_no_member_by_a_local_of_its_name():
    # the library binds and reads a local named like the field; only a test
    # reads the field, as an attribute
    library = ("from typing import NamedTuple\n\n\nclass Rec(NamedTuple):\n"
               "    size: int\n\n\ndef make(n):\n    size = n + 1\n    return Rec(size)\n\n\n"
               "print(make(1))\n")
    test = "print(make(2).size)\n"
    assert unreferenced({"m.py": library}, [library]) == [("m.py", 5, "Rec.size")]
    assert unreferenced({"m.py": library}, [library], [test]) == []


def test_the_scan_reads_no_allowlist_string_in_a_test():
    # a test naming a definition in a string, as an allowlist's key does,
    # does not read it; the library naming it in a string, for getattr, does
    library = "def spare():\n    return 1\n"
    allowlist = "ALLOWED = {'spare': 'public API'}\n"
    assert unreferenced({"m.py": library}, [library], [allowlist]) == [("m.py", 1, "spare")]
    assert unreferenced({"m.py": library}, [library, allowlist]) == []


def _sources(*tops) -> list:
    return [path.read_text(encoding="utf-8") for top in tops
            for path in sorted((ROOT / top).rglob("*.py"))]


def _library() -> dict:
    return {path.relative_to(ROOT): path.read_text(encoding="utf-8")
            for path in sorted((ROOT / "src" / "hexcurv").rglob("*.py"))}


def test_every_top_level_definition_is_read():
    # by the library, the tests or perfbench: allowlisted names too
    found = [f"{path}:{line}: {name}" for path, line, name
             in unreferenced(_library(), _sources("src"), _sources("tests", "perfbench"))]
    assert not found, "defined and never read:\n" + "\n".join(found)


def test_the_library_reads_every_definition():
    # nothing in src/hexcurv is read only from tests/ or perfbench/, except
    # the allowlisted names, and each of those is one the library does not read
    found = unreferenced(_library(), _sources("src"))
    extra = [f"{path}:{line}: {name}" for path, line, name in found if name not in ALLOWED]
    assert not extra, "read only outside the library:\n" + "\n".join(extra)
    stale = set(ALLOWED) - {name for _, _, name in found}
    assert not stale, f"allowlisted, yet the library reads them: {sorted(stale)}"


def unread_parameters(source: str) -> list:
    """(line, function, name) of every parameter of a function or lambda in
    source that its body never reads; self and cls excepted.  A read in a
    nested function counts."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [(node.lineno, name, p) for p in params
                  if p not in read and p not in ("self", "cls")]
    return sorted(found)


def test_the_scan_finds_planted_unread_parameters():
    source = ("class C:\n    def m(self, x, *rest, key=None):\n        return x\n\n\n"
              "def outer(a, b, **kw):\n    def inner(c):\n        return a + c\n"
              "    return inner\n\n\nsq = lambda v, w: v * v\n")
    assert unread_parameters(source) == [
        (2, "m", "key"), (2, "m", "rest"), (6, "outer", "b"), (6, "outer", "kw"),
        (12, "<lambda>", "w")]


def test_every_parameter_is_read():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}({param})"
             for path in sorted((ROOT / "src" / "hexcurv").rglob("*.py"))
             for line, name, param in unread_parameters(path.read_text(encoding="utf-8"))]
    assert not found, "parameters never read:\n" + "\n".join(found)
