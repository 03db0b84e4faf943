"""No module under src/ or tests/ imports a name it never reads, no
top-level definition in src/hexcurv goes unread, and no function there
takes a parameter it never reads."""

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


def _reads(tree) -> collections.Counter:
    """How often tree reads each name, as a name or as an attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load))


def unreferenced(defining: dict, reading: list) -> list:
    """(path, line, name) of every top-level function, class and assigned
    name (a namedtuple class is one) in the sources of defining, a mapping
    of path to source, that no source in reading reads outside the
    definition itself."""
    read = sum((_reads(ast.parse(source)) for source in reading), collections.Counter())
    found = []
    for path, source in defining.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            own = _reads(node)
            found += [(path, node.lineno, name) for name in names if read[name] == own[name]]
    return found


def test_the_scan_finds_planted_unreferenced_definitions():
    source = ("from collections import namedtuple\n\n\ndef kept():\n    return LIMIT\n\n\n"
              "def helper(n):\n    return helper(n - 1) if n else kept()\n\n\n"
              "Left = namedtuple('Left', 'a b')\nLIMIT = 3\n")
    assert unreferenced({"m.py": source}, [source, "print(LIMIT)\n"]) == [
        ("m.py", 8, "helper"), ("m.py", 12, "Left")]


def test_every_top_level_definition_is_read():
    defining = {path.relative_to(ROOT): path.read_text(encoding="utf-8")
                for path in sorted((ROOT / "src" / "hexcurv").rglob("*.py"))}
    reading = [path.read_text(encoding="utf-8") for top in ("src", "tests", "perfbench")
               for path in sorted((ROOT / top).rglob("*.py"))]
    found = [f"{path}:{line}: {name}" for path, line, name in unreferenced(defining, reading)]
    assert not found, "defined and never read:\n" + "\n".join(found)


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
