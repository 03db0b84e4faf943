"""No module under src/ or tests/ imports a name it never reads."""

import ast
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
