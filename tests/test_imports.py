"""Every import of the package and of the tests is used."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path):
    """The names an import in ``path`` binds that the module never reads
    and does not list in ``__all__``, with the line of their import."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_every_import_is_used():
    paths = sorted((ROOT / "src" / "coverlib").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = {path.name: unused_imports(path) for path in paths}
    assert {name: found for name, found in unused.items() if found} == {}
