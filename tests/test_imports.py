"""Every import of the package and of the tests is used, and the
elimination oracle imports nothing it could share with the package."""

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


def test_elimination_oracle_is_independent_and_exact():
    """The Fourier–Motzkin oracle imports nothing from the package, nor
    ``fractions`` or ``decimal``, and has no float constant and no true
    division: it computes in integers, apart from the code it checks."""
    tree = ast.parse((ROOT / "tests" / "fourier_motzkin.py").read_text())
    imported, floats, divisions = set(), [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").partition(".")[0])
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            floats.append(node.lineno)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) is ast.Div:
            divisions.append(node.lineno)
    assert imported & {"coverlib", "fractions", "decimal"} == set()
    assert (floats, divisions) == ([], [])
