"""Source hygiene: every name a library module imports is used there."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "diffeolin"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def test_every_module_is_checked():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"
