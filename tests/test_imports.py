"""Every module of the package uses every name it imports (stdlib ``ast``,
so no linter is needed)."""

import ast
from pathlib import Path

import pytest

import sassc

MODULES = sorted(p for p in Path(sassc.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.AST):
    """Names that the import statements of ``tree`` bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"
