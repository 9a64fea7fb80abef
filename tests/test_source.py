"""Source hygiene: every module of the package imports only what it uses."""

import ast
from pathlib import Path

import pytest

import scenesim

MODULES = sorted(p for p in Path(scenesim.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")  # the package's re-exports


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name the module imports and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "annotations":  # the __future__ switch
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []
