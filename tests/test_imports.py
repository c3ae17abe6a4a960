"""Modules of the package share only public names with each other."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sqleq"


def _private_imports(path):
    """(line, module, name) of each underscore name `path` imports from
    another sqleq module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "sqleq":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((node.lineno, module, alias.name))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_private_names_imported_across_modules(path):
    assert _private_imports(path) == []
