"""Demo scripts: every name they import from bhs exists (no demo is executed)."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def bhs_imports(path):
    """(module, name, line) for each name in a ``from bhs[.<mod>] import ...`` line."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
                node.module == "bhs" or node.module.startswith("bhs.")):
            for alias in node.names:
                yield node.module, alias.name, node.lineno


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    missing = [f"line {line}: {name} from {module}" for module, name, line in bhs_imports(path)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} imports names bhs does not define: {missing}"
