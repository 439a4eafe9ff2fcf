"""Demos: every name the scripts import from bhs exists, and the scenario files
run with the imaging outcomes the documentation records."""

import ast
import importlib
from pathlib import Path

import pytest

from bhs.scenario import load_scenario, run

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "demos" / "scenarios").glob("*.cfg"))

# Diagnostics pinned per scenario; the forward scenario's reciprocity residual
# is bounded instead.
EXPECTED = {
    "lsm_peanut.cfg": {"mask_points": 49},
    "esm_peanut.cfg": {"estimate_x": -0.0303, "estimate_y": -0.0303},
    "esm_multilevel_apple.cfg": {"estimate_x": -1.5, "estimate_y": 1.3125, "final_radius": 0.5,
                                 "levels": 4, "low_confidence": 0},
    "forward_apple.cfg": {},
}


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


def test_every_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS) == sorted(EXPECTED)


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.name for p in SCENARIOS])
def test_demo_scenario_outcome(path, tmp_path):
    outputs, diagnostics = run(load_scenario(path), out=str(tmp_path / path.stem))
    assert all(Path(out).exists() for out in outputs)
    for key, value in EXPECTED[path.name].items():
        assert diagnostics[key] == pytest.approx(value, abs=5e-5), key
    if path.name == "forward_apple.cfg":
        assert diagnostics["reciprocity_residual"] <= 1e-12
