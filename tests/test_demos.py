"""Demos: every name the scripts import from bhs exists, the fast scripts run,
and the scenario files run with the imaging outcomes the documentation records.
Also checks which package modules the imaging methods import."""

import ast
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bhs.scenario import load_scenario, run

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))
SCENARIOS = sorted((REPO / "demos" / "scenarios").glob("*.cfg"))
# Scripts that finish in about 1-2 s. lsm_reconstruction.py (about 6.5 s, twelve
# 128^2 LSM maps) is left out to keep the suite fast; its imports are still checked.
FAST_DEMOS = ["esm_localization.py", "esm_multidata.py", "forward_accuracy.py"]

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
    """(module, name, line) for each name in a ``from bhs[.<mod>] import ...`` line.

    Inside the package, ``from .<mod> import ...`` counts as ``from bhs.<mod>``
    and ``from . import <mod>`` as ``from bhs import <mod>``.
    """
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module
        if node.level == 1:
            module = "bhs" + (f".{module}" if module else "")
        if module and (module == "bhs" or module.startswith("bhs.")):
            for alias in node.names:
                yield module, alias.name, node.lineno


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    missing = [f"line {line}: {name} from {module}" for module, name, line in bhs_imports(path)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} imports names bhs does not define: {missing}"


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_fast_demo_runs(name, tmp_path):
    # A copy in tmp_path, so the script's outputs land there.
    script = tmp_path / name
    shutil.copy(REPO / "demos" / name, script)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, f"{name} failed:\n{result.stderr[-3000:]}"


@pytest.mark.parametrize("module", ["lsm", "esm"])
def test_imaging_method_does_not_import_the_solver(module):
    """LSM and ESM take far-field data as arrays and get the direction grid from
    bhs.grids; neither depends on the forward solver."""
    path = REPO / "src" / "bhs" / f"{module}.py"
    found = [f"line {line}: {name} from {mod}" for mod, name, line in bhs_imports(path)
             if mod == "bhs.forward" or (mod == "bhs" and name == "forward")]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found += [f"line {node.lineno}: import {alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.Import) for alias in node.names
              if alias.name == "bhs.forward"]
    assert not found, f"bhs.{module} imports the forward solver: {found}"


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
