"""Demos: every name the scripts import from bhs exists, the fast scripts and
the README's library quick start run, and the scenario files run with the
imaging outcomes the documentation records. Also checks which package
modules the imaging methods and the disk series import, that no
package code passes ``where=`` to a special function, that every LU
back-substitution holds the solver lock and that nothing draws from numpy's
global random state."""

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


def test_disk_module_imports_only_the_exceptions():
    """bhs.disk is the oracle of the solver, so it shares no package code with
    it (not bhs.special in particular): its only package import is bhs.exceptions."""
    path = REPO / "src" / "bhs" / "disk.py"
    found = [f"line {line}: {name} from {mod}" for mod, name, line in bhs_imports(path)
             if mod != "bhs.exceptions" and (mod, name) != ("bhs", "exceptions")]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found += [f"line {node.lineno}: import {alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.Import) for alias in node.names
              if alias.name.split(".")[0] == "bhs" and alias.name != "bhs.exceptions"]
    assert not found, f"bhs.disk imports package code besides bhs.exceptions: {found}"


def test_readme_quick_start_runs(tmp_path):
    """The README's library quick start runs as printed, against src/."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    code = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "quick_start.py"
    script.write_text(code, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, f"README quick start failed:\n{result.stderr[-3000:]}"


SPECIAL_MODULES = ("scipy.special", "bhs.special")


def special_where_calls(source):
    """(line, callee) for each call passing ``where=`` to a function reached
    through a name bound to scipy.special or bhs.special: the module, or a
    name imported from it. scipy 1.17.1's y0/j0/k1 given both out= and where=
    crashed the process with a segmentation fault."""
    tree = ast.parse(source)
    bound = set()    # dotted names that reach a special-function module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is None:
                    top = alias.name.split(".")[0]
                    bound |= {mod for mod in SPECIAL_MODULES if mod.split(".")[0] == top}
                elif alias.name in SPECIAL_MODULES:
                    bound.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1:
                module = "bhs" + (f".{module}" if module else "")
            for alias in node.names:
                if module in SPECIAL_MODULES or f"{module}.{alias.name}" in SPECIAL_MODULES:
                    bound.add(alias.asname or alias.name)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and any(k.arg == "where" for k in node.keywords)):
            continue
        parts, func = [], node.func
        while isinstance(func, (ast.Attribute, ast.Subscript, ast.Call)):
            if isinstance(func, ast.Attribute):
                parts.append(func.attr)
            func = func.func if isinstance(func, ast.Call) else func.value
        if isinstance(func, ast.Name):
            callee = ".".join([func.id, *reversed(parts)])
            if any(callee == name or callee.startswith(name + ".") for name in bound):
                found.append((node.lineno, callee))
    return found


def test_special_where_check_finds_each_import_form():
    source = """
import numpy as np
import scipy.special
from scipy import special as _sp
from scipy.special import y0
from . import special
from .special import bessel_j
scipy.special.j0(x, out=b, where=m)
_sp.y0(x, out=b, where=m)
y0(x, out=b, where=m)
special.K01[0](x, out=b, where=m)
bessel_j(0, x, where=m)
np.copyto(b, x, where=m)
_sp.y0(x, out=b)
"""
    assert [line for line, _ in special_where_calls(source)] == [8, 9, 10, 11, 12]


@pytest.mark.parametrize("path", sorted((REPO / "src" / "bhs").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_where_argument_to_special_functions(path):
    found = special_where_calls(path.read_text(encoding="utf-8"))
    assert not found, f"{path.name} passes where= to a special function: {found}"


# numpy.random names that draw from no global state (the Generator API).
NUMPY_RANDOM_ALLOWED = {"default_rng", "Generator", "SeedSequence", "BitGenerator", "MT19937",
                        "PCG64", "PCG64DXSM", "Philox", "SFC64"}


def lock_and_random_violations(source):
    """(line, callee) for each call that breaks one of two rules:

    - ``lu_solve`` must sit inside a ``with _LU_SOLVE_LOCK:`` block: LAPACK
      getrs run from several threads on one factor corrupted the heap with
      OpenBLAS 0.3.31 (see ``bhs.forward``);
    - nothing may call ``onenormest`` or a legacy ``numpy.random`` function:
      both draw from the global random state, and re-runs of a scenario must
      stay byte-identical.

    Callees are resolved through the module's imports. The lock rule is
    lexical: a function defined inside the block counts as inside it.
    """
    tree = ast.parse(source)
    bound = {}    # local name -> dotted module path or object it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is None:
                    top = alias.name.split(".")[0]
                    bound[top] = top
                else:
                    bound[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    locked = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.With) and any(
                isinstance(item.context_expr, ast.Name) and item.context_expr.id == "_LU_SOLVE_LOCK"
                for item in node.items):
            locked |= {id(inner) for stmt in node.body for inner in ast.walk(stmt)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            continue
        callee = ".".join([bound.get(func.id, func.id), *reversed(parts)])
        name = callee.rsplit(".", 1)[-1]
        random_name = callee[len("numpy.random."):].split(".")[0]
        if ((name == "lu_solve" and id(node) not in locked) or name == "onenormest"
                or (callee.startswith("numpy.random.")
                    and random_name not in NUMPY_RANDOM_ALLOWED)):
            found.append((node.lineno, callee))
    return found


def test_lock_and_random_check_finds_each_form():
    source = """
import numpy as np
import numpy.random as npr
import scipy.linalg as sla
from numpy.random import rand
from scipy.linalg import lu_solve
from scipy.sparse.linalg import onenormest
with _LU_SOLVE_LOCK:
    sla.lu_solve(lu, b)
    f = lambda y: lu_solve(lu, y)
sla.lu_solve(lu, b)
lu_solve(lu, b)
np.random.uniform(0, 1, 3)
npr.seed(1)
rand(3)
onenormest(A)
with other_lock:
    sla.lu_solve(lu, b)
rng = np.random.default_rng(7)
rng.uniform(0, 1, 3)
np.random.Generator(np.random.PCG64(3))
"""
    assert [line for line, _ in lock_and_random_violations(source)] == [11, 12, 13, 14, 15, 16, 18]


@pytest.mark.parametrize("path", sorted((REPO / "src" / "bhs").glob("*.py")),
                         ids=lambda p: p.name)
def test_lu_solves_hold_the_lock_and_no_global_random_state(path):
    found = lock_and_random_violations(path.read_text(encoding="utf-8"))
    assert not found, f"{path.name} breaks the lock or random-state rule: {found}"


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
