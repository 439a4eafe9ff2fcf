"""Outputs of seed 1's benchmark cases and of the demo scenarios stay as pinned.

``tools/outputs.py pin`` records their fingerprint in ``tests/data/outputs.json``.
A change that moves outputs on purpose re-pins, and lists in ``CHANGES.md``
each moved file and its largest change.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(outputs)


def test_outputs_match_fingerprint(tmp_path):
    # Its own process, so that one BLAS thread is in effect, as when pinned.
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "outputs.py"), "check",
                             str(tmp_path)], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr


def write_files(root, lsm, esm, ff, manifest="mode=lsm\n"):
    root.mkdir()
    (root / "a.ind").write_text("#bhind v1\nnx=3\nmeta.method=lsm\n" + " ".join(map(repr, lsm)))
    (root / "b.ind").write_text("#bhind v1\nnx=3\nmeta.method=esm\n" + " ".join(map(repr, esm)))
    (root / "c.ff").write_text("#bhff v1\nN=1\n" + " ".join(map(repr, ff)))
    (root / "d.manifest").write_text(f"{manifest}out={root}\n")


def test_strays_apply_each_tolerance(tmp_path):
    write_files(tmp_path / "pin", [3.0, 1.0, 2.0], [1.0, 0.5, 0.5], [100.0, 1e-3])
    pinned = outputs.fingerprint(tmp_path / "pin")
    # Within tolerance, a near-tie swapped its argmin, and the manifest's path moved.
    write_files(tmp_path / "near", [3.0, 1.0 + 1e-9, 2.0], [1.0, 0.5, 0.5 * (1 - 1e-13)],
                [100.0, 1e-3 + 5e-12])
    assert outputs.strays(tmp_path / "near", pinned) == []
    write_files(tmp_path / "far", [3.0, 1.0 + 3e-9, 2.0], [1.0, 0.5, 0.5 * (1 + 2e-12)],
                [100.0, 1e-3 + 2e-11], manifest="mode=esm\n")
    assert outputs.strays(tmp_path / "far", pinned) == [
        "a.ind: min is 1.000000003, pinned 1.0",
        "a.ind: value at argmin 1 is 1.000000003, pinned 1.0",
        "a.ind: sample 1 is 1.000000003, pinned 1.0",
        "b.ind: sample 2 is 0.500000000001, pinned 0.5",
        "c.ff: min is 0.00100000002, pinned 0.001",
        "c.ff: value at argmin 1 is 0.00100000002, pinned 0.001",
        "c.ff: sample 1 is 0.00100000002, pinned 0.001",
        "d.manifest: sha256 differs",
    ]
    (tmp_path / "far" / "c.ff").unlink()
    assert "c.ff: only in the fingerprint" in outputs.strays(tmp_path / "far", pinned)
