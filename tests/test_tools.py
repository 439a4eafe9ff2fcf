"""tools/outputs.py compare: which differences fail the output-identity check."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "outputs", Path(__file__).resolve().parent.parent / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(outputs)


def write_run(root, out, ind_values, mask="1 0\n", keys=""):
    (root / "lsm-fromfile").mkdir(parents=True)
    (root / "lsm-fromfile" / "a.manifest").write_text(
        f"mode=lsm\n{keys}out={out}\n# mask_points=1\n")
    (root / "lsm-fromfile" / "a.mask").write_text(mask)
    (root / "lsm-fromfile" / "a.ind").write_text(
        "#bhind v1\nnx=2\nny=1\nmeta.shape=apple\n" + " ".join(map(repr, ind_values)) + "\n")


def test_compare_ignores_paths_and_reports_ind_difference(tmp_path, capsys):
    write_run(tmp_path / "a", "/x/a", [1.0, 2.0])
    write_run(tmp_path / "b", "/y/a", [1.0, 2.0 * (1 + 3e-10)])
    assert outputs.compare(tmp_path / "a", tmp_path / "b") == 0
    text = capsys.readouterr().out
    assert float(text.rpartition("lsm-fromfile: ")[2]) == pytest.approx(3e-10, rel=1e-3)
    write_run(tmp_path / "c", "/z/a", [1.0, 2.0], mask="0 1\n")
    assert outputs.compare(tmp_path / "a", tmp_path / "c") == 1
    assert "differs: lsm-fromfile/a.mask" in capsys.readouterr().out


def test_compare_prints_manifest_lines_on_one_side(tmp_path, capsys):
    write_run(tmp_path / "a", "/x/a", [1.0, 2.0], keys="N=32\nn=128\n")
    write_run(tmp_path / "b", "/y/a", [1.0, 2.0])
    assert outputs.compare(tmp_path / "a", tmp_path / "b") == 1
    text = capsys.readouterr().out
    assert "differs: lsm-fromfile/a.manifest" in text
    shown = [line for line in text.splitlines() if line.startswith("  only in ")]
    assert shown == [f"  only in {tmp_path / 'a'}: N=32", f"  only in {tmp_path / 'a'}: n=128"]
