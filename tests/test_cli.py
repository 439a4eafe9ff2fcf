"""Scenario parsing, end-to-end drivers, CLI determinism and error paths."""

import dataclasses
import hashlib
import importlib
import pkgutil
import re
import warnings

import numpy as np
import pytest

import bhs
from bhs.cli import main
from bhs.exceptions import ConfigError
from bhs.fileio import read_farfield, read_indicator, write_farfield
from bhs.forward import equiangular_directions, far_field_columns
from bhs.geometry import make_named_curve
from bhs.scenario import Scenario, parse_scenario, run


def sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------
def test_parse_defaults_filled():
    s = parse_scenario("mode=lsm\nshape=apple\nkappa=6.283185307\n")
    assert s.mode == "lsm"
    assert s.N == 32 and s.n == 128
    assert s.effective_alpha() == 1e-6
    grid = s.grid()
    assert (grid.nx, grid.ny) == (128, 128)
    assert (grid.xmin, grid.xmax) == (-1.5, 1.5)


def test_parse_esm_defaults():
    s = parse_scenario("mode=esm\nshape=peanut\nkappa=6.28\nR=0.5\n")
    assert s.effective_alpha() == 1e-4
    grid = s.grid()
    assert (grid.nx, grid.ny) == (200, 200)
    assert (grid.xmin, grid.xmax) == (-3.0, 3.0)
    assert s.directions == (np.pi / 3,)


def test_parse_comments_and_duplicates():
    text = "mode=forward # trailing comment\n# full comment\n\nshape=apple\nkappa=1\nkappa=2\n"
    with pytest.warns(UserWarning, match="duplicate key 'kappa'"):
        s = parse_scenario(text)
    assert s.kappa == 2.0


@pytest.mark.parametrize(
    "text,needle",
    [
        ("mode=lsm\nshape=apple\nkappa=-1\n", "kappa"),
        ("mode=lsm\nshape=apple\nwavelength=3\n", "wavelength"),
        ("mode=lsm\nshape=apple\nkappa=abc\n", "kappa"),
        ("mode=lsm\nshape=apple\nkappa=1\nN=7\n", "N"),
        ("mode=lsm\nshape=apple\nkappa=1\nn=100\n", "n"),
        ("mode=lsm\nshape=banana\nkappa=1\n", "shape"),
        ("mode=fly\nshape=apple\nkappa=1\n", "mode"),
        ("mode=esm\nshape=apple\nkappa=1\n", "R"),
        ("mode=esm-multilevel\nshape=apple\nkappa=1\n", "R0"),
        ("mode=lsm\nkappa=1\n", "shape"),
        # ESM perturbs none of its columns, so a noise level would only be recorded.
        ("mode=esm\nshape=apple\nkappa=1\nR=0.5\ndelta=0.2\n", "key 'delta' \\(line 5\\)"),
        ("mode=esm-multilevel\nshape=apple\nkappa=1\nR0=4\ndelta=0.2\n",
         "key 'delta' \\(line 5\\)"),
        # Keys of another mode would be ignored yet recorded in the manifest.
        ("mode=lsm\nshape=apple\nkappa=1\nL=3\n", "key 'L' \\(line 4\\)"),
        ("mode=lsm\nshape=apple\nkappa=1\nkappa_min=1\n", "key 'kappa_min' \\(line 4\\)"),
        ("mode=esm-multilevel\nshape=apple\nkappa=1\nR0=4\nkappa_max=2\n",
         "key 'kappa_max' \\(line 5\\)"),
        ("mode=forward\nshape=apple\nkappa=1\nR=3\n", "key 'R' \\(line 4\\)"),
        ("mode=esm\nshape=apple\nkappa=1\nR=0.5\nR0=3\n", "key 'R0' \\(line 5\\)"),
        ("mode=lsm\nshape=apple\nkappa=1\nR0=3\n", "key 'R0' \\(line 4\\)"),
        # A single-frequency ESM run uses kappa and would only record the range.
        ("mode=esm\nshape=apple\nkappa=1\nR=1\nkappa_min=2\nkappa_max=3\n",
         "key 'kappa_min' \\(line 5\\)"),
        ("mode=esm\nshape=apple\nkappa=1\nR=1\nkappa_max=3\n", "key 'kappa_max' \\(line 5\\)"),
        ("mode=esm\nshape=apple\nkappa=1\nR=1\nL=1\nkappa_min=2\n",
         "key 'kappa_min' \\(line 6\\)"),
        # The multilevel search scans one column; further angles would only be recorded.
        ("mode=esm-multilevel\nshape=apple\nkappa=1\nR0=4\ndirections=1.047,2.5\n",
         "key 'directions' \\(line 5\\)"),
        # Every float must be finite: NaN passes the range checks, inf overflows.
        ("mode=lsm\nshape=apple\nkappa=nan\n", "key 'kappa' \\(line 3\\)"),
        ("mode=lsm\nshape=apple\nkappa=1e400\n", "key 'kappa' \\(line 3\\)"),
        ("mode=lsm\nshape=apple\nkappa=1\nalpha=nan\n", "key 'alpha' \\(line 4\\)"),
        ("mode=lsm\nshape=apple\nkappa=1\ndelta=nan\n", "key 'delta' \\(line 4\\)"),
        ("mode=lsm\nshape=apple\nkappa=1\nzeta=nan\n", "key 'zeta' \\(line 4\\)"),
        ("mode=lsm\nshape=apple\nkappa=1\nscale=inf\n", "key 'scale' \\(line 4\\)"),
        ("mode=lsm\nshape=apple\nkappa=1\ncenter=0,nan\n", "key 'center' \\(line 4\\)"),
        ("mode=lsm\nshape=apple\nkappa=1\ngrid_ymin=-inf\n", "key 'grid_ymin' \\(line 4\\)"),
        ("mode=esm\nshape=apple\nkappa=1\nR=inf\n", "key 'R' \\(line 4\\)"),
        ("mode=esm\nshape=apple\nkappa=1\nR=1\ndirections=nan\n",
         "key 'directions' \\(line 5\\)"),
        # Grid bounds are compared after the mode's defaults are filled in.
        ("mode=lsm\nshape=apple\nkappa=1\ngrid_xmin=2\n", "key 'grid_xmin' \\(line 4\\)"),
        ("mode=esm\nshape=apple\nkappa=1\nR=1\ngrid_ymax=-4\n",
         "key 'grid_ymax' \\(line 5\\)"),
        # The file fixes N and nothing is synthesized, so a given N or n would only be recorded.
        ("mode=lsm\nfarfield_in=x.ff\nN=16\n",
         "^key 'N' \\(line 3\\): the farfield_in file sets N; drop N$"),
        ("mode=esm\nfarfield_in=x.ff\nR=1\nn=32\n",
         "^key 'n' \\(line 4\\): the quadrature applies when synthesizing data; drop n$"),
        # An empty list fails in the parse, before any rule sees it.
        ("mode=esm\nshape=apple\nkappa=1\nR=1\ndirections=\n",
         "key 'directions' \\(line 5\\): malformed value ''"),
    ],
)
def test_parse_errors_name_the_key(text, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_scenario(text)


MODES = "('forward', 'lsm', 'esm', 'esm-multilevel')"


@pytest.mark.parametrize("text,message", [
    # The parse: syntax, key names, number formats.
    ("mode=lsm\nshape=apple\nkappa 1\n", "line 3: expected key=value, got 'kappa 1'"),
    ("mode=lsm\nshape=apple\nwavelength=3\n", "unknown key 'wavelength' (line 3)"),
    ("mode=lsm\nshape=apple\nN=3.5\nkappa=1\n",
     "key 'N' (line 3): malformed value '3.5' (invalid literal for int() with base 10: '3.5')"),
    ("mode=lsm\nshape=apple\nkappa=1\ncenter=1,2,3\n",
     "key 'center' (line 4): malformed value '1,2,3' (expected two comma-separated numbers)"),
    ("mode=lsm\nshape=apple\nkappa=nan\n", "key 'kappa' (line 3): must be finite, got 'nan'"),
    # One key at a time.
    ("mode=fly\nshape=apple\nkappa=1\n", f"key 'mode' (line 1): must be one of {MODES}, got 'fly'"),
    ("shape=apple\nkappa=1\n", f"key 'mode' (line 0): must be one of {MODES}, got None"),
    ("mode=lsm\nshape=banana\nkappa=1\n",
     "key 'shape' (line 2): must be one of ('apple', 'peanut', 'peach', 'circle', 'ellipse')"),
    ("mode=lsm\nshape=apple\nkappa=1\nscale=0\n", "key 'scale' (line 4): must be > 0"),
    ("mode=lsm\nshape=apple\nkappa=-1\n", "key 'kappa' (line 3): must be > 0"),
    ("mode=lsm\nshape=apple\nkappa=1\nalpha=0\n", "key 'alpha' (line 4): must be > 0"),
    ("mode=lsm\nshape=apple\nkappa=1\nzeta=-0.1\n", "key 'zeta' (line 4): must be > 0"),
    ("mode=esm\nshape=apple\nkappa=1\nR=-1\n", "key 'R' (line 4): must be > 0"),
    ("mode=esm-multilevel\nshape=apple\nkappa=1\nR0=0\n", "key 'R0' (line 4): must be > 0"),
    ("mode=esm\nshape=apple\nR=1\nL=3\nkappa_min=-1\nkappa_max=2\n",
     "key 'kappa_min' (line 5): must be > 0"),
    ("mode=esm\nshape=apple\nR=1\nL=3\nkappa_min=1\nkappa_max=0\n",
     "key 'kappa_max' (line 6): must be > 0"),
    ("mode=lsm\nshape=apple\nkappa=1\ndelta=-0.1\n", "key 'delta' (line 4): must be >= 0"),
    ("mode=esm\nshape=apple\nkappa=1\nR=1\nL=0\n", "key 'L' (line 5): must be >= 1"),
    ("mode=lsm\nshape=apple\nkappa=1\nN=7\n", "key 'N' (line 4): must be even and >= 8"),
    ("mode=esm\nshape=apple\nkappa=1\nR=1\nN=7\n", "key 'N' (line 5): must be >= 8"),
    ("mode=lsm\nshape=apple\nkappa=1\nn=100\n",
     "key 'n' (line 4): must be a power of two in [8, 1024]"),
    ("mode=lsm\nshape=apple\nkappa=1\ngrid_ny=1\n", "key 'grid_ny' (line 4): must be >= 2"),
    ("mode=lsm\nshape=apple\nkappa=1\ngrid_xmin=2\n",
     "key 'grid_xmin' (line 4): needs grid_xmin < grid_xmax, got 2.0 and 1.5"),
    # Rules across keys.
    ("mode=lsm\nkappa=1\n", "key 'shape' (line 0): required for mode=lsm without farfield_in"),
    ("mode=forward\nfarfield_in=x.ff\n",
     "key 'farfield_in' (line 2): mode=forward synthesizes its data"),
    ("mode=lsm\nfarfield_in=x.ff\nkappa=1\n",
     "key 'kappa' (line 3): the farfield_in file sets kappa; drop kappa"),
    ("mode=lsm\nfarfield_in=x.ff\ndelta=0.05\n",
     "key 'delta' (line 3): noise applies when synthesizing data; drop farfield_in or set delta=0"),
    ("mode=esm\nshape=apple\nkappa=1\nR=0.5\ndelta=0.2\n",
     "key 'delta' (line 5): mode=esm adds no noise to its data; set delta=0"),
    ("mode=lsm\nshape=apple\nkappa=1\nL=3\n", "key 'L' (line 4): applies to mode=esm only"),
    ("mode=esm-multilevel\nshape=apple\nkappa=1\nR0=4\nR=1\n",
     "key 'R' (line 5): applies to mode=esm only"),
    ("mode=esm\nshape=apple\nkappa=1\nR=1\nR0=3\n",
     "key 'R0' (line 5): applies to mode=esm-multilevel only"),
    ("mode=esm\nshape=apple\nkappa=1\n", "key 'R' (line 0): required for mode=esm"),
    ("mode=esm\nshape=apple\nR=1\nL=3\nkappa_max=2\n",
     "key 'kappa_min' (line 0): kappa_min and kappa_max required when L > 1"),
    ("mode=esm\nshape=apple\nR=1\nL=3\nkappa_min=2\nkappa_max=1\n",
     "key 'kappa_max' (line 6): must exceed kappa_min"),
    ("mode=esm\nfarfield_in=x.ff\nR=1\nL=3\nkappa_min=1\nkappa_max=2\n",
     "key 'farfield_in' (line 2): multi-frequency runs synthesize data"),
    ("mode=esm\nshape=apple\nkappa=1\nR=1\nkappa_max=3\n",
     "key 'kappa_max' (line 5): applies to multi-frequency runs (L > 1) only"),
    ("mode=esm-multilevel\nshape=apple\nkappa=1\n",
     "key 'R0' (line 0): required for mode=esm-multilevel"),
    ("mode=esm-multilevel\nshape=apple\nkappa=1\nR0=4\ndirections=1,2\n",
     "key 'directions' (line 5): mode=esm-multilevel uses one incident direction; give one angle"),
    ("mode=forward\nshape=apple\n", "key 'kappa' (line 0): required for mode=forward"),
])
def test_validator_messages_are_pinned(text, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_scenario(text)


@pytest.mark.parametrize("text", [
    "mode=esm\nshape=apple\nkappa=3\nR=0.5\nN=41\n",
    "mode=esm-multilevel\nshape=apple\nkappa=3\nR0=4\nN=41\n",
], ids=["esm", "esm-multilevel"])
def test_esm_modes_accept_odd_direction_count(text):
    # ESM manifests report no reciprocity residual, so -xhat need not be on the grid.
    assert parse_scenario(text).N == 41
    with pytest.raises(ConfigError, match="key 'N' \\(line 5\\): must be >= 8"):
        parse_scenario(text.replace("N=41", "N=7"))


@pytest.mark.parametrize("mode", ["forward", "lsm"])
def test_reciprocity_modes_reject_odd_direction_count(mode):
    with pytest.raises(ConfigError, match="key 'N' \\(line 4\\): must be even and >= 8"):
        parse_scenario(f"mode={mode}\nshape=apple\nkappa=3\nN=41\n")


def test_esm_run_at_odd_direction_count(tmp_path):
    text = ("mode=esm\nshape=peanut\nkappa=6.283185307179586\nN=41\nn=64\nR=0.5\n"
            "directions=0,1.5\ngrid_nx=40\ngrid_ny=40\n")
    run(parse_scenario(text), out=str(tmp_path / "odd"))
    assert parse_scenario((tmp_path / "odd.manifest").read_text()).N == 41


def test_parse_error_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_scenario("mode=lsm\nshape=apple\nkappa=-1\n")


def test_multilevel_radius_key():
    s = parse_scenario("mode=esm-multilevel\nshape=apple\nkappa=6.28\nR0=4.0\n")
    assert s.R0 == 4.0


def test_noise_with_file_input_rejected():
    with pytest.raises(ConfigError, match="delta"):
        parse_scenario("mode=lsm\nfarfield_in=x.ff\ndelta=0.05\n")


@pytest.mark.parametrize(
    "text,needle",
    [
        ("mode=forward\nfarfield_in=x.ff\n", "key 'farfield_in' \\(line 2\\)"),
        ("mode=lsm\nfarfield_in=x.ff\nkappa=1\n", "key 'kappa' \\(line 3\\)"),
        ("mode=esm\nfarfield_in=x.ff\nkappa=1\nR=0.5\n", "key 'kappa' \\(line 3\\)"),
        ("mode=esm-multilevel\nfarfield_in=x.ff\nkappa=1\nR0=4\n", "key 'kappa' \\(line 3\\)"),
        ("mode=esm-multilevel\nfarfield_in=x.ff\nR0=4\n", None),
    ],
)
def test_farfield_in_sets_kappa_in_every_mode(text, needle):
    if needle is None:
        assert parse_scenario(text).kappa is None
    else:
        with pytest.raises(ConfigError, match=needle):
            parse_scenario(text)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def forward_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fwd") / "apple"
    scenario = parse_scenario(
        f"mode=forward\nshape=apple\nkappa=3.14159265358979\nN=32\nn=128\nout={out}\n"
    )
    outputs, diagnostics = run(scenario)
    return out, outputs, diagnostics


def test_forward_driver_writes_data(forward_outputs):
    out, outputs, diagnostics = forward_outputs
    assert diagnostics["reciprocity_residual"] < 1e-4
    F, _ = read_farfield(f"{out}.ff")
    assert len(F) == 32


def test_manifest_is_rerunnable_scenario(forward_outputs, tmp_path):
    out, outputs, _ = forward_outputs
    manifest_text = open(f"{out}.manifest").read()
    assert "# reciprocity_residual=" in manifest_text
    again = parse_scenario(manifest_text)
    assert again.mode == "forward" and again.shape == "apple"
    # and produces byte-identical data when re-run elsewhere
    outputs2, _ = run(again, out=str(tmp_path / "again"))
    assert sha256(f"{out}.ff") == sha256(tmp_path / "again.ff")


def test_run_determinism_byte_identical(tmp_path):
    text = (
        "mode=lsm\nshape=circle\nkappa=6.283185307179586\nN=16\nn=64\n"
        "delta=0.02\nseed=5\ngrid_nx=24\ngrid_ny=24\n"
    )
    s = parse_scenario(text)
    outputs, _ = run(s, out=str(tmp_path / "a"))
    first = {p: sha256(p) for p in outputs}
    outputs2, _ = run(s, out=str(tmp_path / "a"))
    assert outputs2 == outputs
    for p in outputs:
        assert sha256(p) == first[p]
    # data files (not the manifest, which records the prefix) are also
    # identical across different output locations
    outputs3, _ = run(s, out=str(tmp_path / "b"))
    for p1, p3 in zip(outputs[:-1], outputs3[:-1]):
        assert sha256(p1) == sha256(p3)


def test_lsm_driver_mask_centroid(tmp_path):
    text = (
        "mode=lsm\nshape=circle\nkappa=6.283185307179586\nN=32\nn=128\n"
        "grid_nx=64\ngrid_ny=64\nzeta=0.2\n"
    )
    outputs, diagnostics = run(parse_scenario(text), out=str(tmp_path / "disk"))
    mask = read_indicator(tmp_path / "disk.mask")
    pts = mask.grid.points()
    centroid = pts[mask.values.astype(bool)].mean(axis=0)
    assert np.hypot(*centroid) < 0.1
    assert diagnostics["reciprocity_residual"] < 1e-4


def test_lsm_consumes_farfield_file(forward_outputs, tmp_path):
    out, _, _ = forward_outputs
    text = f"mode=lsm\nfarfield_in={out}.ff\ngrid_nx=16\ngrid_ny=16\n"
    outputs, diagnostics = run(parse_scenario(text), out=str(tmp_path / "fromfile"))
    ind = read_indicator(tmp_path / "fromfile.ind")
    assert float(ind.meta["kappa"]) == pytest.approx(3.14159265358979)


def test_farfield_in_manifest_records_no_direction_count(tmp_path):
    run(parse_scenario("mode=forward\nshape=circle\nkappa=3.141592653589793\nN=16\nn=32\n"),
        out=str(tmp_path / "data"))
    text = f"mode=lsm\nfarfield_in={tmp_path / 'data.ff'}\ngrid_nx=16\ngrid_ny=16\n"
    run(parse_scenario(text), out=str(tmp_path / "first"))
    manifest = (tmp_path / "first.manifest").read_text()
    assert not re.search(r"^(N|n)=", manifest, flags=re.MULTILINE)
    run(parse_scenario(manifest), out=str(tmp_path / "again"))
    assert sha256(tmp_path / "first.ind") == sha256(tmp_path / "again.ind")


def test_lsm_from_odd_direction_count_file(tmp_path):
    # Far-field files may carry an odd direction count; LSM accepts them.
    N = 31
    entries = far_field_columns(make_named_curve("circle"), 2 * np.pi, N,
                                equiangular_directions(N), n=64)
    write_farfield(tmp_path / "odd.ff", entries, 2 * np.pi)
    text = f"mode=lsm\nfarfield_in={tmp_path / 'odd.ff'}\ngrid_nx=32\ngrid_ny=32\nzeta=0.2\n"
    # The odd count is reported by the NaN residual alone, not by a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outputs, diagnostics = run(parse_scenario(text), out=str(tmp_path / "odd"))
    assert np.isnan(diagnostics["reciprocity_residual"])
    mask = read_indicator(tmp_path / "odd.mask")
    centroid = mask.grid.points()[mask.values.astype(bool)].mean(axis=0)
    assert np.hypot(*centroid) < 0.1


def test_esm_driver_runs(tmp_path):
    text = (
        "mode=esm\nshape=peanut\nkappa=6.283185307179586\nN=40\nn=128\nR=0.5\n"
        "grid_nx=41\ngrid_ny=41\n"
    )
    outputs, diagnostics = run(parse_scenario(text), out=str(tmp_path / "pn"))
    assert np.hypot(diagnostics["estimate_x"], diagnostics["estimate_y"]) < 0.3
    assert (tmp_path / "pn.loc").exists() and (tmp_path / "pn.ind").exists()


def test_esm_multifrequency_cli_path(tmp_path):
    text = (
        "mode=esm\nshape=peanut\nkappa_min=3.141592653589793\n"
        "kappa_max=9.42477796076938\nL=3\nN=24\nn=64\nR=0.5\n"
        "grid_nx=31\ngrid_ny=31\n"
    )
    s = parse_scenario(text)
    np.testing.assert_allclose(s.wavenumbers(), [np.pi, 2 * np.pi, 3 * np.pi], rtol=1e-12)
    outputs, diagnostics = run(s, out=str(tmp_path / "mf"))
    assert np.hypot(diagnostics["estimate_x"], diagnostics["estimate_y"]) < 0.3


def test_esm_from_file_requires_grid_direction(forward_outputs, tmp_path):
    out, _, _ = forward_outputs
    ok = parse_scenario(
        f"mode=esm\nfarfield_in={out}.ff\nR=0.5\ndirections=0.0\ngrid_nx=12\ngrid_ny=12\n"
    )
    run(ok, out=str(tmp_path / "okesm"))
    column0 = read_indicator(tmp_path / "okesm.ind").values
    # Angles within 1e-9 of theta_0 = 0 across the 2 pi wrap select column 0 too.
    for label, angle in (("below", "-1e-12"), ("wrapped", "6.2831853071795")):
        near = parse_scenario(
            f"mode=esm\nfarfield_in={out}.ff\nR=0.5\ndirections={angle}\ngrid_nx=12\ngrid_ny=12\n"
        )
        run(near, out=str(tmp_path / label))
        assert np.array_equal(read_indicator(tmp_path / f"{label}.ind").values, column0)
    bad = parse_scenario(
        f"mode=esm\nfarfield_in={out}.ff\nR=0.5\ndirections=0.05\ngrid_nx=12\ngrid_ny=12\n"
    )
    with pytest.raises(ConfigError, match="direction 0.05 is not on the"):
        run(bad, out=str(tmp_path / "badesm"))


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
def test_cli_forward_and_verify(tmp_path, capsys):
    scen = tmp_path / "s.cfg"
    scen.write_text("mode=forward\nshape=peanut\nkappa=3.141592653589793\nN=16\nn=64\n")
    assert main(["forward", str(scen), "-o", str(tmp_path / "pn")]) == 0
    captured = capsys.readouterr()
    assert "reciprocity_residual" in captured.out
    assert main(["verify", str(tmp_path / "pn.ff")]) == 0
    captured = capsys.readouterr()
    assert "N=16" in captured.out
    assert "reciprocity_residual" in captured.out


def test_cli_verify_bad_number_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.ff"
    path.write_text("#bhff v1\nkappa=1\nN=2\n0 abc 0 0\n0 0 0 0\n")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "row 0" in err and "abc" in err


def test_cli_mode_mismatch(tmp_path, capsys):
    scen = tmp_path / "s.cfg"
    scen.write_text("mode=forward\nshape=peanut\nkappa=3.14\nN=16\nn=64\n")
    assert main(["lsm", str(scen)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path, capsys):
    scen = tmp_path / "bad.cfg"
    scen.write_text("mode=lsm\nshape=apple\nkappa=-1\n")
    assert main(["lsm", str(scen)]) == 2
    assert "kappa" in capsys.readouterr().err


def test_cli_lsm_tiny_alpha_finishes(tmp_path):
    scen = tmp_path / "tiny.cfg"
    scen.write_text(
        "mode=lsm\nshape=peanut\nkappa=6.283185307179586\nN=32\nn=128\n"
        "alpha=1e-14\ngrid_nx=16\ngrid_ny=16\n"
    )
    assert main(["lsm", str(scen), "-q", "-o", str(tmp_path / "tiny")]) == 0


def test_scenario_multifrequency_wavenumbers():
    s = Scenario(mode="esm", shape="peach", kappa_min=np.pi, kappa_max=4 * np.pi, L=5, R=1.0)
    ks = s.wavenumbers()
    np.testing.assert_allclose(ks, np.linspace(np.pi, 4 * np.pi, 5), rtol=1e-15)


def test_docstring_lists_every_key():
    doc = bhs.scenario.__doc__
    keys = doc[doc.index("Recognized keys"):doc.index("All randomness")]
    listed = {name for line in keys.splitlines() if re.match(r" {4}\S", line)
              for name in re.split(r",\s*", re.split(r"\s{2,}", line.strip())[0])}
    assert {spec.name for spec in dataclasses.fields(Scenario)} <= listed


@pytest.mark.parametrize(
    "module", ["bhs"] + [f"bhs.{info.name}" for info in pkgutil.iter_modules(bhs.__path__)]
)
def test_every_all_name_resolves(module):
    # Tooling (the benchmark tracer among it) wraps each name in __all__ by getattr.
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
