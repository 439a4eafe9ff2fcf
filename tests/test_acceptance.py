"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line as it
is produced. Each criterion states its tolerance inline; tolerances are
fixed here, not tuned.
"""

import hashlib

import numpy as np
from scipy import special as sp

from bhs.esm import esm_indicator, multilevel_esm
from bhs.forward import add_noise, far_field_columns, far_field_matrix, reciprocity_residual
from bhs.forward import ClampedSolver, analytic_disk_far_field, equiangular_directions
from bhs.forward import evaluate_scattered, far_field, plane_wave_data
from bhs.fileio import read_farfield, read_indicator, write_farfield, write_heatmap, write_indicator
from bhs.geometry import discretize, make_named_curve
from bhs.grids import IndicatorMap, SamplingGrid
from bhs.lsm import classify, lsm_indicator
from bhs.scenario import parse_scenario, run
from bhs.special import bessel_j, bessel_k, bessel_y


def report(number: int, description: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status}: {description}{suffix}")
    return ok


def winding_inside(curve, points: np.ndarray) -> np.ndarray:
    t = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
    poly = curve.position(t)
    d = poly[None, :, :] - points[:, None, :]
    angles = np.arctan2(d[..., 1], d[..., 0])
    steps = np.diff(np.concatenate([angles, angles[:, :1]], axis=1), axis=1)
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    return np.abs(steps.sum(axis=1)) > np.pi


def lsm_quality(F, kappa, curve, grid=None, alpha=1e-6, zeta=0.2):
    grid = grid or SamplingGrid(-1.5, 1.5, -1.5, 1.5, 64, 64)
    indicator = lsm_indicator(F, kappa, grid, alpha)
    pts = grid.points()
    inside = winding_inside(curve, pts)
    ratio = indicator.values[inside].mean() / indicator.values[~inside].mean()
    mask = classify(indicator, zeta)
    centroid = pts[mask].mean(axis=0) if mask.any() else np.array([np.inf, np.inf])
    return ratio, centroid


def test_criterion_01_special_functions():
    zero_ok = abs(bessel_j(0, 2.40483)) < 1e-5 and abs(bessel_j(0, 5.5201)) < 1e-4
    wronskian_ok = all(
        abs(bessel_j(n + 1, x) * bessel_y(n, x) - bessel_j(n, x) * bessel_y(n + 1, x)
            - 2 / (np.pi * x)) <= 1e-10 * (2 / (np.pi * x))
        for n in range(21) for x in (0.5, 1.0, 5.0, 20.0, 100.0)
    )
    identity_ok = all(
        abs(0.25j * sp.hankel1(0, 1j * x) - bessel_k(0, x) / (2 * np.pi)) < 1e-12
        for x in (0.3, 0.7, 1.0, 2.5)
    )
    ok = report(1, "special-function gate (J0 roots, Wronskian, K0/Hankel identity)",
                zero_ok and wronskian_ok and identity_ok)
    assert ok


def test_criterion_02_forward_oracle():
    worst = 0.0
    disc = discretize(make_named_curve("circle"), 128)
    for kappa in (np.pi, 2 * np.pi):
        solver = ClampedSolver(disc, kappa)
        d = np.array([1.0, 0.0])
        phiH, _ = solver.solve_columns(*plane_wave_data(disc, kappa, d))
        xhats = equiangular_directions(64)
        for xhat, value in zip(xhats, far_field(phiH, disc, kappa, xhats)[:, 0]):
            err = abs(value - analytic_disk_far_field(1.0, kappa, d, xhat))
            worst = max(worst, err)
    ok = report(2, "clamped-disk far field vs mode-matching oracle < 1e-6",
                worst < 1e-6, f"max err {worst:.3e}")
    assert ok


def test_criterion_03_reciprocity():
    worst = 0.0
    for name in ("apple", "peanut", "peach"):
        for kappa in (np.pi, 2 * np.pi):
            F = far_field_matrix(make_named_curve(name), kappa, 32, n=128)
            worst = max(worst, reciprocity_residual(F))
    ok = report(3, "reciprocity residual < 1e-4 for apple/peanut/peach at pi, 2pi",
                worst < 1e-4, f"max residual {worst:.3e}")
    assert ok


def test_criterion_04_evanescence():
    kappa = np.pi
    disc = discretize(make_named_curve("apple"), 128)
    phiH, phiM = ClampedSolver(disc, kappa).solve_columns(*plane_wave_data(disc, kappa, (1.0, 0.0)))
    ok = True
    for xhat in equiangular_directions(8):
        _, _, uM5 = evaluate_scattered(phiH[:, 0], phiM[:, 0], disc, kappa, 5.0 * xhat)
        _, _, uM10 = evaluate_scattered(phiH[:, 0], phiM[:, 0], disc, kappa, 10.0 * xhat)
        ok = ok and abs(uM10) < abs(uM5) * np.exp(-4 * kappa)
    ok = report(4, "evanescent component decays at least e^{-4 kappa} from r=5 to r=10", ok)
    assert ok


def test_criterion_05_lsm_reconstruction():
    kappa = 2 * np.pi
    ok = True
    details = []
    for name in ("circle", "peanut"):
        curve = make_named_curve(name)
        F = far_field_matrix(curve, kappa, 32, n=128)
        ratio, centroid = lsm_quality(F, kappa, curve)
        offset = np.hypot(*centroid)
        ok = ok and ratio > 5.0 and offset < 0.1
        details.append(f"{name}: ratio {ratio:.1f}, centroid offset {offset:.3f}")
        noisy_ratio, _ = lsm_quality(add_noise(F, 0.05, seed=2024), kappa, curve)
        ok = ok and noisy_ratio > 2.0
        details.append(f"{name}+5% noise: ratio {noisy_ratio:.1f}")
    ok = report(5, "LSM: ratio > 5 and centroid < 0.1 noiseless; ratio > 2 at 5% noise",
                ok, "; ".join(details))
    assert ok


def test_criterion_06_dirichlet_eigenvalue_insensitivity():
    curve = make_named_curve("circle")
    ok = True
    details = []
    for kappa in (2.40483, 5.5201):  # 6-digit J_0 roots
        F = far_field_matrix(curve, kappa, 32, n=128)
        ratio, _ = lsm_quality(F, kappa, curve)
        ok = ok and ratio > 5.0
        details.append(f"kappa={kappa}: ratio {ratio:.1f}")
    ok = report(6, "LSM works at Dirichlet-eigenvalue wavenumbers (ratio > 5)",
                ok, "; ".join(details))
    assert ok


def esm_single_run(curve, center, kappa, radius, grid_extent=3.0, res=100,
                   angles=(np.pi / 3,), wavenumbers=None):
    wavenumbers = wavenumbers or [kappa]
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    columns = np.asarray(
        [far_field_columns(curve, k, 40, dirs, n=128).T for k in wavenumbers]
    )
    grid = SamplingGrid(-grid_extent, grid_extent, -grid_extent, grid_extent, res, res)
    indicator = esm_indicator(columns, wavenumbers, grid, radius, alpha=1e-4)
    return indicator.argmin_point(), grid.spacing


def test_criterion_07_esm_single_direction():
    peanut = make_named_curve("peanut")
    z1, _ = esm_single_run(peanut, (0, 0), 2 * np.pi, 0.5)
    err1 = np.hypot(*z1)
    peach = make_named_curve("peach", center=(-1.5, 1.5))
    z2, _ = esm_single_run(peach, (-1.5, 1.5), 2 * np.pi, 2.5)
    err2 = np.hypot(*(z2 - np.array([-1.5, 1.5])))
    ok = report(7, "ESM single direction: peanut@R=0.5 and shifted peach@R=2.5 within 0.25",
                err1 < 0.25 and err2 < 0.25,
                f"peanut err {err1:.3f}; shifted peach err {err2:.3f}")
    assert ok


def test_criterion_08_multilevel_esm():
    kappa = 2 * np.pi
    center = np.array([-1.5, 1.5])
    curve = make_named_curve("apple", center=center)
    d0 = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)])
    column = far_field_columns(curve, kappa, 40, d0[None, :], n=128)[:, 0]
    result = multilevel_esm(column, kappa, 4.0, (-3, 3, -3, 3))
    radii = [r for _, r, _ in result.history]
    schedule_ok = radii == [4.0 / 2**j for j in range(len(radii))]
    err = np.hypot(*(result.center - center))
    ok = report(8, "multilevel ESM (R0=4): center within final radius, exact halving schedule",
                schedule_ok and err <= result.radius,
                f"err {err:.3f}, final radius {result.radius}, levels {len(result.history)}")
    assert ok


def test_criterion_09_multi_direction_multi_frequency():
    kappa = 2 * np.pi
    center = np.array([-1.5, 1.5])
    curve = make_named_curve("peach", center=center)

    z_single, spacing = esm_single_run(curve, center, kappa, 1.0)
    err_single = np.hypot(*(z_single - center))

    ten_angles = tuple(j * np.pi / 5 for j in range(10))
    z_ten, _ = esm_single_run(curve, center, kappa, 1.0, angles=ten_angles)
    err_ten = np.hypot(*(z_ten - center))

    freqs = list(np.linspace(np.pi, 4 * np.pi, 5))
    z_freq, _ = esm_single_run(curve, center, kappa, 1.0, wavenumbers=freqs)
    err_freq = np.hypot(*(z_freq - center))

    ten_ok = err_ten < 0.25
    freq_ok = err_freq < 0.25
    inequality_ok = err_ten <= err_single + spacing
    detail = (f"single {err_single:.3f}; ten-direction {err_ten:.3f}; "
              f"multi-frequency {err_freq:.3f}; spacing {spacing:.3f}")
    ok = report(9, "ESM fixed R=1 on shifted peach: multi runs within 0.25 and "
                   "ten-direction error <= single + one spacing",
                ten_ok and freq_ok and inequality_ok, detail)
    assert ok


def test_criterion_10_determinism_and_formats(tmp_path):
    # byte-identical re-runs of a noisy scenario
    scenario = parse_scenario(
        "mode=lsm\nshape=circle\nkappa=6.283185307179586\nN=16\nn=64\n"
        "delta=0.05\nseed=9\ngrid_nx=24\ngrid_ny=24\n"
    )
    outputs1, _ = run(scenario, out=str(tmp_path / "r"))
    digests1 = [hashlib.sha256(open(p, "rb").read()).hexdigest() for p in outputs1]
    outputs2, _ = run(scenario, out=str(tmp_path / "r"))
    digests2 = [hashlib.sha256(open(p, "rb").read()).hexdigest() for p in outputs2]
    determinism_ok = digests1 == digests2

    # exact far-field and indicator round trips
    rng = np.random.default_rng(0)
    F = far_field_matrix(make_named_curve("circle"), np.pi, 8, n=16)
    write_farfield(tmp_path / "x.ff", F, np.pi)
    round_trip_ok = np.array_equal(read_farfield(tmp_path / "x.ff")[0], F)
    grid = SamplingGrid(0, 1, 0, 1, 3, 3)
    indicator = IndicatorMap(grid=grid, values=rng.random(9), meta={"method": "lsm"})
    write_indicator(tmp_path / "x.ind", indicator)
    round_trip_ok = round_trip_ok and np.array_equal(
        read_indicator(tmp_path / "x.ind").values, indicator.values
    )

    # pinned PGM mapping on the 2x2 example
    two = IndicatorMap(grid=SamplingGrid(0, 1, 0, 1, 2, 2),
                       values=np.array([0.0, 1.0, 0.5, 0.25]), meta={})
    write_heatmap(tmp_path / "x.pgm", two)
    lines = (tmp_path / "x.pgm").read_text().splitlines()
    pgm_ok = lines[3].split() == ["32768", "16384"] and lines[4].split() == ["0", "65535"]

    ok = report(10, "determinism (byte-identical re-runs), exact round trips, pinned PGM map",
                determinism_ok and round_trip_ok and pgm_ok)
    assert ok
