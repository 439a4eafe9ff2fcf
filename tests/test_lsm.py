"""Linear sampling method: right-hand sides, indicator, classification."""

import numpy as np
import pytest

from bhs.forward import add_noise, far_field_matrix
from bhs.geometry import make_named_curve
from bhs.grids import IndicatorMap, SamplingGrid
from bhs.lsm import classify, lsm_indicator, phi_infinity_rhs


@pytest.fixture(scope="module")
def disk_F():
    return far_field_matrix(make_named_curve("circle"), 2 * np.pi, 32, n=128)


def small_grid(extent=1.5, res=32):
    return SamplingGrid(-extent, extent, -extent, extent, res, res)


def inside_outside_ratio(indicator, radius=1.0, center=(0.0, 0.0)):
    pts = indicator.grid.points()
    inside = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1]) < radius
    return indicator.values[inside].mean() / indicator.values[~inside].mean()


# ---------------------------------------------------------------------------
# Point-source right-hand side
# ---------------------------------------------------------------------------
def test_phi_infinity_magnitude():
    kappa = 2 * np.pi
    rhs = phi_infinity_rhs((0.37, -0.81), kappa, 16)
    expected = 1.0 / (2 * kappa**2 * np.sqrt(8 * np.pi * kappa))
    np.testing.assert_allclose(np.abs(rhs), expected, rtol=1e-13)
    # computed directly: 1/(32 pi^3) at kappa = 2 pi
    assert expected == pytest.approx(1.0078604510374840e-3, rel=1e-12)


def test_phi_infinity_at_origin_constant():
    kappa = np.pi
    rhs = phi_infinity_rhs((0.0, 0.0), kappa, 8)
    expected = -(0.5 / kappa**2) * np.exp(1j * np.pi / 4) / np.sqrt(8 * np.pi * kappa)
    np.testing.assert_allclose(rhs, expected, rtol=1e-14)


def test_phi_infinity_odd_grid_closed_form():
    # Any N: an odd grid has no -xhat, but Phi_inf is defined on every direction.
    kappa, z, N = np.pi, np.array([0.37, -0.81]), 7
    th = 2 * np.pi * np.arange(N) / N
    prefactor = -(0.5 / kappa**2) * np.exp(1j * np.pi / 4) / np.sqrt(8 * np.pi * kappa)
    expected = prefactor * np.exp(-1j * kappa * (np.cos(th) * z[0] + np.sin(th) * z[1]))
    np.testing.assert_allclose(phi_infinity_rhs(z, kappa, N), expected, rtol=1e-14)


# ---------------------------------------------------------------------------
# Indicator
# ---------------------------------------------------------------------------
def test_indicator_closed_form_scaled_identity():
    kappa, c, alpha, N = np.pi, 2.0 - 1.5j, 1e-3, 8
    F = c * np.eye(N, dtype=complex)
    grid = small_grid(res=4)
    indicator = lsm_indicator(F, kappa, grid, alpha)
    for k, z in enumerate(grid.points()):
        v = phi_infinity_rhs(z, kappa, N)
        expected = (abs(c) ** 2 + alpha) ** 2 / (abs(c) ** 2 * np.linalg.norm(v) ** 2)
        assert indicator.values[k] == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("N", [32, 31])
def test_indicator_matches_dense_phi_block(N):
    """Separable grid evaluation against the dense (N, K) right-hand-side block
    on a non-square, off-centre grid; N=31 is the odd count a file may carry."""
    from bhs.linalg import TikhonovFactorization

    kappa, alpha = 2 * np.pi, 1e-6
    rng = np.random.default_rng(N)
    F = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    grid = SamplingGrid(0.3, 1.9, -1.2, -0.1, 7, 5)
    th = 2 * np.pi * np.arange(N) / N
    d = np.stack([np.cos(th), np.sin(th)], axis=-1)
    prefactor = -(0.5 / kappa**2) * np.exp(1j * np.pi / 4) / np.sqrt(8 * np.pi * kappa)
    P = prefactor * np.exp(-1j * kappa * (d @ grid.points().T))
    g = TikhonovFactorization(F, alpha).solve(P)
    expected = 1.0 / np.linalg.norm(g, axis=0) ** 2
    np.testing.assert_allclose(lsm_indicator(F, kappa, grid, alpha).values, expected, rtol=1e-10)


def test_indicator_monotone_in_alpha(disk_F):
    # ||g_z|| is non-increasing in alpha, so 1/||g_z||^2 is non-decreasing.
    grid = small_grid(res=16)
    v1 = lsm_indicator(disk_F, 2 * np.pi, grid, 1e-6).values
    v2 = lsm_indicator(disk_F, 2 * np.pi, grid, 2e-6).values
    assert np.all(v2 >= v1 * (1 - 1e-12))


def test_disk_reconstruction_ratio(disk_F):
    indicator = lsm_indicator(disk_F, 2 * np.pi, small_grid(res=32), 1e-6)
    assert inside_outside_ratio(indicator) > 5.0


def test_translation_covariance():
    """Indicator of a shifted disk equals the origin map sampled at z - c."""
    kappa, N, n = 2 * np.pi, 32, 128
    c = np.array([0.375, -0.1875])  # multiple of the grid spacing 3/32
    F0 = far_field_matrix(make_named_curve("circle"), kappa, N, n=n)
    Fc = far_field_matrix(make_named_curve("circle", center=c), kappa, N, n=n)
    grid = small_grid(extent=1.5, res=33)  # spacing 3/32, so c shifts by whole cells
    m0 = lsm_indicator(F0, kappa, grid, 1e-6).as_array()
    mc = lsm_indicator(Fc, kappa, grid, 1e-6).as_array()
    shift_x = int(round(c[0] / (3.0 / 32)))
    shift_y = int(round(c[1] / (3.0 / 32)))
    # compare on the overlapping window: mc at z equals m0 at z - c
    core0 = m0[8:-8, 8:-8]
    corec = mc[8 + shift_y:-8 + shift_y, 8 + shift_x:-8 + shift_x]
    assert np.max(np.abs(corec - core0) / core0) < 0.02


def test_noise_robustness(disk_F):
    noisy = add_noise(disk_F, 0.05, seed=11)
    indicator = lsm_indicator(noisy, 2 * np.pi, small_grid(res=32), 1e-6)
    assert inside_outside_ratio(indicator) > 2.0


def test_concurrent_per_point_solves_match_batched_map(disk_F):
    """Grid points are independent given the shared factorization; concurrent
    per-point back-substitutions reproduce the batched indicator map."""
    from concurrent.futures import ThreadPoolExecutor

    from bhs.linalg import TikhonovFactorization

    grid = small_grid(res=16)
    batched = lsm_indicator(disk_F, 2 * np.pi, grid, 1e-6).values
    fact = TikhonovFactorization(disk_F, 1e-6)
    pts = grid.points()

    def value(k):
        g = fact.solve(phi_infinity_rhs(pts[k], 2 * np.pi, len(disk_F)))
        return 1.0 / np.linalg.norm(g) ** 2

    with ThreadPoolExecutor(max_workers=4) as pool:
        per_point = list(pool.map(value, range(len(pts))))
    # block and single-column BLAS paths accumulate differently; 1e-6 is tight
    # for route equivalence while far from any indicator-scale feature
    np.testing.assert_allclose(per_point, batched, rtol=1e-6)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------
def test_classify_extreme_cutoffs():
    grid = small_grid(res=8)
    values = np.linspace(0.1, 2.0, grid.size)
    indicator = IndicatorMap(grid=grid, values=values, meta={})
    assert not classify(indicator, 1.1).any()
    assert classify(indicator, 1e-12).all()
    with pytest.raises(ValueError):
        classify(indicator, 0.0)
    with pytest.raises(ValueError, match="zeta must be > 0"):
        classify(indicator, float("nan"))


@pytest.mark.parametrize("kappa", [-1.0, 0.0, float("nan")])
def test_indicator_rejects_nonpositive_kappa(kappa):
    with pytest.raises(ValueError, match="kappa must be > 0"):
        lsm_indicator(np.eye(8, dtype=complex), kappa, small_grid(res=4))


def test_disk_mask_centroid(disk_F):
    indicator = lsm_indicator(disk_F, 2 * np.pi, small_grid(res=32), 1e-6)
    mask = classify(indicator, 0.2)
    pts = indicator.grid.points()
    centroid = pts[mask].mean(axis=0)
    assert np.hypot(*centroid) < 0.1
