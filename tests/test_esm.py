"""Extended sampling method: disk kernel, translation, indicator, multilevel."""

import warnings

import numpy as np
import pytest
from scipy import special as sp
from scipy.linalg import circulant

from bhs.esm import (
    build_disk_kernel,
    disk_far_field,
    esm_indicator,
    multilevel_esm,
    translated_kernel,
)
from bhs.exceptions import DataError
from bhs.forward import equiangular_directions, far_field_columns
from bhs.geometry import make_named_curve
from bhs.grids import SamplingGrid


def disk_data_column(z0, R, kappa, N, theta_d):
    """Far field of a sound-soft disk centered at z0, sampled on the observation grid.

    Built directly from the separation-of-variables series plus the
    translation phase, independent of the kernel construction under test.
    """
    th = 2 * np.pi * np.arange(N) / N
    d = np.array([np.cos(theta_d), np.sin(theta_d)])
    xh = np.stack([np.cos(th), np.sin(th)], axis=-1)
    series = disk_far_field(R, kappa, th, theta_d)
    return np.exp(1j * kappa * (z0 @ d - xh @ z0)) * series


def square_grid(extent, res):
    return SamplingGrid(-extent, extent, -extent, extent, res, res)


# ---------------------------------------------------------------------------
# Disk far-field series
# ---------------------------------------------------------------------------
def test_series_symmetric_in_angles():
    v1 = disk_far_field(0.5, 2 * np.pi, 0.37, 1.95)
    v2 = disk_far_field(0.5, 2 * np.pi, 1.95, 0.37)
    assert v1 == v2


def test_series_depends_only_on_difference():
    shift = 0.83
    v1 = disk_far_field(1.0, np.pi, 0.4, 2.2)
    v2 = disk_far_field(1.0, np.pi, 0.4 + shift, 2.2 + shift)
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_series_small_argument_tail():
    """At kappa R = 0.1 the n = 0 term dominates; the tail beyond n = 3 is negligible."""
    kappa, R = 1.0, 0.1
    z = kappa * R
    tail = sum(2 * abs(sp.jv(n, z) / sp.hankel1(n, z)) for n in range(4, 25))
    assert tail * np.sqrt(2 / (np.pi * kappa)) < 1e-10


def test_series_truncation_certified():
    """Adding five more series terms changes no kernel entry by more than 1e-12."""
    R, kappa, N = 0.8, 2 * np.pi, 40
    U = build_disk_kernel(R, kappa, N)
    z = kappa * R   # no eigenvalue perturbation here: kappa R = 1.6 pi
    n_used = len([n for n in range(200) if abs(sp.jv(n, z) / sp.hankel1(n, z)) >= 1e-14
                  or n < int(np.ceil(z + 10))])
    ns = np.arange(n_used + 6)
    ratios = sp.jv(ns, z) / sp.hankel1(ns, z)
    dth = 2 * np.pi * np.arange(N) / N
    extended = -np.exp(-1j * np.pi / 4) * np.sqrt(2 / (np.pi * kappa)) * (
        ratios[0] + 2 * np.sum(ratios[1:, None] * np.cos(np.outer(ns[1:], dth)), axis=0)
    )
    idx = np.arange(N)
    U_ext = extended[(idx[:, None] - idx[None, :]) % N]
    assert np.max(np.abs(U_ext - U)) < 1e-12


def _former_disk_kernel(R, kappa, N):
    """The sound-soft kernel as built before the mode series moved to bhs.disk
    (its _mode_ratios and disk_far_field, without the eigenvalue guard)."""
    z = kappa * R
    n_max = max(int(np.ceil(z + 10.0)), 1)
    while abs(sp.jv(n_max, z) / sp.hankel1(n_max, z)) >= 1e-14:
        n_max += 1
    ratios = sp.jv(np.arange(n_max + 1), z) / sp.hankel1(np.arange(n_max + 1), z)
    delta = 2.0 * np.pi * np.arange(N) / N
    ns = np.arange(1, len(ratios))
    series = ratios[0] + 2.0 * np.einsum("n,nk->k", ratios[1:], np.cos(np.outer(ns, delta)))
    return circulant(-np.exp(-1j * np.pi / 4.0) * np.sqrt(2.0 / (np.pi * kappa)) * series)


@pytest.mark.parametrize("N", [32, 40, 41])
@pytest.mark.parametrize("kappa", [np.pi, 1.5 * np.pi, 2 * np.pi])
@pytest.mark.parametrize("R", [0.5, 1.0, 2.5])
def test_kernel_bit_identical_to_former_series(R, kappa, N):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the eigenvalue guard does not fire on this lattice
        U = build_disk_kernel(R, kappa, N)
    assert np.array_equal(U, _former_disk_kernel(R, kappa, N))


def test_kernel_circulant_and_symmetric():
    U = build_disk_kernel(0.5, 2 * np.pi, 24)
    for i in range(1, 24):
        np.testing.assert_allclose(U[i], np.roll(U[0], i), atol=1e-12)
    np.testing.assert_allclose(U, U.T, atol=1e-12)


def test_dirichlet_eigenvalue_guard_warns():
    j01 = 2.404825557695773
    with pytest.warns(UserWarning, match="Dirichlet eigenvalue"):
        guarded = build_disk_kernel(j01, 1.0, 16)
    assert np.array_equal(guarded, build_disk_kernel(1.01 * j01, 1.0, 16))
    # away from eigenvalues the radius is untouched (kappa R = pi): no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_disk_kernel(0.5, 2 * np.pi, 16)


# ---------------------------------------------------------------------------
# Translated kernel
# ---------------------------------------------------------------------------
def test_translated_kernel_identity_at_origin():
    U = build_disk_kernel(1.0, np.pi, 16)
    assert np.array_equal(translated_kernel((0.0, 0.0), U, np.pi), U)


def test_translated_kernel_unimodular_phase():
    U = build_disk_kernel(1.0, np.pi, 16)
    A = translated_kernel((0.7, -1.2), U, np.pi)
    np.testing.assert_allclose(np.abs(A), np.abs(U), rtol=1e-14)


def test_translated_kernel_composition():
    U = build_disk_kernel(1.0, np.pi, 16)
    z1, z2 = np.array([0.4, 0.3]), np.array([-0.9, 0.5])
    A12 = translated_kernel(z1 + z2, U, np.pi)
    A1 = translated_kernel(z1, U, np.pi)
    d = equiangular_directions(16)
    phase = np.exp(1j * np.pi * (d @ z2))
    np.testing.assert_allclose(A12, phase.conj()[:, None] * A1 * phase[None, :], atol=1e-13)


def test_translated_kernel_matches_shared_factorization():
    """The z-dependent Tikhonov solve agrees with the factored route used internally."""
    from bhs.linalg import TikhonovFactorization

    U = build_disk_kernel(0.6, 2 * np.pi, 20)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    z = np.array([0.8, -0.3])
    alpha = 1e-4
    grid = SamplingGrid(z[0] - 0.1, z[0] + 0.1, z[1] - 0.1, z[1] + 0.1, 3, 3)
    indicator = esm_indicator(b[None, None, :], [2 * np.pi], grid, 0.6, alpha)
    direct = np.array([
        np.linalg.norm(TikhonovFactorization(translated_kernel(p, U, 2 * np.pi), alpha).solve(b))
        for p in grid.points()
    ])
    np.testing.assert_allclose(indicator.values, direct / direct.max(), rtol=1e-10)


def test_multidata_indicator_matches_per_point_solves():
    """Two wavenumbers, three directions, non-square off-centre grid: the
    separable grid evaluation equals the sum of per-point translated solves."""
    from bhs.linalg import TikhonovFactorization

    kappas, N, R, alpha = [np.pi, 1.7 * np.pi], 18, 0.7, 1e-4
    rng = np.random.default_rng(21)
    columns = rng.standard_normal((2, 3, N)) + 1j * rng.standard_normal((2, 3, N))
    grid = SamplingGrid(-0.4, 1.3, -1.1, -0.2, 7, 5)
    indicator = esm_indicator(columns, kappas, grid, R, alpha)
    direct = np.zeros(grid.size)
    for ell, kappa in enumerate(kappas):
        U = build_disk_kernel(R, kappa, N)
        for k, p in enumerate(grid.points()):
            A = translated_kernel(p, U, kappa)
            direct[k] += sum(np.linalg.norm(TikhonovFactorization(A, alpha).solve(b))
                             for b in columns[ell])
    np.testing.assert_allclose(indicator.values, direct / direct.max(), rtol=1e-10)


# ---------------------------------------------------------------------------
# Indicator
# ---------------------------------------------------------------------------
def test_indicator_normalized_to_one():
    kernel_N = 24
    col = disk_data_column(np.array([0.2, -0.4]), 0.5, np.pi, kernel_N, np.pi / 3)
    indicator = esm_indicator(col[None, None, :], [np.pi], square_grid(1.0, 12), 0.5)
    assert np.max(indicator.values) == 1.0


def test_indicator_self_consistency_disk_data():
    """Data generated by a sound-soft disk at z0 is minimized at the grid point nearest z0."""
    z0 = np.array([-1.5, 1.5])
    kappa, R, N = 2 * np.pi, 1.0, 40
    col = disk_data_column(z0, R, kappa, N, np.pi / 3)
    grid = square_grid(3.0, 61)
    indicator = esm_indicator(col[None, None, :], [kappa], grid, R)
    zmin = indicator.argmin_point()
    assert np.hypot(*(zmin - z0)) <= grid.spacing + 1e-12


def test_indicator_global_phase_invariance():
    col = disk_data_column(np.array([0.3, 0.1]), 0.5, np.pi, 24, 0.0)
    grid = square_grid(1.0, 10)
    v1 = esm_indicator(col[None, None, :], [np.pi], grid, 0.5).values
    v2 = esm_indicator((np.exp(1.1j) * col)[None, None, :], [np.pi], grid, 0.5).values
    np.testing.assert_allclose(v1, v2, rtol=1e-12)


def test_indicator_rejects_zero_column():
    with pytest.raises(DataError):
        esm_indicator(np.zeros((1, 1, 16), complex), [np.pi], square_grid(1.0, 6), 0.5)


@pytest.mark.parametrize(
    "radius,alpha,needle", [(0.0, 1e-4, "radius"), (-0.5, 1e-4, "radius"), (0.5, 0.0, "alpha"),
                            (float("nan"), 1e-4, "radius"), (0.5, float("nan"), "alpha")]
)
def test_indicator_rejects_bad_parameters(radius, alpha, needle):
    with pytest.raises(ValueError, match=needle):
        esm_indicator(np.ones((1, 1, 16)), [np.pi], square_grid(1.0, 6), radius, alpha)


def test_indicator_shape_validation():
    grid = square_grid(1.0, 6)
    with pytest.raises(ValueError, match=r"columns must have a nonempty shape \(L, J, N\)"):
        esm_indicator(np.ones((1, 16)), [np.pi], grid, 0.5)
    with pytest.raises(ValueError, match="wavenumbers"):
        esm_indicator(np.ones((1, 1, 16)), [np.pi, 2 * np.pi], grid, 0.5)


def test_kernel_rejects_negative_radius():
    with pytest.raises(ValueError, match="radius"):
        build_disk_kernel(-0.5, 2 * np.pi, 16)
    with pytest.raises(ValueError, match="radius"):
        build_disk_kernel(float("nan"), 2 * np.pi, 16)


@pytest.mark.parametrize("kappa", [-1.0, 0.0, float("nan")])
def test_kernel_rejects_nonpositive_kappa(kappa):
    with pytest.raises(ValueError, match="kappa must be > 0"):
        build_disk_kernel(0.5, kappa, 16)


def test_nan_parameters_rejected():
    nan, column, region = float("nan"), np.ones(16, complex), (-1.0, 1.0, -1.0, 1.0)
    for R, kappa in ((nan, np.pi), (0.5, nan)):
        with pytest.raises(ValueError, match="R and kappa must be positive"):
            disk_far_field(R, kappa, 0.3, 0.0)
    with pytest.raises(ValueError, match="kappa must be > 0"):
        esm_indicator(column[None, None, :], [nan], square_grid(1.0, 6), 0.5)
    with pytest.raises(ValueError, match="R0 must be > 0"):
        multilevel_esm(column, np.pi, nan, region)
    with pytest.raises(ValueError, match="kappa must be > 0"):
        multilevel_esm(column, nan, 1.0, region)


def test_peanut_single_direction_localization():
    """Scattering data from the peanut at the origin localizes within 0.25."""
    kappa, N = 2 * np.pi, 40
    d0 = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)])
    col = far_field_columns(make_named_curve("peanut"), kappa, N, d0[None, :], n=128)[:, 0]
    indicator = esm_indicator(col[None, None, :], [kappa], square_grid(3.0, 61), 0.5)
    assert np.hypot(*indicator.argmin_point()) < 0.25


# ---------------------------------------------------------------------------
# Multilevel driver
# ---------------------------------------------------------------------------
def test_multilevel_radius_schedule_and_self_consistency():
    z0 = np.array([-1.5, 1.5])
    kappa, R = 2 * np.pi, 1.0
    col = disk_data_column(z0, R, kappa, 40, np.pi / 3)
    result = multilevel_esm(col, kappa, 2.0, (-3, 3, -3, 3))
    radii = [radius for _, radius, _ in result.history]
    np.testing.assert_allclose(radii, [2.0 / 2**j for j in range(len(radii))], rtol=0)
    # the refinement at R = data radius recovers the center to grid resolution
    spacing = min(result.radius, 6.0 / 32)
    assert np.hypot(*(result.center - z0)) <= spacing + 1e-12
    assert not result.low_confidence


def test_multilevel_shifted_peach_scattering_data():
    """Real scattering data, oversized initial radius: the search shrinks the
    disk and settles within the final radius of the true center."""
    center = np.array([-1.5, 1.5])
    kappa = 2 * np.pi
    curve = make_named_curve("peach", center=center)
    d0 = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)])
    column = far_field_columns(curve, kappa, 40, d0[None, :], n=128)[:, 0]
    result = multilevel_esm(column, kappa, 4.0, (-3, 3, -3, 3))
    assert result.radius <= 2.5
    assert np.hypot(*(result.center - center)) <= result.radius


def test_multilevel_low_confidence_on_erratic_data():
    rng = np.random.default_rng(3)
    col = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    result = multilevel_esm(col, 2 * np.pi, 0.05, (-3, 3, -3, 3))
    assert result.low_confidence
    assert len(result.history) == 1
    assert result.radius == 0.05
