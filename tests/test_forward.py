"""Forward solver: quadrature structure, oracle agreement, physics checks."""

import numpy as np
import pytest
import scipy.integrate as si
from scipy import special as sp

from bhs.exceptions import IllConditionedSystemError, NearBoundaryError
from bhs.forward import (
    ClampedSolver,
    FarFieldMatrix,
    PlaneWave,
    add_noise,
    analytic_disk_far_field,
    assemble_system,
    equiangular_directions,
    evaluate_scattered,
    far_field,
    far_field_columns,
    far_field_matrix,
    herglotz_wave,
    plane_wave_data,
    reciprocity_residual,
    solve_clamped,
)
from bhs.geometry import discretize, make_named_curve


@pytest.fixture(scope="module")
def circle_disc():
    return discretize(make_named_curve("circle"), 128)


@pytest.fixture(scope="module")
def apple_solution():
    """Apple at kappa = pi: discretization, solver, plane-wave densities."""
    disc = discretize(make_named_curve("apple"), 128)
    kappa = np.pi
    solver = ClampedSolver(disc, kappa)
    dens = solver.solve(plane_wave_data(disc, PlaneWave(kappa, (1.0, 0.0))))
    return disc, kappa, dens


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# Assembly structure
# ---------------------------------------------------------------------------
def test_circle_blocks_circulant():
    disc = discretize(make_named_curve("circle"), 32)
    A = assemble_system(disc, np.pi)
    m = disc.node_count
    for bi in (0, 1):
        for bj in (0, 1):
            block = A[bi * m:(bi + 1) * m, bj * m:(bj + 1) * m].copy()
            if bi == 1:  # remove the -I/2 jump term before the symmetry check
                block += 0.5 * np.eye(m)
            for i in range(1, m):
                np.testing.assert_allclose(block[i], np.roll(block[0], i), atol=1e-10)


def test_diagonal_entries_finite():
    disc = discretize(make_named_curve("peach"), 64)
    A = assemble_system(disc, 2 * np.pi)
    assert np.all(np.isfinite(A.real)) and np.all(np.isfinite(A.imag))


def test_modified_single_layer_constant_density_oracle():
    """St applied to the density 1 on the unit circle vs adaptive quadrature."""
    kappa = 1.0
    disc = discretize(make_named_curve("circle"), 64)
    m = disc.node_count
    St = assemble_system(disc, kappa)[:m, m:]
    applied = St @ np.ones(m)

    def integrand(tau):
        r = np.hypot(1.0 - np.cos(tau), np.sin(tau))
        return (0.5 / np.pi) * sp.kv(0, kappa * r)

    oracle = sum(si.quad(integrand, a, b, limit=200)[0] for a, b in [(0, np.pi), (np.pi, 2 * np.pi)])
    assert np.max(np.abs(applied - oracle)) < 1e-8


# ---------------------------------------------------------------------------
# Solve properties
# ---------------------------------------------------------------------------
def test_zero_data_zero_densities(circle_disc):
    from bhs.forward import BoundaryData

    m = circle_disc.node_count
    dens = solve_clamped(circle_disc, np.pi, BoundaryData(np.zeros(m), np.zeros(m)))
    assert np.max(np.abs(dens.helmholtz)) == 0.0
    assert np.max(np.abs(dens.modified)) == 0.0


def test_solver_linearity(circle_disc):
    from bhs.forward import BoundaryData

    rng = np.random.default_rng(42)
    m = circle_disc.node_count
    solver = ClampedSolver(circle_disc, np.pi)
    d1 = BoundaryData(*(rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))))
    d2 = BoundaryData(*(rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))))
    c = 1.7 - 0.6j
    combo = BoundaryData(d1.h1 + c * d2.h1, d1.h2 + c * d2.h2)
    lhs = solver.solve(combo)
    r1, r2 = solver.solve(d1), solver.solve(d2)
    scale = np.max(np.abs(lhs.helmholtz))
    assert np.max(np.abs(lhs.helmholtz - (r1.helmholtz + c * r2.helmholtz))) < 1e-12 * scale
    assert np.max(np.abs(lhs.modified - (r1.modified + c * r2.modified))) < 1e-12 * scale


def test_solve_residual_contract(circle_disc):
    kappa = np.pi
    data = plane_wave_data(circle_disc, PlaneWave(kappa, (0.6, 0.8)))
    dens = solve_clamped(circle_disc, kappa, data)
    A = assemble_system(circle_disc, kappa)
    sol = np.concatenate([dens.helmholtz, dens.modified])
    rhs = np.concatenate([data.h1, data.h2])
    assert np.linalg.norm(A @ sol - rhs) < 1e-10 * np.linalg.norm(rhs)


# ---------------------------------------------------------------------------
# Far field vs analytic oracle and normalization
# ---------------------------------------------------------------------------
def test_disk_far_field_matches_mode_matching(circle_disc):
    kappa = np.pi
    d = np.array([1.0, 0.0])
    dens = solve_clamped(circle_disc, kappa, plane_wave_data(circle_disc, PlaneWave(kappa, d)))
    errs = []
    for xhat in equiangular_directions(64):
        errs.append(abs(far_field(dens, circle_disc, kappa, xhat)
                        - analytic_disk_far_field(1.0, kappa, d, xhat)))
    assert max(errs) < 1e-6


def test_far_field_normalization_large_r(circle_disc, apple_solution):
    """u_s(r xhat) sqrt(r) e^{-i k r} sqrt(8 pi k) e^{-i pi/4} -> u_inf as r grows."""
    disc, kappa, dens = apple_solution
    xhat = np.array([np.cos(0.7), np.sin(0.7)])
    r = 1e4
    _, uH, _ = evaluate_scattered(dens, disc, kappa, r * xhat)
    limit = uH * np.sqrt(r) * np.exp(-1j * kappa * r) * np.sqrt(8 * np.pi * kappa) * np.exp(-1j * np.pi / 4)
    direct = far_field(dens, disc, kappa, xhat)
    assert abs(limit - direct) / abs(direct) < 1e-3


def test_far_field_zero_density(circle_disc):
    from bhs.forward import LayerDensities

    m = circle_disc.node_count
    dens = LayerDensities(np.zeros(m, complex), np.zeros(m, complex))
    assert far_field(dens, circle_disc, np.pi, (1.0, 0.0)) == 0.0


def test_circle_far_field_rotation_symmetry(circle_disc):
    kappa = np.pi
    Q = rotation(np.pi / 7)
    d = np.array([1.0, 0.0])
    xhat = np.array([np.cos(2.1), np.sin(2.1)])
    dens1 = solve_clamped(circle_disc, kappa, plane_wave_data(circle_disc, PlaneWave(kappa, d)))
    dens2 = solve_clamped(circle_disc, kappa, plane_wave_data(circle_disc, PlaneWave(kappa, Q @ d)))
    v1 = far_field(dens1, circle_disc, kappa, xhat)
    v2 = far_field(dens2, circle_disc, kappa, Q @ xhat)
    assert abs(v1 - v2) < 1e-8


def test_far_field_matrix_circle_circulant():
    F = far_field_matrix(make_named_curve("circle"), np.pi, 16, n=64)
    for i in range(1, 16):
        np.testing.assert_allclose(F.entries[i], np.roll(F.entries[0], i), atol=1e-8)


@pytest.mark.parametrize("name,tol", [("apple", 1e-8), ("peach", 1e-5)])
def test_far_field_matrix_node_doubling(name, tol):
    curve = make_named_curve(name)
    F1 = far_field_matrix(curve, np.pi, 8, n=128)
    F2 = far_field_matrix(curve, np.pi, 8, n=256)
    assert np.max(np.abs(F1.entries - F2.entries)) < tol


def test_superalgebraic_convergence():
    curve = make_named_curve("apple")
    reference = far_field_matrix(curve, np.pi, 8, n=256).entries
    errors = [np.max(np.abs(far_field_matrix(curve, np.pi, 8, n=n).entries - reference))
              for n in (16, 32, 64)]
    for coarse, fine in zip(errors, errors[1:]):
        if coarse < 1e-12:  # already resolved
            continue
        assert coarse / max(fine, 1e-14) >= 10.0


def test_reciprocity_apple(apple_solution):
    F = far_field_matrix(make_named_curve("apple"), np.pi, 32, n=128)
    assert reciprocity_residual(F) < 1e-4


def test_far_field_columns_off_grid_direction():
    """Columns for arbitrary incident directions match dedicated solves."""
    curve = make_named_curve("peanut")
    kappa = 2 * np.pi
    d0 = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)])
    cols = far_field_columns(curve, kappa, 40, d0[None, :], n=128)
    disc = discretize(curve, 128)
    dens = solve_clamped(disc, kappa, plane_wave_data(disc, PlaneWave(kappa, d0)))
    expected = np.array([far_field(dens, disc, kappa, xh) for xh in equiangular_directions(40)])
    np.testing.assert_allclose(cols[:, 0], expected, atol=1e-10)


# ---------------------------------------------------------------------------
# Physics checks
# ---------------------------------------------------------------------------
def test_evanescent_component_decay(apple_solution):
    disc, kappa, dens = apple_solution
    for xhat in equiangular_directions(8):
        _, _, uM5 = evaluate_scattered(dens, disc, kappa, 5.0 * xhat)
        _, _, uM10 = evaluate_scattered(dens, disc, kappa, 10.0 * xhat)
        assert abs(uM10) < abs(uM5) * np.exp(-4.0 * kappa)


def test_clamped_boundary_consistency():
    # The plain-quadrature guard requires distance > 2 max spacing, so use a
    # fine grid (n = 512 on the unit circle allows distance 0.0125).
    kappa = np.pi
    disc = discretize(make_named_curve("circle"), 512)
    d = np.array([1.0, 0.0])
    dens = solve_clamped(disc, kappa, plane_wave_data(disc, PlaneWave(kappa, d)))
    offset = 0.0125
    for t in (0.4, 2.0, 4.4):
        point = np.array([np.cos(t), np.sin(t)]) * (1.0 + offset)
        uS, _, _ = evaluate_scattered(dens, disc, kappa, point)
        total = np.exp(1j * kappa * point @ d) + uS
        assert abs(total) < 0.1


def test_radiation_condition(apple_solution):
    disc, kappa, dens = apple_solution
    xhat = np.array([np.cos(1.1), np.sin(1.1)])
    r, h = 200.0, 1e-3
    _, uH_plus, _ = evaluate_scattered(dens, disc, kappa, (r + h) * xhat)
    _, uH_minus, _ = evaluate_scattered(dens, disc, kappa, (r - h) * xhat)
    _, uH, _ = evaluate_scattered(dens, disc, kappa, r * xhat)
    radial = (uH_plus - uH_minus) / (2 * h)
    assert abs(np.sqrt(r) * (radial - 1j * kappa * uH)) < 1e-2 * abs(uH * np.sqrt(r))


def test_near_boundary_rejected(circle_disc):
    dens = solve_clamped(circle_disc, np.pi,
                         plane_wave_data(circle_disc, PlaneWave(np.pi, (1.0, 0.0))))
    with pytest.raises(NearBoundaryError):
        evaluate_scattered(dens, circle_disc, np.pi, (1.001, 0.0))


def test_spurious_resonance_detected():
    """At an exact interior Dirichlet eigenvalue the single-layer pair is singular."""
    disc = discretize(make_named_curve("circle"), 64)
    with pytest.raises(IllConditionedSystemError):
        ClampedSolver(disc, 2.404825557695773)  # first zero of J_0
    # the 6-digit value used in experiments stays comfortably solvable
    solver = ClampedSolver(disc, 2.40483)
    assert solver.condition_estimate < 1e8


def test_kernel_argument_beyond_special_range_raises_typed_error():
    """kappa * diam = 800 is past the argument range of bhs.special."""
    disc = discretize(make_named_curve("circle"), 64)
    with pytest.raises(IllConditionedSystemError):
        ClampedSolver(disc, 400.0)


def test_condition_estimate_tracks_dense_condition_number():
    """The 1-norm is taken before the in-place LU overwrites the matrix."""
    disc = discretize(make_named_curve("apple"), 32)
    kappa = np.pi
    dense = np.linalg.cond(assemble_system(disc, kappa), 1)
    ratio = ClampedSolver(disc, kappa).condition_estimate / dense
    assert 1.0 / 3.0 < ratio < 3.0


# ---------------------------------------------------------------------------
# Noise model
# ---------------------------------------------------------------------------
def test_add_noise_zero_delta(apple_solution):
    F = far_field_matrix(make_named_curve("apple"), np.pi, 16, n=64)
    assert np.array_equal(add_noise(F, 0.0, 7).entries, F.entries)


def test_add_noise_unit_spectral_norm():
    F = FarFieldMatrix(kappa=np.pi, entries=np.ones((24, 24), complex))
    noisy = add_noise(F, 0.02, seed=123)
    E = (noisy.entries / F.entries - 1.0) / 0.02
    assert np.linalg.svd(E, compute_uv=False)[0] == pytest.approx(1.0, rel=1e-8)


def test_add_noise_deterministic():
    F = FarFieldMatrix(kappa=np.pi, entries=np.full((12, 12), 2.0 + 1.0j))
    a = add_noise(F, 0.05, seed=99).entries
    b = add_noise(F, 0.05, seed=99).entries
    assert np.array_equal(a, b)
    c = add_noise(F, 0.05, seed=100).entries
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Herglotz superposition
# ---------------------------------------------------------------------------
def test_herglotz_point_values():
    N = 32
    g = np.full(N, 1.0 / (2 * np.pi))
    assert herglotz_wave(g, np.pi, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-14)
    assert herglotz_wave(np.zeros(N), np.pi, (0.3, 0.4)) == 0.0


def test_herglotz_superposition(circle_disc):
    """Far field of the v_g scattering problem equals (2 pi / N) F g."""
    kappa = np.pi
    N = 32
    rng = np.random.default_rng(17)
    g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    dirs = equiangular_directions(N)
    phases = np.exp(1j * kappa * (circle_disc.nodes @ dirs.T))       # (m, N)
    w = 2 * np.pi / N
    from bhs.forward import BoundaryData

    h1 = -w * phases @ g
    h2 = -w * (1j * kappa * (circle_disc.normals @ dirs.T) * phases) @ g
    dens = solve_clamped(circle_disc, kappa, BoundaryData(h1, h2))
    lhs = np.array([far_field(dens, circle_disc, kappa, xh) for xh in dirs])
    F = far_field_matrix(make_named_curve("circle"), kappa, N, n=128)
    np.testing.assert_allclose(lhs, w * F.entries @ g, atol=1e-8)


# ---------------------------------------------------------------------------
# Analytic disk oracle internals
# ---------------------------------------------------------------------------
def test_disk_oracle_reciprocity_exact():
    d = np.array([np.cos(0.4), np.sin(0.4)])
    xhat = np.array([np.cos(2.9), np.sin(2.9)])
    v1 = analytic_disk_far_field(1.0, np.pi, d, -xhat)
    v2 = analytic_disk_far_field(1.0, np.pi, xhat, -d)
    assert abs(v1 - v2) < 1e-12


def test_disk_oracle_rotation_invariance():
    Q = rotation(1.234)
    d = np.array([1.0, 0.0])
    xhat = np.array([np.cos(0.9), np.sin(0.9)])
    v1 = analytic_disk_far_field(0.7, 2 * np.pi, d, xhat)
    v2 = analytic_disk_far_field(0.7, 2 * np.pi, Q @ d, Q @ xhat)
    assert abs(v1 - v2) < 1e-12


def test_disk_oracle_large_r_self_check():
    """The mode series evaluated at large radius reproduces the oracle's far field."""
    R, kappa = 1.0, np.pi
    z = kappa * R
    n_modes = int(np.ceil(z + 8 * z ** (1 / 3) + 12))
    ns = np.arange(n_modes + 1)
    det = sp.hankel1(ns, z) * sp.kvp(ns, z) - sp.kv(ns, z) * sp.h1vp(ns, z)
    a = (1j**ns) * (sp.jvp(ns, z) * sp.kv(ns, z) - sp.jv(ns, z) * sp.kvp(ns, z)) / det
    r, theta = 2e4, 0.8
    u_s = np.sum(a * sp.hankel1(ns, kappa * r) * np.where(ns == 0, 1, 2) * np.cos(ns * theta))
    limit = u_s * np.sqrt(r) * np.exp(-1j * kappa * r) * np.sqrt(8 * np.pi * kappa) * np.exp(-1j * np.pi / 4)
    oracle = analytic_disk_far_field(R, kappa, (1.0, 0.0), (np.cos(theta), np.sin(theta)))
    assert abs(limit - oracle) / abs(oracle) < 1e-3


def test_concurrent_column_solves(circle_disc):
    """Declared concurrency contract: column solves share the immutable factorization."""
    from concurrent.futures import ThreadPoolExecutor

    kappa = np.pi
    solver = ClampedSolver(circle_disc, kappa)
    waves = [PlaneWave(kappa, (np.cos(th), np.sin(th))) for th in np.linspace(0, 2, 8)]
    datas = [plane_wave_data(circle_disc, w) for w in waves]
    serial = [solver.solve(d).helmholtz for d in datas]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda d: solver.solve(d).helmholtz, datas))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def test_input_validation():
    with pytest.raises(ValueError):
        PlaneWave(np.pi, (1.0, 1.0))
    with pytest.raises(ValueError):
        PlaneWave(-1.0, (1.0, 0.0))
    with pytest.raises(ValueError):
        far_field_matrix(make_named_curve("circle"), np.pi, 7)
    with pytest.raises(ValueError):
        analytic_disk_far_field(-1.0, np.pi, (1, 0), (0, 1))
    disc = discretize(make_named_curve("circle"), 16)
    from bhs.forward import LayerDensities

    dens = LayerDensities(np.zeros(32, complex), np.zeros(32, complex))
    with pytest.raises(ValueError):
        far_field(dens, disc, np.pi, (0.5, 0.5))
