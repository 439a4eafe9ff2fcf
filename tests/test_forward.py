"""Forward solver: quadrature structure, oracle agreement, physics checks."""

import dataclasses

import numpy as np
import pytest
import scipy.integrate as si
import scipy.linalg as sla
from scipy import special as sp

from bhs import special
from bhs.exceptions import IllConditionedSystemError, NearBoundaryError
from bhs.forward import (
    ClampedSolver,
    _kress_log_weights,
    add_noise,
    analytic_disk_far_field,
    assemble_system,
    equiangular_directions,
    evaluate_scattered,
    far_field,
    far_field_columns,
    far_field_matrix,
    plane_wave_data,
    reciprocity_residual,
)
from bhs.geometry import discretize, make_named_curve


@pytest.fixture(scope="module")
def circle_disc():
    return discretize(make_named_curve("circle"), 128)


@pytest.fixture(scope="module")
def apple_solution():
    """Apple at kappa = pi: discretization and the (m,) plane-wave densities phiH, phiM."""
    disc = discretize(make_named_curve("apple"), 128)
    kappa = np.pi
    phiH, phiM = ClampedSolver(disc, kappa).solve_columns(*plane_wave_data(disc, kappa, (1.0, 0.0)))
    return disc, kappa, phiH[:, 0], phiM[:, 0]


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


def _reference_assembly(disc, kappa):
    """Row-major assembly, each block built whole from its full kernel pair.

    The plain form of ``assemble_system``, kept as its reference:
    ``assemble_system`` evaluates the kernels on one triangle and builds
    each block through its transpose, and must give the same bits.
    """
    m, n, jac, nu = disc.node_count, disc.n, disc.jacobians, disc.normals
    diff = disc.nodes[:, None, :] - disc.nodes[None, :, :]
    r = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(r, 1.0)
    kr = kappa * r
    kr_max = float(kr.max())
    if kr_max > special.MAX_ARGUMENT:
        raise IllConditionedSystemError(
            f"kappa * r_max = {kr_max:.6g} is outside the special-function argument "
            f"range [0, {special.MAX_ARGUMENT:g}]"
        )
    c_over_r = np.einsum("ik,ijk->ij", nu, diff) / r
    w_trap = np.pi / n
    log_sin2 = np.zeros(m)
    log_sin2[1:] = np.log(4.0 * np.sin(np.arange(1, m) * (np.pi / (2 * n))) ** 2)
    W = sla.circulant(_kress_log_weights(n) - w_trap * log_sin2)
    jrow = jac[None, :]
    out = np.empty((2 * m, 2 * m), dtype=np.complex128, order="F")
    top, bottom = slice(0, m), slice(m, 2 * m)

    def put(rows, cols, A, B, diag_A, diag_B):
        np.fill_diagonal(A, diag_A)
        np.fill_diagonal(B, diag_B)
        block = out[rows, cols]
        np.multiply(W, A, out=block)
        block += w_trap * B

    euler = np.euler_gamma
    J = special.bessel_j(0, kr)
    put(top, top,
        -(1.0 / (4.0 * np.pi)) * J * jrow,
        0.25j * (J + 1j * special.bessel_y(0, kr)) * jrow,
        -(1.0 / (4.0 * np.pi)) * jac,
        (0.25j - euler / (2 * np.pi) - np.log(kappa * jac / 2.0) / (2 * np.pi)) * jac)
    curv_diag = np.einsum("ik,ik->i", nu, disc.second_derivatives) / (4.0 * np.pi * jac)
    J = special.bessel_j(1, kr)
    put(bottom, top,
        (kappa / (4.0 * np.pi)) * J * c_over_r * jrow,
        -0.25j * kappa * (J + 1j * special.bessel_y(1, kr)) * c_over_r * jrow,
        0.0, curv_diag)
    put(top, bottom,
        -(1.0 / (4.0 * np.pi)) * special.bessel_i(0, kr) * jrow,
        (0.5 / np.pi) * special.bessel_k(0, kr) * jrow,
        -(1.0 / (4.0 * np.pi)) * jac,
        -(euler + np.log(kappa * jac / 2.0)) / (2 * np.pi) * jac)
    put(bottom, bottom,
        -(kappa / (4.0 * np.pi)) * special.bessel_i(1, kr) * c_over_r * jrow,
        -(kappa / (2.0 * np.pi)) * special.bessel_k(1, kr) * c_over_r * jrow,
        0.0, curv_diag)
    idx = np.arange(m)
    out[m + idx, idx] -= 0.5
    out[m + idx, m + idx] -= 0.5
    return out


_REFERENCE_CASES = [
    (name, center, scale, n, kappa)
    for name in ("apple", "peanut", "peach", "circle", "ellipse")
    for center, scale in (((0.0, 0.0), 1.0), ((0.7, -0.4), 1.3))
    for n in (8, 64)
    for kappa in (0.5, np.pi, 4 * np.pi)
] + [("apple", (0.0, 0.0), 1.0, 256, 2 * np.pi)]


def test_assembly_matches_row_major_reference():
    """Triangle evaluation and transposed build give the reference's bits.

    n = 8 (m = 16) is a single partial row block; the n = 256 apple spans
    sixteen full ones.
    """
    for name, center, scale, n, kappa in _REFERENCE_CASES:
        disc = discretize(make_named_curve(name, center=center, scale=scale), n)
        A = assemble_system(disc, kappa)
        assert A.flags.f_contiguous
        assert np.array_equal(A, _reference_assembly(disc, kappa)), (name, center, n, kappa)


def test_assembly_argument_range_error_matches_reference():
    disc = discretize(make_named_curve("circle", scale=2.0), 16)
    kappa = 130.0  # kappa * r_max = 520 > 500
    with pytest.raises(IllConditionedSystemError) as ref:
        _reference_assembly(disc, kappa)
    with pytest.raises(IllConditionedSystemError) as new:
        assemble_system(disc, kappa)
    assert str(new.value) == str(ref.value)


@pytest.mark.parametrize("bad", ["coincident", "nan"])
def test_assembly_rejects_bad_node_distances(bad):
    """kappa |x_i - x_j| is checked once, before any kernel is evaluated: a
    repeated node or a NaN node raises ValueError."""
    disc = discretize(make_named_curve("circle"), 8)
    nodes = disc.nodes.copy()
    nodes[3] = nodes[2] if bad == "coincident" else np.nan
    with pytest.raises(ValueError, match="must be finite and > 0"):
        assemble_system(dataclasses.replace(disc, nodes=nodes), 1.0)


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
    m = circle_disc.node_count
    phiH, phiM = ClampedSolver(circle_disc, np.pi).solve_columns(np.zeros(m), np.zeros(m))
    assert np.max(np.abs(phiH)) == 0.0
    assert np.max(np.abs(phiM)) == 0.0


def test_solver_linearity(circle_disc):
    rng = np.random.default_rng(42)
    m = circle_disc.node_count
    solver = ClampedSolver(circle_disc, np.pi)
    d1 = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    d2 = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    c = 1.7 - 0.6j
    lhsH, lhsM = solver.solve_columns(*(d1 + c * d2))
    (h1, m1), (h2, m2) = solver.solve_columns(*d1), solver.solve_columns(*d2)
    scale = np.max(np.abs(lhsH))
    assert np.max(np.abs(lhsH - (h1 + c * h2))) < 1e-12 * scale
    assert np.max(np.abs(lhsM - (m1 + c * m2))) < 1e-12 * scale


def test_solve_residual_contract(circle_disc):
    kappa = np.pi
    h1, h2 = plane_wave_data(circle_disc, kappa, (0.6, 0.8))
    phiH, phiM = ClampedSolver(circle_disc, kappa).solve_columns(h1, h2)
    A = assemble_system(circle_disc, kappa)
    sol = np.concatenate([phiH, phiM])
    rhs = np.concatenate([h1, h2])
    assert np.linalg.norm(A @ sol - rhs) < 1e-10 * np.linalg.norm(rhs)


# ---------------------------------------------------------------------------
# Far field vs analytic oracle and normalization
# ---------------------------------------------------------------------------
def test_disk_far_field_matches_mode_matching(circle_disc):
    kappa = np.pi
    d = np.array([1.0, 0.0])
    phiH, _ = ClampedSolver(circle_disc, kappa).solve_columns(*plane_wave_data(circle_disc, kappa, d))
    xhats = equiangular_directions(64)
    computed = far_field(phiH, circle_disc, kappa, xhats)[:, 0]
    errs = [abs(u - analytic_disk_far_field(1.0, kappa, d, xhat)) for u, xhat in zip(computed, xhats)]
    assert max(errs) < 1e-6


def test_far_field_normalization_large_r(circle_disc, apple_solution):
    """u_s(r xhat) sqrt(r) e^{-i k r} sqrt(8 pi k) e^{-i pi/4} -> u_inf as r grows."""
    disc, kappa, phiH, phiM = apple_solution
    xhat = np.array([np.cos(0.7), np.sin(0.7)])
    r = 1e4
    _, uH, _ = evaluate_scattered(phiH, phiM, disc, kappa, r * xhat)
    limit = uH * np.sqrt(r) * np.exp(-1j * kappa * r) * np.sqrt(8 * np.pi * kappa) * np.exp(-1j * np.pi / 4)
    direct = far_field(phiH[:, None], disc, kappa, xhat)[0, 0]
    assert abs(limit - direct) / abs(direct) < 1e-3


def test_far_field_zero_density(circle_disc):
    m = circle_disc.node_count
    assert far_field(np.zeros((m, 1), complex), circle_disc, np.pi, (1.0, 0.0))[0, 0] == 0.0


def test_circle_far_field_rotation_symmetry(circle_disc):
    kappa = np.pi
    Q = rotation(np.pi / 7)
    d = np.array([1.0, 0.0])
    xhat = np.array([np.cos(2.1), np.sin(2.1)])
    solver = ClampedSolver(circle_disc, kappa)
    phiH1, _ = solver.solve_columns(*plane_wave_data(circle_disc, kappa, d))
    phiH2, _ = solver.solve_columns(*plane_wave_data(circle_disc, kappa, Q @ d))
    v1 = far_field(phiH1, circle_disc, kappa, xhat)[0, 0]
    v2 = far_field(phiH2, circle_disc, kappa, Q @ xhat)[0, 0]
    assert abs(v1 - v2) < 1e-8


def test_far_field_matrix_circle_circulant():
    F = far_field_matrix(make_named_curve("circle"), np.pi, 16, n=64)
    for i in range(1, 16):
        np.testing.assert_allclose(F[i], np.roll(F[0], i), atol=1e-8)


@pytest.mark.parametrize("name,tol", [("apple", 1e-8), ("peach", 1e-5)])
def test_far_field_matrix_node_doubling(name, tol):
    curve = make_named_curve(name)
    F1 = far_field_matrix(curve, np.pi, 8, n=128)
    F2 = far_field_matrix(curve, np.pi, 8, n=256)
    assert np.max(np.abs(F1 - F2)) < tol


def test_superalgebraic_convergence():
    curve = make_named_curve("apple")
    reference = far_field_matrix(curve, np.pi, 8, n=256)
    errors = [np.max(np.abs(far_field_matrix(curve, np.pi, 8, n=n) - reference))
              for n in (16, 32, 64)]
    for coarse, fine in zip(errors, errors[1:]):
        if coarse < 1e-12:  # already resolved
            continue
        assert coarse / max(fine, 1e-14) >= 10.0


def test_reciprocity_apple(apple_solution):
    F = far_field_matrix(make_named_curve("apple"), np.pi, 32, n=128)
    assert reciprocity_residual(F) < 1e-4


def test_reciprocity_residual_odd_grid_is_nan():
    # An odd grid has no -xhat pairs; a non-square array is still an error.
    F = np.random.default_rng(3).standard_normal((7, 7)) + 0j
    assert np.isnan(reciprocity_residual(F))
    with pytest.raises(ValueError, match="square"):
        reciprocity_residual(np.ones((8, 6)))


def test_far_field_columns_off_grid_direction():
    """A column for an incident direction off the observation grid matches the disk oracle."""
    kappa = 2 * np.pi
    d0 = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)])
    cols = far_field_columns(make_named_curve("circle"), kappa, 40, d0[None, :], n=128)
    expected = np.array([analytic_disk_far_field(1.0, kappa, d0, xh)
                         for xh in equiangular_directions(40)])
    np.testing.assert_allclose(cols[:, 0], expected, atol=1e-8)


# ---------------------------------------------------------------------------
# Physics checks
# ---------------------------------------------------------------------------
def test_evanescent_component_decay(apple_solution):
    disc, kappa, phiH, phiM = apple_solution
    for xhat in equiangular_directions(8):
        _, _, uM5 = evaluate_scattered(phiH, phiM, disc, kappa, 5.0 * xhat)
        _, _, uM10 = evaluate_scattered(phiH, phiM, disc, kappa, 10.0 * xhat)
        assert abs(uM10) < abs(uM5) * np.exp(-4.0 * kappa)


def test_clamped_boundary_consistency():
    # The plain-quadrature guard requires distance > 2 max spacing, so use a
    # fine grid (n = 512 on the unit circle allows distance 0.0125).
    kappa = np.pi
    disc = discretize(make_named_curve("circle"), 512)
    d = np.array([1.0, 0.0])
    phiH, phiM = ClampedSolver(disc, kappa).solve_columns(*plane_wave_data(disc, kappa, d))
    offset = 0.0125
    for t in (0.4, 2.0, 4.4):
        point = np.array([np.cos(t), np.sin(t)]) * (1.0 + offset)
        uS, _, _ = evaluate_scattered(phiH[:, 0], phiM[:, 0], disc, kappa, point)
        total = np.exp(1j * kappa * point @ d) + uS
        assert abs(total) < 0.1


def test_radiation_condition(apple_solution):
    disc, kappa, phiH, phiM = apple_solution
    xhat = np.array([np.cos(1.1), np.sin(1.1)])
    r, h = 200.0, 1e-3
    _, uH_plus, _ = evaluate_scattered(phiH, phiM, disc, kappa, (r + h) * xhat)
    _, uH_minus, _ = evaluate_scattered(phiH, phiM, disc, kappa, (r - h) * xhat)
    _, uH, _ = evaluate_scattered(phiH, phiM, disc, kappa, r * xhat)
    radial = (uH_plus - uH_minus) / (2 * h)
    assert abs(np.sqrt(r) * (radial - 1j * kappa * uH)) < 1e-2 * abs(uH * np.sqrt(r))


def test_near_boundary_rejected(circle_disc):
    solver = ClampedSolver(circle_disc, np.pi)
    phiH, phiM = solver.solve_columns(*plane_wave_data(circle_disc, np.pi, (1.0, 0.0)))
    with pytest.raises(NearBoundaryError):
        evaluate_scattered(phiH[:, 0], phiM[:, 0], circle_disc, np.pi, (1.001, 0.0))


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
# Block elimination against dense factorizations of the assembled matrix
# ---------------------------------------------------------------------------
_BLOCK_CASES = [(name, kappa, n) for name in ("apple", "peanut", "peach")
                for kappa in (np.pi, 2 * np.pi) for n in (64, 128)]


@pytest.fixture(scope="module")
def block_cases():
    """(case, solver, disc, kappa, assembled matrix) for each of _BLOCK_CASES."""
    out = []
    for name, kappa, n in _BLOCK_CASES:
        disc = discretize(make_named_curve(name), n)
        out.append(((name, kappa, n), ClampedSolver(disc, kappa), disc, kappa,
                    assemble_system(disc, kappa)))
    return out


def test_block_solve_far_field_matches_dense_solve(block_cases):
    for case, solver, disc, kappa, A in block_cases:
        dirs = equiangular_directions(8)
        h1, h2 = plane_wave_data(disc, kappa, dirs)
        phiH, _ = solver.solve_columns(h1, h2)
        dense = np.linalg.solve(A, np.concatenate([h1, h2]))[:disc.node_count]
        F, F_dense = (far_field(phi, disc, kappa, dirs) for phi in (phiH, dense))
        assert np.max(np.abs(F - F_dense)) <= 1e-13 * np.max(np.abs(F_dense)), case


def test_block_solve_residual_with_ill_conditioned_modified_block():
    """Circle at kappa = 4 pi, n = 128: the modified-Helmholtz quadrature is
    poor there and the pivot block A22 has cond_1 about 2.2e6, yet each
    column's residual stays at rounding level."""
    disc = discretize(make_named_curve("circle"), 128)
    kappa, m = 4 * np.pi, disc.node_count
    A = assemble_system(disc, kappa)
    assert np.linalg.cond(A[m:, m:].real, 1) > 1e6
    h1, h2 = plane_wave_data(disc, kappa, equiangular_directions(8))
    x = np.concatenate(ClampedSolver(disc, kappa).solve_columns(h1, h2))
    residual = np.linalg.norm(A @ x - np.concatenate([h1, h2]), 1, axis=0)
    assert np.max(residual / (np.linalg.norm(A, 1) * np.linalg.norm(x, 1, axis=0))) < 1e-14


def test_condition_estimate_matches_gecon(block_cases):
    for case, solver, disc, kappa, A in block_cases:
        lu, _ = sla.lu_factor(A)
        rcond, _ = sla.get_lapack_funcs("gecon", (lu,))(lu, np.linalg.norm(A, 1), norm="1")
        assert 0.5 < solver.condition_estimate * rcond < 2.0, case


def test_condition_estimate_is_deterministic():
    """The estimate uses no random vectors: two constructions agree bit for
    bit and the global numpy random state is left as it was."""
    disc = discretize(make_named_curve("apple"), 64)
    state = np.random.get_state()
    first = ClampedSolver(disc, 2 * np.pi).condition_estimate
    after = np.random.get_state()
    assert first == ClampedSolver(disc, 2 * np.pi).condition_estimate
    assert state[0] == after[0] and np.array_equal(state[1], after[1])
    assert state[2:] == after[2:]


# ---------------------------------------------------------------------------
# Noise model
# ---------------------------------------------------------------------------
def test_add_noise_zero_delta(apple_solution):
    F = far_field_matrix(make_named_curve("apple"), np.pi, 16, n=64)
    assert np.array_equal(add_noise(F, 0.0, 7), F)


def test_add_noise_unit_spectral_norm():
    F = np.ones((24, 24), complex)
    noisy = add_noise(F, 0.02, seed=123)
    E = (noisy / F - 1.0) / 0.02
    assert np.linalg.svd(E, compute_uv=False)[0] == pytest.approx(1.0, rel=1e-8)


def test_add_noise_deterministic():
    F = np.full((12, 12), 2.0 + 1.0j)
    a = add_noise(F, 0.05, seed=99)
    b = add_noise(F, 0.05, seed=99)
    assert np.array_equal(a, b)
    c = add_noise(F, 0.05, seed=100)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Herglotz superposition
# ---------------------------------------------------------------------------
def test_herglotz_superposition(circle_disc):
    """Far field of the v_g scattering problem equals (2 pi / N) F g."""
    kappa = np.pi
    N = 32
    rng = np.random.default_rng(17)
    g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    dirs = equiangular_directions(N)
    phases = np.exp(1j * kappa * (circle_disc.nodes @ dirs.T))       # (m, N)
    w = 2 * np.pi / N
    h1 = -w * phases @ g
    h2 = -w * (1j * kappa * (circle_disc.normals @ dirs.T) * phases) @ g
    phiH, _ = ClampedSolver(circle_disc, kappa).solve_columns(h1, h2)
    lhs = far_field(phiH, circle_disc, kappa, dirs)[:, 0]
    F = far_field_matrix(make_named_curve("circle"), kappa, N, n=128)
    np.testing.assert_allclose(lhs, w * F @ g, atol=1e-8)


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


def _former_clamped_oracle(R, kappa, d, xhat):
    """The clamped-disk oracle as it stood before the mode series moved to bhs.disk:
    its own truncation z + 8 z^(1/3) + 12, the phases i^n (-i)^n and its own sum."""
    z = kappa * R
    ns = np.arange(int(np.ceil(z + 8.0 * z ** (1.0 / 3.0) + 12.0)) + 1)
    det = sp.hankel1(ns, z) * sp.kvp(ns, z) - sp.kv(ns, z) * sp.h1vp(ns, z)
    a = (1j**ns) * (sp.jvp(ns, z) * sp.kv(ns, z) - sp.jv(ns, z) * sp.kvp(ns, z)) / det
    delta = np.arctan2(xhat[1], xhat[0]) - np.arctan2(d[1], d[0])
    weights = np.where(ns == 0, 1.0, 2.0) * np.cos(ns * delta)
    return complex(-4j * np.sum(a * (-1j) ** ns * weights))


@pytest.mark.parametrize("kR", [0.03, 0.1, 1.0, np.pi, 2 * np.pi, 4 * np.pi, 20.0, 60.0])
def test_disk_oracle_matches_its_former_series(kR):
    """One truncation rule and one cosine sum for both disk series leave the oracle
    within 1e-14 of its former standalone form, at 7 angles."""
    R, kappa = 0.8, kR / 0.8
    d = np.array([np.cos(0.3), np.sin(0.3)])
    for theta in 0.3 + 2 * np.pi * np.arange(7) / 7 + 0.1:
        xhat = np.array([np.cos(theta), np.sin(theta)])
        expected = _former_clamped_oracle(R, kappa, d, xhat)
        assert abs(analytic_disk_far_field(R, kappa, d, xhat) - expected) <= 1e-14 * abs(expected)


def test_far_field_matrix_odd_direction_count():
    """An odd N is accepted: F matches the clamped oracle, and the reciprocity
    residual, which needs -xhat on the grid, reads NaN."""
    kappa, N = 2 * np.pi, 33
    F = far_field_matrix(make_named_curve("circle"), kappa, N, n=64)
    dirs = equiangular_directions(N)
    column = np.array([analytic_disk_far_field(1.0, kappa, dirs[0], xh) for xh in dirs])
    i = np.arange(N)
    expected = column[(i[:, None] - i[None, :]) % N]    # the disk's far field depends on theta_i - theta_j
    assert np.max(np.abs(F - expected)) <= 1e-10 * np.max(np.abs(expected))
    assert np.isnan(reciprocity_residual(F))


def test_concurrent_column_solves(circle_disc):
    """Declared concurrency contract: column solves share the immutable factorization."""
    from concurrent.futures import ThreadPoolExecutor

    kappa = np.pi
    solver = ClampedSolver(circle_disc, kappa)
    th = np.linspace(0, 2, 8)
    h1, h2 = plane_wave_data(circle_disc, kappa, np.stack([np.cos(th), np.sin(th)], axis=-1))
    datas = [(h1[:, j], h2[:, j]) for j in range(len(th))]
    serial = [solver.solve_columns(*d)[0] for d in datas]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda d: solver.solve_columns(*d)[0], datas))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def test_input_validation():
    disc = discretize(make_named_curve("circle"), 16)
    with pytest.raises(ValueError):
        plane_wave_data(disc, np.pi, (1.0, 1.0))
    with pytest.raises(ValueError):
        ClampedSolver(disc, -1.0)
    with pytest.raises(ValueError):
        far_field_matrix(make_named_curve("circle"), np.pi, 7)
    with pytest.raises(ValueError):
        analytic_disk_far_field(-1.0, np.pi, (1, 0), (0, 1))
    with pytest.raises(ValueError):
        far_field(np.zeros((32, 1), complex), disc, np.pi, (0.5, 0.5))
    # NaN parameters are rejected by the same checks, not by a later conversion.
    nan = float("nan")
    with pytest.raises(ValueError, match="incident directions must be unit vectors"):
        plane_wave_data(disc, np.pi, (nan, 0.0))
    with pytest.raises(ValueError, match="observation directions must be unit vectors"):
        far_field(np.zeros((32, 1), complex), disc, np.pi, (nan, 0.0))
    with pytest.raises(ValueError, match="kappa must be > 0"):
        assemble_system(disc, nan)
    with pytest.raises(ValueError, match="delta must be >= 0"):
        add_noise(np.ones((8, 8), complex), nan, 0)
    for R, kappa in ((nan, np.pi), (1.0, nan)):
        with pytest.raises(ValueError, match="R and kappa must be positive"):
            analytic_disk_far_field(R, kappa, (1, 0), (0, 1))
