"""Regularized solve against independent dense oracles."""

import numpy as np
import pytest

from bhs.forward import equiangular_directions, far_field_matrix
from bhs.geometry import make_named_curve
from bhs.grids import SamplingGrid
from bhs.linalg import TikhonovFactorization
from bhs.lsm import phi_infinity_rhs


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def augmented_lstsq_oracle(A, b, alpha):
    """Independent route: least squares on the stacked system [A; sqrt(alpha) I]."""
    n = A.shape[1]
    C = np.vstack([A, np.sqrt(alpha) * np.eye(n)])
    d = np.concatenate([b, np.zeros(n)])
    return np.linalg.lstsq(C, d, rcond=None)[0]


def test_identity_closed_form():
    b = np.arange(1.0, 6.0) + 1j * np.linspace(-1, 1, 5)
    g = TikhonovFactorization(np.eye(5), 0.5).solve(b)
    np.testing.assert_allclose(g, b / 1.5, rtol=1e-14)


def test_diagonal_closed_form():
    sigma = np.array([3.0, 1.0, 0.25, 0.02])
    alpha = 1e-3
    rng = np.random.default_rng(11)
    b = random_complex(rng, 4)
    g = TikhonovFactorization(np.diag(sigma), alpha).solve(b)
    np.testing.assert_allclose(g, sigma * b / (sigma**2 + alpha), rtol=1e-12)


def test_normal_equation_residual_vs_oracle():
    rng = np.random.default_rng(2024)
    A = random_complex(rng, 8, 8)
    b = random_complex(rng, 8)
    alpha = 1e-6
    g = TikhonovFactorization(A, alpha).solve(b)
    rhs = A.conj().T @ b
    residual = np.linalg.norm((alpha * np.eye(8) + A.conj().T @ A) @ g - rhs)
    assert residual <= 1e-10 * (np.linalg.norm(rhs) + 1.0)
    np.testing.assert_allclose(g, augmented_lstsq_oracle(A, b, alpha), atol=1e-8)


def test_homogeneity_in_b():
    rng = np.random.default_rng(5)
    A = random_complex(rng, 6, 6)
    b = random_complex(rng, 6)
    c = 2.75 - 0.5j
    g1 = TikhonovFactorization(A, 1e-4).solve(c * b)
    g2 = c * TikhonovFactorization(A, 1e-4).solve(b)
    np.testing.assert_allclose(g1, g2, rtol=1e-12)


def test_norm_monotonicity_in_alpha():
    rng = np.random.default_rng(77)
    for _ in range(5):
        A = random_complex(rng, 10, 10)
        b = random_complex(rng, 10)
        alphas = [1e-8, 1e-6, 1e-4, 1e-2, 1.0]
        norms = [np.linalg.norm(TikhonovFactorization(A, a).solve(b)) for a in alphas]
        assert all(n1 >= n2 - 1e-12 for n1, n2 in zip(norms, norms[1:]))


def test_factorization_matches_single_solve():
    rng = np.random.default_rng(8)
    A = random_complex(rng, 12, 12)
    B = random_complex(rng, 12, 7)
    fact = TikhonovFactorization(A, 1e-5)
    batch = fact.solve(B)
    for j in range(7):
        np.testing.assert_allclose(batch[:, j], TikhonovFactorization(A, 1e-5).solve(B[:, j]),
                                   atol=1e-10)
    # Plane-wave right-hand sides w o (ex[:, ix] * ey[:, iy]), built densely in
    # the row-major (iy, ix) order of the returned (ny, nx) norms.
    w = random_complex(rng, 12)
    ex = np.exp(1j * rng.standard_normal((12, 5)))
    ey = np.exp(1j * rng.standard_normal((12, 3)))
    dense = (w[:, None, None] * ey[:, :, None] * ex[:, None, :]).reshape(12, 15)
    norms = fact.plane_wave_norms(w, ex, ey)
    assert norms.shape == (3, 5)
    np.testing.assert_allclose(norms.ravel(), np.linalg.norm(fact.solve(dense), axis=0), rtol=1e-12)


@pytest.fixture(scope="module", params=["peanut", "apple"])
def lsm_problem(request):
    """Clean N=32 far-field data and the LSM plane-wave factors on a 24 x 20 grid."""
    kappa, N = 2 * np.pi, 32
    F = far_field_matrix(make_named_curve(request.param, (0.0, 0.0), 1.0), kappa, N)
    grid = SamplingGrid(-1.5, 1.5, -1.5, 1.5, 24, 20)
    ex, ey = grid.plane_wave_factors(-kappa * equiangular_directions(N))
    return F, phi_infinity_rhs((0.0, 0.0), kappa, N), ex, ey


def gram_rounding_bound(fact, w):
    """N eps sum_{s<=t} |c_st G_st| with G = X* X for the solutions X of b = w_j e_j."""
    X = fact.solve(np.diag(w))
    G = X.conj().T @ X
    s, t = np.triu_indices(len(w))
    return len(w) * np.finfo(float).eps * np.sum(np.where(s == t, 1.0, 2.0) * np.abs(G[s, t]))


@pytest.mark.parametrize("alpha", [1e-2, 1e-6, 1e-10, 1e-14])
def test_plane_wave_norms_within_gram_rounding_bound(lsm_problem, alpha):
    """||g||^2 from the pair-factor Gram form is within the rounding bound of
    the dense solve."""
    A, w, ex, ey = lsm_problem
    fact = TikhonovFactorization(A, alpha)
    dense = (w[:, None, None] * ey[:, :, None] * ex[:, None, :]).reshape(len(w), -1)
    reference = np.linalg.norm(fact.solve(dense), axis=0) ** 2
    squared = fact.plane_wave_norms(w, ex, ey).ravel() ** 2
    assert np.max(np.abs(squared - reference)) <= gram_rounding_bound(fact, w)


def test_plane_wave_norms_floored_at_tiny_alpha(lsm_problem):
    """At alpha = 1e-18 the apple's map reaches the rounding floor; every value
    stays finite and at or above it."""
    A, w, ex, ey = lsm_problem
    fact = TikhonovFactorization(A, 1e-18)
    norms = fact.plane_wave_norms(w, ex, ey)
    assert np.all(np.isfinite(norms))
    assert np.min(norms) ** 2 >= 0.99 * gram_rounding_bound(fact, w) > 0.0


def test_alpha_validation():
    with pytest.raises(ValueError):
        TikhonovFactorization(np.eye(3), 0.0).solve(np.ones(3))
    with pytest.raises(ValueError):
        TikhonovFactorization(np.eye(3), -1e-6).solve(np.ones(3))
    with pytest.raises(ValueError, match="alpha must be > 0"):
        TikhonovFactorization(np.eye(3), float("nan"))
    with pytest.raises(ValueError):
        TikhonovFactorization(np.array([[np.nan, 0], [0, 1]]), 1e-6).solve(np.ones(2))


def directions_at(angles):
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


@pytest.mark.parametrize("directions", [
    *(equiangular_directions(N) for N in (8, 9, 32, 40)),
    directions_at(np.array([0.3, 1.1, 0.3, 2.0, 4.0, 0.3, 5.5])),
    directions_at(np.array([1.1, 0.3, -0.3, 2.0, 0.3, 5.5, -1.1])),
    equiangular_directions(40)[np.arange(-10, 11) % 40],
], ids=["N8", "N9", "N32", "N40", "class-of-3", "mixed-widths", "N40-half-arc"])
def test_folded_plane_wave_norms_within_gram_rounding_bound(directions):
    """Directions with equal x-factors are folded into one class; the folded
    ||g||^2 is within the rounding bound of the dense solve. The class-of-3 set
    repeats one direction three times; mixed-widths has classes of sizes 2, 3,
    1 and 1, the widest not first; N40-half-arc is the closed arc of 21
    directions centred on theta = 0, in 11 classes."""
    rng = np.random.default_rng(len(directions))
    N = len(directions)
    fact = TikhonovFactorization(random_complex(rng, N, N), 1e-4)
    w = random_complex(rng, N)
    grid = SamplingGrid(-1.3, 0.9, -1.1, 1.2, 19, 14)
    ex, ey = grid.plane_wave_factors(2.5 * directions)
    assert len({row.tobytes() for row in ex}) < N
    dense = (w[:, None, None] * ey[:, :, None] * ex[:, None, :]).reshape(N, -1)
    reference = np.linalg.norm(fact.solve(dense), axis=0) ** 2
    squared = fact.plane_wave_norms(w, ex, ey).ravel() ** 2
    assert np.max(np.abs(squared - reference)) <= gram_rounding_bound(fact, w)
