"""The far-field direction grid: exact mirror symmetry, the plane-wave
x-factors it makes equal, and the antipode map."""

import numpy as np
import pytest

from bhs.grids import SamplingGrid, antipodes, equiangular_angles, equiangular_directions


@pytest.mark.parametrize("N", range(1, 131))
def test_equiangular_directions_mirror_exactly(N):
    """Row (N - i) mod N is exactly (x_i, -y_i), y is exactly 0 at theta = 0
    and pi, and every row is within 1e-15 of the exact (cos, sin)."""
    d = equiangular_directions(N)
    assert d.shape == (N, 2)
    mirror = d[(N - np.arange(N)) % N]
    assert np.array_equal(mirror[:, 0], d[:, 0]) and np.array_equal(mirror[:, 1], -d[:, 1])
    assert d[0, 1] == 0.0 and (N % 2 == 1 or d[N // 2, 1] == 0.0)
    # theta_i wrapped to (-pi, pi], where the rounding of 2 pi i / N stays below 5e-16
    i = np.arange(N)
    theta = 2.0 * np.pi * np.where(2 * i > N, i - N, i) / N
    assert np.max(np.abs(d - np.stack([np.cos(theta), np.sin(theta)], axis=-1))) <= 1e-15
    np.testing.assert_array_equal(equiangular_angles(N), 2.0 * np.pi * np.arange(N) / N)


@pytest.mark.parametrize("N", [1, 2, 7, 8, 9, 32, 40, 64])
def test_equiangular_plane_wave_factors_pair_up(N):
    """The x-factors e^{i kappa x_i xs} of mirrored directions are bitwise equal,
    so there are N // 2 + 1 distinct rows."""
    grid = SamplingGrid(-2.0, 1.5, -1.0, 1.0, 33, 17)
    for kappa in (np.pi, -2 * np.pi):
        ex, _ = grid.plane_wave_factors(kappa * equiangular_directions(N))
        assert len({row.tobytes() for row in ex}) == N // 2 + 1


@pytest.mark.parametrize("N", range(1, 131))
def test_antipodes(N):
    """None for odd N; for even N an involution without fixed points that
    maps each direction to its negative."""
    anti = antipodes(N)
    if N % 2:
        assert anti is None
        return
    i = np.arange(N)
    assert np.array_equal(anti[anti], i) and not np.any(anti == i)
    d = equiangular_directions(N)
    assert np.max(np.abs(d[anti] + d)) <= 2e-15
