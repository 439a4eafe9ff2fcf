"""Grids shared by the solver and both imaging methods: the one definition of the
far-field direction grid theta_i = 2 pi i / N and of its antipodes (for even N,
-xhat_i is direction (i + N/2) mod N; odd N has no -xhat), and sampling grids
with their indicator maps.

The direction grid is exactly mirror-symmetric: row (N - i) mod N of
:func:`equiangular_directions` is exactly (x_i, -y_i), and y = 0 exactly at
theta = 0 and theta = pi. Mirrored directions therefore have bitwise equal x
components and equal plane-wave x-factors, which
:meth:`bhs.linalg.TikhonovFactorization.plane_wave_norms` groups."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["equiangular_angles", "equiangular_directions", "antipodes", "SamplingGrid",
           "IndicatorMap"]


def equiangular_angles(N: int) -> np.ndarray:
    """Angles theta_i = 2 pi i / N, i = 0..N-1."""
    return 2.0 * np.pi * np.arange(N) / N


def equiangular_directions(N: int) -> np.ndarray:
    """Unit vectors (cos theta_i, sin theta_i), theta_i = 2 pi i / N, shape (N, 2).

    Evaluated on theta in [0, pi] and mirrored: row (N - i) mod N is exactly
    (x_i, -y_i), and y = 0 at theta = 0 and pi (sin pi is 1.2e-16 in floating
    point). Every row is within 1e-15 of the exact (cos theta_i, sin theta_i).
    """
    th = equiangular_angles(N)[: N // 2 + 1]
    x, y = np.cos(th), np.sin(th)
    if N % 2 == 0:
        y[-1] = 0.0
    mirror = slice((N - 1) // 2, 0, -1)    # rows N//2 + 1 .. N-1 are i = (N-1)//2 .. 1
    return np.stack([np.concatenate([x, x[mirror]]), np.concatenate([y, -y[mirror]])], axis=-1)


def antipodes(N: int) -> np.ndarray | None:
    """Index of -xhat_i on the N-point grid, (i + N/2) mod N, or None for odd N,
    whose grid holds no -xhat."""
    if N % 2:
        return None
    return (np.arange(N) + N // 2) % N


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform rectangular lattice of sampling points, endpoints included.

    Points are ordered row-major with y varying slowest and increasing:
    index k = iy * nx + ix maps to (xs[ix], ys[iy]).
    """

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid resolution must be at least 2 x 2")
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("grid bounds must be ordered")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.ymin, self.ymax, self.ny)

    @property
    def size(self) -> int:
        return self.nx * self.ny

    @property
    def spacing(self) -> float:
        """Largest step between adjacent sampling points."""
        return max((self.xmax - self.xmin) / (self.nx - 1), (self.ymax - self.ymin) / (self.ny - 1))

    def points(self) -> np.ndarray:
        """All sampling points as an (nx * ny, 2) array in row-major order."""
        X, Y = np.meshgrid(self.xs, self.ys)  # ys indexed by rows
        return np.stack([X.ravel(), Y.ravel()], axis=-1)

    def plane_wave_factors(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Factors ex = e^{i k_x xs} (N, nx) and ey = e^{i k_y ys} (N, ny) of the
        plane waves of wave vectors ``k`` (N, 2): e^{i k_j.z} at grid point
        (xs[ix], ys[iy]) is ex[j, ix] * ey[j, iy]."""
        k = np.asarray(k, dtype=float)
        return np.exp(1j * np.outer(k[:, 0], self.xs)), np.exp(1j * np.outer(k[:, 1], self.ys))


@dataclass(frozen=True)
class IndicatorMap:
    """Real nonnegative indicator value per sampling point, plus run metadata.

    ``meta`` records the method tag and the effective parameters (kappa or
    kappa list, alpha, noise level, seed) so a map file is self-describing.
    """

    grid: SamplingGrid
    values: np.ndarray  # (nx * ny,)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.size,):
            raise ValueError(f"values shape {v.shape} does not match grid size {self.grid.size}")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise ValueError("indicator values must be finite and nonnegative")
        object.__setattr__(self, "values", v)

    def as_array(self) -> np.ndarray:
        """Values reshaped to (ny, nx), row iy at y = ys[iy]."""
        return self.values.reshape(self.grid.ny, self.grid.nx)

    def argmin_point(self) -> np.ndarray:
        """Sampling point with the smallest value (lowest row-major index on ties)."""
        iy, ix = divmod(int(np.argmin(self.values)), self.grid.nx)
        return np.array([self.grid.xs[ix], self.grid.ys[iy]])

    def normalized(self) -> np.ndarray:
        """Values scaled to maximum 1 (used for cutoff classification)."""
        peak = float(np.max(self.values))
        if peak == 0.0:
            return np.zeros_like(self.values)
        return self.values / peak
