"""Extended sampling method: cavity localization from one or few incident waves.

The modified far-field equation compares measured data against the analytic
far field of a sound-soft disk B_z of radius R centered at the sampling
point z,

    A^z g_z = u_inf(., d),      A^z[i, j] = e^{i kappa z.(yhat_j - xhat_i)}
                                            U(xhat_i, yhat_j),

where U is the separation-of-variables far field of the origin-centered
disk (:func:`bhs.disk.disk_far_field`). The regularized solution norm
||g_z|| stays bounded where the cavity is contained in B_z and blows up
where B_z misses it; the normalized map ||g_z|| / max ||g_z|| is minimized
at the estimated location.

Because the translation enters A^z only through unitary diagonal factors,

    A^z = Dx(z) U Dy(z),   (alpha I + (A^z)* A^z) = Dy* (alpha I + U* U) Dy,

the norm ||g_z|| equals || (alpha I + U* U)^{-1} U* (e^{i kappa z.xhat} o b) ||,
the Tikhonov solution norm of the z = 0 system for phase-shifted data. One
SVD of U per wavenumber (see :mod:`bhs.linalg`) therefore serves the whole
grid and every incident direction.

On a sampling grid e^{i kappa xhat.z} = ex[:, ix] ey[:, iy] with
ex = e^{i kappa xhat_1 xs} (N, nx) and ey = e^{i kappa xhat_2 ys} (N, ny), built
once per wavenumber; each data column then costs one Gram product, whose cost
and rounding :meth:`TikhonovFactorization.plane_wave_norms` states.

Every entry point takes plain arrays, as :func:`bhs.lsm.lsm_indicator` does:
``esm_indicator(columns, wavenumbers, grid, radius, alpha, meta)`` with
columns of shape (L, J, N), one row of J incident directions per wavenumber,
and ``multilevel_esm(column, kappa, R0, region, alpha)`` for one column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import circulant

from .disk import disk_far_field, guard_radius
from .exceptions import DataError
from .grids import IndicatorMap, SamplingGrid, equiangular_angles, equiangular_directions
from .linalg import TikhonovFactorization

__all__ = [
    "DEFAULT_ALPHA",
    "LocalizationResult",
    "disk_far_field",
    "build_disk_kernel",
    "translated_kernel",
    "esm_indicator",
    "multilevel_esm",
]

DEFAULT_ALPHA = 1e-4

_MAX_LEVELS = 8
_LEVEL_GRID_CAP = 256
_LEVEL_GRID_FRACTION = 32


def build_disk_kernel(R: float, kappa: float, N: int) -> np.ndarray:
    """Disk far-field matrix U[i, j] (N, N) on the equiangular grid.

    Circulant (function of (i - j) mod N, with column 0 the values U(theta_i, 0))
    and symmetric by construction. The Dirichlet-eigenvalue guard may enlarge R
    by 1 percent first.
    """
    if not R > 0.0:
        raise ValueError(f"radius must be > 0, got {R}")
    if not kappa > 0.0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if N < 2:
        raise ValueError(f"direction count must be >= 2, got {N}")
    R = guard_radius(R, kappa)
    return circulant(disk_far_field(R, kappa, equiangular_angles(N), 0.0))


def translated_kernel(z, U: np.ndarray, kappa: float) -> np.ndarray:
    """Kernel matrix A^z of the disk centered at z: e^{i kappa z.(yhat_j - xhat_i)} U[i, j]."""
    z = np.asarray(z, dtype=float).reshape(2)
    phase = np.exp(1j * kappa * (equiangular_directions(len(U)) @ z))  # (N,)
    return phase.conj()[:, None] * U * phase[None, :]


def esm_indicator(columns, wavenumbers: Sequence[float], grid: SamplingGrid, radius: float,
                  alpha: float = DEFAULT_ALPHA, meta: dict | None = None) -> IndicatorMap:
    """Normalized localization indicator from one or many far-field columns.

    Parameters
    ----------
    columns : array-like, shape (L, J, N)
        Far-field data u_inf(xhat_i, d_j; kappa_l) on the equiangular
        observation grid, one column per wavenumber/direction pair.
    wavenumbers : sequence of L floats
    grid : SamplingGrid
    radius : float
        Radius of the sampling disk B_z.
    alpha : float
        Tikhonov parameter.
    meta : dict, optional
        Extra metadata recorded on the map.

    The raw value at z is the sum over all pairs of the regularized
    solution norms; the map is scaled so its maximum is exactly 1 and the
    location estimate is the grid argmin.
    """
    columns = np.asarray(columns, dtype=np.complex128)
    if columns.ndim != 3 or 0 in columns.shape:
        raise ValueError(f"columns must have a nonempty shape (L, J, N), got {columns.shape}")
    L, J, N = columns.shape
    if L != len(wavenumbers):
        raise ValueError(
            f"columns shape {columns.shape} does not match {len(wavenumbers)} wavenumbers"
        )
    if np.any(np.max(np.abs(columns), axis=2) == 0.0):
        raise DataError("far-field column is identically zero")

    raw = np.zeros((grid.ny, grid.nx))
    for ell, kappa in enumerate(wavenumbers):
        fact = TikhonovFactorization(build_disk_kernel(radius, kappa, N), alpha)
        ex, ey = grid.plane_wave_factors(kappa * equiangular_directions(N))
        for j in range(J):
            raw += fact.plane_wave_norms(columns[ell, j], ex, ey)
    values = raw.ravel() / np.max(raw)
    info = {
        "method": "esm",
        "kappa": list(map(float, wavenumbers)),
        "alpha": alpha,
        "radius": radius,
    }
    if meta:
        info.update(meta)
    return IndicatorMap(grid=grid, values=values, meta=info)


@dataclass(frozen=True)
class LocalizationResult:
    """Outcome of the multilevel radius search.

    ``history`` records (level, radius, minimizer) per completed level;
    radii halve each level. ``low_confidence`` marks runs whose first
    refinement already escaped the level-0 disk.
    """

    center: np.ndarray
    radius: float
    history: tuple
    low_confidence: bool = False


def _level_grid(region, radius: float) -> SamplingGrid:
    """Uniform lattice over the region with spacing about min(radius, extent/32)."""
    xmin, xmax, ymin, ymax = region
    extent = max(xmax - xmin, ymax - ymin)
    spacing = min(radius, extent / _LEVEL_GRID_FRACTION)
    nx = min(int(round((xmax - xmin) / spacing)) + 1, _LEVEL_GRID_CAP)
    ny = min(int(round((ymax - ymin) / spacing)) + 1, _LEVEL_GRID_CAP)
    return SamplingGrid(xmin, xmax, ymin, ymax, max(nx, 2), max(ny, 2))


def multilevel_esm(column, kappa: float, R0: float, region,
                   alpha: float = DEFAULT_ALPHA) -> LocalizationResult:
    """Halving-radius localization driver.

    Level j scans radius R_j = R0 / 2^j on a grid with spacing about R_j
    (clamped as in :func:`_level_grid`), tracking the indicator minimizer
    z_j. Iteration stops when z_j leaves the previous disk B(z_{j-1},
    R_{j-1}) or when the level cap (8) is reached; the previous level's
    minimizer and radius are returned. If the very first refinement
    escapes, the level-0 result is returned flagged low-confidence.
    """
    if not R0 > 0.0:
        raise ValueError(f"R0 must be > 0, got {R0}")
    column = np.asarray(column, dtype=np.complex128).reshape(-1)

    def scan(radius: float):
        grid = _level_grid(region, radius)
        return esm_indicator(column[None, None, :], [kappa], grid, radius, alpha).argmin_point()

    history = [(0, R0, scan(R0))]
    for j in range(1, _MAX_LEVELS):
        Rj = R0 / 2**j
        zj = scan(Rj)
        _, R_prev, z_prev = history[-1]
        if np.hypot(*(zj - z_prev)) > R_prev:
            return LocalizationResult(
                center=z_prev, radius=R_prev, history=tuple(history), low_confidence=(j == 1)
            )
        history.append((j, Rj, zj))
    _, R_last, z_last = history[-1]
    return LocalizationResult(center=z_last, radius=R_last, history=tuple(history))
