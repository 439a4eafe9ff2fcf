"""Linear sampling method: regularized far-field equation per sampling point.

For each sampling point z the far-field equation F g_z = Phi_inf(., z) is
solved by Tikhonov regularization, where

    Phi_inf(xhat, z) = -(1 / 2 kappa^2) (e^{i pi/4} / sqrt(8 pi kappa))
                       e^{-i kappa xhat.z}

is c(kappa) = e^{i pi/4} / sqrt(8 pi kappa) times the exact far field
-(1 / 2 kappa^2) e^{-i kappa xhat.z} of the outgoing fundamental solution with
source at z in the normalization of ``bhs.forward``, which F shares, so LSM
maps carry a factor 1/|c|^2 = 8 pi kappa. The indicator 1/||g_z||^2 is
large inside the cavity and small outside. F does not depend on z, so one
SVD of F serves the whole grid (||g_z|| = ||f o U* Phi_inf(., z)|| with the
Tikhonov filter factors f).

On a sampling grid e^{-i kappa xhat.z} = ex[:, ix] ey[:, iy] with
ex = e^{-i kappa xhat_1 xs} (N, nx) and ey = e^{-i kappa xhat_2 ys} (N, ny), so
the map is one Gram product of diag(f) U*, whose cost and rounding floor (every
alpha > 0 gives a finite map) :meth:`TikhonovFactorization.plane_wave_norms` states.
"""

from __future__ import annotations

import numpy as np

from .grids import IndicatorMap, SamplingGrid, equiangular_directions
from .linalg import TikhonovFactorization

__all__ = ["phi_infinity_rhs", "lsm_indicator", "classify"]

DEFAULT_ALPHA = 1e-6


def phi_infinity_rhs(z, kappa: float, N: int) -> np.ndarray:
    """Point-source far-field vector Phi_inf(xhat_i, z) on the equiangular grid."""
    z = np.asarray(z, dtype=float).reshape(2)
    return _phi_prefactor(kappa) * np.exp(-1j * kappa * (equiangular_directions(N) @ z))


def _phi_prefactor(kappa: float) -> complex:
    """The z-independent factor of Phi_inf: -(1 / 2 kappa^2) e^{i pi/4} / sqrt(8 pi kappa)."""
    return -(0.5 / kappa**2) * np.exp(1j * np.pi / 4.0) / np.sqrt(8.0 * np.pi * kappa)


def lsm_indicator(F: np.ndarray, kappa: float, grid: SamplingGrid,
                  alpha: float = DEFAULT_ALPHA, meta: dict | None = None) -> IndicatorMap:
    """Indicator map 1/||g_z||^2 over a sampling grid.

    Parameters
    ----------
    F : (N, N) complex ndarray
        Measured (possibly noisy) far-field data on the equiangular grid.
    kappa : float
        Wavenumber of the data.
    grid : SamplingGrid
    alpha : float
        Tikhonov parameter; 1e-6 reproduces the reference experiments.
    meta : dict, optional
        Extra metadata recorded on the map.
    """
    if not kappa > 0.0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    F = np.asarray(F)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError(f"far-field matrix must be square, got shape {F.shape}")
    fact = TikhonovFactorization(F, alpha)
    N = F.shape[0]
    w = np.full(N, _phi_prefactor(kappa))
    ex, ey = grid.plane_wave_factors(-kappa * equiangular_directions(N))
    # Phi_inf never vanishes, so g_z != 0 for every z and the inverse is safe.
    values = 1.0 / fact.plane_wave_norms(w, ex, ey).ravel() ** 2
    info = {"method": "lsm", "kappa": kappa, "alpha": alpha}
    if meta:
        info.update(meta)
    return IndicatorMap(grid=grid, values=values, meta=info)


def classify(indicator: IndicatorMap, zeta: float) -> np.ndarray:
    """Boolean inside-cavity mask: normalized indicator above the cutoff zeta.

    Values are normalized to maximum 1 first so the cutoff is scale-free
    across wavenumbers and noise levels.
    """
    if not zeta > 0.0:
        raise ValueError(f"zeta must be > 0, got {zeta}")
    return indicator.normalized() > zeta
