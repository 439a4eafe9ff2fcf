"""Mode series of the disk of radius R centred at the origin.

Both disk far fields in the package are eps_n-weighted cosine series in the
angle delta between observation and incidence,

    sum_{n >= 0} eps_n a_n cos(n delta),   eps_0 = 1, eps_n = 2 (n >= 1),

with one coefficient function per boundary condition at z = kappa R:

- sound-soft, a_n = J_n(z) / H_n^(1)(z): the kernel of the extended sampling
  method (:mod:`bhs.esm`);
- clamped, a_n = (J_n' K_n - J_n K_n') / (H_n K_n' - K_n H_n'): the value and
  radial-derivative match of the incident J_n mode by H_n^(1) and K_n
  modes, the oracle of the boundary-integral solver (:mod:`bhs.forward`).

Each series is cut at the smallest n >= kappa R + 10 with |a_n| < 1e-14.

The two far fields use different normalizations. The sound-soft one is
Colton-Kress, u_s ~ (e^{i kappa r} / sqrt r) u_inf, with the prefactor
-e^{-i pi/4} sqrt(2 / (pi kappa)). The clamped one is that of ``bhs.forward``,
u_s ~ c(kappa) (e^{i kappa r} / sqrt r) u_inf with
c(kappa) = e^{i pi/4} / sqrt(8 pi kappa), which makes the prefactor -4i. The
ESM kernel is therefore c(kappa) times a far field in the data's convention.

The module calls ``scipy.special`` directly and imports nothing from the
package but its exceptions, so the oracle shares no code with the
``bhs.special`` kernels it checks.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import special as _sp

from .exceptions import OracleError

__all__ = ["disk_far_field", "analytic_disk_far_field", "guard_radius"]

_TAIL_TOL = 1e-14
_EIGENVALUE_GUARD = 1e-8


def _sound_soft(ns, z):
    """J_n(z) / H_n^(1)(z); H_n^(1) never vanishes for real z > 0."""
    return _sp.jv(ns, z) / _sp.hankel1(ns, z)


def _clamped(ns, z):
    """Radiating coefficient of the clamped mode system [H K; H' K'] (a, b) = -(J, J')."""
    J, Jp, K, Kp = _sp.jv(ns, z), _sp.jvp(ns, z), _sp.kv(ns, z), _sp.kvp(ns, z)
    det = _sp.hankel1(ns, z) * Kp - K * _sp.h1vp(ns, z)
    if np.any(np.abs(det) < 1e-300) or not np.all(np.isfinite(det)):
        raise OracleError(f"singular clamped mode system at kappa R = {z:.6g}")
    return (Jp * K - J * Kp) / det


def _modes(coefficient, R: float, kappa: float) -> np.ndarray:
    """Coefficients a_0..a_n of one boundary condition at z = kappa R, n the
    smallest index >= kappa R + 10 with |a_n| < ``_TAIL_TOL``."""
    if not (R > 0.0 and kappa > 0.0):
        raise ValueError("R and kappa must be positive")
    z = kappa * R
    n_max = max(int(np.ceil(z + 10.0)), 1)
    while abs(coefficient(n_max, z)) >= _TAIL_TOL:
        n_max += 1
    return coefficient(np.arange(n_max + 1), z)


def _cosine_sum(a: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """sum_n eps_n a_n cos(n delta) for each entry of ``delta``, as a 1-D array."""
    ns = np.arange(1, len(a))
    return a[0] + 2.0 * np.einsum("n,nk->k", a[1:], np.cos(np.outer(ns, delta)))


def disk_far_field(R: float, kappa: float, theta_x, theta_y) -> complex | np.ndarray:
    """Sound-soft disk far field U(theta_x, theta_y) for the origin-centered disk.

    Separation of variables gives

        -e^{-i pi/4} sqrt(2/(pi kappa)) [ J_0(kR)/H_0(kR)
            + 2 sum_{n>=1} J_n(kR)/H_n(kR) cos(n (theta_x - theta_y)) ].

    Depends on the angles only through their difference and is symmetric in
    them. H_n^(1) never vanishes for real positive argument, so every term
    is finite.
    """
    ratios = _modes(_sound_soft, R, kappa)
    delta = np.asarray(theta_x, dtype=float) - np.asarray(theta_y, dtype=float)
    out = -np.exp(-1j * np.pi / 4.0) * np.sqrt(2.0 / (np.pi * kappa)) * _cosine_sum(ratios, delta)
    return complex(out[0]) if delta.ndim == 0 else out


def analytic_disk_far_field(R: float, kappa: float, d, xhat) -> complex:
    """Mode-matching far field for the clamped disk of radius R at the origin.

    Expands the incident wave e^{i kappa x.d} in J_n modes, solves the
    per-mode 2x2 clamped system for H_n^(1) / K_n coefficients (value and
    radial-derivative conditions at r = R), and converts the radiating part
    to the far-field normalization of ``bhs.forward``. Matching the
    large-argument Hankel asymptotics against it gives the factor -4i:

        u_inf(xhat, d) = -4i sum_n eps_n a_n cos(n (theta_x - theta_d)).

    Independent of the boundary-integral path; serves as its oracle.
    """
    a = _modes(_clamped, R, kappa)
    d = np.asarray(d, dtype=float).reshape(2)
    xhat = np.asarray(xhat, dtype=float).reshape(2)
    delta = np.arctan2(xhat[1], xhat[0]) - np.arctan2(d[1], d[0])
    return complex(-4j * _cosine_sum(a, delta)[0])


def guard_radius(R: float, kappa: float) -> float:
    """Perturb R by 1 percent if kappa^2 sits numerically on a Dirichlet
    eigenvalue of the disk (a zero of some J_n(kappa R)).

    Only orders n <= kappa R can have a zero at kappa R (the first zero of
    J_n exceeds n), so the scan stops there; higher orders are in their
    decay regime where small values are natural, not eigenvalues. The
    warning names the caller's caller, the code that asked for the kernel.
    """
    z = kappa * R
    ns = np.arange(int(np.floor(z)) + 1)
    if np.min(np.abs(_sp.jv(ns, z))) > _EIGENVALUE_GUARD:
        return R
    warnings.warn(
        f"kappa^2 is numerically a Dirichlet eigenvalue of the sampling disk "
        f"(kappa R = {z:.9g}); perturbing R by 1%",
        stacklevel=3,
    )
    return 1.01 * R
