"""Cylinder functions (Bessel, Hankel, modified Bessel) on validated domains.

Thin wrappers around ``scipy.special`` that pin down the integer-order,
real-argument domain and raise on out-of-range input instead of returning
NaN. Orders up to 200 and arguments up to 500 are supported. Orders 0 and
1 go to scipy's order-specific ufuncs (``j0``, ``y1``, ``k0``, ...), which
are several times faster than the general-order ones on large arrays.

The Nystrom assembly in ``bhs.forward`` evaluates all of its kernels here.
When kappa times the largest node distance exceeds ``MAX_ARGUMENT`` the
solver raises ``IllConditionedSystemError`` instead of calling in.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

__all__ = [
    "MAX_ORDER",
    "MAX_ARGUMENT",
    "bessel_j",
    "bessel_y",
    "bessel_i",
    "bessel_k",
    "hankel1",
    "cyl_derivative",
]

MAX_ORDER = 200
MAX_ARGUMENT = 500.0


def _check_order(n: int) -> int:
    if int(n) != n or n < 0 or n > MAX_ORDER:
        raise ValueError(f"order must be an integer in [0, {MAX_ORDER}], got {n!r}")
    return int(n)


def _check_argument(x, positive: bool = False):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")
    if np.any(x > MAX_ARGUMENT):
        raise ValueError(f"argument exceeds supported range {MAX_ARGUMENT}")
    if positive:
        if np.any(x <= 0.0):
            raise ValueError("argument must be > 0")
    elif np.any(x < 0.0):
        raise ValueError("argument must be >= 0")
    return x


def _evaluate(general, order01, n: int, x):
    """general(n, x), or the order-specific ufunc order01[n](x) for n in {0, 1}."""
    return order01[n](x) if n < 2 else general(n, x)


def bessel_j(n: int, x):
    """Bessel function of the first kind J_n(x) for integer n >= 0, x >= 0."""
    n = _check_order(n)
    x = _check_argument(x)
    return _evaluate(_sp.jv, (_sp.j0, _sp.j1), n, x)


def bessel_y(n: int, x):
    """Bessel function of the second kind Y_n(x); singular at x = 0, so x > 0."""
    n = _check_order(n)
    x = _check_argument(x, positive=True)
    return _evaluate(_sp.yv, (_sp.y0, _sp.y1), n, x)


def bessel_i(n: int, x):
    """Modified Bessel function of the first kind I_n(x), x >= 0."""
    n = _check_order(n)
    x = _check_argument(x)
    return _evaluate(_sp.iv, (_sp.i0, _sp.i1), n, x)


def bessel_k(n: int, x):
    """Modified Bessel function of the second kind K_n(x); singular at 0, so x > 0."""
    n = _check_order(n)
    x = _check_argument(x, positive=True)
    return _evaluate(_sp.kv, (_sp.k0, _sp.k1), n, x)


def hankel1(n: int, x):
    """Hankel function of the first kind, composed exactly as J_n(x) + i Y_n(x)."""
    return bessel_j(n, x) + 1j * bessel_y(n, x)


def cyl_derivative(kind: str, n: int, x):
    """First derivative of a cylinder function via the standard recurrences.

    J and H1 use C_n'(x) = (C_{n-1}(x) - C_{n+1}(x)) / 2 with C_0' = -C_1;
    K uses K_n'(x) = -(K_{n-1}(x) + K_{n+1}(x)) / 2 with K_0' = -K_1.

    Parameters
    ----------
    kind : {"J", "H1", "K"}
        Family of the base function.
    n : int
        Order, 0 <= n <= MAX_ORDER.
    x : float or ndarray
        Argument, same domain as the base function.
    """
    n = _check_order(n)
    if kind == "J":
        if n == 0:
            return -bessel_j(1, x)
        return 0.5 * (bessel_j(n - 1, x) - bessel_j(n + 1, x))
    if kind == "H1":
        if n == 0:
            return -hankel1(1, x)
        return 0.5 * (hankel1(n - 1, x) - hankel1(n + 1, x))
    if kind == "K":
        if n == 0:
            return -bessel_k(1, x)
        return -0.5 * (bessel_k(n - 1, x) + bessel_k(n + 1, x))
    raise ValueError(f"unknown kind {kind!r}, expected 'J', 'H1' or 'K'")
