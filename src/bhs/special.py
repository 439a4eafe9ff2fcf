"""Bessel and modified Bessel functions on validated domains.

Thin wrappers around ``scipy.special`` that pin down the integer-order,
real-argument domain and raise on out-of-range input instead of returning
NaN. Orders up to 200 and arguments up to 500 are supported. Orders 0 and
1 go to scipy's order-specific ufuncs (``j0``, ``y1``, ``k0``, ...), which
are several times faster than the general-order ones on large arrays.

The Nystrom assembly in ``bhs.forward`` evaluates all of its kernels with
the order-0/1 ufuncs of this module (``J01``, ``Y01``, ``I01``, ``K01``, the
ones the ``bessel_*`` functions call), on the upper triangle of its
symmetric argument matrix, one block of rows per call, and takes the real
and imaginary parts of its Hankel kernels H = J + i Y from ``J01`` and
``Y01`` separately. It validates the whole argument matrix once instead of
each block: when kappa times the largest node distance exceeds
``MAX_ARGUMENT`` it raises ``IllConditionedSystemError``, and a non-finite or
zero argument raises ``ValueError``, before any kernel is evaluated.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

__all__ = [
    "MAX_ORDER",
    "MAX_ARGUMENT",
    "J01",
    "Y01",
    "I01",
    "K01",
    "bessel_j",
    "bessel_y",
    "bessel_i",
    "bessel_k",
]

MAX_ORDER = 200
MAX_ARGUMENT = 500.0

# Orders 0 and 1 of each kind, unchecked: (order-0 ufunc, order-1 ufunc).
J01, Y01, I01, K01 = (_sp.j0, _sp.j1), (_sp.y0, _sp.y1), (_sp.i0, _sp.i1), (_sp.k0, _sp.k1)


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
    return _evaluate(_sp.jv, J01, n, x)


def bessel_y(n: int, x):
    """Bessel function of the second kind Y_n(x); singular at x = 0, so x > 0."""
    n = _check_order(n)
    x = _check_argument(x, positive=True)
    return _evaluate(_sp.yv, Y01, n, x)


def bessel_i(n: int, x):
    """Modified Bessel function of the first kind I_n(x), x >= 0."""
    n = _check_order(n)
    x = _check_argument(x)
    return _evaluate(_sp.iv, I01, n, x)


def bessel_k(n: int, x):
    """Modified Bessel function of the second kind K_n(x); singular at 0, so x > 0."""
    n = _check_order(n)
    x = _check_argument(x, positive=True)
    return _evaluate(_sp.kv, K01, n, x)

