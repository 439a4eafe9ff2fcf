"""Parametric boundary curves and quadrature-ready discretizations.

Every boundary is a smooth closed curve given by a 2*pi-periodic map
t -> x(t) with analytic first and second derivatives (the Nystrom solver
needs exact jacobians and curvature terms, so derivatives are closed-form,
never finite differences). Curves are positively oriented (counter-
clockwise); the outward unit normal is the tangent rotated by -90 degrees.

Every named shape is one row of a table: a radius rho(t) with its first
two derivatives, and a y-axis ratio a. With center c and scale s,

    x(t) = c + s rho(t) (cos t, a sin t)

    apple   rho(t) = 0.55 (1 + 0.9 cos t + 0.1 sin 2t) / (1 + 0.75 cos t)   a = 1
    peanut  rho(t) = 0.275 sqrt(3 cos^2 t + 1)                             a = 1
    peach   rho(t) = 0.22 (cos^2 t sqrt(1 - sin t) + 2)                    a = 1
    circle  rho(t) = 1                                                     a = 1
    ellipse rho(t) = 1                                                     a = 1/2

so the ellipse is the circle squeezed to semi-axes s and s/2.

The peach map is kept exactly as written: its sqrt(1 - sin t) factor has a
derivative singularity at t = pi/2, which is deliberate (a non-analytic
test boundary). The derivative formulas below take their finite limiting
values at that point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ConfigError, GeometryError

__all__ = [
    "ParametricCurve",
    "BoundaryDiscretization",
    "make_named_curve",
    "discretize",
    "CURVE_NAMES",
]

_VALIDATION_SAMPLES = 4096
_MIN_JACOBIAN = 1e-12


@dataclass(frozen=True)
class ParametricCurve:
    """Smooth closed plane curve with closed-form derivatives.

    Attributes
    ----------
    position, first_derivative, second_derivative : callable
        Vectorized maps from parameter arrays (m,) to point arrays (m, 2).
    center : (2,) ndarray
        Nominal center (the translation applied to the base shape).
    scale : float
        Similarity factor applied to the base shape.
    name : str
        Shape label, used in file metadata.
    """

    position: Callable[[np.ndarray], np.ndarray]
    first_derivative: Callable[[np.ndarray], np.ndarray]
    second_derivative: Callable[[np.ndarray], np.ndarray]
    center: np.ndarray
    scale: float
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(2))
        t = np.linspace(0.0, 2.0 * np.pi, _VALIDATION_SAMPLES, endpoint=False)
        x = self.position(t)              # (m, 2)
        dx = self.first_derivative(t)     # (m, 2)
        speed = np.hypot(dx[:, 0], dx[:, 1])
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(dx)):
            raise GeometryError(f"curve {self.name!r}: non-finite samples")
        if np.any(speed <= _MIN_JACOBIAN):
            raise GeometryError(f"curve {self.name!r}: parametrization is not regular")
        # Shoelace in parameter form; positive means counterclockwise.
        area = 0.5 * np.mean(x[:, 0] * dx[:, 1] - x[:, 1] * dx[:, 0]) * 2.0 * np.pi
        if area <= 0.0:
            raise GeometryError(f"curve {self.name!r}: orientation is not counterclockwise")


@dataclass(frozen=True)
class BoundaryDiscretization:
    """Equispaced trigonometric-quadrature data on a boundary curve.

    2n nodes at t_i = pi i / n with the wavelength-independent trapezoid
    weight pi/n. Normals are unit outward vectors, perpendicular to the
    tangent by construction.
    """

    n: int
    params: np.ndarray      # (2n,)
    nodes: np.ndarray       # (2n, 2)
    jacobians: np.ndarray   # (2n,)  |x'(t_i)|
    normals: np.ndarray     # (2n, 2)
    second_derivatives: np.ndarray  # (2n, 2)

    @property
    def node_count(self) -> int:
        return 2 * self.n

    @property
    def weight(self) -> float:
        """Trapezoid weight pi/n shared by all nodes."""
        return np.pi / self.n

    def perimeter(self) -> float:
        return float(np.sum(self.jacobians) * self.weight)


def _radial_curve(rho, rho_p, rho_pp, aspect, center, scale, name) -> ParametricCurve:
    """x(t) = c + s rho(t) (cos t, a sin t) with its closed-form derivatives.

    Each y component is the radial one times the aspect a. The table's
    aspects are powers of two, so that product is exact.
    """
    center = np.asarray(center, dtype=float).reshape(2)
    scale = float(scale)

    def position(t):
        t = np.asarray(t, dtype=float)
        r = scale * rho(t)
        return np.stack([r * np.cos(t), aspect * (r * np.sin(t))], axis=-1) + center

    def first_derivative(t):
        t = np.asarray(t, dtype=float)
        r, rp = scale * rho(t), scale * rho_p(t)
        ct, st = np.cos(t), np.sin(t)
        return np.stack([rp * ct - r * st, aspect * (rp * st + r * ct)], axis=-1)

    def second_derivative(t):
        t = np.asarray(t, dtype=float)
        r, rp, rpp = scale * rho(t), scale * rho_p(t), scale * rho_pp(t)
        ct, st = np.cos(t), np.sin(t)
        return np.stack(
            [rpp * ct - 2.0 * rp * st - r * ct, aspect * (rpp * st + 2.0 * rp * ct - r * st)],
            axis=-1,
        )

    return ParametricCurve(position, first_derivative, second_derivative, center, scale, name)


def _apple(t):
    return 0.55 * (1 + 0.9 * np.cos(t) + 0.1 * np.sin(2 * t)) / (1 + 0.75 * np.cos(t))


def _apple_p(t):
    u = 1 + 0.9 * np.cos(t) + 0.1 * np.sin(2 * t)
    v = 1 + 0.75 * np.cos(t)
    up = -0.9 * np.sin(t) + 0.2 * np.cos(2 * t)
    vp = -0.75 * np.sin(t)
    return 0.55 * (up * v - u * vp) / v**2


def _apple_pp(t):
    u = 1 + 0.9 * np.cos(t) + 0.1 * np.sin(2 * t)
    v = 1 + 0.75 * np.cos(t)
    up = -0.9 * np.sin(t) + 0.2 * np.cos(2 * t)
    vp = -0.75 * np.sin(t)
    upp = -0.9 * np.cos(t) - 0.4 * np.sin(2 * t)
    vpp = -0.75 * np.cos(t)
    return 0.55 * ((upp * v - u * vpp) * v - 2.0 * vp * (up * v - u * vp)) / v**3


def _peanut(t):
    return 0.275 * np.sqrt(3 * np.cos(t) ** 2 + 1)


def _peanut_p(t):
    w = 3 * np.cos(t) ** 2 + 1
    return 0.275 * (-3 * np.sin(2 * t)) / (2 * np.sqrt(w))


def _peanut_pp(t):
    w = 3 * np.cos(t) ** 2 + 1
    wp = -3 * np.sin(2 * t)
    wpp = -6 * np.cos(2 * t)
    return 0.275 * (2 * w * wpp - wp**2) / (4 * w**1.5)


# Peach: q(t) = cos^2 t sqrt(1 - sin t). The 1/sqrt terms of its derivatives
# have finite (zero) limits at t = pi/2 where 1 - sin t vanishes; np.where
# installs them so the exact node t = pi/2 evaluates cleanly.
def _peach(t):
    return 0.22 * (np.cos(t) ** 2 * np.sqrt(1 - np.sin(t)) + 2.0)


def _peach_p(t):
    s = 1 - np.sin(t)
    sq = np.sqrt(s)
    ct = np.cos(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = np.where(s > 0, ct**3 / np.where(s > 0, 2 * sq, 1.0), 0.0)
    return 0.22 * (-np.sin(2 * t) * sq - singular)


def _peach_pp(t):
    s = 1 - np.sin(t)
    sq = np.sqrt(s)
    ct, st = np.cos(t), np.sin(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_sq = np.where(s > 0, 1.0 / np.where(s > 0, sq, 1.0), 0.0)
        inv_32 = np.where(s > 0, 1.0 / np.where(s > 0, s**1.5, 1.0), 0.0)
    qpp = (
        -2 * np.cos(2 * t) * sq
        + 0.5 * np.sin(2 * t) * ct * inv_sq
        + 1.5 * st * ct**2 * inv_sq
        - 0.25 * ct**4 * inv_32
    )
    return 0.22 * qpp


def _one(t):
    return np.ones_like(np.asarray(t, dtype=float))


def _zero(t):
    return np.zeros_like(np.asarray(t, dtype=float))


# name -> (rho, rho', rho'', y-axis ratio). The order is CURVE_NAMES'.
_SHAPES = {
    "apple": (_apple, _apple_p, _apple_pp, 1.0),
    "peanut": (_peanut, _peanut_p, _peanut_pp, 1.0),
    "peach": (_peach, _peach_p, _peach_pp, 1.0),
    "circle": (_one, _zero, _zero, 1.0),
    "ellipse": (_one, _zero, _zero, 0.5),
}
CURVE_NAMES = tuple(_SHAPES)


def make_named_curve(name: str, center=(0.0, 0.0), scale: float = 1.0) -> ParametricCurve:
    """Construct one of the standard test cavities.

    Parameters
    ----------
    name : str
        One of ``CURVE_NAMES``.
    center : pair of floats
        Translation applied after scaling.
    scale : float
        Similarity factor; the circle has radius ``scale``.
    """
    if not scale > 0.0:
        raise ConfigError(f"scale must be > 0, got {scale}")
    if name not in CURVE_NAMES:
        raise ConfigError(f"unknown curve name {name!r}, expected one of {CURVE_NAMES}")
    return _radial_curve(*_SHAPES[name], center, scale, name)


def discretize(curve: ParametricCurve, n: int) -> BoundaryDiscretization:
    """Sample a curve at the 2n equispaced quadrature nodes t_i = pi i / n.

    n must be a power of two between 8 and 1024 so that halving/doubling
    convergence studies land on nested grids.
    """
    if n < 8 or n > 1024 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two in [8, 1024], got {n}")
    t = np.arange(2 * n) * (np.pi / n)
    nodes = curve.position(t)
    dx = curve.first_derivative(t)
    ddx = curve.second_derivative(t)
    jac = np.hypot(dx[:, 0], dx[:, 1])
    if np.any(jac <= _MIN_JACOBIAN):
        raise GeometryError(f"curve {curve.name!r}: vanishing jacobian at a node")
    # Outward normal of a counterclockwise curve: tangent rotated by -90 deg.
    normals = np.stack([dx[:, 1], -dx[:, 0]], axis=-1) / jac[:, None]
    return BoundaryDiscretization(
        n=n,
        params=t,
        nodes=nodes,
        jacobians=jac,
        normals=normals,
        second_derivatives=ddx,
    )
