"""Boundary curves: pointwise values, derivatives, orientation, quadrature."""

import numpy as np
import pytest

from bhs.exceptions import ConfigError, GeometryError
from bhs.geometry import CURVE_NAMES, ParametricCurve, discretize, make_named_curve


def winding_number(polyline: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Winding of a closed polyline about each query point, by angle accumulation."""
    d = polyline[None, :, :] - points[:, None, :]          # (P, M, 2)
    angles = np.arctan2(d[..., 1], d[..., 0])
    steps = np.diff(np.concatenate([angles, angles[:, :1]], axis=1), axis=1)
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    return np.round(steps.sum(axis=1) / (2 * np.pi)).astype(int)


@pytest.mark.parametrize(
    "name,t,expected",
    [
        ("peanut", 0.0, (0.55, 0.0)),
        ("apple", np.pi, (-0.22, 0.0)),
        ("peach", np.pi / 2, (0.0, 0.44)),
    ],
)
def test_table_values(name, t, expected):
    curve = make_named_curve(name)
    np.testing.assert_allclose(curve.position(np.array([t]))[0], expected, atol=1e-14)


def test_circle_translation_value():
    curve = make_named_curve("circle", center=(-1.5, 1.5), scale=1.0)
    np.testing.assert_allclose(curve.position(np.array([0.0]))[0], (-0.5, 1.5), atol=1e-15)


def test_unknown_name():
    with pytest.raises(ConfigError):
        make_named_curve("pumpkin")
    with pytest.raises(ConfigError):
        make_named_curve("apple", scale=0.0)
    with pytest.raises(ConfigError, match="scale must be > 0"):
        make_named_curve("apple", scale=float("nan"))


@pytest.mark.parametrize("name", CURVE_NAMES)
def test_derivatives_match_finite_differences(name):
    curve = make_named_curve(name, center=(0.2, -0.4), scale=1.3)
    h = 1e-6
    t = np.linspace(0.05, 2 * np.pi - 0.05, 211)
    if name == "peach":  # derivative singularity at t = pi/2
        t = t[np.abs(t - np.pi / 2) > 0.05]
    fd1 = (curve.position(t + h) - curve.position(t - h)) / (2 * h)
    fd2 = (curve.first_derivative(t + h) - curve.first_derivative(t - h)) / (2 * h)
    np.testing.assert_allclose(curve.first_derivative(t), fd1, atol=2e-6)
    np.testing.assert_allclose(curve.second_derivative(t), fd2, atol=2e-5)


def test_peach_is_finite_at_singular_node():
    curve = make_named_curve("peach")
    disc = discretize(curve, 64)  # t = pi/2 is a node
    assert np.all(np.isfinite(disc.jacobians))
    assert np.all(np.isfinite(disc.second_derivatives))
    i = np.argmin(np.abs(disc.params - np.pi / 2))
    assert disc.params[i] == pytest.approx(np.pi / 2, abs=1e-15)
    np.testing.assert_allclose(disc.nodes[i], (0.0, 0.44), atol=1e-12)


@pytest.mark.parametrize("name", CURVE_NAMES)
def test_winding_number_about_center(name):
    curve = make_named_curve(name, center=(0.7, 0.1))
    t = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    poly = curve.position(t)
    assert winding_number(poly, curve.center[None, :])[0] == 1


@pytest.mark.parametrize("name", CURVE_NAMES)
def test_normals_point_outward(name):
    scale = 0.8
    curve = make_named_curve(name, scale=scale)
    disc = discretize(curve, 64)
    t = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    poly = curve.position(t)
    outside = disc.nodes + 1e-3 * scale * disc.normals
    assert np.all(winding_number(poly, outside) == 0)
    # and perpendicular unit vectors
    dx = curve.first_derivative(disc.params)
    assert np.max(np.abs(np.einsum("ij,ij->i", disc.normals, dx))) < 1e-12
    assert np.max(np.abs(np.hypot(disc.normals[:, 0], disc.normals[:, 1]) - 1.0)) < 1e-12


def test_unit_circle_discretization():
    disc = discretize(make_named_curve("circle"), 8)
    np.testing.assert_allclose(disc.nodes[0], (1.0, 0.0), atol=1e-15)
    np.testing.assert_allclose(disc.normals[0], (1.0, 0.0), atol=1e-15)
    assert disc.jacobians[0] == pytest.approx(1.0, abs=1e-15)
    disc32 = discretize(make_named_curve("circle"), 32)
    assert disc32.perimeter() == pytest.approx(2 * np.pi, abs=1e-12)


@pytest.mark.parametrize("name,tol", [("apple", 1e-10), ("peanut", 1e-10), ("peach", 1e-6)])
def test_perimeter_self_convergence(name, tol):
    curve = make_named_curve(name)
    p128 = discretize(curve, 128).perimeter()
    p256 = discretize(curve, 256).perimeter()
    assert abs(p256 - p128) / p256 < tol


def test_node_count_validation():
    curve = make_named_curve("circle")
    for bad in (4, 12, 100, 2048):
        with pytest.raises(ValueError):
            discretize(curve, bad)


def test_degenerate_curves_rejected():
    t0 = np.linspace(0, 2 * np.pi, 8)

    def clockwise(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.cos(-t), np.sin(-t)], axis=-1)

    def clockwise_d1(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.sin(-t), -np.cos(-t)], axis=-1)

    with pytest.raises(GeometryError):
        ParametricCurve(clockwise, clockwise_d1, clockwise_d1, (0, 0), 1.0, "cw")

    def pinched(t):
        t = np.asarray(t, dtype=float)
        r = np.cos(t) ** 2
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    with pytest.raises(GeometryError):
        ParametricCurve(pinched, pinched, pinched, (0, 0), 1.0, "pinched")
