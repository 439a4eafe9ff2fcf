"""Cylinder-function contracts against independent series oracles.

The oracles below are ascending power series and log-series summed to
machine precision, written without reference to the implementation under
test. Frozen literals were produced by these oracles and guard against
oracle regressions.
"""

import math

import numpy as np
import pytest
from scipy import special as sp

from bhs.special import bessel_i, bessel_j, bessel_k, bessel_y, cyl_derivative, hankel1

EULER = float(np.euler_gamma)


# ---------------------------------------------------------------------------
# Series oracles (independent of bhs.special)
# ---------------------------------------------------------------------------
def oracle_j(n: int, x: float) -> float:
    """Ascending series J_n(x) = sum (-1)^k (x/2)^(n+2k) / (k! (n+k)!)."""
    total, term = 0.0, (x / 2.0) ** n / math.factorial(n)
    for k in range(200):
        total += term
        term *= -((x / 2.0) ** 2) / ((k + 1) * (n + k + 1))
        if abs(term) < 1e-18 * max(abs(total), 1e-280):
            break
    return total


def _harmonic(k: int) -> float:
    return sum(1.0 / m for m in range(1, k + 1))


def oracle_y0(x: float) -> float:
    """Log series Y_0 = (2/pi)[(ln(x/2)+gamma) J_0 + sum (-1)^(k+1) h_k (x^2/4)^k/(k!)^2]."""
    acc, term = 0.0, 1.0
    for k in range(1, 200):
        term *= (x * x / 4.0) / k**2
        acc += (-1) ** (k + 1) * _harmonic(k) * term
        if term < 1e-18:
            break
    return (2.0 / math.pi) * ((math.log(x / 2.0) + EULER) * oracle_j(0, x) + acc)


def oracle_i0(x: float) -> float:
    total, term = 1.0, 1.0
    for k in range(1, 200):
        term *= (x * x / 4.0) / k**2
        total += term
        if term < 1e-18 * total:
            break
    return total


def oracle_k0(x: float) -> float:
    """K_0 = -(ln(x/2)+gamma) I_0 + sum h_k (x^2/4)^k / (k!)^2."""
    acc, term = 0.0, 1.0
    for k in range(1, 200):
        term *= (x * x / 4.0) / k**2
        acc += _harmonic(k) * term
        if term < 1e-18:
            break
    return -(math.log(x / 2.0) + EULER) * oracle_i0(x) + acc


def oracle_k1(x: float) -> float:
    """K_1 = ln(x/2) I_1 + 1/x - (x/4) sum (psi(k+1)+psi(k+2)) (x^2/4)^k / (k!(k+1)!)."""
    i1, term = 0.0, x / 2.0
    for k in range(0, 200):
        i1 += term
        term *= (x * x / 4.0) / ((k + 1) * (k + 2))
        if term < 1e-18:
            break
    acc, term = 0.0, 1.0
    for k in range(0, 200):
        psi_sum = -2.0 * EULER + _harmonic(k) + _harmonic(k + 1)
        acc += psi_sum * term
        term *= (x * x / 4.0) / ((k + 1) * (k + 2))
        if abs(term) < 1e-18:
            break
    return math.log(x / 2.0) * i1 + 1.0 / x - (x / 4.0) * acc


def oracle_hankel1_complex(z: complex) -> complex:
    """H_0^(1)(z) = J_0(z) + i Y_0(z) by the ascending series, complex argument."""
    j0, term = 0.0 + 0.0j, 1.0 + 0.0j
    for k in range(0, 200):
        j0 += term
        term *= -(z * z / 4.0) / (k + 1) ** 2
        if abs(term) < 1e-20:
            break
    # sum (-1)^(k+1) h_k (z^2/4)^k / (k!)^2
    acc = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(1, 200):
        term *= (z * z / 4.0) / k**2
        acc += (-1) ** (k + 1) * _harmonic(k) * term
        if abs(term) < 1e-20:
            break
    y0 = (2.0 / np.pi) * ((np.log(z / 2.0) + EULER) * j0 + acc)
    return j0 + 1j * y0


# ---------------------------------------------------------------------------
# Frozen oracle values
# ---------------------------------------------------------------------------
def test_oracle_self_consistency():
    assert oracle_j(0, 1.0) == pytest.approx(0.7651976865579666, abs=1e-15)
    assert oracle_y0(1.0) == pytest.approx(0.08825696421567696, abs=1e-15)
    assert oracle_k0(1.0) == pytest.approx(0.42102443824070834, abs=1e-15)
    assert oracle_k1(1.0) == pytest.approx(0.6019072301972346, abs=1e-15)


def test_bessel_j_examples():
    assert bessel_j(0, 0.0) == 1.0
    assert abs(bessel_j(0, 2.40483)) < 1e-5                 # first J_0 root to 6 digits
    assert bessel_j(0, 1.0) == pytest.approx(oracle_j(0, 1.0), rel=1e-10)


@pytest.mark.parametrize("n,x", [(0, 0.5), (1, 1.0), (3, 2.7), (7, 11.0), (12, 4.0)])
def test_bessel_j_series(n, x):
    assert bessel_j(n, x) == pytest.approx(oracle_j(n, x), rel=1e-10, abs=1e-290)


def test_hankel1_composition():
    value = hankel1(0, 1.0)
    assert value.real == pytest.approx(oracle_j(0, 1.0), rel=1e-10)
    assert value.imag == pytest.approx(oracle_y0(1.0), rel=1e-10)
    # definition: H1 = conj(J - i Y) for real argument
    x = 3.7
    assert hankel1(4, x) == pytest.approx(np.conj(bessel_j(4, x) - 1j * bessel_y(4, x)), abs=1e-14)


def test_bessel_i_series():
    assert bessel_i(0, 1.0) == pytest.approx(oracle_i0(1.0), rel=1e-10)
    assert bessel_i(0, 0.0) == 1.0


def test_bessel_k_examples():
    assert bessel_k(0, 1.0) == pytest.approx(oracle_k0(1.0), rel=1e-10)
    # positivity and monotone decay on a grid
    xs = np.linspace(0.2, 12.0, 40)
    for n in (0, 1, 4):
        vals = bessel_k(n, xs)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)


def test_modified_helmholtz_identity():
    """(i/4) H_0^(1)(i x) = (1/2 pi) K_0(x), checked via the complex series oracle."""
    for x in (0.3, 0.7, 1.9):
        lhs = 0.25j * oracle_hankel1_complex(1j * x)
        rhs = bessel_k(0, x) / (2.0 * np.pi)
        assert lhs.real == pytest.approx(rhs, abs=1e-12)
        assert abs(lhs.imag) < 1e-12


@pytest.mark.parametrize("n", range(0, 21))
@pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 7.5, 20.0, 100.0])
def test_wronskian_identity(n, x):
    lhs = bessel_j(n + 1, x) * bessel_y(n, x) - bessel_j(n, x) * bessel_y(n + 1, x)
    assert lhs == pytest.approx(2.0 / (np.pi * x), rel=1e-10)


@pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 20.0, 100.0, 400.0])
def test_three_term_recurrence(x):
    for family in (bessel_j, bessel_y):
        for n in range(1, 31):
            lhs = family(n + 1, x)
            rhs = (2.0 * n / x) * family(n, x) - family(n - 1, x)
            scale = max(abs(lhs), abs((2.0 * n / x) * family(n, x)), abs(family(n - 1, x)))
            assert abs(lhs - rhs) <= 1e-9 * scale


def test_cyl_derivative_examples():
    assert cyl_derivative("J", 0, 2.40483) == pytest.approx(-oracle_j(1, 2.40483), rel=1e-10)
    assert cyl_derivative("K", 0, 1.0) == pytest.approx(-oracle_k1(1.0), rel=1e-10)
    # recurrence value equals a central finite difference
    x, h = 3.3, 1e-6
    fd = (bessel_j(2, x + h) - bessel_j(2, x - h)) / (2 * h)
    assert cyl_derivative("J", 2, x) == pytest.approx(fd, abs=1e-6)
    fdk = (bessel_k(3, x + h) - bessel_k(3, x - h)) / (2 * h)
    assert cyl_derivative("K", 3, x) == pytest.approx(fdk, abs=1e-6)
    fdh = (hankel1(1, x + h) - hankel1(1, x - h)) / (2 * h)
    assert cyl_derivative("H1", 1, x) == pytest.approx(fdh, abs=1e-6)


@pytest.mark.parametrize("n", [0, 1])
def test_order01_entry_points_match_general_order(n):
    """Orders 0 and 1 use the order-specific ufuncs; they agree with jv/yv/iv/kv.

    J and Y oscillate through zeros, so their error is taken relative to the
    larger of |f| and the envelope sqrt(2 / (pi x)).
    """
    x = np.logspace(-3, np.log10(500.0), 20001)
    envelope = np.sqrt(2.0 / (np.pi * x))
    cases = ((bessel_j, sp.jv, envelope), (bessel_y, sp.yv, envelope),
             (bessel_i, sp.iv, 0.0), (bessel_k, sp.kv, 0.0))
    for ours, general, floor in cases:
        reference = general(n, x)
        error = np.abs(ours(n, x) - reference) / np.maximum(np.abs(reference), floor)
        assert error.max() < 1e-13, (ours.__name__, float(error.max()))


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(201, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, 501.0)
    with pytest.raises(ValueError):
        bessel_j(0, -0.1)
    with pytest.raises(ValueError):
        bessel_y(0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(0, 0.0)
    with pytest.raises(ValueError):
        cyl_derivative("Q", 0, 1.0)
