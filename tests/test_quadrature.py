"""Quadrature rules against closed-form oracles."""

import math

import numpy as np
import pytest

from qdtau.quadrature import (
    PANELS_PER_CALL,
    QuadratureError,
    adaptive_line,
    jacobi_rule,
    legendre_rule,
    spine_integral,
)

PAIRS = [(-0.5, -0.5), (0.5, 0.5), (-0.5, 0.5), (0.5, -0.5)]


def _gamma_rational(x2):
    """Gamma(x2/2) as (rational, halfpi_flag): the flag marks one factor
    of sqrt(pi).  Only positive integer and half-integer arguments."""
    from fractions import Fraction

    if x2 % 2 == 0:
        return Fraction(math.factorial(x2 // 2 - 1)), 0
    n = (x2 - 1) // 2  # Gamma(n + 1/2)
    return Fraction(math.factorial(2 * n), 4**n * math.factorial(n)), 1


def beta_moment(alpha, beta, m):
    """integral of (1-t)^alpha (1+t)^beta t^m over [-1,1], via t=2u-1
    and the Euler beta function, in exact rational arithmetic (the
    binomial sum cancels catastrophically in floats)."""
    from fractions import Fraction

    total = Fraction(0)
    for k in range(m + 1):
        num1, p1 = _gamma_rational(int(2 * (beta + k + 1)))
        num2, p2 = _gamma_rational(int(2 * (alpha + 1)))
        den, p3 = _gamma_rational(int(2 * (alpha + beta + k + 2)))
        assert p1 + p2 - p3 == 2  # every case here carries exactly pi
        total += (
            math.comb(m, k) * Fraction(2) ** k * (-1) ** (m - k) * num1 * num2 / den
        )
    return math.pi * float(Fraction(2) ** int(alpha + beta + 1) * total)


@pytest.mark.parametrize("alpha,beta", PAIRS)
def test_jacobi_rule_moments(alpha, beta):
    n = 20
    t, w = jacobi_rule(n, alpha, beta)
    for m in range(13):
        got = float(np.sum(w * t**m))
        want = beta_moment(alpha, beta, m)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want)), (alpha, beta, m)


def test_jacobi_rule_rejects_other_exponents():
    with pytest.raises(ValueError):
        jacobi_rule(8, 0.0, 0.0)


def _bessel_i(nu, x, terms=25):
    # modified Bessel I_nu by its everywhere-convergent series
    total = 0.0
    for k in range(terms):
        total += (x / 2.0) ** (2 * k + nu) / (
            math.factorial(k) * math.factorial(k + nu)
        )
    return total


def test_spine_integral_bessel_oracles():
    i0 = _bessel_i(0, 1.0)
    i1 = _bessel_i(1, 1.0)
    cases = {
        (-0.5, -0.5): math.pi * i0,
        (0.5, 0.5): math.pi * i1,
        (-0.5, 0.5): math.pi * (i0 + i1),
        (0.5, -0.5): math.pi * (i0 - i1),
    }
    for (alpha, beta), want in cases.items():
        val, defect = spine_integral(np.exp, alpha, beta, tol=1e-13)
        assert abs(val - want) < 1e-12 * abs(want)
        assert defect < 1e-12 * abs(want)


def test_spine_integral_escalates_near_singularity():
    # pole just outside the interval; needs the larger rule sizes
    a = 1.05
    want = -math.pi / math.sqrt(a * a - 1.0)
    val, _ = spine_integral(lambda t: 1.0 / (t - a), -0.5, -0.5, tol=1e-12)
    assert abs(val - want) < 1e-10 * abs(want)


def test_spine_integral_agm_period():
    # complete elliptic period of y^2 = x(1-x)(2-x) over [0,1] via
    # x = (1+t)/2, against the arithmetic-geometric mean
    val, _ = spine_integral(
        lambda t: math.sqrt(2.0) / np.sqrt(3.0 - t), -0.5, -0.5, tol=1e-13
    )
    a, b = math.sqrt(2.0), 1.0
    while abs(a - b) > 1e-16 * a:
        a, b = (a + b) / 2.0, math.sqrt(a * b)
    assert abs(val - math.pi / a) < 5e-13
    assert abs(val - 2.6220575542921198) < 5e-12


def test_spine_integral_raises_on_interior_pole():
    with pytest.raises(QuadratureError):
        spine_integral(lambda t: 1.0 / (t - 0.3), -0.5, -0.5, tol=1e-12)


def test_legendre_rule_basics():
    x, w = legendre_rule(24)
    assert abs(np.sum(w) - 2.0) < 1e-14
    assert abs(np.sum(w * x**10) - 2.0 / 11.0) < 1e-14


def test_adaptive_line_exponential():
    val = adaptive_line(np.exp, 0.0, 1.0, tol=1e-12)
    assert abs(val - (math.e - 1.0)) < 1e-12


def test_adaptive_line_closed_contour():
    # circle of radius 1 around 0.3: residue of 1/z inside
    def f(s):
        th = 2.0 * np.pi * s
        z = 0.3 + np.exp(1j * th)
        dz = 2j * np.pi * np.exp(1j * th)
        return dz / z

    val = adaptive_line(f, 0.0, 1.0, tol=1e-11)
    assert abs(val - 2j * math.pi) < 1e-10

    def g(s):
        th = 2.0 * np.pi * s
        z = 0.3 + np.exp(1j * th)
        dz = 2j * np.pi * np.exp(1j * th)
        return dz * z**2

    assert abs(adaptive_line(g, 0.0, 1.0, tol=1e-11)) < 1e-10


def test_adaptive_line_raises_on_interior_pole():
    # pole placed away from panel midpoints so no symmetric cancellation
    with pytest.raises(QuadratureError) as info:
        adaptive_line(lambda s: 1.0 / (s - 0.5301), 0.0, 1.0, tol=1e-11)
    assert math.isfinite(info.value.achieved)


def _panel(f, a, b, n):
    x, w = legendre_rule(n)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    vals = np.asarray(f(mid + half * x), dtype=complex)
    return half * complex(np.sum(w * vals)), abs(half) * float(
        np.sum(np.abs(w) * np.abs(vals))
    )


def recursive_line(f, a=0.0, b=1.0, tol=1e-11, depth=32, _floor=None,
                   _counts=None):
    """Depth-first reference for adaptive_line: one call of f and one
    recursion per panel, same rules and acceptance.  ``_counts``, when
    given, collects the number of panels at each bisection level."""
    if _counts is not None:
        _counts.append(depth)
    coarse, _ = _panel(f, a, b, 24)
    fine, mass = _panel(f, a, b, 48)
    if _floor is None:
        _floor = 1e-13 * mass
    err = abs(fine - coarse)
    accept = max(tol, _floor, 1e-13 * mass)
    if err <= accept or depth == 0:
        if depth == 0 and err > accept:
            raise QuadratureError("contour panel did not converge", err)
        return fine
    mid = (a + b) / 2.0
    left = recursive_line(f, a, mid, tol / 1.9, depth - 1, _floor, _counts)
    right = recursive_line(f, mid, b, tol / 1.9, depth - 1, _floor, _counts)
    return left + right


def _comb(s):
    # 40 poles just off the line keep over 64 panels open in one level
    return sum(1.0 / (s - c - 1e-5j) for c in np.linspace(0.01, 0.99, 40))


PEAKED = {
    "pole-1e-4": lambda s: 1.0 / (s - 0.5 - 1e-4j),
    "two-poles": lambda s: 1.0 / (s - 0.3 - 1e-6j) + 1.0 / (s - 0.7 + 1e-7j),
    "pole-at-end": lambda s: np.exp(3j * s) / (s - 1.0 - 1e-3j) ** 2,
    "comb": _comb,
}


@pytest.mark.parametrize("name", sorted(PEAKED))
def test_adaptive_line_matches_recursive_oracle(name):
    f = PEAKED[name]
    counts = []
    want = recursive_line(f, 0.0, 1.0, tol=1e-11, _counts=counts)
    got = adaptive_line(f, 0.0, 1.0, tol=1e-11)
    assert abs(got - want) <= 1e-14 * abs(want)
    if name == "comb":
        per_level = np.bincount(32 - np.array(counts))
        assert per_level.max() > PANELS_PER_CALL


def test_adaptive_line_calls_are_capped():
    sizes = []

    def f(s):
        sizes.append(np.size(s))
        return _comb(s)

    adaptive_line(f, 0.0, 1.0, tol=1e-11)
    assert max(sizes) == PANELS_PER_CALL * 72


# quad_vec calls the integrand once per point; the comb would take seconds
@pytest.mark.parametrize("name", ["pole-1e-4", "pole-at-end", "two-poles"])
def test_adaptive_line_matches_quad_vec(name):
    integrate = pytest.importorskip("scipy.integrate")
    f = PEAKED[name]
    want, err = integrate.quad_vec(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13,
                                   limit=100000)
    got = adaptive_line(f, 0.0, 1.0, tol=1e-11)
    # within the oracle's own error estimate plus the requested tolerance
    assert abs(got - want) <= err + 1e-11
