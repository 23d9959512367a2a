"""Quadrature rules against closed-form oracles."""

import math

import numpy as np
import pytest

from qdtau.cycles import SPINE_RHO_MIN
from qdtau.quadrature import (
    PANELS_PER_CALL,
    SPINE_SIZES,
    QuadratureError,
    adaptive_line,
    first_rung,
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


@pytest.mark.parametrize("theta", [0.0, 1.2])
def test_spine_rho_min_is_where_the_ladder_settles(theta):
    # the ladder's defect is the error of the rung below the one it
    # settles on, so on 1/(t - z) with z on the Bernstein ellipse of
    # parameter rho it settles at 1e-11 by the 576-point rung for
    # rho = 1.04, and for rho = 1.034 only on a rung above it: either
    # side of the threshold the cycle builder asks of every spine
    def pole(rho):
        z = (rho * np.exp(1j * theta) + np.exp(-1j * theta) / rho) / 2.0
        return lambda t: 1.0 / (t - z)

    assert 1.034 < SPINE_RHO_MIN < 1.04
    rung_576 = SPINE_SIZES.index(576)
    assert _ladder(pole(1.04), tol=1e-11)[2] <= rung_576
    assert _ladder(pole(1.034), tol=1e-11)[2] > rung_576


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


def _ladder(f, start=0, tol=1e-12):
    """(value, defect, index of the rung it settled on) of the ladder
    on f from the given rung."""
    sizes = []

    def g(t):
        sizes.append(len(t))
        return f(t)

    val, defect = spine_integral(g, -0.5, -0.5, tol=tol, start=start)
    assert sizes == list(SPINE_SIZES[start:start + len(sizes)])
    return val, defect, start + len(sizes) - 1


@pytest.mark.parametrize("a", [1.5, 1.1, 1.02, 1.005, 1.001])
def test_started_ladder_is_bit_identical_above_its_start(a):
    # a stack of a pole beside the interval and a smooth component: a
    # ladder started at rung k makes the full ladder's comparisons from
    # rung k + 1 on, so wherever that one settled above k it returns
    # the same value and defect
    def f(t):
        return np.stack([1.0 / (t - a - 0.01j), np.exp(t)])

    full, defect, settled = _ladder(f)
    assert settled >= 1
    for k in range(settled):
        val, got_defect, got_settled = _ladder(f, start=k)
        assert np.array_equal(val, full) and got_defect == defect
        assert got_settled == settled
    if settled < len(SPINE_SIZES) - 1:
        # started at or past its settling rung it is at least as close
        val = _ladder(f, start=settled)[0]
        assert np.abs(val - full).max() <= 1e-10


# ladders of several shapes for the lockstep tests: (integrand, first
# rung); the last never settles, an interior pole on its interval
LADDERS = [
    (lambda t: np.stack([1.0 / (t - 1.02 - 0.01j), np.exp(t)]), 0),
    (lambda t: 1.0 / (t - 1.005), 4),
    (lambda t: np.stack([np.cos(3 * t), t * t, 1.0 / (t + 1.1)]), 2),
    (lambda t: np.exp(2j * t), 0),
    (lambda t: 1.0 / (t - 0.3), 8),
]


def _lockstep(ladders):
    """spine_integral over the ladders in lockstep, each ladder's rule
    sums its values times the rule weights, as one product per ladder;
    also records each ladder's node counts, step by step."""
    sizes = {j: [] for j in range(len(ladders))}

    def g(nodes):
        k = nodes["ladder"]
        edges = [0, *(np.flatnonzero(k[1:] != k[:-1]) + 1).tolist(), len(k)]
        sums = []
        for a, b in zip(edges, edges[1:]):
            f = ladders[k[a]][0]
            sizes[k[a]].append(b - a)
            sums.append(f(np.ascontiguousarray(nodes["t"][a:b]))
                        @ nodes["w"][a:b])
        return sums

    out = spine_integral(g, -0.5, -0.5, tol=1e-12,
                         start=[r for _, r in ladders])
    return out, sizes


def test_lockstep_ladder_is_the_same_alone_or_in_company():
    # each ladder's value, defect and settled rung are bit for bit the
    # same climbing alone, with the others, and with the others in
    # reverse order; each climbs its own rungs from its first
    together, sizes = _lockstep(LADDERS)
    order = list(range(len(LADDERS)))[::-1]
    reverse, _ = _lockstep([LADDERS[j] for j in order])
    for j, (f, start) in enumerate(LADDERS):
        alone, alone_sizes = _lockstep([(f, start)])
        assert alone_sizes[0] == sizes[j]
        assert sizes[j] == list(SPINE_SIZES[start:start + len(sizes[j])])
        for (vals, defects, rungs), at in ((together, j),
                                           (reverse, order.index(j))):
            if alone[0][0] is None:
                assert vals[at] is None
            else:
                assert np.array_equal(vals[at], alone[0][0])
            assert defects[at] == alone[1][0] and rungs[at] == alone[2][0]
    vals, _, rungs = together
    assert vals[-1] is None and rungs[-1] == -1
    assert all(v is not None for v in vals[:-1])
    assert np.abs(vals[1] + math.pi / math.sqrt(1.005 ** 2 - 1.0)) < 1e-9


def test_plain_integrand_is_the_one_ladder_lockstep():
    # spine_integral(g, start=k) is the one-ladder lockstep route whose
    # rule sum is np.sum(w * g(t), axis=-1) over g's values as complex,
    # bit for bit
    for f, start in LADDERS[:-1]:
        vals, defects, rungs = spine_integral(
            lambda nodes: [np.sum(nodes["w"] * f(nodes["t"]).astype(complex),
                                  axis=-1)],
            -0.5, -0.5, tol=1e-12, start=[start])
        val, defect = spine_integral(f, -0.5, -0.5, tol=1e-12, start=start)
        assert np.array_equal(val, vals[0]) and defect == defects[0]
        assert rungs[0] == _ladder(f, start=start)[2]
    with pytest.raises(QuadratureError):
        spine_integral(LADDERS[-1][0], -0.5, -0.5, start=LADDERS[-1][1])


def test_first_rung_predicts_a_settling_rung():
    # 1/(t - a) is analytic inside the Bernstein ellipse through a, of
    # parameter rho = a + sqrt(a^2 - 1); the predicted ladder settles
    # within two rungs of its start, on the closed form
    for a in (3.0, 1.5, 1.1, 1.02, 1.005):
        rho = a + math.sqrt(a * a - 1.0)
        k = first_rung(rho, 1e-12)
        val, _, settled = _ladder(lambda t: 1.0 / (t - a), start=k)
        want = -math.pi / math.sqrt(a * a - 1.0)
        assert abs(val - want) < 1e-11 * abs(want), a
        assert settled <= k + 2, a
    assert first_rung(3.0, 1e-12) == 0
    assert first_rung(math.inf, 1e-11) == 0
    # no rung meets the tolerance: the top two
    assert first_rung(1.0, 1e-11) == len(SPINE_SIZES) - 2
    assert first_rung(1.0 + 1e-9, 1e-11) == len(SPINE_SIZES) - 2
    rhos = np.geomspace(1.001, 10.0, 50)
    starts = [first_rung(r, 1e-11) for r in rhos]
    assert starts == sorted(starts, reverse=True)


def first_rung_by_pow(rho, tol):
    """first_rung as a loop over the sizes, each tested in Python's
    pow."""
    fits = [k for k, n in enumerate(SPINE_SIZES) if rho ** (-2.0 * n) <= tol]
    return max(fits[0] - 1, 0) if fits else len(SPINE_SIZES) - 2


def test_first_rung_over_an_array_is_the_scalar_calls():
    # at tol = rho^(-2n) exactly, in Python's pow, rho fits size n and
    # the float below it does not; rho so near 1 that no size fits takes
    # the top two rungs.  The edges include those where numpy's
    # vectorised power rounds rho^(-2n) above Python's, if any
    near_one = [1.0, math.nextafter(1.0, 2.0), 1.0 + 1e-9, math.inf]
    scan = 1.0 + np.random.default_rng(5).uniform(1e-4, 0.05, 4000)
    vectorised = scan[:, None] ** (-2.0 * np.array(SPINE_SIZES))
    above = [(rho, n) for rho, row in zip(scan.tolist(), vectorised.tolist())
             for n, v in zip(SPINE_SIZES, row) if v > rho ** (-2.0 * n)]
    cases = [(1.05, 356), (1.0166, 2440), (1.3, 12)] + above[:40]
    for rho, n in cases:
        tol = rho ** (-2.0 * n)
        rhos = near_one + [rho, math.nextafter(rho, 0.0),
                           math.nextafter(rho, math.inf), 1.02, 3.0]
        want = [first_rung_by_pow(r, tol) for r in rhos]
        assert first_rung(np.array(rhos), tol).tolist() == want, (rho, n)
        assert [first_rung(r, tol) for r in rhos] == want, (rho, n)
        k = SPINE_SIZES.index(n)
        assert want[4:6] == [max(k - 1, 0), min(k, len(SPINE_SIZES) - 2)]
        assert want[:4] == [len(SPINE_SIZES) - 2] * 3 + [0]


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
    return half * np.sum(w * vals, axis=-1), abs(half) * np.sum(
        np.abs(w) * np.abs(vals), axis=-1
    )


def recursive_line(f, a=0.0, b=1.0, tol=1e-11, depth=32, _floor=None,
                   _counts=None):
    """Depth-first reference for adaptive_line: one call of f and one
    recursion per panel, same rules and acceptance.  A stacked (k, npts)
    integrand is accepted per component, each against its own mass
    floors, and a panel closes when every component accepts.
    ``_counts``, when given, collects the number of panels at each
    bisection level."""
    if _counts is not None:
        _counts.append(depth)
    coarse, _ = _panel(f, a, b, 24)
    fine, mass = _panel(f, a, b, 48)
    if _floor is None:
        _floor = 1e-13 * mass
    err = np.abs(fine - coarse)
    accept = np.maximum(np.fmax(tol, _floor), 1e-13 * mass)
    ok = err <= accept
    if np.all(ok) or depth == 0:
        if not np.all(ok):
            raise QuadratureError("contour panel did not converge",
                                  float(np.max(err)))
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


def _stacked(*fs):
    return lambda s: np.stack([f(s) for f in fs])


def test_adaptive_line_stacked_matches_recursive_oracle():
    f = _stacked(PEAKED["pole-1e-4"], PEAKED["two-poles"], np.exp)
    want = recursive_line(f, 0.0, 1.0, tol=1e-11)
    got = adaptive_line(f, 0.0, 1.0, tol=1e-11)
    assert got.shape == (3,)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_adaptive_line_stacked_components_keep_their_trees():
    # a component alone gets exactly its scalar value when the others
    # need no finer panels than it does
    f = PEAKED["two-poles"]
    same = adaptive_line(_stacked(f, f), 0.0, 1.0, tol=1e-11)
    alone = adaptive_line(f, 0.0, 1.0, tol=1e-11)
    assert same[0] == alone and same[1] == alone
    with_smooth = adaptive_line(_stacked(f, np.exp), 0.0, 1.0, tol=1e-11)
    assert with_smooth[0] == alone
    # the smooth one rides on the finer tree and stays as accurate
    assert abs(with_smooth[1] - (math.e - 1.0)) < 1e-13


def test_adaptive_line_stacked_raises_if_any_component_fails():
    f = _stacked(np.exp, lambda s: 1.0 / (s - 0.5301))
    with pytest.raises(QuadratureError):
        adaptive_line(f, 0.0, 1.0, tol=1e-11)


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
