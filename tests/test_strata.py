import random
from fractions import Fraction

import pytest

from qdtau import strata


def test_principal_g2_n0():
    sig = strata.principal_signature(2, 0)
    assert sig.orders == (1, 1, 1, 1)
    assert strata.kappa(sig) == (Fraction(20, 3), Fraction(44, 3))


def test_g0_n5():
    sig = strata.StratumSignature(0, (1, -1, -1, -1, -1, -1))
    kp, km = strata.kappa(sig)
    assert kp == Fraction(-40, 3)
    assert km == Fraction(56, 3)


def test_marked_point_contributes_nothing():
    sig = strata.StratumSignature(1, (0,))
    assert strata.kappa(sig) == (Fraction(0), Fraction(0))


def test_signature_validation():
    with pytest.raises(ValueError):
        strata.StratumSignature(0, (1, 1, -1))  # sum is 1, not -4
    with pytest.raises(ValueError):
        strata.StratumSignature(1, (-2, 2))  # order below -1
    assert strata.StratumSignature(0, (2, -1) + (-1,) * 5).n == 6


def test_principal_kappa_closed_form():
    assert strata.principal_kappa(0, 6) == (Fraction(-44, 3), Fraction(76, 3))
    assert strata.principal_kappa(1, 2) == (Fraction(-8, 3), Fraction(40, 3))
    with pytest.raises(ValueError):
        strata.principal_kappa(1, 1)


def test_principal_kappa_matches_signature_sum():
    for g in range(0, 11):
        for n in range(0, 11):
            if 2 * g + n <= 3:
                continue
            sig = strata.principal_signature(g, n)
            assert strata.kappa(sig) == strata.principal_kappa(g, n), (g, n)


def random_signature(rng):
    # build a valid multiset by adding orders then fixing the sum with
    # simple zeros / poles on a suitable genus
    orders = [rng.choice([-1, 0, 1, 2, 3, 4, 5, 7]) for _ in range(rng.randint(1, 9))]
    total = sum(orders)
    # pad with simple zeros until total ≡ 0 mod 4 and nonnegative
    while total % 4 != 0 or total < -4:
        orders.append(1)
        total += 1
    g = total // 4 + 1
    return strata.StratumSignature(g, tuple(orders))


def test_kappa_difference_identity():
    rng = random.Random(11)
    for _ in range(1000):
        sig = random_signature(rng)
        kp, km = strata.kappa(sig)
        expected = 6 * sum(
            Fraction(1, d + 2) for d in sig.orders if d % 2 != 0
        )
        assert km - kp == expected


def test_kappa_additive_over_orders():
    rng = random.Random(13)
    for _ in range(200):
        orders = tuple(rng.choice([-1, 0, 1, 2, 3, 6]) for _ in range(6))
        d = rng.choice([-1, 1, 2, 5])
        kp0, km0 = strata.kappa_orders(orders)
        kp1, km1 = strata.kappa_orders(orders + (d,))
        tp, tm = strata.kappa_orders((d,))
        assert kp1 - kp0 == tp
        assert km1 - km0 == tm


def test_collision_shifts():
    assert strata.collision_kappa_shift("zero-pole") == (
        Fraction(-4, 3),
        Fraction(20, 3),
    )
    assert strata.collision_kappa_shift("zero-zero") == (
        Fraction(1, 3),
        Fraction(13, 3),
    )
    with pytest.raises(ValueError):
        strata.collision_kappa_shift("pole-pole")


def test_collision_exponents():
    assert strata.collision_exponents("zero-pole") == (
        Fraction(-8, 3),
        Fraction(40, 3),
    )
    assert strata.collision_exponents("zero-zero") == (
        Fraction(2, 3),
        Fraction(26, 3),
    )
    assert strata.T_WEIGHT == Fraction(1, 2)


def test_zero_pole_shift_matches_principal_strata():
    # colliding a zero with a pole on the principal stratum lands in the
    # stratum with one marked ordinary point; the kappa difference must
    # equal the tabulated shift for every (g, n)
    for g in range(0, 6):
        for n in range(1, 7):
            if 2 * g + n <= 3:
                continue
            m = 4 * g - 4 + n
            if m < 1:
                continue
            before = strata.StratumSignature(g, (1,) * m + (-1,) * n)
            after = strata.StratumSignature(
                g, (1,) * (m - 1) + (0,) + (-1,) * (n - 1)
            )
            kb = strata.kappa(before)
            ka = strata.kappa(after)
            assert (kb[0] - ka[0], kb[1] - ka[1]) == strata.collision_kappa_shift(
                "zero-pole"
            ), (g, n)
