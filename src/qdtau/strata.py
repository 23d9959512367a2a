"""Stratum combinatorics for quadratic differentials.

A stratum is described by the multiset of zero/pole orders d_i >= -1
(simple poles are -1, marked ordinary points 0) with sum 4g-4.  The two
tau functions scale along the C*-action with exact rational exponents
kappa_plus/kappa_minus computed here, and collisions of singular points
shift those exponents by computable rational amounts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# homogeneity weight of the transversal coordinate at a collision
T_WEIGHT = Fraction(1, 2)


@dataclass(frozen=True)
class StratumSignature:
    g: int
    orders: tuple

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(d) for d in self.orders))
        if self.g < 0:
            raise ValueError("genus must be nonnegative")
        if any(d < -1 for d in self.orders):
            raise ValueError("orders below -1 are not quadratic-differential strata")
        if sum(self.orders) != 4 * self.g - 4:
            raise ValueError(
                f"order sum {sum(self.orders)} != 4g-4 = {4 * self.g - 4}"
            )

    @property
    def n(self) -> int:
        """Number of simple poles."""
        return sum(1 for d in self.orders if d == -1)


def kappa_orders(orders):
    """Homogeneity exponents from a bare order multiset (no genus
    bookkeeping): each order d contributes d(d+4)/(d+2) to kappa_plus,
    and odd orders additionally 6/(d+2) to the difference."""
    kp = Fraction(0)
    diff = Fraction(0)
    for d in orders:
        kp += Fraction(d * (d + 4), d + 2)
        if d % 2 != 0:
            diff += Fraction(6, d + 2)
    return kp, kp + diff


def kappa(sig: StratumSignature):
    return kappa_orders(sig.orders)


def principal_signature(g: int, n: int) -> StratumSignature:
    """The open stratum: 4g-4+n simple zeros and n simple poles."""
    if 2 * g + n <= 3:
        raise ValueError(f"unstable moduli space: g={g}, n={n}")
    return StratumSignature(g, (1,) * (4 * g - 4 + n) + (-1,) * n)


def principal_kappa(g: int, n: int):
    """Closed form of kappa on the principal stratum."""
    if 2 * g + n <= 3:
        raise ValueError(f"unstable moduli space: g={g}, n={n}")
    return (
        Fraction(20 * (g - 1) - 4 * n, 3),
        Fraction(44 * (g - 1) + 20 * n, 3),
    )


_COLLISIONS = {
    # a simple zero runs into a simple pole, leaving a marked point
    "zero-pole": ((1, -1), (0,)),
    # two simple zeros merge into a double zero
    "zero-zero": ((1, 1), (2,)),
}


def collision_kappa_shift(kind: str):
    """Exact drop of (kappa_plus, kappa_minus) across a collision:
    exponents of the colliding stratum minus those of its boundary."""
    try:
        before, after = _COLLISIONS[kind]
    except KeyError:
        raise ValueError(f"unknown collision kind: {kind!r}") from None
    kb = kappa_orders(before)
    ka = kappa_orders(after)
    return kb[0] - ka[0], kb[1] - ka[1]


def collision_exponents(kind: str):
    """Vanishing orders (gamma_plus, gamma_minus) of the tau functions
    in the transversal coordinate t of a collision; t carries
    homogeneity weight 1/2, so gamma = delta-kappa / (1/2)."""
    dkp, dkm = collision_kappa_shift(kind)
    return dkp / T_WEIGHT, dkm / T_WEIGHT
