"""Divisor-class arithmetic on the rational Picard group of the moduli
space of quadratic differentials with n simple poles on genus-g curves.

Everything here is exact: coefficients live in ``fractions.Fraction``,
and every class is a closed form in the generators.  The free
generators are the tautological class phi (hyperplane class of the
projectivization), the Hodge class lambda, the psi-classes at the
marked poles, and the Deligne-Mumford boundary divisors delta_irr and
delta_{j,k}.  The degeneration divisors delta0 (multiple zeros) and
delta_inf (a zero colliding with a pole) are *not* free generators;
they are carried around as derived vectors.
"""

from __future__ import annotations

from fractions import Fraction

from .strata import principal_kappa

Rat = Fraction


def _boundary_pairs(g: int, n: int):
    """Index pairs (j, k) of the reducible boundary divisors.

    A divisor delta_{j,k} splits off a genus-j component carrying k of
    the marked points; the constraint 2 < 2j+k < 2g+n-2 removes the
    unstable splittings.
    """
    pairs = []
    for j in range(g // 2 + 1):
        for k in range(n + 1):
            if 2 < 2 * j + k < 2 * g + n - 2:
                pairs.append((j, k))
    return pairs


class GeneratorBasis:
    """Ordered free generators of Pic ⊗ Q for fixed (g, n)."""

    def __init__(self, g: int, n: int):
        if g < 0 or n < 0 or 2 * g + n <= 3:
            raise ValueError(f"unstable moduli space: g={g}, n={n}")
        self.g = g
        self.n = n
        labels = ["phi", "lambda"]
        labels += [f"psi{i}" for i in range(1, n + 1)]
        labels.append("delta_irr")
        labels += [f"delta_{j}_{k}" for j, k in _boundary_pairs(g, n)]
        assert len(set(labels)) == len(labels)
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(labels)}

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return (
            isinstance(other, GeneratorBasis)
            and self.g == other.g
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.g, self.n))

    def __repr__(self):
        return f"GeneratorBasis(g={self.g}, n={self.n}, size={len(self)})"

    def zero(self) -> "DivisorClass":
        return DivisorClass(self, [Rat(0)] * len(self))

    def unit(self, label: str) -> "DivisorClass":
        coeffs = [Rat(0)] * len(self)
        coeffs[self._index[label]] = Rat(1)
        return DivisorClass(self, coeffs)

    def phi(self):
        return self.unit("phi")

    def lam(self):
        return self.unit("lambda")

    def psi(self, i: int):
        return self.unit(f"psi{i}")

    def psi_sum(self) -> "DivisorClass":
        out = self.zero()
        for i in range(1, self.n + 1):
            out = out + self.psi(i)
        return out

    def boundary_labels(self):
        return [lab for lab in self.labels if lab.startswith("delta")]


class DivisorClass:
    """A rational divisor class, stored as exact coefficients over a
    GeneratorBasis."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: GeneratorBasis, coeffs):
        coeffs = [Rat(c) for c in coeffs]
        if len(coeffs) != len(basis):
            raise ValueError("coefficient count does not match basis")
        self.basis = basis
        self.coeffs = coeffs

    def _check(self, other):
        if self.basis != other.basis:
            raise ValueError("basis mismatch")

    def __add__(self, other):
        self._check(other)
        return DivisorClass(
            self.basis, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        self._check(other)
        return DivisorClass(
            self.basis, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return DivisorClass(self.basis, [-a for a in self.coeffs])

    def __mul__(self, scalar):
        s = Rat(scalar)
        return DivisorClass(self.basis, [s * a for a in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, DivisorClass)
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_json(self) -> dict:
        """Serialize as {generator-label: "p/q"} in canonical order."""
        return {lab: str(c) for lab, c in zip(self.basis.labels, self.coeffs)}

    def __repr__(self):
        terms = [
            f"{c}*{lab}"
            for lab, c in zip(self.basis.labels, self.coeffs)
            if c != 0
        ]
        return " + ".join(terms) if terms else "0"


def basis(g: int, n: int) -> GeneratorBasis:
    return GeneratorBasis(g, n)


def class_dm(b: GeneratorBasis) -> DivisorClass:
    """Total Deligne-Mumford boundary: delta_irr plus every delta_{j,k},
    all with weight one."""
    out = b.zero()
    for lab in b.boundary_labels():
        out = out + b.unit(lab)
    return out


def delta_inf_from_psi(b: GeneratorBasis) -> DivisorClass:
    """The zero-meets-pole degeneration divisor: -n*phi + sum of psi_i."""
    return b.psi_sum() - Rat(b.n) * b.phi()


def class_delta0(b: GeneratorBasis) -> DivisorClass:
    """The multiple-zero degeneration divisor, expanded over the free
    generators: 72*lambda + 4*sum(psi) - (10(g-1)+2n)*phi - 6*delta_DM."""
    g, n = b.g, b.n
    return (
        72 * b.lam()
        + 4 * b.psi_sum()
        - Rat(10 * (g - 1) + 2 * n) * b.phi()
        - 6 * class_dm(b)
    )


def hodge_prym_classes(
    b: GeneratorBasis, delta0: DivisorClass, delta_inf: DivisorClass
):
    """Hodge and Prym classes from the two degeneration divisors.

    lambda  = (5(g-1)-n)/36 phi + 1/72 delta0 - 1/18 delta_inf + 1/12 delta_DM
    lambdaP = (11(g-1)+5n)/36 phi + 13/72 delta0 + 5/18 delta_inf + 1/12 delta_DM
    """
    if delta0.basis != b or delta_inf.basis != b:
        raise ValueError("basis mismatch")
    g, n = b.g, b.n
    dm = class_dm(b)
    lam = (
        Rat(5 * (g - 1) - n, 36) * b.phi()
        + Rat(1, 72) * delta0
        - Rat(1, 18) * delta_inf
        + Rat(1, 12) * dm
    )
    prym = (
        Rat(11 * (g - 1) + 5 * n, 36) * b.phi()
        + Rat(13, 72) * delta0
        + Rat(5, 18) * delta_inf
        + Rat(1, 12) * dm
    )
    return lam, prym


# Vanishing orders of tau_+^3 and tau_-^3 on (delta0, delta_inf, delta_DM),
# the oX+ and oX- of solve_tau_relations' identities.
ORDERS_PLUS = (2, -8, 12)
ORDERS_MINUS = (26, 40, 12)


def solve_tau_relations(g: int, n: int, kappa_plus, kappa_minus):
    """Recover (lambda, lambda_Prym, delta0) from the divisor classes of
    the two tau functions.

    The cube of each tau function is a holomorphic section vanishing on
    the three degeneration divisors with the orders ORDERS_PLUS and
    ORDERS_MINUS, and its divisor class is 48*L - kappa*phi where L is
    the corresponding Hodge-type class.  Dividing the orders by three
    gives the two linear identities

        48 lambda  - kappa_plus  phi = o0+/3 delta0 + oInf+/3 delta_inf + oDM+/3 delta_DM
        48 lambdaP - kappa_minus phi = o0-/3 delta0 + oInf-/3 delta_inf + oDM-/3 delta_DM

    delta_inf is known from the psi-classes, and lambda is itself a free
    generator, so the system is triangular: the + identity gives delta0,
    and the - identity then gives lambdaP.
    """
    b = GeneratorBasis(g, n)
    lam, phi = b.lam(), b.phi()
    dinf = delta_inf_from_psi(b)
    dm = class_dm(b)
    o0p, oinfp, odmp = (Rat(o, 3) for o in ORDERS_PLUS)
    o0m, oinfm, odmm = (Rat(o, 3) for o in ORDERS_MINUS)
    delta0 = (1 / o0p) * (
        48 * lam - kappa_plus * phi - oinfp * dinf - odmp * dm
    )
    prym = Rat(1, 48) * (
        kappa_minus * phi + o0m * delta0 + oinfm * dinf + odmm * dm
    )
    return lam, prym, delta0


def class_lambda2(b: GeneratorBasis, prym: DivisorClass) -> DivisorClass:
    """Determinant class of the second-power pushforward:
    lambda_2 = lambda_Prym + (3g-3+n)/2 phi."""
    return prym + Rat(3 * b.g - 3 + b.n, 2) * b.phi()


def verify_mumford_chain(b: GeneratorBasis) -> dict:
    """Cross-check the derived classes against the classical relations.

    Returns {identity-name: residual DivisorClass}; every residual must
    be exactly zero.
    """
    delta0 = class_delta0(b)
    dinf = delta_inf_from_psi(b)
    dm = class_dm(b)
    lam, prym = hodge_prym_classes(b, delta0, dinf)
    lam2 = class_lambda2(b, prym)
    g, n = b.g, b.n

    residuals = {
        # the closed-form lambda must collapse onto the free generator itself
        "lambda_self_consistent": lam - b.lam(),
        # lambda2 - 13 lambda = n phi + delta_inf - delta_DM
        "lambda2_vs_degeneration": (
            lam2 - 13 * lam - Rat(n) * b.phi() - dinf + dm
        ),
        # Mumford: lambda2 - 13 lambda = sum(psi) - delta_DM
        "mumford": lam2 - 13 * lam - b.psi_sum() + dm,
        # prym - 13 lambda = delta_inf - delta_DM - (3g-3-n)/2 phi
        "prym_vs_lambda": (
            prym
            - 13 * lam
            - dinf
            + dm
            + Rat(3 * g - 3 - n, 2) * b.phi()
        ),
    }
    return residuals


def verify(g: int, n: int) -> dict:
    """Every exact identity at (g, n): the Mumford chain of
    `verify_mumford_chain` plus the three tau relations, i.e. the
    classes `solve_tau_relations` recovers from the principal kappa
    weights minus their closed forms.  Returns {identity-name: residual
    DivisorClass}; every residual must be exactly zero."""
    b = GeneratorBasis(g, n)
    residuals = verify_mumford_chain(b)
    kp, km = principal_kappa(g, n)
    lam_s, prym_s, delta0_s = solve_tau_relations(g, n, kp, km)
    delta0 = class_delta0(b)
    lam, prym = hodge_prym_classes(b, delta0, delta_inf_from_psi(b))
    residuals["tau_relations_lambda"] = lam_s - lam
    residuals["tau_relations_prym"] = prym_s - prym
    residuals["tau_relations_delta0"] = delta0_s - delta0
    return residuals

