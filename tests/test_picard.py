import random
from fractions import Fraction

import pytest

from qdtau import picard


def brute_force_labels(g, n):
    # independent enumeration of the free generators
    labels = ["phi", "lambda"] + [f"psi{i}" for i in range(1, n + 1)]
    labels.append("delta_irr")
    for j in range(0, g // 2 + 1):
        for k in range(0, n + 1):
            if 2 * j + k > 2 and 2 * j + k < 2 * g + n - 2:
                labels.append(f"delta_{j}_{k}")
    return labels


def coefficient(cls, label):
    return cls.coeffs[cls.basis.labels.index(label)]


def test_basis_g2_n0():
    b = picard.basis(2, 0)
    assert list(b.labels) == ["phi", "lambda", "delta_irr"]


def test_basis_g0_n5():
    b = picard.basis(0, 5)
    assert list(b.labels) == [
        "phi",
        "lambda",
        "psi1",
        "psi2",
        "psi3",
        "psi4",
        "psi5",
        "delta_irr",
    ]


def test_basis_matches_brute_force_enumeration():
    for g in range(0, 6):
        for n in range(0, 7):
            if 2 * g + n <= 3:
                continue
            b = picard.basis(g, n)
            assert list(b.labels) == brute_force_labels(g, n), (g, n)
            assert len(set(b.labels)) == len(b.labels)


@pytest.mark.parametrize("g,n", [(1, 1), (0, 3), (1, 0), (0, 0)])
def test_unstable_inputs_rejected(g, n):
    with pytest.raises(ValueError):
        picard.basis(g, n)


def test_exact_arithmetic_roundtrip():
    rng = random.Random(7)
    b = picard.basis(2, 3)
    for _ in range(50):
        a = picard.DivisorClass(
            b,
            [
                Fraction(rng.randint(-999, 999), rng.randint(1, 999))
                for _ in range(len(b))
            ],
        )
        c = picard.DivisorClass(
            b,
            [
                Fraction(rng.randint(-999, 999), rng.randint(1, 999))
                for _ in range(len(b))
            ],
        )
        assert (a + c) - c == a
        assert a - a == b.zero()
        assert 3 * a - a - a - a == b.zero()


def test_class_dm_coefficients():
    b = picard.basis(0, 5)
    dm = picard.class_dm(b)
    assert coefficient(dm, "delta_irr") == 1
    assert coefficient(dm, "phi") == 0
    assert coefficient(dm, "lambda") == 0
    # every boundary generator weighted one
    for lab in b.boundary_labels():
        assert coefficient(dm, lab) == 1

    b2 = picard.basis(2, 0)
    assert picard.class_dm(b2) == b2.unit("delta_irr")


def test_delta_inf_from_psi():
    b = picard.basis(0, 5)
    d = picard.delta_inf_from_psi(b)
    assert coefficient(d, "phi") == -5
    for i in range(1, 6):
        assert coefficient(d, f"psi{i}") == 1
    assert coefficient(d, "delta_irr") == 0

    # no marked points: empty sum
    assert picard.delta_inf_from_psi(picard.basis(2, 0)).is_zero()


def test_hodge_prym_phi_coefficient_g2_n1():
    b = picard.basis(2, 1)
    lam, _ = picard.hodge_prym_classes(b, b.zero(), b.zero())
    # (5(g-1)-n)/36 at (2,1)
    assert coefficient(lam, "phi") == Fraction(1, 9)


def test_hodge_prym_linear_response():
    # the formulas are affine in delta0 and delta_inf; probe the slopes
    b = picard.basis(1, 2)
    probe = b.unit("psi1") + 2 * b.unit("phi")
    lam0, prym0 = picard.hodge_prym_classes(b, b.zero(), b.zero())
    lam1, prym1 = picard.hodge_prym_classes(b, probe, b.zero())
    assert lam1 - lam0 == Fraction(1, 72) * probe
    assert prym1 - prym0 == Fraction(13, 72) * probe
    lam2, prym2 = picard.hodge_prym_classes(b, b.zero(), probe)
    assert lam2 - lam0 == Fraction(-1, 18) * probe
    assert prym2 - prym0 == Fraction(5, 18) * probe


def test_hodge_prym_n0_specialization():
    b = picard.basis(3, 0)
    lam, _ = picard.hodge_prym_classes(b, b.zero(), b.zero())
    assert coefficient(lam, "phi") == Fraction(5 * 2, 36)


def principal_kappas(g, n):
    kp = Fraction(20 * (g - 1) - 4 * n, 3)
    km = Fraction(44 * (g - 1) + 20 * n, 3)
    return kp, km


def test_solve_tau_relations_g2_n0():
    lam, prym, delta0 = picard.solve_tau_relations(2, 0, *principal_kappas(2, 0))
    b = lam.basis
    assert lam == b.lam()
    # delta0 = 72 lambda - 10(g-1) phi - 6 delta_irr at n=0
    assert delta0 == 72 * b.lam() - 10 * b.phi() - 6 * b.unit("delta_irr")


def test_solve_matches_closed_form_on_grid():
    for g in range(0, 6):
        for n in range(0, 6):
            if 2 * g + n <= 3:
                continue
            lam, prym, delta0 = picard.solve_tau_relations(
                g, n, *principal_kappas(g, n)
            )
            b = lam.basis
            assert lam == b.lam(), (g, n)
            assert delta0 == picard.class_delta0(b), (g, n)
            t_lam, t_prym = picard.hodge_prym_classes(
                b, delta0, picard.delta_inf_from_psi(b)
            )
            assert t_lam == lam, (g, n)
            assert t_prym == prym, (g, n)


def test_prym_corollary():
    # prym - 13 lambda = delta_inf - delta_DM - (3g-3-n)/2 phi
    for g, n in [(0, 5), (1, 2), (2, 1), (3, 0)]:
        lam, prym, _ = picard.solve_tau_relations(g, n, *principal_kappas(g, n))
        b = lam.basis
        rhs = (
            picard.delta_inf_from_psi(b)
            - picard.class_dm(b)
            - Fraction(3 * g - 3 - n, 2) * b.phi()
        )
        assert prym - 13 * lam == rhs, (g, n)


def test_mumford_chain_closes():
    for g in range(0, 6):
        for n in range(0, 6):
            if 2 * g + n <= 3:
                continue
            report = picard.verify_mumford_chain(picard.basis(g, n))
            for name, residual in report.items():
                assert residual.is_zero(), (g, n, name)


def test_mumford_chain_g3_n0_delta_inf_degenerate():
    # with no poles the degeneration divisor delta_inf is the zero
    # vector and the chain must still close
    b = picard.basis(3, 0)
    assert picard.delta_inf_from_psi(b).is_zero()
    assert all(r.is_zero() for r in picard.verify_mumford_chain(b).values())


def test_serialization_roundtrip():
    rng = random.Random(21)
    b = picard.basis(2, 2)
    for _ in range(20):
        cls = picard.DivisorClass(
            b,
            [
                Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                for _ in range(len(b))
            ],
        )
        data = cls.to_json()
        assert all(isinstance(v, str) for v in data.values())
        assert picard.DivisorClass(
            b, [Fraction(data[lab]) for lab in b.labels]) == cls


def test_serialization_format():
    b = picard.basis(2, 0)
    cls = Fraction(13, 72) * b.lam() + 3 * b.phi()
    data = cls.to_json()
    assert data["lambda"] == "13/72"
    assert data["phi"] == "3"
    assert data["delta_irr"] == "0"

