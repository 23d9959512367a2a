"""The acceptance criteria, each defined once.

`REGISTRY` holds one `Criterion` per stated criterion 1-8: its name,
its tier ("quick" criteria run in `qdtau suite`, "full" ones only with
`--full`), its stated runtime budget, and its gated values with their
tolerances.  `qdtau suite`, the per-command gates of the CLI
(`TOLERANCES`) and `tests/test_acceptance.py` all read it.  A value
passes when it is at most its tolerance; exact checks count their
failures against a tolerance of 0.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from . import picard, strata, tau
from .bergman import BergmanEvaluator
from .cover_homology import random_symplectic
from .curves import QDConfigG0, hyperelliptic_model
from .cycles import GeometryError, build_cycles_robust
from .periods import PeriodEngine, v_numerator
from .quadrature import QuadratureError

# the reference five-pole configuration and its cut pairing
REF = QDConfigG0(zeros=[0.0], poles=[1.0, -1.0, 2.0, -2.0, 0.5],
                 pairing=[(4, 2), (0, 5), (1, 3)])

# (g, n) cells of criterion 1 and of the kappa table of criterion 2
PICARD_CELLS = tuple((g, n) for g in range(6) for n in range(1, 6)
                     if 2 * g + n > 3)
KAPPA_CELLS = tuple((g, n) for g in range(11) for n in range(1, 11)
                    if 2 * g + n > 3)

# exact (kappa_plus, kappa_minus) of the principal five-pole stratum and
# (gamma_plus, gamma_minus) of the two collisions
EXPONENT_TABLE = {
    "principal-0-5": (Fraction(-40, 3), Fraction(56, 3)),
    "zero-pole": (Fraction(-8, 3), Fraction(40, 3)),
    "zero-zero": (Fraction(2, 3), Fraction(26, 3)),
}


def pole_path(config):
    """The basis-change path s -> config with its last pole moved by 0.2 s."""
    *rest, last = config.poles
    return lambda s: replace(config, poles=(*rest, last + 0.2 * s))


ref_pole_path = pole_path(REF)


def gate(name, value, tolerance) -> dict:
    """One report entry: the value passes when it is <= the tolerance."""
    value = float(value)
    return {"name": name, "value": value, "tolerance": tolerance,
            "passed": bool(value <= tolerance)}


def _exact_picard_suite():
    bad = [cell for cell in PICARD_CELLS
           if not all(r.is_zero() for r in picard.verify(*cell).values())]
    return {"picard_identities": len(bad)}


def _kappa_consistency():
    bad = [cell for cell in KAPPA_CELLS
           if strata.kappa(strata.principal_signature(*cell))
           != strata.principal_kappa(*cell)]
    table = {"principal-0-5": strata.principal_kappa(0, 5),
             "zero-pole": strata.collision_exponents("zero-pole"),
             "zero-zero": strata.collision_exponents("zero-zero")}
    return {"kappa_consistency": len(bad),
            "kappa_exponent_table": sum(table[k] != v
                                        for k, v in EXPONENT_TABLE.items())}


def _period_engine():
    # y^2 = x(x-1)(x-2): the period of dx/y around [0, 1] is
    # 2 pi / agm(sqrt 2, 1).  x = -1 + 1/u maps the curve onto
    # yhat^2 = u(u - 1/3)(u - 1/2)(u - 1), with dx/y = -du/(sqrt(-6) yhat),
    # and [0, 1] onto the loop around cut 1, [1/2, 1]
    cycles = build_cycles_robust(
        hyperelliptic_model([0.0, 1.0 / 3.0, 0.5, 1.0]))
    pe = PeriodEngine(cycles)
    per = pe.frame_poly([1.0]) @ pe.loop_period(cycles.loop_index("cut", 1))
    a, b = math.sqrt(2.0), 1.0
    for _ in range(64):
        a, b = 0.5 * (a + b), math.sqrt(a * b)

    def omega_diagnostics(cfg):
        # Omega's asymmetry before normalized_basis symmetrizes it, and
        # the least eigenvalue of Im Omega
        engine = PeriodEngine.for_config(cfg)
        engine.normalized_basis()
        return float(engine.omega_defect), engine.omega_imag_min_eig

    diagnostics = []
    rng = np.random.default_rng(404)
    attempts = 0
    while len(diagnostics) < 50 and attempts < 400:
        attempts += 1
        pts = rng.uniform(-2.5, 2.5, (6, 2)) @ np.array([1, 1j])
        if min(abs(p - q) for i, p in enumerate(pts)
               for q in pts[:i]) < 0.25:
            continue
        try:
            diagnostics.append(omega_diagnostics(
                QDConfigG0(zeros=[pts[0]], poles=list(pts[1:]))))
        except (GeometryError, QuadratureError):
            continue
    missing = 50 - len(diagnostics)
    diagnostics.append(omega_diagnostics(REF))
    defects, min_eigs = zip(*diagnostics)
    return {
        "elliptic_agm_cross_check": abs(abs(per) / math.sqrt(6.0)
                                        - 2.0 * math.pi / a),
        "random_configs_missing": missing,
        "omega_symmetric": max(defects),
        "omega_imag_positive": 0.0 if min(min_eigs) > 0 else math.inf,
    }


def fd_schwarzian(be, x, sheet, h=0.02):
    """The kernel's projective connection at x as its diagonal limit:
    3 (Bhat(x, x + e) - 1/e^2) summed over e = +-h, Richardson in h^2."""
    def v(hh):
        return 3.0 * sum(be.bhat_coeff(x, sheet, x + e, sheet) - 1.0 / hh**2
                         for e in (hh, -hh))
    return (4.0 * v(h / 2) - v(h)) / 3.0


def _bergman_identities():
    be = BergmanEvaluator(PeriodEngine.for_config(REF))
    rng = np.random.default_rng(21)
    worst = 0.0
    npair = 0
    while npair < 100:
        x = complex(rng.normal() * 2.5, rng.normal() * 2.5)
        w = complex(rng.normal() * 2.5, rng.normal() * 2.5)
        if abs(x - w) < 0.1:
            continue
        sx = 1 if rng.random() < 0.5 else -1
        sw = 1 if rng.random() < 0.5 else -1
        npair += 1
        # summed over the sheets of w, the kernel is dx dw / (x - w)^2
        tot = be.bhat_coeff(x, sx, w, sw) + be.bhat_coeff(x, sx, w, -sw)
        worst = max(worst, abs(tot * (x - w) ** 2 - 1.0))
    points = (0.3 + 0.9j, -1.4 + 0.6j, 2.2 - 1.3j)
    return {
        "bergman_pullback": worst,
        "alpha_residual": max(abs(be.alpha_residual(x, k)) for x in points
                              for k in range(be.N.shape[0])),
        "correction_defect": be.correction_defect,
        # the closed form -6 t(x) against the kernel's diagonal limit
        "projective_connection": max(
            abs(fd_schwarzian(be, x, 1) + 6.0 * be.t_coeff(x))
            / max(1.0, abs(6.0 * be.t_coeff(x))) for x in points),
    }


def _homogeneity():
    kp, km = (float(k) for k in strata.principal_kappa(0, REF.n))
    res = tau.scaling_check(REF, pairing=REF.pairing)
    (ep, fp), (em, fm) = res[1], res[-1]
    return {"euler_kappa_plus": abs(ep - kp) / abs(kp),
            "euler_kappa_minus": abs(em - km) / abs(km),
            "scaling_path": max(abs(ep - fp), abs(em - fm))}


def _degeneration_exponents():
    out = {}
    for kind, family in tau.FAMILIES.items():
        exps, _ = tau.degeneration_exponent(family())
        gp, gm = (float(v) for v in strata.collision_exponents(kind))
        out[f"gamma_plus_{kind}"] = abs(exps[1] - gp)
        out[f"gamma_minus_{kind}"] = abs(exps[-1] - gm)
    return {**out, **{f"{k}_tight": v for k, v in out.items()}}


def _flatness_and_modularity():
    def loop(s):
        z1 = 0.1 * cmath.exp(2j * cmath.pi * s)
        return QDConfigG0(zeros=[z1], poles=REF.poles)

    defect = tau.flatness_defect(loop, n_samples=16, pairing=REF.pairing)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(5):
        sig = random_symplectic(2, rng, steps=5)
        worst = max(worst, *tau.basis_change_residual(
            ref_pole_path, 0.0, sig, pairing=REF.pairing))
    return {"flatness_loop": max(defect[1], defect[-1]),
            "basis_change_residual": worst}


def _transversality_constant():
    fam = tau.zero_pole_family()
    worst = 0.0
    for scale, d in ((0.7 - 0.3j, 8e-3), (0.7 - 0.3j, 2e-3),
                     (1.0, fam.schedule[-1])):
        c = fam.config(d)
        pe = PeriodEngine.for_config(QDConfigG0(
            zeros=c.zeros, poles=c.poles, scale=scale, pairing=fam.pairing))
        t_val = (pe.frame_poly(v_numerator(pe.curve.config))
                 @ pe.loop_period(fam.collapsing_loop(pe.cycles)))
        # the colliding zero and pole sit d apart: |t| -> pi sqrt|c| d
        ratio = abs(t_val) / d / (math.pi * math.sqrt(abs(scale)))
        worst = max(worst, abs(ratio - 1.0))
    return {"transversal_t_constant": worst}


# criterion 6's stated tolerances; each value is also gated at 1e-6
# ("_tight"), near the accuracy achieved (at most 3.6e-11, gamma- on
# zero-pole)
GAMMA_STATED = {"gamma_plus_zero-pole": 0.05, "gamma_minus_zero-pole": 0.05,
                "gamma_plus_zero-zero": 0.1, "gamma_minus_zero-zero": 0.1}


@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    tier: str  # "quick" or "full"
    budget_s: float
    tolerances: dict  # value name -> tolerance
    measure: Callable[[], dict]  # () -> {value name: value}

    def run(self) -> list:
        values = self.measure()
        return [gate(name, values[name], tol)
                for name, tol in self.tolerances.items()]


REGISTRY = (
    Criterion(1, "exact picard suite", "quick", 1.0,
              {"picard_identities": 0}, _exact_picard_suite),
    Criterion(2, "kappa consistency", "quick", 1.0,
              {"kappa_consistency": 0, "kappa_exponent_table": 0},
              _kappa_consistency),
    Criterion(3, "period engine", "quick", 60.0,
              {"elliptic_agm_cross_check": 1e-10, "random_configs_missing": 0,
               "omega_symmetric": 1e-8, "omega_imag_positive": 0.0},
              _period_engine),
    Criterion(4, "bergman identities", "quick", 120.0,
              {"bergman_pullback": 1e-6, "alpha_residual": 1e-6,
               "correction_defect": 1e-8, "projective_connection": 1e-6},
              _bergman_identities),
    Criterion(5, "homogeneity", "quick", 120.0,
              {"euler_kappa_plus": 1e-4, "euler_kappa_minus": 1e-4,
               "scaling_path": 1e-6},
              _homogeneity),
    Criterion(6, "degeneration exponents", "full", 900.0,
              {**GAMMA_STATED, **{f"{k}_tight": 1e-6 for k in GAMMA_STATED}},
              _degeneration_exponents),
    Criterion(7, "flatness and modularity", "full", 300.0,
              {"flatness_loop": 1e-4, "basis_change_residual": 1e-4},
              _flatness_and_modularity),
    Criterion(8, "transversality constant", "full", 60.0,
              {"transversal_t_constant": 0.01}, _transversality_constant),
)

TOLERANCES = {name: tol for c in REGISTRY for name, tol in c.tolerances.items()}


def run(full: bool = False) -> list:
    """Report entries of the quick criteria, or of all with full=True."""
    return [entry for c in REGISTRY if full or c.tier == "quick"
            for entry in c.run()]
