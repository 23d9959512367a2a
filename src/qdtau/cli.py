"""Command-line front end: JSON/CSV reports and the acceptance driver.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 input
error, 3 could not compute (a geometry, quadrature or linear-algebra
failure, reported as JSON with the error's class and message).
Reports are JSON with sorted keys so identical inputs and seeds produce
identical bytes; exact rationals are serialized as "p/q" strings,
complex numbers as [re, im] pairs.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import sys

import numpy as np

from . import picard, strata, tau
from .bergman import BergmanEvaluator
from .cover_homology import is_symplectic, random_symplectic
from .curves import QDConfigG0, build_cover, hyperelliptic_model
from .cycles import GeometryError, build_cycles_robust
from .periods import PeriodEngine, holo_diff
from .quadrature import QuadratureError

SCHEMA = "qdtau-report/1"


class InputError(Exception):
    pass


def _cj(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _parse_complex(v):
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, (int, float)):
        return complex(v)
    raise InputError(f"expected [re, im] pair, got {v!r}")


def load_config(path: str) -> QDConfigG0:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from None
    try:
        zeros = [_parse_complex(z) for z in raw["zeros"]]
        poles = [_parse_complex(p) for p in raw["poles"]]
    except KeyError as exc:
        raise InputError(f"config missing field {exc}") from None
    scale = _parse_complex(raw.get("scale", 1.0))
    tol = float(raw.get("tolerance", 1e-10))
    pairing = raw.get("pairing")
    if pairing is not None:
        pairing = [tuple(int(i) for i in pr) for pr in pairing]
    try:
        return QDConfigG0(zeros=zeros, poles=poles, scale=scale,
                          tolerance=tol, pairing=pairing)
    except (ValueError, TypeError) as exc:
        raise InputError(f"invalid configuration: {exc}") from None


def _engine(config: QDConfigG0):
    curve = build_cover(config)
    cycles = build_cycles_robust(curve, pairing=config.pairing)
    return PeriodEngine(cycles, tol=config.tolerance)


def _check(name, value, tolerance):
    return {
        "name": name,
        "value": value,
        "tolerance": tolerance,
        "passed": bool(value <= tolerance),
    }


def emit(report: dict, out: str = None) -> int:
    report["schema"] = SCHEMA
    report["passed"] = all(c["passed"] for c in report.get("checks", []))
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------- picard

def cmd_picard(args) -> int:
    g, n = args.genus, args.n
    if g < 0 or n < 1 or (g, n) == (0, 1):
        raise InputError(f"no stratum at genus {g} with {n} poles")
    b = picard.basis(g, n)
    if args.action == "classes":
        delta0 = picard.class_delta0(b)
        dinf = picard.delta_inf_from_psi(b)
        lam, prym = picard.hodge_prym_classes(b, delta0, dinf)
        report = {
            "command": "picard classes",
            "inputs": {"genus": g, "n": n},
            "results": {
                "lambda": lam.to_json(),
                "lambda_prym": prym.to_json(),
                "lambda2": picard.class_lambda2(b, prym).to_json(),
                "delta0": delta0.to_json(),
                "delta_inf": dinf.to_json(),
                "delta_dm": picard.class_dm(b).to_json(),
            },
            "checks": [],
        }
        return emit(report, args.out)

    residuals = picard.verify_mumford_chain(b)
    kp, km = strata.principal_kappa(g, n)
    lam_s, prym_s, delta0_s = picard.solve_tau_relations(g, n, kp, km)
    delta0 = picard.class_delta0(b)
    dinf = picard.delta_inf_from_psi(b)
    lam_t, prym_t = picard.hodge_prym_classes(b, delta0, dinf)
    residuals["tau_relations_lambda"] = lam_s - lam_t
    residuals["tau_relations_prym"] = prym_s - prym_t
    residuals["tau_relations_delta0"] = delta0_s - delta0
    checks = [
        {
            "name": name,
            "value": "0" if r.is_zero() else repr(r),
            "tolerance": "exact",
            "passed": r.is_zero(),
        }
        for name, r in residuals.items()
    ]
    report = {
        "command": "picard verify",
        "inputs": {"genus": g, "n": n},
        "results": {name: c["value"] for name, c in
                    zip(residuals, checks)},
        "checks": checks,
    }
    return emit(report, args.out)


# ----------------------------------------------------------------- kappa

def cmd_kappa(args) -> int:
    try:
        orders = tuple(int(t) for t in args.signature.split(","))
    except ValueError:
        raise InputError(f"bad signature string: {args.signature!r}")
    try:
        sig = strata.StratumSignature(args.genus, orders)
    except ValueError as exc:
        raise InputError(str(exc))
    kp, km = strata.kappa(sig)
    report = {
        "command": "kappa",
        "inputs": {"genus": args.genus, "signature": list(orders)},
        "results": {"kappa_plus": str(kp), "kappa_minus": str(km)},
        "checks": [],
    }
    return emit(report, args.out)


# --------------------------------------------------------------- periods

def cmd_periods(args) -> int:
    config = load_config(args.config)
    pe = _engine(config)
    nmat, omega = pe.normalized_basis()
    ca, cb = pe.homological_coordinates()
    coords = list(ca) + list(cb)
    sym = float(np.abs(omega - omega.T).max())
    eigs = np.linalg.eigvalsh(omega.imag)
    report = {
        "command": "periods",
        "inputs": {
            "zeros": [_cj(z) for z in config.zeros],
            "poles": [_cj(p) for p in config.poles],
            "scale": _cj(config.scale),
            "tolerance": config.tolerance,
        },
        "results": {
            "genus": int(omega.shape[0]),
            "omega_minus": [[_cj(v) for v in row] for row in omega],
            "homological_coords": [_cj(v) for v in coords],
        },
        "diagnostics": {
            "omega_symmetry_defect": sym,
            "omega_imag_min_eig": float(eigs.min()),
            "loops": len(pe.cycles.loops),
        },
        "checks": [
            _check("omega_symmetric", sym, 1e-8),
            _check("omega_imag_positive", 0.0 if eigs.min() > 0 else
                   math.inf, 0.0),
        ],
    }
    return emit(report, args.out)


# --------------------------------------------------------------- bergman

def cmd_bergman(args) -> int:
    config = load_config(args.config)

    def probe_pt(s):
        parts = s.strip().split(",")
        if len(parts) != 2:
            raise InputError(f"probe point must be 're,im', got {s!r}")
        return complex(float(parts[0]), float(parts[1]))

    x, w = (probe_pt(s) for s in args.probe)
    be = BergmanEvaluator(_engine(config))
    kernel = complex(be.bhat_coeff(x, 1, w, 1))
    report = {
        "command": "bergman",
        "inputs": {
            "zeros": [_cj(z) for z in config.zeros],
            "poles": [_cj(p) for p in config.poles],
            "scale": _cj(config.scale),
            "probe": [_cj(x), _cj(w)],
        },
        "results": {
            "bhat": _cj(kernel),
            "t_coeff": [_cj(be.t_coeff(x)), _cj(be.t_coeff(w))],
            "s_plus": [0.0, 0.0],
            "s_minus": [_cj(be.s_minus(x)), _cj(be.s_minus(w))],
        },
        "diagnostics": {"correction_defect": float(be.correction_defect)},
        "checks": [
            _check("alpha_normalization", float(be.correction_defect), 1e-8),
        ],
    }
    return emit(report, args.out)


# ------------------------------------------------------------------- tau

_FAMILIES = {"zero-pole": tau.zero_pole_family,
             "zero-zero": tau.zero_zero_family}


def _principal_kappa_of(config: QDConfigG0):
    orders = (1,) * len(config.zeros) + (-1,) * len(config.poles)
    kp, km = strata.kappa(strata.StratumSignature(0, orders))
    return float(kp), float(km)


def cmd_tau_scaling(args) -> int:
    config = load_config(args.config)
    kp, km = _principal_kappa_of(config)
    result = tau.scaling_check(config, pairing=config.pairing)
    (ep, fp), (em, fm) = result[1], result[-1]
    report = {
        "command": "tau scaling",
        "inputs": {
            "zeros": [_cj(z) for z in config.zeros],
            "poles": [_cj(p) for p in config.poles],
            "scale": _cj(config.scale),
        },
        "results": {
            "euler_pairing_plus": _cj(ep),
            "euler_pairing_minus": _cj(em),
            "path_derivative_plus": _cj(fp),
            "path_derivative_minus": _cj(fm),
            "kappa_plus": kp,
            "kappa_minus": km,
        },
        "checks": [
            _check("kappa_plus_match", abs(ep - kp) / abs(kp), 1e-4),
            _check("kappa_minus_match", abs(em - km) / abs(km), 1e-4),
            _check("scaling_path_plus", abs(ep - fp), 1e-6),
            _check("scaling_path_minus", abs(em - fm), 1e-6),
        ],
    }
    return emit(report, args.out)


def _write_degeneration_csv(path, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t_abs", "re_dlogtau_p", "im_dlogtau_p",
                     "re_dlogtau_m", "im_dlogtau_m",
                     "gamma_running_p", "gamma_running_m"])
        for r in rows:
            wr.writerow([repr(float(v)) for v in
                         (abs(r["t"]),
                          r[("dlog", 1)].real, r[("dlog", 1)].imag,
                          r[("dlog", -1)].real, r[("dlog", -1)].imag,
                          r[("gamma", 1)], r[("gamma", -1)])])


def cmd_tau_degenerate(args) -> int:
    if args.kind not in _FAMILIES:
        raise InputError(f"unknown degeneration kind: {args.kind!r}")
    fam = _FAMILIES[args.kind]()
    if args.config:
        base = load_config(args.config)
        mk0 = fam.config
        sc, tol = base.scale, base.tolerance

        def mk(d):
            c = mk0(d)
            return QDConfigG0(zeros=c.zeros, poles=c.poles, scale=sc,
                              tolerance=tol)

        fam = tau.DegenerationFamily(fam.name, mk, fam.pairing, fam.collide,
                                     schedule=fam.schedule)
    gp_t, gm_t = (float(v) for v in strata.collision_exponents(args.kind))
    fit_tol = 0.05 if args.kind == "zero-pole" else 0.1
    exps, rows = tau.degeneration_exponent(fam)
    if args.out:
        _write_degeneration_csv(args.out, rows)
    report = {
        "command": "tau degenerate",
        "inputs": {"kind": args.kind,
                   "schedule": [r["d"] for r in rows]},
        "results": {
            "gamma_plus": exps[1],
            "gamma_minus": exps[-1],
            "target_plus": gp_t,
            "target_minus": gm_t,
            "samples": len(rows),
        },
        "checks": [
            _check("gamma_plus", abs(exps[1] - gp_t), fit_tol),
            _check("gamma_minus", abs(exps[-1] - gm_t), fit_tol),
        ],
    }
    return emit(report)


def cmd_tau_basis_change(args) -> int:
    try:
        with open(args.sigma) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read sigma: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from None
    mat = raw["sigma"] if isinstance(raw, dict) else raw
    sig = np.asarray(mat, dtype=int)
    if sig.shape != (4, 4) or not is_symplectic(sig):
        raise InputError("sigma must be a 4x4 integer symplectic matrix")

    def path(s):
        return QDConfigG0(zeros=[0.0],
                          poles=[1.0, -1.0, 2.0, -2.0, 0.5 + 0.2 * s])

    rp, rm = tau.basis_change_residual(path, 0.0, sig,
                                       pairing=[(4, 2), (0, 5), (1, 3)])
    report = {
        "command": "tau basis-change",
        "inputs": {"sigma": sig.tolist()},
        "results": {"plus_residual": rp, "minus_residual": rm},
        "checks": [
            _check("plus_invariance", rp, 1e-4),
            _check("minus_anomaly", rm, 1e-4),
        ],
    }
    return emit(report, args.out)


# ----------------------------------------------------------------- suite

def _agm(a, b):
    for _ in range(64):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        if abs(a - b) < 1e-16:
            break
    return a


def _suite_quick():
    checks = []

    for g, n in ((0, 5), (1, 2), (2, 1), (3, 2)):
        b = picard.basis(g, n)
        residuals = picard.verify_mumford_chain(b)
        kp, km = strata.principal_kappa(g, n)
        lam_s, prym_s, delta0_s = picard.solve_tau_relations(g, n, kp, km)
        delta0 = picard.class_delta0(b)
        dinf = picard.delta_inf_from_psi(b)
        lam_t, prym_t = picard.hodge_prym_classes(b, delta0, dinf)
        ok = (all(r.is_zero() for r in residuals.values())
              and (lam_s - lam_t).is_zero()
              and (prym_s - prym_t).is_zero()
              and (delta0_s - delta0).is_zero())
        checks.append({"name": f"picard_identities_g{g}_n{n}",
                       "value": 0.0 if ok else math.inf,
                       "tolerance": 0.0, "passed": ok})

    kp, km = strata.principal_kappa(0, 5)
    ok = (kp, km) == (strata.Fraction(-40, 3), strata.Fraction(56, 3))
    for kind, tgt in (("zero-pole", (strata.Fraction(-8, 3),
                                     strata.Fraction(40, 3))),
                      ("zero-zero", (strata.Fraction(2, 3),
                                     strata.Fraction(26, 3)))):
        ok = ok and tuple(strata.collision_exponents(kind)) == tgt
    checks.append({"name": "kappa_exponent_table",
                   "value": 0.0 if ok else math.inf,
                   "tolerance": 0.0, "passed": ok})

    # elliptic AGM cross-check on y^2 = x(x-1)(x-2)
    curve = hyperelliptic_model([0.0, 1.0, 2.0])
    cycles = build_cycles_robust(curve)
    pe = PeriodEngine(cycles)
    per = pe.loop_period(holo_diff(0), cycles.loop_index("cut", 0))
    agm_period = 2.0 * math.pi / _agm(math.sqrt(2.0), 1.0)
    delta = abs(abs(per) - agm_period)
    checks.append(_check("elliptic_agm_cross_check", delta, 1e-10))

    ref = QDConfigG0(zeros=[0.0], poles=[1.0, -1.0, 2.0, -2.0, 0.5],
                     pairing=[(4, 2), (0, 5), (1, 3)])
    pe = _engine(ref)
    _, omega = pe.normalized_basis()
    checks.append(_check("omega_symmetric",
                         float(np.abs(omega - omega.T).max()), 1e-8))
    checks.append(_check(
        "omega_imag_positive",
        0.0 if np.linalg.eigvalsh(omega.imag).min() > 0 else math.inf, 0.0))

    be = BergmanEvaluator(pe)
    rng = np.random.default_rng(2024)
    pts = np.asarray(be.curve.branch_points)
    worst = 0.0
    npair = 0
    while npair < 25:
        x, w = (complex(*rng.uniform(-2.5, 2.5, 2)) for _ in range(2))
        if abs(x - w) < 0.2 or np.abs(pts - x).min() < 0.2 \
                or np.abs(pts - w).min() < 0.2:
            continue
        npair += 1
        val = be.bhat_coeff(x, 1, w, 1) + be.bhat_coeff(x, 1, w, -1)
        target = 1.0 / (x - w) ** 2
        worst = max(worst, abs(val - target) / abs(target))
    checks.append(_check("bergman_pullback", worst, 1e-6))
    checks.append(_check("correction_defect",
                         float(be.correction_defect), 1e-8))

    kp, km = _principal_kappa_of(ref)
    res = tau.scaling_check(ref, pairing=ref.pairing)
    (ep, fp), (em, fm) = res[1], res[-1]
    checks.append(_check("euler_kappa_plus", abs(ep - kp) / abs(kp), 1e-4))
    checks.append(_check("euler_kappa_minus", abs(em - km) / abs(km), 1e-4))
    checks.append(_check("scaling_path", max(abs(ep - fp), abs(em - fm)),
                         1e-6))
    return checks


def _suite_full():
    checks = _suite_quick()

    for kind, tol in (("zero-pole", 0.05), ("zero-zero", 0.1)):
        fam = _FAMILIES[kind]()
        gp_t, gm_t = (float(v) for v in strata.collision_exponents(kind))
        exps, rows = tau.degeneration_exponent(fam)
        checks.append(_check(f"gamma_plus_{kind}", abs(exps[1] - gp_t), tol))
        checks.append(_check(f"gamma_minus_{kind}", abs(exps[-1] - gm_t),
                             tol))
        if kind == "zero-pole":
            last = rows[-1]
            ratio = abs(last["t"]) / last["d"] / math.pi
            checks.append(_check("transversal_t_constant",
                                 abs(ratio - 1.0), 0.01))

    def path(s):
        return QDConfigG0(zeros=[0.0],
                          poles=[1.0, -1.0, 2.0, -2.0, 0.5 + 0.2 * s])

    pairing = [(4, 2), (0, 5), (1, 3)]
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(5):
        sig = random_symplectic(2, rng, steps=5)
        rp, rm = tau.basis_change_residual(path, 0.0, sig, pairing=pairing)
        worst = max(worst, rp, rm)
    checks.append(_check("basis_change_residual", worst, 1e-4))

    def loop(s):
        z1 = 0.1 * cmath.exp(2j * cmath.pi * s)
        return QDConfigG0(zeros=[z1], poles=[1.0, -1.0, 2.0, -2.0, 0.5])

    defect = tau.flatness_defect(loop, n_samples=16, pairing=pairing)
    checks.append(_check("flatness_loop", max(defect[1], defect[-1]), 1e-4))
    return checks


def cmd_suite(args) -> int:
    checks = _suite_full() if args.full else _suite_quick()
    report = {
        "command": "suite",
        "inputs": {"tier": "full" if args.full else "quick"},
        "results": {"n_checks": len(checks),
                    "n_passed": sum(c["passed"] for c in checks)},
        "checks": checks,
    }
    return emit(report, args.out)


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qdtau",
        description="Tau functions on strata of quadratic differentials: "
                    "exact divisor classes, periods, kernels, and "
                    "connection-form checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("picard", help="exact divisor-class identities")
    p.add_argument("action", choices=["verify", "classes"])
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_picard)

    p = sub.add_parser("kappa", help="homogeneity exponents of a stratum")
    p.add_argument("--signature", required=True,
                   help="comma-separated zero/pole orders, e.g. "
                        "'1,-1,-1,-1,-1,-1'")
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_kappa)

    p = sub.add_parser("periods", help="period matrix of the double cover")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_periods)

    p = sub.add_parser("bergman", help="kernel values at a probe pair")
    p.add_argument("--config", required=True)
    p.add_argument("--probe", nargs=2, required=True,
                   metavar=("P", "Q"), help="two points as 're,im'")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bergman)

    p = sub.add_parser("tau", help="connection-form checks")
    tsub = p.add_subparsers(dest="tau_command", required=True)

    q = tsub.add_parser("scaling", help="Euler pairing vs. scaling path")
    q.add_argument("--config", required=True)
    q.add_argument("--out")
    q.set_defaults(fn=cmd_tau_scaling)

    q = tsub.add_parser("degenerate", help="boundary exponent fit")
    q.add_argument("--kind", required=True,
                   choices=sorted(_FAMILIES))
    q.add_argument("--config")
    q.add_argument("--out", help="CSV sample path")
    q.set_defaults(fn=cmd_tau_degenerate)

    q = tsub.add_parser("basis-change", help="modular anomaly residual")
    q.add_argument("--sigma", required=True,
                   help="JSON file with a 4x4 integer symplectic matrix")
    q.add_argument("--out")
    q.set_defaults(fn=cmd_tau_basis_change)

    p = sub.add_parser("suite", help="acceptance checks")
    tier = p.add_mutually_exclusive_group()
    tier.add_argument("--quick", action="store_true", default=True)
    tier.add_argument("--full", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_suite)

    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # keep argparse from reading a negative probe coordinate as a flag
    for i, t in enumerate(argv):
        near_probe = "--probe" in argv[max(0, i - 2):i]
        if near_probe and t.startswith("-") and "," in t:
            argv[i] = " " + t
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, QuadratureError, np.linalg.LinAlgError) as exc:
        report = {"schema": SCHEMA,
                  "error": {"class": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
