"""Command-line front end: JSON/CSV reports and the acceptance driver.

`qdtau suite` runs the acceptance criteria of `qdtau.checks` (the quick
tier, criteria 1-5, or all eight with --full), and every per-command
gate takes its tolerance from the same registry.
Exit codes: 0 all checks passed, 1 at least one check failed, 2 input
error (malformed files or arguments, an --out path that cannot be
opened, unstable (g, n), probes on a singular point), 3 could not
compute (a geometry, quadrature or linear-algebra failure, reported as
JSON with the error's class and message).
--out is opened for writing, as a shell redirection is, before the
command reads its inputs or computes anything, so a path that cannot
be opened fails at once and one that can is emptied even if the
command then fails.
Reports are JSON with sorted keys so identical inputs and seeds produce
identical bytes; exact rationals are serialized as "p/q" strings,
complex numbers as [re, im] pairs.
"""
from __future__ import annotations

import argparse
import csv
from dataclasses import replace
import json
import math
import sys

import numpy as np

from . import checks, picard, strata, tau
from .bergman import BergmanEvaluator
from .checks import TOLERANCES, gate
from .cover_homology import is_symplectic
from .curves import QDConfigG0
from .cycles import GeometryError
from .periods import PeriodEngine
from .quadrature import SPINE_SIZES, QuadratureError

SCHEMA = "qdtau-report/1"


class InputError(Exception):
    pass


def _cj(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _config_inputs(config, **more) -> dict:
    """A report's inputs: the configuration's points and scale."""
    return {"zeros": [_cj(z) for z in config.zeros],
            "poles": [_cj(p) for p in config.poles],
            "scale": _cj(config.scale), **more}


def _number(v, integer=False):
    """v itself if it is a JSON number (true and false are not); with
    ``integer``, int(v) if v's value is an integer (4.9 is refused, not
    truncated)."""
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or integer and not float(v).is_integer()):
        raise InputError(f"expected {'an integer' if integer else 'a number'}"
                         f", got {v!r}")
    return int(v) if integer else v


def _parse_complex(v):
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_number(v[0]), _number(v[1]))
    return complex(_number(v))


def load_config(path: str) -> QDConfigG0:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError(f"config must be a JSON object, not "
                         f"{type(raw).__name__}")
    try:
        zeros = [_parse_complex(z) for z in raw["zeros"]]
        poles = [_parse_complex(p) for p in raw["poles"]]
        scale = _parse_complex(raw.get("scale", 1.0))
        tol = float(_number(raw.get("tolerance", 1e-10)))
        pairing = raw.get("pairing")
        if pairing is not None:
            pairing = [tuple(_number(i, True) for i in pr) for pr in pairing]
        return QDConfigG0(zeros=zeros, poles=poles, scale=scale,
                          tolerance=tol, pairing=pairing)
    except KeyError as exc:
        raise InputError(f"config missing field {exc}") from None
    except (ValueError, TypeError) as exc:
        raise InputError(f"invalid configuration: {exc}") from None


def _open_out(path: str):
    """The file at path, opened for writing (newline="" for the CSV
    writer); a path that cannot be opened is an input error."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise InputError(f"cannot write output: {exc}") from None


def emit(report: dict, out=None) -> int:
    """Write the report to the open file out, or to stdout."""
    report["schema"] = SCHEMA
    report["passed"] = all(c["passed"] for c in report.get("checks", []))
    (out or sys.stdout).write(json.dumps(report, sort_keys=True, indent=2)
                              + "\n")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------- picard

def cmd_picard(args) -> int:
    g, n = args.genus, args.n
    if n < 1:
        raise InputError(f"no stratum at genus {g} with {n} poles")
    try:
        b = picard.basis(g, n)
    except ValueError as exc:
        raise InputError(str(exc)) from None
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

    residuals = picard.verify(g, n)
    exact = [
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
        "results": {c["name"]: c["value"] for c in exact},
        "checks": exact,
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
    pe = PeriodEngine.for_config(config, config.tolerance)
    nmat, omega = pe.normalized_basis()
    ca, cb = pe.homological_coordinates()
    coords = list(ca) + list(cb)
    # the asymmetry before normalized_basis symmetrizes Omega
    sym = float(pe.omega_defect)
    min_eig = pe.omega_imag_min_eig
    report = {
        "command": "periods",
        "inputs": _config_inputs(config, tolerance=config.tolerance),
        "results": {
            "genus": int(omega.shape[0]),
            "omega_minus": [[_cj(v) for v in row] for row in omega],
            "homological_coords": [_cj(v) for v in coords],
        },
        "diagnostics": {
            "omega_symmetry_defect": sym,
            "omega_imag_min_eig": min_eig,
            "loops": len(pe.cycles.loops),
            "pairing": [list(pr) for pr in pe.cycles.pairs],
            "spine_rho_min": pe.cycles.spine_rho(),
            # the cycle ladder: each pairing passed over, with its rho
            # or GeometryError text
            "rejected_pairings": [{"pairing": p, "reason": why}
                                  for p, why in pe.cycles.rejected],
            # per loop, the size of the first spine rule tried, the
            # sizes its table's ladders settled on (one per block
            # built) and the defect they settled with (both null for a
            # loop whose spine fell back to the contour); the loops
            # that fell back
            "first_rungs": [SPINE_SIZES[k] for k in pe.first_rungs],
            "settled_rungs": [None if r is None else
                              [SPINE_SIZES[k] for k in r]
                              for r in pe.settled_rungs],
            "loop_defects": pe.loop_defects,
            "fallback_loops": pe.fallback_loops,
        },
        "checks": [
            gate("omega_symmetric", sym, TOLERANCES["omega_symmetric"]),
            gate("omega_imag_positive", 0.0 if min_eig > 0 else math.inf,
                 TOLERANCES["omega_imag_positive"]),
        ],
    }
    return emit(report, args.out)


# --------------------------------------------------------------- bergman

def cmd_bergman(args) -> int:
    config = load_config(args.config)

    def probe_pt(s):
        try:
            re, im = (float(t) for t in s.strip().split(","))
        except ValueError:
            raise InputError(f"probe point must be 're,im', got {s!r}") \
                from None
        x = complex(re, im)
        if not (math.isfinite(re) and math.isfinite(im)) \
                or x in config.branch_points():
            raise InputError(f"probe point {s!r} is not a finite point "
                             "off the branch points")
        return x

    x, w = (probe_pt(s) for s in args.probe)
    if x == w:
        raise InputError("the kernel has a double pole where the two probe "
                         "points coincide")
    be = BergmanEvaluator(PeriodEngine.for_config(config, config.tolerance))
    kernel = complex(be.bhat_coeff(x, 1, w, 1))
    tx, tw = be.t_coeff(x), be.t_coeff(w)
    report = {
        "command": "bergman",
        "inputs": _config_inputs(config, probe=[_cj(x), _cj(w)]),
        "results": {
            "bhat": _cj(kernel),
            "t_coeff": [_cj(tx), _cj(tw)],
            # projective connections of the two kernel splittings
            "s_plus": [0.0, 0.0],
            "s_minus": [_cj(-12.0 * tx), _cj(-12.0 * tw)],
        },
        "diagnostics": {"correction_defect": float(be.correction_defect)},
        "checks": [
            gate("alpha_normalization", be.correction_defect,
                 TOLERANCES["correction_defect"]),
        ],
    }
    return emit(report, args.out)


# ------------------------------------------------------------------- tau

def cmd_tau_scaling(args) -> int:
    config = load_config(args.config)
    kp, km = (float(k) for k in strata.principal_kappa(0, config.n))
    result = tau.scaling_check(config, pairing=config.pairing)
    (ep, fp), (em, fm) = result[1], result[-1]
    report = {
        "command": "tau scaling",
        "inputs": _config_inputs(config),
        "results": {
            "euler_pairing_plus": _cj(ep),
            "euler_pairing_minus": _cj(em),
            "path_derivative_plus": _cj(fp),
            "path_derivative_minus": _cj(fm),
            "kappa_plus": kp,
            "kappa_minus": km,
        },
        "checks": [
            gate("kappa_plus_match", abs(ep - kp) / abs(kp),
                 TOLERANCES["euler_kappa_plus"]),
            gate("kappa_minus_match", abs(em - km) / abs(km),
                 TOLERANCES["euler_kappa_minus"]),
            gate("scaling_path_plus", abs(ep - fp),
                 TOLERANCES["scaling_path"]),
            gate("scaling_path_minus", abs(em - fm),
                 TOLERANCES["scaling_path"]),
        ],
    }
    return emit(report, args.out)


def _write_degeneration_csv(fh, rows):
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
    if args.kind not in tau.FAMILIES:
        raise InputError(f"unknown degeneration kind: {args.kind!r}")
    fam = tau.FAMILIES[args.kind]()
    if args.config:
        base = load_config(args.config)
        mk0 = fam.config
        sc, tol = base.scale, base.tolerance

        def mk(d):
            return replace(mk0(d), scale=sc, tolerance=tol)

        fam = tau.DegenerationFamily(fam.name, mk, fam.pairing, fam.collide,
                                     schedule=fam.schedule)
    gp_t, gm_t = (float(v) for v in strata.collision_exponents(args.kind))
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
            gate("gamma_plus", abs(exps[1] - gp_t),
                 TOLERANCES[f"gamma_plus_{args.kind}"]),
            gate("gamma_minus", abs(exps[-1] - gm_t),
                 TOLERANCES[f"gamma_minus_{args.kind}"]),
        ],
    }
    return emit(report)


def cmd_tau_basis_change(args) -> int:
    config = load_config(args.config) if args.config else checks.REF
    m = 2 * (config.n - 3)
    shape = f"sigma must be a {m}x{m} integer symplectic matrix"
    try:
        with open(args.sigma) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read sigma: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from None
    try:
        vals = np.asarray(raw["sigma"] if isinstance(raw, dict) else raw,
                          dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{shape}: {exc!r}") from None
    if vals.shape != (m, m):
        raise InputError(f"{shape} for genus {m // 2}, got shape "
                         f"{vals.shape}")
    # parsed as floats so that 1.5 is refused instead of truncated
    if not (np.all(np.abs(vals) <= 2**31) and np.all(vals == np.round(vals))
            and is_symplectic(vals)):
        raise InputError(shape)
    sig = vals.astype(int)
    rp, rm = tau.basis_change_residual(checks.pole_path(config), 0.0, sig,
                                       pairing=config.pairing)
    report = {
        "command": "tau basis-change",
        "inputs": _config_inputs(config, sigma=sig.tolist()),
        "results": {"plus_residual": rp, "minus_residual": rm},
        "checks": [
            gate("plus_invariance", rp, TOLERANCES["basis_change_residual"]),
            gate("minus_anomaly", rm, TOLERANCES["basis_change_residual"]),
        ],
    }
    return emit(report, args.out)


# ----------------------------------------------------------------- suite

def cmd_suite(args) -> int:
    results = checks.run(full=args.full)
    report = {
        "command": "suite",
        "inputs": {"tier": "full" if args.full else "quick"},
        "results": {"n_checks": len(results),
                    "n_passed": sum(c["passed"] for c in results)},
        "checks": results,
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
                   choices=sorted(tau.FAMILIES))
    q.add_argument("--config")
    q.add_argument("--out", help="CSV sample path")
    q.set_defaults(fn=cmd_tau_degenerate)

    q = tsub.add_parser("basis-change", help="modular anomaly residual")
    q.add_argument("--sigma", required=True,
                   help="JSON file with a 2g x 2g integer symplectic matrix")
    q.add_argument("--config",
                   help="configuration whose last pole moves (default: "
                        "the reference configuration)")
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
        if args.out is None:
            return args.fn(args)
        # the command writes to the open file
        with _open_out(args.out) as args.out:
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
