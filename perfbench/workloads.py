"""Seeded inputs, per-item runners and exact oracles for the benchmark.

Each workload is a fixed list of items made from the seed alone.  An
item runs the same public qdtau calls as the matching CLI command and
is then checked against an oracle the benchmark computes itself from
exact data (``Fraction`` values from ``qdtau.strata`` and identities
that hold exactly).  An item either passes every check or is counted
as failed under one class; nothing aborts a run.
"""
from __future__ import annotations

import cmath
import hashlib
import json
import math
import signal
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from qdtau import cover_homology, curves, cycles, periods, picard, strata, tau

CLASSES = ("generic", "clustered", "collinear", "scaled")

# per-class item counts, one entry per pole count n
PERIODS_NS = (5, 6, 7, 8)
PERIODS_PER_CELL = 2
CONNECTION_NS = (5, 6)
CONNECTION_PER_CELL = 1
SIGNATURES = 40

# acceptance tolerances of the oracles
OMEGA_SYM_TOL = 1e-8       # relative Omega asymmetry, as the periods command
RECIPROCITY_TOL = 1e-8     # beta(v) = Omega alpha(v) for the holomorphic v
KAPPA_TOL = 1e-4           # |Euler - kappa| / |kappa|, as criterion 5
PATH_TOL = 1e-4            # scaling-path and basis-change residuals
GAMMA_TOL = {"zero-pole": 0.05, "zero-zero": 0.1}  # as tau degenerate

# Random configurations have a heavy-tailed cost: a few clustered ones
# fall back from spine rules to contour quadrature that bisects for
# minutes.  An item of a random workload whose quadrature evaluates more
# integrand points (points passed to the sheet kernels) than
# POINT_BUDGET is stopped and counted as failed ("PointBudget").  The
# budget counts work, not time, so the same items fail on every run,
# traced or not; at the baseline, items that finish use at most about
# 180k points.  A wall-clock deadline backs it up, should a change route
# evaluation around the kernels.
BUDGETED = ("periods-mix", "connection")
POINT_BUDGET = 200_000
DEADLINE_S = 30.0


class BudgetExceeded(Exception):
    """Raised inside an item that used up its work budget or time."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


class WorkBudget:
    """Counts the integrand points of the current item and stops it at
    its workload's budget.  Wraps the sheet kernels for the whole run;
    an item with no budget is only counted."""

    def __init__(self):
        self.limit = None
        self.points = 0
        self._saved = None
        self._handler = None

    def install(self):
        from qdtau import kernels
        self._saved = (kernels.eval_sheet1, kernels.eval_oncut)

        def counted(fn, pos):
            def kernel(*args, **kwargs):
                self.points += np.size(args[pos])
                if self.limit is not None and self.points > self.limit:
                    raise BudgetExceeded("PointBudget",
                                         f"over {self.limit} points")
                return fn(*args, **kwargs)
            return kernel

        kernels.eval_sheet1 = counted(self._saved[0], 0)
        kernels.eval_oncut = counted(self._saved[1], 1)
        self._handler = signal.signal(signal.SIGALRM, self._on_alarm)

    def uninstall(self):
        from qdtau import kernels
        kernels.eval_sheet1, kernels.eval_oncut = self._saved
        signal.signal(signal.SIGALRM, self._handler)

    def _on_alarm(self, signum, frame):
        raise BudgetExceeded("Deadline", f"over {DEADLINE_S} s")

    def start(self, workload):
        self.limit = POINT_BUDGET if workload in BUDGETED else None
        self.points = 0
        if self.limit is not None:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)

    def stop(self):
        if self.limit is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.limit = None


@dataclass
class Item:
    workload: str
    cls: str            # geometry class, family name or exact item kind
    label: str
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    error_class: str | None   # None, or the failure class
    err: float | None         # oracle error the workload reports, if any
    checks: dict              # name -> (value, tolerance, passed, hard)
    note: str = ""


# ------------------------------------------------------------ generator

def _spread(rng, m, radius=2.5, min_sep=0.25):
    """m points uniform in the square of half-width radius, no two
    closer than min_sep."""
    while True:
        pts = rng.uniform(-radius, radius, (m, 2)) @ np.array([1.0, 1.0j])
        if m < 2 or min(abs(p - q) for i, p in enumerate(pts)
                        for q in pts[:i]) >= min_sep:
            return pts


def make_points(rng, cls, n):
    """Branch points (zeros first, then poles) of one configuration
    with n poles and n - 4 zeros in the given geometry class."""
    m = 2 * n - 4
    if cls == "generic":
        pts = _spread(rng, m)
    elif cls == "clustered":
        # k points in a disc of log-uniform radius 0.1..0.5, the rest
        # spread; tight discs send spines past foreign branch points
        k = int(rng.integers(3, min(m - 1, 5) + 1))
        far = _spread(rng, m - k + 1)
        r = 0.1 * 5.0 ** rng.uniform()
        pts = np.concatenate([far[0] + _spread(rng, k, r, r / 5), far[1:]])
        pts = rng.permutation(pts)
    elif cls == "collinear":
        # uniform on [-2.5, 2.5] conditioned on gaps >= 0.25: sorted
        # uniforms on the shortened line, then the gaps added back
        slack = 5.0 - 0.25 * (m - 1)
        xs = np.sort(rng.uniform(0.0, slack, m)) + 0.25 * np.arange(m) - 2.5
        xs = rng.permutation(xs)
        pts = xs + 1j * rng.uniform(-1e-3, 1e-3, m)
    elif cls == "scaled":
        pts = 1e3 * _spread(rng, m)
    else:
        raise ValueError(f"unknown geometry class {cls!r}")
    return [complex(p) for p in pts]


def _config(pts, n):
    return curves.QDConfigG0(zeros=pts[:n - 4], poles=pts[n - 4:])


def _move(rng, pts):
    """A random real affine image x -> a x + b (a > 0) of the points.
    It keeps the cut pairing and ordering and leaves Omega unchanged, so
    the configuration stays about as hard as it was."""
    size = max(abs(p) for p in pts) / 2.5
    a = math.exp(rng.uniform(math.log(0.95), math.log(1.05)))
    b = rng.uniform(-0.1, 0.1) * size
    return [a * p + b for p in pts]


def _shapes(workload):
    """The fixed stream the configurations' shapes come from.  Every
    seed gets the same mix of easy and hard shapes, clustered
    contour-fallback tail included, so runs on different seeds do
    comparable work; the seed moves each shape by _move."""
    return np.random.default_rng(list(workload.encode()))


def _periods_items(rng):
    shapes = _shapes("periods-mix")
    out = []
    for cls in CLASSES:
        for n in PERIODS_NS:
            for k in range(PERIODS_PER_CELL):
                pts = _move(rng, make_points(shapes, cls, n))
                out.append(Item("periods-mix", cls, f"{cls}-n{n}-{k}",
                                {"n": n, "points": pts}))
    return out


def _connection_items(rng):
    """The shape stream also fixes each item's sigma, moving pole and
    path direction; the seed only moves the points."""
    shapes = _shapes("connection")
    out = []
    for cls in CLASSES:
        for n in CONNECTION_NS:
            for k in range(CONNECTION_PER_CELL):
                pts = _move(rng, make_points(shapes, cls, n))
                sigma = cover_homology.random_symplectic(n - 3, shapes, steps=5)
                pole = int(shapes.integers(0, n))
                p = pts[n - 4 + pole]
                near = min(abs(p - q) for q in pts if q != p)
                step = 0.2 * near * cmath.exp(1j * shapes.uniform(0, 2 * math.pi))
                out.append(Item("connection", cls, f"{cls}-n{n}-{k}",
                                {"n": n, "points": pts,
                                 "sigma": sigma.tolist(),
                                 "pole": pole, "step": step}))
    return out


# Schedule points of each family a degeneration pass runs: every second
# point down to d = 0.1 * 0.5**8 = 3.9e-4.  The two deepest points of
# the full schedule take about 30 s together (the zero-zero row at
# d = 9.8e-5 alone about 29 s), longer than a run; the fit over these
# five points still meets the exact exponents to better than 1e-7.
DEGENERATION_ROWS = slice(0, 9, 2)


def _degeneration_items(rng):
    out = []
    for kind, make in (("zero-pole", tau.zero_pole_family),
                       ("zero-zero", tau.zero_zero_family)):
        for row, d in enumerate(make().schedule[DEGENERATION_ROWS]):
            out.append(Item("degeneration", kind, f"{kind}-{row}",
                            {"kind": kind, "d": d}))
    # rows are independent computations; the seed only fixes their order
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _random_signature(rng):
    """Orders with sum 4g-4 holding at least one zero-pole pair and one
    pair of simple zeros, so both collision tables apply."""
    g = int(rng.integers(0, 4))
    while True:
        extra = [int(d) for d in rng.integers(-1, 4, size=int(rng.integers(0, 6)))]
        orders = [1, -1, 1, 1] + extra
        rest = 4 * g - 4 - sum(orders)
        if rest >= 0:
            orders += [1] * rest
        else:
            orders += [-1] * (-rest)
        if len(orders) <= 24:
            break
    rng.shuffle(orders)
    return g, [int(d) for d in orders]


def _exact_items(rng):
    out = []
    for g in range(6):
        for n in range(1, 6):
            if 2 * g + n > 3:
                out.append(Item("exact", "picard", f"g{g}-n{n}",
                                {"g": g, "n": n}))
    for k in range(SIGNATURES):
        g, orders = _random_signature(rng)
        out.append(Item("exact", "signature", f"sig-{k}",
                        {"g": g, "orders": orders}))
    return out


WORKLOADS = {
    "periods-mix": _periods_items,
    "connection": _connection_items,
    "degeneration": _degeneration_items,
    "exact": _exact_items,
}


# a few cheap items per workload for the benchmark's own tests
SMOKE = {
    "periods-mix": lambda it: it.label.endswith("-n5-0"),
    "connection": lambda it: it.label == "generic-n5-0",
    "degeneration": lambda it: it.cls == "zero-pole" and it.data["d"] > 0.02,
    "exact": lambda it: it.label in ("g0-n4", "g1-n2", "sig-0", "sig-1"),
}


def generate(workload, seed, smoke=False):
    """The workload's fixed item list for this seed."""
    items = WORKLOADS[workload](np.random.default_rng(seed))
    if smoke:
        items = [it for it in items if SMOKE[workload](it)]
    return items


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in sorted(v.items())}
    return v


def inputs_hash(items):
    """sha256 over the items' exact inputs (floats by repr)."""
    text = json.dumps([[it.cls, it.label, _jsonable(it.data)] for it in items],
                      sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# -------------------------------------------------------------- runners

def _check(checks, name, value, tol, hard=False):
    """Record a check as (value, tolerance, passed, hard).  A hard check
    compares with exact data (kappa, exponents, exact identities,
    positivity); the others gate achieved accuracy."""
    checks[name] = (value, tol, bool(value <= tol), hard)


def run_periods(item):
    """As `qdtau periods`: cover, robust cycles, engine at the
    configuration's tolerance, normalized basis and v-periods."""
    cfg = _config(item.data["points"], item.data["n"])
    curve = curves.build_cover(cfg)
    cyc = cycles.build_cycles_robust(curve, pairing=cfg.pairing)
    pe = periods.PeriodEngine(cyc, tol=cfg.tolerance)
    _, omega = pe.normalized_basis()
    va, vb = pe.homological_coordinates()
    checks = {}
    # Omega comes back symmetrized; the engine keeps the raw defect
    asym = float(pe.omega_defect)
    _check(checks, "omega_symmetric", asym, OMEGA_SYM_TOL)
    min_eig = float(np.linalg.eigvalsh(omega.imag).min())
    _check(checks, "omega_imag_positive", 0.0 if min_eig > 0 else math.inf, 0.0,
           hard=True)
    # v = sqrt(c) Z(x) dx / yhat is holomorphic, so its beta periods are
    # Omega times its alpha periods (Riemann bilinear relations)
    recip = float(np.max(np.abs(vb - omega @ va)) / np.max(np.abs(vb)))
    _check(checks, "v_reciprocity", recip, RECIPROCITY_TOL)
    return asym, checks


def _kappa_exact(n):
    """kappa+- of the principal genus-zero stratum with n poles, from
    the signature (not the closed form the CLI cross-checks)."""
    sig = strata.StratumSignature(0, (1,) * (n - 4) + (-1,) * n)
    return strata.kappa(sig)


def run_connection(item):
    """As `qdtau tau scaling` then `qdtau tau basis-change`, the latter
    with a random symplectic sigma along a path moving one pole."""
    n = item.data["n"]
    pts = item.data["points"]
    cfg = _config(pts, n)
    res = tau.scaling_check(cfg, pairing=cfg.pairing)
    (ep, fp), (em, fm) = res[1], res[-1]
    kp, km = _kappa_exact(n)
    k = n - 4 + item.data["pole"]
    step = item.data["step"]

    def path(s):
        moved = list(pts)
        moved[k] = pts[k] + s * step
        return _config(moved, n)

    rp, rm = tau.basis_change_residual(path, 0.0, item.data["sigma"],
                                       pairing=cfg.pairing)
    checks = {}
    kerr = max(abs(ep - float(kp)) / abs(float(kp)),
               abs(em - float(km)) / abs(float(km)))
    _check(checks, "euler_kappa", kerr, KAPPA_TOL, hard=True)
    _check(checks, "scaling_path", max(abs(ep - fp), abs(em - fm)), PATH_TOL)
    _check(checks, "basis_change_plus", rp, PATH_TOL)
    _check(checks, "basis_change_minus", rm, PATH_TOL)
    return kerr, checks


def run_degeneration_row(item):
    """One schedule row of the family, through the same
    tau.degeneration_rows the CLI's tau degenerate calls."""
    fam = _FAMILY[item.data["kind"]]()
    one = tau.DegenerationFamily(fam.name, fam.config, fam.pairing,
                                 fam.collide, schedule=(item.data["d"],))
    return tau.degeneration_rows(one)[0]


_FAMILY = {"zero-pole": tau.zero_pole_family,
           "zero-zero": tau.zero_zero_family}


def fit_family(kind, rows):
    """Fit both boundary exponents over the family's full schedule, as
    tau.degeneration_exponent does, and check them against the exact
    Fractions from strata.  Returns (worst error, checks)."""
    rows = sorted(rows, key=lambda r: -r["d"])
    ds = [r["d"] for r in rows]
    exact = dict(zip((1, -1), strata.collision_exponents(kind)))
    checks = {}
    worst = 0.0
    for branch, name in ((1, "plus"), (-1, "minus")):
        g_inf, _p, _res = tau.fit_exponent(ds, [r[("gamma", branch)] for r in rows])
        err = abs(g_inf - float(exact[branch]))
        worst = max(worst, err)
        _check(checks, f"gamma_{name}_{kind}", err, GAMMA_TOL[kind], hard=True)
    return worst, checks


def _exact_zero(checks, name, ok):
    _check(checks, name, 0.0 if ok else math.inf, 0.0, hard=True)


def _scaled_int(matrix):
    """(integer array, common denominator) of a matrix of Fractions or
    ints; exact while entries stay far below 2**31, as they do here."""
    den = math.lcm(*{x.denominator for row in matrix for x in row})
    ints = np.array([[x.numerator * (den // x.denominator) for x in row]
                     for row in matrix], dtype=np.int64)
    if np.abs(ints).max(initial=0) >= 2 ** 20:
        raise ValueError("entries too large for the exact integer check")
    return ints, den


def run_picard_cell(item):
    """As `qdtau picard verify` and `picard classes` for one (g, n)
    cell, plus the cover-homology matrices of that cell."""
    g, n = item.data["g"], item.data["n"]
    b = picard.basis(g, n)
    residuals = picard.verify_mumford_chain(b)
    kp, km = strata.principal_kappa(g, n)
    lam_s, prym_s, delta0_s = picard.solve_tau_relations(g, n, kp, km)
    delta0 = picard.class_delta0(b)
    dinf = picard.delta_inf_from_psi(b)
    lam, prym = picard.hodge_prym_classes(b, delta0, dinf)
    dm = picard.class_dm(b)
    picard.class_lambda2(b, prym)
    mats = cover_homology.build_matrices(g, n)

    checks = {}
    for name, r in residuals.items():
        _exact_zero(checks, name, r.is_zero())
    _exact_zero(checks, "tau_relations_lambda", lam_s == lam)
    _exact_zero(checks, "tau_relations_prym", prym_s == prym)
    _exact_zero(checks, "tau_relations_delta0", delta0_s == delta0)
    # criterion 1's closed forms, coefficient by coefficient
    phi = b.phi()
    _exact_zero(checks, "lambda_closed_form", lam == (
        Fraction(5 * (g - 1) - n, 36) * phi + Fraction(1, 72) * delta0
        - Fraction(1, 18) * dinf + Fraction(1, 12) * dm))
    _exact_zero(checks, "delta_inf_closed_form",
                dinf == b.psi_sum() - Fraction(n) * phi)
    # the kappa weights of the principal stratum from the signature
    _exact_zero(checks, "principal_kappa",
                (kp, km) == strata.kappa(strata.principal_signature(g, n)))
    # mu is an involution, exactly
    m, mden = _scaled_int(mats.m)
    _exact_zero(checks, "mu_involution", np.array_equal(
        m @ m, mden * mden * np.eye(len(m), dtype=np.int64)))
    return 0.0, checks


def run_signature(item):
    """strata.kappa of a random signature and both collision tables:
    merging a colliding pair must shift kappa by exactly the tabulated
    amount, and the exponents are that shift over the weight 1/2."""
    g, orders = item.data["g"], list(item.data["orders"])
    kp, km = strata.kappa(strata.StratumSignature(g, orders))
    checks = {}
    for kind, before, after in (("zero-pole", (1, -1), (0,)),
                                ("zero-zero", (1, 1), (2,))):
        merged = list(orders)
        for d in before:
            merged.remove(d)
        merged += list(after)
        mp, mm = strata.kappa(strata.StratumSignature(g, merged))
        shift = strata.collision_kappa_shift(kind)
        gp, gm = strata.collision_exponents(kind)
        _exact_zero(checks, f"{kind}_shift", (kp - mp, km - mm) == shift)
        _exact_zero(checks, f"{kind}_exponents",
                    (gp, gm) == (2 * shift[0], 2 * shift[1]))
    return 0.0, checks


def _runner(item):
    if item.workload == "periods-mix":
        return run_periods
    if item.workload == "connection":
        return run_connection
    return run_picard_cell if item.cls == "picard" else run_signature


def run_item(item, budget):
    """Run one item under its workload's work budget.  Returns
    (Outcome, row): row is the degeneration row, None otherwise."""
    budget.start(item.workload)
    row = None
    try:
        if item.workload == "degeneration":
            row = run_degeneration_row(item)
            err, checks = None, {}
        else:
            err, checks = _runner(item)(item)
    except BudgetExceeded as exc:
        return Outcome(False, exc.kind, None, {}, str(exc)), None
    except Exception as exc:  # noqa: BLE001 -- a failed item never aborts a run
        # classed by type: GeometryError, QuadratureError, LinAlgError, ...
        return Outcome(False, type(exc).__name__, None, {}, str(exc)), None
    finally:
        budget.stop()
    return _judge(err, checks), row


def fit_item(kind, rows, expected):
    """The family's exponent fit as one more item; it fails when a row
    of the family failed."""
    if len(rows) != expected:
        return Outcome(False, "MissingRows", None, {},
                       f"{expected - len(rows)} rows failed")
    try:
        err, checks = fit_family(kind, rows)
    except np.linalg.LinAlgError as exc:
        return Outcome(False, "LinAlgError", None, {}, str(exc))
    return _judge(err, checks)


def _judge(err, checks):
    failed = [k for k, (_v, _t, ok, _h) in checks.items() if not ok]
    if failed:
        return Outcome(False, "CheckFailed", err, checks, ",".join(failed))
    return Outcome(True, None, err, checks)


def warm_up():
    """Fill the quadrature rule caches every workload uses."""
    from qdtau import quadrature
    for n in quadrature.SPINE_SIZES:
        for ab in ((-0.5, -0.5), (0.5, 0.5), (-0.5, 0.5), (0.5, -0.5)):
            quadrature.jacobi_rule(n, *ab)
    for n in (24, 48):
        quadrature.legendre_rule(n)
