"""Connection forms for the two tau functions on genus-zero configurations.

The square root v of the quadratic differential lives on the double
cover; its flat coordinate induces a projective connection S_v with
rational coefficient in the base chart.  Subtracting either of the two
kernel-induced connections (the even one vanishes identically in this
chart, the odd one is -12 t) and dividing by v yields a meromorphic
one-form phi on the cover for each sign.  Periods of phi paired with
derivatives of periods of v give the logarithmic derivative of the
corresponding tau function along any path in the configuration space:

    dlog tau(del) = sum_i [ -PhiB_i * d/ds VA_i + PhiA_i * d/ds VB_i ]

Contraction with the scaling field recovers the kappa weight of the
stratum; shrinking a paired cut recovers the boundary exponents; a
symplectic basis change shifts the odd branch by 48 dlog det(C Omega + D)
and leaves the even branch alone.

phi = F dx / yhat with F rational, poles of order at most two only at
branch points.  FFTs on circles split F into the engine's one
representation of a form, a polynomial part in the frame of the branch
points and principal parts at them, and phi's loop periods are those
times the engine's power and pole maps (`PeriodEngine.loop_periods`).
Both maps depend on the branch points and the loops alone, never on
the form: on each loop the poles at (or crowding) its spine are traded
for a polynomial by the exact forms d(yhat / (x - b)^j), the pole step
of Kedlaya's reduction, and the others stay explicit as the far-pole
rows of the loop's moment table (`qdtau.periods`).  v's Rauch
velocities take the same route: moving a branch point gives v's
derivative a simple pole there.

`build_connection` keeps the one connection it built last and returns
it when asked again for the same configuration and pairing: the
homogeneity and basis-change checks of one configuration share its
cover, cycles, spine ladder, kernel evaluator and phi periods.  The
key is the exact bits of the zeros, poles, scale and tolerance (so
0.0 and -0.0 differ) with the pairing; there is one entry, and a
connection is read-only to every caller.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace

import numpy as np

from .curves import QDConfigG0, build_cover
from .cycles import build_cycles_robust
from .periods import (PeriodEngine, deflate, frame, nearest_distances,
                      v_numerator)
from .bergman import BergmanEvaluator, fraction_sums, partial_fractions
from .cover_homology import blocks, transform_basis

# phi = PHI_PREF * (S_v - S_B) / v, coefficient form
PHI_PREF = 2.0 / (1j * np.pi)

# the two tau branches: +1 even (S_B = 0), -1 odd (S_B = -12 t)
BRANCHES = (1, -1)

# relative sign between the phi x v pairing and the kappa weights,
# pinned on the reference configuration against the stratum constants
DUAL_SIGN = 1.0

# candidate correction powers for the boundary-exponent fit
P_GRID = (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 4.0 / 3.0, 1.5, 2.0)


def sv_from_sums(zeros, poles):
    """S_v = L' - L^2/2, where L = (1/2) d/dx log q, from the
    fraction_sums (L, L') over the zeros and over the poles of q."""
    L = 0.5 * (zeros[0] - poles[0])
    Lp = 0.5 * (zeros[1] - poles[1])
    return Lp - 0.5 * L * L


def phi_numerators(bergman: BergmanEvaluator, config: QDConfigG0):
    """fn(x): F = PHI_PREF / sqrt(c) * m * (S_v - S_B) with phi = F dx/yhat,
    both branches stacked in the order of BRANCHES, from one broadcast
    d = 1/(x - b) (S_v, t via BergmanEvaluator.t_from_sums, and m)."""
    pts = bergman.branch_points  # config.branch_points(): zeros, then poles
    zeros, poles = slice(len(config.zeros)), slice(len(config.zeros), None)
    pref = PHI_PREF / np.sqrt(complex(config.scale))

    def fn(x):
        x = np.asarray(x, dtype=complex)
        d = partial_fractions(x, pts)
        zs, ps = fraction_sums(d, zeros), fraction_sums(d, poles)
        sv = sv_from_sums(zs, ps)
        sums = ((zs[0] + ps[0], zs[1] + ps[1]),
                fraction_sums(d, bergman.p1_rows),
                fraction_sums(d, bergman.p2_rows))
        inv_m = np.prod(d[poles], axis=0)
        t = bergman.t_from_sums(x, sums, inv_m * np.prod(d[zeros], axis=0))
        return np.stack([sv, sv + 12.0 * t]) * (pref / inv_m)

    return fn


# kept only because perfbench/tracing.py patches it; goes with ROADMAP item 2
def phi_fn(bergman: BergmanEvaluator, config: QDConfigG0):
    """fn(x, sheet): phi's stacked coefficients of dx on a sheet, the
    integrand of its stadium-contour periods."""
    num = phi_numerators(bergman, config)
    return lambda x, sheet: num(x) / bergman.ev.y(x, sheet)


# principal_parts samples FFT_POINTS per circle; the polynomial part's
# circle has FAR_RADIUS times the points' radius
FFT_POINTS = 64
FAR_RADIUS = 2.0


def principal_parts(fn, points):
    """(poly, laurent): fn(x) = poly((x - c)/s) + sum over k, j of
    laurent[..., k, j - 1] / (x - points[k])^j for fn (maybe stacked)
    rational with poles of order j <= 2 only at the points and degree
    <= len(points) - 2 at infinity (phi's: g - 1), with (c, s) the
    points' `periods.frame` and poly highest degree first: the form as
    `PeriodEngine.loop_periods` takes it.  laurent: the -1, -2 Fourier
    modes of fn on a circle of radius 0.3 nearest-neighbour distances
    around each point; poly: the nonnegative ones on
    |x - c| = FAR_RADIUS * s."""
    pts = np.asarray(points, dtype=complex)
    c, s = frame(pts)
    radii = np.append(0.3 * nearest_distances(pts), FAR_RADIUS * s)
    centers = np.append(pts, c)
    roots = np.exp(2j * np.pi * np.arange(FFT_POINTS) / FFT_POINTS)
    modes = np.fft.fft(fn(centers[:, None] + radii[:, None] * roots))
    modes /= FFT_POINTS
    top = len(pts) - 2
    poly = modes[..., -1, top::-1] / FAR_RADIUS ** np.arange(top, -1, -1)
    laurent = modes[..., :-1, :-3:-1] * radii[:-1, None] ** [1, 2]
    return poly, laurent


def reduced_loop_periods(engine: PeriodEngine, fn):
    """Loop periods, shape (k, loops), of the stacked forms
    fn(x)[i] dx/yhat (numerators as in `principal_parts`): their
    principal parts times the engine's power and pole maps."""
    return engine.loop_periods(*principal_parts(
        fn, np.asarray(engine.curve.branch_points, dtype=complex)))


class TauConnection:
    """Periods of phi+- and v over one symplectic basis.

    The kernel evaluator is built lazily: plain v-period work never
    pays for the kernel correction.
    """

    def __init__(self, engine: PeriodEngine, config: QDConfigG0,
                 bergman=None, alpha_mat=None, beta_mat=None):
        self.pe = engine
        self.config = config
        self._be = bergman
        # phi's periods and v's velocities go through the pole map:
        # asked for first, it builds both blocks of every loop's table
        # in one lockstep ladder
        engine.pole_map()
        self.alpha_mat = engine.cycles.alpha_mat if alpha_mat is None else alpha_mat
        self.beta_mat = engine.cycles.beta_mat if beta_mat is None else beta_mat
        self._phi = {}

    @property
    def be(self) -> BergmanEvaluator:
        if self._be is None:
            self._be = BergmanEvaluator(self.pe)
        return self._be

    def v_periods(self):
        vals = self.pe.loop_periods(self.pe.frame_poly(
            v_numerator(self.config)))
        return self.alpha_mat @ vals, self.beta_mat @ vals

    def v_velocities(self, b_dot, c_dot):
        """d/ds of every loop period of v = sqrt(c) Z(x) dx/yhat,
        Z = prod(x - z_i), while branch point k (zeros, then poles)
        moves with velocity b_dot[k] and the scale with c_dot.  Moving
        z_i divides v's numerator by -(x - z_i) = -s (z - w_i) in the
        frame z = (x - c)/s, w_i = (z_i - c)/s."""
        c, s = self.pe.frame
        f = self.pe.frame_poly(v_numerator(self.config))
        f_dot = (c_dot / (2.0 * self.config.scale)) * f
        for z, zd in zip(self.config.zeros, b_dot):
            f_dot[1:] -= (zd / s) * deflate(f, (z - c) / s)[0]
        return self.pe.period_velocities(f, f_dot, b_dot)

    def dlog_tau(self, branch: int, dv) -> complex:
        """dlog tau of the branch along a path on which the loop
        periods of v move with velocity dv."""
        pa, pb = self.phi_periods(branch)
        return complex(np.sum(-pb * (self.alpha_mat @ dv)
                              + pa * (self.beta_mat @ dv)))

    def phi_periods(self, branch: int):
        """(alpha, beta) periods of phi for the branch; the first call
        samples both branches' numerators in one pass and integrates
        them together."""
        if not self._phi:
            vals = reduced_loop_periods(
                self.pe, phi_numerators(self.be, self.config))
            for b, v in zip(BRANCHES, vals):
                self._phi[b] = (self.alpha_mat @ v, self.beta_mat @ v)
        return self._phi[branch]

    def euler_pairing(self, branch: int) -> complex:
        """Contraction of dlog tau with the scaling field; equals the
        kappa weight of the stratum."""
        va, vb = self.v_periods()
        pa, pb = self.phi_periods(branch)
        return DUAL_SIGN * 0.5 * complex(np.sum(pa * vb - pb * va))


# (key, connection) of the last build_connection call that returned
_last = (None, None)


def build_connection(config: QDConfigG0, pairing=None) -> TauConnection:
    """The connection of the configuration over the given cut pairing
    (default: the configuration's own).  A call whose configuration has
    the same zeros, poles, scale and tolerance, bit for bit, and the
    same pairing as the last call that returned gets that call's
    connection; a build that raises keeps nothing.  Callers read a
    connection and never change it: `basis_change_residual` moves the
    basis on a new `TauConnection` over the same engine."""
    global _last
    pairing = config.pairing if pairing is None else pairing
    key = (np.array([*config.branch_points(), config.scale,
                     config.tolerance]).tobytes(),
           None if pairing is None else tuple(map(tuple, pairing)))
    if _last[0] == key:
        return _last[1]
    cycles = build_cycles_robust(build_cover(config), pairing=pairing)
    conn = TauConnection(PeriodEngine(cycles), config)
    _last = key, conn
    return conn


def _tangent(make_config, s, h=1e-2):
    """(branch-point velocities, scale velocity) of the path at s, by the
    sixth-order central difference of its coordinates only; no engine
    is built.  On an affine path it is exact but for rounding, about
    |b| eps / (h |b_dot|), and on the scaling path scale exp(s) it errs
    by about h^6 / 140 relative: both under 1e-12 at the default h.  A
    coordinate that does not move gets velocity exactly 0."""
    diff = 0.0
    for k, weight in enumerate((45.0, -9.0, 1.0), 1):
        lo, hi = make_config(s - k * h), make_config(s + k * h)
        diff = diff + weight * np.subtract(
            [*hi.branch_points(), hi.scale], [*lo.branch_points(), lo.scale])
    diff = diff / (60.0 * h)
    return diff[:-1], complex(diff[-1])


def dlog_tau_along(make_config, s: float, branches=(1, -1), pairing=None,
                   center: TauConnection = None):
    """Directional derivative of log tau+- along s -> make_config(s),
    from exact derivatives of the v-periods at s.  Returns
    {branch: value}."""
    if center is None:
        center = build_connection(make_config(s), pairing=pairing)
    dv = center.v_velocities(*_tangent(make_config, s))
    return {branch: center.dlog_tau(branch, dv) for branch in branches}


def scaling_check(config: QDConfigG0, pairing=None):
    """Euler pairing vs. the derivative along the scaling path; returns
    {branch: (pairing, path_value)}."""
    conn = build_connection(config, pairing=pairing)

    def scaled(s):
        return replace(config, scale=config.scale * cmath.exp(s))

    path = dlog_tau_along(scaled, 0.0, pairing=pairing, center=conn)
    return {b: (conn.euler_pairing(b), path[b]) for b in (1, -1)}


def basis_change_residual(make_config, s: float, sigma, pairing=None):
    """How far the two branches deviate from their transformation laws
    under the symplectic basis change sigma along the given path:
    the even branch must not move, the odd branch must shift by
    48 dlog det(C Omega + D).  Returns (plus_residual, minus_residual)."""
    center = build_connection(make_config(s), pairing=pairing)
    sig = np.asarray(sigma, dtype=int)
    am2, bm2 = transform_basis(sig, center.alpha_mat, center.beta_mat)
    moved = TauConnection(
        center.pe,
        center.config,
        bergman=center.be.transformed(sig),
        alpha_mat=am2,
        beta_mat=bm2,
    )
    b_dot, c_dot = _tangent(make_config, s)
    dv = center.v_velocities(b_dot, c_dot)
    plus, minus = (moved.dlog_tau(b, dv) - center.dlog_tau(b, dv)
                   for b in (1, -1))

    _, _, c, d = blocks(sig)
    omega0 = center.pe.period_matrix()
    d_omega = center.pe.period_matrix_velocity(b_dot)
    # branch-free d/ds log det(C Omega + D)
    dlogdet = complex(np.trace(np.linalg.inv(c @ omega0 + d) @ c @ d_omega))

    return abs(plus), abs(minus - 48.0 * dlogdet)


def flatness_defect(make_config, n_samples=16, pairing=None,
                    branches=(1, -1)):
    """Closed-loop integral of dlog tau around s in [0, 1); the
    connection is flat, so anything above quadrature noise is a defect.
    Returns {branch: |integral|}."""
    totals = {b: 0.0 + 0.0j for b in branches}
    for k in range(n_samples):
        s = k / n_samples
        vals = dlog_tau_along(make_config, s, branches=branches,
                              pairing=pairing)
        for b in branches:
            totals[b] += vals[b] / n_samples
    return {b: abs(totals[b]) for b in branches}


@dataclass
class DegenerationFamily:
    """One-parameter pinch: two paired branch points collide as d -> 0."""

    name: str
    config: callable  # d -> QDConfigG0
    pairing: list
    collide: frozenset  # branch-point indices of the shrinking cut
    schedule: tuple = field(
        default_factory=lambda: tuple(0.1 * 0.5**k for k in range(11))
    )

    def collapsing_loop(self, cycles):
        for k, pr in enumerate(cycles.pairs):
            if set(pr) == set(self.collide):
                return cycles.loop_index("cut", k)
        raise KeyError("collapsing cut not found in the built pairing")


def zero_pole_family() -> DegenerationFamily:
    """A simple zero chases the pole it is paired with into the origin."""

    def mk(d):
        p1 = 0.5 * d * cmath.exp(0.4j)
        return QDConfigG0(zeros=[-p1], poles=[1.0, -1.0, 1j, -1j, p1])

    return DegenerationFamily(
        name="zero-pole",
        config=mk,
        pairing=[(0, 5), (2, 4), (3, 1)],
        collide=frozenset({0, 5}),
    )


def zero_zero_family() -> DegenerationFamily:
    """The two simple zeros of a 6-pole configuration collide."""
    poles = [2.0, -2.0, -1.0 - 1.5j, -1.0 + 1.5j, 1.0 + 1.5j, 1.0 - 1.5j]

    def mk(d):
        z1 = 0.5 * d * cmath.exp(0.4j)
        return QDConfigG0(zeros=[z1, -z1], poles=poles)

    return DegenerationFamily(
        name="zero-zero",
        config=mk,
        pairing=[(0, 1), (3, 4), (5, 6), (7, 2)],
        collide=frozenset({0, 1}),
    )


FAMILIES = {"zero-pole": zero_pole_family, "zero-zero": zero_zero_family}


def degeneration_rows(family: DegenerationFamily, branches=(1, -1)):
    """Per-schedule-point diagnostics: the collapsing period t, the
    slopes dlog tau+-/dd, and the running boundary exponents
    t * (dlog tau/dd) / (dt/dd)."""
    rows = []
    for d in family.schedule:
        conn = build_connection(family.config(d), pairing=family.pairing)
        pe = conn.pe
        idx = family.collapsing_loop(pe.cycles)
        t_here = pe.loop_periods(pe.frame_poly(v_numerator(conn.config)))[idx]
        dv = conn.v_velocities(*_tangent(family.config, d, 1e-3 * d))
        dt = dv[idx]
        row = {"d": d, "t": complex(t_here), "dt": complex(dt)}
        for branch in branches:
            slope = conn.dlog_tau(branch, dv)
            row[("dlog", branch)] = slope
            row[("gamma", branch)] = float((slope * t_here / dt).real)
        rows.append(row)
    return rows


def fit_exponent(ds, gammas, tail=8):
    """Extrapolate gamma(d) = gamma_inf + C d^p over the power grid;
    the best-residual power wins.  Residuals within roundoff
    (64 eps |gamma|) of the best tie, as every power fits two points
    exactly; among ties the power whose correction |C| d_min^p is least
    wins, for two points the largest p.  Returns (gamma_inf, p,
    residual)."""
    ds = np.asarray(ds, dtype=float)[-tail:]
    gs = np.asarray(gammas, dtype=float)[-tail:]
    fits = []
    for p in P_GRID:
        design = np.vstack([np.ones_like(ds), ds**p]).T
        coef, *_ = np.linalg.lstsq(design, gs, rcond=None)
        resid = float(np.linalg.norm(design @ coef - gs))
        fits.append((float(coef[0]), p, resid, abs(coef[1]) * ds.min()**p))
    floor = (min(fit[2] for fit in fits)
             + 64.0 * np.finfo(float).eps * np.linalg.norm(gs))
    return min((fit for fit in fits if fit[2] <= floor),
               key=lambda fit: fit[3])[:3]


def degeneration_exponent(family: DegenerationFamily, branches=(1, -1)):
    """(exponents, rows): the extrapolated boundary exponent per branch
    plus the raw schedule rows for reporting."""
    rows = degeneration_rows(family, branches=branches)
    ds = [r["d"] for r in rows]
    out = {}
    for branch in branches:
        g_inf, p, resid = fit_exponent(ds, [r[("gamma", branch)] for r in rows])
        out[branch] = g_inf
    return out, rows
