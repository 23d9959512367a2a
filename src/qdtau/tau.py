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

phi has double-pole growth at branch points, so its periods go through
the stadium contours, never the inter-endpoint spine shortcut.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .curves import QDConfigG0, build_cover
from .cycles import build_cycles_robust
from .periods import PeriodEngine, v_diff
from .bergman import BergmanEvaluator
from .cover_homology import blocks, transform_basis

# phi = PHI_PREF * (S_v - S_B) / v, coefficient form
PHI_PREF = 2.0 / (1j * np.pi)

# relative sign between the phi x v pairing and the kappa weights,
# pinned on the reference configuration against the stratum constants
DUAL_SIGN = 1.0

# candidate correction powers for the boundary-exponent fit
P_GRID = (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 4.0 / 3.0, 1.5, 2.0)


def sv_coeff(config: QDConfigG0):
    """Coefficient of the projective connection of the flat coordinate
    of v, via the logarithmic derivative L of the v coefficient:
    S_v = L' - L^2/2 with L = (1/2) d/dx log q."""
    zs = np.array(config.zeros, dtype=complex)
    ps = np.array(config.poles, dtype=complex)

    def coeff(x):
        x = np.asarray(x, dtype=complex)[..., None]
        dz, dp = x - zs, x - ps
        L = 0.5 * np.sum(1.0 / dz, axis=-1) - 0.5 * np.sum(1.0 / dp, axis=-1)
        Lp = (0.5 * np.sum(1.0 / dp**2, axis=-1)
              - 0.5 * np.sum(1.0 / dz**2, axis=-1))
        return Lp - 0.5 * L * L

    return coeff


def phi_fn(bergman: BergmanEvaluator, config: QDConfigG0, branch: int):
    """fn(x, sheet) for the one-form phi of the given branch (+1 even,
    -1 odd), suitable for the contour period routes."""
    sv = sv_coeff(config)
    sqrt_c = np.sqrt(complex(config.scale))
    mco = np.poly([complex(p) for p in config.poles])

    def fn(x, sheet):
        s = sv(x)
        if branch < 0:
            s = s + 12.0 * bergman.t_coeff(x)
        return PHI_PREF * s * np.polyval(mco, x) / (sqrt_c * bergman.ev.y(x, sheet))

    return fn


class TauConnection:
    """Periods of phi+- and v over one symplectic basis.

    The kernel evaluator is built lazily: plain v-period work never
    pays for the probe solve.
    `tag` keys the engine's contour cache; two connections sharing one
    engine (a basis change) must carry distinct tags.
    """

    def __init__(self, engine: PeriodEngine, config: QDConfigG0,
                 bergman=None, alpha_mat=None, beta_mat=None, tag="base"):
        self.pe = engine
        self.config = config
        self._be = bergman
        self.alpha_mat = engine.cycles.alpha_mat if alpha_mat is None else alpha_mat
        self.beta_mat = engine.cycles.beta_mat if beta_mat is None else beta_mat
        self.tag = tag
        self._phi = {}

    @property
    def be(self) -> BergmanEvaluator:
        if self._be is None:
            self._be = BergmanEvaluator(self.pe)
        return self._be

    def v_periods(self):
        vals = self.pe.loop_periods(v_diff(self.pe.cycles.curve))
        return self.alpha_mat @ vals, self.beta_mat @ vals

    def v_velocities(self, b_dot, c_dot):
        """d/ds of every loop period of v = sqrt(c) Z(x) dx/yhat,
        Z = prod(x - z_i), while branch point k (zeros, then poles)
        moves with velocity b_dot[k] and the scale with c_dot."""
        zeros = self.config.zeros
        sqrt_c = np.sqrt(self.config.scale)
        z_poly = np.poly(np.array(zeros, dtype=complex))
        f = sqrt_c * z_poly
        f_dot = (c_dot / (2.0 * self.config.scale)) * f
        for z, zd in zip(zeros, b_dot):
            z_rest = np.polydiv(z_poly, [1.0, -z])[0]
            f_dot = np.polysub(f_dot, sqrt_c * zd * z_rest)
        return self.pe.period_velocities(f, f_dot, b_dot)

    def dlog_tau(self, branch: int, dv) -> complex:
        """dlog tau of the branch along a path on which the loop
        periods of v move with velocity dv."""
        pa, pb = self.phi_periods(branch)
        return complex(np.sum(-pb * (self.alpha_mat @ dv)
                              + pa * (self.beta_mat @ dv)))

    def phi_periods(self, branch: int):
        if branch not in self._phi:
            fn = phi_fn(self.be, self.config, branch)
            key = ("phi", branch, self.tag)
            pa = np.array(
                [self.pe.contour_combo_period(fn, r, key=key) for r in self.alpha_mat]
            )
            pb = np.array(
                [self.pe.contour_combo_period(fn, r, key=key) for r in self.beta_mat]
            )
            self._phi[branch] = (pa, pb)
        return self._phi[branch]

    def euler_pairing(self, branch: int) -> complex:
        """Contraction of dlog tau with the scaling field; equals the
        kappa weight of the stratum."""
        va, vb = self.v_periods()
        pa, pb = self.phi_periods(branch)
        return DUAL_SIGN * 0.5 * complex(np.sum(pa * vb - pb * va))


def build_connection(config: QDConfigG0, pairing=None) -> TauConnection:
    curve = build_cover(config)
    cycles = build_cycles_robust(curve, pairing=pairing)
    return TauConnection(PeriodEngine(cycles), config)


def _tangent(make_config, s, h=1e-5):
    """(branch-point velocities, scale velocity) of the path at s, by a
    central difference of its coordinates only; no engine is built."""
    lo, hi = make_config(s - h), make_config(s + h)
    b_dot = np.subtract(hi.branch_points(), lo.branch_points()) / (2.0 * h)
    return b_dot, (hi.scale - lo.scale) / (2.0 * h)


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
        return QDConfigG0(
            zeros=config.zeros,
            poles=config.poles,
            scale=complex(config.scale) * cmath.exp(s),
            tolerance=config.tolerance,
            pairing=config.pairing,
        )

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
        tag=("sigma", sig.tobytes()),
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
        for k, pr in enumerate(cycles._pairs):
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


def degeneration_rows(family: DegenerationFamily, branches=(1, -1)):
    """Per-schedule-point diagnostics: the collapsing period t, the
    slopes dlog tau+-/dd, and the running boundary exponents
    t * (dlog tau/dd) / (dt/dd)."""
    rows = []
    for d in family.schedule:
        conn = build_connection(family.config(d), pairing=family.pairing)
        pe = conn.pe
        idx = family.collapsing_loop(pe.cycles)
        t_here = pe.loop_period(v_diff(pe.cycles.curve), idx)
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
    the best-residual power wins.  Returns (gamma_inf, p, residual)."""
    ds = np.asarray(ds, dtype=float)[-tail:]
    gs = np.asarray(gammas, dtype=float)[-tail:]
    best = None
    for p in P_GRID:
        design = np.vstack([np.ones_like(ds), ds**p]).T
        coef, *_ = np.linalg.lstsq(design, gs, rcond=None)
        resid = float(np.linalg.norm(design @ coef - gs))
        if best is None or resid < best[2]:
            best = (float(coef[0]), p, resid)
    return best


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
