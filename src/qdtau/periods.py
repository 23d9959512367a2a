"""Period integrals over the cycle system.

Every differential is integrated as f(x) dx / yhat with f regular at
the branch points (poles there are first traded for polynomials by the
exact forms d(yhat/(x-b)^j), `pole_reductions`).  On every loop such a
form's period is twice a spine integral with the inverse-square-root
endpoint weight, times the loop's orientation sign, which is read off
the lift (`PeriodEngine.sigma`) without any quadrature.  Only a spine
whose Jacobi ladder does not settle (a foreign branch point too close)
falls back to the stadium contour.  Each ladder starts at the rung the
loop's worst Bernstein parameter predicts (`quadrature.first_rung`).
On a loop whose spine failed, one stacked contour integrates the
loop's moment table (`PeriodEngine.moment_table`), and every form reads
its period off it: each `Differential` carries its coefficients on
that table (polynomial numerators, and phi's reduced ones), so no form
runs a contour of its own.

Per-loop values are cached, so every cycle period, including those of
a transformed basis, is an integer combination of cached numbers.  The
sheet values on each loop's spine are cached per Gauss-Jacobi rule
size too: every differential integrated over a loop climbs the same
ladder of rules, so yhat is evaluated once per node, not once per
differential.
"""

from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple

import numpy as np

from .curves import build_cover
from .cycles import CycleSystem, GeometryError, build_cycles_robust
from .quadrature import (QuadratureError, adaptive_line, first_rung,
                         spine_integral)


class Differential(NamedTuple):
    """mu-odd differential f(x) dx / yhat; ``fn`` maps complex arrays
    to complex arrays and must be regular at branch points; a stack of
    k arrays gives k-vectors of periods, integrated in one pass.
    ``moments`` maps a loop's LoopGeometry to f's coefficients on that
    loop's moment table (a (k, rows) stack for a stacked f), the route
    of its period where the spine fails."""

    key: tuple
    fn: Callable
    moments: Callable


class LoopGeometry(NamedTuple):
    """A loop's spine coordinate u = (x - mid) / half and the branch
    points its forms reduce (``close``) or keep explicit (``far``), as
    index arrays (`PeriodEngine.loop_geometry`).  The loop's moment
    table holds the periods of u^j dx/yhat for j <= degree (= 2g), then
    of dx/((x - b) yhat) and of dx/((x - b)^2 yhat) for b in far."""

    mid: complex
    half: complex
    close: np.ndarray
    far: np.ndarray
    degree: int

    def poly_moments(self, coeffs, c=0.0, s=1.0):
        """Table coefficients of the polynomial p((x - c)/s), with p's
        coefficients highest degree first (rows of a stack allowed):
        its coefficients in u, lowest first, then zeros for the far
        poles.  (x - c)/s = a + b u, and (a + b u)^j expands
        binomially."""
        p = np.asarray(coeffs, dtype=complex)[..., ::-1]
        a, b = (self.mid - c) / s, self.half / s
        shift = np.zeros((p.shape[-1], self.degree + 1), dtype=complex)
        for j in range(p.shape[-1]):
            for i in range(j + 1):
                shift[j, i] = comb(j, i) * a ** (j - i) * b ** i
        u = p @ shift
        return np.concatenate(
            [u, np.zeros(u.shape[:-1] + (2 * len(self.far),))], axis=-1)


def poly_diff(key, coeffs, fn=None) -> Differential:
    """f dx / yhat for the polynomial f, coefficients highest degree
    first (or rows of them for a stack, with ``fn`` evaluating the
    stack); ``fn`` defaults to Horner's rule."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return Differential(key,
                        fn or (lambda x: np.polyval(coeffs, x)),
                        lambda geo: geo.poly_moments(coeffs))


def holo_diff(j: int) -> Differential:
    return poly_diff(("holo", j), np.eye(j + 1)[0],
                     lambda x: np.asarray(x) ** j)


def holo_basis(g: int) -> Differential:
    """x^j dx / yhat for j < g, stacked."""
    return poly_diff(("holo-basis", g), np.eye(g)[::-1],
                     lambda x: np.asarray(x) ** np.arange(g)[:, None])


def v_numerator(config):
    """f = sqrt(scale) * prod(x - z_i) (highest degree first) with
    v = sqrt(scale) yhat dx / m = f dx / yhat, as R = Z m."""
    return np.sqrt(complex(config.scale)) * np.poly(
        np.array(config.zeros, dtype=complex))


def v_diff(curve) -> Differential:
    if curve.config is None:
        raise ValueError("v needs a configuration-backed curve")
    return poly_diff(("v",), v_numerator(curve.config))


def deflate(p, b):
    """(q, r) with p = (x - b) q + r, by synthetic division."""
    q = np.empty(len(p) - 1, dtype=complex)
    acc = 0.0
    for i in range(len(q)):
        acc = acc * b + p[i]
        q[i] = acc
    return q, acc * b + p[-1]


def pole_reductions(points, k):
    """(e_1, e_2): dx / ((x - b)^j yhat) = e_j dx / yhat modulo d(yhat /
    (x - b)^j), b = points[k], yhat^2 = prod(x - points).  With
    R = (x - b) S, W = (S - S(b)) / (x - b) (S(b) as a product):
    1 / ((x-b)^j yhat) = [S'/(2j - 1) - W] / (S(b) (x-b)^(j-1) yhat)."""
    pts = np.asarray(points, dtype=complex)
    b, others = pts[k], np.delete(pts, k)
    s = np.poly(others)
    sb = np.prod(b - others)
    w, ds = deflate(s, b)[0], np.polyder(s)
    e1 = (ds - w) / sb
    q, r = deflate((ds / 3.0 - w) / sb, b)
    return e1, np.polyadd(q, r * e1)


def nearest_distances(pts):
    """Each point's distance to its nearest neighbour among pts."""
    gaps = np.abs(pts[:, None] - pts)
    np.fill_diagonal(gaps, np.inf)
    return gaps.min(axis=1)


class PeriodEngine:
    def __init__(self, cycles: CycleSystem, tol: float = 1e-11):
        self.cycles = cycles
        self.curve = cycles.curve
        self.ev = cycles.evaluator
        self.tol = tol
        self._scale = max(abs(b) for b in self.curve.branch_points) + 1.0
        self.first_rungs = [first_rung(rho, tol)
                            for rho in cycles.spine_rhos()]
        self._loop_cache = {}
        self._spine_cache = {}
        self._sigmas = {}
        self._points = np.asarray(self.curve.branch_points, dtype=complex)
        self._nearest = None
        self._geometry = {}
        self._tables = {}
        self._failed = set()
        self._norm = None

    @classmethod
    def for_config(cls, config, tol: float = 1e-11) -> "PeriodEngine":
        """Engine on the configuration's cover and robust cycle system,
        with the configuration's pairing."""
        curve = build_cover(config)
        return cls(build_cycles_robust(curve, pairing=config.pairing), tol)

    def spine_ends(self, loop_idx):
        """Branch-point indices (i, j) of the ends of the loop's spine."""
        lp = self.cycles.loops[loop_idx]
        if lp.kind == "cut":
            return self.cycles.pairs[lp.index]
        return self.cycles.gap_ends[lp.index]

    def loop_geometry(self, loop_idx) -> LoopGeometry:
        """The loop's spine coordinate and its close/far split: close
        are the points nearer its spine than half their nearest-neighbour
        distance (the spine's ends, and foreign points crowding it).
        Reducing a pole divides by its distances to the other points, so
        a pole reduced on every loop would bring coefficients ~1/d^2 near
        a pinching cut of length d, whose roundoff swamps far loops."""
        if loop_idx not in self._geometry:
            if self._nearest is None:
                self._nearest = nearest_distances(self._points)
            mid, half = self._spine(loop_idx)
            u = (self._points - mid) / half
            close = (np.abs(half * (u - np.clip(u.real, -1, 1)))
                     < 0.5 * self._nearest)
            self._geometry[loop_idx] = LoopGeometry(
                mid, half, np.flatnonzero(close), np.flatnonzero(~close),
                2 * self.curve.genus)
        return self._geometry[loop_idx]

    # midpoint and half-vector of the loop's spine
    def _spine(self, loop_idx):
        i, j = self.spine_ends(loop_idx)
        a, b = self.curve.branch_points[i], self.curve.branch_points[j]
        return (a + b) / 2.0, (b - a) / 2.0

    def _spine_nodes(self, loop_idx, t):
        """(x, sqrt(1 - t^2), yhat) at the spine's rule nodes t, cached
        per (loop, rule size): every differential integrated over the
        loop climbs the same ladder of Gauss-Jacobi rules, and t, the
        nodes of the one (-1/2, -1/2) rule of each size, is fixed by
        its length.  A cut loop's spine takes yhat's boundary value."""
        key = (loop_idx, len(t))
        if key not in self._spine_cache:
            mid, half = self._spine(loop_idx)
            lp = self.cycles.loops[loop_idx]
            x = mid + t * half
            if lp.kind == "cut":
                y = self.ev.y_oncut(lp.index, t, +1)
            else:
                y = self.ev.y(x)
            self._spine_cache[key] = (x, np.sqrt((1.0 - t) * (1.0 + t)), y)
        return self._spine_cache[key]

    def spine_half_period(self, diff: Differential, loop_idx: int):
        """Integral of f dx/yhat along the loop's spine (one pass), from
        the loop's first rung."""
        half = self._spine(loop_idx)[1]

        def g(t):
            x, w, y = self._spine_nodes(loop_idx, t)
            return diff.fn(x) * half * w / y

        val, _ = spine_integral(g, -0.5, -0.5, tol=self.tol,
                                start=self.first_rungs[loop_idx])
        return val

    def sigma(self, loop_idx: int) -> int:
        """Orientation factor: loop period = 2*sigma*spine integral,
        read off the lift.  The stadium's first side runs from a to b
        right of the spine: sigma is the lift's sheet at its midpoint,
        negated for a cut loop, whose spine takes the left boundary
        value of yhat (the negative of the right one).

        No other cut crosses the straight path from the spine's
        midpoint m to that midpoint m + r e (e a unit vector, r the mean
        of the cap radii ra, rb), so the sheet there is the spine's.
        Caps are at most 0.45 of the loop's clearance, which bounds the
        distance from the spine to every foreign branch point and to
        every cut but the loop's own and a gap loop's two adjacent
        ones; those stay out of reach.  Say the adjacent cut [a, c]
        of the gap [a, b] met the path at p, |p - m| = s < r, with
        c = a + t (p - a), t > 1.  For t <= 2, c would lie within
        t s <= 2 s of the spine point a + t (m - a), yet the clearance
        is at least r / 0.45 > 2 r.  So t > 2 and the cut passes
        through b + 2 (p - m), within 2 s of b.  That bounds the
        clearance of both cut loops, at a and at b, by 2 s, so the
        gap's radii, at most 0.8 of those caps, are at most
        0.8 * 0.45 * 2 s = 0.72 s < r: a contradiction.  The cut
        at b is the same case with a and b swapped."""
        if loop_idx not in self._sigmas:
            lp = self.cycles.loops[loop_idx]
            sign = lp.sheet_at(0, 0.5)
            self._sigmas[loop_idx] = -sign if lp.kind == "cut" else sign
        return self._sigmas[loop_idx]

    def loop_period(self, diff: Differential, loop_idx: int):
        """The loop's period of diff: twice its spine integral times
        sigma; on a loop whose spine failed once (a foreign branch point
        too close for the Jacobi ladder), read off the loop's moment
        table."""
        key = (diff.key, loop_idx)
        if key in self._loop_cache:
            return self._loop_cache[key]
        if loop_idx not in self._failed:
            try:
                val = 2.0 * self.sigma(loop_idx) * self.spine_half_period(
                    diff, loop_idx)
            except QuadratureError:
                self._failed.add(loop_idx)
        if loop_idx in self._failed:
            val = (diff.moments(self.loop_geometry(loop_idx))
                   @ self.moment_table(loop_idx))
        self._loop_cache[key] = val
        return val

    @property
    def fallback_loops(self):
        """Indices of the loops whose spine ladder failed, sorted."""
        return sorted(self._failed)

    def moment_table(self, loop_idx):
        """The loop's moment table (`LoopGeometry`), from one stacked
        stadium contour."""
        if loop_idx not in self._tables:
            geo = self.loop_geometry(loop_idx)
            far = self._points[geo.far]

            def fn(x, sheet):
                u = (x - geo.mid) / geo.half
                d = 1.0 / (x - far[:, None])
                return (np.concatenate([np.vander(u, geo.degree + 1, True).T,
                                        d, d * d]) / self.ev.y(x, sheet))

            self._tables[loop_idx] = self.contour_loop_period(fn, loop_idx)
        return self._tables[loop_idx]

    def loop_periods(self, diff: Differential):
        return np.array(
            [self.loop_period(diff, i) for i in range(len(self.cycles.loops))]
        )

    def period_velocities(self, f, f_dot, b_dot):
        """d/ds of every loop period of f(x) dx/yhat, for a polynomial f
        (coefficients highest degree first) whose coefficients move
        with velocity f_dot while branch point k moves with b_dot[k].

        Moving b turns f dx/yhat into f b_dot / (2 (x-b) yhat) dx
        (Rauch's variational formula).  With f = f(b) + (x-b) q and the
        exact-form step of `pole_reductions`, the derivative is again a
        polynomial over yhat and takes the cached spine route."""
        num = np.asarray(f_dot, dtype=complex)
        pts = self.curve.branch_points
        for k, bd in enumerate(b_dot):
            if bd == 0:
                continue
            q, fb = deflate(f, pts[k])
            term = np.polyadd(q, fb * pole_reductions(pts, k)[0])
            num = np.polyadd(num, 0.5 * bd * term)
        return self.loop_periods(poly_diff(("poly", tuple(num)), num))

    def period_matrix_velocity(self, b_dot):
        """d/ds of the period matrix while branch point k moves with
        b_dot[k]: Omega = A^-1 B gives dOmega = N (dB - dA Omega)."""
        g = self.curve.genus
        n, omega = self.normalized_basis()
        zero = np.zeros(g)
        raw = np.array([
            self.period_velocities(np.eye(g)[g - 1 - j], zero, b_dot)
            for j in range(g)
        ])
        d_a = raw @ self.cycles.alpha_mat.T
        d_b = raw @ self.cycles.beta_mat.T
        return n @ (d_b - d_a @ omega)

    # the loop's stadium contour, sheet by sheet: the moment table's
    # route where a spine's ladder does not settle; fn(x, sheet) is the
    # full coefficient of dx, or a (k, npts) stack of k coefficients
    def contour_loop_period(self, fn, loop_idx: int, tol=None):
        lp = self.cycles.loops[loop_idx]
        tol = self.tol * self._scale if tol is None else tol
        total = 0.0 + 0.0j
        for pi, piece in enumerate(lp.pieces):
            cuts = sorted(s for (qi, s, _c) in lp.crossings if qi == pi)
            breaks = [0.0] + cuts + [1.0]
            for s0, s1 in zip(breaks, breaks[1:]):
                if s1 - s0 < 1e-13:
                    continue
                sheet = lp.sheet_at(pi, 0.5 * (s0 + s1))
                total += adaptive_line(
                    lambda s: fn(piece.point(s), sheet) * piece.tangent(s),
                    s0,
                    s1,
                    tol=tol / (2.0 * len(lp.pieces)),
                )
        return total

    # normalized holomorphic basis and the period matrix
    def normalized_basis(self, alpha_mat=None, beta_mat=None):
        """Coefficient matrix N and period matrix for the basis dual to
        the given alpha cycles: row k of N gives omega_k = sum_j N[k,j]
        x^j dx/yhat with alpha_l(omega_k) = delta_kl; Omega[k,l] =
        beta_l(omega_k)."""
        default = alpha_mat is None and beta_mat is None
        if default and self._norm is not None:
            return self._norm
        g = self.curve.genus
        am = self.cycles.alpha_mat if alpha_mat is None else alpha_mat
        bm = self.cycles.beta_mat if beta_mat is None else beta_mat
        raw = self.loop_periods(holo_basis(g)).T
        A = raw @ am.T  # A[j, l] = alpha_l period of x^j dx/yhat
        if np.linalg.cond(A) > 1e12:
            raise GeometryError("alpha-period matrix is numerically singular")
        N = np.linalg.inv(A)
        B = raw @ bm.T
        omega = N @ B
        defect = np.max(np.abs(omega - omega.T)) / max(1.0, np.max(np.abs(omega)))
        if defect > 1e-7:
            raise GeometryError(f"period matrix asymmetry {defect:.2e}")
        self.omega_defect = defect
        omega = 0.5 * (omega + omega.T)
        out = (N, omega)
        if default:
            self._norm = out
        return out

    def period_matrix(self):
        return self.normalized_basis()[1]

    def homological_coordinates(self, diff=None):
        """(alpha periods, beta periods) of v by default."""
        vals = self.loop_periods(v_diff(self.curve) if diff is None else diff)
        return self.cycles.alpha_mat @ vals, self.cycles.beta_mat @ vals
