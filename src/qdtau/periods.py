"""Period integrals over the cycle system.

Every form is F dx/yhat with one representation: a polynomial part in
the frame z = (x - c)/s (`frame`: the branch points' centroid c and
largest distance s from it), coefficients highest degree first, degree
at most 2g, plus principal parts at the branch points b, the
coefficients of 1/(x - b)^j, j = 1, 2 (`tau.principal_parts`).  All of
a form's loop periods are its parts times two maps the engine builds
once (`PeriodEngine.loop_periods`): the power map P, every loop's
periods of z^k dx/yhat, and, only once a form has poles, the pole map
L, every loop's periods of dx/((x - b)^j yhat).  A polynomial held in x
converts once (`PeriodEngine.frame_poly`).

Both maps are read off each loop's moment table: the periods of
u^k dx/yhat, k <= 2g, in the loop's spine coordinate u (`LoopGeometry`;
the powers block), then, once L is asked for, those of
dx/((x - b)^j yhat) at the branch points b the loop keeps explicit (the
far-pole block, `PeriodEngine.loop_split`).  A loop's column of P
shifts z's powers to u's (`affine_shift`).  Its column of L trades the
poles at or crowding its spine for polynomials in u by the exact forms
d(yhat/(x - b)^j) (`pole_reductions`), the pole step of Kedlaya's
reduction, and reads the far ones off the far-pole block.  Neither map
depends on a form.

Each block is one stacked Gauss-Jacobi spine ladder with the
inverse-square-root endpoint weight, from the rung the loop's worst
Bernstein parameter predicts (`quadrature.first_rung`); the two blocks
share the sheet weight yhat at every rung they both reach.  A loop
period is twice that spine integral times the loop's orientation sign,
which is read off the lift (`PeriodEngine.sigma`) without any
quadrature.  A loop where either block's ladder does not settle (a
foreign branch point too close) integrates both blocks on one stacked
stadium contour.

Tables and both maps are cached, so every cycle period, including
those of a transformed basis, is an integer combination of cached
numbers.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .curves import build_cover
from .cycles import CycleSystem, GeometryError, build_cycles_robust
from .quadrature import (QuadratureError, adaptive_line, first_rung,
                         spine_integral)


def affine_shift(a, b, n):
    """S with (a + b u)^j = sum over i of S[j, i] u^i, for j, i < n;
    for arrays a and b, S[j, i] is an array of their shape."""
    s = np.zeros((n, n) + getattr(a, "shape", ()), dtype=complex)
    s[0, 0] = 1.0
    for j in range(1, n):
        s[j] = a * s[j - 1]
        s[j, 1:] += b * s[j - 1, :-1]
    return s


class LoopGeometry(NamedTuple):
    """A loop's spine coordinate u = (x - mid) / half."""

    mid: complex
    half: complex


def pole_rows(x, far):
    """The far-pole block's rows at x: 1/(x - b), then 1/(x - b)^2, for
    b in far."""
    d = 1.0 / (x - far[:, None])
    return np.concatenate([d, d * d])


def v_numerator(config):
    """f = sqrt(scale) * prod(x - z_i) (highest degree first) with
    v = sqrt(scale) yhat dx / m = f dx / yhat, as R = Z m."""
    return np.sqrt(complex(config.scale)) * np.poly(
        np.array(config.zeros, dtype=complex))


def deflate(p, b):
    """(q, r) with p = (x - b) q + r, by synthetic division; p may be a
    stack of polynomials (along the last axis, highest degree first)
    and b an array of divisors, broadcast against the stack."""
    p = np.asarray(p)
    q = np.empty(np.broadcast_shapes(p.shape[:-1], np.shape(b))
                 + (p.shape[-1] - 1,), dtype=complex)
    acc = 0.0
    for i in range(q.shape[-1]):
        acc = acc * b + p[..., i]
        q[..., i] = acc
    return q, acc * b + p[..., -1]


def pole_reductions(points, rows=None):
    """E[i, j - 1], coefficients highest degree first, with
    dx / ((x - b)^j yhat) = E[i, j - 1] dx / yhat modulo d(yhat /
    (x - b)^j), for b = points[k], k = rows[i] (every point by default)
    and yhat^2 = prod(x - points); ``points`` may also hold one point
    set per row.  With R = (x - b) S_k and W = (S_k - S_k(b)) / (x - b):
    1 / ((x-b)^j yhat) = [S_k'/(2j - 1) - W] / (S_k(b) (x-b)^(j-1) yhat).
    Every S_k comes from one product over the points that skips point k
    in row k, and the divisions run on the whole stack."""
    pts = np.asarray(points, dtype=complex)
    n = pts.shape[-1]
    rows = np.arange(n) if rows is None else np.asarray(rows)
    pts = np.broadcast_to(pts, (len(rows), n))
    skip = rows[:, None] == np.arange(n)
    b = pts[skip]
    roots = np.where(skip, 0.0, pts)
    sb = np.where(skip, 1.0, b[:, None] - pts).prod(axis=1)
    s = np.zeros((len(rows), n), dtype=complex)
    s[:, 0] = 1.0
    for i in range(n):
        s[:, 1:] -= roots[:, i:i + 1] * s[:, :-1]
    ds = s[:, :-1] * np.arange(n - 1, 0, -1)
    w = deflate(s, b)[0]
    e1 = (ds - w) / sb[:, None]
    q, r = deflate((ds / 3.0 - w) / sb[:, None], b)
    e2 = r[:, None] * e1
    e2[:, 1:] += q
    return np.stack([e1, e2], axis=1)


def frame(points):
    """(c, s): the points' centroid and their largest distance from it,
    the frame z = (x - c)/s of every polynomial part (module
    docstring).  The centroid sums the points in sorted order, so the
    frame, and every period, is bit for bit the same however they are
    labelled."""
    c = np.sort(points).mean()
    return c, np.abs(points - c).max()


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
        self._sigmas = {}
        self._points = np.asarray(self.curve.branch_points, dtype=complex)
        self._degree = 2 * self.curve.genus
        ends = np.array([(cycles.pairs if lp.kind == "cut"
                          else cycles.gap_ends)[lp.index]
                         for lp in cycles.loops])
        a, b = self._points[ends].T
        self._mids, self._halves = (a + b) / 2.0, (b - a) / 2.0
        self.frame = frame(self._points)
        c, s = self.frame
        # z's powers, highest first, in every loop's u: [k, i, loop]
        self._shifts = affine_shift((self._mids - c) / s, self._halves / s,
                                    self._degree + 1)[::-1]
        self._splits = {}
        self._tables = {}
        self._weights = {}
        self._failed = set()
        self._norm = None
        self._power_map = None
        self._pole_map = None

    @classmethod
    def for_config(cls, config, tol: float = 1e-11) -> "PeriodEngine":
        """Engine on the configuration's cover and robust cycle system,
        with the configuration's pairing."""
        curve = build_cover(config)
        return cls(build_cycles_robust(curve, pairing=config.pairing), tol)

    def loop_geometry(self, loop_idx) -> LoopGeometry:
        """The loop's spine coordinate: mid and half of the segment
        between the branch points at its spine's ends."""
        return LoopGeometry(self._mids[loop_idx], self._halves[loop_idx])

    def loop_split(self, loop_idx):
        """(close, far) index arrays of the branch points a form reduces
        on the loop and those it keeps explicit on the table's far-pole
        block: close are the points nearer its spine than half their
        nearest-neighbour distance (the spine's ends, and foreign points
        crowding it).  Reducing a pole divides by its distances to the
        other points, so a pole reduced on every loop would bring
        coefficients ~1/d^2 near a pinching cut of length d, whose
        roundoff swamps far loops."""
        if loop_idx not in self._splits:
            geo = self.loop_geometry(loop_idx)
            u = (self._points - geo.mid) / geo.half
            close = (np.abs(geo.half * (u - np.clip(u.real, -1, 1)))
                     < 0.5 * nearest_distances(self._points))
            self._splits[loop_idx] = (np.flatnonzero(close),
                                      np.flatnonzero(~close))
        return self._splits[loop_idx]

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

    def loop_period(self, loop_idx: int):
        """The loop's column of the power map: its periods of
        z^k dx/yhat, k = 2g, ..., 0, the frame's powers shifted to u
        times its table's powers block."""
        rows = self._degree + 1
        return self._shifts[..., loop_idx] @ self.moment_table(
            loop_idx, rows)[:rows]

    @property
    def fallback_loops(self):
        """Indices of the loops whose spine ladder failed, sorted."""
        return sorted(self._failed)

    def moment_table(self, loop_idx, rows):
        """The loop's moment table (module docstring), at least its
        first ``rows`` rows: each block from one stacked spine ladder,
        the far-pole block only when asked for; once a ladder fails,
        the whole table from one stacked stadium contour, for good."""
        table = self._tables.get(loop_idx, np.zeros(0, dtype=complex))
        if len(table) < rows:
            try:
                while len(table) < rows:
                    table = np.concatenate(
                        [table, self._spine_block(loop_idx, len(table) > 0)])
            except QuadratureError:
                self._failed.add(loop_idx)
                table = self.contour_loop_period(self._table_rows(loop_idx),
                                                 loop_idx)
            self._tables[loop_idx] = table
        return table

    def _spine_block(self, loop_idx, poles):
        """The powers block of the loop's table, or with ``poles`` its
        far-pole block: twice the stacked spine integral, from the
        loop's first rung, times sigma.  On the spine u = t, and a cut
        loop's spine takes yhat's boundary value.  The weight
        half sqrt(1 - t^2) / yhat is kept per rung, so the far-pole
        ladder evaluates yhat only on rungs the powers ladder did not
        reach.  The far-pole block completes the table, so the weights
        go once it settles."""
        geo = self.loop_geometry(loop_idx)
        lp = self.cycles.loops[loop_idx]
        far = self._points[self.loop_split(loop_idx)[1]] if poles else None
        weights = self._weights.setdefault(loop_idx, {})

        def g(t):
            x = geo.mid + t * geo.half
            if len(t) not in weights:
                y = (self.ev.y_oncut(lp.index, t, +1) if lp.kind == "cut"
                     else self.ev.y(x))
                weights[len(t)] = geo.half * np.sqrt((1.0 - t) * (1.0 + t)) / y
            rows = (pole_rows(x, far) if poles
                    else np.vander(t, self._degree + 1, True).T)
            return rows * weights[len(t)]

        val, _ = spine_integral(g, -0.5, -0.5, tol=self.tol,
                                start=self.first_rungs[loop_idx])
        if poles:
            del self._weights[loop_idx]
        return 2.0 * self.sigma(loop_idx) * val

    def _table_rows(self, loop_idx):
        """fn(x, sheet): both blocks of the loop's table, the stacked
        integrand of its stadium contour."""
        geo = self.loop_geometry(loop_idx)
        far = self._points[self.loop_split(loop_idx)[1]]
        return lambda x, sheet: np.concatenate(
            [np.vander((x - geo.mid) / geo.half, self._degree + 1, True).T,
             pole_rows(x, far)]) / self.ev.y(x, sheet)

    def frame_poly(self, coeffs):
        """The frame coefficients (module docstring) of the polynomial
        with coefficients ``coeffs`` in x, highest degree first (rows of
        a stack allowed), of degree at most 2g: x = c + s z."""
        p = np.asarray(coeffs, dtype=complex)[..., ::-1]
        shift = affine_shift(*self.frame, self._degree + 1)
        return (p @ shift[:p.shape[-1]])[..., ::-1]

    def power_map(self):
        """P, shape (2g + 1, loops): column i is `loop_period(i)`.
        Built once per engine."""
        if self._power_map is None:
            self._power_map = np.array(
                [self.loop_period(i) for i in range(len(self.cycles.loops))]).T
        return self._power_map

    def pole_map(self):
        """L, shape (2 len(points), loops): row 2k + j - 1 holds every
        loop's period of dx/((x - b_k)^j yhat).  A loop's column reduces
        the points it calls close in its u, where 1/(x - b)^j =
        half^-j / (u - beta)^j (`pole_reductions`; one stack for every
        loop), on its powers block, and reads the others off its
        far-pole block, which nothing else asks for.  Built once per
        engine."""
        if self._pole_map is None:
            loops = range(len(self.cycles.loops))
            splits = [self.loop_split(i) for i in loops]
            owner = np.repeat(loops, [len(close) for close, _ in splits])
            beta = ((self._points - self._mids[:, None])
                    / self._halves[:, None])
            red = pole_reductions(
                beta[owner],
                np.concatenate([close for close, _ in splits]))[..., ::-1]
            rows = self._degree + 1
            cols = []
            for idx, (close, far) in enumerate(splits):
                table = self.moment_table(idx, rows + 2 * len(far))
                laurent = np.empty((len(self._points), 2), dtype=complex)
                laurent[close] = ((red[owner == idx] @ table[:rows])
                                  * self._halves[idx] ** -np.arange(1.0, 3.0))
                laurent[far] = table[rows:].reshape(2, -1).T
                cols.append(laurent.ravel())
            self._pole_map = np.array(cols).T
        return self._pole_map

    def loop_periods(self, poly, laurent=None):
        """Loop periods, shape (..., loops), of the forms whose
        polynomial part in the frame is poly (2g + 1 coefficients,
        highest degree first; rows of a stack allowed) and whose
        principal parts are laurent, shape (..., points, 2), with
        laurent[..., k, j - 1] the coefficient of 1/(x - b_k)^j:
        poly @ P, plus laurent @ L when there are poles."""
        out = np.asarray(poly) @ self.power_map()
        if laurent is not None:
            out = out + (laurent.reshape(laurent.shape[:-2] + (-1,))
                         @ self.pole_map())
        return out

    def period_velocities(self, f, f_dot, b_dot):
        """d/ds of every loop period of f(z) dx/yhat, for f in the frame
        (as in `loop_periods`, rows of a stack allowed) whose
        coefficients move with velocity f_dot while branch point k moves
        with b_dot[k]; shape (..., loops).

        Moving b turns f dx/yhat into f b_dot dx / (2 (x - b) yhat)
        (Rauch's variational formula).  With x - b = s (z - w) and
        f = f(w) + (z - w) q, that is the polynomial q b_dot / (2s) plus
        the simple pole f(w) b_dot / 2 at b, so the velocities go
        through the pole map as phi's periods do."""
        c, s = self.frame
        moving = np.flatnonzero(b_dot)
        bd = 0.5 * np.asarray(b_dot, dtype=complex)[moving]
        f = np.asarray(f, dtype=complex)
        q, fw = deflate(f[..., None, :], (self._points[moving] - c) / s)
        poly = np.array(f_dot, dtype=complex)
        poly[..., 1:] += (bd / s) @ q
        laurent = np.zeros(f.shape[:-1] + (len(self._points), 2),
                           dtype=complex)
        laurent[..., moving, 0] = fw * bd
        return self.loop_periods(poly, laurent if moving.size else None)

    def period_matrix_velocity(self, b_dot):
        """d/ds of the period matrix while branch point k moves with
        b_dot[k]: Omega = A^-1 B gives dOmega = N (dB - dA Omega)."""
        g = self.curve.genus
        n, omega = self.normalized_basis()
        f = self.frame_poly(np.eye(g)[::-1])
        raw = self.period_velocities(f, np.zeros_like(f), b_dot)
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
        raw = self.loop_periods(self.frame_poly(np.eye(g)[::-1]))
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
        # Riemann's second bilinear relation, Im Omega > 0: recorded for
        # `qdtau periods`, never raised
        self.omega_imag_min_eig = float(np.linalg.eigvalsh(omega.imag).min())
        out = (N, omega)
        if default:
            self._norm = out
        return out

    def period_matrix(self):
        return self.normalized_basis()[1]

    def homological_coordinates(self, poly=None):
        """(alpha periods, beta periods) of the form with polynomial
        part poly in the frame (`loop_periods`), v by default."""
        if poly is None:
            if self.curve.config is None:
                raise ValueError("v needs a configuration-backed curve")
            poly = self.frame_poly(v_numerator(self.curve.config))
        vals = self.loop_periods(poly)
        return self.cycles.alpha_mat @ vals, self.cycles.beta_mat @ vals
