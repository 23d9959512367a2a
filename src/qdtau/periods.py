"""Period integrals over the cycle system.

The engine integrates moment tables, never forms.  A loop's table
(`LoopGeometry`) holds the periods of u^k dx/yhat, k <= 2g, in the
spine coordinate u (the powers block), then, once a form asks for them,
those of dx/((x - b)^j yhat), j = 1, 2, at the branch points b the loop
keeps explicit (the far-pole block, `PeriodEngine.loop_split`).  Every
polynomial `Differential` is its coefficient vector on the powers block,
and its loop period is that vector times the table.  Forms with poles
at the branch points (phi) go through the engine's reduction map
(`PeriodEngine.reduction_map`): its column for a loop folds the poles
at or crowding the spine, traded for polynomials in u by the exact
forms d(yhat/(x-b)^j) (`pole_reductions`), and the far-pole rows into
the loop's table, so all of such a form's loop periods are one product
of its principal parts with that map.

Each block is one stacked Gauss-Jacobi spine ladder with the
inverse-square-root endpoint weight, from the rung the loop's worst
Bernstein parameter predicts (`quadrature.first_rung`); the two blocks
share the sheet weight yhat at every rung they both reach.  A loop
period is twice that spine integral times the loop's orientation sign,
which is read off the lift (`PeriodEngine.sigma`) without any
quadrature.  A loop where either block's ladder does not settle (a
foreign branch point too close) integrates both blocks on one stacked
stadium contour.

Tables, the reduction map and every form's loop periods are cached, so
every cycle period, including those of a transformed basis, is an
integer combination of cached numbers.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .curves import build_cover
from .cycles import CycleSystem, GeometryError, build_cycles_robust
from .quadrature import (QuadratureError, adaptive_line, first_rung,
                         spine_integral)


class Differential(NamedTuple):
    """mu-odd differential f(x) dx / yhat for a polynomial f, given by
    its coefficients on each loop's moment table: ``moments`` maps the
    loop's LoopGeometry to a vector (a (k, rows) stack for k stacked
    forms) on the table's powers block."""

    key: tuple
    moments: Callable


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
    """A loop's spine coordinate u = (x - mid) / half and the degree
    (2g) of its table's powers block; ``shift`` takes a polynomial's
    coefficients in x, lowest degree first, to those in u (computed once
    per loop, `PeriodEngine.loop_geometry`)."""

    mid: complex
    half: complex
    degree: int
    shift: np.ndarray

    def poly_moments(self, coeffs, c=0.0, s=1.0):
        """Powers-block coefficients of the polynomial p((x - c)/s),
        with p's coefficients highest degree first (rows of a stack
        allowed): its coefficients in u, lowest first, as
        (x - c)/s = (mid - c)/s + (half/s) u."""
        p = np.asarray(coeffs, dtype=complex)[..., ::-1]
        shift = self.shift if (c, s) == (0.0, 1.0) else affine_shift(
            (self.mid - c) / s, self.half / s, self.degree + 1)
        return p @ shift[:p.shape[-1]]


def pole_rows(x, far):
    """The far-pole block's rows at x: 1/(x - b), then 1/(x - b)^2, for
    b in far."""
    d = 1.0 / (x - far[:, None])
    return np.concatenate([d, d * d])


def poly_diff(key, coeffs) -> Differential:
    """f dx / yhat for the polynomial f, coefficients highest degree
    first (or rows of them for a stack)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return Differential(key, lambda geo: geo.poly_moments(coeffs))


def holo_diff(j: int) -> Differential:
    return poly_diff(("holo", j), np.eye(j + 1)[0])


def holo_basis(g: int) -> Differential:
    """x^j dx / yhat for j < g, stacked."""
    return poly_diff(("holo-basis", g), np.eye(g)[::-1])


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
    the frame of `tau.principal_parts`' polynomial part."""
    c = points.mean()
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
        self._loop_cache = {}
        self._sigmas = {}
        self._points = np.asarray(self.curve.branch_points, dtype=complex)
        self._geometry = {}
        self._splits = {}
        self._tables = {}
        self._weights = {}
        self._failed = set()
        self._norm = None
        self._reduction = None
        self._reduced = {}
        self._x_reductions = None

    @classmethod
    def for_config(cls, config, tol: float = 1e-11) -> "PeriodEngine":
        """Engine on the configuration's cover and robust cycle system,
        with the configuration's pairing."""
        curve = build_cover(config)
        return cls(build_cycles_robust(curve, pairing=config.pairing), tol)

    def loop_geometry(self, loop_idx) -> LoopGeometry:
        """The loop's spine coordinate: mid and half of the segment
        between the branch points at its spine's ends."""
        if loop_idx not in self._geometry:
            lp = self.cycles.loops[loop_idx]
            ends = (self.cycles.pairs if lp.kind == "cut"
                    else self.cycles.gap_ends)[lp.index]
            a, b = self._points[list(ends)]
            mid, half = (a + b) / 2.0, (b - a) / 2.0
            degree = 2 * self.curve.genus
            self._geometry[loop_idx] = LoopGeometry(
                mid, half, degree, affine_shift(mid, half, degree + 1))
        return self._geometry[loop_idx]

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

    def loop_period(self, diff: Differential, loop_idx: int):
        """The loop's period of diff: its moment coefficients on the
        loop times the loop's table."""
        key = (diff.key, loop_idx)
        if key not in self._loop_cache:
            m = diff.moments(self.loop_geometry(loop_idx))
            rows = m.shape[-1]
            self._loop_cache[key] = m @ self.moment_table(loop_idx, rows)[:rows]
        return self._loop_cache[key]

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
                    else np.vander(t, geo.degree + 1, True).T)
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
            [np.vander((x - geo.mid) / geo.half, geo.degree + 1, True).T,
             pole_rows(x, far)]) / self.ev.y(x, sheet)

    def loop_periods(self, diff: Differential):
        return np.array(
            [self.loop_period(diff, i) for i in range(len(self.cycles.loops))]
        )

    def reduction_map(self):
        """M, shape (2g + 1 + 2 len(points), loops): the loop periods of
        forms F dx/yhat whose `tau.principal_parts` are (poly, laurent)
        are [poly, laurent flattened] @ M.  A loop's column folds into
        its moment table the polynomial part's shift from (x - c)/s
        (`frame`) to u, the principal parts at the points the loop
        reduces (`pole_reductions` in u, where 1/(x - b)^j =
        half^-j / (u - beta)^j; one stack for every loop), and those at
        the points it keeps, which are far-pole rows.  Built once per
        engine."""
        if self._reduction is None:
            c, s = frame(self._points)
            loops = range(len(self.cycles.loops))
            mids, halves = np.array([(g.mid, g.half) for g in
                                     map(self.loop_geometry, loops)]).T
            degree = 2 * self.curve.genus
            monomials = affine_shift((mids - c) / s, halves / s,
                                     degree + 1)[::-1]
            splits = [self.loop_split(i) for i in loops]
            owner = np.repeat(loops, [len(close) for close, _ in splits])
            red = pole_reductions(
                ((self._points - mids[:, None]) / halves[:, None])[owner],
                np.concatenate([close for close, _ in splits]))[..., ::-1]
            cols = []
            for idx, (close, far) in enumerate(splits):
                table = self.moment_table(idx, degree + 1 + 2 * len(far))
                powers = table[:degree + 1]
                laurent = np.empty((len(self._points), 2), dtype=complex)
                laurent[close] = ((red[owner == idx] @ powers)
                                  * halves[idx] ** -np.arange(1.0, 3.0))
                laurent[far] = table[degree + 1:].reshape(2, -1).T
                cols.append(np.concatenate([monomials[..., idx] @ powers,
                                            laurent.ravel()]))
            self._reduction = np.array(cols).T
        return self._reduction

    def reduced_periods(self, key, poly, laurent):
        """Loop periods, shape (k, loops), of the k stacked forms whose
        principal parts are (poly, laurent) (`reduction_map`), cached
        under ``key``, which must fix them."""
        if key not in self._reduced:
            parts = laurent.reshape(laurent.shape[:-2] + (-1,))
            self._reduced[key] = (np.concatenate([poly, parts], axis=-1)
                                  @ self.reduction_map())
        return self._reduced[key]

    def period_velocities(self, f, f_dot, b_dot):
        """d/ds of every loop period of f(x) dx/yhat, for a polynomial f
        (coefficients highest degree first, or rows of a stack) whose
        coefficients move with velocity f_dot while branch point k moves
        with b_dot[k]; shape (loops,), or (loops, rows) for a stack.

        Moving b turns f dx/yhat into f b_dot / (2 (x-b) yhat) dx
        (Rauch's variational formula).  With f = f(b) + (x-b) q and the
        exact-form step of `pole_reductions` (computed once per engine
        for every point), the derivative is again a polynomial over
        yhat, read off the cached tables."""
        if self._x_reductions is None:
            self._x_reductions = pole_reductions(self._points)[:, 0]
        moving = np.flatnonzero(b_dot)
        bd = 0.5 * np.asarray(b_dot, dtype=complex)[moving]
        q, fb = deflate(np.asarray(f, dtype=complex)[..., None, :],
                        self._points[moving])
        num = (fb * bd) @ self._x_reductions[moving]
        num[..., num.shape[-1] - q.shape[-1]:] += bd @ q
        f_dot = np.asarray(f_dot, dtype=complex)
        num[..., num.shape[-1] - f_dot.shape[-1]:] += f_dot
        return self.loop_periods(
            poly_diff(("poly", num.shape, num.tobytes()), num))

    def period_matrix_velocity(self, b_dot):
        """d/ds of the period matrix while branch point k moves with
        b_dot[k]: Omega = A^-1 B gives dOmega = N (dB - dA Omega)."""
        g = self.curve.genus
        n, omega = self.normalized_basis()
        raw = self.period_velocities(np.eye(g)[::-1], np.zeros(1), b_dot).T
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
        # Riemann's second bilinear relation, Im Omega > 0: recorded for
        # `qdtau periods`, never raised
        self.omega_imag_min_eig = float(np.linalg.eigvalsh(omega.imag).min())
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
