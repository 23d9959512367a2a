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

Each loop's blocks are stacked Gauss-Jacobi sums with the
inverse-square-root endpoint weight, on one rule whose size is read
off a rigorous error bound before anything is evaluated
(`PeriodEngine._rules`): the integrand's modulus on the Bernstein
ellipses inside the loop's nearest foreign branch point bounds its
Chebyshev coefficients (`quadrature.chebyshev_bounds`), relative to a
lower bound of the integrand on the spine, so the size does not change
under x -> a x + b.  Every block an engine lacks goes to one
`spine_integral` call whose integrand weighs every loop's nodes at
once, with one `kernels.eval_sheet1` call for the gap loops and one
`kernels.eval_oncut` call for the cut loops, and forms each block's
sums as products over its loop's nodes: the sheet weights times the
rule's moments (`quadrature.jacobi_moments`) for the powers block, the
far-pole rows times the weighted sheet weights for the far-pole block.
An engine asked for L first (`tau.TauConnection` is) builds both
blocks in that one call; a bare engine builds the powers blocks only.
A loop period is twice that spine integral times the loop's
orientation sign, which is read off the lift (`PeriodEngine.sigma`)
without any quadrature.  The rules reach 2,440 points, which keeps
every loop of the collision families' rows down to d = 1.95e-4 on its
spine; a loop where a block's bound fits no size (a foreign branch
point closer yet) integrates both blocks on one stacked stadium
contour, and keeps for P a powers block that fits.

Tables and both maps are cached, so every cycle period, including
those of a transformed basis, is an integer combination of cached
numbers.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .curves import build_cover
from .cycles import CycleSystem, GeometryError, build_cycles_robust
from .quadrature import (SPINE_SIZES, adaptive_line, chebyshev_bounds,
                         jacobi_moments, spine_integral)

# the Bernstein parameters at which each spine's error bound is tried,
# r = rho^f for these f (`PeriodEngine._rules`): the best r for an
# n-point rule lies near rho^(1 - 1/(4n log rho)), and consecutive f
# halve 1 - f, so one of them is within a factor two of it from a dozen
# points to a few thousand
BOUND_EXPONENTS = 1.0 - 0.5 ** np.arange(1.0, 11.0)


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
        self._points = np.asarray(self.curve.branch_points, dtype=complex)
        self._degree = 2 * self.curve.genus
        # loops are the cuts, then the gaps
        ncuts = len(cycles.pairs)
        a, b = self._points[np.array(cycles.pairs + cycles.gap_ends)].T
        self._mids, self._halves = (a + b) / 2.0, (b - a) / 2.0
        # each loop's cut index, -1 for a gap loop
        self._cut_of = np.concatenate([np.arange(ncuts),
                                       np.full(len(cycles.gap_ends), -1)])
        self.frame = frame(self._points)
        c, s = self.frame
        # z's powers in every loop's u and, in the last column, x's in
        # z, as x = c + s z: [k, i, loop]
        shifts = affine_shift(np.append((self._mids - c) / s, c),
                              np.append(self._halves / s, s),
                              self._degree + 1)
        # z's powers, highest first, in every loop's u
        self._shifts = shifts[::-1, :, :-1]
        self._frame_shift = np.ascontiguousarray(shifts[..., -1])
        # every point in every loop's u: [loop, point]
        self._beta = ((self._points - self._mids[:, None])
                      / self._halves[:, None])
        close = self._closeness()
        self._splits = [(np.flatnonzero(c), np.flatnonzero(~c))
                        for c in close]
        self._sizes, self._far_fits, self._bounds = self._rules(close)
        self._tables = {}
        self._failed = set()
        # per loop, the powers block its column of P reads
        self._powers = {}
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
        block (`_closeness`)."""
        return self._splits[loop_idx]

    def _closeness(self):
        """[loop, point]: whether the point is nearer the loop's spine
        than half its nearest-neighbour distance (the spine's ends, and
        foreign points crowding it), every loop in one broadcast.
        Reducing a pole divides by its distances to the other points,
        so a pole reduced on every loop would bring coefficients ~1/d^2
        near a pinching cut of length d, whose roundoff swamps far
        loops."""
        beta = self._beta
        return (np.abs(self._halves[:, None]
                       * (beta - np.clip(beta.real, -1, 1)))
                < 0.5 * nearest_distances(self._points))

    def _rules(self, close):
        """(sizes, far_fits, bounds), per loop: the size of the spine
        rule of its table, None where no SPINE_SIZES entry meets the
        powers block's bound; whether the far-pole block also meets its
        bound at that size; and the larger bound of the blocks that do.
        ``close`` is `_closeness`; the far-pole block holds the other
        foreign points.

        On a spine, u = (w + 1/w)/2, and a foreign point b is
        mid + half (W + 1/W)/2 with |W| = rho_b, its Bernstein
        parameter, so x - b = (half/2)(w - W)(1 - 1/(wW)).  The spine's
        own ends cancel sqrt(1 - t^2), so the integrand's modulus is
        |g| = prod over foreign b of |x - b|^(-1/2), analytic inside the
        ellipse E_r for every r < rho, the least rho_b, where
        |x - b| >= delta_b(r) = (|half|/2)(rho_b - r)(1 - 1/(r rho_b))
        and |g| <= M(r) = prod delta_b(r)^(-1/2).  Each bound is relative
        to S = prod (|mid - b| + |half|)^(-1/2), at most min |g| on the
        spine.  The powers rows u^k, k <= 2g, are at most 1 on the spine
        and ((r + 1/r)/2)^(2g) on E_r.  A far-pole row 1/(x - b)^j is at
        least (|mid - b| + |half|)^-j on the spine and at most
        delta_b(r)^-j on E_r, so its bound is relative to S times that
        least value as well.  Every factor is a ratio of lengths, and no
        size changes under x -> a x + b.  A loop takes the first size
        whose bound (`chebyshev_bounds`, least over the r = rho^f,
        f in BOUND_EXPONENTS) meets tol, the far-pole block's too where
        one does, so both blocks share its nodes."""
        rho_b = self.cycles.point_rhos
        own = np.isinf(rho_b)
        log_r = np.log(self.cycles.spine_rhos())[:, None] * BOUND_EXPONENTS
        r = np.exp(log_r)[:, None, :]
        rb = rho_b[:, :, None]
        half = np.abs(self._halves)[:, None, None]
        delta = 0.5 * half * (rb - r) * (1.0 - 1.0 / (r * rb))
        reach = half * (np.abs(self._beta)[:, :, None] + 1.0)
        # log(reach / delta), 0 at the loop's own ends: [loop, point, r]
        log_q = np.log(np.where(own[:, :, None], 1.0, reach / delta))
        far = ~close & ~own
        # [block, loop, size]: the powers block's bounds, then the
        # far-pole block's
        bounds = chebyshev_bounds(0.5 * log_q.sum(axis=1) + np.stack(
            [self._degree * np.log((r[:, 0] + 1.0 / r[:, 0]) / 2.0),
             2.0 * np.where(far[:, :, None], log_q, 0.0).max(axis=1)]),
            log_r)
        fits = bounds <= self.tol
        ok = fits[0].any(axis=1)
        far_fits = ok & fits[1].any(axis=1) & far.any(axis=1)
        k = np.where(far_fits, fits.argmax(axis=2).max(axis=0),
                     fits[0].argmax(axis=1))
        at = bounds[:, np.arange(len(k)), k]
        bound = np.where(far_fits, at.max(axis=0), at[0])
        return ([SPINE_SIZES[i] if fit else None
                 for i, fit in zip(k.tolist(), ok.tolist())],
                far_fits.tolist(),
                [e if fit else None
                 for e, fit in zip(bound.tolist(), ok.tolist())])

    def sigma(self, loop_idx: int) -> int:
        """Orientation factor: loop period = 2*sigma*spine integral.
        The stadium's first side runs from a to b right of the spine:
        sigma is the lift's sheet at its midpoint M, negated for a cut
        loop, whose spine takes the left boundary value of yhat (the
        negative of the right one).  A cut loop crosses no cut, so its
        sigma is -1; gap loop k's is `build_cycles`' e_k, -1 exactly
        where cut k crosses the first side, by this proof.

        For the gap [a, b] between cuts k = [c, a] and k + 1 = [b, d],
        let m be the spine's midpoint, e the unit vector to the right
        along which the first side, from a + ra e to b + rb e, touches
        both caps, and r the mean of the cap radii, so M = m + r e.  Caps
        are at most 0.45 of the loop's clearance, which bounds the
        distance from the spine to every foreign branch point and to
        every cut but k and k + 1.
        (i) No cut crosses [m, M], so the sheet at M is the spine's.
        Say cut k met [m, M] at p, |p - m| = s < r, with
        c = a + t (p - a), t > 1.  For t <= 2, c would lie within
        t s <= 2 s of the spine point a + t (m - a), yet the clearance
        is at least r / 0.45 > 2 r.  So t > 2 and the cut passes
        through b + 2 (p - m), within 2 s of b.  That bounds the
        clearance of both cut loops, at a and at b, by 2 s, so the
        gap's radii, at most 0.8 of those caps, are at most
        0.8 * 0.45 * 2 s = 0.72 s < r: a contradiction.  Cut k + 1 is
        the same case with a and b swapped.
        (ii) Only cut k can cross the first side before M, and only
        there.  [m, M] splits the stadium's right half into the convex
        trapezoids T_a = (a, a + ra e, M, m) and T_b.  Cut k + 1 has
        both ends outside T_a (d past the clearance) and meets none of
        its edges but the first side's: not the spine but at b (an
        overlap would leave a spine without clearance), not [m, M], and
        not [a, a + ra e], as ra is at most 0.8 * 0.45 of cut k's
        clearance, which is at most its distance from a.  A segment
        entering a convex region leaves it by another edge, so cut
        k + 1 misses T_a; by symmetry cut k misses T_b, and the left
        half, run from b to a, meets them in the other order.  So the
        lift crosses cut k first, and the sheet at M is -1, exactly
        when cut k crosses the first side; at the side's start, where
        the lift starts, the crossing counts on the side."""
        return int(self.cycles.sigmas[loop_idx])

    def loop_period(self, loop_idx: int):
        """The loop's column of the power map: its periods of
        z^k dx/yhat, k = 2g, ..., 0, the frame's powers shifted to u
        times its powers block: the spine block, kept where a far-pole
        block that fits no rule gave the loop its contour table, else
        the contour's."""
        self.moment_table(loop_idx, self._degree + 1)
        return self._shifts[..., loop_idx] @ self._powers[loop_idx]

    @property
    def fallback_loops(self):
        """Indices of the loops whose tables came from the contour,
        sorted."""
        return sorted(self._failed)

    @property
    def rule_sizes(self):
        """Per loop, the size of the spine rule of its table (`_rules`);
        None for a loop whose table came from the contour, or whose
        powers block no size fits."""
        return [None if i in self._failed else n
                for i, n in enumerate(self._sizes)]

    @property
    def loop_bounds(self):
        """Per loop, the error bound its spine rule meets (`_rules`), a
        relative error like the tolerance it is held to: the larger of
        its blocks', the far-pole block's where that fits; None as in
        `rule_sizes`."""
        return [None if i in self._failed else e
                for i, e in enumerate(self._bounds)]

    def moment_table(self, loop_idx, rows):
        """The loop's moment table (module docstring), at least its
        first ``rows`` rows: each block from the loop's spine rule, the
        far-pole block only when asked for; once a block's bound fits no
        size, the whole table from one stacked stadium contour, for
        good."""
        self._tabulate([loop_idx], poles=rows > self._degree + 1)
        return self._tables[loop_idx]

    def _tabulate(self, loops, poles=False):
        """Build the loops' tables through the powers block, or with
        ``poles`` through the far-pole block: every block they lack that
        fits on its spine in one `spine_integral` call, then each loop
        with a block that does not fit from its stadium contour."""
        rows = self._degree + 1
        spine, contour = [], []
        for i in loops:
            powers = i not in self._tables
            far = (poles and len(self._tables.get(i, ())) <= rows
                   and len(self.loop_split(i)[1]) > 0)
            fits = far and self._far_fits[i]
            if powers and self._sizes[i] is None or far and not fits:
                contour.append(i)
            if self._sizes[i] is not None and (powers or fits):
                spine.append((i, powers, fits))
        if spine:
            self._spine_blocks(spine)
        for i in contour:
            self._failed.add(i)
            self._tables[i] = self.contour_loop_period(self._table_rows(i), i)
            self._powers.setdefault(i, self._tables[i][:rows])

    def _spine_blocks(self, blocks):
        """Append each (loop, powers, poles) entry's blocks to its
        loop's table, in order: the powers block if ``powers``, then the
        far-pole block if ``poles``, each twice its stacked spine
        integral times sigma.  One `spine_integral` call takes every
        loop's rule, and its integrand weighs all their nodes at once
        (`_sheet_weights`), then forms each block's sums as products
        over its loop's nodes: the sheet weights times the rule's
        moments for the powers block, the rows of `pole_rows` times the
        rule-weighted sheet weights for the far-pole block.  On a spine
        u = t, and a cut loop's spine takes yhat's boundary value."""
        rows = self._degree + 1
        loops = np.array([i for i, _, _ in blocks])
        sizes = [self._sizes[i] for i in loops.tolist()]
        ends = np.cumsum(sizes).tolist()

        def g(nodes):
            t = nodes["t"]
            s = self._sheet_weights(t, loops[nodes["rule"]])
            sums = []
            for (i, powers, poles), n, b in zip(blocks, sizes, ends):
                a = b - n
                out = []
                if powers:
                    # the real moments against the weights' real and
                    # imaginary parts, with no complex copy of them
                    m = jacobi_moments(n, -0.5, -0.5, rows)
                    out.append((m @ s[a:b].view(float).reshape(-1, 2))
                               .view(complex).ravel())
                if poles:
                    ws = nodes["w"][a:b] * s[a:b]
                    far = self._points[self.loop_split(i)[1]]
                    d = 1.0 / (self._mids[i] + t[a:b] * self._halves[i]
                               - far[:, None])
                    out.append(d @ ws)
                    # then 1/(x - b)^2, squared in place
                    out.append(np.square(d, out=d) @ ws)
                sums.append(out)
            return sums

        for (i, powers, _), out in zip(blocks, spine_integral(
                g, -0.5, -0.5, sizes)):
            block = 2.0 * self.sigma(i) * np.concatenate(out)
            if powers:
                self._powers[i] = block[:rows]
            self._tables[i] = np.concatenate(
                [self._tables.get(i, np.zeros(0, dtype=complex)), block])

    def _sheet_weights(self, t, on):
        """half sqrt(1 - t^2) / yhat at the nodes t, node k on loop
        on[k]'s spine: the sheet weights of the spine rules, from one
        `eval_sheet1` call on the gap loops' nodes and one `eval_oncut`
        call on the cut loops'."""
        cut = self._cut_of[on]
        oncut = cut >= 0
        y = np.empty(len(t), dtype=complex)
        if not oncut.all():
            gap = on[~oncut]
            y[~oncut] = self.ev.y(self._mids[gap]
                                  + t[~oncut] * self._halves[gap])
        if oncut.any():
            y[oncut] = self.ev.y_oncut(cut[oncut], t[oncut], +1)
        return self._halves[on] * np.sqrt((1.0 - t) * (1.0 + t)) / y

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
        a stack allowed), of degree at most 2g: x = c + s z, through
        the shift of x's powers to z's that the engine builds with its
        loops' shifts, once."""
        p = np.asarray(coeffs, dtype=complex)[..., ::-1]
        return (p @ self._frame_shift[:p.shape[-1]])[..., ::-1]

    def power_map(self):
        """P, shape (2g + 1, loops): column i is `loop_period(i)`.
        Built once per engine."""
        if self._power_map is None:
            loops = range(len(self.cycles.loops))
            self._tabulate(loops)
            self._power_map = np.array([self.loop_period(i)
                                        for i in loops]).T
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
            red = pole_reductions(
                self._beta[owner],
                np.concatenate([close for close, _ in splits]))[..., ::-1]
            rows = self._degree + 1
            self._tabulate(loops, poles=True)
            cols = []
            for idx, (close, far) in enumerate(splits):
                table = self._tables[idx]
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
    # route where a block's bound fits no spine rule; fn(x, sheet) is the
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
