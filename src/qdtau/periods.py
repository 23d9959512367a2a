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
Bernstein parameter predicts (`quadrature.first_rung`).  Every block
an engine lacks climbs in one lockstep `spine_integral` call, each
ladder at its own rung and by its own acceptance test; a loop's two
ladders start from one rung, so a step weighs each loop's nodes once:
one `kernels.eval_sheet1` call for the gap loops and one
`kernels.eval_oncut` call for the cut loops.  Each ladder's rule sums
are products over its own nodes, the sheet weights times the rule's
moments (`quadrature.jacobi_moments`) for the powers block and the
far-pole rows times the weighted sheet weights for the far-pole block,
so each block is bit for bit what its loop's own ladder gives.  An
engine asked for L first (`tau.TauConnection` is) builds both blocks
in that one call; a bare engine builds the powers blocks only.  A loop
period is twice that spine integral times the loop's orientation sign,
which is read off the lift (`PeriodEngine.sigma`) without any
quadrature.  The ladder reaches 2,440 points, which settles every loop
of the collision families' rows down to d = 3.9e-4; a loop where
either block's ladder still does not settle (a foreign branch point
closer yet) integrates both blocks on one stacked stadium contour, and
keeps for P a powers block that settled.

Tables and both maps are cached, so every cycle period, including
those of a transformed basis, is an integer combination of cached
numbers.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .curves import build_cover
from .cycles import CycleSystem, GeometryError, build_cycles_robust
from .quadrature import (adaptive_line, first_rung, jacobi_moments,
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
        self.first_rungs = first_rung(cycles.spine_rhos(), tol).tolist()
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
        self._splits = {}
        self._tables = {}
        self._failed = set()
        # per loop, the powers block its column of P reads
        self._powers = {}
        self._defects = {}
        self._settled = {}
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
        times its powers block: the spine block its ladder settled on,
        kept where a far-pole ladder's failure gave the loop its contour
        table, else the contour's."""
        self.moment_table(loop_idx, self._degree + 1)
        return self._shifts[..., loop_idx] @ self._powers[loop_idx]

    @property
    def fallback_loops(self):
        """Indices of the loops whose spine ladder failed, sorted."""
        return sorted(self._failed)

    @property
    def loop_defects(self):
        """Per loop, the largest defect of its table's spine ladders
        (the last two rungs' difference, in units of its periods); None
        for a loop whose table came from the contour or is not built."""
        return [None if i in self._failed else self._defects.get(i)
                for i in range(len(self.cycles.loops))]

    @property
    def settled_rungs(self):
        """Per loop, the SPINE_SIZES index each built block's ladder
        settled on (the powers block, then the far-pole block); None as
        in `loop_defects`."""
        return [None if i in self._failed else self._settled.get(i)
                for i in range(len(self.cycles.loops))]

    def moment_table(self, loop_idx, rows):
        """The loop's moment table (module docstring), at least its
        first ``rows`` rows: each block from its own spine ladder, the
        far-pole block only when asked for; once a ladder fails, the
        whole table from one stacked stadium contour, for good."""
        self._tabulate([loop_idx], poles=rows > self._degree + 1)
        return self._tables[loop_idx]

    def _tabulate(self, loops, poles=False):
        """Build the loops' tables through the powers block, or with
        ``poles`` through the far-pole block: every block they lack in
        one lockstep `_spine_blocks` call."""
        rows = self._degree + 1
        blocks = []
        for i in loops:
            if i not in self._tables:
                blocks.append((i, False))
            if (poles and len(self._tables.get(i, ())) <= rows
                    and len(self.loop_split(i)[1])):
                blocks.append((i, True))
        if blocks:
            self._spine_blocks(blocks)

    def _spine_blocks(self, blocks):
        """Append each (loop, poles) block to its loop's table, in
        order: the powers block, or with ``poles`` the far-pole block,
        each twice its stacked spine integral, from the loop's first
        rung, times sigma.  Every block is its own ladder, and all of
        them climb in one lockstep `spine_integral`, whose integrand
        forms each ladder's rule sums as products over its own nodes:
        the sheet weights times the rule's moments for the powers
        block, the rows of `pole_rows` times the rule-weighted sheet
        weights for the far-pole block.  On a spine u = t, and a cut
        loop's spine takes yhat's boundary value.  A loop where either
        ladder fails takes its whole table from its stadium contour."""
        rows = self._degree + 1
        far = {i: self._points[self.loop_split(i)[1]]
               for i, poles in blocks if poles}

        def g(nodes):
            t, k = nodes["t"], nodes["ladder"]
            edges = (np.flatnonzero(k[1:] != k[:-1]) + 1).tolist()
            runs = list(zip([blocks[j] for j in k[[0] + edges].tolist()],
                            [0] + edges, edges + [len(k)]))
            # a loop's two ladders stand on one rung at every step they
            # share, so each loop's nodes take one sheet weight
            spans = {}
            for (i, _), a, b in runs:
                spans.setdefault(i, (a, b))
            weights = dict(zip(spans, self._sheet_weights(
                t, [(i, a, b) for i, (a, b) in spans.items()])))
            sums = []
            for (i, poles), a, b in runs:
                s = weights[i]
                if not poles:
                    # the real moments against the weights' real and
                    # imaginary parts, with no complex copy of them
                    m = jacobi_moments(b - a, -0.5, -0.5, rows)
                    sums.append((m @ s.view(float).reshape(-1, 2))
                                .view(complex).ravel())
                    continue
                ws = nodes["w"][a:b] * s
                d = 1.0 / (self._mids[i] + t[a:b] * self._halves[i]
                           - far[i][:, None])
                first = d @ ws
                # then 1/(x - b)^2, squared in place
                sums.append(np.concatenate([first, np.square(d, out=d) @ ws]))
            return sums

        vals, defects, rungs = spine_integral(
            g, -0.5, -0.5, tol=self.tol,
            start=[self.first_rungs[i] for i, _ in blocks])
        for (i, poles), val, defect, rung in zip(blocks, vals, defects,
                                                 rungs):
            if i in self._failed:
                continue
            if val is None:
                self._failed.add(i)
                self._tables[i] = self.contour_loop_period(
                    self._table_rows(i), i)
                self._powers.setdefault(i, self._tables[i][:rows])
                continue
            self._defects[i] = max(self._defects.get(i, 0.0),
                                   2.0 * float(defect))
            self._settled.setdefault(i, []).append(int(rung))
            block = 2.0 * self.sigma(i) * val
            if not poles:
                self._powers[i] = block
            self._tables[i] = np.concatenate(
                [self._tables.get(i, np.zeros(0, dtype=complex)), block])

    def _sheet_weights(self, t, spans):
        """half sqrt(1 - t^2) / yhat at the nodes t of each span
        (loop, a, b), on the loop's spine: the sheet weight of the spine
        rule, one array per span, from one `eval_sheet1` call on the gap
        loops and one `eval_oncut` call on the cut loops."""
        at = np.concatenate([np.arange(a, b) for _, a, b in spans])
        on = np.repeat([i for i, _, _ in spans], [b - a for _, a, b in spans])
        tt = t[at]
        cut = self._cut_of[on]
        oncut = cut >= 0
        y = np.empty(len(at), dtype=complex)
        if not oncut.all():
            gap = on[~oncut]
            y[~oncut] = self.ev.y(self._mids[gap]
                                  + tt[~oncut] * self._halves[gap])
        if oncut.any():
            y[oncut] = self.ev.y_oncut(cut[oncut], tt[oncut], +1)
        w = self._halves[on] * np.sqrt((1.0 - tt) * (1.0 + tt)) / y
        ends = np.cumsum([b - a for _, a, b in spans]).tolist()
        return [w[end - (b - a):end] for (_, a, b), end in zip(spans, ends)]

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
            beta = ((self._points - self._mids[:, None])
                    / self._halves[:, None])
            red = pole_reductions(
                beta[owner],
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
