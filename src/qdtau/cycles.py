"""Cut systems, stadium contours, and a symplectic homology basis.

Branch points, always an even number of them, are joined pairwise by
straight cuts.  Around every cut and every gap between consecutive cuts
we place a stadium-shaped loop: two circular caps joined by tangent
segments.  Loops are lifted to the double cover by tracking cut
crossings, intersection numbers are counted at same-sheet transversal
crossings, and the alpha/beta basis comes out as integer combinations
of the loops, verified against the standard symplectic form exactly.
Caps stay inside each spine's clearance, so a loop encloses no foreign
branch point and crosses only the cuts it must (`build_cycles`); pieces
whose bounding discs are disjoint are never tested for crossings.
`build_cycles_robust` tries three pairings, each once, and prefers the
first whose spines keep clear of foreign branch points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curves import CoverCurve, SheetedEval

CAP_FACTORS = (0.3, 0.18, 0.1, 0.06)
GAP_CAP_SHRINK = 0.8

# an n-point Gauss-Jacobi rule errs like rho^(-2n) on a spine of
# Bernstein parameter rho, and the ladder accepts when two rungs agree,
# so its defect is the lower rung's error: the 356-point rung meets the
# engine's default 1e-11 from this rho (about 1.036) on.  The pairings
# are ranked against it; the rungs above 576 serve pinched spines
SPINE_RHO_MIN = 1e-11 ** (-0.5 / 356)


class GeometryError(RuntimeError):
    """Configuration defeats the contour builder (crossing cuts, a spine
    without clearance, tangencies, or an intersection pattern that is
    not the standard chain)."""


@dataclass(frozen=True)
class Segment:
    a: complex
    b: complex

    def point(self, s):
        return self.a + np.asarray(s) * (self.b - self.a)

    def tangent(self, s):
        return (self.b - self.a) * np.ones_like(np.asarray(s, dtype=float))

    def reversed(self):
        return Segment(self.b, self.a)


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    th0: float
    th1: float  # traversed th0 -> th1; th1 > th0 means counterclockwise

    def point(self, s):
        th = self.th0 + np.asarray(s) * (self.th1 - self.th0)
        return self.center + self.radius * np.exp(1j * th)

    def tangent(self, s):
        th = self.th0 + np.asarray(s) * (self.th1 - self.th0)
        return 1j * (self.th1 - self.th0) * self.radius * np.exp(1j * th)

    def reversed(self):
        return Arc(self.center, self.radius, self.th1, self.th0)


def stadium(a, b, ra, rb):
    """Counterclockwise hippodrome around segment [a, b] with cap radii
    ra at a and rb at b, sides tangent to both caps."""
    d = b - a
    length = abs(d)
    if length <= abs(ra - rb):
        raise GeometryError("cap radii too disparate for tangent sides")
    u = d / length
    base = cmath.phase(u)
    phi = math.acos((ra - rb) / length)
    thp = base + phi
    thm = base - phi
    ep, em = cmath.exp(1j * thp), cmath.exp(1j * thm)
    return [
        Segment(a + ra * em, b + rb * em),
        Arc(b, rb, thm, thp),
        Segment(b + rb * ep, a + ra * ep),
        Arc(a, ra, thp, thm + 2.0 * math.pi),
    ]


@dataclass
class Loop:
    pieces: list
    kind: str  # "cut" or "gap"
    index: int
    # filled in by the builder:
    crossings: list = None  # [(piece_idx, s, cut_idx)] ordered along loop

    def __post_init__(self):
        # discs holding the stadium, which lies within max(ra, rb) of its
        # spine [a, b], and each of its pieces
        ca, cb = self.pieces[3], self.pieces[1]
        self.disc = ((ca.center + cb.center) / 2.0, abs(cb.center - ca.center)
                     / 2.0 + max(ca.radius, cb.radius))
        self.piece_discs = [_piece_disc(p) for p in self.pieces]

    def sheet_at(self, piece_idx, s):
        """Sheet of the lift at parameter s of the given piece."""
        k = 0
        for pi, cs, _ in self.crossings:
            if (pi, cs) < (piece_idx, s):
                k += 1
        return 1 if k % 2 == 0 else -1


# crossing primitives; parameters are accepted only strictly inside
# (margin-trimmed) so shared endpoints never count

_MARGIN = 1e-9


def _seg_seg(p, q):
    d1, d2 = p.b - p.a, q.b - q.a
    ax, ay = d1.real, d1.imag
    bx, by = -d2.real, -d2.imag
    det = ax * by - ay * bx
    rhs = q.a - p.a
    norm = max(abs(d1), abs(d2))
    if abs(det) < 1e-12 * norm * norm:
        return []
    s = (rhs.real * by - rhs.imag * bx) / det
    t = (ax * rhs.imag - ay * rhs.real) / det
    if _MARGIN < s < 1 - _MARGIN and _MARGIN < t < 1 - _MARGIN:
        return [(s, t)]
    return []


def _seg_arc(seg, arc):
    # |a + s d - c|^2 = r^2, quadratic in s
    d = seg.b - seg.a
    f = seg.a - arc.center
    qa = (d * d.conjugate()).real
    qb = 2.0 * (f * d.conjugate()).real
    qc = (f * f.conjugate()).real - arc.radius**2
    disc = qb * qb - 4.0 * qa * qc
    if disc <= 0:
        return []
    root = math.sqrt(disc)
    out = []
    for s in ((-qb - root) / (2 * qa), (-qb + root) / (2 * qa)):
        if not (_MARGIN < s < 1 - _MARGIN):
            continue
        z = seg.point(s)
        t = _arc_param(arc, z)
        if t is not None:
            out.append((s, t))
    return out


def _arc_param(arc, z):
    th = cmath.phase(z - arc.center)
    lo, hi = min(arc.th0, arc.th1), max(arc.th0, arc.th1)
    span = hi - lo
    if span < 1e-14:
        return None
    # fold th into [lo, lo + 2pi)
    while th < lo:
        th += 2.0 * math.pi
    while th >= lo + 2.0 * math.pi:
        th -= 2.0 * math.pi
    if lo + _MARGIN * span < th < hi - _MARGIN * span:
        t = (th - arc.th0) / (arc.th1 - arc.th0)
        return t
    return None


def _arc_arc(a1, a2):
    d = a2.center - a1.center
    dist = abs(d)
    r1, r2 = a1.radius, a2.radius
    if dist < 1e-14 or dist > r1 + r2 or dist < abs(r1 - r2):
        return []
    # radical line construction
    h2 = r1 * r1 - ((dist * dist + r1 * r1 - r2 * r2) / (2 * dist)) ** 2
    if h2 <= 0:
        return []
    half = math.sqrt(h2)
    mid = a1.center + d / dist * ((dist * dist + r1 * r1 - r2 * r2) / (2 * dist))
    perp = 1j * d / dist
    out = []
    for z in (mid + half * perp, mid - half * perp):
        t1 = _arc_param(a1, z)
        t2 = _arc_param(a2, z)
        if t1 is not None and t2 is not None:
            out.append((t1, t2))
    return out


def piece_crossings(p, q):
    """[(s_on_p, t_on_q)] interior transversal crossings."""
    if isinstance(p, Segment) and isinstance(q, Segment):
        return _seg_seg(p, q)
    if isinstance(p, Segment) and isinstance(q, Arc):
        return _seg_arc(p, q)
    if isinstance(p, Arc) and isinstance(q, Segment):
        return [(s, t) for t, s in _seg_arc(q, p)]
    return _arc_arc(p, q)


def _piece_disc(p):
    """(centre, radius) of a disc holding the piece."""
    if isinstance(p, Segment):
        return (p.a + p.b) / 2.0, abs(p.b - p.a) / 2.0
    return p.center, p.radius


def _apart(d1, d2):
    """Whether discs (centre, radius) are disjoint beyond rounding."""
    return abs(d1[0] - d2[0]) > (d1[1] + d2[1]) * (1.0 + 1e-9)


def loop_loop_crossings(la: Loop, lb: Loop):
    """[(i, s, j, t)]: piece i of la meets piece j of lb at parameters
    s, t; piece pairs with disjoint discs are not tested."""
    out = []
    for i, (p, dp) in enumerate(zip(la.pieces, la.piece_discs)):
        for j, (q, dq) in enumerate(zip(lb.pieces, lb.piece_discs)):
            if not _apart(dp, dq):
                out.extend((i, s, j, t) for s, t in piece_crossings(p, q))
    return out


class CycleSystem:
    """Loops plus the integer combinations expressing a symplectic
    basis of the double cover's homology.

    alpha_mat and beta_mat have one row per basis cycle and one column
    per loop; every period of a basis cycle is the matching integer
    combination of per-loop periods.  pairs and gap_ends hold the
    branch-point indices at the ends of each cut and gap spine.
    """

    def __init__(self, curve, evaluator, loops, alpha_mat, beta_mat,
                 pairs, gap_ends):
        self.curve = curve
        self.evaluator = evaluator
        self.loops = loops
        self.alpha_mat = alpha_mat
        self.beta_mat = beta_mat
        self.pairs = pairs
        self.gap_ends = gap_ends
        self.genus = alpha_mat.shape[0]

    def loop_index(self, kind, index):
        for i, lp in enumerate(self.loops):
            if lp.kind == kind and lp.index == index:
                return i
        raise KeyError((kind, index))

    def spine_rhos(self):
        """Per loop, the worst Bernstein parameter
        rho = |u + sqrt(u-1) sqrt(u+1)| (the root of modulus >= 1) of
        any foreign branch point in the loop's spine coordinate
        u = (z - mid) / half, in one broadcast; loops are the cuts, then
        the gaps, as are pairs + gap_ends."""
        pts = np.asarray(self.curve.branch_points)
        ends = np.array(self.pairs + self.gap_ends)[:, :, None]
        a, b = pts[ends[:, 0]], pts[ends[:, 1]]
        u = (2.0 * pts - (a + b)) / (b - a)
        rho = np.abs(u + np.sqrt(u - 1.0) * np.sqrt(u + 1.0))
        own = (np.arange(len(pts)) == ends).any(axis=1)
        return np.where(own, np.inf, np.maximum(rho, 1.0 / rho)).min(axis=1)

    def spine_rho(self):
        """The worst spine_rhos() over every loop."""
        return float(self.spine_rhos().min())


def _seg_dist(p, a, b):
    """Distances from points p to segments [a, b], broadcast.  Written in
    real components: np.hypot rounds as abs() of a Python complex, while
    np.abs and complex products would move caps in the last bit."""
    dx, dy = b.real - a.real, b.imag - a.imag
    l2 = dx * dx + dy * dy
    s = (p.real - a.real) * dx + (p.imag - a.imag) * dy
    s = np.clip(s / np.where(l2 > 0, l2, 1.0), 0.0, 1.0)
    return np.hypot(p.real - (a.real + s * dx), p.imag - (a.imag + s * dy))


def _default_pairing(points):
    order = sorted(range(len(points)), key=lambda i: (points[i].real, points[i].imag))
    return [(order[2 * k], order[2 * k + 1]) for k in range(len(points) // 2)]


def _greedy_pairing(points):
    """Repeatedly join the closest unpaired points; tends to give
    short, mutually distant cuts."""
    left = set(range(len(points)))
    pairs = []
    while len(left) > 1:
        best = None
        for i in left:
            for j in left:
                if j <= i:
                    continue
                d = abs(points[i] - points[j])
                if best is None or d < best[0]:
                    best = (d, i, j)
        pairs.append((best[1], best[2]))
        left.discard(best[1])
        left.discard(best[2])
    return pairs


def _sweep_pairing(points):
    centroid = sum(points) / len(points)
    order = sorted(range(len(points)), key=lambda i: cmath.phase(points[i] - centroid))
    return [(order[2 * k], order[2 * k + 1]) for k in range(len(points) // 2)]


def _lift(loops, cut_segments):
    """Order each loop's cut crossings along the loop: the lift starts
    on sheet +1 and flips at every crossing.  Only gap loop k's
    adjacent cuts k and k + 1 are tested: the caps keep every other
    crossing out of reach (`build_cycles`)."""
    for lp in loops:
        near = () if lp.kind == "cut" else (lp.index, lp.index + 1)
        cr = sorted((pi, s, ci) for pi, piece in enumerate(lp.pieces) for ci in near
                    for s, _t in piece_crossings(piece, cut_segments[ci]))
        if len(cr) % 2:
            raise GeometryError(
                f"{lp.kind} loop {lp.index} crosses cuts an odd number of times")
        lp.crossings = cr


def _intersections(loops):
    """Surface intersection numbers between lifted loops, counted at
    same-sheet crossings; loops with disjoint discs meet nowhere."""
    inter = np.zeros((len(loops), len(loops)), dtype=int)
    for a, la in enumerate(loops):
        for b, lb in enumerate(loops[a + 1:], a + 1):
            if _apart(la.disc, lb.disc):
                continue
            for pi, s, qj, t in loop_loop_crossings(la, lb):
                if la.sheet_at(pi, s) == lb.sheet_at(qj, t):
                    da, db = la.pieces[pi].tangent(s), lb.pieces[qj].tangent(t)
                    cross = (da.conjugate() * db).imag
                    if cross == 0:
                        raise GeometryError("tangential loop crossing")
                    inter[a, b] += 1 if cross > 0 else -1
    return inter - inter.T


def _stadiums(pts, pairs, gap_ends, radii, clamps):
    """Cut loops, then gap loops: each cap at its point's radius, a gap's
    at GAP_CAP_SHRINK of the cut cap it shares, none above its spine's
    clamp."""
    loops = []
    cut_cap = {}
    for k, (i, j) in enumerate(pairs):
        ra, rb = min(radii[i], clamps[k]), min(radii[j], clamps[k])
        cut_cap[i], cut_cap[j] = ra, rb
        loops.append(Loop(stadium(pts[i], pts[j], ra, rb), "cut", k))
    for k, (i, j) in enumerate(gap_ends):
        cl = clamps[len(pairs) + k]
        ra = min(GAP_CAP_SHRINK * cut_cap[i], cl)
        rb = min(GAP_CAP_SHRINK * cut_cap[j], cl)
        loops.append(Loop(stadium(pts[i], pts[j], ra, rb), "gap", k))
    return loops


def _symplectic_basis(loops, ncuts, g):
    """(alpha_mat, beta_mat) of the lifted loops, certified by their
    exact intersection numbers."""
    inter = _intersections(loops)

    # normalize signs along the chain C1 G1 C2 G2 ... so consecutive
    # pairs intersect at +1; loop k is cut k, loop ncuts + k gap k
    chain = [i for k in range(ncuts) for i in (k, ncuts + k)][:-1]
    signs = np.zeros(len(loops), dtype=int)
    signs[0] = 1
    for a, b in zip(chain, chain[1:]):
        raw = inter[a, b]
        if abs(raw) != 1:
            raise GeometryError(
                f"chain neighbors intersect at {raw}; expected a simple chain")
        signs[b] = signs[a] * raw

    # basis as integer loop combinations
    alpha_mat = np.zeros((g, len(loops)), dtype=int)
    beta_mat = np.zeros((g, len(loops)), dtype=int)
    for i in range(g):
        alpha_mat[i, i + 1] = signs[i + 1]
        beta_mat[i, ncuts:ncuts + i + 1] = -signs[ncuts:ncuts + i + 1]

    # exact symplectic verification of the assembled basis
    big = np.vstack([alpha_mat, beta_mat])
    gram = big @ inter @ big.T
    want = np.kron([[0, 1], [-1, 0]], np.eye(g, dtype=int))
    if not np.array_equal(gram, want):
        raise GeometryError(
            f"assembled basis is not symplectic; intersection gram:\n{gram}")
    return alpha_mat, beta_mat


def build_cycles(curve: CoverCurve, pairing=None) -> CycleSystem:
    """Cycle system of the pairing (the sorted one if None).

    The pairing alone fixes the cuts, the gaps and each spine's
    clearance: its distance from every foreign branch point and every
    cut but a cut loop's own and gap k's neighbours k and k + 1.  A
    cut the spine does not cross is nearest it at an end of one of the
    two, and the cut's ends are foreign points, so only the spine's
    ends are measured against it.  Crossing cuts and a spine without
    clearance raise GeometryError before any cap is drawn.

    Caps are at most 0.45 of their spine's clearance, and a stadium
    lies in the convex hull of its cap discs, so within max(ra, rb) of
    its spine, short of the clearance.  So no stadium encloses a
    foreign branch point, a cut loop crosses no cut, and gap loop k
    crosses only cuts k and k + 1, all that `_lift` tests.
    `PeriodEngine.sigma()` rests on the same bound.  Only the stadiums,
    lift and basis depend on the caps; they are retried at each of
    CAP_FACTORS in turn, and the last failure is raised."""
    pts = list(curve.branch_points)
    pairs = _default_pairing(pts) if pairing is None else [tuple(p) for p in pairing]
    if (sorted(i for p in pairs for i in p) != list(range(len(pts)))
            or any(len(p) != 2 for p in pairs)):
        raise ValueError("pairing must partition the branch points into pairs")

    # orient each cut by lexicographic endpoint order, then order cuts
    # by midpoint so gaps connect consecutive cuts
    def lex(i):
        return (pts[i].real, pts[i].imag)

    pairs = [tuple(sorted(p, key=lex)) for p in pairs]
    pairs.sort(key=lambda p: (((pts[p[0]] + pts[p[1]]) / 2).real,
                              ((pts[p[0]] + pts[p[1]]) / 2).imag))

    evaluator = SheetedEval(pts, pairs)
    cut_segments = [Segment(pts[i], pts[j]) for i, j in pairs]
    ncuts = len(pairs)
    for i in range(ncuts):
        for j in range(i + 1, ncuts):
            if piece_crossings(cut_segments[i], cut_segments[j]):
                raise GeometryError(f"cuts {i} and {j} intersect")

    # gap spines join consecutive cuts tail-to-head
    gap_ends = [(pairs[k][1], pairs[k + 1][0]) for k in range(ncuts - 1)]

    # hypot rounds as abs() of a Python complex; np.abs would move caps
    z = np.array(pts)
    diff = np.subtract.outer(z, z)
    dist = np.hypot(diff.real, diff.imag)
    nearest = np.where(dist > 0, dist, np.inf).min(axis=1)

    # clearance of every spine (cuts, then gaps); spine s may cross
    # cuts lo[s]..hi[s], and a cut crossing another was rejected above
    ends = np.array(pairs + gap_ends)
    own = (np.arange(len(z)) == ends[:, :, None]).any(axis=1)
    foreign = np.where(own, np.inf, _seg_dist(z, z[ends[:, :1]], z[ends[:, 1:]]))
    lo = np.r_[0:ncuts, 0:ncuts - 1]
    hi = lo + (np.arange(len(ends)) >= ncuts)
    crossable = (lo[:, None] <= np.arange(ncuts)) & (np.arange(ncuts) <= hi[:, None])
    to_cuts = _seg_dist(z[ends][:, :, None], z[ends[:ncuts, 0]], z[ends[:ncuts, 1]])
    clear = np.minimum(foreign.min(axis=1),
                       np.where(crossable, np.inf, to_cuts.min(axis=1)).min(axis=1))
    if (clear < 1e-9 * dist.max()).any() or any(
            _seg_seg(Segment(pts[i], pts[j]), cut_segments[c])
            for k, (i, j) in enumerate(gap_ends) for c in range(ncuts)
            if not crossable[ncuts + k, c]):
        raise GeometryError("spine has no clearance from foreign cuts")
    clamps = (0.45 * clear).tolist()

    for factor in CAP_FACTORS:
        try:
            loops = _stadiums(pts, pairs, gap_ends, (factor * nearest).tolist(),
                              clamps)
            _lift(loops, cut_segments)
            alpha_mat, beta_mat = _symplectic_basis(loops, ncuts, curve.genus)
        except GeometryError as exc:
            last = exc
            continue
        return CycleSystem(curve, evaluator, loops, alpha_mat, beta_mat,
                           pairs, gap_ends)
    raise last


def build_cycles_robust(curve: CoverCurve, pairing=None) -> CycleSystem:
    """build_cycles of a given pairing, else of the greedy, sorted and
    sweep pairings in turn, each distinct pairing once.  The first
    built with spine_rho() at least SPINE_RHO_MIN, whose spines the
    Gauss-Jacobi ladder can settle, is returned, else the first built."""
    if pairing is not None:
        return build_cycles(curve, pairing)
    pts = list(curve.branch_points)
    found = (s(pts) for s in (_greedy_pairing, _default_pairing, _sweep_pairing))
    first = last = None
    for cand in {frozenset(map(frozenset, prs)): prs for prs in found}.values():
        try:
            cyc = build_cycles(curve, cand)
        except GeometryError as exc:
            last = exc
            continue
        if cyc.spine_rho() >= SPINE_RHO_MIN:
            return cyc
        first = first or cyc
    if first is None:
        raise last
    return first
