"""Cut systems, stadium contours, and a symplectic homology basis.

Branch points, always an even number of them, are joined pairwise by
straight cuts C_0, C_1, ..., ordered by midpoint; gap k joins the head
of cut k to the tail of cut k + 1.  Around every cut and every gap we
place a stadium-shaped loop: two circular caps joined by tangent
segments.  Caps stay inside each spine's clearance (`build_cycles`),
so a cut loop crosses no cut and its lift lies on sheet +1, while gap
loop G_k crosses cuts k and k + 1 once each.  The chain
C_0 G_0 C_1 G_1 ... then fixes every intersection number from the
order of those two crossings, as Molin & Neurohr (Math. Comp. 2019)
read theirs off a tree of branch points: <C_k, G_k> = -e_k and
<C_{k+1}, G_k> = e_k, where e_k = -1 when G_k's lift crosses cut k
first and +1 otherwise, and every other pair meets at 0 once no two
gap spines cross.  The alpha/beta basis comes out as integer
combinations of the loops, verified against the standard symplectic
form exactly.  Only gap loops' stadiums are drawn to build it; a cut
loop's is drawn when a contour first needs it.  `build_cycles_robust`
tries three pairings, each once, prefers the first whose spines keep
clear of foreign branch points, and records why it passed over the
others.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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
    """Configuration defeats the contour builder (crossing cuts or gap
    spines, a spine without clearance, or a gap loop whose lift does not
    cross its two adjacent cuts once each)."""


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
    """The stadium around the spine from branch point a to b, with cap
    ra at a and rb at b, drawn on first use; crossings are its lift's
    cut crossings [(piece_idx, s, cut_idx)], ordered along the loop
    (none on a cut loop)."""
    kind: str  # "cut" or "gap"
    index: int
    caps: tuple  # (a, b, ra, rb)
    crossings: list = field(default_factory=list)

    @cached_property
    def pieces(self):
        return stadium(*self.caps)

    def sheet_at(self, piece_idx, s):
        """Sheet of the lift at parameter s of the given piece."""
        return (-1) ** sum((pi, cs) < (piece_idx, s) for pi, cs, _ in self.crossings)


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


def piece_crossings(p, q):
    """[(s_on_p, t_on_q)] interior transversal crossings of two pieces,
    at least one of them a segment."""
    if isinstance(q, Arc):
        return _seg_arc(p, q)
    if isinstance(p, Arc):
        return [(s, t) for t, s in _seg_arc(q, p)]
    return _seg_seg(p, q)


def _spine_crossings(a, b):
    """Whether segments [a_i, b_i] and [a_j, b_j] cross, for every i, j
    in one broadcast: `_seg_seg`'s test, same margins and parallel
    threshold, in the same real arithmetic."""
    d = b - a
    ax, ay = d.real[:, None], d.imag[:, None]
    bx, by = -d.real, -d.imag
    det = ax * by - ay * bx
    rhs = a - a[:, None]
    length = np.hypot(d.real, d.imag)
    norm = np.maximum(length[:, None], length)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (rhs.real * by - rhs.imag * bx) / det
        t = (ax * rhs.imag - ay * rhs.real) / det
    return ((np.abs(det) >= 1e-12 * norm * norm) & (_MARGIN < s) & (s < 1 - _MARGIN)
            & (_MARGIN < t) & (t < 1 - _MARGIN))


class CycleSystem:
    """Loops plus the integer combinations expressing a symplectic
    basis of the double cover's homology.

    alpha_mat and beta_mat have one row per basis cycle and one column
    per loop; every period of a basis cycle is the matching integer
    combination of per-loop periods.  pairs and gap_ends hold the
    branch-point indices at the ends of each cut and gap spine.  sigmas
    holds each loop's orientation factor (`PeriodEngine.sigma`):
    -1 on a cut loop, e_k on gap loop k.  cap_factor is the entry of
    CAP_FACTORS the caps were drawn at, and rejected the pairings
    `build_cycles_robust` passed over, in the order tried, each with
    its spine_rho() if that fell below SPINE_RHO_MIN, else the text of
    its GeometryError.
    """

    def __init__(self, curve, evaluator, loops, alpha_mat, beta_mat,
                 pairs, gap_ends, sigmas, cap_factor):
        self.curve = curve
        self.evaluator = evaluator
        self.loops = loops
        self.alpha_mat = alpha_mat
        self.beta_mat = beta_mat
        self.pairs = pairs
        self.gap_ends = gap_ends
        self.sigmas = sigmas
        self.cap_factor = cap_factor
        self.rejected = []
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
    short, mutually distant cuts.  One stable sort of the upper
    triangle of the distance matrix, read row by row, orders the pairs
    by distance with ties to the lexicographically first (i, j); the
    first pair in that order whose points are both unpaired is the
    closest one.  np.hypot rounds as abs() of a Python complex."""
    pts = np.asarray(points, dtype=complex)
    i, j = _upper_triangle(len(pts))
    d = pts[i] - pts[j]
    order = np.argsort(np.hypot(d.real, d.imag), kind="stable")
    left = set(range(len(pts)))
    pairs = []
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if a in left and b in left:
            pairs.append((a, b))
            left -= {a, b}
            if len(left) < 2:
                break
    return pairs


@lru_cache(maxsize=None)
def _upper_triangle(m):
    """Row-major indices (i, j), i < j, of an m x m matrix."""
    return np.triu_indices(m, 1)


def _sweep_pairing(points):
    centroid = sum(points) / len(points)
    order = sorted(range(len(points)), key=lambda i: cmath.phase(points[i] - centroid))
    return [(order[2 * k], order[2 * k + 1]) for k in range(len(points) // 2)]


def _lift(gaps, cut_segments):
    """Order each gap loop's crossings of its adjacent cuts k and k + 1
    along the loop, where the lift starts on sheet +1 and flips at every
    crossing; it must cross each once.  No other cut is in reach
    (`build_cycles`).  Returns each gap's e_k: -1 when its lift crosses
    cut k first, +1 when cut k + 1."""
    signs = []
    for lp in gaps:
        k = lp.index
        cr = sorted((pi, s, ci) for pi, piece in enumerate(lp.pieces)
                    for ci in (k, k + 1)
                    for s, _t in piece_crossings(piece, cut_segments[ci]))
        crossed = [ci for *_, ci in cr]
        if sorted(crossed) != [k, k + 1]:
            raise GeometryError(f"gap loop {k} crosses cuts {crossed}, "
                                f"not {k} and {k + 1} once each")
        lp.crossings = cr
        signs.append(-1 if crossed[0] == k else 1)
    return np.array(signs, dtype=int)


def _chain_intersections(e):
    """Intersection numbers of the lifted loops, cuts then gaps, from
    each gap's e_k: <C_k, G_k> = -e_k, <C_{k+1}, G_k> = e_k, all other
    pairs 0."""
    ncuts = len(e) + 1
    k = np.arange(len(e))
    inter = np.zeros((2 * ncuts - 1, 2 * ncuts - 1), dtype=int)
    inter[k, ncuts + k] = -e
    inter[k + 1, ncuts + k] = e
    return inter - inter.T


def _symplectic_basis(inter, ncuts, g):
    """(alpha_mat, beta_mat) of the lifted loops, certified by their
    exact intersection numbers inter."""
    # normalize signs along the chain C1 G1 C2 G2 ... so consecutive
    # pairs intersect at +1; loop k is cut k, loop ncuts + k gap k
    chain = [i for k in range(ncuts) for i in (k, ncuts + k)][:-1]
    signs = np.zeros(len(inter), dtype=int)
    signs[0] = 1
    for a, b in zip(chain, chain[1:]):
        signs[b] = signs[a] * inter[a, b]

    # basis as integer loop combinations
    alpha_mat = np.zeros((g, len(inter)), dtype=int)
    beta_mat = np.zeros((g, len(inter)), dtype=int)
    for i in range(g):
        alpha_mat[i, i + 1] = signs[i + 1]
        beta_mat[i, ncuts:ncuts + i + 1] = -signs[ncuts:ncuts + i + 1]

    # exact symplectic verification of the assembled basis
    big = np.vstack([alpha_mat, beta_mat])
    gram = big @ inter @ big.T
    want = np.eye(2 * g, k=g, dtype=int) - np.eye(2 * g, k=-g, dtype=int)
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
    ends are measured against it.  Crossing cuts, a spine without
    clearance and crossing gap spines raise GeometryError, all from one
    broadcast crossing test, before any cap is drawn.

    Caps are at most 0.45 of their spine's clearance, and a stadium
    lies in the convex hull of its cap discs, so within max(ra, rb) of
    its spine, short of the clearance.  So no stadium encloses a
    foreign branch point, a cut loop crosses no cut, and gap loop k
    crosses cuts k and k + 1 alone, each once, as one end of each lies
    inside it; loops that are not chain neighbours meet at 0, since an
    arc of one inside the other keeps its sheet and its two crossings
    cancel.  `PeriodEngine.sigma()` rests on the same bound.  So only
    gap loops are drawn to read the chain's intersection numbers off
    (module docstring), at each of CAP_FACTORS in turn until every gap
    crosses its cuts once each; else the last failure is raised."""
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

    ncuts = len(pairs)
    # gap spines join consecutive cuts tail-to-head
    gap_ends = [(pairs[k][1], pairs[k + 1][0]) for k in range(ncuts - 1)]

    # every spine (cuts, then gaps) against every other
    z = np.array(pts)
    ends = np.array(pairs + gap_ends)
    crossing = _spine_crossings(z[ends[:, 0]], z[ends[:, 1]])
    for i, j in zip(*np.nonzero(crossing[:ncuts, :ncuts])):
        if i < j:
            raise GeometryError(f"cuts {i} and {j} intersect")

    # hypot rounds as abs() of a Python complex; np.abs would move caps
    diff = np.subtract.outer(z, z)
    dist = np.hypot(diff.real, diff.imag)
    nearest = np.where(dist > 0, dist, np.inf).min(axis=1)

    # clearance of every spine; spine s may cross cuts lo[s]..hi[s],
    # and a cut crossing another was rejected above
    own = (np.arange(len(z)) == ends[:, :, None]).any(axis=1)
    foreign = np.where(own, np.inf, _seg_dist(z, z[ends[:, :1]], z[ends[:, 1:]]))
    lo = np.arange(len(ends)) % ncuts
    hi = lo + (np.arange(len(ends)) >= ncuts)
    crossable = (lo[:, None] <= np.arange(ncuts)) & (np.arange(ncuts) <= hi[:, None])
    to_cuts = _seg_dist(z[ends][:, :, None], z[ends[:ncuts, 0]], z[ends[:ncuts, 1]])
    clear = np.minimum(foreign.min(axis=1),
                       np.where(crossable, np.inf, to_cuts.min(axis=1)).min(axis=1))
    if ((clear < 1e-9 * dist.max()).any()
            or (crossing[ncuts:, :ncuts] & ~crossable[ncuts:]).any()):
        raise GeometryError("spine has no clearance from foreign cuts")
    if crossing[ncuts:, ncuts:].any():
        raise GeometryError("gap spines cross")
    clamps = 0.45 * clear

    # each cap at its point's radius, a gap's at GAP_CAP_SHRINK of the
    # cut cap it shares, none above its spine's clamp
    point_clamps = np.empty(len(z))
    point_clamps[ends[:ncuts]] = clamps[:ncuts, None]
    labels = [("cut", k) for k in range(ncuts)] + [("gap", k) for k in range(ncuts - 1)]
    cut_segments = [Segment(pts[i], pts[j]) for i, j in pairs]
    for factor in CAP_FACTORS:
        cut_caps = np.minimum(factor * nearest, point_clamps)
        radii = np.vstack([cut_caps[ends[:ncuts]], np.minimum(
            GAP_CAP_SHRINK * cut_caps[ends[ncuts:]], clamps[ncuts:, None])])
        loops = [Loop(*label, (pts[i], pts[j], *r))
                 for label, (i, j), r in zip(labels, ends.tolist(), radii.tolist())]
        try:
            e = _lift(loops[ncuts:], cut_segments)
        except GeometryError as exc:
            last = exc
            continue
        alpha_mat, beta_mat = _symplectic_basis(_chain_intersections(e), ncuts,
                                                curve.genus)
        sigmas = np.concatenate([np.full(ncuts, -1), e])
        return CycleSystem(curve, SheetedEval(pts, pairs), loops, alpha_mat,
                           beta_mat, pairs, gap_ends, sigmas, factor)
    raise last


def build_cycles_robust(curve: CoverCurve, pairing=None) -> CycleSystem:
    """build_cycles of a given pairing, else of the greedy, sorted and
    sweep pairings in turn, each distinct pairing once.  The first
    built with spine_rho() at least SPINE_RHO_MIN, whose spines the
    Gauss-Jacobi ladder can settle, is returned, else the first built;
    its `rejected` lists the others."""
    if pairing is not None:
        return build_cycles(curve, pairing)
    pts = list(curve.branch_points)
    found = (s(pts) for s in (_greedy_pairing, _default_pairing, _sweep_pairing))
    tried = []
    for cand in {frozenset(map(frozenset, prs)): prs for prs in found}.values():
        try:
            cyc = build_cycles(curve, cand)
        except GeometryError as exc:
            tried.append((cand, exc, str(exc)))
            continue
        rho = cyc.spine_rho()
        tried.append((cand, cyc, rho))
        if rho >= SPINE_RHO_MIN:
            break
    else:
        built = [out for _, out, _ in tried if isinstance(out, CycleSystem)]
        if not built:
            raise tried[-1][1]
        cyc = built[0]
    cyc.rejected = [(sorted(map(sorted, cand)), why)
                    for cand, out, why in tried if out is not cyc]
    return cyc
