"""Cut systems, stadium contours, and a symplectic homology basis.

Branch points are joined pairwise by straight cuts (plus one ray to
infinity when their number is odd).  Around every cut and every gap
between consecutive cuts we place a stadium-shaped loop: two circular
caps joined by tangent segments.  Loops are lifted to the double cover
by tracking cut crossings, intersection numbers are counted at
same-sheet transversal crossings, and the alpha/beta basis comes out
as integer combinations of the loops, verified against the standard
symplectic form exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curves import CoverCurve, SheetedEval

CAP_FACTOR = 0.3
GAP_CAP_SHRINK = 0.8
RAY_LENGTH_FACTOR = 1.0e6


class GeometryError(RuntimeError):
    """Configuration defeats the contour builder (tangencies, enclosed
    stray branch points, or an intersection pattern that is not the
    standard chain)."""


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
    sheets: list = None  # sheet on each inter-crossing stretch of each piece

    def point(self, piece_idx, s):
        return self.pieces[piece_idx].point(s)

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


def loop_loop_crossings(la: Loop, lb: Loop):
    out = []
    for i, p in enumerate(la.pieces):
        for j, q in enumerate(lb.pieces):
            for s, t in piece_crossings(p, q):
                out.append((i, s, j, t))
    return out


def winding_number(pieces, z0, samples=64):
    s = np.linspace(0.0, 1.0, samples + 1)
    w = np.angle(np.concatenate([p.point(s) for p in pieces]) - z0)
    dw = np.diff(w)
    dw = np.where(dw > math.pi, dw - 2 * math.pi,
                  np.where(dw < -math.pi, dw + 2 * math.pi, dw))
    return round(float(np.sum(dw)) / (2 * math.pi))


class CycleSystem:
    """Loops plus the integer combinations expressing a symplectic
    basis of the double cover's homology.

    alpha_mat and beta_mat have one row per basis cycle and one column
    per loop; every period of a basis cycle is the matching integer
    combination of per-loop periods.
    """

    def __init__(self, curve, evaluator, loops, alpha_mat, beta_mat, cut_segments):
        self.curve = curve
        self.evaluator = evaluator
        self.loops = loops
        self.alpha_mat = alpha_mat
        self.beta_mat = beta_mat
        self.cut_segments = cut_segments
        self.genus = alpha_mat.shape[0]

    def loop_index(self, kind, index):
        for i, lp in enumerate(self.loops):
            if lp.kind == kind and lp.index == index:
                return i
        raise KeyError((kind, index))

    def cut_loop_combo(self, cut_index):
        """Row vector selecting the (sign-normalized) loop around one cut."""
        combo = np.zeros(len(self.loops), dtype=int)
        combo[self.loop_index("cut", cut_index)] = self._signs[
            self.loop_index("cut", cut_index)
        ]
        return combo


def _point_seg_dist(p, a, b):
    d = b - a
    L2 = (d * d.conjugate()).real
    if L2 == 0:
        return abs(p - a)
    s = ((p - a) * d.conjugate()).real / L2
    s = min(1.0, max(0.0, s))
    return abs(p - (a + s * d))


def _seg_seg_dist(a1, b1, a2, b2):
    if _seg_seg(Segment(a1, b1), Segment(a2, b2)):
        return 0.0
    return min(
        _point_seg_dist(a1, a2, b2),
        _point_seg_dist(b1, a2, b2),
        _point_seg_dist(a2, a1, b1),
        _point_seg_dist(b2, a1, b1),
    )


def _default_pairing(points):
    order = sorted(range(len(points)), key=lambda i: (points[i].real, points[i].imag))
    pairs = [(order[2 * k], order[2 * k + 1]) for k in range(len(points) // 2)]
    leftover = order[-1] if len(points) % 2 else None
    return pairs, leftover


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
    leftover = left.pop() if left else None
    return pairs, leftover


def _sweep_pairing(points):
    centroid = sum(points) / len(points)
    order = sorted(range(len(points)), key=lambda i: cmath.phase(points[i] - centroid))
    pairs = [(order[2 * k], order[2 * k + 1]) for k in range(len(points) // 2)]
    leftover = order[-1] if len(points) % 2 else None
    return pairs, leftover


def _ray_direction(base, others):
    """Direction from base maximizing angular clearance from every
    other branch point."""
    angles = sorted(cmath.phase(p - base) for p in others)
    best, best_gap = None, -1.0
    for k in range(len(angles)):
        a0 = angles[k]
        a1 = angles[(k + 1) % len(angles)] + (2 * math.pi if k + 1 == len(angles) else 0)
        gap = a1 - a0
        if gap > best_gap:
            best_gap = gap
            best = (a0 + a1) / 2.0
    return cmath.exp(1j * best)


def _min_dist(i, points):
    return min(abs(points[i] - points[j]) for j in range(len(points)) if j != i)


def build_cycles(curve: CoverCurve, pairing=None, cap_factor=CAP_FACTOR) -> CycleSystem:
    pts = list(curve.branch_points)
    if pairing is None:
        pairs, leftover = _default_pairing(pts)
    else:
        pairs = [tuple(p) for p in pairing]
        used = sorted(i for p in pairs for i in p)
        rest = [i for i in range(len(pts)) if i not in used]
        if len(rest) > 1:
            raise ValueError("pairing leaves more than one point unmatched")
        leftover = rest[0] if rest else None

    # orient each cut by lexicographic endpoint order, then order cuts
    # by midpoint so gaps connect consecutive cuts
    def lex(i):
        return (pts[i].real, pts[i].imag)

    pairs = [tuple(sorted(p, key=lex)) for p in pairs]
    pairs.sort(key=lambda p: (((pts[p[0]] + pts[p[1]]) / 2).real,
                              ((pts[p[0]] + pts[p[1]]) / 2).imag))

    ray = None
    if leftover is not None:
        ray = (leftover, _ray_direction(pts[leftover], [p for i, p in enumerate(pts) if i != leftover]))
    evaluator = SheetedEval(pts, pairs, ray)

    cut_segments = [Segment(pts[i], pts[j]) for i, j in pairs]
    scale = max(abs(p) for p in pts) + max(
        abs(pts[i] - pts[j]) for i, j in pairs
    )
    if ray is not None:
        cut_segments.append(
            Segment(pts[leftover], pts[leftover] + RAY_LENGTH_FACTOR * scale * evaluator.ray_dir)
        )

    # reject mutually crossing cuts outright
    for i in range(len(cut_segments)):
        for j in range(i + 1, len(cut_segments)):
            if piece_crossings(cut_segments[i], cut_segments[j]):
                raise GeometryError(f"cuts {i} and {j} intersect")

    radii = [cap_factor * _min_dist(i, pts) for i in range(len(pts))]
    scale_len = max(abs(pts[i] - pts[j]) for i in range(len(pts)) for j in range(i))

    # gap spines join consecutive cuts tail-to-head; with a ray the last
    # gap runs from the final cut to the ray base
    gap_ends = []
    for k in range(len(pairs) - 1):
        gap_ends.append((pairs[k][1], pairs[k + 1][0]))
    if leftover is not None:
        gap_ends.append((pairs[-1][1], leftover))

    def loop_clamp(i, j, allowed_cuts):
        """Clearance of the spine [i, j] from foreign branch points and
        from cuts it is not meant to cross."""
        a, b = pts[i], pts[j]
        clear = math.inf
        for k2, z in enumerate(pts):
            if k2 in (i, j):
                continue
            clear = min(clear, _point_seg_dist(z, a, b))
        for ci, seg in enumerate(cut_segments):
            if ci in allowed_cuts:
                continue
            clear = min(clear, _seg_seg_dist(a, b, seg.a, seg.b))
        if clear < 1e-9 * scale_len:
            raise GeometryError("spine has no clearance from foreign cuts")
        return 0.45 * clear

    loops = []
    cut_cap = {}
    for k, (i, j) in enumerate(pairs):
        cl = loop_clamp(i, j, {k})
        ra, rb = min(radii[i], cl), min(radii[j], cl)
        cut_cap[i], cut_cap[j] = ra, rb
        loops.append(Loop(stadium(pts[i], pts[j], ra, rb), "cut", k))

    for k, (i, j) in enumerate(gap_ends):
        allowed = {
            ci for ci, pr in enumerate(pairs) if i in pr or j in pr
        }
        if leftover is not None and j == leftover:
            allowed.add(len(cut_segments) - 1)
        cl = loop_clamp(i, j, allowed)
        ra = min(GAP_CAP_SHRINK * cut_cap.get(i, radii[i]), cl)
        rb = min(GAP_CAP_SHRINK * cut_cap.get(j, radii[j]), cl)
        loops.append(Loop(stadium(pts[i], pts[j], ra, rb), "gap", k))

    # lift: order each loop's cut crossings along the loop, start on
    # sheet +1, flip at every crossing
    for lp in loops:
        cr = []
        for pi, piece in enumerate(lp.pieces):
            for ci, cut in enumerate(cut_segments):
                for s, _t in piece_crossings(piece, cut):
                    cr.append((pi, s, ci))
        cr.sort()
        if len(cr) % 2:
            raise GeometryError(
                f"{lp.kind} loop {lp.index} crosses cuts an odd number of times"
            )
        lp.crossings = cr

    # stray enclosures break the sheet bookkeeping; every loop may wind
    # only around its own spine's endpoints
    for lp in loops:
        if lp.kind == "cut":
            own = set(pairs[lp.index])
        else:
            own = set(gap_ends[lp.index])
        for i, z in enumerate(pts):
            if i in own:
                continue
            if winding_number(lp.pieces, z) != 0:
                raise GeometryError(
                    f"{lp.kind} loop {lp.index} encloses branch point {i}"
                )

    # surface intersection numbers between lifted loops
    nloops = len(loops)
    inter = np.zeros((nloops, nloops), dtype=int)
    for a in range(nloops):
        for b in range(a + 1, nloops):
            total = 0
            for pi, s, qj, t in loop_loop_crossings(loops[a], loops[b]):
                if loops[a].sheet_at(pi, s) != loops[b].sheet_at(qj, t):
                    continue
                da = loops[a].pieces[pi].tangent(s)
                db = loops[b].pieces[qj].tangent(t)
                cross = (da.conjugate() * db).imag
                if cross == 0:
                    raise GeometryError("tangential loop crossing")
                total += 1 if cross > 0 else -1
            inter[a, b] = total
            inter[b, a] = -total

    # normalize signs along the chain C1 G1 C2 G2 ... so consecutive
    # pairs intersect at +1
    ncuts = len(pairs)
    ngaps = len(gap_ends)
    chain = []
    for k in range(ncuts):
        chain.append(("cut", k))
        if k < ngaps:
            chain.append(("gap", k))
    idx_of = {}
    for i, lp in enumerate(loops):
        idx_of[(lp.kind, lp.index)] = i
    chain_idx = [idx_of[c] for c in chain]
    signs = np.zeros(nloops, dtype=int)
    signs[chain_idx[0]] = 1
    for a, b in zip(chain_idx, chain_idx[1:]):
        raw = inter[a, b]
        if abs(raw) != 1:
            raise GeometryError(
                f"chain neighbors intersect at {raw}; expected a simple chain"
            )
        signs[b] = signs[a] * raw
    signed_inter = inter * np.outer(signs, signs)

    # basis as integer loop combinations
    g = curve.genus
    even = leftover is None
    alpha_mat = np.zeros((g, nloops), dtype=int)
    beta_mat = np.zeros((g, nloops), dtype=int)
    if even:
        if ncuts != g + 1:
            raise GeometryError("cut count does not match an even model")
        for i in range(g):
            a_idx = idx_of[("cut", i + 1)]
            alpha_mat[i, a_idx] = signs[a_idx]
            for k in range(i + 1):
                g_idx = idx_of[("gap", k)]
                beta_mat[i, g_idx] = -signs[g_idx]
    else:
        if ncuts != g:
            raise GeometryError("cut count does not match an odd model")
        for i in range(g):
            a_idx = idx_of[("cut", i)]
            alpha_mat[i, a_idx] = signs[a_idx]
            for k in range(i, ngaps):
                g_idx = idx_of[("gap", k)]
                beta_mat[i, g_idx] = signs[g_idx]

    # exact symplectic verification of the assembled basis
    big = np.vstack([alpha_mat, beta_mat])
    gram = big @ inter @ big.T
    want = np.zeros((2 * g, 2 * g), dtype=int)
    want[:g, g:] = np.eye(g, dtype=int)
    want[g:, :g] = -np.eye(g, dtype=int)
    if not np.array_equal(gram, want):
        raise GeometryError(
            "assembled basis is not symplectic; intersection gram:\n"
            f"{gram}"
        )

    system = CycleSystem(curve, evaluator, loops, alpha_mat, beta_mat, cut_segments)
    system._signs = signs
    system._inter = inter
    system._pairs = pairs
    system._gap_ends = gap_ends
    system._leftover = leftover
    return system


def build_cycles_robust(curve: CoverCurve, pairing=None) -> CycleSystem:
    """build_cycles with a retry ladder: for awkward configurations the
    default pairing or cap size can put a stadium across foreign
    geometry, so alternative pairings and smaller caps are attempted
    until one passes all the internal checks."""
    pts = list(curve.branch_points)
    if pairing is not None:
        candidates = [[tuple(p) for p in pairing]]
    else:
        candidates, seen = [], set()
        for strat in (_greedy_pairing, _default_pairing, _sweep_pairing):
            prs, _ = strat(pts)
            key = tuple(sorted(tuple(sorted(p)) for p in prs))
            if key not in seen:
                seen.add(key)
                candidates.append(prs)
    last = None
    for cand in candidates:
        for factor in (CAP_FACTOR, 0.18, 0.1, 0.06):
            try:
                return build_cycles(curve, pairing=cand, cap_factor=factor)
            except GeometryError as exc:
                last = exc
    raise last
