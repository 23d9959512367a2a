"""Cut systems, stadium contours, and a symplectic homology basis.

Branch points, always an even number of them, are joined pairwise by
straight cuts C_0, C_1, ..., ordered by midpoint; gap k joins the head
of cut k to the tail of cut k + 1.  Around every cut and every gap lies
a stadium-shaped loop: two circular caps joined by tangent segments.
Caps stay inside each spine's clearance (`_assemble`), so a cut loop
crosses no cut and its lift lies on sheet +1, while gap loop G_k
crosses cuts k and k + 1 once each.  The chain C_0 G_0 C_1 G_1 ... then
fixes every intersection number from the order of those two crossings,
as Molin & Neurohr (Math. Comp. 2019) read theirs off a tree of branch
points: <C_k, G_k> = -e_k and <C_{k+1}, G_k> = e_k, where e_k = -1 when
G_k's lift crosses cut k first, which is when cut k crosses the
stadium's first side (`PeriodEngine.sigma`), and +1 otherwise; every
other pair meets at 0 once no two gap spines cross.  The alpha/beta
basis comes out in closed form as integer combinations of the loops,
alpha_i = C_{i+1} and beta_i = e_0 G_0 + ... + e_i G_i, verified
against the standard symplectic form exactly.  No stadium is drawn to
build it; a loop's is drawn when a contour first needs it.

A pairing is built in two steps: a screen from its spines alone (the
cut order, the crossing tests, each spine's clearance and each loop's
Bernstein parameter rho), then the assembly of what passed (caps, e_k,
the basis, the loops).  `build_cycles_robust` measures the points'
distances once, screens three pairings, each once, in turn, assembles
only the first whose every rho reaches SPINE_RHO_MIN (or, failing
that, the first to pass), and records why it passed over the others.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .cover_homology import standard_j
from .curves import CoverCurve, SheetedEval

CAP_FACTOR = 0.3
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
    cross its two adjacent cuts once each, in e_k's order)."""


@dataclass(frozen=True)
class Segment:
    a: complex
    b: complex

    def point(self, s):
        return self.a + np.asarray(s) * (self.b - self.a)

    def tangent(self, s):
        return (self.b - self.a) * np.ones_like(np.asarray(s, dtype=float))


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


def _tangent_angles(a, b, ra, rb):
    """Angles (thm, thp) at which the stadium's first side, right of
    [a, b], and its left side touch its caps ra at a and rb at b."""
    d = b - a
    length = abs(d)
    if length <= abs(ra - rb):
        raise GeometryError("cap radii too disparate for tangent sides")
    base = cmath.phase(d / length)
    phi = math.acos((ra - rb) / length)
    return base - phi, base + phi


def stadium(a, b, ra, rb):
    """Counterclockwise hippodrome around segment [a, b] with cap radii
    ra at a and rb at b, sides tangent to both caps."""
    thm, thp = _tangent_angles(a, b, ra, rb)
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
    ra at a and rb at b, and its lift's crossings, drawn on first use.
    Gap loop k holds cuts k and k + 1, from tail to head, and e_k."""
    kind: str  # "cut" or "gap"
    index: int
    caps: tuple  # (a, b, ra, rb)
    cuts: tuple = ()
    e: int = 0

    @cached_property
    def pieces(self):
        return stadium(*self.caps)

    @cached_property
    def crossings(self):
        """The lift's cut crossings [(piece_idx, s, cut_idx)], ordered
        along the loop, where it starts on sheet +1 and flips at every
        crossing: none on a cut loop, and on gap loop k one of cut k and
        one of cut k + 1, cut k first when e_k = -1, else GeometryError.
        No other cut is in reach (`_assemble`)."""
        k = self.index
        cr = sorted((pi, s, ci) for ci, cut in enumerate(self.cuts, k)
                    for pi, piece in enumerate(self.pieces)
                    for s, _t in piece_crossings(piece, cut))
        crossed = [ci for *_, ci in cr]
        want = [] if not self.cuts else [k, k + 1] if self.e < 0 else [k + 1, k]
        if crossed != want:
            raise GeometryError(f"gap loop {k} crosses cuts {crossed}, not "
                                f"{want} as e_k = {self.e} says")
        return cr

    def sheet_at(self, piece_idx, s):
        """Sheet of the lift at parameter s of the given piece."""
        return (-1) ** sum((pi, cs) < (piece_idx, s) for pi, cs, _ in self.crossings)


# crossing primitives.  A stadium piece runs over its parameters'
# [0, 1), both ends moved back by a margin, so a crossing at a junction
# of pieces counts once, on the piece starting there; a cut or a spine
# over its margin-trimmed interior, so shared endpoints never count

_MARGIN = 1e-9


def _seg_seg(p, q):
    """[(s, t)] where segments p and q cross transversally, s in p's
    window, (-margin, 1 - margin), and t inside q."""
    s, t, transversal = _segment_params(*np.array([p.a, p.b, q.a, q.b]))
    if transversal and -_MARGIN < s < 1 - _MARGIN and _MARGIN < t < 1 - _MARGIN:
        return [(float(s), float(t))]
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
    """The arc's parameter at z, a point of its circle, if it lies in
    the piece's window, else None."""
    th = cmath.phase(z - arc.center)
    span = arc.th1 - arc.th0
    if abs(span) < 1e-14:
        return None
    # fold th into [lo, lo + 2pi), from the window's lower end
    lo = min(arc.th0, arc.th1) - _MARGIN * span
    while th < lo:
        th += 2.0 * math.pi
    while th >= lo + 2.0 * math.pi:
        th -= 2.0 * math.pi
    t = (th - arc.th0) / span
    return t if -_MARGIN < t < 1 - _MARGIN else None


def piece_crossings(p, q):
    """[(s_on_p, t_on_q)] transversal crossings of a stadium piece p
    and a cut q, or of two pieces, at least one of them a segment.  An
    arc and a segment p run over their half-open windows, a segment q
    over its interior."""
    if isinstance(q, Arc):
        return _seg_arc(p, q)
    if isinstance(p, Arc):
        return [(s, t) for t, s in _seg_arc(q, p)]
    return _seg_seg(p, q)


def _segment_params(pa, pb, qa, qb):
    """(s, t, transversal) of segments [pa, pb] and [qa, qb], broadcast:
    pa + s (pb - pa) = qa + t (qb - qa) unless they are parallel."""
    d1, d2 = pb - pa, qb - qa
    ax, ay = d1.real, d1.imag
    bx, by = -d2.real, -d2.imag
    det = ax * by - ay * bx
    rhs = qa - pa
    norm = np.maximum(np.hypot(d1.real, d1.imag), np.hypot(d2.real, d2.imag))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (rhs.real * by - rhs.imag * bx) / det
        t = (ax * rhs.imag - ay * rhs.real) / det
    return s, t, np.abs(det) >= 1e-12 * norm * norm


def _spine_crossings(a, b):
    """Whether segments [a_i, b_i] and [a_j, b_j] cross, for every i, j
    in one broadcast, margins trimmed both ways."""
    s, t, transversal = _segment_params(a[:, None], b[:, None], a, b)
    return (transversal & (_MARGIN < s) & (s < 1 - _MARGIN)
            & (_MARGIN < t) & (t < 1 - _MARGIN))


class CycleSystem:
    """Loops plus the integer combinations expressing a symplectic
    basis of the double cover's homology.

    alpha_mat and beta_mat have one row per basis cycle and one column
    per loop; every period of a basis cycle is the matching integer
    combination of per-loop periods.  pairs and gap_ends hold the
    branch-point indices at the ends of each cut and gap spine.  sigmas
    holds each loop's orientation factor (`PeriodEngine.sigma`):
    -1 on a cut loop, e_k on gap loop k.  rhos, each loop's worst
    Bernstein parameter, comes from the screen (`spine_rhos`).  rejected
    holds the pairings `build_cycles_robust` passed over, in the order
    tried, each with its spine_rho() if that fell below SPINE_RHO_MIN,
    else the text of its GeometryError.
    """

    def __init__(self, curve, evaluator, loops, alpha_mat, beta_mat,
                 pairs, gap_ends, sigmas, rhos):
        self.curve = curve
        self.evaluator = evaluator
        self.loops = loops
        self.alpha_mat = alpha_mat
        self.beta_mat = beta_mat
        self.pairs = pairs
        self.gap_ends = gap_ends
        self.sigmas = sigmas
        self._rhos = rhos
        self.rejected = []
        self.genus = alpha_mat.shape[0]

    def loop_index(self, kind, index):
        for i, lp in enumerate(self.loops):
            if lp.kind == kind and lp.index == index:
                return i
        raise KeyError((kind, index))

    def spine_rhos(self):
        """Per loop, the worst Bernstein parameter of any foreign branch
        point in the loop's spine coordinate, as the pairing's screen
        measured it (`Screen`); loops are the cuts, then the gaps, as
        are pairs + gap_ends."""
        return self._rhos

    def spine_rho(self):
        """The worst spine_rhos() over every loop."""
        return float(self._rhos.min())


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


def _symplectic_basis(e):
    """(alpha_mat, beta_mat) of the lifted loops, cuts then gaps, from
    each gap's e_k, certified by the chain's exact intersection numbers.
    Signed along the chain C_0 G_0 C_1 G_1 ... so that consecutive loops
    meet at +1, every cut keeps its sign and gap k takes -e_k: alpha_i
    is cut i + 1, and beta_i is -(the signed gaps 0..i), e_0..e_i."""
    g = len(e)
    basis = np.zeros((2 * g, 2 * g + 1), dtype=int)
    basis[:g, 1:g + 1] = np.eye(g, dtype=int)
    basis[g:, g + 1:] = np.tril(e)

    # exact symplectic verification of the assembled basis
    gram = basis @ _chain_intersections(e) @ basis.T
    if not np.array_equal(gram, standard_j(g)):
        raise GeometryError(
            f"assembled basis is not symplectic; intersection gram:\n{gram}")
    return basis[:g], basis[g:]


class Screen(NamedTuple):
    """One pairing as `_screen` passes it, before any cap is drawn: its
    cuts, oriented and ordered, its gaps, every spine's ends (cuts,
    then gaps), clearance and rho (`CycleSystem.spine_rhos`)."""

    pairs: list
    gap_ends: list
    ends: np.ndarray
    clear: np.ndarray
    rhos: np.ndarray


def _distances(z):
    """The points' distance matrix.  hypot rounds as abs() of a Python
    complex; np.abs would move caps."""
    diff = np.subtract.outer(z, z)
    return np.hypot(diff.real, diff.imag)


def _screen(z, dist, pairing):
    """Screen the pairing of the points z, whose distance matrix is
    dist, from its spines alone.

    The pairing fixes the cuts, the gaps and each spine's clearance:
    its distance from every foreign branch point and every cut but a
    cut loop's own and gap k's neighbours k and k + 1.  A cut the spine
    does not cross is nearest it at an end of one of the two, and the
    cut's ends are foreign points, so only the spine's ends are
    measured against it; that distance is an entry of the points'
    distances to every spine, so one pass gives both.  Crossing cuts, a
    spine without clearance and crossing gap spines raise
    GeometryError, all from one broadcast crossing test.  Each loop's
    rho is |u + sqrt(u-1) sqrt(u+1)| (the root of modulus >= 1) at the
    worst foreign branch point in its spine coordinate
    u = (z - mid) / half."""
    pairs = [tuple(p) for p in pairing]
    if (sorted(i for p in pairs for i in p) != list(range(len(z)))
            or any(len(p) != 2 for p in pairs)):
        raise ValueError("pairing must partition the branch points into pairs")

    # orient each cut by lexicographic endpoint order, then order cuts
    # by midpoint so gaps connect consecutive cuts
    pts = z.tolist()

    def lex(i):
        return (pts[i].real, pts[i].imag)

    pairs = [tuple(sorted(p, key=lex)) for p in pairs]
    pairs.sort(key=lambda p: (((pts[p[0]] + pts[p[1]]) / 2).real,
                              ((pts[p[0]] + pts[p[1]]) / 2).imag))

    ncuts = len(pairs)
    # gap spines join consecutive cuts tail-to-head
    gap_ends = [(pairs[k][1], pairs[k + 1][0]) for k in range(ncuts - 1)]

    # every spine (cuts, then gaps) against every other
    ends = np.array(pairs + gap_ends)
    crossing = _spine_crossings(z[ends[:, 0]], z[ends[:, 1]])
    for i, j in zip(*np.nonzero(crossing[:ncuts, :ncuts])):
        if i < j:
            raise GeometryError(f"cuts {i} and {j} intersect")

    # clearance of every spine; spine s may cross cuts lo[s]..hi[s],
    # and a cut crossing another was rejected above
    a, b = z[ends[:, :1]], z[ends[:, 1:]]
    own = (np.arange(len(z)) == ends[:, :, None]).any(axis=1)
    to_spines = _seg_dist(z, a, b)
    lo = np.arange(len(ends)) % ncuts
    hi = lo + (np.arange(len(ends)) >= ncuts)
    crossable = (lo[:, None] <= np.arange(ncuts)) & (np.arange(ncuts) <= hi[:, None])
    to_cuts = to_spines[:ncuts, ends].min(axis=2).T
    clear = np.minimum(np.where(own, np.inf, to_spines).min(axis=1),
                       np.where(crossable, np.inf, to_cuts).min(axis=1))
    if ((clear < 1e-9 * dist.max()).any()
            or (crossing[ncuts:, :ncuts] & ~crossable[ncuts:]).any()):
        raise GeometryError("spine has no clearance from foreign cuts")
    if crossing[ncuts:, ncuts:].any():
        raise GeometryError("gap spines cross")

    u = (2.0 * z - (a + b)) / (b - a)
    rho = np.abs(u + np.sqrt(u - 1.0) * np.sqrt(u + 1.0))
    rhos = np.where(own, np.inf, np.maximum(rho, 1.0 / rho)).min(axis=1)
    return Screen(pairs, gap_ends, ends, clear, rhos)


def _assemble(curve, z, dist, screen):
    """The cycle system of a screened pairing.

    Caps are at most 0.45 of their spine's clearance, and a stadium
    lies in the convex hull of its cap discs, so within max(ra, rb) of
    its spine, short of the clearance.  So no stadium encloses a
    foreign branch point, a cut loop crosses no cut, and gap loop k
    crosses cuts k and k + 1 alone, each once, as one end of each lies
    inside it; loops that are not chain neighbours meet at 0, since an
    arc of one inside the other keeps its sheet and its two crossings
    cancel.  By the same bound e_k = -1 exactly where cut k crosses gap
    k's first side (`PeriodEngine.sigma()`): one broadcast crossing
    test reads e_k off for every gap, and no stadium is drawn.  A gap's
    caps are at most 0.8 * 0.3 of its length, the distance between the
    points it joins, so its first side exists, and the chain's basis is
    symplectic for every e_k: no screened pairing fails here."""
    pts = z.tolist()
    pairs, gap_ends, ends = screen.pairs, screen.gap_ends, screen.ends
    ncuts = len(pairs)
    nearest = np.where(dist > 0, dist, np.inf).min(axis=1)
    clamps = 0.45 * screen.clear

    # each cap at its point's radius, a gap's at GAP_CAP_SHRINK of the
    # cut cap it shares, none above its spine's clamp
    point_clamps = np.empty(len(z))
    point_clamps[ends[:ncuts]] = clamps[:ncuts, None]
    cut_caps = np.minimum(CAP_FACTOR * nearest, point_clamps)
    radii = np.vstack([cut_caps[ends[:ncuts]], np.minimum(
        GAP_CAP_SHRINK * cut_caps[ends[ncuts:]], clamps[ncuts:, None])])
    caps = [(pts[i], pts[j], *r) for (i, j), r in zip(ends.tolist(), radii.tolist())]

    # e_k = -1 where cut k, from its tail to its head, crosses gap k's
    # first side, whose ends are computed as `stadium` computes them
    side = np.empty((ncuts - 1, 2), dtype=complex)
    for k, (a, b, ra, rb) in enumerate(caps[ncuts:]):
        u = cmath.exp(1j * _tangent_angles(a, b, ra, rb)[0])
        side[k] = a + ra * u, b + rb * u
    s, t, transversal = _segment_params(side[:, 0], side[:, 1],
                                        z[ends[:ncuts - 1, 0]], z[ends[:ncuts - 1, 1]])
    e = np.where(transversal & (-_MARGIN < s) & (s < 1 - _MARGIN)
                 & (_MARGIN < t) & (t < 1 - _MARGIN), -1, 1)

    cuts = [Segment(pts[i], pts[j]) for i, j in pairs]
    loops = [Loop("cut", k, caps[k]) for k in range(ncuts)]
    loops += [Loop("gap", k, caps[ncuts + k], tuple(cuts[k:k + 2]), e_k)
              for k, e_k in enumerate(e.tolist())]
    alpha_mat, beta_mat = _symplectic_basis(e)
    sigmas = np.concatenate([np.full(ncuts, -1), e])
    return CycleSystem(curve, SheetedEval(pts, pairs), loops, alpha_mat,
                       beta_mat, pairs, gap_ends, sigmas, screen.rhos)


def build_cycles(curve: CoverCurve, pairing=None) -> CycleSystem:
    """Cycle system of the pairing (the sorted one if None): its
    screen (`_screen`), then its assembly (`_assemble`)."""
    z = np.array(curve.branch_points)
    if pairing is None:
        pairing = _default_pairing(list(curve.branch_points))
    dist = _distances(z)
    return _assemble(curve, z, dist, _screen(z, dist, pairing))


def build_cycles_robust(curve: CoverCurve, pairing=None) -> CycleSystem:
    """build_cycles of a given pairing, else a choice among the greedy,
    sorted and sweep pairings.  The points' distances are computed once,
    and each distinct pairing is screened once, in turn, until one
    passes with every rho at least SPINE_RHO_MIN, so that the
    Gauss-Jacobi ladder can settle its spines; only the pairing chosen,
    that one or else the first that passed, is assembled.  Its
    `rejected` lists the others."""
    if pairing is not None:
        return build_cycles(curve, pairing)
    pts = list(curve.branch_points)
    z = np.array(pts)
    dist = _distances(z)
    found = (s(pts) for s in (_greedy_pairing, _default_pairing, _sweep_pairing))
    tried = []
    for cand in {frozenset(map(frozenset, prs)): prs for prs in found}.values():
        try:
            screen = _screen(z, dist, cand)
        except GeometryError as exc:
            tried.append((cand, exc, str(exc)))
            continue
        rho = float(screen.rhos.min())
        tried.append((cand, screen, rho))
        if rho >= SPINE_RHO_MIN:
            break
    else:
        passed = [out for _, out, _ in tried if isinstance(out, Screen)]
        if not passed:
            raise tried[-1][1]
        screen = passed[0]
    cyc = _assemble(curve, z, dist, screen)
    cyc.rejected = [(sorted(map(sorted, cand)), why)
                    for cand, out, why in tried if out is not screen]
    return cyc
