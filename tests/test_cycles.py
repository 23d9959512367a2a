"""Cycle-system geometry: stadium contours, crossings, symplectic bases."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdtau import cycles, tau
from qdtau.curves import QDConfigG0, build_cover
from qdtau.cycles import (
    CAP_FACTORS,
    SPINE_RHO_MIN,
    GeometryError,
    Segment,
    Arc,
    stadium,
    piece_crossings,
    build_cycles,
    build_cycles_robust,
)
from test_periods import class_config


def _close(a, b, tol=1e-12):
    return abs(complex(a) - complex(b)) < tol


def polyline(pieces, samples=64):
    s = np.linspace(0.0, 1.0, samples + 1)
    return np.concatenate([p.point(s) for p in pieces])


def scalar_winding_number(path, z0):
    """Winding number of the closed polyline path around the point z0."""
    dw = np.diff(np.angle(path - z0))
    dw = np.where(dw > np.pi, dw - 2 * np.pi,
                  np.where(dw < -np.pi, dw + 2 * np.pi, dw))
    return round(float(np.sum(dw)) / (2 * np.pi))


def test_stadium_closes_and_winds_once():
    pieces = stadium(0.0, 2.0 + 1.0j, 0.3, 0.45)
    # consecutive endpoints must chain up, last back to first
    for p, q in zip(pieces, pieces[1:] + pieces[:1]):
        assert _close(p.point(1.0), q.point(0.0), 1e-9)
    # both foci inside, winding +1 (counterclockwise)
    path = polyline(pieces)
    assert scalar_winding_number(path, 0.0) == 1
    assert scalar_winding_number(path, 2.0 + 1.0j) == 1
    assert scalar_winding_number(path, 1.0 + 0.5j) == 1
    assert scalar_winding_number(path, 5.0) == 0
    assert scalar_winding_number(path, -1.0j) == 0


def test_stadium_rejects_swallowed_disk():
    with pytest.raises(GeometryError):
        stadium(0.0, 0.1, 1.0, 0.2)


def test_segment_segment_crossing():
    s1 = Segment(-1.0, 1.0)
    s2 = Segment(-1.0j, 1.0j)
    hits = piece_crossings(s1, s2)
    assert len(hits) == 1
    t, u = hits[0]
    assert abs(t - 0.5) < 1e-12 and abs(u - 0.5) < 1e-12
    # parallel disjoint: nothing
    assert piece_crossings(Segment(0, 1), Segment(2j, 1 + 2j)) == []


def test_segment_arc_crossing():
    # unit circle vs horizontal line through origin: hits at +-1,
    # but segment [0.2, 3] only reaches x=+1.
    arc = Arc(0.0, 1.0, -np.pi, np.pi)
    seg = Segment(0.2, 3.0)
    hits = piece_crossings(seg, arc)
    assert len(hits) == 1
    t, u = hits[0]
    assert _close(seg.point(t), 1.0, 1e-9)
    assert _close(arc.point(u), 1.0, 1e-9)


def test_arc_arc_crossing():
    # the oracle's own primitive: stadiums meet at arcs
    a1 = Arc(0.0, 1.0, 0.0, 2 * np.pi)
    a2 = Arc(1.0, 1.0, 0.0, 2 * np.pi)
    hits = oracle_crossings(a1, a2)
    assert len(hits) == 2
    pts = sorted((complex(a1.point(t)) for t, _ in hits), key=lambda z: z.imag)
    assert _close(pts[0], 0.5 - 1j * np.sqrt(3) / 2, 1e-9)
    assert _close(pts[1], 0.5 + 1j * np.sqrt(3) / 2, 1e-9)


REF = dict(zeros=[0.0], poles=[1.0, -1.0, 2.0, -2.0, 0.5])


# The oracle: every loop's stadium drawn and lifted against every cut,
# intersection numbers counted at same-sheet crossings of every pair of
# pieces (all pairs, or skipping pieces with disjoint bounding discs),
# and the spine checks pair by pair.  It recomputes the basis from the
# geometry alone, with no appeal to the chain's intersection pattern.

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
        t1 = cycles._arc_param(a1, z)
        t2 = cycles._arc_param(a2, z)
        if t1 is not None and t2 is not None:
            out.append((t1, t2))
    return out


def oracle_crossings(p, q):
    """piece_crossings, arc against arc included."""
    if isinstance(p, Arc) and isinstance(q, Arc):
        return _arc_arc(p, q)
    return piece_crossings(p, q)


def all_pairs_lift(loops, cut_segments):
    for lp in loops:
        cr = []
        for pi, piece in enumerate(lp.pieces):
            for ci, cut in enumerate(cut_segments):
                for s, _t in piece_crossings(piece, cut):
                    cr.append((pi, s, ci))
        cr.sort()
        if len(cr) % 2:
            raise GeometryError(
                f"{lp.kind} loop {lp.index} crosses cuts an odd number of times")
        lp.crossings = cr


def all_pairs_enclosures(loops, pts):
    """(kind, index, point) of every branch point a loop winds around
    other than its spine's ends, the centres of its caps.  A point
    outside the polyline's bounding box is wound around zero times."""
    out = []
    for lp in loops:
        path = polyline(lp.pieces)
        own = (lp.pieces[1].center, lp.pieces[3].center)
        box = (path.real.min(), path.real.max(), path.imag.min(), path.imag.max())
        out.extend((lp.kind, lp.index, i) for i, z in enumerate(pts)
                   if z not in own and box[0] <= z.real <= box[1]
                   and box[2] <= z.imag <= box[3]
                   and scalar_winding_number(path, z))
    return out


def _crossing_sign(la, pi, s, lb, qj, t):
    """+-1 at a same-sheet crossing of the lifted loops, else 0."""
    if la.sheet_at(pi, s) != lb.sheet_at(qj, t):
        return 0
    da, db = la.pieces[pi].tangent(s), lb.pieces[qj].tangent(t)
    cross = (da.conjugate() * db).imag
    if cross == 0:
        raise GeometryError("tangential loop crossing")
    return 1 if cross > 0 else -1


def all_pairs_intersections(loops):
    """Signed sheet-aware intersection numbers of the lifted loops."""
    n = len(loops)
    raw = np.zeros((n, n), dtype=int)
    for a in range(n):
        for b in range(a + 1, n):
            raw[a, b] = sum(
                _crossing_sign(loops[a], pi, s, loops[b], qj, t)
                for pi, p in enumerate(loops[a].pieces)
                for qj, q in enumerate(loops[b].pieces)
                for s, t in oracle_crossings(p, q))
    return raw - raw.T


def _disc(pieces):
    """(centre, radius) of a disc holding the pieces."""
    return [((p.a + p.b) / 2.0, abs(p.b - p.a) / 2.0) if isinstance(p, Segment)
            else (p.center, p.radius) for p in pieces]


def _apart(d1, d2):
    """Whether discs (centre, radius) are disjoint beyond rounding."""
    return abs(d1[0] - d2[0]) > (d1[1] + d2[1]) * (1.0 + 1e-9)


def pruned_intersections(loops):
    """all_pairs_intersections, skipping loops and pieces whose bounding
    discs are disjoint: a stadium lies within max(ra, rb) of its spine."""
    whole = []
    for lp in loops:
        ca, cb = lp.pieces[3], lp.pieces[1]
        whole.append(((ca.center + cb.center) / 2.0, abs(cb.center - ca.center)
                      / 2.0 + max(ca.radius, cb.radius)))
    discs = [_disc(lp.pieces) for lp in loops]
    raw = np.zeros((len(loops), len(loops)), dtype=int)
    for a, la in enumerate(loops):
        for b, lb in enumerate(loops[a + 1:], a + 1):
            if _apart(whole[a], whole[b]):
                continue
            raw[a, b] = sum(
                _crossing_sign(la, pi, s, lb, qj, t)
                for pi, (p, dp) in enumerate(zip(la.pieces, discs[a]))
                for qj, (q, dq) in enumerate(zip(lb.pieces, discs[b]))
                if not _apart(dp, dq) for s, t in oracle_crossings(p, q))
    return raw - raw.T


def oracle_build(curve, pairing, factor, intersections=pruned_intersections):
    """build_cycles at one cap factor, from full stadiums: the spine
    checks pair by pair, every loop drawn and lifted against every cut,
    and the basis from the counted intersection numbers (so crossing
    gap spines fail its symplectic check).  The sigmas are read off the
    lift: the sheet at the first side's midpoint, negated on cuts."""
    pts = list(curve.branch_points)
    pairs = [tuple(sorted(p, key=lambda i: (pts[i].real, pts[i].imag)))
             for p in pairing]
    pairs.sort(key=lambda p: (((pts[p[0]] + pts[p[1]]) / 2).real,
                              ((pts[p[0]] + pts[p[1]]) / 2).imag))
    ncuts = len(pairs)
    cuts = [Segment(pts[i], pts[j]) for i, j in pairs]
    for i in range(ncuts):
        for j in range(i + 1, ncuts):
            if piece_crossings(cuts[i], cuts[j]):
                raise GeometryError(f"cuts {i} and {j} intersect")
    gap_ends = [(pairs[k][1], pairs[k + 1][0]) for k in range(ncuts - 1)]

    # clearance, as build_cycles measures it
    z = np.array(pts)
    diff = np.subtract.outer(z, z)
    dist = np.hypot(diff.real, diff.imag)
    nearest = np.where(dist > 0, dist, np.inf).min(axis=1)
    ends = np.array(pairs + gap_ends)
    own = (np.arange(len(z)) == ends[:, :, None]).any(axis=1)
    foreign = np.where(own, np.inf,
                       cycles._seg_dist(z, z[ends[:, :1]], z[ends[:, 1:]]))
    near = [{k} for k in range(ncuts)] + [{k, k + 1} for k in range(ncuts - 1)]
    far = np.array([[c not in nr for c in range(ncuts)] for nr in near])
    to_cuts = cycles._seg_dist(z[ends][:, :, None], z[ends[:ncuts, 0]],
                               z[ends[:ncuts, 1]])
    clear = np.minimum(foreign.min(axis=1),
                       np.where(far, to_cuts.min(axis=1), np.inf).min(axis=1))
    if (clear < 1e-9 * dist.max()).any() or any(
            piece_crossings(Segment(pts[i], pts[j]), cuts[c])
            for k, (i, j) in enumerate(gap_ends) for c in range(ncuts)
            if far[ncuts + k, c]):
        raise GeometryError("spine has no clearance from foreign cuts")
    clamps = (0.45 * clear).tolist()

    radii = (factor * nearest).tolist()
    cap = {}
    for k, (i, j) in enumerate(pairs):
        cap[i], cap[j] = min(radii[i], clamps[k]), min(radii[j], clamps[k])
    loops = [cycles.Loop("cut", k, (pts[i], pts[j], cap[i], cap[j]))
             for k, (i, j) in enumerate(pairs)]
    loops += [cycles.Loop("gap", k, (pts[i], pts[j], *(
        min(cycles.GAP_CAP_SHRINK * cap[e], clamps[ncuts + k]) for e in (i, j))))
              for k, (i, j) in enumerate(gap_ends)]
    all_pairs_lift(loops, cuts)
    alpha_mat, beta_mat = cycles._symplectic_basis(intersections(loops), ncuts,
                                                   curve.genus)
    sigmas = np.array([(-1 if lp.kind == "cut" else 1) * lp.sheet_at(0, 0.5)
                       for lp in loops])
    return cycles.CycleSystem(curve, None, loops, alpha_mat, beta_mat, pairs,
                              gap_ends, sigmas, factor)


def oracle_ladder(curve, pairing):
    """oracle_build at the first of CAP_FACTORS that builds."""
    for factor in CAP_FACTORS:
        try:
            return oracle_build(curve, pairing, factor)
        except GeometryError as exc:
            last = exc
    raise last


def candidate_pairings(curve):
    """The distinct pairings build_cycles_robust tries, in its order."""
    pts = list(curve.branch_points)
    found = (s(pts) for s in (cycles._greedy_pairing, cycles._default_pairing,
                              cycles._sweep_pairing))
    return list({frozenset(map(frozenset, prs)): prs for prs in found}.values())


def oracle_robust(curve):
    """build_cycles_robust's choice among the oracle's ladders."""
    built = []
    for cand in candidate_pairings(curve):
        try:
            cyc = oracle_ladder(curve, cand)
        except GeometryError:
            continue
        if cyc.spine_rho() >= SPINE_RHO_MIN:
            return cyc
        built.append(cyc)
    return built[0]


def assert_same_system(got, want):
    """Same cuts, caps, lifts, basis and orientations."""
    assert got.pairs == want.pairs and got.cap_factor == want.cap_factor
    assert [lp.caps for lp in got.loops] == [lp.caps for lp in want.loops]
    assert [lp.crossings for lp in got.loops] == [lp.crossings for lp in want.loops]
    assert np.array_equal(got.alpha_mat, want.alpha_mat)
    assert np.array_equal(got.beta_mat, want.beta_mat)
    assert np.array_equal(got.sigmas, want.sigmas)


def _gram(cycles):
    raw = all_pairs_intersections(cycles.loops)
    rows = np.vstack([cycles.alpha_mat, cycles.beta_mat])
    return rows @ raw @ rows.T


def test_reference_config_builds_genus2_basis():
    curve = build_cover(QDConfigG0(**REF))
    cyc = build_cycles_robust(curve)
    g = curve.genus
    assert g == 2
    assert cyc.alpha_mat.shape == (g, len(cyc.loops))
    assert cyc.beta_mat.shape == (g, len(cyc.loops))
    gram = _gram(cyc)
    J = np.block(
        [[np.zeros((g, g)), np.eye(g)], [-np.eye(g), np.zeros((g, g))]]
    )
    assert np.array_equal(gram, J)


def test_loops_start_on_sheet_one_and_close_up():
    curve = build_cover(QDConfigG0(**REF))
    cyc = build_cycles_robust(curve)
    for loop in cyc.loops:
        assert loop.sheet_at(0, 0.0) == 1
        # even crossing count means the lift returns to its start sheet
        assert len(loop.crossings) % 2 == 0
        # crossings are ordered along the loop
        keys = [(pi, s) for (pi, s, _c) in loop.crossings]
        assert keys == sorted(keys)


def test_build_cycles_random_configs():
    rng = np.random.default_rng(404)
    built = 0
    for _ in range(12):
        pts = rng.normal(size=6) + 1j * rng.normal(size=6)
        if np.min(np.abs(pts[:, None] - pts[None, :])[np.triu_indices(6, 1)]) < 0.2:
            continue
        cfg = QDConfigG0(zeros=[complex(pts[0])], poles=[complex(p) for p in pts[1:]])
        cyc = build_cycles_robust(build_cover(cfg))
        gram = _gram(cyc)
        g = cyc.genus
        J = np.block(
            [[np.zeros((g, g)), np.eye(g)], [-np.eye(g), np.zeros((g, g))]]
        )
        assert np.array_equal(gram, J)
        built += 1
    assert built >= 8


def test_collinear_overlapping_pairing_rejected():
    # cuts [0,2] and [1,3] overlap along the real axis, which the
    # crossing test does not count; cut [0,2] runs through the foreign
    # branch point 1, so its spine has no clearance.
    cfg = QDConfigG0(
        zeros=[0.0],
        poles=[1.0, 2.0, 3.0, -1.0, -2.0],
        pairing=[(0, 2), (1, 3), (4, 5)],
    )
    curve = build_cover(cfg)
    with pytest.raises(GeometryError, match="spine has no clearance"):
        build_cycles(curve, pairing=cfg.pairing)


def test_explicit_pairing_is_respected():
    # branch points [0, 1, -1, 2, -2, 0.5]: pair up (-2,-1), (0,0.5), (1,2)
    cfg = QDConfigG0(**REF, pairing=[(4, 2), (0, 5), (1, 3)])
    curve = build_cover(cfg)
    cyc = build_cycles_robust(curve, pairing=cfg.pairing)
    built_pairs = {tuple(sorted(p)) for p in cyc.pairs}
    assert built_pairs == {(2, 4), (0, 5), (1, 3)}


def test_pairing_that_leaves_a_point_unmatched_is_rejected():
    # with an even number of branch points every cut joins two of them;
    # a pairing that leaves one out, repeats one or joins three is bad input
    curve = build_cover(QDConfigG0(**REF))
    for pairing in ([(4, 2), (0, 5)], [(4, 2), (0, 5), (1, 5)],
                    [(0, 1, 2), (3, 4, 5)]):
        with pytest.raises(ValueError):
            build_cycles(curve, pairing=pairing)
        with pytest.raises(ValueError):
            build_cycles_robust(curve, pairing=pairing)


def _chain_build(monkeypatch, curve, pairing, factor):
    """build_cycles at the one cap factor, or its error's text."""
    monkeypatch.setattr(cycles, "CAP_FACTORS", (factor,))
    try:
        return build_cycles(curve, pairing=pairing)
    except GeometryError as exc:
        return str(exc)
    finally:
        monkeypatch.undo()


def _same_verdict(got, want):
    """The chain builder rejects crossing gap spines up front, where the
    oracle's basis fails its symplectic check; it names an odd gap lift
    by the cuts crossed.  Every other error is the oracle's."""
    if got == "gap spines cross":
        return want.startswith("assembled basis is not symplectic")
    if got.startswith("gap loop"):
        return got.split(" crosses")[0] == want.split(" crosses")[0]
    return got == want


def test_chain_basis_matches_all_pairs_passes(monkeypatch):
    # every pairing the ladder tries, at every cap factor: the basis and
    # orientations read off the chain are those full stadiums give with
    # the counted intersection numbers, errors included, and no stadium
    # encloses a branch point
    rng = np.random.default_rng(909)
    outcomes = set()
    for cls in ("generic", "clustered", "collinear", "scaled"):
        for n in (5, 6, 7, 8):
            for _ in range(7):
                curve = build_cover(class_config(rng, cls, n))
                pts = list(curve.branch_points)
                for pairing in candidate_pairings(curve):
                    for factor in CAP_FACTORS:
                        got = _chain_build(monkeypatch, curve, pairing, factor)
                        try:
                            want = oracle_build(curve, pairing, factor)
                        except GeometryError as exc:
                            want = str(exc)
                        where = (cls, n, pairing, factor)
                        if isinstance(want, str):
                            assert isinstance(got, str), where
                            assert _same_verdict(got, want), (where, got, want)
                            outcomes.add(got.split()[0])
                            continue
                        assert all_pairs_enclosures(want.loops, pts) == []
                        assert not isinstance(got, str), (where, got)
                        assert_same_system(got, want)
                        outcomes.add("built")
    # built systems and the rejections these classes meet were compared
    assert {"built", "cuts", "spine", "gap"} <= outcomes, outcomes


def test_chain_ladder_matches_all_pairs_on_bare_geometry():
    # random points, every pairing the robust ladder weighs: it settles
    # on the oracle's pairing and cap factor with the oracle's basis and
    # orientations, and the chain's intersection numbers are the ones
    # every pair of full stadiums counts, lazily drawn cut loops included
    rng = np.random.default_rng(77)
    met = passed_over = 0
    signs = set()
    for _ in range(40):
        m = 2 * int(rng.integers(3, 6))
        pts = rng.normal(size=m) + 1j * rng.normal(size=m)
        if np.min(np.abs(pts[:, None] - pts)[np.triu_indices(m, 1)]) < 0.05:
            continue
        curve = build_cover(QDConfigG0(zeros=list(pts[:m // 2 - 2]),
                                       poles=list(pts[m // 2 - 2:])))
        cyc = build_cycles_robust(curve)
        assert_same_system(cyc, oracle_robust(curve))
        ncuts = len(cyc.pairs)
        inter = cycles._chain_intersections(cyc.sigmas[ncuts:])
        assert np.array_equal(all_pairs_intersections(cyc.loops), inter)
        met += np.count_nonzero(inter)
        passed_over += len(cyc.rejected)
        signs.update(cyc.sigmas[ncuts:].tolist())
    assert met >= 300 and passed_over >= 8 and signs == {-1, 1}, (
        met, passed_over, signs)


# three cuts whose gaps cross: gap 0 runs from -1.9+2j down to -0.2-1j,
# gap 1 from 0.2+1j down to -1-2.5j
CROSSED_GAPS = QDConfigG0(zeros=[-2.0], poles=[-1.9 + 2j, -0.2 - 1j, 0.2 + 1j,
                                               -1 - 2.5j, 3 - 2.5j])


def test_crossing_gap_spines_are_rejected_before_any_stadium(monkeypatch):
    curve = build_cover(CROSSED_GAPS)
    pairing = [(0, 1), (2, 3), (4, 5)]
    drawn = []
    monkeypatch.setattr(cycles, "stadium",
                        lambda *caps: drawn.append(caps) or stadium(*caps))
    with pytest.raises(GeometryError, match="gap spines cross"):
        build_cycles(curve, pairing=pairing)
    assert drawn == []
    # the stadiums' counted intersection numbers admit no symplectic
    # basis, at any cap factor
    for factor in CAP_FACTORS:
        with pytest.raises(GeometryError, match="assembled basis is not symplectic"):
            oracle_build(curve, pairing, factor)


def loop_greedy_pairing(points):
    """The greedy pairing by a loop over every unpaired pair, kept as
    the oracle of the vectorised `cycles._greedy_pairing`: ties go to
    the first pair (i, j) met."""
    left = set(range(len(points)))
    pairs = []
    while len(left) > 1:
        best = None
        for i in sorted(left):
            for j in sorted(left):
                if j <= i:
                    continue
                d = abs(points[i] - points[j])
                if best is None or d < best[0]:
                    best = (d, i, j)
        pairs.append((best[1], best[2]))
        left.discard(best[1])
        left.discard(best[2])
    return pairs


def test_greedy_pairing_matches_the_loop():
    # seeded points of the four classes, both full schedules, and
    # lattices whose distances tie exactly
    rng = np.random.default_rng(44)
    sets = [list(class_config(rng, cls, n).branch_points())
            for cls in ("generic", "clustered", "collinear", "scaled")
            for n in (5, 6, 7, 8) for _ in range(4)]
    sets += [list(fam.config(d).branch_points())
             for fam in (tau.zero_pole_family(), tau.zero_zero_family())
             for d in fam.schedule]
    sets += [[complex(a, b) for a in range(3) for b in range(2)],
             [complex(a, b) for a in range(4) for b in range(2)][::-1]]
    for pts in sets:
        assert cycles._greedy_pairing(pts) == loop_greedy_pairing(pts), pts


def test_robust_ladder_passes_over_crossing_gap_spines():
    # the greedy pairing's gaps cross; the ladder moves on to the sorted
    # pairing, the oracle's choice as well
    curve = build_cover(class_config(np.random.default_rng(26), "generic", 5))
    cyc = build_cycles_robust(curve)
    greedy = sorted(map(sorted, cycles._greedy_pairing(list(curve.branch_points))))
    assert cyc.rejected == [(greedy, "gap spines cross")]
    assert cyc.pairs == [(1, 0), (5, 4), (3, 2)]
    assert_same_system(cyc, oracle_robust(curve))


@settings(max_examples=12, derandomize=True, deadline=None)
@given(cls=st.sampled_from(["generic", "clustered", "collinear", "scaled"]),
       n=st.integers(5, 8), seed=st.integers(0, 2**32 - 1))
def test_chain_basis_matches_oracle_at_the_accepted_factor(cls, n, seed):
    curve = build_cover(class_config(np.random.default_rng(seed), cls, n))
    cyc = build_cycles_robust(curve)
    assert_same_system(cyc, oracle_build(curve, cyc.pairs, cyc.cap_factor))


def test_robust_ladder_records_what_it_passed_over(monkeypatch):
    # each pairing tried and not returned, in order, with its rho when
    # that was too poor, else its error's text
    attempts = _spy_attempts(monkeypatch)
    rng = np.random.default_rng(12)
    reasons = set()
    for cls in ("generic", "clustered", "collinear", "scaled"):
        for n in (5, 6, 7, 8):
            del attempts[:]
            cyc = build_cycles_robust(build_cover(class_config(rng, cls, n)))
            assert cyc.cap_factor in CAP_FACTORS
            want = [(sorted(map(sorted, key)),
                     str(out) if isinstance(out, GeometryError) else out.spine_rho())
                    for key, out in attempts if out is not cyc]
            assert cyc.rejected == want
            for _, why in cyc.rejected:
                assert isinstance(why, str) or why < SPINE_RHO_MIN
                reasons.add(why.split()[0] if isinstance(why, str) else "rho")
    assert {"rho", "spine"} <= reasons, reasons


def _seg_dist(p, a, b):
    """Distance from the point p to the segment [a, b]."""
    d = b - a
    s = ((p - a) * d.conjugate()).real / (d * d.conjugate()).real
    return abs(p - (a + min(1.0, max(0.0, s)) * d))


def test_caps_keep_within_the_spine_clearance():
    # the bound build_cycles and PeriodEngine.sigma() rest on: no cap
    # exceeds 0.45 of its spine's clearance from foreign points and from
    # cuts the loop may not cross, and the whole stadium keeps inside it
    rng = np.random.default_rng(4321)
    binding = 0
    for cls in ("generic", "clustered", "collinear", "scaled"):
        for n in (5, 6, 7, 8):
            for _ in range(2):
                cyc = build_cycles_robust(build_cover(class_config(rng, cls, n)))
                pts = list(cyc.curve.branch_points)
                cuts = [(pts[i], pts[j]) for i, j in cyc.pairs]
                for lp, (i, j) in zip(cyc.loops, cyc.pairs + cyc.gap_ends):
                    a, b = pts[i], pts[j]
                    near = ({lp.index} if lp.kind == "cut"
                            else {lp.index, lp.index + 1})
                    clear = min(
                        [_seg_dist(z, a, b) for k, z in enumerate(pts)
                         if k not in (i, j)]
                        + [_seg_dist(e, *c) for k, c in enumerate(cuts)
                           if k not in near for e in (a, b)])
                    caps = [lp.pieces[3].radius, lp.pieces[1].radius]
                    assert max(caps) <= 0.45 * clear
                    binding += 0.45 * clear in caps
                    outline = polyline(lp.pieces, 8)
                    assert max(_seg_dist(z, a, b) for z in outline) < 0.5 * clear
    # the clearance, not the neighbour distance, bounds some caps
    assert binding >= 5, binding


def test_explicit_pairing_with_poor_rho_is_kept():
    # the zero-zero family's pinching zeros at d = 3.9e-4 crowd a spine
    # past SPINE_RHO_MIN; a given pairing is still built as it is
    fam = tau.zero_zero_family()
    curve = build_cover(fam.config(0.1 * 0.5 ** 8))
    cyc = build_cycles_robust(curve, pairing=fam.pairing)
    assert ({tuple(sorted(p)) for p in cyc.pairs}
            == {tuple(sorted(p)) for p in fam.pairing})
    assert 1.0 < cyc.spine_rho() < SPINE_RHO_MIN


def _spy_attempts(monkeypatch):
    """Record (pairing, system built or error) of every attempt."""
    attempts = []
    real = cycles.build_cycles

    def spy(curve, pairing=None):
        key = frozenset(frozenset(p) for p in pairing)
        try:
            out = real(curve, pairing=pairing)
        except GeometryError as exc:
            attempts.append((key, exc))
            raise
        attempts.append((key, out))
        return out

    monkeypatch.setattr(cycles, "build_cycles", spy)
    return attempts


def test_crossing_cuts_are_attempted_once(monkeypatch):
    attempts = _spy_attempts(monkeypatch)
    # the diagonals of a square cross at its centre
    curve = build_cover(QDConfigG0(zeros=[2.0], poles=[1 + 1j, -1 - 1j, 1 - 1j,
                                                       -1 + 1j, 3.0]))
    with pytest.raises(GeometryError, match="cuts 0 and 1 intersect"):
        build_cycles_robust(curve, pairing=[(1, 2), (3, 4), (0, 5)])
    assert len(attempts) == 1


def test_ladder_tries_each_pairing_once_and_ranks_by_rho(monkeypatch):
    attempts = _spy_attempts(monkeypatch)
    rng = np.random.default_rng(12)
    dropped = rescued = 0
    for cls in ("generic", "clustered", "collinear", "scaled"):
        for n in (5, 6, 7, 8):
            for _ in range(2):
                del attempts[:]
                cyc = build_cycles_robust(build_cover(class_config(rng, cls, n)))
                tried = [key for key, _ in attempts]
                assert len(set(tried)) == len(tried)
                dropped += sum(isinstance(out, GeometryError)
                               for _, out in attempts)
                # the first clear pairing that built, else the first built
                built = [out for _, out in attempts
                         if not isinstance(out, GeometryError)]
                clear = [c for c in built if c.spine_rho() >= SPINE_RHO_MIN]
                assert cyc is (clear[0] if clear else built[0])
                assert cyc is built[-1] or not clear
                rescued += cyc is not built[0]
    assert dropped >= 3 and rescued >= 1
