"""Cycle-system geometry: stadium contours, crossings, symplectic bases."""
import numpy as np
import pytest

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
    a1 = Arc(0.0, 1.0, 0.0, 2 * np.pi)
    a2 = Arc(1.0, 1.0, 0.0, 2 * np.pi)
    hits = piece_crossings(a1, a2)
    assert len(hits) == 2
    pts = sorted((complex(a1.point(t)) for t, _ in hits), key=lambda z: z.imag)
    assert _close(pts[0], 0.5 - 1j * np.sqrt(3) / 2, 1e-9)
    assert _close(pts[1], 0.5 + 1j * np.sqrt(3) / 2, 1e-9)


def test_reversed_pieces():
    seg = Segment(1.0, 2.0 + 1.0j)
    rev = seg.reversed()
    assert _close(rev.point(0.0), seg.point(1.0))
    assert _close(rev.point(1.0), seg.point(0.0))
    arc = Arc(0.5j, 2.0, 0.3, 1.7)
    rav = arc.reversed()
    assert _close(rav.point(0.0), arc.point(1.0))
    assert _close(rav.tangent(0.5), -arc.tangent(0.5))


REF = dict(zeros=[0.0], poles=[1.0, -1.0, 2.0, -2.0, 0.5])


# Unpruned lift, enclosure and intersection passes: every piece against
# every cut or piece, every foreign point wound.  They are the oracle of
# the builder's pruned passes and recompute intersection numbers from
# the geometry alone.

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


def all_pairs_intersections(loops):
    """Signed sheet-aware intersection numbers of the lifted loops."""
    n = len(loops)
    raw = np.zeros((n, n), dtype=int)
    for a in range(n):
        for b in range(a + 1, n):
            tot = 0
            for pi, p in enumerate(loops[a].pieces):
                for qj, q in enumerate(loops[b].pieces):
                    for s, t in piece_crossings(p, q):
                        if loops[a].sheet_at(pi, s) != loops[b].sheet_at(qj, t):
                            continue
                        da = p.tangent(s)
                        db = q.tangent(t)
                        cross = (da.conjugate() * db).imag
                        if cross == 0:
                            raise GeometryError("tangential loop crossing")
                        tot += 1 if cross > 0 else -1
            raw[a, b] = tot
            raw[b, a] = -tot
    return raw


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


PRUNED = (cycles._lift, cycles._intersections)
ALL_PAIRS = (all_pairs_lift, all_pairs_intersections)


def _recorded_build(monkeypatch, passes, curve, pairing, factor):
    """build_cycles at the one cap factor with the given lift and
    intersection passes; returns what each pass produced and the error,
    if any.  Every lifted system must enclose no stray branch point."""
    lift, intersections = passes
    pts = list(curve.branch_points)
    seen = []

    def rec_lift(loops, cut_segments):
        lift(loops, cut_segments)
        seen.append([lp.crossings for lp in loops])
        assert all_pairs_enclosures(loops, pts) == []

    def rec_intersections(loops):
        inter = intersections(loops)
        seen.append(inter.tolist())
        return inter

    monkeypatch.setattr(cycles, "CAP_FACTORS", (factor,))
    monkeypatch.setattr(cycles, "_lift", rec_lift)
    monkeypatch.setattr(cycles, "_intersections", rec_intersections)
    try:
        build_cycles(curve, pairing=pairing)
    except GeometryError as exc:
        seen.append(str(exc))
    return seen


def test_disc_pruning_matches_all_pairs_passes(monkeypatch):
    # every pairing the ladder tries, at every cap factor: the lift
    # against adjacent cuts only and the disc-pruned intersections agree
    # with the all-pairs passes, errors included, and nothing is enclosed
    rng = np.random.default_rng(909)
    outcomes = set()
    for cls in ("generic", "clustered", "collinear", "scaled"):
        for n in (5, 6, 7, 8):
            for _ in range(7):
                curve = build_cover(class_config(rng, cls, n))
                pts = list(curve.branch_points)
                candidates = {frozenset(frozenset(p) for p in strat(pts))
                              for strat in (cycles._greedy_pairing,
                                            cycles._default_pairing,
                                            cycles._sweep_pairing)}
                for pairing in candidates:
                    for factor in CAP_FACTORS:
                        args = (curve, [tuple(p) for p in pairing], factor)
                        got = _recorded_build(monkeypatch, PRUNED, *args)
                        want = _recorded_build(monkeypatch, ALL_PAIRS, *args)
                        assert got == want, (cls, n, pairing, factor)
                        outcomes.add(len(got) if isinstance(got[-1], list)
                                     else got[-1].split()[0])
    # built systems and the rejections these classes meet were compared
    assert {2, "cuts", "spine", "assembled"} <= outcomes, outcomes


def test_pruned_passes_match_all_pairs_on_bare_geometry():
    # random stadiums lifted over random cuts: the disc-pruned
    # intersection numbers are the all-pairs ones, meetings far from a
    # loop's own caps included
    rng = np.random.default_rng(77)
    met = apart = 0
    for _ in range(300):
        ends = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        loops = [cycles.Loop(stadium(a, b, *(rng.uniform(0.05, 0.6, 2)
                                            * abs(b - a))), "gap", k)
                 for k, (a, b) in enumerate(ends)]
        cuts = [Segment(*z) for z in rng.normal(size=(3, 2))
                + 1j * rng.normal(size=(3, 2))]
        try:
            all_pairs_lift(loops, cuts)
        except GeometryError:
            continue
        got = cycles._intersections(loops)
        assert np.array_equal(got, all_pairs_intersections(loops))
        met += np.count_nonzero(got)
        apart += sum(cycles._apart(la.disc, lb.disc) for la in loops
                     for lb in loops)
    assert met >= 6 and apart >= 20, (met, apart)


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
