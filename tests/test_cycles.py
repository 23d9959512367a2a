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
    winding_number,
    build_cycles,
    build_cycles_robust,
)
from test_periods import class_config


def _close(a, b, tol=1e-12):
    return abs(complex(a) - complex(b)) < tol


def test_stadium_closes_and_winds_once():
    pieces = stadium(0.0, 2.0 + 1.0j, 0.3, 0.45)
    # consecutive endpoints must chain up, last back to first
    for p, q in zip(pieces, pieces[1:] + pieces[:1]):
        assert _close(p.point(1.0), q.point(0.0), 1e-9)
    # both foci inside, winding +1 (counterclockwise)
    assert winding_number(pieces, 0.0) == 1
    assert winding_number(pieces, 2.0 + 1.0j) == 1
    assert winding_number(pieces, 1.0 + 0.5j) == 1
    assert winding_number(pieces, 5.0) == 0
    assert winding_number(pieces, -1.0j) == 0


def scalar_winding_number(pieces, z0, samples=64):
    """The one-point form winding_number had before it took arrays."""
    s = np.linspace(0.0, 1.0, samples + 1)
    w = np.angle(np.concatenate([p.point(s) for p in pieces]) - z0)
    dw = np.diff(w)
    dw = np.where(dw > np.pi, dw - 2 * np.pi,
                  np.where(dw < -np.pi, dw + 2 * np.pi, dw))
    return round(float(np.sum(dw)) / (2 * np.pi))


def test_batched_winding_number_matches_scalar_form():
    rng = np.random.default_rng(31)
    wound = 0
    for _ in range(40):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        ra, rb = rng.uniform(0.05, 0.4, 2) * abs(b - a)
        pieces = stadium(a, b, ra, rb)
        if rng.random() < 0.5:
            pieces = [p.reversed() for p in pieces[::-1]]
        # points around and inside the stadium, its foci included
        z = np.concatenate([[a, b, (a + b) / 2],
                            a + (b - a) * (rng.normal(size=12)
                                           + 1j * rng.normal(size=12))])
        got = winding_number(pieces, z)
        want = [scalar_winding_number(pieces, zi) for zi in z]
        assert got.tolist() == want
        wound += np.count_nonzero(got)
    # both points inside (foci, centre) and outside were tested
    assert 120 <= wound < 40 * 15


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
# the builder's disc-pruned passes and recompute intersection numbers
# from the geometry alone.

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


def all_pairs_enclosures(loops, pts, spine_ends):
    for lp, own in zip(loops, spine_ends):
        foreign = [i for i in range(len(pts)) if i not in own]
        wound = winding_number(lp.pieces, [pts[i] for i in foreign])
        if wound.any():
            bad = foreign[np.flatnonzero(wound)[0]]
            raise GeometryError(
                f"{lp.kind} loop {lp.index} encloses branch point {bad}")


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
    # cuts [0,2] and [1,3] overlap along the real axis; the stray-point
    # containment check must notice the enclosed foreign branch point.
    cfg = QDConfigG0(
        zeros=[0.0],
        poles=[1.0, 2.0, 3.0, -1.0, -2.0],
        pairing=[(0, 2), (1, 3), (4, 5)],
    )
    curve = build_cover(cfg)
    with pytest.raises(GeometryError):
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


PRUNED = (cycles._lift, cycles._check_enclosures, cycles._intersections)
ALL_PAIRS = (all_pairs_lift, all_pairs_enclosures, all_pairs_intersections)


def _recorded_build(monkeypatch, passes, curve, pairing, factor):
    """build_cycles with the given lift, enclosure and intersection
    passes; returns what each pass produced and the error, if any."""
    lift, enclosures, intersections = passes
    seen = []

    def rec_lift(loops, cut_segments):
        lift(loops, cut_segments)
        seen.append([lp.crossings for lp in loops])

    def rec_enclosures(loops, pts, spine_ends):
        enclosures(loops, pts, spine_ends)
        seen.append("no stray enclosure")

    def rec_intersections(loops):
        inter = intersections(loops)
        seen.append(inter.tolist())
        return inter

    monkeypatch.setattr(cycles, "_lift", rec_lift)
    monkeypatch.setattr(cycles, "_check_enclosures", rec_enclosures)
    monkeypatch.setattr(cycles, "_intersections", rec_intersections)
    try:
        build_cycles(curve, pairing=pairing, cap_factor=factor)
    except GeometryError as exc:
        seen.append(str(exc))
    return seen


def test_disc_pruning_matches_all_pairs_passes(monkeypatch):
    # every pairing the ladder tries, at every cap factor: crossings,
    # enclosure verdicts, intersection matrices and errors all agree
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
    assert {3, "cuts", "spine", "assembled"} <= outcomes, outcomes


def _verdict(pass_, *args):
    try:
        out = pass_(*args)
    except GeometryError as exc:
        return str(exc)
    return [lp.crossings for lp in args[0]] if out is None else out.tolist()


def test_pruned_passes_match_all_pairs_on_bare_geometry():
    # the builder's clearances keep stray enclosures, odd lifts and
    # crossings far from a loop's own caps out of reach, so random
    # stadiums among random cuts and points exercise those verdicts
    rng = np.random.default_rng(77)
    verdicts = []
    for _ in range(60):
        ends = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        loops = [cycles.Loop(stadium(a, b, *(rng.uniform(0.05, 0.6, 2)
                                            * abs(b - a))), "gap", k)
                 for k, (a, b) in enumerate(ends)]
        cuts = [Segment(*z) for z in rng.normal(size=(3, 2))
                + 1j * rng.normal(size=(3, 2))]
        pts = [*ends[0], *(rng.normal(size=4) + 1j * rng.normal(size=4))]
        for pruned, oracle, args in (
                (cycles._check_enclosures, all_pairs_enclosures,
                 (loops[:1], pts, [(0, 1)])),
                (cycles._lift, all_pairs_lift, (loops, cuts)),
                (cycles._intersections, all_pairs_intersections, (loops,))):
            got = _verdict(pruned, *args)
            assert got == _verdict(oracle, *args)
            verdicts.append(got if isinstance(got, str) else pruned.__name__)
            if isinstance(got, str):
                break
    # every pass passed and failed somewhere
    assert {"_check_enclosures", "_lift", "_intersections"} <= set(verdicts)
    assert {"encloses", "crosses"} <= {v.split()[3] for v in verdicts
                                       if v.startswith("gap loop")}


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
    """Record (pairing, cap factor, system built or error) of every
    attempt."""
    attempts = []
    real = cycles.build_cycles

    def spy(curve, pairing=None, cap_factor=cycles.CAP_FACTOR):
        key = frozenset(frozenset(p) for p in pairing)
        try:
            out = real(curve, pairing=pairing, cap_factor=cap_factor)
        except GeometryError as exc:
            attempts.append((key, cap_factor, exc))
            raise
        attempts.append((key, cap_factor, out))
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
    assert len(attempts) == 1 and attempts[0][2].cap_free


def test_ladder_drops_cap_free_faults_and_ranks_by_rho(monkeypatch):
    attempts = _spy_attempts(monkeypatch)
    rng = np.random.default_rng(12)
    dropped = rescued = 0
    for cls in ("generic", "clustered", "collinear", "scaled"):
        for n in (5, 6, 7, 8):
            for _ in range(2):
                del attempts[:]
                cyc = build_cycles_robust(build_cover(class_config(rng, cls, n)))
                tried = [key for key, _, _ in attempts]
                for key, factor, out in attempts:
                    if isinstance(out, GeometryError) and out.cap_free:
                        assert tried.count(key) == 1
                        assert factor == CAP_FACTORS[0]
                        dropped += 1
                # the first clear pairing that built, else the first built
                built = [out for _, _, out in attempts
                         if not isinstance(out, GeometryError)]
                clear = [c for c in built if c.spine_rho() >= SPINE_RHO_MIN]
                assert cyc is (clear[0] if clear else built[0])
                assert cyc is built[-1] or not clear
                rescued += cyc is not built[0]
    assert dropped >= 3 and rescued >= 1
