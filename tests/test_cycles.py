"""Cycle-system geometry: stadium contours, crossings, symplectic bases."""
import numpy as np
import pytest

from qdtau.curves import QDConfigG0, build_cover
from qdtau.cycles import (
    GeometryError,
    Segment,
    Arc,
    stadium,
    piece_crossings,
    winding_number,
    build_cycles,
    build_cycles_robust,
)


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


def _surface_intersections(loops):
    """Signed sheet-aware intersection numbers, recomputed from the
    loop geometry alone."""
    from qdtau.cycles import loop_loop_crossings

    n = len(loops)
    raw = np.zeros((n, n), dtype=int)
    for a in range(n):
        for b in range(a + 1, n):
            tot = 0
            for pi, s, qj, t in loop_loop_crossings(loops[a], loops[b]):
                if loops[a].sheet_at(pi, s) != loops[b].sheet_at(qj, t):
                    continue
                da = complex(loops[a].pieces[pi].tangent(s))
                db = complex(loops[b].pieces[qj].tangent(t))
                cross = (da.conjugate() * db).imag
                assert cross != 0
                tot += 1 if cross > 0 else -1
            raw[a, b] = tot
            raw[b, a] = -tot
    return raw


def _gram(cycles):
    raw = _surface_intersections(cycles.loops)
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
