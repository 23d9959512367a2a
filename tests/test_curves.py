"""Configuration validation and double-cover construction."""
import numpy as np
import pytest

from qdtau.curves import QDConfigG0, build_cover, hyperelliptic_model, SheetedEval


REF = dict(zeros=[0.0], poles=[1.0, -1.0, 2.0, -2.0, 0.5])


def test_config_basic():
    cfg = QDConfigG0(**REF)
    assert cfg.n == 5
    assert len(cfg.branch_points()) == 6


def test_config_rejects_bad_counts():
    # n - 4 zeros is forced; anything else is a modelling error.
    with pytest.raises(ValueError):
        QDConfigG0(zeros=[0.0, 3.0], poles=[1.0, -1.0, 2.0, -2.0, 0.5])
    with pytest.raises(ValueError):
        QDConfigG0(zeros=[], poles=[1.0, -1.0, 2.0, -2.0])


def test_config_rejects_collisions_and_bad_scale():
    with pytest.raises(ValueError):
        QDConfigG0(zeros=[1.0], poles=[1.0, -1.0, 2.0, -2.0, 0.5])
    with pytest.raises(ValueError):
        QDConfigG0(**REF, scale=0.0)
    with pytest.raises(ValueError):
        QDConfigG0(zeros=[float("nan")], poles=[1.0, -1.0, 2.0, -2.0, 0.5])


def test_config_pairing_must_partition():
    QDConfigG0(**REF, pairing=[(0, 1), (2, 3), (4, 5)])
    with pytest.raises(ValueError):
        QDConfigG0(**REF, pairing=[(0, 1), (2, 3), (4, 4)])
    with pytest.raises(ValueError):
        QDConfigG0(**REF, pairing=[(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        QDConfigG0(**REF, pairing=[(0, 1, 2), (3, 4, 5)])


def test_cover_genus_and_rhs():
    curve = build_cover(QDConfigG0(**REF))
    assert curve.genus == 2
    # rhs must be the monic product over all six branch points.
    xs = np.array([0.31 + 0.7j, -1.4 + 0.2j, 2.5 - 1.1j])
    expect = np.ones_like(xs)
    for b in curve.branch_points:
        expect = expect * (xs - b)
    got = np.polyval(curve.rhs_coeffs, xs)
    assert np.max(np.abs(got - expect)) < 1e-12 * np.max(np.abs(expect))


def test_hyperelliptic_model_genus():
    even = hyperelliptic_model([-1.5, -0.5, 0.5, 1.5])
    assert even.genus == 1
    g2 = hyperelliptic_model([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert g2.genus == 2
    # an odd count would put a branch point at infinity
    for odd in ([-1.0, 0.0, 1.0], [0.0, 1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(ValueError):
            hyperelliptic_model(odd)


def test_sheeted_eval_square():
    curve = build_cover(QDConfigG0(**REF))
    pairs = [(4, 2), (0, 5), (1, 3)]
    ev = SheetedEval(curve.branch_points, pairs)
    rng = np.random.default_rng(11)
    xs = rng.normal(size=40) * 2 + 1j * rng.normal(size=40) * 2
    for x in xs:
        y = ev.y(x)
        rhs = np.polyval(curve.rhs_coeffs, x)
        assert abs(y * y - rhs) < 1e-10 * max(1.0, abs(rhs))
        assert abs(ev.y(x, sheet=-1) + y) < 1e-13 * abs(y)


def test_oncut_values_square_to_rhs():
    curve = build_cover(QDConfigG0(**REF))
    pairs = [(4, 2), (0, 5), (1, 3)]
    ev = SheetedEval(curve.branch_points, pairs)
    for k, (i, j) in enumerate(pairs):
        a, b = curve.branch_points[i], curve.branch_points[j]
        for t in (-0.7, 0.0, 0.4):
            x = 0.5 * (a + b) + 0.5 * (b - a) * t
            w = ev.y_oncut(k, t, +1)
            rhs = np.polyval(curve.rhs_coeffs, x)
            assert abs(w * w - rhs) < 1e-10 * max(1.0, abs(rhs))
