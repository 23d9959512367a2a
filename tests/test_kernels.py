"""Sheeted square-root kernels: algebraic identity, cut placement,
boundary values, and the numpy backend."""

import numpy as np

from qdtau import kernels

RNG = np.random.default_rng(7)


def _setup_even():
    # three cuts pairing six branch points
    pts = np.array([0.0, 1.0, 2.5 + 0.3j, 3.0 + 0.2j, -1.0 - 1.0j, -0.4 - 1.2j])
    pairs = [(0, 1), (2, 3), (4, 5)]
    mids = np.array([(pts[i] + pts[j]) / 2 for i, j in pairs])
    halves = np.array([(pts[j] - pts[i]) / 2 for i, j in pairs])
    return pts, mids, halves


def test_square_identity_off_cuts():
    pts, mids, halves = _setup_even()
    x = RNG.normal(size=200) * 3 + 1j * (RNG.normal(size=200) * 3 + 5.0)
    w = kernels.eval_sheet1(x, mids, halves)
    target = np.ones_like(x)
    for b in pts:
        target *= x - b
    assert np.max(np.abs(w**2 - target) / np.abs(target)) < 1e-12


def test_far_field_is_monic():
    _, mids, halves = _setup_even()
    x = np.array([1e8 + 0j, -1e8 + 1e8j])
    w = kernels.eval_sheet1(x, mids, halves)
    assert np.max(np.abs(w / x**3 - 1.0)) < 1e-6


def test_discontinuous_exactly_on_cuts():
    _, mids, halves = _setup_even()
    k = 1
    t = 0.37
    x0 = mids[k] + t * halves[k]
    normal = 1j * halves[k] / abs(halves[k])
    eps = 1e-9 * abs(halves[k])
    wp = kernels.eval_sheet1(x0 + eps * normal, mids, halves)
    wm = kernels.eval_sheet1(x0 - eps * normal, mids, halves)
    # opposite boundary values across the cut
    assert abs(wp + wm) / abs(wp) < 1e-6
    # and continuity on the segment's extension beyond the endpoints
    x1 = mids[k] + 1.9 * halves[k]
    vp = kernels.eval_sheet1(x1 + eps * normal, mids, halves)
    vm = kernels.eval_sheet1(x1 - eps * normal, mids, halves)
    assert abs(vp - vm) / abs(vp) < 1e-6


def test_oncut_matches_one_sided_limits():
    _, mids, halves = _setup_even()
    for k in range(3):
        t = np.array([-0.6, 0.1, 0.8])
        x0 = mids[k] + t * halves[k]
        normal = 1j * halves[k] / abs(halves[k])
        eps = 1e-9 * abs(halves[k])
        wp = kernels.eval_sheet1(x0 + eps * normal, mids, halves)
        wm = kernels.eval_sheet1(x0 - eps * normal, mids, halves)
        bp = kernels.eval_oncut(k, t, +1, mids, halves)
        bm = kernels.eval_oncut(k, t, -1, mids, halves)
        assert np.max(np.abs(bp - wp) / np.abs(bp)) < 1e-6
        assert np.max(np.abs(bm - wm) / np.abs(bm)) < 1e-6


def test_backend_selector_exposes_python_fallback():
    assert kernels.BACKEND == "python"
    x = RNG.normal(size=10) + 1j * (RNG.normal(size=10) + 3.0)
    _, mids, halves = _setup_even()
    a = np.array([kernels.eval_sheet1(xi, mids, halves) for xi in x])
    b = kernels.eval_sheet1(x, mids, halves)
    assert np.max(np.abs(a - b)) < 1e-13 * np.max(np.abs(a))


def _sheet1_negative_power(x, mids, halves):
    # the factor as first written, with u ** (-2)
    out = np.ones(np.shape(x), dtype=complex)
    for m, h in zip(mids, halves):
        u = (x - m) / h
        out = out * (h * u * np.sqrt(1.0 - u ** (-2)))
    return out


def test_sheet_factor_matches_negative_power_form():
    # 1 / (u * u) and u ** (-2) round differently by a few ulps; the
    # branch must agree everywhere, also within 1e-6 of a cut
    _, mids, halves = _setup_even()
    rng = np.random.default_rng(41)
    box = rng.uniform(-3.0, 4.0, 4000) + 1j * rng.uniform(-2.5, 2.0, 4000)
    k = rng.integers(0, len(mids), 4000)
    off = rng.uniform(1e-9, 1e-6, 4000) * rng.choice([-1.0, 1.0], 4000)
    near = mids[k] + halves[k] * (rng.uniform(-0.95, 0.95, 4000) + 1j * off)
    for x in (box, near):
        want = _sheet1_negative_power(x, mids, halves)
        got = kernels.eval_sheet1(x, mids, halves)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 8 * np.finfo(float).eps
    t = rng.uniform(-0.99, 0.99, 500)
    for owner in range(len(mids)):
        x = mids[owner] + t * halves[owner]
        rest = [i for i in range(len(mids)) if i != owner]
        want = (1j * halves[owner] * np.sqrt(1.0 - t * t)
                * _sheet1_negative_power(x, mids[rest], halves[rest]))
        got = kernels.eval_oncut(owner, t, 1, mids, halves)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 8 * np.finfo(float).eps


def _oncut_skipping_owner(owner, t, side, mids, halves):
    # the scalar-owner boundary value as first written: the owner's
    # factor left out of the product over the other cuts
    t = np.asarray(t, dtype=float)
    x = mids[owner] + t * halves[owner]
    out = 1j * side * halves[owner] * np.sqrt(1.0 - t * t).astype(complex)
    for i, (m, h) in enumerate(zip(mids, halves)):
        if i != owner:
            u = (x - m) / h
            out = out * (h * u * np.sqrt(1.0 - 1.0 / (u * u)))
    return out


def test_oncut_owner_array_matches_one_call_per_cut():
    # points of every cut in one call, interleaved, give bit for bit
    # what a call on each cut gives, and a scalar owner what skipping
    # its factor gives
    _, mids, halves = _setup_even()
    rng = np.random.default_rng(43)
    t = rng.uniform(-0.999, 0.999, 300)
    owner = rng.integers(0, len(mids), 300)
    for side in (1, -1):
        got = kernels.eval_oncut(owner, t, side, mids, halves)
        for k in range(len(mids)):
            one = kernels.eval_oncut(k, t[owner == k], side, mids, halves)
            assert np.array_equal(got[owner == k], one)
            assert np.array_equal(one, _oncut_skipping_owner(
                k, t[owner == k], side, mids, halves))
