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


def test_ray_factor_odd_model():
    # y^2 = x(x-1)(x-2); cut [0,1], ray from 2 along +1
    pts = np.array([0.0, 1.0, 2.0])
    mids = np.array([0.5 + 0j])
    halves = np.array([0.5 + 0j])
    base, sigma = 2.0 + 0j, -1.0 + 0j
    x = np.array([0.3 + 2j, -4.0 + 1j, 5.0 + 3j])
    w = kernels.eval_sheet1(x, mids, halves, base, sigma)
    assert np.max(np.abs(w**2 - x * (x - 1) * (x - 2)) / np.abs(w**2)) < 1e-12
    # discontinuous across the ray (x real > 2) ...
    wp = kernels.eval_sheet1(3.0 + 1e-9j, mids, halves, base, sigma)
    wm = kernels.eval_sheet1(3.0 - 1e-9j, mids, halves, base, sigma)
    assert abs(wp + wm) / abs(wp) < 1e-6
    # ... continuous between the cut and the ray base
    vp = kernels.eval_sheet1(1.5 + 1e-9j, mids, halves, base, sigma)
    vm = kernels.eval_sheet1(1.5 - 1e-9j, mids, halves, base, sigma)
    assert abs(vp - vm) / abs(vp) < 1e-6


def test_oncut_with_ray_factor():
    pts = np.array([0.0, 1.0, 2.0])
    mids = np.array([0.5 + 0j])
    halves = np.array([0.5 + 0j])
    base, sigma = 2.0 + 0j, -1.0 + 0j
    t = np.array([0.25])
    x0 = mids[0] + t * halves[0]
    eps = 1e-9
    wp = kernels.eval_sheet1(x0 + eps * 1j, mids, halves, base, sigma)
    bp = kernels.eval_oncut(0, t, +1, mids, halves, base, sigma)
    assert np.max(np.abs(bp - wp) / np.abs(bp)) < 1e-6


def test_backend_selector_exposes_python_fallback():
    assert kernels.BACKEND == "python"
    x = RNG.normal(size=10) + 1j * (RNG.normal(size=10) + 3.0)
    _, mids, halves = _setup_even()
    a = np.array([kernels.eval_sheet1(xi, mids, halves) for xi in x])
    b = kernels.eval_sheet1(x, mids, halves)
    assert np.max(np.abs(a - b)) < 1e-13 * np.max(np.abs(a))
