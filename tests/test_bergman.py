"""Bergman kernel: normalization, pullback identity, projective connections."""
import numpy as np
import pytest

from qdtau import tau
from qdtau.checks import fd_schwarzian
from qdtau.curves import QDConfigG0, build_cover, hyperelliptic_model
from qdtau.cycles import GeometryError, build_cycles_robust
from qdtau.periods import PeriodEngine
from qdtau.bergman import BergmanEvaluator
from qdtau.cover_homology import blocks, random_symplectic, transform_basis
from qdtau.quadrature import QuadratureError, adaptive_line
from test_periods import class_config, mobius_model, spine_half


REF = dict(zeros=[0.0], poles=[1.0, -1.0, 2.0, -2.0, 0.5])


@pytest.fixture(scope="module")
def ref_bergman():
    curve = build_cover(QDConfigG0(**REF))
    pe = PeriodEngine(build_cycles_robust(curve))
    return BergmanEvaluator(pe)


# y^2 = x^3 - x under x = -2 + 1/u: yhat^2 = u(u - 1/3)(u - 1/2)(u - 1)
# with dx/y = -du/(K yhat), and the alpha cycle onto the real one
LEMNISCATIC_MODEL, K = mobius_model([-1.0, 0.0, 1.0], -2.0)


@pytest.fixture(scope="module")
def elliptic_bergman():
    curve = hyperelliptic_model(LEMNISCATIC_MODEL)
    pe = PeriodEngine(build_cycles_robust(curve))
    return BergmanEvaluator(pe)


def probe_correction(be):
    """C by the probe solve the closed form replaced, kept as its
    oracle.  At g probe points x0 on a circle of 1.5 times the branch
    points' radius (angle offset 0.37, moved by 0.21 while the probe
    matrix has condition >= 1e8), the alpha integrals of B0's non-exact
    part in w, on the spine route with the stadium contour where a
    ladder fails, must cancel those of the correction term: a g x g
    linear solve for C, then symmetrized."""
    pe, ev, g = be.pe, be.ev, be.curve.genus
    center = be.branch_points.mean()
    radius = 1.5 * max(np.abs(be.branch_points - center).max(), 1e-6)
    for offset in 0.37 + 0.21 * np.arange(4):
        probes = center + radius * np.exp(1j * (2 * np.pi * np.arange(g) / g
                                                + offset))
        u = be.q_values(probes) / ev.y(probes)[:, None]
        if np.linalg.cond(u) < 1e8:
            break
    else:
        pytest.fail("probe matrix ill-conditioned")
    x0 = probes[:, None]
    y0 = ev.y(x0)

    def fn(w):
        return be._h(x0, w) / (4.0 * y0 * (x0 - w) ** 2)

    def period(i):
        try:
            return 2.0 * pe.sigma(i) * spine_half(pe, i, fn)
        except QuadratureError:
            return pe.contour_loop_period(lambda w, s: fn(w) / ev.y(w, s), i)

    loops = {i: period(i) for i in np.flatnonzero(be.alpha_mat.any(axis=0))}
    rint = np.array([sum(int(c) * loops[i] for i, c in enumerate(row) if c)
                     for row in be.alpha_mat]).T
    c = np.linalg.solve(u, -rint)
    return 0.5 * (c + c.T)


def _probe_cases():
    """(label, config, pairing, number of random basis moves)."""
    yield "ref", QDConfigG0(**REF), None, 0
    for cls in ("generic", "clustered", "collinear", "scaled"):
        for n in (5, 6, 7, 8):
            config = class_config(np.random.default_rng(n), cls, n)
            yield f"{cls}-n{n}", config, None, 0
    for fam in (tau.zero_pole_family(), tau.zero_zero_family()):
        for d in fam.schedule:
            yield (f"{fam.name}-{d:.1e}", fam.config(d), fam.pairing,
                   5 if d < 4e-4 else 0)


def test_closed_form_correction_matches_probe_solve():
    # REF, one configuration per class and n, and every row of both full
    # schedules; from d = 3.9e-4 down, five random basis moves per row
    # too, whose alpha rows can run through the gap loops that fail
    compared = 0
    for label, config, pairing, moves in _probe_cases():
        try:
            be = BergmanEvaluator(PeriodEngine(build_cycles_robust(
                build_cover(config), pairing=pairing)))
        except GeometryError as exc:
            # at a 1e3 spread the monomial basis' alpha-period matrix
            # has condition ~6e12 at n = 8: there is no kernel to solve
            assert label == "scaled-n8" and "singular" in str(exc), label
            continue
        rng = np.random.default_rng(17)
        g = be.curve.genus
        for k in [be] + [be.transformed(random_symplectic(g, rng, steps=6))
                         for _ in range(moves)]:
            got, want = k.correction(), probe_correction(k)
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), label
            km = k.kernel_coefficients() @ k.alpha_moments()
            assert np.abs(km[g:]).max() <= 1e-12 * np.abs(km).max(), label
            compared += 1
    assert compared == 1 + 15 + 22 + 30


def test_correction_is_symmetric(ref_bergman):
    C = ref_bergman.correction()
    assert np.max(np.abs(C - C.T)) == 0.0  # symmetrized after the residual check
    assert ref_bergman.correction_defect < 1e-10


def test_alpha_periods_vanish_off_probe(ref_bergman):
    # the defining property, on contours and apart from the closed form
    for x0 in (0.9 + 2.4j, -2.6 - 1.1j, 3.3 + 0.2j):
        for k in range(2):
            assert abs(ref_bergman.alpha_residual(x0, k)) < 1e-9


def test_pullback_identity(ref_bergman):
    # summing the kernel over the two points above w collapses it to
    # the rational kernel of the base sphere, exactly in the coefficients
    rng = np.random.default_rng(21)
    be = ref_bergman
    for _ in range(200):
        x = complex(rng.normal() * 2.5, rng.normal() * 2.5)
        w = complex(rng.normal() * 2.5, rng.normal() * 2.5)
        if abs(x - w) < 0.1:
            continue
        sx = 1 if rng.random() < 0.5 else -1
        sw = 1 if rng.random() < 0.5 else -1
        tot = be.bhat_coeff(x, sx, w, sw) + be.bhat_coeff(x, sx, w, -sw)
        assert abs(tot - 1.0 / (x - w) ** 2) < 1e-6 * max(1.0, abs(x - w) ** -2)


def test_kernel_is_symmetric(ref_bergman):
    be = ref_bergman
    pts = [(1.7 + 1.1j, 1), (-0.4 + 2.0j, -1), (2.8 - 1.5j, 1)]
    for (x, sx) in pts:
        for (w, sw) in pts:
            if x == w:
                continue
            assert abs(be.bhat_coeff(x, sx, w, sw) - be.bhat_coeff(w, sw, x, sx)) < 1e-12


def test_kernel_invariant_under_joint_sheet_flip(ref_bergman):
    be = ref_bergman
    x, w = 1.3 + 0.8j, -1.1 + 1.6j
    a = be.bhat_coeff(x, 1, w, -1)
    b = be.bhat_coeff(x, -1, w, 1)
    assert abs(a - b) < 1e-13 * max(1.0, abs(a))


def test_diagonal_expansion_matches_closed_form(ref_bergman):
    be = ref_bergman
    for x in (0.9 + 1.4j, -1.6 + 0.7j, 2.6 + 2.2j):
        want = complex(-6.0 * be.t_coeff(x))
        got = fd_schwarzian(be, x, 1)
        assert abs(got - want) < 1e-6 * max(1.0, abs(want))


def test_elliptic_correction_is_pi(elliptic_bergman):
    C = elliptic_bergman.correction()
    assert C.shape == (1, 1)
    assert abs(C[0, 0] - np.pi) < 1e-10


# frozen lemniscatic constants for y^2 = x^3 - x
OMEGA1 = 1.3110287771460603
ETA1 = 0.5990701173677964


def _weierstrass_p(u, w1, w2, radius=160):
    ns = np.arange(-radius, radius + 1)
    M, N = np.meshgrid(ns, ns)
    lat = M * (2 * w1) + N * (2 * w2)
    mask = (np.abs(lat) <= radius * min(abs(w1), abs(w2))) & ~((M == 0) & (N == 0))
    om = lat[mask]
    return 1.0 / u**2 + np.sum(1.0 / (u - om) ** 2 - 1.0 / om**2)


def test_kernel_matches_elliptic_closed_form(elliptic_bergman):
    # in the flat coordinate z, dz = dx/(2y) = du/(2K yhat) up to sign,
    # the kernel is wp(z1 - z2) + eta1/omega1
    be = elliptic_bergman
    ev = be.ev

    def zdiff(x1, x2):
        return adaptive_line(
            lambda s: (x2 - x1) / (2 * K * ev.y(x1 + s * (x2 - x1))),
            0.0, 1.0, tol=1e-12
        )

    w2 = OMEGA1 * 1j  # square lattice
    # the x-plane pairs, sent to u = 1/(x + 2) in the lower half plane
    pairs = [(1.0 / (x1 + 2), 1.0 / (x2 + 2))
             for x1, x2 in [(0.5 + 1.2j, -0.8 + 1.5j), (1.4 + 0.9j, 0.3 + 2.1j)]]
    for x1, x2 in pairs:
        bzz = (be.bhat_coeff(x1, 1, x2, 1)
               * (2 * K * ev.y(x1)) * (2 * K * ev.y(x2)))
        u = zdiff(x2, x1)
        const = complex(bzz) - _weierstrass_p(complex(u), OMEGA1, w2)
        assert abs(const - ETA1 / OMEGA1) < 1e-4
    assert abs(ETA1 / OMEGA1 - 0.4569465810444637) < 1e-15


def test_branch_chart_connection_cocycle(ref_bergman):
    # near a branch point b the chart is x = b + s^2; the connection must
    # transform with the schwarzian of the chart map: -6t*(4s^2) - 3/(2s^2)
    be = ref_bergman
    b = be.curve.branch_points[2]
    for s in (0.31 + 0.12j, 0.18 - 0.23j):
        x = b + s * s
        chart = complex(-6.0 * be.t_coeff(x)) * 4 * s * s - 1.5 / (s * s)
        # finite differences of the kernel in the s chart, fixed sheet lift
        h = 0.02 * abs(s)

        def lift(ss):
            return b + ss * ss

        def v(hh):
            tot = 0.0 + 0.0j
            for sgn in (+1, -1):
                sp = s + sgn * hh
                val = be.bhat_coeff(lift(s), 1, lift(sp), 1)
                # pull both kernel legs back to the s chart
                val = val * (2 * s) * (2 * sp)
                tot += 3.0 * (val - 1.0 / (s - sp) ** 2)
            return tot

        fd = (4.0 * v(h / 2) - v(h)) / 3.0
        assert abs(fd - chart) < 1e-5 * max(1.0, abs(chart))


def moved_kernel_shift(be, sigma):
    """The kernel-shift law: under the basis move sigma, Bhat changes by
    the coefficient -2 pi i u(x)^T (C Om + D)^-1 C u(w), u the
    alpha-normalized holomorphic forms of the unmoved basis."""
    _, _, c, d = blocks(sigma)
    m = np.linalg.inv(c @ be.omega + d) @ c

    def u(x, sheet):
        y = np.asarray(be.ev.y(np.asarray(x, dtype=complex), sheet))
        return be.q_values(x) / y[..., None]

    def shift(x, sx, w, sw):
        return -2j * np.pi * np.einsum("...j,jk,...k->...", u(x, sx), m,
                                       u(w, sw))

    return shift


def test_transformed_kernel_shift(ref_bergman):
    be = ref_bergman
    rng = np.random.default_rng(5)
    for _ in range(3):
        sig = random_symplectic(2, rng, steps=5)
        be2 = be.transformed(sig)
        shift = moved_kernel_shift(be, sig)
        for x, sx, w, sw in (
            (2.3 + 1.4j, 1, -1.2 + 0.8j, -1),
            (0.4 + 2.2j, -1, 3.0 + 0.3j, 1),
        ):
            delta = complex(be2.bhat_coeff(x, sx, w, sw) - be.bhat_coeff(x, sx, w, sw))
            pred = complex(shift(x, sx, w, sw))
            assert abs(delta - pred) < 1e-10 * max(1.0, abs(delta))


def test_transformed_period_matrix_law(ref_bergman):
    be = ref_bergman
    rng = np.random.default_rng(9)
    sig = random_symplectic(2, rng, steps=5)
    a, b, c, d = sig[:2, :2], sig[:2, 2:], sig[2:, :2], sig[2:, 2:]
    be2 = be.transformed(sig)
    pred = (a @ be.omega + b) @ np.linalg.inv(c @ be.omega + d)
    assert np.max(np.abs(be2.omega - pred)) < 1e-10


def test_transformed_evaluator_shares_the_split(ref_bergman):
    # a basis change keeps the branch points, so the moved evaluator
    # reuses the split and K, and reads bit for bit what a fresh
    # evaluator on the moved basis reads
    be = ref_bergman
    sig = random_symplectic(2, np.random.default_rng(4), steps=5)
    be2 = be.transformed(sig)
    am2, bm2 = transform_basis(sig, be.alpha_mat, be.pe.cycles.beta_mat)
    fresh = BergmanEvaluator(be.pe, alpha_mat=am2, beta_mat=bm2)
    assert be2.kernel_coefficients() is be.kernel_coefficients()
    assert be2._p1 is be._p1 and be2.p2_rows is be.p2_rows
    assert np.array_equal(be2.correction(), fresh.correction())
    x = np.array([2.3 + 1.4j, 0.4 + 2.2j])
    assert np.array_equal(be2.t_coeff(x), fresh.t_coeff(x))


def expanded_t_coeff(be, x):
    """The kernel coefficient t in expanded polynomials, the form
    t_coeff had before partial fractions: -R'^2/(16 R^2) + R''/(8R)
    - (P1 P2'' + P1'' P2)/(8R) - q^T C q / R."""
    c = be.correction()
    x = np.asarray(x, dtype=complex)
    rhs = be.curve.rhs_coeffs
    r = np.polyval(rhs, x)
    rp = np.polyval(np.polyder(rhs), x)
    rpp = np.polyval(np.polyder(rhs, 2), x)
    h2 = (np.polyval(be._p1, x) * np.polyval(np.polyder(be._p2, 2), x)
          + np.polyval(np.polyder(be._p1, 2), x) * np.polyval(be._p2, x))
    q = be.q_values(x)
    quad = np.einsum("...j,jk,...k->...", q, c, q)
    return -(rp**2) / (16.0 * r**2) + rpp / (8.0 * r) - h2 / (8.0 * r) - quad / r


_ZZ = tau.zero_zero_family()


@pytest.mark.parametrize("cfg, pairing", [
    (QDConfigG0(**REF), None),
    (_ZZ.config(0.1 * 0.5**8), _ZZ.pairing),
], ids=["ref", "zero-zero-3.9e-4"])
def test_t_coeff_matches_expanded_polynomials(cfg, pairing):
    # on the contour loops, where the phi periods evaluate t
    pe = PeriodEngine(build_cycles_robust(build_cover(cfg), pairing=pairing))
    be = BergmanEvaluator(pe)
    s = np.linspace(0.0, 1.0, 40, endpoint=False) + 0.0123
    xs = np.concatenate([pc.point(s) for lp in pe.cycles.loops
                         for pc in lp.pieces])
    want = expanded_t_coeff(be, xs)
    got = be.t_coeff(xs)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # scalar input keeps scalar shape
    one = be.t_coeff(xs[0])
    assert np.shape(one) == ()
    assert abs(one - got[0]) <= 1e-14 * abs(got[0])
