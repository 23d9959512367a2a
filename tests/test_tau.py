import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdtau import kernels, periods, strata, tau
from qdtau.bergman import fraction_sums, partial_fractions
from qdtau.curves import QDConfigG0
from qdtau.cover_homology import random_symplectic
from test_quadrature import recursive_line

REF_PAIRING = [(4, 2), (0, 5), (1, 3)]
KAPPA_PLUS = -40.0 / 3.0
KAPPA_MINUS = 56.0 / 3.0


def ref_config(scale=1.0 + 0j):
    return QDConfigG0(zeros=[0.0], poles=[1.0, -1.0, 2.0, -2.0, 0.5],
                      scale=scale)


@pytest.fixture(scope="module")
def ref_conn():
    return tau.build_connection(ref_config(), pairing=REF_PAIRING)


def test_build_connection_builds_the_configurations_pairing():
    # with no pairing given, the configuration's own is built, as
    # PeriodEngine.for_config builds it, not the robust ladder's choice
    fam = tau.zero_zero_family()
    config = fam.config(0.1)
    config = QDConfigG0(zeros=config.zeros, poles=config.poles,
                        pairing=fam.pairing)
    built = sorted(map(sorted, tau.build_connection(config).pe.cycles.pairs))
    assert built == [[0, 1], [2, 7], [3, 4], [5, 6]]
    engine = periods.PeriodEngine.for_config(config)
    assert built == sorted(map(sorted, engine.cycles.pairs))


def test_euler_pairing_reference(ref_conn):
    kp = ref_conn.euler_pairing(1)
    km = ref_conn.euler_pairing(-1)
    assert abs(kp - KAPPA_PLUS) < 1e-10
    assert abs(km - KAPPA_MINUS) < 1e-10


def test_euler_pairing_is_real(ref_conn):
    for branch, kappa in ((1, KAPPA_PLUS), (-1, KAPPA_MINUS)):
        val = ref_conn.euler_pairing(branch)
        assert abs(val.imag) < 1e-6 * abs(kappa)


def test_euler_pairing_symplectic_invariance(ref_conn):
    # transforming phi and v period vectors together preserves the pairing
    va, vb = ref_conn.v_periods()
    rng = np.random.default_rng(3)
    sig = random_symplectic(2, rng, steps=5)
    a, b = sig[:2, :2], sig[:2, 2:]
    c, d = sig[2:, :2], sig[2:, 2:]
    for branch in (1, -1):
        pa, pb = ref_conn.phi_periods(branch)
        base = 0.5 * np.sum(pa * vb - pb * va)
        pa2, pb2 = d @ pa + c @ pb, b @ pa + a @ pb
        va2, vb2 = d @ va + c @ vb, b @ va + a @ vb
        moved = 0.5 * np.sum(pa2 * vb2 - pb2 * va2)
        assert abs(moved - base) < 1e-8


def test_euler_pairing_cross_pairing():
    # same configuration, genuinely different cut system
    cfg = tau.zero_pole_family().config(0.1)
    A = tau.build_connection(cfg, pairing=[(0, 5), (2, 4), (3, 1)])
    B = tau.build_connection(cfg, pairing=[(0, 5), (2, 3), (4, 1)])
    for branch in (1, -1):
        assert abs(A.euler_pairing(branch) - B.euler_pairing(branch)) < 1e-9


def test_euler_pairing_relabeling():
    cfg = QDConfigG0(zeros=[0.0], poles=[-1.0, 1.0, 2.0, -2.0, 0.5])
    conn = tau.build_connection(cfg, pairing=[(4, 1), (0, 5), (2, 3)])
    ref = tau.build_connection(ref_config(), pairing=REF_PAIRING)
    for branch in (1, -1):
        assert abs(conn.euler_pairing(branch) - ref.euler_pairing(branch)) < 1e-8


def test_scaling_path_matches_pairing():
    for branch, (pair, fd) in tau.scaling_check(
            ref_config(), pairing=REF_PAIRING).items():
        assert abs(pair - fd) < 1e-8


def test_phi_periods_scaling_weight(ref_conn):
    # c -> eps^2 c multiplies every phi period by 1/eps
    eps = 1.5
    scaled = tau.build_connection(ref_config(scale=eps**2),
                                  pairing=REF_PAIRING)
    for branch in (1, -1):
        pa, pb = ref_conn.phi_periods(branch)
        qa, qb = scaled.phi_periods(branch)
        assert np.abs(qa * eps - pa).max() < 1e-12
        assert np.abs(qb * eps - pb).max() < 1e-12


def sv_coeff(config):
    """S_v at x from the partial fractions 1/(x - b) over zeros and
    poles, as phi_numerators evaluates it."""
    pts = np.array(config.branch_points(), dtype=complex)
    nz = len(config.zeros)

    def coeff(x):
        d = partial_fractions(x, pts)
        return tau.sv_from_sums(fraction_sums(d, slice(nz)),
                                fraction_sums(d, slice(nz, None)))

    return coeff


def test_sv_against_finite_differences():
    cfg = ref_config(scale=0.7 - 0.3j)
    sv = sv_coeff(cfg)

    def q(x):
        num = complex(cfg.scale)
        for z in cfg.zeros:
            num *= x - z
        for p in cfg.poles:
            num /= x - p
        return num

    def L(u):
        out = 0.5 * sum(1.0 / (u - z) for z in cfg.zeros)
        return out - 0.5 * sum(1.0 / (u - p) for p in cfg.poles)

    h = 1e-5
    for x in (0.3 + 0.9j, -1.2 + 0.4j, 2.5 - 1.1j):
        fd_L = (q(x + h) - q(x - h)) / (2 * h) / q(x) / 2.0
        assert abs(fd_L - L(x)) < 1e-9 * max(1.0, abs(L(x)))

        def Lp(hh):
            return (L(x + hh) - L(x - hh)) / (2 * hh)

        fd = (4 * Lp(h / 2) - Lp(h)) / 3.0 - 0.5 * L(x) ** 2
        assert abs(fd - complex(sv(x))) < 1e-7 * max(1.0, abs(complex(sv(x))))


def test_sv_double_zero_model():
    # (x - z)^2 S_v -> -5/8 approaching a simple zero of q,
    # the base-chart shadow of the zeta^2 dzeta cover model
    sv = sv_coeff(ref_config())
    for theta in (0.3, 2.1):
        u = cmath.exp(1j * theta)

        def f(t):
            return complex(sv(t * u)) * (t * u) ** 2

        assert abs((2 * f(0.005) - f(0.01)) + 0.625) < 5e-4


def test_path_reversal_negates():
    def path(s):
        return QDConfigG0(zeros=[0.0],
                          poles=[1.0, -1.0, 2.0, -2.0, 0.5 + 0.2 * s])

    def reversed_path(s):
        return path(-s)

    fwd = tau.dlog_tau_along(path, 0.0, pairing=REF_PAIRING)
    rev = tau.dlog_tau_along(reversed_path, 0.0, pairing=REF_PAIRING)
    for branch in (1, -1):
        assert abs(fwd[branch] + rev[branch]) < 1e-12


def test_flatness_closed_loop():
    def mk(s):
        z1 = 0.1 * cmath.exp(2j * cmath.pi * s)
        return QDConfigG0(zeros=[z1], poles=[1.0, -1.0, 2.0, -2.0, 0.5])

    defect = tau.flatness_defect(mk, n_samples=16, pairing=REF_PAIRING)
    assert defect[1] < 1e-6
    assert defect[-1] < 1e-6


def _pole_path(s):
    return QDConfigG0(zeros=[0.0], poles=[1.0, -1.0, 2.0, -2.0, 0.5 + 0.2 * s])


def test_basis_change_identity():
    rp, rm = tau.basis_change_residual(_pole_path, 0.0, np.eye(4, dtype=int),
                                       pairing=REF_PAIRING)
    assert rp < 1e-12
    assert rm < 1e-12


def test_basis_change_random_sigmas():
    rng = np.random.default_rng(11)
    for _ in range(3):
        sig = random_symplectic(2, rng, steps=5)
        rp, rm = tau.basis_change_residual(_pole_path, 0.0, sig,
                                           pairing=REF_PAIRING)
        assert rp < 1e-5
        assert rm < 1e-5


def test_basis_change_phi_equals_a_fresh_engine(monkeypatch):
    # a sigma with C = 0 keeps the alpha cycles, one with C != 0 moves
    # them; either way phi's periods read off the centre's engine, its
    # tables and maps already filled by v and its velocities, equal
    # those of an engine that integrates its tables afresh
    eye, zero = np.eye(2, dtype=int), np.zeros((2, 2), dtype=int)
    shared = tau.reduced_loop_periods

    def fresh(engine, fn):
        return shared(periods.PeriodEngine(engine.cycles, engine.tol), fn)

    b, c = np.array([[1, 2], [2, -1]]), np.array([[1, 1], [1, 0]])
    for sig in (np.block([[eye, b], [zero, eye]]),
                np.block([[eye, zero], [c, eye]])):
        # each call integrates a fresh centre: a stored one would bring
        # its phi periods from the call before
        monkeypatch.setattr(tau, "_last", (None, None))
        got = tau.basis_change_residual(_pole_path, 0.0, sig,
                                        pairing=REF_PAIRING)
        monkeypatch.setattr(tau, "_last", (None, None))
        monkeypatch.setattr(tau, "reduced_loop_periods", fresh)
        assert tau.basis_change_residual(_pole_path, 0.0, sig,
                                         pairing=REF_PAIRING) == got
        monkeypatch.setattr(tau, "reduced_loop_periods", shared)


def test_zero_pole_short_schedule():
    fam = tau.zero_pole_family()
    short = tau.DegenerationFamily(fam.name, fam.config, fam.pairing,
                                   fam.collide,
                                   schedule=tuple(0.1 * 0.5**k
                                                  for k in range(4)))
    exps, rows = tau.degeneration_exponent(short)
    assert abs(exps[1] - (-8.0 / 3.0)) < 1e-5
    assert abs(exps[-1] - 40.0 / 3.0) < 1e-4
    last = rows[-1]
    assert abs(abs(last["t"]) / last["d"] / np.pi - 1.0) < 1e-6


def test_zero_zero_first_row():
    fam = tau.zero_zero_family()
    one = tau.DegenerationFamily(fam.name, fam.config, fam.pairing,
                                 fam.collide, schedule=(0.1,))
    row = tau.degeneration_rows(one)[0]
    assert abs(row[("gamma", 1)] - 2.0 / 3.0) < 1e-3
    assert abs(row[("gamma", -1)] - 26.0 / 3.0) < 1e-3


def test_gamma_scale_invariant():
    fam = tau.zero_pole_family()

    def mk10(d):
        c = fam.config(d)
        return QDConfigG0(zeros=c.zeros, poles=c.poles, scale=10.0)

    r1 = tau.degeneration_rows(
        tau.DegenerationFamily("a", fam.config, fam.pairing, fam.collide,
                               schedule=(0.05,)))[0]
    r10 = tau.degeneration_rows(
        tau.DegenerationFamily("b", mk10, fam.pairing, fam.collide,
                               schedule=(0.05,)))[0]
    for branch in (1, -1):
        assert abs(r1[("gamma", branch)] - r10[("gamma", branch)]) < 1e-8


def test_fit_exponent_synthetic():
    ds = [0.1 * 0.5**k for k in range(8)]
    gs = [5.0 + 3.0 * d**2 for d in ds]
    ginf, p, resid = tau.fit_exponent(ds, gs)
    assert p == 2.0
    assert abs(ginf - 5.0) < 1e-12
    assert resid < 1e-12


def test_fit_exponent_is_stable_under_roundoff():
    # every power fits two rows exactly, so their residuals are roundoff:
    # the powers tie, and the one whose correction |C| d_min^p is least,
    # the largest, wins.  Rows moved by a few ulps keep (gamma_inf, p),
    # for two zero-pole rows as for a full synthetic schedule
    eps = np.finfo(float).eps
    ds = (0.1, 0.025)
    rows = tau.degeneration_rows(tau.DegenerationFamily(
        _ZP.name, _ZP.config, _ZP.pairing, _ZP.collide, schedule=ds))
    full = [0.1 * 0.5**k for k in range(8)]
    cases = [(ds, [r[("gamma", b)] for r in rows]) for b in tau.BRANCHES]
    cases.append((full, [5.0 + 3.0 * d**2 - 7.0 * d**3 for d in full]))
    rng = np.random.default_rng(7)
    for d, gs in cases:
        gs = np.array(gs)
        ginf, p, _ = tau.fit_exponent(d, gs)
        if len(d) == 2:
            assert p == max(tau.P_GRID)
            c = (gs[0] - gs[1]) / (d[0]**p - d[1]**p)
            assert abs(ginf - (gs[1] - c * d[1]**p)) <= 1e-14 * abs(ginf)
        for _ in range(50):
            moved = gs * (1.0 + eps * rng.integers(-4, 5, len(gs)))
            got, q, _ = tau.fit_exponent(d, moved)
            assert q == p
            assert abs(got - ginf) <= 1e-13 * abs(ginf)


def test_collapsing_loop_requires_colliding_cut():
    fam = tau.zero_pole_family()
    bad = tau.DegenerationFamily(fam.name, fam.config, fam.pairing,
                                 collide=frozenset({0, 3}))
    conn = tau.build_connection(fam.config(0.1), pairing=fam.pairing)
    with pytest.raises(KeyError):
        bad.collapsing_loop(conn.pe.cycles)


# Finite differences survive only here, as oracles for the exact period
# derivatives: engines at s +- h and s +- h/2, one Richardson sweep.
# Each side reads its periods in its own symplectic basis: a single loop
# may lift with the opposite orientation at a nearby configuration
# (genus3-all does so at s = 0), while the basis periods stay continuous.

def _richardson_oracle(period_fn, make_config, s, h, pairing):
    def at(st):
        cfg = make_config(s + st)
        return period_fn(tau.build_connection(cfg, pairing=pairing))

    def central(hh):
        return (at(hh) - at(-hh)) / (2.0 * hh)

    return (4.0 * central(h / 2) - central(h)) / 3.0


def _path_velocity(make_config, s, h=1e-3):
    # every test path is affine in s, so the central difference is exact
    lo, hi = make_config(s - h), make_config(s + h)
    b_dot = np.subtract(hi.branch_points(), lo.branch_points()) / (2.0 * h)
    return b_dot, (hi.scale - lo.scale) / (2.0 * h)


def _v_basis_periods(conn):
    return np.concatenate(conn.v_periods())


def _genus3_path(s):
    u = cmath.exp(0.7j)
    return QDConfigG0(
        zeros=[0.3 + 0.2j + 0.1 * s, -0.4 - 0.1j + 0.2j * s],
        poles=[2.0 + 0.1 * s * u, -2.0 - 0.2 * s, -1.0 - 1.5j + 0.1j * s,
               -1.0 + 1.5j + 0.15 * s * u, 1.0 + 1.5j - 0.1 * s,
               1.0 - 1.5j + 0.05j * s],
        scale=(0.7 - 0.3j) * (1.0 + 0.4 * s),
    )


_ZZ = tau.zero_zero_family()
_ZP = tau.zero_pole_family()


@pytest.mark.parametrize("make_config, s, h, pairing", [
    (_pole_path, 0.0, 1e-5, REF_PAIRING),
    (_genus3_path, 0.0, 1e-5, _ZZ.pairing),
    (_ZP.config, 0.1, 1e-4, _ZP.pairing),
    (_ZZ.config, 0.1, 1e-4, _ZZ.pairing),
], ids=["ref-pole", "genus3-all", "zero-pole", "zero-zero"])
def test_v_period_velocities_match_finite_differences(make_config, s, h,
                                                      pairing):
    conn = tau.build_connection(make_config(s), pairing=pairing)
    dv = conn.v_velocities(*_path_velocity(make_config, s))
    exact = np.concatenate([conn.alpha_mat @ dv, conn.beta_mat @ dv])
    fd = _richardson_oracle(_v_basis_periods, make_config, s, h, pairing)
    assert np.abs(exact - fd).max() < 1e-7 * np.abs(exact).max()


def test_period_matrix_velocity_matches_finite_differences():
    conn = tau.build_connection(_pole_path(0.0), pairing=REF_PAIRING)
    b_dot, _ = _path_velocity(_pole_path, 0.0)
    exact = conn.pe.period_matrix_velocity(b_dot)
    fd = _richardson_oracle(lambda c: c.pe.period_matrix(), _pole_path, 0.0,
                            1e-5, REF_PAIRING)
    assert np.abs(exact - fd).max() < 1e-7 * np.abs(exact).max()


# tight regression gates beside the stated ones above, set from the
# accuracy the exact derivatives achieve

def _generic_config(rng, n):
    # n poles and n - 4 zeros uniform in [-2.5, 2.5]^2, 0.25 apart
    while True:
        pts = rng.uniform(-2.5, 2.5, (2 * n - 4, 2)) @ np.array([1.0, 1.0j])
        if min(abs(p - q) for i, p in enumerate(pts) for q in pts[:i]) >= 0.25:
            return QDConfigG0(zeros=pts[:n - 4], poles=pts[n - 4:])


def _kappa_configs():
    rng = np.random.default_rng(2026)
    return [_generic_config(rng, n) for n in (5, 5, 6, 6, 7, 7, 8, 8)]


def test_euler_pairing_matches_kappa_tight():
    for cfg in _kappa_configs():
        conn = tau.build_connection(cfg)
        for branch, kappa in zip((1, -1), strata.principal_kappa(0, cfg.n)):
            assert abs(conn.euler_pairing(branch) - float(kappa)) < 1e-8, cfg.n


def test_scaling_path_matches_pairing_tight():
    for branch, (pair, path) in tau.scaling_check(
            ref_config(), pairing=REF_PAIRING).items():
        assert abs(pair - path) < 1e-9


def test_flatness_closed_loop_tight():
    def mk(s):
        z1 = 0.1 * cmath.exp(2j * cmath.pi * s)
        return QDConfigG0(zeros=[z1], poles=[1.0, -1.0, 2.0, -2.0, 0.5])

    defect = tau.flatness_defect(mk, n_samples=16, pairing=REF_PAIRING)
    assert max(defect[1], defect[-1]) < 1e-8


@pytest.mark.parametrize("seed, count", [(11, 3), (17, 5)])
def test_basis_change_random_sigmas_tight(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        sig = random_symplectic(2, rng, steps=5)
        rp, rm = tau.basis_change_residual(_pole_path, 0.0, sig,
                                           pairing=REF_PAIRING)
        assert rp < 1e-9
        assert rm < 1e-9


# the oracle for phi's reduced periods: phi itself along the stadium
# contours, the stacked phi_fn integrand on the depth-first reference
# quadrature

def _contour_phi(conn, monkeypatch):
    monkeypatch.setattr(periods, "adaptive_line", recursive_line)
    fn = tau.phi_fn(conn.be, conn.config)
    pe = conn.pe
    loops = np.array([pe.contour_loop_period(fn, i)
                      for i in range(len(pe.cycles.loops))])
    return np.concatenate([np.concatenate([conn.alpha_mat @ loops[:, k],
                                           conn.beta_mat @ loops[:, k]])
                           for k in range(len(tau.BRANCHES))])


def _reduced_phi(conn):
    return np.concatenate([np.concatenate(conn.phi_periods(b))
                           for b in tau.BRANCHES])


def _row_cases():
    # every second row of both schedules, down to d = 3.9e-4
    for fam in (_ZP, _ZZ):
        for d in fam.schedule[0:9:2]:
            label = f"{fam.name}-{d:.1e}".replace("e-0", "e-")
            yield pytest.param(fam.config(d), fam.pairing, 1e-10, id=label)


@pytest.mark.parametrize("config, pairing, tol", [
    pytest.param(ref_config(), REF_PAIRING, 1e-12, id="ref"),
    *_row_cases(),
    *(pytest.param(cfg, None, 1e-10, id=f"kappa-config-{i}")
      for i, cfg in enumerate(_kappa_configs())),
])
def test_phi_periods_match_recursive_quadrature(monkeypatch, config, pairing,
                                                tol):
    conn = tau.build_connection(config, pairing=pairing)
    got = _reduced_phi(conn)
    want = _contour_phi(conn, monkeypatch)
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


def test_phi_contour_calls_are_spine_fallbacks_only(monkeypatch):
    # a spine fallback runs the contour at the engine's tolerance (no
    # explicit one).  Counted after the kernel is built, phi reaches
    # the contour only through that fallback: never on REF or the
    # seeded generic configurations, and on the schedules only on the
    # gap loops past the pinching cut
    calls = []
    contour = periods.PeriodEngine.contour_loop_period

    def spy(self, fn, loop_idx, tol=None):
        calls.append(tol)
        return contour(self, fn, loop_idx, tol)

    monkeypatch.setattr(periods.PeriodEngine, "contour_loop_period", spy)

    def phi_calls(config, pairing):
        conn = tau.build_connection(config, pairing=pairing)
        conn.be.correction()
        del calls[:]
        conn.phi_periods(1)
        assert all(tol is None for tol in calls)
        return len(calls)

    assert phi_calls(ref_config(), REF_PAIRING) == 0
    for config in _kappa_configs():
        assert phi_calls(config, None) == 0
    for fam in (_ZP, _ZZ):
        rows = [phi_calls(fam.config(d), fam.pairing) for d in fam.schedule]
        # the gap loops' spines pass the shrinking cut: only zero-zero's
        # fall back, from d = 1.95e-4 on
        first = 11 if fam is _ZP else 9
        assert rows[:first] == [0] * first, rows


# the reduction itself: exact forms reduce to zero, and forms with
# double poles at the branch points keep their contour periods

def _normalized_points(config):
    pts = np.array(config.branch_points(), dtype=complex)
    pts = pts - pts.mean()
    return pts / np.abs(pts).max()


@pytest.mark.parametrize("j", [1, 2])
def test_pole_exact_forms_reduce_to_zero(j):
    # d(yhat / (x - b)^j) = [(x - b) S'/2 + (1/2 - j) S] / (x - b)^j
    # dx / yhat, with R = (x - b) S; its polynomial part plus its
    # reduced principal parts must vanish
    pts = _normalized_points(_ZZ.config(0.1))
    for k, b in enumerate(pts):
        s = np.poly(np.delete(pts, k))
        num = np.polyadd(np.polymul([0.5, -0.5 * b], np.polyder(s)),
                         (0.5 - j) * s)
        poly, laurent = tau.principal_parts(
            lambda x: np.polyval(num, x) / (x - b) ** j, pts)
        c, scale = periods.frame(pts)
        beta = (pts - c) / scale
        reduced = poly + ((laurent * scale ** -np.arange(1.0, 3.0)).ravel()
                          @ periods.pole_reductions(beta).reshape(
                              2 * len(pts), -1))
        assert np.abs(reduced).max() <= 1e-12 * np.abs(num).sum()


# the stacked reductions and the power and pole maps against the scalar,
# per-loop route they replace, kept here as oracles

def scalar_deflate(p, b):
    """(q, r) with p = (x - b) q + r, one polynomial, in p's precision."""
    q = np.empty(len(p) - 1, dtype=np.result_type(p, b, 1j))
    acc = 0.0
    for i in range(len(q)):
        acc = acc * b + p[i]
        q[i] = acc
    return q, acc * b + p[-1]


def scalar_pole_reductions(points, k):
    """(e_1, e_2) of `periods.pole_reductions` for the one point k."""
    pts = np.asarray(points)
    b, others = pts[k], np.delete(pts, k)
    s = np.poly(others)
    sb = np.prod(b - others)
    w, ds = scalar_deflate(s, b)[0], np.polyder(s)
    e1 = (ds - w) / sb
    q, r = scalar_deflate((ds / 3.0 - w) / sb, b)
    return e1, np.polyadd(q, r * e1)


def per_loop_reduced_periods(engine, fn):
    """reduced_loop_periods loop by loop: the polynomial part shifted
    from the frame to the loop's u, the close principal parts reduced
    point by point in u, then the loop's coefficients on its moment
    table."""
    pts = np.asarray(engine.curve.branch_points, dtype=complex)
    poly, laurent = tau.principal_parts(fn, pts)
    c, s = periods.frame(pts)
    out = []
    for idx in range(len(engine.cycles.loops)):
        geo = engine.loop_geometry(idx)
        close, far = engine.loop_split(idx)
        beta = (pts - geo.mid) / geo.half
        scaled = laurent * geo.half ** -np.arange(1.0, 3.0)
        near = sum(scaled[:, k, :] @ np.array(scalar_pole_reductions(beta, k))
                   for k in close)
        shift = periods.affine_shift((geo.mid - c) / s, geo.half / s,
                                     poly.shape[-1])
        moments = np.concatenate([poly[:, ::-1] @ shift + near[:, ::-1],
                                  laurent[:, far, 0], laurent[:, far, 1]],
                                 axis=1)
        out.append(moments @ engine.moment_table(idx, moments.shape[-1]))
    return np.array(out).T


def _reduction_cases():
    return [(ref_config(), REF_PAIRING), (_ZZ.config(0.1), _ZZ.pairing),
            *((cfg, None) for cfg in _kappa_configs())]


def test_stacked_deflate_matches_row_by_row():
    # numpy's array loops round complex products differently from its
    # scalar ones, so the two agree to rounding: within a few ulps of
    # Horner's running mass, sum |p_i| |b|^(m - i) at step m
    rng = np.random.default_rng(5)
    p = rng.normal(size=(3, 4, 7)) + 1j * rng.normal(size=(3, 4, 7))
    b = rng.normal(size=4) + 1j * rng.normal(size=4)
    q, r = periods.deflate(p, b)
    for i, k in np.ndindex(3, 4):
        want = np.append(*scalar_deflate(p[i, k], b[k]))
        mass = np.append(*scalar_deflate(np.abs(p[i, k]), abs(b[k]))).real
        got = np.append(q[i, k], r[i, k])
        assert (np.abs(got - want) <= 1e-15 * mass).all()


def test_pole_reductions_reduce_exact_forms_on_every_loop():
    # d(yhat / (u - b)^j) = N / (u - b)^j du / yhat, with
    # N = [(u - b) S'/2 + (1/2 - j) S] and R = (u - b) S, for every
    # point b in every loop's spine coordinate u: N's polynomial part
    # plus its reduced principal parts (read off N's Taylor coefficients
    # at b by synthetic division) vanish.  Far points sit up to ~9
    # half-spans away, where the monomial coefficients cancel: the
    # scalar form (`scalar_pole_reductions`) leaves residuals up to
    # 3.2e-12 of N's mass there as well
    for config, pairing in _reduction_cases():
        pe = tau.build_connection(config, pairing=pairing).pe
        pts = np.array(pe.curve.branch_points, dtype=complex)
        for idx in range(len(pe.cycles.loops)):
            geo = pe.loop_geometry(idx)
            beta = (pts - geo.mid) / geo.half
            red = periods.pole_reductions(beta)
            for k, b in enumerate(beta):
                s = np.poly(np.delete(beta, k))
                for j in (1, 2):
                    num = np.polyadd(np.polymul([0.5, -0.5 * b],
                                                np.polyder(s)),
                                     (0.5 - j) * s)
                    q, a0 = scalar_deflate(num, b)
                    if j == 1:
                        rest = q + a0 * red[k, 0]
                    else:
                        q, a1 = scalar_deflate(q, b)
                        rest = a1 * red[k, 0] + a0 * red[k, 1]
                        rest[1:] += q
                    assert (np.abs(rest).max()
                            <= 1e-11 * np.abs(num).sum()), (idx, k, j)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs extended-precision long double")
def test_pole_reductions_match_the_scalar_form():
    # the rows the pole map reduces (each loop's close points in u), and
    # every point in x, within 1e-13 of the largest entry of every point's
    # reductions, against the scalar form in extended precision: in
    # double precision the scalar form itself errs by up to 7.6e-14 of
    # that entry on these rows (and 3.5e-12 on far points in u), so two
    # double-precision routes can disagree by their sum
    for config, pairing in _reduction_cases():
        pe = tau.build_connection(config, pairing=pairing).pe
        pts = np.array(pe.curve.branch_points, dtype=complex)
        frames = [((pts - pe.loop_geometry(i).mid) / pe.loop_geometry(i).half,
                   pe.loop_split(i)[0]) for i in range(len(pe.cycles.loops))]
        for beta, rows in frames + [(pts, np.arange(len(pts)))]:
            want = np.array([scalar_pole_reductions(
                beta.astype(np.clongdouble), k) for k in range(len(beta))])
            got = periods.pole_reductions(beta, rows)
            assert (np.abs(got - want[rows]).max()
                    <= 1e-13 * np.abs(want).max())


def test_reduction_map_matches_per_loop_route():
    # phi's periods through the engine's power and pole maps against the
    # per-loop route, on REF, every row of both full schedules (their
    # one fallback loop, zero-zero loop 5 at d = 9.8e-5, included) and
    # the seeded generic configurations
    configs = [(ref_config(), REF_PAIRING),
               *((fam.config(d), fam.pairing)
                 for fam in (_ZP, _ZZ) for d in fam.schedule),
               *((cfg, None) for cfg in _kappa_configs())]
    fallbacks = 0
    for config, pairing in configs:
        conn = tau.build_connection(config, pairing=pairing)
        fn = tau.phi_numerators(conn.be, conn.config)
        got = tau.reduced_loop_periods(conn.pe, fn)
        want = per_loop_reduced_periods(conn.pe, fn)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        fallbacks += len(conn.pe.fallback_loops)
    assert fallbacks == 1


def test_phi_periods_reuse_the_tables(monkeypatch):
    # a connection asks its engine for the pole map as it is built, and
    # one spine_integral call builds both blocks of every loop's table:
    # on REF, phi's periods then make no such call and evaluate yhat
    # nowhere
    points, ladders = [], []
    for name, pos in (("eval_sheet1", 0), ("eval_oncut", 1)):
        def counted(*args, _kernel=getattr(kernels, name), _pos=pos):
            points.append(np.size(args[_pos]))
            return _kernel(*args)
        monkeypatch.setattr(kernels, name, counted)
    ladder = periods.spine_integral

    def spy(*args, **kwargs):
        ladders.append(args)
        return ladder(*args, **kwargs)

    monkeypatch.setattr(periods, "spine_integral", spy)
    conn = tau.build_connection(ref_config(), pairing=REF_PAIRING)
    assert len(ladders) == 1 and sum(points) > 0
    del points[:], ladders[:]
    conn.phi_periods(1)
    assert sum(points) == 0
    assert ladders == []


# the loops that took the contour while the spine rung ladder stopped at
# 576 points: (family, schedule index, loops)
SETTLED_LOOPS = [(_ZP, 8, (3, 4)), (_ZP, 9, (3, 4)), (_ZP, 10, (3, 4)),
                 (_ZZ, 6, (5,)), (_ZZ, 7, (4, 5)), (_ZZ, 8, (4, 5)),
                 (_ZZ, 9, (4,))]


def test_settled_loops_match_their_contour_tables():
    # each of them now stays on the spine, and each block of its table,
    # powers and far poles, is within 5e-11 of the block's largest entry
    # of the table its stadium contour integrates (worst 3.2e-12 on the
    # powers blocks, 3.0e-11 on the far-pole blocks, whose 1/(x - b)^2
    # rows reach 2.8e8 at zero-pole d = 9.8e-5, with the rung ladder's
    # tables, which accepted a defect of tol |val|)
    for fam, k, loops in SETTLED_LOOPS:
        pe = tau.build_connection(fam.config(fam.schedule[k]),
                                  pairing=fam.pairing).pe
        rows = 2 * pe.curve.genus + 1
        for i in loops:
            far = pe.loop_split(i)[1]
            table = pe.moment_table(i, rows + 2 * len(far))
            assert i not in pe.fallback_loops and len(far)
            want = pe.contour_loop_period(pe._table_rows(i), i)
            for block in (slice(None, rows), slice(rows, None)):
                err = (np.abs(table[block] - want[block]).max()
                       / np.abs(want[block]).max())
                assert err <= 5e-11, (fam.name, k, i, block, err)


# kernel points of the benchmark's degeneration rows (every second row
# of both schedules, down to d = 3.9e-4): 11,492, all on spines
DEGENERATION_KERNEL_POINTS = 11_492


def test_degeneration_rows_run_no_contour(monkeypatch):
    # every row of both schedules down to d = 3.9e-4 keeps every loop,
    # both table blocks, on the spine; the benchmark's rows among them
    # run no contour point and evaluate yhat on at most the points
    # recorded above
    points, contour_points, conns = [], [], []
    for name, pos in (("eval_sheet1", 0), ("eval_oncut", 1)):
        def counted(*args, _kernel=getattr(kernels, name), _pos=pos):
            points.append(np.size(args[_pos]))
            return _kernel(*args)
        monkeypatch.setattr(kernels, name, counted)
    line = periods.adaptive_line

    def counted_line(f, *args, **kwargs):
        def g(s):
            contour_points.append(np.size(s))
            return f(s)
        return line(g, *args, **kwargs)

    monkeypatch.setattr(periods, "adaptive_line", counted_line)
    build = tau.build_connection

    def recorded(*args, **kwargs):
        conns.append(build(*args, **kwargs))
        return conns[-1]

    monkeypatch.setattr(tau, "build_connection", recorded)
    bench = 0
    for fam in (_ZP, _ZZ):
        for k, d in enumerate(fam.schedule[:9]):
            del points[:]
            tau.degeneration_rows(tau.DegenerationFamily(
                fam.name, fam.config, fam.pairing, fam.collide,
                schedule=(d,)))
            assert conns[-1].pe.fallback_loops == [], (fam.name, d)
            if k % 2 == 0:  # the benchmark's rows
                bench += sum(points)
    assert contour_points == []
    assert bench <= DEGENERATION_KERNEL_POINTS, bench


# kernel points (eval_sheet1 and eval_oncut, contour fallbacks
# included) of REF's scaling check and of each row of both full
# schedules through degeneration_rows, at the a priori rule sizes
REF_SCALING_KERNEL_POINTS = 76
ROW_KERNEL_POINTS = {
    "zero-pole": (180, 244, 348, 348, 516, 788, 1228, 1940, 1940, 3092,
                  4956),
    "zero-zero": (260, 344, 480, 700, 836, 1056, 1632, 2564, 4072, 4072,
                  96732),
}


def test_work_counts_hold_and_each_connection_climbs_once(monkeypatch):
    # deterministic work counters: the kernel points stay at the pinned
    # counts, and each connection engine makes one spine_integral call,
    # which calls its integrand once: the climb is a single step
    counts = {"points": 0, "ladders": 0, "connections": 0, "integrands": 0}
    for name, pos in (("eval_sheet1", 0), ("eval_oncut", 1)):
        def counted(*args, _kernel=getattr(kernels, name), _pos=pos):
            counts["points"] += np.size(args[_pos])
            return _kernel(*args)
        monkeypatch.setattr(kernels, name, counted)
    for module, name, key in ((periods, "spine_integral", "ladders"),
                              (tau, "build_connection", "connections")):
        def spy(*args, _fn=getattr(module, name), _key=key, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    ladder = periods.spine_integral

    def one_step(g, *args, **kwargs):
        def step(nodes):
            counts["integrands"] += 1
            return g(nodes)
        return ladder(step, *args, **kwargs)

    monkeypatch.setattr(periods, "spine_integral", one_step)

    def measured(run):
        counts.update(points=0, ladders=0, connections=0, integrands=0)
        run()
        assert (counts["ladders"] == counts["connections"]
                == counts["integrands"] == 1)
        return counts["points"]

    assert measured(lambda: tau.scaling_check(ref_config(),
                                              pairing=REF_PAIRING)) \
        == REF_SCALING_KERNEL_POINTS
    for fam in (_ZP, _ZZ):
        assert tuple(measured(lambda: tau.degeneration_rows(
            tau.DegenerationFamily(fam.name, fam.config, fam.pairing,
                                   fam.collide, schedule=(d,))))
            for d in fam.schedule) == ROW_KERNEL_POINTS[fam.name], fam.name


@pytest.fixture
def work(monkeypatch):
    """Kernel points, spine ladder calls and period engines built while
    a test runs, counted through spies."""
    counts = {"points": 0, "ladders": 0, "engines": 0}
    for name, pos in (("eval_sheet1", 0), ("eval_oncut", 1)):
        def counted(*args, _kernel=getattr(kernels, name), _pos=pos):
            counts["points"] += np.size(args[_pos])
            return _kernel(*args)
        monkeypatch.setattr(kernels, name, counted)
    ladder, init = periods.spine_integral, periods.PeriodEngine.__init__

    def spy(*args, **kwargs):
        counts["ladders"] += 1
        return ladder(*args, **kwargs)

    def built(self, *args, **kwargs):
        counts["engines"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(periods, "spine_integral", spy)
    monkeypatch.setattr(periods.PeriodEngine, "__init__", built)
    return counts


def test_scaling_and_basis_change_share_one_connection(work, monkeypatch):
    # the connection workload's pair of checks on one configuration:
    # one engine, one ladder and the scaling check's points in all
    sig = random_symplectic(2, np.random.default_rng(5), steps=5)
    calls = (lambda: tau.scaling_check(ref_config(), pairing=REF_PAIRING),
             lambda: tau.basis_change_residual(_pole_path, 0.0, sig,
                                               pairing=REF_PAIRING))
    shared = [call() for call in calls]
    assert work == {"points": REF_SCALING_KERNEL_POINTS, "ladders": 1,
                    "engines": 1}
    fresh = []
    for call in calls:
        monkeypatch.setattr(tau, "_last", (None, None))
        fresh.append(call())
    assert work["engines"] == 3
    assert shared == fresh


def test_only_a_repeated_configuration_reuses_its_connection(work):
    # A, B, A builds three times, and so do two pairings of one
    # configuration; a pairing the configuration carries, or one
    # written as lists, is the same key as the tuples given
    a, b = ref_config(), _pole_path(0.5)
    for config in (a, b, a):
        tau.build_connection(config, pairing=REF_PAIRING)
    assert work["engines"] == 3
    cfg = _ZP.config(0.1)
    for pairing in ([(0, 5), (2, 4), (3, 1)], [(0, 5), (2, 3), (4, 1)]):
        conn = tau.build_connection(cfg, pairing=pairing)
    own = QDConfigG0(cfg.zeros, cfg.poles, pairing=((0, 5), (2, 3), (4, 1)))
    assert tau.build_connection(own) is conn
    assert tau.build_connection(cfg, [[0, 5], [2, 3], [4, 1]]) is conn
    assert work["engines"] == 5
    # scales 1 + 0j and 1 - 0j differ in the sign of a zero, which
    # complex == does not see: each builds
    for scale in (complex(1.0, -0.0), complex(1.0, 0.0)):
        conn = tau.build_connection(ref_config(scale), pairing=REF_PAIRING)
    assert tau.build_connection(a, pairing=REF_PAIRING) is conn
    assert work["engines"] == 7


def test_a_build_that_raises_is_not_kept(work, monkeypatch):
    class Stop(Exception):
        pass

    kernel = kernels.eval_sheet1

    def raises_once(*args):
        monkeypatch.setattr(kernels, "eval_sheet1", kernel)
        raise Stop

    monkeypatch.setattr(kernels, "eval_sheet1", raises_once)
    with pytest.raises(Stop):
        tau.build_connection(ref_config(), pairing=REF_PAIRING)
    conn = tau.build_connection(ref_config(), pairing=REF_PAIRING)
    assert work["engines"] == 2 and work["ladders"] == 2
    assert abs(conn.euler_pairing(1) - KAPPA_PLUS) < 1e-10


@settings(max_examples=12, derandomize=True, deadline=None)
@given(n=st.integers(5, 8), seed=st.integers(0, 2**32 - 1))
def test_reduced_periods_match_contour(n, seed):
    rng = np.random.default_rng(seed)
    pe = tau.build_connection(_generic_config(rng, n)).pe
    pts = np.array(pe.curve.branch_points)
    c = pts.mean()
    s = np.abs(pts - c).max()
    a = rng.normal(size=(2, len(pts))) + 1j * rng.normal(size=(2, len(pts)))
    # a polynomial part of the largest degree the sampling takes, 2g
    poly = rng.normal(size=2 * n - 5) + 1j * rng.normal(size=2 * n - 5)

    def fn(x):
        d = partial_fractions(x, pts)
        return (np.tensordot(a[0], d * d, axes=1)
                + np.tensordot(a[1], d, axes=1) + np.polyval(poly, (x - c) / s))

    got = tau.reduced_loop_periods(pe, lambda x: fn(x)[None])[0]
    want = np.array([pe.contour_loop_period(
        lambda x, sheet: fn(x) / pe.ev.y(x, sheet), i)
        for i in range(len(pe.cycles.loops))])
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
