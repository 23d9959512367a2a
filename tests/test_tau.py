import cmath

import numpy as np
import pytest

from qdtau import periods, tau
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


def test_sv_against_finite_differences():
    cfg = ref_config(scale=0.7 - 0.3j)
    sv = tau.sv_coeff(cfg)

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
    sv = tau.sv_coeff(ref_config())
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


@pytest.mark.parametrize("config, pairing", [
    (ref_config(), REF_PAIRING),
    (_ZZ.config(0.1 * 0.5**8), _ZZ.pairing),
], ids=["ref", "zero-zero-3.9e-4"])
def test_phi_periods_match_recursive_quadrature(monkeypatch, config, pairing):
    def phi(conn):
        return np.concatenate([np.concatenate(conn.phi_periods(b))
                               for b in (1, -1)])

    got = phi(tau.build_connection(config, pairing=pairing))
    monkeypatch.setattr(periods, "adaptive_line", recursive_line)
    want = phi(tau.build_connection(config, pairing=pairing))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
