"""Period integrals: elliptic closed forms, normalized bases, cross-routes."""
import cmath
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdtau import checks, kernels, periods, strata, tau
from qdtau.bergman import BergmanEvaluator
from qdtau.cover_homology import random_symplectic, transform_basis
from qdtau.curves import QDConfigG0, build_cover, hyperelliptic_model
from qdtau.cycles import SPINE_RHO_MIN, GeometryError, build_cycles_robust
from qdtau.periods import PeriodEngine, v_numerator
from qdtau.quadrature import (SPINE_SIZES, QuadratureError, jacobi_moments,
                              spine_integral)
from test_tau import _genus3_path, _kappa_configs


# |alpha-period of dx/yhat| on w^2 = x(x-1)(x-2) equals 2*pi/agm(sqrt(2),1).
AGM_PERIOD = 2 * 2.6220575542921198


def mobius_model(points, x0):
    """(branch points, k) of the curve y^2 = prod(x - b) over three
    finite points under x = x0 + 1/u: the images 1/(b - x0) and u = 0,
    the image of x = infinity, with dx/y = -du/(k yhat(u)) and
    k^2 = prod(x0 - b)."""
    model = [1.0 / (b - x0) for b in points] + [0.0]
    return model, np.sqrt(complex(np.prod([x0 - b for b in points])))


def spine_half(pe, loop_idx, num):
    """The loop's spine integral of num(x) dx/yhat by its own
    Gauss-Jacobi ladder from the loop's first rung (the loop period is
    twice this times sigma), independent of the engine's tables; num
    maps x to a value or a stack of them."""
    geo = pe.loop_geometry(loop_idx)
    lp = pe.cycles.loops[loop_idx]

    def g(t):
        x = geo.mid + t * geo.half
        y = pe.ev.y_oncut(lp.index, t, +1) if lp.kind == "cut" else pe.ev.y(x)
        return num(x) * geo.half * np.sqrt((1.0 - t) * (1.0 + t)) / y

    return spine_integral(g, -0.5, -0.5, tol=pe.tol,
                          start=pe.first_rungs[loop_idx])[0]


def _engine(points, pairing=None):
    curve = hyperelliptic_model(points)
    cyc = build_cycles_robust(curve, pairing=pairing)
    return PeriodEngine(cyc)


def _dx_alpha_period(pe):
    """The first alpha period of dx/yhat."""
    return pe.homological_coordinates(pe.frame_poly([1.0]))[0][0]


def test_elliptic_agm_alpha_period():
    # three points sent to infinity; 1 + 1j gives a non-collinear model
    for x0 in (-1.0, 3.0, 1.0 + 1.0j):
        model, k = mobius_model([0.0, 1.0, 2.0], x0)
        per = _dx_alpha_period(_engine(model))
        assert abs(abs(per) / abs(k) - AGM_PERIOD) < 1e-10 * AGM_PERIOD, x0


def test_elliptic_tau_square_lattice():
    # both curves have real 2-torsion symmetric enough to force tau = i
    for pts, x0 in (([0.0, 1.0, 2.0], -1.0), ([0.0, 1.0, 2.0], 3.0),
                    ([-1.0, 0.0, 1.0], 2.0)):
        pe = _engine(mobius_model(pts, x0)[0])
        tau = pe.period_matrix()[0, 0]
        assert abs(tau - 1j) < 1e-12


def test_lemniscatic_half_period():
    # y^2 = x^3 - x: real half-period 1.31102877714606...; it is
    # x(x-1)(x-2) shifted by one, so x0 = -2 gives the model of x0 = -1
    model, k = mobius_model([-1.0, 0.0, 1.0], -2.0)
    per = _dx_alpha_period(_engine(model))
    # quarter of the alpha-period of dx/y is omega_1
    assert abs(abs(per) / (4 * abs(k)) - 1.3110287771460603) < 1e-12


REF = dict(zeros=[0.0], poles=[1.0, -1.0, 2.0, -2.0, 0.5])

# frozen regression values for the reference configuration
REF_OMEGA = np.array(
    [
        [1.41420707j, 0.89299109j],
        [0.89299109j, 1.53984250j],
    ]
)
REF_V_ALPHA = np.array([-0.87563113j, 2.72485064j])
REF_V_BETA = np.array([-1.19494361, -3.41391002])


def _ref_engine():
    curve = build_cover(QDConfigG0(**REF))
    return PeriodEngine(build_cycles_robust(curve))


def test_reference_period_matrix():
    pe = _ref_engine()
    om = pe.period_matrix()
    assert np.max(np.abs(om - om.T)) < 1e-8
    assert np.all(np.linalg.eigvalsh(om.imag) > 0)
    assert np.max(np.abs(om - REF_OMEGA)) < 1e-6
    assert pe.omega_defect < 1e-8
    assert pe.omega_imag_min_eig == np.linalg.eigvalsh(om.imag).min()


def test_normalized_basis_duality():
    pe = _ref_engine()
    N, om = pe.normalized_basis()
    g = pe.cycles.genus
    # alpha-periods of the normalized differentials are exactly delta_jk
    check = np.zeros((g, g), dtype=complex)
    for j in range(g):
        check[j] = pe.homological_coordinates(pe.frame_poly(N[j, ::-1]))[0]
    assert np.max(np.abs(check - np.eye(g))) < 1e-10


def test_reference_v_periods():
    pe = _ref_engine()
    a, b = pe.homological_coordinates()
    assert np.max(np.abs(a - REF_V_ALPHA)) < 1e-6
    assert np.max(np.abs(b - REF_V_BETA)) < 1e-6


def test_spine_and_contour_routes_agree():
    pe = _ref_engine()
    num = v_numerator(QDConfigG0(**REF))
    fn = lambda x, sheet: np.polyval(num, x) / pe.ev.y(x, sheet)
    periods_v = pe.loop_periods(pe.frame_poly(num))
    for idx in range(len(pe.cycles.loops)):
        fast = periods_v[idx]
        slow = pe.contour_loop_period(fn, idx, tol=1e-10)
        assert abs(fast - slow) < 1e-8 * max(1.0, abs(slow))


def test_v_squares_to_quadratic_differential():
    cfg = QDConfigG0(**REF, scale=0.7 - 0.3j)
    curve = build_cover(cfg)
    ev = build_cycles_robust(curve).evaluator
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = complex(rng.normal() * 2, rng.normal() * 2)
        num = np.prod([x - z for z in cfg.zeros])
        den = np.prod([x - p for p in cfg.poles])
        q = cfg.scale * num / den
        val = np.polyval(v_numerator(cfg), x) / ev.y(x)
        assert abs(val * val - q) < 1e-9 * max(1.0, abs(q))


def test_random_configs_period_matrix_properties():
    rng = np.random.default_rng(77)
    done = 0
    while done < 6:
        pts = rng.normal(size=6) + 1j * rng.normal(size=6)
        if np.min(np.abs(pts[:, None] - pts[None, :])[np.triu_indices(6, 1)]) < 0.25:
            continue
        cfg = QDConfigG0(zeros=[complex(pts[0])], poles=[complex(p) for p in pts[1:]])
        pe = PeriodEngine(build_cycles_robust(build_cover(cfg)))
        om = pe.period_matrix()
        assert np.max(np.abs(om - om.T)) < 1e-8
        assert np.all(np.linalg.eigvalsh(om.imag) > 1e-12)
        done += 1


def test_period_cache_reuse():
    pe = _ref_engine()
    v = pe.frame_poly(v_numerator(QDConfigG0(**REF)))
    first = pe.loop_periods(v)
    again = pe.loop_periods(v)
    assert np.array_equal(first, again)
    # one power map per engine: its cached object, not a re-solve
    assert pe.power_map() is pe.power_map()


def test_spine_cache_keeps_loop_periods_bit_identical():
    # a warm engine reads every form off its cached tables; a fresh one
    # integrates them for its first differential alone
    cfg = QDConfigG0(zeros=[0.3 + 0.2j, -0.4 - 0.1j],
                     poles=[2.0, -2.0, -1.0 - 1.5j, -1.0 + 1.5j,
                            1.0 + 1.5j, 1.0 - 1.5j])
    curve = build_cover(cfg)
    warm = PeriodEngine(build_cycles_robust(curve))
    polys = [warm.frame_poly(np.eye(j + 1)[0]) for j in range(curve.genus)]
    polys.append(warm.frame_poly(v_numerator(cfg)))
    for p in polys:
        warm.loop_periods(p)
    assert sorted(warm._tables) == list(range(len(warm.cycles.loops)))
    for p in polys[::-1]:
        fresh = PeriodEngine(build_cycles_robust(curve))
        assert np.array_equal(fresh.loop_periods(p), warm.loop_periods(p))


# three branch points in a disc of radius ~0.3 beside three spread ones:
# v's numerator as the quotient R/m was roundoff near the clustered
# poles, so no spine ladder settled and every loop went to the contour
CLUSTERED = QDConfigG0(zeros=[-1.325 - 2.362j],
                       poles=[-0.835 - 2.259j, -1.051 - 2.396j,
                              -2.417 + 1.566j, -1.003 - 2.167j,
                              -1.561 - 2.622j])


def test_v_periods_on_clustered_config_take_the_spine(monkeypatch):
    pe = PeriodEngine(build_cycles_robust(build_cover(CLUSTERED)))
    pe.normalized_basis()  # the holomorphic basis fills the tables
    contour = PeriodEngine.contour_loop_period
    calls = []

    def spy(self, fn, loop_idx, tol=None):
        calls.append(loop_idx)
        return contour(self, fn, loop_idx, tol)

    monkeypatch.setattr(PeriodEngine, "contour_loop_period", spy)
    num = v_numerator(CLUSTERED)
    got = pe.loop_periods(pe.frame_poly(num))
    assert calls == []
    want = np.array([contour(pe, lambda x, sheet: np.polyval(num, x)
                             / pe.ev.y(x, sheet), i)
                     for i in range(len(pe.cycles.loops))])
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


# Loop orientation: the sign read off the lift against the contour
# calibration that set it before, kept here as the oracle

def calibrated_sigma(pe, loop_idx):
    """sigma from the ratio of a contour period of x^j dx/yhat to twice
    its spine integral, for the first j whose spine integral is not
    negligible; None where no such j exists.  A spine whose ladder does
    not settle raises QuadratureError."""
    for j in range(pe.curve.genus):
        spine = spine_half(pe, loop_idx, lambda x: x ** j)
        if abs(spine) < 1e-8:
            continue
        contour = pe.contour_loop_period(
            lambda x, sheet: x ** j / pe.ev.y(x, sheet), loop_idx,
            tol=1e-6 * abs(spine))
        ratio = contour / (2.0 * spine)
        sig = 1 if ratio.real > 0 else -1
        assert abs(ratio - sig) < 1e-2, ratio
        return sig
    return None


def _spread(rng, m, radius=2.5, min_sep=0.25):
    while True:
        pts = rng.uniform(-radius, radius, (m, 2)) @ np.array([1.0, 1.0j])
        if min(abs(p - q) for i, p in enumerate(pts) for q in pts[:i]) >= min_sep:
            return pts


def class_config(rng, cls, n):
    """n poles and n - 4 zeros in one of the benchmark's geometry
    classes: spread, a tight cluster beside spread points, within 1e-3
    of a line, or spread at 1e3 times the size."""
    m = 2 * n - 4
    if cls == "generic":
        pts = _spread(rng, m)
    elif cls == "clustered":
        k = int(rng.integers(3, min(m - 1, 5) + 1))
        r = 0.1 * 5.0 ** rng.uniform()
        far = _spread(rng, m - k + 1)
        pts = rng.permutation(np.concatenate([far[0] + _spread(rng, k, r, r / 5),
                                              far[1:]]))
    elif cls == "collinear":
        xs = np.linspace(-2.5, 2.5, m) + rng.uniform(-0.1, 0.1, m)
        pts = rng.permutation(xs) + 1j * rng.uniform(-1e-3, 1e-3, m)
    else:
        pts = 1e3 * _spread(rng, m)
    return QDConfigG0(zeros=pts[:n - 4], poles=pts[n - 4:])


def _orientation_cases():
    rng = np.random.default_rng(515)
    for cls in ("generic", "clustered", "collinear", "scaled"):
        for n in (5, 6, 7, 8):
            for _ in range(3):
                yield cls, class_config(rng, cls, n), None
    for name, make in tau.FAMILIES.items():
        fam = make()
        for d in fam.schedule:
            yield name, fam.config(d), fam.pairing
    for s in (0.0, 5e-6):
        yield "genus3-path", _genus3_path(s), tau.zero_zero_family().pairing


def test_loop_orientation_matches_contour_calibration():
    compared = {}
    for group, config, pairing in _orientation_cases():
        pe = PeriodEngine(build_cycles_robust(build_cover(config),
                                              pairing=pairing))
        for i in range(len(pe.cycles.loops)):
            try:
                want = calibrated_sigma(pe, i)
            except QuadratureError:
                continue
            if want is not None:
                assert pe.sigma(i) == want, (group, config, i)
                compared[group] = compared.get(group, 0) + 1
    assert len(compared) == 7 and sum(compared.values()) >= 450


def test_generic_engines_make_no_contour_call(monkeypatch):
    # with the orientation read off the lift, Omega, v's periods and the
    # Bergman correction of well-separated configurations stay on the
    # spine route; and, on a bare engine, build the powers blocks only,
    # every table 2g + 1 rows
    calls = []
    monkeypatch.setattr(PeriodEngine, "contour_loop_period",
                        lambda self, fn, loop_idx, tol=None:
                        calls.append(loop_idx))
    for config in (QDConfigG0(**REF), *_kappa_configs()):
        pe = PeriodEngine(build_cycles_robust(build_cover(config)))
        pe.period_matrix()
        pe.homological_coordinates()
        BergmanEvaluator(pe).correction()
        assert ([len(pe._tables[i]) for i in range(len(pe.cycles.loops))]
                == [2 * pe.curve.genus + 1] * len(pe.cycles.loops))
    assert calls == []


# eight branch points within 1e-3 of a line (zeros first): the greedy
# pairing joins the ends of the row past six foreign points (worst
# spine rho 1.0000016), so the ladder must not stop there
COLLINEAR = QDConfigG0(
    zeros=[0.1072563909415523 + 0.00031154442284457177j,
           -2.3490066545881865 + 0.0010161154501581598j],
    poles=[0.7551783616755803 - 0.0006277467354209106j,
           -1.4195303189714452 + 0.0007209908104205179j,
           -1.0489960338146318 + 0.000434135454945383j,
           2.1309811354234296 - 0.0007854969916183529j,
           1.8441086036913055 - 0.0005865129069926625j,
           2.497071134212012 - 0.0003661584425061073j])


def test_collinear_ladder_keeps_every_period_on_the_spine(monkeypatch):
    calls = []
    monkeypatch.setattr(PeriodEngine, "contour_loop_period",
                        lambda self, fn, loop_idx, tol=None:
                        calls.append(loop_idx))
    conn = tau.build_connection(COLLINEAR)
    assert conn.pe.cycles.spine_rho() >= SPINE_RHO_MIN
    conn.pe.period_matrix()
    conn.v_periods()
    conn.be.correction()
    for branch, kappa in zip((1, -1), strata.principal_kappa(0, COLLINEAR.n)):
        assert abs(conn.euler_pairing(branch) - float(kappa)) < 1e-8
    assert calls == []


def _labelled_outcome(config):
    """Omega, v's homological coordinates and both Euler pairings of
    the configuration, or its GeometryError's message."""
    try:
        conn = tau.build_connection(config)
        return (conn.pe.period_matrix(), np.concatenate(conn.v_periods()),
                np.array([conn.euler_pairing(b) for b in tau.BRANCHES]))
    except GeometryError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
@pytest.mark.parametrize("cls", ["generic", "clustered", "collinear", "scaled"])
@settings(max_examples=3, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_relabeling_zeros_and_poles_changes_nothing(cls, n, seed, data):
    # the cycle system is built from the points alone, so Omega is
    # bit-identical; v's numerator and phi are symmetric functions of the
    # zeros and poles, which move only by the rounding of their order
    cfg = class_config(np.random.default_rng(seed), cls, n)
    moved = QDConfigG0(zeros=data.draw(st.permutations(cfg.zeros)),
                       poles=data.draw(st.permutations(cfg.poles)))
    want, got = _labelled_outcome(cfg), _labelled_outcome(moved)
    if isinstance(want, str):
        assert got == want
        return
    omega, v, euler = want
    assert np.array_equal(got[0], omega)
    assert np.abs(got[1] - v).max() <= 1e-12 * np.abs(v).max()
    assert np.abs(got[2] - euler).max() <= 1e-11 * np.abs(euler).max()


# Every period is a form's parts times the engine's power and pole maps,
# read off each loop's moment table; a loop whose ladder fails runs one
# stacked contour for the whole table.  The oracle integrates each form
# from its own definition: a polynomial numerator in x by np.polyval on
# its own spine ladder (on the stadium contour where that ladder
# fails); phi's unreduced numerator (`tau.phi_numerators`) and the
# Rauch velocity f_dot + f sum b_dot / (2 (x - b)), whose poles sit at
# the spine's ends, on the contour.

# the form each caller of `PeriodEngine.loop_periods` integrates
_KINDS = {"normalized_basis": "holo-basis", "alpha_moments": "powers",
          "v_periods": "v", "reduced_loop_periods": "phi"}


def _record_loop_periods(monkeypatch):
    """Lists of the (form kind, parts, loop periods) computed by any
    engine, and of the loops whose contour ran, filled as the engines
    work.  A velocity's parts are period_velocities' (f, f_dot, b_dot),
    every other form's are loop_periods' (poly, laurent)."""
    seen, contours = [], []
    loop_periods = PeriodEngine.loop_periods
    velocities = PeriodEngine.period_velocities
    contour = PeriodEngine.contour_loop_period

    def spy_loops(self, poly, laurent=None):
        out = loop_periods(self, poly, laurent)
        kind = _KINDS.get(sys._getframe(1).f_code.co_name)
        if kind is not None:
            seen.append((kind, (poly, laurent), out))
        return out

    def spy_velocities(self, f, f_dot, b_dot):
        out = velocities(self, f, f_dot, b_dot)
        seen.append(("poly", (f, f_dot, b_dot), out))
        return out

    def spy_contour(self, fn, loop_idx, tol=None):
        contours.append(loop_idx)
        return contour(self, fn, loop_idx, tol)

    monkeypatch.setattr(PeriodEngine, "loop_periods", spy_loops)
    monkeypatch.setattr(PeriodEngine, "period_velocities", spy_velocities)
    monkeypatch.setattr(PeriodEngine, "contour_loop_period", spy_contour)
    return seen, contours


def _connection_periods(conn, tangent):
    """Every form the tau layer integrates: the holomorphic basis, v,
    v's Rauch velocities along the tangent, and phi (with the kernel's
    powers)."""
    conn.pe.normalized_basis()
    conn.v_periods()
    conn.v_velocities(*tangent)
    conn.phi_periods(1)


def _numerator(conn, kind, parts):
    """num(x), the numerator (a stack) of the recorded form, from the
    form's definition."""
    pe = conn.pe
    g = pe.curve.genus
    if kind == "phi":
        return tau.phi_numerators(conn.be, conn.config)
    if kind == "poly":
        f, f_dot, b_dot = parts
        c, s = pe.frame
        pts = np.array(pe.curve.branch_points)[:, None]

        def velocity(x):
            z = (x - c) / s
            rauch = (np.asarray(b_dot)[:, None] / (2.0 * (x - pts))).sum(0)
            return np.array([np.polyval(d, z) + np.polyval(p, z) * rauch
                             for p, d in zip(np.atleast_2d(f),
                                             np.atleast_2d(f_dot))])

        return velocity
    coeffs = {"holo-basis": lambda: np.eye(g)[::-1],
              "powers": lambda: np.eye(2 * g + 1)[::-1],
              "v": lambda: [v_numerator(conn.config)]}[kind]()
    return lambda x: np.array([np.polyval(c, x) for c in coeffs])


def _oracle_errors(conn, seen, loops):
    """{form kind: worst max-normalized distance} between each recorded
    period on the given loops and the form integrated from its
    definition."""
    pe, worst = conn.pe, {}
    for kind, parts, out in seen:
        num = _numerator(conn, kind, parts)
        for idx in loops:
            want = None
            if kind not in ("phi", "poly"):
                try:
                    want = 2.0 * pe.sigma(idx) * spine_half(pe, idx, num)
                except QuadratureError:
                    pass
            if want is None:
                want = pe.contour_loop_period(
                    lambda x, sheet: num(x) / pe.ev.y(x, sheet), idx)
            err = (np.abs(out[..., idx] - np.squeeze(want)).max()
                   / np.abs(want).max())
            worst[kind] = max(worst.get(kind, 0.0), err)
    return worst


def test_failing_loop_falls_back_once_for_all_its_forms(monkeypatch):
    # every row of both full schedules: only zero-zero's gap loops past
    # the pinching cut fail, loop 5 at d = 1.95e-4 and loops 4 and 5 at
    # d = 9.8e-5
    seen, contours = _record_loop_periods(monkeypatch)
    worst, failing = {}, []
    for fam in (tau.zero_pole_family(), tau.zero_zero_family()):
        for d in fam.schedule:
            del seen[:], contours[:]
            conn = tau.build_connection(fam.config(d), pairing=fam.pairing)
            _connection_periods(conn, tau._tangent(fam.config, d, 1e-3 * d))
            pe = conn.pe
            assert sorted(contours) == pe.fallback_loops, (fam.name, d)
            # a loop whose far-pole block fails after its powers block
            # settled reports no defect either
            assert ([i for i, e in enumerate(pe.loop_defects) if e is None]
                    == pe.fallback_loops), (fam.name, d)
            failing.append(len(contours))
            for kind, err in _oracle_errors(conn, seen,
                                            pe.fallback_loops).items():
                worst[kind] = max(worst.get(kind, 0.0), err)
    assert failing == [0] * 11 + [0] * 9 + [1, 2]
    assert set(worst) == {"holo-basis", "v", "poly", "phi", "powers"}
    assert max(worst.values()) <= 1e-10, worst


def test_moment_tables_match_spine_periods(monkeypatch):
    # the table on every loop whose spine settles, against each form
    # integrated from its definition, over REF and the seeded generic
    # configurations with a random tangent
    seen, _ = _record_loop_periods(monkeypatch)
    rng = np.random.default_rng(11)
    for config in (QDConfigG0(**REF), *_kappa_configs()):
        del seen[:]
        conn = tau.build_connection(config)
        b_dot = rng.normal(size=(2 * config.n - 4, 2)) @ np.array([1.0, 1.0j])
        _connection_periods(conn, (b_dot, 0.3))
        pe = conn.pe
        loops = set(range(len(pe.cycles.loops))) - set(pe.fallback_loops)
        errors = _oracle_errors(conn, seen, loops)
        assert set(errors) == {"holo-basis", "v", "poly", "phi", "powers"}
        assert max(errors.values()) <= 1e-10, errors


def test_each_loop_integrates_its_table_once(monkeypatch):
    # a connection, a basis change and v's homological coordinates on one
    # engine integrate tables, not forms: one lockstep spine ladder call
    # (both blocks of every loop), and one contour per loop whose ladder
    # failed
    _, contours = _record_loop_periods(monkeypatch)
    ladders = []
    ladder = periods.spine_integral

    def spy(*args, **kwargs):
        ladders.append(args)
        return ladder(*args, **kwargs)

    monkeypatch.setattr(periods, "spine_integral", spy)
    zz = tau.zero_zero_family()
    for config, pairing in ((QDConfigG0(**REF), None),
                            (zz.config(zz.schedule[10]), zz.pairing)):
        del ladders[:], contours[:]
        conn = tau.build_connection(config, pairing=pairing)
        pe = conn.pe
        conn.euler_pairing(1)
        b_dot, c_dot = tau._tangent(checks.pole_path(config), 0.0)
        dv = conn.v_velocities(b_dot, c_dot)
        sig = random_symplectic(pe.curve.genus, np.random.default_rng(3),
                                steps=6)
        am2, bm2 = transform_basis(sig, conn.alpha_mat, conn.beta_mat)
        moved = tau.TauConnection(pe, config, conn.be.transformed(sig),
                                  am2, bm2)
        for c in (conn, moved):
            c.dlog_tau(-1, dv)
        pe.period_matrix_velocity(b_dot)
        pe.homological_coordinates()
        assert len(ladders) == 1
        assert len(contours) == len(pe.fallback_loops)
    assert pe.fallback_loops  # the zero-zero row's gap loops fail


def test_each_ladder_step_calls_each_kernel_at_most_once(monkeypatch):
    # seed-1 configurations of the benchmark's geometry classes: an
    # engine's lockstep ladder takes as many steps as its longest-climbing
    # ladder, each step weighs its nodes with at most one eval_sheet1
    # call (gap loops) and one eval_oncut call (cut loops), and nothing
    # else evaluates yhat: both on an engine that builds the powers
    # blocks first, as a bare engine does, and on one asked for the pole
    # map first, whose steps carry both blocks of a loop
    calls = {"eval_sheet1": 0, "eval_oncut": 0}
    for name in calls:
        def counted(*args, _kernel=getattr(kernels, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(kernels, name, counted)
    steps = []
    ladder = periods.spine_integral

    def spy(g, *args, start, **kwargs):
        taken = len(steps)

        def step(nodes):
            before = dict(calls)
            out = g(nodes)
            steps.append({k: calls[k] - before[k] for k in calls})
            return out

        out = ladder(step, *args, start=start, **kwargs)
        climbs = [(r if r >= 0 else len(SPINE_SIZES) - 1) - s + 1
                  for r, s in zip(out[2], start)]
        assert len(steps) - taken == max(climbs)
        return out

    monkeypatch.setattr(periods, "spine_integral", spy)
    rng = np.random.default_rng(1)
    for cls in ("generic", "clustered", "collinear", "scaled"):
        for n in (5, 6, 7, 8):
            try:
                cyc = build_cycles_robust(build_cover(class_config(rng, cls, n)))
            except GeometryError:
                continue
            for poles_first in (False, True):
                pe = PeriodEngine(cyc)
                del steps[:]
                start = dict(calls)
                if poles_first:
                    pe.pole_map()
                pe.power_map()
                pe.pole_map()
                assert steps and all(max(s.values()) <= 1 for s in steps)
                assert ({k: calls[k] - start[k] for k in calls}
                        == {k: sum(s[k] for s in steps) for k in calls})


def test_transformed_kernel_falls_back_once_per_loop(monkeypatch):
    # a basis move brings the gap loops whose spines fail into the alpha
    # rows; the moved correction reads those loops' periods off their
    # tables, so it runs a contour only for a loop that fails anew
    _, contours = _record_loop_periods(monkeypatch)
    fam = tau.zero_zero_family()
    for d in fam.schedule[9:]:                       # d <= 1.95e-4
        conn = tau.build_connection(fam.config(d), pairing=fam.pairing)
        _connection_periods(conn, tau._tangent(fam.config, d, 1e-3 * d))
        pe = conn.pe
        sigma = random_symplectic(pe.curve.genus, np.random.default_rng(3),
                                  steps=6)
        failed = set(pe.fallback_loops)
        del contours[:]
        moved = conn.be.transformed(sigma)
        moved.correction()
        assert moved.alpha_mat[:, pe.fallback_loops].any(), d
        assert len(contours) == len(set(pe.fallback_loops) - failed), d


def test_first_rungs_follow_the_loop_rho():
    # each loop's ladder starts where its own worst foreign point lets
    # the rule meet the engine's tolerance; spine_rho is the worst loop
    for config in (QDConfigG0(**REF), COLLINEAR, CLUSTERED):
        pe = PeriodEngine(build_cycles_robust(build_cover(config)))
        rhos = pe.cycles.spine_rhos()
        assert len(rhos) == len(pe.cycles.loops) == len(pe.first_rungs)
        assert pe.cycles.spine_rho() == rhos.min()
        for rho, k in zip(rhos, pe.first_rungs):
            fits = rho ** (-2.0 * np.array(SPINE_SIZES)) <= pe.tol
            assert not fits[k] and fits[k + 1] or k == 0 and fits[0]


def test_frame_poly_is_the_frames_own_shift():
    # the shift the engine builds with its loops' gives frame_poly bit
    # for bit the route through affine_shift(*frame, 2g + 1): on REF and
    # on a genus-5 configuration, one polynomial and stacks of them
    rng = np.random.default_rng(8)
    for config in (QDConfigG0(**REF), class_config(rng, "generic", 8)):
        pe = PeriodEngine(build_cycles_robust(build_cover(config)))
        size = 2 * pe.curve.genus + 1
        shift = periods.affine_shift(*pe.frame, size)
        for coeffs in (np.eye(pe.curve.genus)[::-1], v_numerator(config),
                       [1.0], rng.normal(size=(3, size))
                       + 1j * rng.normal(size=(3, size))):
            p = np.asarray(coeffs, dtype=complex)[..., ::-1]
            want = (p @ shift[:p.shape[-1]])[..., ::-1]
            assert np.array_equal(pe.frame_poly(coeffs), want)


# The per-loop ladder, kept here as the oracle of the engine's lockstep
# ladders: each loop's table block by block, each block on its own
# ladder with its own kernel calls, and each rung's sums the products
# the engine forms per ladder

class PerLoopEngine(PeriodEngine):
    """A PeriodEngine whose tables are built loop by loop: each block
    by its loop's own one-ladder `spine_integral`, from the loop's
    first rung, weighing its own nodes; a loop whose ladder fails takes
    its whole table from its stadium contour, and P keeps its powers
    block if that settled."""

    def _tabulate(self, loops, poles=False):
        rows = self._degree + 1
        for i in loops:
            want = rows + 2 * len(self.loop_split(i)[1]) if poles else rows
            table = self._tables.get(i, np.zeros(0, dtype=complex))
            if len(table) >= want:
                continue
            while len(table) < want:
                block = self._spine_block(i, len(table) > 0)
                if block is None:
                    self._failed.add(i)
                    table = self.contour_loop_period(self._table_rows(i), i)
                    self._powers.setdefault(i, table[:rows])
                    break
                if len(table) == 0:
                    self._powers[i] = block
                table = np.concatenate([table, block])
            self._tables[i] = table

    def _spine_block(self, loop_idx, poles):
        geo = self.loop_geometry(loop_idx)
        lp = self.cycles.loops[loop_idx]
        far = self._points[self.loop_split(loop_idx)[1]]
        rows = self._degree + 1

        def g(nodes):
            t = np.ascontiguousarray(nodes["t"])
            x = geo.mid + t * geo.half
            y = (self.ev.y_oncut(lp.index, t, +1) if lp.kind == "cut"
                 else self.ev.y(x))
            s = geo.half * np.sqrt((1.0 - t) * (1.0 + t)) / y
            if not poles:
                m = jacobi_moments(len(t), -0.5, -0.5, rows)
                return [(m @ s.view(float).reshape(-1, 2)).view(complex)
                        .ravel()]
            ws = nodes["w"] * s
            d = 1.0 / (x - far[:, None])
            return [np.concatenate([d @ ws, (d * d) @ ws])]

        vals, defects, rungs = spine_integral(
            g, -0.5, -0.5, tol=self.tol, start=[self.first_rungs[loop_idx]])
        if vals[0] is None:
            return None
        self._defects[loop_idx] = max(self._defects.get(loop_idx, 0.0),
                                      2.0 * float(defects[0]))
        self._settled.setdefault(loop_idx, []).append(int(rungs[0]))
        return 2.0 * self.sigma(loop_idx) * vals[0]


def assert_lockstep_matches_per_loop(cyc, one_by_one=False):
    """The engine's power and pole maps, loop defects, fallback loops
    and settled rungs on the cycle system are bit for bit the per-loop
    oracle's, whether the engine builds the powers blocks first, as a
    bare engine does, or both blocks in one ladder, as a connection's
    does; with ``one_by_one`` also each table an engine builds through
    `moment_table` alone.  Returns the fallback loops."""
    want = PerLoopEngine(cyc)
    want.power_map()
    want.pole_map()
    for poles_first in (False, True):
        got = PeriodEngine(cyc)
        if poles_first:
            got.pole_map()
        got.power_map()
        got.pole_map()
        assert np.array_equal(got.power_map(), want.power_map())
        assert np.array_equal(got.pole_map(), want.pole_map())
        assert got.loop_defects == want.loop_defects
        assert got.fallback_loops == want.fallback_loops
        assert got.settled_rungs == want.settled_rungs
    assert all(r is not None and len(r) == 1 + (len(got.loop_split(i)[1]) > 0)
               for i, r in enumerate(got.settled_rungs)
               if i not in got.fallback_loops)
    if one_by_one:
        single = PeriodEngine(cyc)
        for i in range(len(cyc.loops)):
            rows = len(want._tables[i])
            assert np.array_equal(single.moment_table(i, rows),
                                  want._tables[i])
        assert single.settled_rungs == want.settled_rungs
    return got.fallback_loops


def test_lockstep_ladders_match_the_per_loop_ladders():
    # REF, every row of both full schedules, and zero-zero at
    # d = 4.9e-5, past the schedule: the far-pole blocks of zero-zero
    # loop 5 at d = 1.95e-4 and loops 4 and 5 at d = 9.8e-5 fall back,
    # and at d = 4.9e-5 loop 5's powers block and loop 4's far-pole
    # block
    zz = tau.zero_zero_family()
    cases = [(QDConfigG0(**REF), None),
             *((fam.config(d), fam.pairing)
               for fam in (tau.zero_pole_family(), zz) for d in fam.schedule),
             (zz.config(zz.schedule[-1] / 2.0), zz.pairing)]
    fallbacks = []
    for k, (config, pairing) in enumerate(cases):
        cyc = build_cycles_robust(build_cover(config), pairing=pairing)
        fallbacks.append(assert_lockstep_matches_per_loop(cyc, k == 0))
    assert fallbacks[-3:] == [[5], [4, 5], [4, 5]]
    assert not any(fallbacks[:-3])


@settings(max_examples=16, derandomize=True, deadline=None)
@given(cls=st.sampled_from(["generic", "clustered", "collinear", "scaled"]),
       n=st.integers(5, 8), seed=st.integers(0, 2**32 - 1))
def test_lockstep_ladders_match_per_loop_on_the_classes(cls, n, seed):
    try:
        cyc = build_cycles_robust(build_cover(
            class_config(np.random.default_rng(seed), cls, n)))
    except GeometryError:
        return
    assert_lockstep_matches_per_loop(cyc, one_by_one=True)


# Omega is holomorphic in the branch points, so along b + s delta with
# complex s its derivative at s = 0 is the Cauchy average
# (1 / (N r)) sum over k of Omega(r w^k) w^-k, w = exp(2 pi i / N), up
# to O(r^N) and the engines' error over r.  delta is the moving pole's
# nearest-neighbour distance, so the side engines keep the points apart

# seeds 1-3 read at most 1.6e-11 (clustered), 4.0e-12 (generic) and
# 6.4e-11 (scaled)
CAUCHY_BOUND = {"clustered": 1e-10, "generic": 2e-11, "scaled": 2e-10}


def _pole_paths(cls, n):
    """(path, exact branch-point velocities) for seeds 1-3 of the class:
    s -> the seed's configuration with its last pole moved by s delta,
    delta that pole's nearest-neighbour distance."""
    for seed in (1, 2, 3):
        cfg = class_config(np.random.default_rng(seed), cls, n)
        pts = np.array(cfg.branch_points())
        delta = np.sort(np.abs(pts - pts[-1]))[1]
        *rest, last = cfg.poles
        b_dot = np.zeros(len(pts), dtype=complex)
        b_dot[-1] = delta

        def moved(s):
            return QDConfigG0(zeros=cfg.zeros,
                              poles=(*rest, last + delta * s))

        yield moved, b_dot


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("cls", sorted(CAUCHY_BOUND))
def test_period_matrix_velocity_matches_cauchy_average(cls, n):
    worst = 0.0
    for moved, b_dot in _pole_paths(cls, n):
        pe = PeriodEngine.for_config(moved(0.0))
        exact = pe.period_matrix_velocity(b_dot)
        pairing = [tuple(map(int, pr)) for pr in pe.cycles.pairs]
        count, r = 8, 1e-2
        roots = np.exp(2j * np.pi * np.arange(count) / count)
        cauchy = sum(PeriodEngine(build_cycles_robust(
            build_cover(moved(r * w)), pairing=pairing)).period_matrix() / w
            for w in roots) / (count * r)
        worst = max(worst, np.abs(exact - cauchy).max() / np.abs(exact).max())
    assert worst <= CAUCHY_BOUND[cls], worst


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("cls", sorted(CAUCHY_BOUND))
def test_path_tangent_matches_exact_velocities(cls, n):
    # the affine pole paths above and the scaling path scale exp(s): the
    # path tangent is within 1e-12 of their exact velocities, relative.
    # A central difference at h = 1e-5 rounds the moving pole's velocity
    # by about |b| eps / (h |b_dot|), 2.1e-10 on clustered n = 5, seed 2,
    # and the scale's by 1.2e-11
    for moved, b_dot in _pole_paths(cls, n):
        got, c_dot = tau._tangent(moved, 0.0)
        assert c_dot == 0 and np.array_equal(got == 0, b_dot == 0)
        assert np.abs(got - b_dot).max() <= 1e-12 * np.abs(b_dot).max()
        scale = 0.3 - 1.7j

        def scaled(s, cfg=moved(0.0)):
            return replace(cfg, scale=scale * cmath.exp(s))

        got, c_dot = tau._tangent(scaled, 0.0)
        assert not got.any()
        assert abs(c_dot - scale) <= 1e-12 * abs(scale)
