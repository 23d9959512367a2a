"""Spans and counters recorded at qdtau's module boundaries.

Nothing in the package is instrumented.  `Tracer.install` replaces the
functions and methods listed in BOUNDARIES (and every
``from module import name`` copy of them inside qdtau) with wrappers
that record a span (name, start, end, parent) and a few counters;
`uninstall` puts the originals back.  Untraced runs see the package as
shipped, apart from the work budget's counter on the sheet kernels
(workloads.WorkBudget).

A span's self time is its duration minus the durations of its direct
children; calls are serial, so children never overlap.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

from qdtau import (bergman, cover_homology, curves, cycles, kernels, periods,
                   picard, quadrature, strata, tau)

# (module, attribute) for functions, (module, class, method) for methods;
# the span is named "<layer>.<attribute>"
BOUNDARIES = [
    (curves, "build_cover"),
    (kernels, "eval_sheet1"),
    (kernels, "eval_oncut"),
    (cycles, "build_cycles_robust"),
    (cycles, "build_cycles"),
    (cycles, "winding_number"),
    (periods, "PeriodEngine", "__init__"),
    (periods, "PeriodEngine", "loop_period"),
    (periods, "PeriodEngine", "sigma"),
    (periods, "PeriodEngine", "contour_loop_period"),
    (periods, "PeriodEngine", "normalized_basis"),
    (periods, "PeriodEngine", "homological_coordinates"),
    (bergman, "BergmanEvaluator", "__init__"),
    (bergman, "BergmanEvaluator", "correction"),
    (bergman, "BergmanEvaluator", "t_coeff"),
    (tau, "build_connection"),
    (tau, "scaling_check"),
    (tau, "basis_change_residual"),
    (tau, "dlog_tau_along"),
    (tau, "_side_engines"),
    (tau, "degeneration_rows"),
    (tau, "fit_exponent"),
    (tau, "TauConnection", "phi_periods"),
    (tau, "TauConnection", "v_periods"),
    (tau, "TauConnection", "euler_pairing"),
    (picard, "basis"),
    (picard, "verify_mumford_chain"),
    (picard, "solve_tau_relations"),
    (picard, "class_delta0"),
    (picard, "delta_inf_from_psi"),
    (picard, "hodge_prym_classes"),
    (picard, "class_dm"),
    (picard, "class_lambda2"),
    (picard, "GeneratorBasis", "phi"),
    (picard, "GeneratorBasis", "lam"),
    (picard, "GeneratorBasis", "psi_sum"),
    (picard, "DivisorClass", "__add__"),
    (picard, "DivisorClass", "__sub__"),
    (picard, "DivisorClass", "__mul__"),
    (picard, "DivisorClass", "__rmul__"),
    (picard, "DivisorClass", "__eq__"),
    (picard, "DivisorClass", "is_zero"),
    (strata, "StratumSignature", "__post_init__"),
    (strata, "kappa"),
    (strata, "principal_kappa"),
    (strata, "principal_signature"),
    (strata, "collision_kappa_shift"),
    (strata, "collision_exponents"),
    (cover_homology, "build_matrices"),
]

# quadrature entry points get dedicated wrappers (points, depth, failures)
SPINE = "quadrature.spine"
CONTOUR = "quadrature.contour"
PHI = "tau.phi"


def _layer(module):
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Span store plus counters for one traced pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.counters = Counter()
        self.kernel_sizes = Counter()
        self.reset()
        self._patches = []

    def reset(self):
        """Drop recorded spans and counts; the wrappers stay installed."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters.clear()
        self.kernel_sizes.clear()
        self.max_depth = 0

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # the clock is read first on entry and last on exit, so the span
    # also holds the tracer's own bookkeeping for it
    def begin(self, nid):
        self.start.append(time.perf_counter())
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(math.nan)
        self._stack.append(i)
        return i

    def finish(self, i):
        self._stack.pop()
        self.end[i] = time.perf_counter()

    # ----------------------------------------------------------- wrapping

    def _span(self, fn, name, before=None, on_error=None):
        nid = self.intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            i = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self.finish(i)

        return wrapper

    def _replace_function(self, module, attr, new):
        """Point module.attr, and each qdtau module's imported copy of
        the same function, at new."""
        old = getattr(module, attr)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if not name.startswith("qdtau"):
                continue
            for key, val in list(vars(mod).items()):
                if val is old and (mod is module or key == attr):
                    self._patches.append((mod, key, old))
                    setattr(mod, key, new)

    def _replace_method(self, cls, attr, new):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        c = self.counters
        for entry in BOUNDARIES:
            if len(entry) == 2:
                module, attr = entry
                if not hasattr(module, attr):
                    continue  # a later refactor removed it; counts read 0
                name = f"{_layer(module)}.{attr}"
                fn = getattr(module, attr)
                self._replace_function(module, attr,
                                       self._span(fn, name, *self._hooks(name)))
            else:
                module, cls_name, attr = entry
                cls = getattr(module, cls_name, None)
                if cls is None or attr not in cls.__dict__:
                    continue
                name = f"{_layer(module)}.{cls_name}.{attr}"
                self._replace_method(cls, attr, self._span(
                    cls.__dict__[attr], name, *self._hooks(name)))

        # contour quadrature: one span per top-level line, a counter per
        # panel (every recursive call), integrand points, bisection depth
        line = quadrature.adaptive_line
        top_depth = line.__defaults__[3]

        def panel(*args, **kwargs):
            c["quadrature.contour.panels"] += 1
            depth = args[4] if len(args) > 4 else kwargs.get("depth", top_depth)
            self.max_depth = max(self.max_depth, top_depth - depth)
            return line(*args, **kwargs)

        def count_points(args, key):
            f = args[0]

            def counted(x):
                c[key] += np.size(x)
                return f(x)

            return (counted,) + tuple(args[1:])

        def contour_before(args):
            c["quadrature.contour.lines"] += 1
            return count_points(args, "quadrature.contour.points")

        def spine_before(args):
            c["quadrature.spine.calls"] += 1
            return count_points(args, "quadrature.spine.points")

        def spine_error(exc):
            if isinstance(exc, quadrature.QuadratureError):
                c["quadrature.spine.failures"] += 1

        self._replace_function(quadrature, "adaptive_line", panel)
        self._patches.append((periods, "adaptive_line", line))
        periods.adaptive_line = self._span(panel, CONTOUR, contour_before)
        spine = quadrature.spine_integral
        self._patches.append((periods, "spine_integral", spine))
        periods.spine_integral = self._span(spine, SPINE, spine_before,
                                            spine_error)

        # phi integrand closures, one span per evaluation
        make_phi = tau.phi_fn
        phi_nid = self.intern(PHI)

        def phi_fn(*args, **kwargs):
            fn = make_phi(*args, **kwargs)

            def traced(x, sheet):
                c["tau.phi.points"] += np.size(x)
                i = self.begin(phi_nid)
                try:
                    return fn(x, sheet)
                finally:
                    self.finish(i)

            return traced

        self._replace_function(tau, "phi_fn", phi_fn)

    def _hooks(self, name):
        """(argument hook, error hook) that count calls, points and
        failures at a boundary."""
        c = self.counters
        if name in ("kernels.eval_sheet1", "kernels.eval_oncut"):
            pos = 0 if name.endswith("sheet1") else 1

            def kernel(args):
                k = np.size(args[pos])
                c["kernels.calls"] += 1
                c["kernels.points"] += k
                self.kernel_sizes[k] += 1
                return args

            return kernel, None
        if name == "bergman.BergmanEvaluator.t_coeff":
            def t_coeff(args):
                c["bergman.t_coeff.calls"] += 1
                c["bergman.t_coeff.points"] += np.size(args[1])
                return args

            return t_coeff, None
        if name == "cycles.build_cycles_robust":
            def robust_failed(exc):
                if isinstance(exc, cycles.GeometryError):
                    c["cycles.robust_failures"] += 1

            return None, robust_failed
        return None, None

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches = []

    # ------------------------------------------------------------ analysis

    def metrics(self, pass_s):
        """Per-layer metrics of the spans and counters recorded since
        the last reset; pass_s is the traced wall time they cover."""
        names = self.names
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        n = len(nid)
        has_par = par >= 0
        child = np.bincount(par[has_par], weights=dur[has_par], minlength=n)
        nchild = np.bincount(par[has_par], minlength=n)
        self_t = dur - child
        by_name_self = np.bincount(nid, weights=self_t, minlength=len(names))
        by_name_dur = np.bincount(nid, weights=dur, minlength=len(names))
        by_name_count = np.bincount(nid, minlength=len(names))
        ids = self._ids

        def self_of(prefix):
            return float(sum(by_name_self[i] for nm, i in ids.items()
                             if nm == prefix or nm.startswith(prefix + ".")))

        def total_of(name):
            return float(by_name_dur[ids[name]]) if name in ids else 0.0

        def count_of(name):
            return int(by_name_count[ids[name]]) if name in ids else 0

        def mask(name):
            return nid == ids[name] if name in ids else np.zeros(n, bool)

        c = self.counters
        loop = mask("periods.PeriodEngine.loop_period")
        cfl = mask("periods.PeriodEngine.contour_loop_period")
        fallbacks = np.zeros(n, bool)
        fallbacks[par[cfl & has_par]] = True
        sizes = sorted(self.kernel_sizes.items())
        calls = sum(k for _, k in sizes)
        acc, p50 = 0, 0
        for size, k in sizes:
            acc += k
            if 2 * acc >= calls:
                p50 = size
                break
        attempts = count_of("cycles.build_cycles")
        robust = count_of("cycles.build_cycles_robust")
        covered = float(dur[~has_par].sum())
        m = {
            "quadrature.contour.lines": (c["quadrature.contour.lines"], "count"),
            "quadrature.contour.panels": (c["quadrature.contour.panels"], "count"),
            "quadrature.contour.points": (c["quadrature.contour.points"], "count"),
            "quadrature.contour.max_depth": (self.max_depth, "count"),
            "quadrature.contour.self_s": (self_of(CONTOUR), "s"),
            "quadrature.spine.calls": (c["quadrature.spine.calls"], "count"),
            "quadrature.spine.points": (c["quadrature.spine.points"], "count"),
            "quadrature.spine.failures": (c["quadrature.spine.failures"], "count"),
            "quadrature.spine.self_s": (self_of(SPINE), "s"),
            "kernels.calls": (c["kernels.calls"], "count"),
            "kernels.points": (c["kernels.points"], "count"),
            "kernels.points_per_call_p50": (p50, "count"),
            "kernels.self_s": (self_of("kernels"), "s"),
            "curves.build_cover.self_s": (self_of("curves.build_cover"), "s"),
            "cycles.robust_calls": (robust, "count"),
            "cycles.build_attempts": (attempts, "count"),
            "cycles.accept_ratio": (
                (robust - c["cycles.robust_failures"]) / attempts
                if attempts else 0.0, "ratio"),
            "cycles.winding_s": (total_of("cycles.winding_number"), "s"),
            "cycles.self_s": (self_of("cycles"), "s"),
            "periods.engines": (count_of("periods.PeriodEngine.__init__"), "count"),
            "periods.loop_calls": (int(loop.sum()), "count"),
            "periods.loop_misses": (int((loop & (nchild > 0)).sum()), "count"),
            "periods.sigma_calibrations": (int(
                (mask("periods.PeriodEngine.sigma") & (nchild > 0)).sum()), "count"),
            "periods.contour_fallbacks": (int((loop & fallbacks).sum()), "count"),
            "periods.normalized_basis_s": (
                total_of("periods.PeriodEngine.normalized_basis"), "s"),
            "periods.self_s": (self_of("periods"), "s"),
            "bergman.evaluators": (count_of("bergman.BergmanEvaluator.__init__"), "count"),
            "bergman.correction_s": (total_of("bergman.BergmanEvaluator.correction"), "s"),
            "bergman.t_coeff.calls": (c["bergman.t_coeff.calls"], "count"),
            "bergman.t_coeff.points": (c["bergman.t_coeff.points"], "count"),
            "bergman.t_coeff.self_s": (self_of("bergman.BergmanEvaluator.t_coeff"), "s"),
            "bergman.self_s": (self_of("bergman"), "s"),
            "tau.connections": (count_of("tau.build_connection"), "count"),
            "tau.side_engines": (self._side_engines(nid, par), "count"),
            "tau.phi.points": (c["tau.phi.points"], "count"),
            "tau.phi.self_s": (self_of(PHI), "s"),
            "tau.phi_periods_s": (total_of("tau.TauConnection.phi_periods"), "s"),
            "tau.fit_s": (total_of("tau.fit_exponent"), "s"),
            "tau.self_s": (self_of("tau"), "s"),
            "picard.self_s": (self_of("picard"), "s"),
            "strata.self_s": (self_of("strata"), "s"),
            "cover_homology.self_s": (self_of("cover_homology"), "s"),
            "trace.spans": (n, "count"),
            "trace.coverage": (covered / pass_s if pass_s > 0 else 0.0, "ratio"),
        }
        return m

    def _side_engines(self, nid, par):
        """Engines built under tau._side_engines (the finite-difference
        neighbours), found by walking each engine span's ancestors."""
        if "tau._side_engines" not in self._ids or \
                "periods.PeriodEngine.__init__" not in self._ids:
            return 0
        side = self._ids["tau._side_engines"]
        total = 0
        for i in np.flatnonzero(nid == self._ids["periods.PeriodEngine.__init__"]):
            p = par[i]
            while p >= 0 and nid[p] != side:
                p = par[p]
            total += p >= 0
        return int(total)
