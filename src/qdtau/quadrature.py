"""Quadrature rules for period integrals.

Two regimes:

- integrals along a branch-cut spine, with inverse-square-root or
  square-root endpoint behavior: Gauss-Jacobi rules with half-integer
  exponents, which have closed-form Chebyshev-type nodes and weights
  (no root-finding), escalated until two consecutive sizes agree (for
  every component of a stacked integrand), from the rung the spine's
  Bernstein parameter predicts (`first_rung`), up to 2,440 points.
  Many ladders can climb in lockstep, each from its own rung and by its
  own test, so one integrand call per step serves all of them; the
  integrand returns each ladder's rule sums itself, so it can form them
  as products (`jacobi_moments`) instead of tabulating values to sum;
- integrals along contour pieces staying away from all singularities:
  24- and 48-point Gauss-Legendre panels compared on each panel and
  bisected where they disagree.  The panel tree is grown breadth-first:
  every open panel of a bisection level goes to the integrand in the
  same few calls (at most PANELS_PER_CALL panels each), as in scipy's
  quad_vec, so the cost per integrand point is numpy's, not the Python
  overhead of one call per panel.  An integrand may return several
  stacked components (a (k, npts) array); each is accepted by its own
  rule and they share one panel tree, so k integrals of the same
  expensive quantities cost one evaluation per node.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# escalation ladder for the spine rules, each size about 1.618 times
# the last.  The rungs above 576 serve spines crowded by a pinching
# pair: at the engine's 1e-11 they settle every loop of the collision
# families' rows down to rho = 1.0166, and not those at rho <= 1.0142
SPINE_SIZES = (12, 20, 32, 52, 84, 136, 220, 356, 576, 932, 1508, 2440)

# contour panels per integrand call: 64 panels of 24 + 48 nodes are
# 4,608 points, past which numpy's per-point cost no longer falls while
# the arrays of a whole bisection level would keep growing
PANELS_PER_CALL = 64


class QuadratureError(RuntimeError):
    """Raised when the escalation ladder ends without convergence.

    ``achieved`` carries the last defect estimate.
    """

    def __init__(self, message, achieved):
        super().__init__(f"{message} (achieved {achieved:.3e})")
        self.achieved = achieved


@lru_cache(maxsize=None)
def jacobi_rule(n: int, alpha: float, beta: float):
    """Nodes/weights for integral of (1-t)^alpha (1+t)^beta g(t) on [-1,1].

    Only the four Chebyshev-family exponent pairs are supported; they
    cover every endpoint behavior produced by square roots of
    polynomials and simple poles at cut ends.
    """
    key = (float(alpha), float(beta))
    k = np.arange(1, n + 1)
    if key == (-0.5, -0.5):
        th = (2 * k - 1) * np.pi / (2 * n)
        return np.cos(th), np.full(n, np.pi / n)
    if key == (0.5, 0.5):
        th = k * np.pi / (n + 1)
        return np.cos(th), (np.pi / (n + 1)) * np.sin(th) ** 2
    if key == (-0.5, 0.5):
        th = (2 * k - 1) * np.pi / (2 * n + 1)
        x = np.cos(th)
        return x, (2 * np.pi / (2 * n + 1)) * (1 + x)
    if key == (0.5, -0.5):
        th = 2 * k * np.pi / (2 * n + 1)
        x = np.cos(th)
        return x, (2 * np.pi / (2 * n + 1)) * (1 - x)
    raise ValueError(f"unsupported Jacobi exponents {key}")


def first_rung(rho, tol: float):
    """Index of the SPINE_SIZES rung a ladder starts from: the one
    before the first size n with rho^(-2n) <= tol, since an n-point rule
    errs like rho^(-2n) on a spine whose integrand is analytic inside
    the Bernstein ellipse of parameter rho; the top two rungs when no
    size meets tol.  rho (>= 1) may be an array, one rung per entry;
    every size is tested at once against its least fitting rho
    (`_fitting_rhos`)."""
    fits = np.asarray(rho)[..., None] >= _fitting_rhos(tol)
    k = np.where(fits.any(axis=-1), np.maximum(fits.argmax(axis=-1) - 1, 0),
                 len(SPINE_SIZES) - 2)
    return int(k) if k.ndim == 0 else k


@lru_cache(maxsize=None)
def _fitting_rhos(tol):
    """Per SPINE_SIZES size n, the least float rho with
    rho ** (-2n) <= tol in Python's pow, from tol^(-1/2n) by single
    steps.  Past 1, the next float moves rho^(-2n) by at least 12 of
    its units in the last place, so pow falls strictly and a rho fits
    exactly when it is at least this one."""
    out = []
    for n in SPINE_SIZES:
        r = tol ** (-0.5 / n)
        while r ** (-2.0 * n) <= tol:
            r = math.nextafter(r, 0.0)
        while r ** (-2.0 * n) > tol:
            r = math.nextafter(r, math.inf)
        out.append(r)
    return np.array(out)


@lru_cache(maxsize=None)
def jacobi_moments(n: int, alpha: float, beta: float, rows: int):
    """(rows, n): the n-point rule's weight times t^j at each node, for
    j < rows, so that this matrix times values g(t) is the rule's sums
    of t^j g(t)."""
    t, w = jacobi_rule(n, alpha, beta)
    return w * np.vander(t, rows, True).T


# the nodes a lockstep ladder hands its integrand: each node with its
# rule weight and the index of the ladder it belongs to
LADDER_NODES = np.dtype([("t", float), ("w", float), ("ladder", np.intp)])


def spine_integral(g, alpha: float, beta: float, tol: float = 1e-12,
                   start=0):
    """Escalating Gauss-Jacobi evaluation of
    integral over [-1,1] of (1-t)^alpha (1+t)^beta g(t) dt.

    ``g`` receives a float array of interior nodes and must return
    complex values (or a (k, npts) stack, whose k integrals come back
    as an array); it is smooth whenever the caller extracted the
    endpoint behavior correctly.  The ladder climbs SPINE_SIZES from
    index ``start``, so a ladder that would have settled at rung
    start + 1 or above returns the full ladder's value bit for bit.
    Returns (value, defect-estimate).

    ``start`` may instead be a sequence of first rungs, one per ladder.
    The ladders then climb in lockstep, each from its own rung and by
    its own acceptance test: every step hands ``g`` the nodes of every
    ladder still climbing, each at its own rung, in one LADDER_NODES
    array (node ``t``, rule weight ``w``, index ``ladder``; each
    ladder's nodes in one run), and ``g`` returns one rule sum per run,
    in run order: the sum over the run of w times the ladder's values,
    a complex number or array of any shape the ladder keeps.  Computed
    from its own run alone, a ladder's sums, and so its value, do not
    depend on which ladders share its steps.  Returns (values, defects,
    rungs): per ladder its value, the defect of its last comparison and
    the index of the rung it settled on; a ladder that ends without
    settling reads None and rung -1, and raises nothing.  A plain ``g``
    is the one-ladder case whose rule sum is np.sum(w * g(t), axis=-1),
    g's values taken as complex.
    """
    if np.ndim(start) == 0:
        def sums(nodes):
            vals = np.asarray(g(np.ascontiguousarray(nodes["t"])),
                              dtype=complex)
            return [np.sum(nodes["w"] * vals, axis=-1)]

        values, defects, _ = spine_integral(sums, alpha, beta, tol, [start])
        if values[0] is None:
            raise QuadratureError("spine quadrature did not converge",
                                  defects[0])
        val = values[0]
        return (complex(val) if val.ndim == 0 else val), float(defects[0])
    starts = list(start)
    values = [None] * len(starts)
    defects = [np.inf] * len(starts)
    rungs = [-1] * len(starts)
    prev = [None] * len(starts)
    climbing = [i for i, r in enumerate(starts) if r < len(SPINE_SIZES)]
    step = 0
    while climbing:
        rule = [starts[i] + step for i in climbing]
        rules = [jacobi_rule(SPINE_SIZES[r], alpha, beta) for r in rule]
        nodes = np.empty(sum(len(t) for t, _ in rules), LADDER_NODES)
        nodes["t"] = np.concatenate([t for t, _ in rules])
        nodes["w"] = np.concatenate([w for _, w in rules])
        nodes["ladder"] = np.repeat(climbing, [len(t) for t, _ in rules])
        still = []
        for i, r, val in zip(climbing, rule, g(nodes)):
            val = np.asarray(val, dtype=complex)
            if prev[i] is not None:
                defect = np.abs(val - prev[i])
                defects[i] = float(defect.max())
                if (defect <= tol * np.maximum(1.0, np.abs(val))).all():
                    values[i], rungs[i] = val, r
                    continue
            if r + 1 < len(SPINE_SIZES):
                prev[i] = val
                still.append(i)
        climbing = still
        step += 1
    return values, np.array(defects), np.array(rungs)


@lru_cache(maxsize=None)
def legendre_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panels(f, lo, hi):
    """Coarse (24-point) and fine (48-point) Gauss-Legendre values and
    the fine rule's L1 mass on each panel [lo[i], hi[i]], evaluating f
    on both rules of at most PANELS_PER_CALL panels per call.  The
    panel axis is last, after any component axes of f's values."""
    x24, w24 = legendre_rule(24)
    x48, w48 = legendre_rule(48)
    nodes = np.concatenate([x24, x48])
    coarse, fine, mass = [], [], []
    for k in range(0, len(lo), PANELS_PER_CALL):
        a, b = lo[k:k + PANELS_PER_CALL], hi[k:k + PANELS_PER_CALL]
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        x = mid[:, None] + half[:, None] * nodes
        vals = np.asarray(f(x.ravel()), dtype=complex)
        vals = vals.reshape(vals.shape[:-1] + x.shape)
        coarse.append(half * np.sum(w24 * vals[..., :24], axis=-1))
        fine.append(half * np.sum(w48 * vals[..., 24:], axis=-1))
        mass.append(np.abs(half) * np.sum(np.abs(w48) * np.abs(vals[..., 24:]),
                                          axis=-1))
    return (np.concatenate(coarse, axis=-1), np.concatenate(fine, axis=-1),
            np.concatenate(mass, axis=-1))


def adaptive_line(f, a: float = 0.0, b: float = 1.0, tol: float = 1e-11,
                  depth: int = 32):
    """Adaptive Gauss-Legendre integral of f over the real parameter
    interval [a, b]; f takes a float array of npts parameters and
    returns npts complex values, or a stacked (k, npts) array of k
    integrands, whose k integrals come back as an array.

    A panel is accepted when its 24- and 48-point values agree to the
    level's tolerance, and bisected otherwise; the tolerance tightens
    by 1.9 per level, but acceptance is floored at roundoff relative to
    the integrand's L1 mass (both the local panel's and the top-level
    one's): once two rules agree to machine precision for values of
    that size, splitting further cannot help.  A stacked integrand
    applies this rule to each component with its own mass floors, and
    a panel closes only when every component accepts it, so each
    component's panel tree contains the one it would get alone.  A
    panel still open after ``depth`` bisections raises QuadratureError.

    The panel tree is walked breadth-first, so each level costs a few
    integrand calls instead of one per panel.  The accepted values are
    summed back up the tree in the order a depth-first recursion would
    add them, so results match the depth-first reference kept in the
    tests bit for bit."""
    lo = np.array([a], dtype=float)
    hi = np.array([b], dtype=float)
    levels = []
    for level in range(depth + 1):
        coarse, fine, mass = _panels(f, lo, hi)
        if level == 0:
            floor = 1e-13 * mass[..., :1]
        err = np.abs(fine - coarse)
        ok = err <= np.maximum(np.fmax(tol, floor), 1e-13 * mass)
        done = ok.reshape(-1, ok.shape[-1]).all(axis=0)
        levels.append((done, fine))
        if done.all():
            break
        if level == depth:
            raise QuadratureError("contour panel did not converge",
                                  float(err[~ok][0]))
        s0, s1 = lo[~done], hi[~done]
        mid = (s0 + s1) / 2.0
        lo = np.stack([s0, mid], axis=1).ravel()
        hi = np.stack([mid, s1], axis=1).ravel()
        tol = tol / 1.9
    # children of the bisected panels of a level are consecutive pairs
    # of the next level, in position order
    total = levels[-1][1]
    for done, fine in reversed(levels[:-1]):
        fine[..., ~done] = total[..., 0::2] + total[..., 1::2]
        total = fine
    total = total[..., 0]
    return complex(total) if total.ndim == 0 else total
