"""Quadrature rules for period integrals.

Two regimes:

- integrals along a branch-cut spine, with inverse-square-root or
  square-root endpoint behavior: Gauss-Jacobi rules with half-integer
  exponents, which have closed-form Chebyshev-type nodes and weights
  (no root-finding), each sized before anything is evaluated from a
  bound on the integrand over Bernstein ellipses (`chebyshev_bounds`),
  up to 2,440 points.  Many rules go to the integrand in one call
  (`spine_integral`), and the integrand returns each rule's sums
  itself, so it can form them as products (`jacobi_moments`) instead
  of tabulating values to sum;
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

from functools import lru_cache

import numpy as np

# the spine rule sizes, each about 1.618 times the last.  The sizes
# above 576 serve spines crowded by a pinching pair
SPINE_SIZES = (12, 20, 32, 52, 84, 136, 220, 356, 576, 932, 1508, 2440)

# contour panels per integrand call: 64 panels of 24 + 48 nodes are
# 4,608 points, past which numpy's per-point cost no longer falls while
# the arrays of a whole bisection level would keep growing
PANELS_PER_CALL = 64


class QuadratureError(RuntimeError):
    """Raised when a contour panel does not converge.

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


@lru_cache(maxsize=None)
def jacobi_moments(n: int, alpha: float, beta: float, rows: int):
    """(rows, n): the n-point rule's weight times t^j at each node, for
    j < rows, so that this matrix times values g(t) is the rule's sums
    of t^j g(t)."""
    t, w = jacobi_rule(n, alpha, beta)
    return w * np.vander(t, rows, True).T


def chebyshev_bounds(log_m, log_r):
    """(..., len(SPINE_SIZES)): for each size n, the least over the last
    axis of 2 M / (r^(2n) - 1), where log_m and log_r hold log M and
    log r along that axis.  For g analytic inside the Bernstein ellipse
    of parameter r with |g| <= M on it, g's Chebyshev coefficients obey
    |a_k| <= 2 M r^(-k) (Trefethen, Approximation Theory and
    Approximation Practice, Theorem 8.1).  The n-point Gauss-Chebyshev
    rule integrates T_k against 1/sqrt(1 - t^2) exactly for k < 2n and
    sums T_2nm to pi (-1)^m, so it errs by at most
    2 pi M / (r^(2n) - 1): pi times this bound."""
    n = np.array(SPINE_SIZES, dtype=float)[:, None]
    y = 2.0 * n * log_r[..., None, :]
    # log(r^(2n) - 1), with no overflow at large n log r
    log_b = log_m[..., None, :] - y - np.log(-np.expm1(-y))
    return 2.0 * np.exp(log_b.min(axis=-1))


# the nodes a spine integrand receives: each node with its rule weight
# and the index of the rule it belongs to
RULE_NODES = np.dtype([("t", float), ("w", float), ("rule", np.intp)])


def spine_integral(g, alpha: float, beta: float, sizes):
    """Gauss-Jacobi sums for integrals over [-1,1] of
    (1-t)^alpha (1+t)^beta g_k(t) dt, one rule per entry of ``sizes``,
    all in one call of ``g``.

    ``g`` receives every rule's nodes in one RULE_NODES array (node
    ``t``, rule weight ``w``, index ``rule`` into ``sizes``; each rule's
    nodes in one run, in order) and returns its sums, one per rule in
    rule order: the sum over the run of w times the rule's values, a
    complex number or array of any shape.  A rule's sums come from its
    own run alone, so they do not depend on which rules share the call.
    The caller picks each size (`chebyshev_bounds`); the value of
    ``g``'s call is returned as it is.
    """
    rules = [jacobi_rule(n, alpha, beta) for n in sizes]
    nodes = np.empty(sum(len(t) for t, _ in rules), RULE_NODES)
    nodes["t"] = np.concatenate([t for t, _ in rules])
    nodes["w"] = np.concatenate([w for _, w in rules])
    nodes["rule"] = np.repeat(np.arange(len(rules)), [len(t) for t, _ in rules])
    return g(nodes)


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
