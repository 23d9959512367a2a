"""Quadrature rules for period integrals.

Two regimes:

- integrals along a branch-cut spine, with inverse-square-root or
  square-root endpoint behavior: Gauss-Jacobi rules with half-integer
  exponents, which have closed-form Chebyshev-type nodes and weights
  (no root-finding), escalated until two consecutive sizes agree;
- integrals along contour pieces staying away from all singularities:
  24- and 48-point Gauss-Legendre panels compared on each panel and
  bisected where they disagree.  The panel tree is grown breadth-first:
  every open panel of a bisection level goes to the integrand in the
  same few calls (at most PANELS_PER_CALL panels each), as in scipy's
  quad_vec, so the cost per integrand point is numpy's, not the Python
  overhead of one call per panel.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# escalation ladder for the spine rules
SPINE_SIZES = (12, 20, 32, 52, 84, 136, 220, 356, 576)

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


def spine_integral(g, alpha: float, beta: float, tol: float = 1e-12):
    """Escalating Gauss-Jacobi evaluation of
    integral over [-1,1] of (1-t)^alpha (1+t)^beta g(t) dt.

    ``g`` receives a float array of interior nodes and must return
    complex values; it is smooth whenever the caller extracted the
    endpoint behavior correctly.  Returns (value, defect-estimate).
    """
    prev = None
    last_defect = np.inf
    for n in SPINE_SIZES:
        t, w = jacobi_rule(n, alpha, beta)
        val = complex(np.sum(w * np.asarray(g(t), dtype=complex)))
        if prev is not None:
            last_defect = abs(val - prev)
            if last_defect <= tol * max(1.0, abs(val)):
                return val, last_defect
        prev = val
    raise QuadratureError("spine quadrature did not converge", last_defect)


@lru_cache(maxsize=None)
def legendre_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panels(f, lo, hi):
    """Coarse (24-point) and fine (48-point) Gauss-Legendre values and
    the fine rule's L1 mass on each panel [lo[i], hi[i]], evaluating f
    on both rules of at most PANELS_PER_CALL panels per call."""
    x24, w24 = legendre_rule(24)
    x48, w48 = legendre_rule(48)
    nodes = np.concatenate([x24, x48])
    coarse, fine, mass = [], [], []
    for k in range(0, len(lo), PANELS_PER_CALL):
        a, b = lo[k:k + PANELS_PER_CALL], hi[k:k + PANELS_PER_CALL]
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        x = mid[:, None] + half[:, None] * nodes
        vals = np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)
        coarse.append(half * np.sum(w24 * vals[:, :24], axis=1))
        fine.append(half * np.sum(w48 * vals[:, 24:], axis=1))
        mass.append(np.abs(half) * np.sum(np.abs(w48) * np.abs(vals[:, 24:]),
                                          axis=1))
    return np.concatenate(coarse), np.concatenate(fine), np.concatenate(mass)


def adaptive_line(f, a: float = 0.0, b: float = 1.0, tol: float = 1e-11,
                  depth: int = 32):
    """Adaptive Gauss-Legendre integral of f over the real parameter
    interval [a, b]; f takes a float array, returns complex values.

    A panel is accepted when its 24- and 48-point values agree to the
    level's tolerance, and bisected otherwise; the tolerance tightens
    by 1.9 per level, but acceptance is floored at roundoff relative to
    the integrand's L1 mass (both the local panel's and the top-level
    one's): once two rules agree to machine precision for values of
    that size, splitting further cannot help.  A panel still open after
    ``depth`` bisections raises QuadratureError.

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
            floor = 1e-13 * mass[0]
        err = np.abs(fine - coarse)
        ok = err <= np.maximum(max(tol, floor), 1e-13 * mass)
        levels.append((ok, fine))
        if ok.all():
            break
        if level == depth:
            raise QuadratureError("contour panel did not converge",
                                  float(err[~ok][0]))
        s0, s1 = lo[~ok], hi[~ok]
        mid = (s0 + s1) / 2.0
        lo = np.stack([s0, mid], axis=1).ravel()
        hi = np.stack([mid, s1], axis=1).ravel()
        tol = tol / 1.9
    # children of the bisected panels of a level are consecutive pairs
    # of the next level, in position order
    total = levels[-1][1]
    for ok, fine in reversed(levels[:-1]):
        fine[~ok] = total[0::2] + total[1::2]
        total = fine
    return complex(total[0])
