"""Genus-zero quadratic differentials and their double covers.

A configuration is q = c * prod(x - z_i) / prod(x - p_j) dx^2 on the
sphere with n simple poles p_j and n-4 simple zeros z_i (the point at
infinity is automatically regular of degree -4).  The canonical double
cover is the hyperelliptic curve yhat^2 = prod(x - z_i) * prod(x - p_j)
of genus n-3, on which v = sqrt(c) * yhat dx / prod(x - p_j) is a
single-valued abelian differential with v^2 = q.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import kernels


def _as_complex_tuple(points):
    return tuple(complex(p) for p in points)


@dataclass(frozen=True)
class QDConfigG0:
    zeros: tuple
    poles: tuple
    scale: complex = 1.0 + 0j
    tolerance: float = 1e-10
    # optional explicit cut pairing: index pairs into branch_points()
    pairing: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "zeros", _as_complex_tuple(self.zeros))
        object.__setattr__(self, "poles", _as_complex_tuple(self.poles))
        object.__setattr__(self, "scale", complex(self.scale))
        n = len(self.poles)
        if n < 5:
            raise ValueError("need at least five simple poles")
        if len(self.zeros) != n - 4:
            raise ValueError(
                f"got {len(self.zeros)} zeros for {n} poles; need n-4"
            )
        if self.scale == 0:
            raise ValueError("scale must be nonzero")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be positive and finite")
        pts = self.zeros + self.poles
        if not all(map(cmath.isfinite, pts)):
            raise ValueError("all points must be finite")
        if len(set(pts)) < len(pts):
            i, j = next((i, j) for i in range(len(pts))
                        for j in range(i + 1, len(pts)) if pts[i] == pts[j])
            raise ValueError(f"coincident points at index {i}, {j}: not a "
                             "principal-stratum configuration")
        if self.pairing is not None:
            idx = sorted(i for pair in self.pairing for i in pair)
            if (idx != list(range(len(pts)))
                    or any(len(pair) != 2 for pair in self.pairing)):
                raise ValueError("pairing must partition the branch points "
                                 "into pairs")

    @property
    def n(self) -> int:
        return len(self.poles)

    def branch_points(self):
        return self.zeros + self.poles


@dataclass(frozen=True)
class CoverCurve:
    branch_points: tuple
    genus: int
    rhs_coeffs: np.ndarray  # monic, highest degree first
    config: QDConfigG0 = None

    def rhs(self, x):
        return np.polyval(self.rhs_coeffs, x)


def build_cover(cfg: QDConfigG0) -> CoverCurve:
    """Double cover yhat^2 = prod over all zeros and poles of (x - b)."""
    pts = cfg.branch_points()
    rhs = np.poly(np.array(pts, dtype=complex))
    curve = CoverCurve(
        branch_points=tuple(pts),
        genus=cfg.n - 3,
        rhs_coeffs=rhs,
        config=cfg,
    )
    # v^2 = q as rational functions: c*R/m^2 = c*prod(x-z)/m requires
    # R = prod(x-z) * m identically
    zero_poly = np.poly(np.array(cfg.zeros, dtype=complex)) if cfg.zeros else np.array([1.0 + 0j])
    pole_poly = np.poly(np.array(cfg.poles, dtype=complex))
    prod = np.polymul(zero_poly, pole_poly)
    scale_ref = max(np.max(np.abs(prod)), 1.0)
    if np.max(np.abs(prod - rhs)) > 1e-12 * scale_ref:
        raise AssertionError("cover equation failed the v^2 = q identity")
    return curve


def hyperelliptic_model(branch_points) -> CoverCurve:
    """Bare hyperelliptic curve for test models: yhat^2 = prod(x - b)
    over an even number of distinct branch points, none at infinity."""
    pts = _as_complex_tuple(branch_points)
    if len(set(pts)) != len(pts):
        raise ValueError("branch points must be distinct")
    if len(pts) % 2:
        raise ValueError("need an even number of branch points")
    return CoverCurve(
        branch_points=pts,
        genus=len(pts) // 2 - 1,
        rhs_coeffs=np.poly(np.array(pts, dtype=complex)),
        config=None,
    )


class SheetedEval:
    """Single-valued branch of yhat for a fixed system of cuts.

    Sheet 1 is the branch that behaves like +x^(deg/2) far to the
    right; sheet -1 is its negative.  Cuts are stored as midpoints and
    half-vectors.
    """

    def __init__(self, branch_points, pairs):
        pts = np.asarray(branch_points, dtype=complex)
        self.branch_points = pts
        self.pairs = tuple((int(i), int(j)) for i, j in pairs)
        self.mids = np.array(
            [(pts[i] + pts[j]) / 2.0 for i, j in self.pairs], dtype=complex
        )
        self.halves = np.array(
            [(pts[j] - pts[i]) / 2.0 for i, j in self.pairs], dtype=complex
        )

    def y(self, x, sheet=1):
        return sheet * kernels.eval_sheet1(x, self.mids, self.halves)

    def y_oncut(self, k, t, side):
        """Boundary value on cut k at x = mid + t*half from the given
        side (+1 = the side the left normal i*half points into)."""
        return kernels.eval_oncut(k, t, side, self.mids, self.halves)
