"""Normalized Bergman kernel on the double cover.

On a hyperelliptic curve yhat^2 = R(x), split R = P1 * P2 into factors
of equal degree.  The symmetric bidifferential

    B0(x,w) = [2 yhat(x) yhat(w) + P1(x)P2(w) + P1(w)P2(x)]
              / (4 yhat(x) yhat(w) (x-w)^2) dx dw

has biresidue 1 on the diagonal and no other poles -- the split keeps
the numerator degree low enough to stay regular over x = infinity --
but carries nonzero alpha periods.  Adding a bilinear combination of
the normalized holomorphic differentials,

    Bhat = B0 + sum_jk C[j,k] omega_j(x) omega_k(w),

kills every alpha period in w.  Modulo d(yhat(w)/(w-x)), B0 minus its
exact part dw/(2(x-w)^2) is P(x,w) dw/(4 yhat(x) yhat(w)), with
P = R[x,w,w] - dP1 dP2 (dp = (p(w) - p(x))/(w - x), R[x,w,w] = d/dw dR).
With K[a,b] P's coefficient of x^a w^b and M[b,k] the alpha_k period of
w^b dw/yhat, b <= 2g, rows a >= g of K M vanish and C = -(1/4) A^T
(K M)[:g], A = M[:g] (Fay, LNM 352; Buchstaber-Enolskii-Leykin 1997).
M is the basis w^b, converted once to the engine's frame
(`PeriodEngine.frame_poly`), times the engine's power map.

The pullback identity Bhat(P,Q) + Bhat(P, mu Q) = dx dw/(x-w)^2 holds
for any C, so everything downstream needs only the diagonal-opposite
value t(x) = coefficient of Bhat(P, mu P): the projective connections
of the two kernel splittings are 0 and -12 t(x), and that of Bhat
itself is -6 t(x), exactly.  t is evaluated in partial fractions
d = 1/(x - b) over the branch points (`BergmanEvaluator.t_from_sums`),
never through the expanded polynomials R, P1 and P2, so the tau layer
shares one broadcast of d between t and S_v.
"""

from __future__ import annotations

import copy

import numpy as np

from .cover_homology import transform_basis
from .cycles import GeometryError
from .periods import PeriodEngine


def partial_fractions(x, points):
    """d = 1/(x - b) for every b in ``points``, on a new first axis."""
    x = np.asarray(x, dtype=complex)
    return 1.0 / (x - points.reshape(points.shape + (1,) * x.ndim))


def divided_difference(p):
    """D[a, b], the coefficient of x^a w^b in (p(w) - p(x)) / (w - x),
    for p's coefficients highest degree first: that of p's z^(a+b+1)."""
    c = np.append(np.asarray(p, dtype=complex)[::-1], np.zeros(len(p)))
    return c[np.add.outer(np.arange(len(p) - 1), np.arange(1, len(p)))]


def bivariate_product(p, q):
    """Coefficients of the product of two polynomials in (x, w), each
    given as its coefficients of x^a w^b at [a, b]."""
    out = np.zeros(np.add(p.shape, q.shape) - 1, dtype=complex)
    for (a, b), c in np.ndenumerate(p):
        out[a:a + q.shape[0], b:b + q.shape[1]] += c * q
    return out


def fraction_sums(d, rows):
    """(L, L') over the given rows of the partial fractions d: L = sum
    of d, the logarithmic derivative of prod(x - b) over those branch
    points, and L' = -sum of d^2, its derivative."""
    d = d[rows]
    return d.sum(axis=0), -(d * d).sum(axis=0)


class BergmanEvaluator:
    def __init__(self, engine: PeriodEngine, alpha_mat=None, beta_mat=None):
        self.pe = engine
        self.curve = engine.curve
        self.ev = engine.ev
        g = self.curve.genus
        if g < 1:
            raise ValueError("the kernel correction needs positive genus")
        self._basis(alpha_mat, beta_mat)
        # balanced split R = P1 * P2; it and K depend on the branch
        # points only, so a transformed evaluator shares them
        self.branch_points = np.array(self.curve.branch_points, dtype=complex)
        pts = self.branch_points
        order = sorted(range(len(pts)), key=lambda i: (pts[i].real, pts[i].imag))
        self.p1_rows, self.p2_rows = np.array(order[0::2]), np.array(order[1::2])
        self._p1 = np.poly(pts[self.p1_rows])
        self._p2 = np.poly(pts[self.p2_rows])
        self._K = None

    def _basis(self, alpha_mat, beta_mat):
        """Take the cycle basis: its normalized basis and period matrix,
        with the correction still to compute."""
        self.N, self.omega = self.pe.normalized_basis(alpha_mat, beta_mat)
        self.alpha_mat = (self.pe.cycles.alpha_mat if alpha_mat is None
                          else alpha_mat)
        self._C = None
        self._quad = None
        self.correction_defect = None

    # values of the alpha-normalized holomorphic numerators Q_j(x),
    # with omega_j = Q_j(x) dx / yhat
    def q_values(self, x):
        x = np.asarray(x, dtype=complex)
        g = self.curve.genus
        powers = np.stack([x**m for m in range(g)], axis=-1)
        return powers @ self.N.T

    def _h(self, x, w):
        """Split-polynomial numerator H(x,w); H(w,w) = 2R(w)."""
        return np.polyval(self._p1, x) * np.polyval(self._p2, w) + np.polyval(
            self._p1, w
        ) * np.polyval(self._p2, x)

    def alpha_moments(self):
        """M[b, k], the alpha_k period of w^b dw/yhat for b <= 2g (rows
        b < g: the holomorphic basis)."""
        powers = np.eye(2 * self.curve.genus + 1)[::-1]
        return (self.pe.loop_periods(self.pe.frame_poly(powers))
                @ self.alpha_mat.T)

    def kernel_coefficients(self):
        """K[a, b], P's coefficient of x^a w^b (module docstring), built
        once."""
        if self._K is None:
            rdd = divided_difference(np.polymul(self._p1, self._p2))
            self._K = (rdd[:-1, 1:] * np.arange(1, rdd.shape[1])
                       - bivariate_product(divided_difference(self._p1),
                                           divided_difference(self._p2)))
        return self._K

    def correction(self):
        """The symmetric coefficient matrix C that kills every alpha
        period of Bhat in its second argument, in closed form (module
        docstring)."""
        if self._C is not None:
            return self._C
        g = self.curve.genus
        m = self.alpha_moments()
        c = -0.25 * m[:g].T @ (self.kernel_coefficients()[:g] @ m)
        defect = np.max(np.abs(c - c.T)) / max(np.max(np.abs(c)), 1e-30)
        if defect > 1e-6:
            raise GeometryError(f"correction matrix asymmetry {defect:.2e}")
        self.correction_defect = defect
        self._C = 0.5 * (c + c.T)
        # q^T C q = p^T (N^T C N) p over the powers p = (1, x, ...) as
        # one polynomial, highest degree first
        m = (self.N.T @ self._C @ self.N)[:, ::-1]
        self._quad = np.array([np.trace(m, k) for k in range(1 - g, g)])
        return self._C

    # kernel coefficients in the plane chart; sheets are +-1
    def b0_coeff(self, x, sx, w, sw):
        x = np.asarray(x, dtype=complex)
        w = np.asarray(w, dtype=complex)
        yx = self.ev.y(x, sx)
        yw = self.ev.y(w, sw)
        return 0.5 / (x - w) ** 2 + self._h(x, w) / (4.0 * yx * yw * (x - w) ** 2)

    def bhat_coeff(self, x, sx, w, sw):
        c = self.correction()
        yx = self.ev.y(np.asarray(x, dtype=complex), sx)
        yw = self.ev.y(np.asarray(w, dtype=complex), sw)
        qx = self.q_values(x) / np.asarray(yx)[..., None]
        qw = self.q_values(w) / np.asarray(yw)[..., None]
        corr = np.einsum("...j,jk,...k->...", qx, c, qw)
        return self.b0_coeff(x, sx, w, sw) + corr

    def alpha_residual(self, x0, k):
        """alpha_k integral of Bhat(x0, .), zero up to quadrature error
        when C is right.  The non-exact part of B0 is integrated as it
        stands along the alpha_k loops' stadium contours, so this checks
        the closed form of C independently; it has no residue at
        w = x0, so x0 only has to stay off the contours."""
        y0 = self.ev.y(x0)
        base = sum(int(c) * self.pe.contour_loop_period(
            lambda w, s: self._h(x0, w) / (4.0 * y0 * self.ev.y(w, s)
                                           * (x0 - w) ** 2), i)
            for i, c in enumerate(self.alpha_mat[k]) if c)
        # alpha_k period of omega_j is delta_jk for the normalized basis
        return base + complex(self.q_values(x0) / y0 @ self.correction()[:, k])

    # diagonal-opposite coefficient; the projective connections are
    # multiples of it (module docstring)
    def t_from_sums(self, x, sums, inv_r):
        """t(x) from the partial fractions of R = P1 P2: with
        sums = ((L, L'), (L1, L1'), (L2, L2')) the fraction_sums of R,
        P1 and P2 (all rows, p1_rows, p2_rows) and inv_r = 1/R,

            t = L^2/16 + L'/8 - (L1^2 + L1' + L2^2 + L2')/8 - q^T C q / R,

        which is -R'^2/(16 R^2) + R''/(8R) - (P1 P2'' + P1'' P2)/(8R)
        - q^T C q / R without expanding R, P1 or P2."""
        self.correction()
        (L, Lp), (L1, L1p), (L2, L2p) = sums
        return (L * L / 16.0 + Lp / 8.0
                - (L1 * L1 + L1p + L2 * L2 + L2p) / 8.0
                - np.polyval(self._quad, x) * inv_r)

    def t_coeff(self, x):
        d = partial_fractions(x, self.branch_points)
        sums = [fraction_sums(d, rows)
                for rows in (slice(None), self.p1_rows, self.p2_rows)]
        return self.t_from_sums(x, sums, np.prod(d, axis=0))

    def transformed(self, sigma):
        """Evaluator for the symplectically transformed cycle basis
        (sigma acts as alpha' = D alpha + C beta, beta' = B alpha +
        A beta); reuses the engine's power map, and this evaluator's
        split and K."""
        am2, bm2 = transform_basis(sigma, self.alpha_mat,
                                   self.pe.cycles.beta_mat)
        self.kernel_coefficients()
        moved = copy.copy(self)
        moved._basis(am2, bm2)
        return moved
