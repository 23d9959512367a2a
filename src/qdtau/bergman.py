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

kills every alpha period in w.  C is solved at probe points; the
required alpha integrals of B0 reduce, after dropping the exact part
dw/(2(x-w)^2), to loop periods of a differential that changes sign
under the involution in w.

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

import numpy as np

from .cover_homology import transform_basis
from .cycles import GeometryError
from .periods import Differential, PeriodEngine


def partial_fractions(x, points):
    """d = 1/(x - b) for every b in ``points``, on a new first axis."""
    x = np.asarray(x, dtype=complex)
    return 1.0 / (x - points.reshape(points.shape + (1,) * x.ndim))


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
        self.N, self.omega = engine.normalized_basis(alpha_mat, beta_mat)
        self.alpha_mat = engine.cycles.alpha_mat if alpha_mat is None else alpha_mat
        # balanced split R = P1 * P2
        self.branch_points = np.array(self.curve.branch_points, dtype=complex)
        pts = self.branch_points
        order = sorted(range(len(pts)), key=lambda i: (pts[i].real, pts[i].imag))
        self.p1_rows, self.p2_rows = np.array(order[0::2]), np.array(order[1::2])
        self._p1 = np.poly(pts[self.p1_rows])
        self._p2 = np.poly(pts[self.p2_rows])
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

    def _probes(self, offset):
        pts = np.array(self.curve.branch_points)
        center = pts.mean()
        rad = 1.5 * max(abs(pts - center).max(), 1e-6)
        g = self.curve.genus
        ang = 2 * np.pi * np.arange(g) / g + offset
        return center + rad * np.exp(1j * ang)

    def _alpha_integrals(self, probes):
        """Matrix of alpha_k integrals (in w) of the non-exact part of
        B0(x0, w), one row per probe x0, from one differential stacked
        over the probes."""
        x0 = np.asarray(probes, dtype=complex)[:, None]
        y0 = self.ev.y(x0)

        def fn(w):
            return self._h(x0, w) / (4.0 * y0 * (x0 - w) ** 2)

        diff = Differential(("bergR", tuple(x0.ravel().tolist())), fn)
        return np.array([self.pe.combo_period(diff, row)
                         for row in self.alpha_mat]).T

    def correction(self):
        """The symmetric coefficient matrix C, solved so that every
        alpha period of Bhat in its second argument vanishes."""
        if self._C is not None:
            return self._C
        offset = 0.37
        for attempt in range(4):
            probes = self._probes(offset)
            u = self.q_values(probes) / self.ev.y(probes)[:, None]
            if np.linalg.cond(u) < 1e8:
                break
            offset += 0.21
        else:
            raise GeometryError("probe matrix ill-conditioned")
        rint = self._alpha_integrals(probes)
        c = np.linalg.solve(u, -rint)
        scale = max(np.max(np.abs(c)), 1e-30)
        self.correction_defect = np.max(np.abs(c - c.T)) / scale
        if self.correction_defect > 1e-6:
            raise GeometryError(
                f"correction matrix asymmetry {self.correction_defect:.2e}"
            )
        self._C = 0.5 * (c + c.T)
        # q^T C q = p^T (N^T C N) p over the powers p = (1, x, ...) as
        # one polynomial, highest degree first
        m = self.N.T @ self._C @ self.N
        g = m.shape[0]
        quad = np.zeros(2 * g - 1, dtype=complex)
        for i in range(g):
            quad[i:i + g] += m[i]
        self._quad = quad[::-1]
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
        """alpha_k integral of Bhat(x0, .) for an off-probe x0; zero up
        to quadrature error when C is right."""
        base = self._alpha_integrals([x0])[0, k]
        c = self.correction()
        qx = self.q_values(x0) / self.ev.y(x0)
        # alpha_k period of omega_j is delta_jk for the normalized basis
        return base + complex(qx @ c[:, k])

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
        A beta); reuses the engine's cached loop periods."""
        am2, bm2 = transform_basis(sigma, self.alpha_mat,
                                   self.pe.cycles.beta_mat)
        return BergmanEvaluator(self.pe, alpha_mat=am2, beta_mat=bm2)
