"""Normalized Bergman kernel on the double cover.

On a hyperelliptic curve yhat^2 = R(x), split R = P1 * P2 into factors
of (near-)equal degree.  The symmetric bidifferential

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
itself is -6 t(x), exactly.
"""

from __future__ import annotations

import numpy as np

from .cover_homology import blocks, transform_basis
from .cycles import GeometryError
from .periods import Differential, PeriodEngine


class BergmanEvaluator:
    def __init__(self, engine: PeriodEngine, alpha_mat=None, beta_mat=None,
                 probe_offset: float = 0.37):
        self.pe = engine
        self.curve = engine.curve
        self.ev = engine.ev
        g = self.curve.genus
        if g < 1:
            raise ValueError("the kernel correction needs positive genus")
        self.N, self.omega = engine.normalized_basis(alpha_mat, beta_mat)
        self.alpha_mat = engine.cycles.alpha_mat if alpha_mat is None else alpha_mat
        # balanced split R = P1 * P2; for an odd count P1 takes the
        # extra factor
        pts = sorted(self.curve.branch_points, key=lambda b: (b.real, b.imag))
        self._p1 = np.poly(np.array(pts[0::2], dtype=complex))
        self._p2 = np.poly(np.array(pts[1::2], dtype=complex))
        self._rp = np.polyder(self.curve.rhs_coeffs)
        self._rpp = np.polyder(self._rp)
        self._p1pp = np.polyder(self._p1, 2)
        self._p2pp = np.polyder(self._p2, 2)
        self._probe_offset = probe_offset
        self._C = None
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

    def _probes(self):
        pts = np.array(self.curve.branch_points)
        center = pts.mean()
        rad = 1.5 * max(abs(pts - center).max(), 1e-6)
        g = self.curve.genus
        ang = 2 * np.pi * np.arange(g) / g + self._probe_offset
        return center + rad * np.exp(1j * ang)

    def _alpha_integrals(self, x0):
        """Vector of alpha_k integrals (in w) of the non-exact part of
        B0(x0, w)."""
        g = self.curve.genus
        y0 = self.ev.y(x0)

        def fn(w, x0=x0, y0=y0):
            return self._h(x0, w) / (4.0 * y0 * (x0 - w) ** 2)

        diff = Differential(("bergR", complex(x0)), fn)
        return np.array(
            [self.pe.combo_period(diff, self.alpha_mat[k]) for k in range(g)]
        )

    def correction(self):
        """The symmetric coefficient matrix C, solved so that every
        alpha period of Bhat in its second argument vanishes."""
        if self._C is not None:
            return self._C
        for attempt in range(4):
            probes = self._probes()
            u = self.q_values(probes) / self.ev.y(probes)[:, None]
            if np.linalg.cond(u) < 1e8:
                break
            self._probe_offset += 0.21
        else:
            raise GeometryError("probe matrix ill-conditioned")
        rint = np.array([self._alpha_integrals(xp) for xp in probes])
        c = np.linalg.solve(u, -rint)
        scale = max(np.max(np.abs(c)), 1e-30)
        self.correction_defect = np.max(np.abs(c - c.T)) / scale
        if self.correction_defect > 1e-6:
            raise GeometryError(
                f"correction matrix asymmetry {self.correction_defect:.2e}"
            )
        self._C = 0.5 * (c + c.T)
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
        base = self._alpha_integrals(x0)[k]
        c = self.correction()
        qx = self.q_values(x0) / self.ev.y(x0)
        # alpha_k period of omega_j is delta_jk for the normalized basis
        return base + complex(qx @ c[:, k])

    # diagonal-opposite coefficient and the projective connections
    def t_coeff(self, x):
        c = self.correction()
        x = np.asarray(x, dtype=complex)
        r = np.polyval(self.curve.rhs_coeffs, x)
        rp = np.polyval(self._rp, x)
        rpp = np.polyval(self._rpp, x)
        h2 = np.polyval(self._p1, x) * np.polyval(self._p2pp, x) + np.polyval(
            self._p1pp, x
        ) * np.polyval(self._p2, x)
        q = self.q_values(x)
        quad = np.einsum("...j,jk,...k->...", q, c, q)
        return (
            -(rp**2) / (16.0 * r**2)
            + rpp / (8.0 * r)
            - h2 / (8.0 * r)
            - quad / r
        )

    def s_bhat(self, x):
        return -6.0 * self.t_coeff(x)

    def s_plus(self, x):
        return np.zeros_like(np.asarray(x, dtype=complex))

    def s_minus(self, x):
        return -12.0 * self.t_coeff(x)

    def transformed(self, sigma):
        """Evaluator for the symplectically transformed cycle basis
        (sigma acts as alpha' = D alpha + C beta, beta' = B alpha +
        A beta); reuses the engine's cached loop periods."""
        am2, bm2 = transform_basis(sigma, self.alpha_mat,
                                   self.pe.cycles.beta_mat)
        return BergmanEvaluator(self.pe, alpha_mat=am2, beta_mat=bm2,
                                probe_offset=self._probe_offset)

    def moved_kernel_shift(self, sigma):
        """Predicted Bhat change under the basis move: coefficient
        function -2 pi i u(x)^T (C Om + D)^-1 C u(w) built from this
        evaluator's data."""
        _, _, c, d = blocks(sigma)
        m = np.linalg.inv(c @ self.omega + d) @ c

        def shift(x, sx, w, sw):
            yx = self.ev.y(np.asarray(x, dtype=complex), sx)
            yw = self.ev.y(np.asarray(w, dtype=complex), sw)
            qx = self.q_values(x) / np.asarray(yx)[..., None]
            qw = self.q_values(w) / np.asarray(yw)[..., None]
            return -2j * np.pi * np.einsum("...j,jk,...k->...", qx, m, qw)

        return shift

