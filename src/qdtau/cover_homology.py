"""Homology of the canonical double cover, symbolically.

The double cover of a genus-g curve with n marked points branched at
the 4g-4+2n singular points has genus ghat = 4g-3+n.  Its first
homology splits under the deck involution mu into an invariant part
(rank 2g, isomorphic to the base) and an anti-invariant part (rank
6g-6+2n).  This module carries the standard cycle layout a_j, a*_j,
a~_k / b_j, b*_j, b~_k, the matrix of mu, the eigenbasis change T, and
the assembly of the cover period matrix from the two eigenblocks.

Conventions used throughout the package for Sp(2m) action on periods:
a symplectic sigma = [[A, B], [C, D]] acts on cycle bases by

    alpha' = D alpha + C beta,   beta' = B alpha + A beta,

so the normalized period matrix transforms as
Omega' = (A Omega + B)(C Omega + D)^[-1].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exact import solve_exact


def _eye(k):
    return [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]


def _zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def _transpose(a):
    return [list(row) for row in zip(*a)]


def _block_diag(*blocks):
    size = sum(len(b) for b in blocks)
    out = _zeros(size, size)
    off = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                out[off + i][off + j] = b[i][j]
        off += k
    return out


def standard_j(m):
    """Intersection form [[0, I], [-I, 0]] of size 2m."""
    out = _zeros(2 * m, 2 * m)
    for i in range(m):
        out[i][m + i] = Fraction(1)
        out[m + i][i] = Fraction(-1)
    return out


@dataclass(frozen=True)
class CanonicalBasisLayout:
    g: int
    n: int
    a_labels: tuple
    b_labels: tuple

    @property
    def ghat(self):
        return 4 * self.g - 3 + self.n

    def intersection_matrix(self):
        return standard_j(self.ghat)


def cycle_layout(g: int, n: int) -> CanonicalBasisLayout:
    if 2 * g + n <= 3:
        raise ValueError(f"unstable moduli space: g={g}, n={n}")
    tilde = 2 * g - 3 + n
    a = (
        [f"a{j}" for j in range(1, g + 1)]
        + [f"a*{j}" for j in range(1, g + 1)]
        + [f"a~{k}" for k in range(1, tilde + 1)]
    )
    b = (
        [f"b{j}" for j in range(1, g + 1)]
        + [f"b*{j}" for j in range(1, g + 1)]
        + [f"b~{k}" for k in range(1, tilde + 1)]
    )
    return CanonicalBasisLayout(g, n, tuple(a), tuple(b))


@dataclass(frozen=True)
class InvolutionMatrices:
    g: int
    n: int
    m: list  # mu action on the a-block (and identically on b)
    t: list  # eigenbasis change
    s: list  # diag(T, (T^t)^[-1]), symplectic on the full basis


def build_matrices(g: int, n: int) -> InvolutionMatrices:
    """Involution and eigenbasis-change matrices for the cover layout.

    mu swaps a_j <-> a*_j and negates the tilde cycles; T maps to the
    eigenvectors a_j + a*_j (invariant) and a_j - a*_j, a~_k
    (anti-invariant).
    """
    if 2 * g + n <= 3:
        raise ValueError(f"unstable moduli space: g={g}, n={n}")
    tilde = 2 * g - 3 + n
    ghat = 4 * g - 3 + n

    m = _zeros(ghat, ghat)
    for j in range(g):
        m[j][g + j] = Fraction(1)
        m[g + j][j] = Fraction(1)
    for k in range(tilde):
        m[2 * g + k][2 * g + k] = Fraction(-1)

    t = _zeros(ghat, ghat)
    for j in range(g):
        t[j][j] = Fraction(1)
        t[j][g + j] = Fraction(1)
        t[g + j][j] = Fraction(1)
        t[g + j][g + j] = Fraction(-1)
    for k in range(tilde):
        t[2 * g + k][2 * g + k] = Fraction(1)

    # (T^t)^[-1]: for this T, T T^t = diag(2,...,2, 1,...,1) so the
    # inverse transpose is T^t scaled blockwise; computed generically
    tt = _transpose(t)
    tt_inv = solve_exact(tt, _eye(ghat))
    s = _block_diag(t, tt_inv)
    return InvolutionMatrices(g, n, m, t, s)


def eigenspace_dims(g: int, n: int):
    """(dim H_+, dim H_-, rank of invariant differentials, rank of
    anti-invariant differentials)."""
    if 2 * g + n <= 3:
        raise ValueError(f"unstable moduli space: g={g}, n={n}")
    return (2 * g, 6 * g - 6 + 2 * n, g, 3 * g - 3 + n)


def assemble_period_matrix(omega_plus, omega_minus, g: int, n: int):
    """Cover period matrix from the eigenblocks:
    Omega_hat = T^[-1] diag(Omega_plus, Omega_minus) (T^t)^[-1]."""
    op = np.atleast_2d(np.asarray(omega_plus, dtype=complex))
    om = np.atleast_2d(np.asarray(omega_minus, dtype=complex))
    if op.shape != (g, g):
        raise ValueError(f"omega_plus must be {g}x{g}")
    dminus = 3 * g - 3 + n
    if om.shape != (dminus, dminus):
        raise ValueError(f"omega_minus must be {dminus}x{dminus}")
    if g == 0:
        return om.copy()
    mats = build_matrices(g, n)
    t = np.array([[float(x) for x in row] for row in mats.t])
    tinv = np.linalg.inv(t)
    ghat = 4 * g - 3 + n
    block = np.zeros((ghat, ghat), dtype=complex)
    block[:g, :g] = op
    block[g:, g:] = om
    return tinv @ block @ tinv.T


@dataclass(frozen=True)
class SymplecticPair:
    """Blocks (A, B; C, D) of the symplectic transformations acting on
    the two eigenspaces."""

    sigma_plus: np.ndarray
    sigma_minus: np.ndarray

    def __post_init__(self):
        for s in (self.sigma_plus, self.sigma_minus):
            if s.size and not is_symplectic(s):
                raise ValueError("block is not symplectic")


def blocks(sigma):
    """The blocks (A, B, C, D) of sigma = [[A, B], [C, D]]."""
    sigma = np.asarray(sigma)
    m = sigma.shape[0] // 2
    return sigma[:m, :m], sigma[:m, m:], sigma[m:, :m], sigma[m:, m:]


def transform_basis(sigma, alpha_mat, beta_mat):
    """Cycle rows of the basis moved by sigma: (alpha', beta') =
    (D alpha + C beta, B alpha + A beta)."""
    a, b, c, d = blocks(sigma)
    return d @ alpha_mat + c @ beta_mat, b @ alpha_mat + a @ beta_mat


def is_symplectic(sigma, tol=1e-12) -> bool:
    sigma = np.asarray(sigma, dtype=float)
    m = sigma.shape[0] // 2
    if sigma.shape != (2 * m, 2 * m):
        return False
    j = np.array(standard_j(m), dtype=float)
    return bool(np.max(np.abs(sigma.T @ j @ sigma - j)) <= tol)


def det_factor(pair: SymplecticPair, omega_plus, omega_minus):
    """Predicted tau multipliers det(C Omega + D)^48 for both signs,
    up to the cube root of unity the transformation law allows."""
    out = []
    for sigma, omega in (
        (pair.sigma_plus, omega_plus),
        (pair.sigma_minus, omega_minus),
    ):
        if sigma.size == 0:
            out.append(complex(1.0))
            continue
        om = np.atleast_2d(np.asarray(omega, dtype=complex))
        _, _, c, d = blocks(sigma)
        det = np.linalg.det(c @ om + d)
        if det == 0:
            raise ValueError("degenerate pairing: det(C Omega + D) = 0")
        out.append(det**48)
    return tuple(out)


def random_symplectic(m: int, rng, steps: int = 12) -> np.ndarray:
    """Random element of Sp(2m, Z) as a word in elementary generators."""
    j = np.array(standard_j(m), dtype=int)
    out = np.eye(2 * m, dtype=int)
    for _ in range(steps):
        kind = rng.integers(0, 3)
        if kind == 0:
            # [[I, B], [0, I]] with symmetric integer B
            b = rng.integers(-2, 3, size=(m, m))
            b = b + b.T
            gmat = np.block([[np.eye(m, dtype=int), b], [np.zeros((m, m), dtype=int), np.eye(m, dtype=int)]])
        elif kind == 1:
            # [[I, 0], [C, I]] with symmetric integer C
            c = rng.integers(-2, 3, size=(m, m))
            c = c + c.T
            gmat = np.block([[np.eye(m, dtype=int), np.zeros((m, m), dtype=int)], [c, np.eye(m, dtype=int)]])
        else:
            # [[U, 0], [0, U^[-t]]] with U a unimodular shear
            u = np.eye(m, dtype=int)
            if m > 1:
                i, k = rng.choice(m, size=2, replace=False)
                u[i, k] = int(rng.integers(-2, 3))
            uinv_t = np.rint(np.linalg.inv(u.T)).astype(int)
            gmat = np.block([[u, np.zeros((m, m), dtype=int)], [np.zeros((m, m), dtype=int), uinv_t]])
        out = out @ gmat
    assert np.array_equal(out.T @ j @ out, j)
    return out
