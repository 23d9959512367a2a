"""Symplectic bases of the canonical double cover's homology.

The numerics are genus-zero, where the cover's homology is all
anti-invariant under the deck involution mu.  This module holds the
integer symplectic group the tau layer's basis changes run over: the
intersection form, the blocks of sigma and its action on cycle rows,
the symplectic test and random elements of Sp(2m, Z).  It also keeps,
in exact arithmetic, the matrix of mu and the eigenbasis change on the
cover's cycle layout a_j, a*_j, a~_k at any (g, n).

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
class InvolutionMatrices:
    g: int
    n: int
    m: list  # mu action on the a-block (and identically on b)
    t: list  # eigenbasis change
    s: list  # diag(T, (T^t)^[-1]), symplectic on the full basis


# kept only for perfbench/workloads.py and tracing.py; goes with ROADMAP item 2
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
