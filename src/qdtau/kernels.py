"""Numpy evaluation kernels.

These are the inner loops of every quadrature in the package: the
single-valued sheet-1 branch of yhat = sqrt(prod(x - b_i)) with the
branch cuts along prescribed segments, and its boundary values on a
cut.  Callers reach them through the module (``kernels.eval_sheet1``),
so wrapping the attribute wraps every use.
"""

import numpy as np

# recorded with every benchmark run, which refuses to compare runs of
# different backends
BACKEND = "python"


def eval_sheet1(x, mids, halves, ray_base=None, ray_sigma=None):
    """Sheet-1 value of yhat at points x (any array shape).

    Each cut [m-h, m+h] contributes the factor h*u*sqrt(1 - u**-2) with
    u = (x-m)/h, which squares to (x-m)^2 - h^2 and is discontinuous
    exactly on the segment.  An odd branch point (elliptic test models)
    adds the ray factor sqrt((x-b)*s)/sqrt(s) with s = -conj(unit ray
    direction), cut exactly along the ray.
    """
    x = np.asarray(x, dtype=complex)
    out = np.ones(x.shape, dtype=complex)
    for m, h in zip(mids, halves):
        u = (x - m) / h
        out = out * (h * u * np.sqrt(1.0 - u ** (-2)))
    if ray_base is not None:
        out = out * (np.sqrt((x - ray_base) * ray_sigma) / np.sqrt(ray_sigma))
    return out


def eval_oncut(owner, t, side, mids, halves, ray_base=None, ray_sigma=None):
    """Boundary value of sheet-1 yhat on cut ``owner`` at x = m + t*h.

    ``t`` is real in (-1, 1); ``side`` +1 means the limit from the side
    the cut's left normal i*h points to, where the owner factor is
    i*side*h*sqrt(1-t^2).
    """
    t = np.asarray(t, dtype=float)
    x = mids[owner] + t * halves[owner]
    out = 1j * side * halves[owner] * np.sqrt(1.0 - t * t).astype(complex)
    for i, (m, h) in enumerate(zip(mids, halves)):
        if i == owner:
            continue
        u = (x - m) / h
        out = out * (h * u * np.sqrt(1.0 - u ** (-2)))
    if ray_base is not None:
        out = out * (np.sqrt((x - ray_base) * ray_sigma) / np.sqrt(ray_sigma))
    return out
