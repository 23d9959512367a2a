"""Numpy evaluation kernels.

These are the inner loops of every quadrature in the package: the
single-valued sheet-1 branch of yhat = sqrt(prod(x - b_i)) over an
even number of branch points, cut along segments joining them in
pairs, and its boundary values on a cut.  One call takes the points of
many spines at once (`eval_oncut` takes one owning cut per point), so a
lockstep spine ladder weighs a whole step with one call of each.
Callers reach them through the module (``kernels.eval_sheet1``), so
wrapping the attribute wraps every use.
"""

import numpy as np

# kept only because perfbench/run.py reads it; goes with ROADMAP item 2
BACKEND = "python"


def eval_sheet1(x, mids, halves):
    """Sheet-1 value of yhat at points x (any array shape).

    Each cut [m-h, m+h] contributes the factor h*u*sqrt(1 - 1/u^2) with
    u = (x-m)/h, which squares to (x-m)^2 - h^2 and is discontinuous
    exactly on the segment.
    """
    x = np.asarray(x, dtype=complex)
    out = np.ones(x.shape, dtype=complex)
    for m, h in zip(mids, halves):
        u = (x - m) / h
        out = out * (h * u * np.sqrt(1.0 - 1.0 / (u * u)))
    return out


def eval_oncut(owner, t, side, mids, halves):
    """Boundary value of sheet-1 yhat on cut ``owner`` at x = m + t*h.

    ``t`` is real in (-1, 1); ``side`` +1 means the limit from the side
    the cut's left normal i*h points to, where the owner factor is
    i*side*h*sqrt(1-t^2).  ``owner`` may also be an array, one cut per
    point.  The other cuts' factors are one (cuts, points) broadcast,
    multiplied in cut order, with 1.0 in the owner's place: for an
    array ``t``, every point's value is bit for bit what skipping its
    own cut gives.  (A 0-d ``t`` may round in the last bit otherwise:
    numpy's scalar complex arithmetic rounds as its array loops do not.)
    """
    t = np.asarray(t, dtype=float)
    owner = np.asarray(owner)
    x = mids[owner] + t * halves[owner]
    out = 1j * side * halves[owner] * np.sqrt(1.0 - t * t).astype(complex)
    shape = (-1,) + (1,) * x.ndim
    m, h = mids.reshape(shape), halves.reshape(shape)
    u = (x - m) / h
    mine = np.broadcast_to(owner == np.arange(len(mids)).reshape(shape),
                           u.shape)
    u[mine] = 2.0  # off the cut, so the owner's unused factor stays finite
    factors = h * u * np.sqrt(1.0 - 1.0 / (u * u))
    factors[mine] = 1.0
    for f in factors:
        out = out * f
    return out
