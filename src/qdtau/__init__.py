"""Tau functions on moduli of quadratic differentials with simple poles.

Subpackages split along the natural seams of the problem:

- ``picard``         exact divisor-class arithmetic on the rational Picard group
- ``strata``         stratum signatures, dimensions, homogeneity exponents
- ``cover_homology`` symplectic bases adapted to the canonical double cover
- ``curves``         the double cover of a genus-zero configuration
- ``cycles``         explicit cycle representatives and intersection numbers
- ``periods``        period integrals and normalized holomorphic bases
- ``bergman``        the Bergman bidifferential and projective connections
- ``tau``            connection forms, Euler-characteristic pairings, and
                     boundary vanishing exponents of the two tau functions
- ``checks``         the acceptance criteria, each defined once, shared by
                     ``qdtau suite`` and the acceptance tests
"""

__version__ = "0.1.0"

__all__ = [
    "picard",
    "strata",
    "cover_homology",
    "curves",
    "cycles",
    "periods",
    "bergman",
    "tau",
    "checks",
]
