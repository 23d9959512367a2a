"""Exact linear algebra over the rationals.

Small dense systems only; pivoting is exact so there is no notion of
conditioning here, just solvable or not.
"""

from fractions import Fraction


class InconsistentSystemError(ValueError):
    """Raised when elimination hits a contradictory row.

    ``residual`` holds the right-hand side of the offending row after
    elimination, exactly.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


def _as_fraction_rows(rows):
    return [[x if type(x) is Fraction else Fraction(x) for x in row]
            for row in rows]


def solve_exact(matrix, rhs):
    """Solve A x = b over Q by Gaussian elimination.

    ``rhs`` entries may themselves be vectors (lists of Fractions), in
    which case the unknowns come back as vectors of the same length.
    Raises InconsistentSystemError on a zero pivot row with nonzero
    right-hand side, ValueError if the system is underdetermined.
    """
    m = len(matrix)
    a = _as_fraction_rows(matrix)
    vector_rhs = m > 0 and isinstance(rhs[0], (list, tuple))
    if vector_rhs:
        b = _as_fraction_rows(rhs)
    else:
        b = [[Fraction(x)] for x in rhs]
    width = len(b[0])
    ncols = len(a[0]) if m else 0

    def row_sub(i, j, factor):
        a[i] = [ai - factor * aj for ai, aj in zip(a[i], a[j])]
        b[i] = [bi - factor * bj for bi, bj in zip(b[i], b[j])]

    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        b[r], b[pivot] = b[pivot], b[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        b[r] = [x * inv for x in b[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                row_sub(i, r, a[i][c])
        pivots.append(c)
        r += 1

    for i in range(r, m):
        if any(x != 0 for x in b[i]):
            raise InconsistentSystemError(
                "inconsistent linear system", residual=list(b[i])
            )
    if len(pivots) < ncols:
        raise ValueError("underdetermined system")

    solution = [None] * ncols
    for row, c in enumerate(pivots):
        solution[c] = b[row] if vector_rhs else b[row][0]
    return solution
