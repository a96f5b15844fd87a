"""Rational Gauss-Jordan elimination over ``Fraction``: the reference that the
fraction-free kernel of ``kwall.surface`` and the decomposition oracles are
checked against."""

from fractions import Fraction as F


def rref(m, ncols):
    """Bring the first ``ncols`` columns of ``m`` to reduced row echelon form
    in place; return the pivot columns (pivot k in row k)."""
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(m):
            break
        piv = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / F(m[row][col])
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
    return pivots


def fraction_solve(rows, b):
    """The solution of the square system ``rows x = b``, or None if singular."""
    n = len(rows)
    aug = [[F(x) for x in row] + [F(b[r])] for r, row in enumerate(rows)]
    if len(rref(aug, n)) != n:
        return None
    return [row[n] for row in aug]
