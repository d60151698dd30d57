"""Small exact linear algebra over the rationals.

Everything here takes sparse rows, each a mapping {column: rational} or a
sequence of (column, rational) pairs, with rationals as SuperPoly stores
its coefficients (int, or Fraction when not integral), and with columns
of one ordered kind: ints for a matrix, SuperPoly term keys for the
coefficients of a list of polynomials.  One fraction-free elimination in
int serves rank, nullspace and invert, in two steps: _eliminate, the
forward elimination, and _back_substitute, which reduces its pivot rows.
rank is the forward elimination alone, since back substitution keeps the
number of pivot rows; nullspace and invert read the reduced form.  A row
never grows past the columns it and its pivot rows touch, so a chart's
nondegeneracy is one rank of its sparse pairing rows, and the artifact
stays float-free.
"""

import math
from fractions import Fraction


def _cleared(v, p, c):
    """p[c] * v - v[c] * p, which is zero on column c, divided by the gcd of
    its entries."""
    a, b = v[c], p[c]
    w = {k: b * x for k, x in v.items()}
    for k, y in p.items():
        x = w.get(k, 0) - a * y
        if x:
            w[k] = x
        else:
            del w[k]
    g = math.gcd(*w.values())
    return {k: x // g for k, x in w.items()} if g > 1 else w


def _eliminate(rows):
    """A row echelon form of rows as {pivot column: int row}, each row a
    dict {column: nonzero int} whose smallest column is its pivot column.

    Each row is scaled by the lcm of its denominators and reduced against
    the pivot rows found so far, keyed by their leading column: a row whose
    leading column has a pivot row p is _cleared by p.  A row that reduces
    to nothing depends on the rows before it; each row that does not
    becomes a pivot row.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
        s = math.lcm(*(x.denominator for x in row.values()))
        v = {c: x.numerator * (s // x.denominator)
             for c, x in row.items() if x}
        while v:
            c = min(v)
            p = pivots.get(c)
            if p is None:
                pivots[c] = v
                break
            v = _cleared(v, p, c)
    return pivots


def _back_substitute(pivots):
    """The reduced form of an _eliminate result, in place: each pivot row
    is cleared on the later pivot columns, in descending order of pivot, so
    each clearing row is already reduced and brings in no pivot column."""
    for c in sorted(pivots, reverse=True):
        for k in [k for k in pivots[c] if k != c and k in pivots]:
            pivots[c] = _cleared(pivots[c], pivots[k], k)
    return pivots


def rank(rows):
    """Rank of the sparse rows: the number of pivot rows of the forward
    elimination alone."""
    return len(_eliminate(rows))


def nullspace(rows, ncols):
    """Basis of the right kernel of sparse rows over columns 0..ncols-1, as
    a list of Fraction vectors: one per free column, 1 there and 0 on the
    other free columns; with no rows, the identity basis."""
    pivots = _back_substitute(_eliminate(rows))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for c, p in pivots.items():
            v[c] = Fraction(-p.get(f, 0), p[c])
        basis.append(v)
    return basis


def invert(rows):
    """Inverse of the square matrix whose sparse rows are given, as dense
    Fraction rows, or None when singular."""
    n = len(rows)
    pivots = _back_substitute(_eliminate(
        {**dict(row), n + i: 1} for i, row in enumerate(rows)))
    if any(c not in pivots for c in range(n)):
        return None
    return [[Fraction(pivots[c].get(n + j, 0), pivots[c][c])
             for j in range(n)] for c in range(n)]
