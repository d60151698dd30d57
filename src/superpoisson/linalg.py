"""Small exact linear algebra over the rationals.

Everything here takes sparse rows, each a mapping {column: rational} or a
sequence of (column, rational) pairs, with rationals as SuperPoly stores
its coefficients (int, or Fraction when not integral), and with columns
of one ordered kind: ints for a matrix, SuperPoly term keys for the
coefficients of a list of polynomials.  One fraction-free elimination in
int, _echelon, serves rank, nullspace and invert; a row never grows past
the columns it and its pivot rows touch, so a chart's nondegeneracy is one
rank of its sparse pairing rows, and the artifact stays float-free.
"""

import math
from fractions import Fraction


def _echelon(rows):
    """The reduced row echelon form of rows as {pivot column: int row},
    each row a dict {column: nonzero int} whose smallest column is its
    pivot column, and which is zero on every other pivot column.

    Each row is scaled by the lcm of its denominators and reduced against
    the pivot rows found so far, keyed by their leading column: a row whose
    leading column has a pivot row p becomes p[c] * row - row[c] * p,
    divided by the gcd of its entries.  A row that reduces to nothing
    depends on the rows before it; each row that does not becomes a pivot
    row.  Back substitution then clears each pivot row's later pivot
    columns, in descending order of pivot, so each clearing row is already
    reduced and brings in no pivot column.
    """
    pivots = {}

    def cleared(v, p, c):
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
            v = cleared(v, p, c)
    for c in sorted(pivots, reverse=True):
        for k in [k for k in pivots[c] if k != c and k in pivots]:
            pivots[c] = cleared(pivots[c], pivots[k], k)
    return pivots


def rank(rows):
    """Rank of the sparse rows: the number of their pivot rows."""
    return len(_echelon(rows))


def nullspace(rows, ncols):
    """Basis of the right kernel of sparse rows over columns 0..ncols-1, as
    a list of Fraction vectors: one per free column, 1 there and 0 on the
    other free columns; with no rows, the identity basis."""
    pivots = _echelon(rows)
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
    pivots = _echelon({**dict(row), n + i: 1} for i, row in enumerate(rows))
    if any(c not in pivots for c in range(n)):
        return None
    return [[Fraction(pivots[c].get(n + j, 0), pivots[c][c])
             for j in range(n)] for c in range(n)]
