"""Small exact linear algebra over the rationals.

Everything here takes lists of lists of exact rationals (int, or Fraction
when not integral, as SuperPoly stores its coefficients) and is sized for
chart-scale matrices (tens of rows), where exact elimination is instant
and keeps the artifact float-free.  det and rank scale each row by the lcm
of its denominators and compute in int; rref, and nullspace and invert on
top of it, compute in Fraction.
"""

import math
from fractions import Fraction


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot_columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _scaled(row):
    """(s, row times s) with s the lcm of the row's denominators, so the
    scaled row is a list of ints."""
    s = math.lcm(*(x.denominator for x in row))
    return s, [x.numerator * (s // x.denominator) for x in row]


def rank(rows):
    """Rank by fraction-free elimination in int on sparse rows.

    Each row, scaled to int and stored as {column: nonzero entry}, is
    reduced against the pivot rows found so far, keyed by their leading
    column: a row whose leading column has a pivot row p becomes
    p[c] * row - row[c] * p, divided by the gcd of its entries.  A row
    that reduces to nothing depends on the rows before it; each row that
    does not becomes a pivot row, so the rank is their number.
    """
    pivots = {}
    for row in rows:
        v = {c: x for c, x in enumerate(_scaled(row)[1]) if x}
        while v:
            c = min(v)
            p = pivots.get(c)
            if p is None:
                pivots[c] = v
                break
            a, b = v[c], p[c]
            w = {k: b * x for k, x in v.items()}
            for k, y in p.items():
                x = w.get(k, 0) - a * y
                if x:
                    w[k] = x
                else:
                    del w[k]
            g = math.gcd(*w.values())
            v = {k: x // g for k, x in w.items()} if g > 1 else w
    return len(pivots)


def nullspace(rows, ncols):
    """Basis of the right kernel of rows, each of length ncols, as a list
    of Fraction vectors; with no rows, the identity basis."""
    m, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def det(rows):
    """Determinant by fraction-free (Bareiss) elimination in int, on rows
    scaled by the lcm of their denominators; divided by those scales."""
    n = len(rows)
    assert all(len(row) == n for row in rows), "determinant needs a square matrix"
    m = []
    scale = 1
    for row in rows:
        s, ints = _scaled(row)
        m.append(ints)
        scale *= s
    sign = 1
    prev = 1
    for c in range(n):
        for pivot in range(c, n):
            if m[pivot][c]:
                break
        else:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        p = m[c][c]
        for i in range(c + 1, n):
            f = m[i][c]
            m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], m[c])]
        prev = p
    return Fraction(sign * prev, scale)


def invert(rows):
    """Inverse matrix, or None when singular."""
    n = len(rows)
    assert all(len(row) == n for row in rows)
    aug = [[Fraction(x) for x in row]
           + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(rows)]
    m, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in m[:n]]
