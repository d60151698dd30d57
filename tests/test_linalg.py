"""Exact linear algebra against textbook formulas written out here and the
dense Fraction rank of tests/oracles.py."""

import itertools
import random
from fractions import Fraction

import oracles
from superpoisson import linalg


def leibniz_det(rows):
    """Sum over permutations of sign(perm) * prod rows[i][perm[i]]."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def stored(value):
    """An exact rational as SuperPoly stores one: int when integral."""
    return value.numerator if value.denominator == 1 else value


def random_entry(rng):
    if rng.random() < 0.3:
        return 0
    return stored(Fraction(rng.randint(-6, 6),
                           rng.choice((1, 1, 2, 3, 4, 7))))


def sparse(rows):
    """Dense rows as the sparse rows linalg takes: {column: nonzero}."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def test_nullspace_of_no_rows_is_the_identity_basis():
    assert linalg.nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_nullspace_is_a_kernel_basis_of_the_right_size():
    # (rows, rank by construction): one row; an invertible square, checked
    # by its Leibniz determinant; a 3x4 matrix whose third row is the sum
    # of the other two.
    square = [[2, 1, 0], [Fraction(1, 2), 0, -1], [0, 3, 1]]
    assert leibniz_det(square) != 0
    cases = [
        ([[1, -2, Fraction(3, 4)]], 1),
        (square, 3),
        ([[1, 2, 0, -1], [0, 1, 1, Fraction(1, 3)],
          [1, 3, 1, Fraction(-2, 3)]], 2),
    ]
    for rows, rank in cases:
        ncols = len(rows[0])
        basis = linalg.nullspace(sparse(rows), ncols)
        assert len(basis) == ncols - rank, rows
        # A column is free when it adds nothing to the rank of the columns
        # before it; the reduced-echelon kernel basis has one vector per
        # free column, 1 there and 0 on the other free columns.
        free = [c for c in range(ncols)
                if oracles.dense_rank([row[:c + 1] for row in rows])
                == oracles.dense_rank([row[:c] for row in rows])]
        assert [[v[f] for f in free] for v in basis] == [
            [int(f == g) for f in free] for g in free], rows
        for v in basis:
            assert len(v) == ncols
            assert all(sum(a * b for a, b in zip(row, v)) == 0
                       for row in rows), (rows, v)


def test_rank_matches_the_pivot_count_of_rref():
    rng = random.Random(4402)
    cases = [[], [[0, 0, 0]], [[0, 0], [0, 0]], [[0], [Fraction(1, 2)], [3]],
             [[Fraction(2, 3)], [0]]]
    for _ in range(300):
        shape = rng.choice(("square", "tall", "wide"))
        n, extra = rng.randint(1, 5), rng.randint(1, 8)
        nrows, ncols = {"square": (n, n), "tall": (n + extra, n),
                        "wide": (n, n + extra)}[shape]
        rows = [[random_entry(rng) for _ in range(ncols)]
                for _ in range(nrows)]
        for _ in range(rng.randint(0, 2)):
            # a zero row, or a row that is a rational combination of two
            # others (a multiple of one when a == b)
            target = rng.randrange(nrows)
            if rng.random() < 0.2:
                rows[target] = [0] * ncols
                continue
            a, b = rng.randrange(nrows), rng.randrange(nrows)
            c, d = (Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in range(2))
            rows[target] = [stored(c * x + d * y)
                            for x, y in zip(rows[a], rows[b])]
        cases.append(rows)
    deficient = 0
    for rows in cases:
        want = oracles.dense_rank(rows)
        assert linalg.rank(sparse(rows)) == want, rows
        deficient += bool(rows) and want < min(len(rows), len(rows[0]))
    assert deficient > 50


def test_invert_gives_the_inverse_or_none_when_the_determinant_is_zero():
    rng = random.Random(4403)
    singular = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[random_entry(rng) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            # a row that is a rational combination of two others
            a, b = rng.randrange(n), rng.randrange(n)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows[rng.randrange(n)] = [stored(x + c * y)
                                      for x, y in zip(rows[a], rows[b])]
        inverse = linalg.invert(sparse(rows))
        if leibniz_det(rows) == 0:
            assert inverse is None, rows
            singular += 1
            continue
        assert [[sum(rows[i][k] * inverse[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)] == [
            [int(i == j) for j in range(n)] for i in range(n)], rows
    assert singular > 25
