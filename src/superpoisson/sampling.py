"""Seeded random elements for property checks.

Everything takes an explicit random.Random so that identical seeds give
identical elements; the checks built on top are exact, the randomness only
picks where to look.

Each draw is made as an integral multiple: the least positive integer
multiple of the element a chain of SuperPoly products would give (a base
monomial, a symbol, a coefficient n/d with d in 1, 2, 3, a generator),
making the same rng calls in the same order.  The draws build their term
keys directly and keep six times each coefficient, an int, until the end,
where the terms are divided by their gcd with 6.  A check that is linear
in its inputs thus runs on int coefficients; the test suite keeps the
chain of products as the reference.
"""

import math

from .superpoly import ODD, SuperPoly, _add_term

SYMBOL_NAMES = ("f", "g", "h")
NUMERATORS = (-3, -2, -1, 1, 2, 3)
# 6 // d for the drawn denominators d = 1, 1, 2, 3
SIXTHS = (6, 6, 3, 2)


class SamplingError(ValueError):
    """The chart has no elements of the kind asked for."""


def _sixfold_base_function(chart, rng):
    """Six times the weight-zero draw, as a term dict with int
    coefficients."""
    base = chart.true_base_indices
    exponents = {}
    if base:
        for _ in range(rng.randint(0, 2)):
            idx = rng.choice(base)
            exponents[idx] = exponents.get(idx, 0) + 1
    scal = ((rng.choice(SYMBOL_NAMES), ()),) if rng.random() < 0.5 else ()
    terms = {(scal, tuple(sorted(exponents.items())), ()):
             rng.choice(NUMERATORS) * rng.choice(SIXTHS)}
    if rng.random() < 0.3:
        c = rng.choice(NUMERATORS) * rng.choice(SIXTHS)
        _add_term(terms, ((), (), ()), c)
    return terms


def _least_multiple(chart, sixfold):
    """The least positive integer multiple of sixfold / 6: the drawn
    coefficients have denominators dividing 6, so it is sixfold divided
    by the gcd of 6 and its coefficients."""
    g = math.gcd(6, *sixfold.values())
    return SuperPoly.from_clean_terms(
        chart, {key: c // g for key, c in sixfold.items()})


def random_base_function(chart, rng):
    """Weight-zero element: a small polynomial in the base sector, possibly
    times a formal symbol, plus a constant 30% of the time."""
    return _least_multiple(chart, _sixfold_base_function(chart, rng))


def random_section(chart, rng):
    """Random symplectic-weight-1 element: one to three generator terms
    with base-function coefficients, each of the first one's parity."""
    gens = chart.generators
    choices = chart.section_indices
    if not choices:
        raise SamplingError("chart %s has no weight-1 sector" % chart.name)
    total = {}
    for n in range(rng.randint(1, 3)):
        g = gens[rng.choice(choices)]
        if n == 0:
            choices = [i for i in choices if gens[i].parity == g.parity]
        for (scal, even, _), c in _sixfold_base_function(chart, rng).items():
            if g.parity == ODD:
                key = (scal, even, (g.index,))
            else:
                key = (scal, tuple(sorted(even + ((g.index, 1),))), ())
            _add_term(total, key, c)
    if not total:
        return SuperPoly.generator_monomial(chart, gens[rng.choice(choices)])
    return _least_multiple(chart, total)
