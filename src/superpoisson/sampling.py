"""Seeded random elements for property checks.

Everything takes an explicit random.Random so that identical seeds give
identical elements; the checks built on top are exact, the randomness only
picks where to look.

The draws build their term dicts directly: a base function as its one or
two terms, a section by accumulating each coefficient times its generator
into one dict.  They make the same rng calls in the same order as the
chain of SuperPoly products they stand for (a base monomial, a symbol, a
coefficient, a generator), and give the same elements; the test suite
keeps that chain as the reference.

integral_multiple clears a drawn element's denominators, so a check that
is linear in its inputs can run on int coefficients.
"""

import math
from fractions import Fraction

from .superpoly import SuperPoly, mul_terms_into

SYMBOL_NAMES = ("f", "g", "h")


class SamplingError(ValueError):
    """The chart has no elements of the kind asked for."""


def random_coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                    rng.choice((1, 1, 2, 3)))


def random_base_function(chart, rng):
    """Weight-zero element: a small polynomial in the base sector, possibly
    times a formal symbol, plus a constant 30% of the time."""
    base = chart.true_base_indices
    exponents = {}
    if base:
        for _ in range(rng.randint(0, 2)):
            idx = rng.choice(base)
            exponents[idx] = exponents.get(idx, 0) + 1
    scal = ((rng.choice(SYMBOL_NAMES), ()),) if rng.random() < 0.5 else ()
    terms = {(scal, tuple(sorted(exponents.items())), ()): random_coeff(rng)}
    if rng.random() < 0.3:
        constant = ((), (), ())
        terms[constant] = terms.get(constant, 0) + random_coeff(rng)
    return SuperPoly(chart, terms)


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
        mul_terms_into(total, random_base_function(chart, rng).terms,
                       SuperPoly.generator_monomial(chart, g).terms)
    if not total:
        return SuperPoly.generator_monomial(chart, gens[rng.choice(choices)])
    return SuperPoly.from_clean_terms(chart, total)


def integral_multiple(P):
    """P times the least common multiple of its coefficient denominators:
    the least positive integer multiple of P with int coefficients."""
    return P * math.lcm(*(c.denominator for c in P.terms.values()))
