"""Seeded random elements for property checks.

Everything takes an explicit random.Random so that identical seeds give
identical elements; the checks built on top are exact, the randomness only
picks where to look.
"""

from fractions import Fraction

from .superpoly import SuperPoly

SYMBOL_NAMES = ("f", "g", "h")


class SamplingError(ValueError):
    """The chart has no elements of the kind asked for."""


def random_coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                    rng.choice((1, 1, 2, 3)))


def random_base_function(chart, rng):
    """Weight-zero element: a small polynomial in the base sector, possibly
    times a formal symbol."""
    poly = chart.one()
    base = chart.true_base_indices
    if base:
        for _ in range(rng.randint(0, 2)):
            idx = rng.choice(base)
            poly = poly * SuperPoly.generator_monomial(
                chart, chart.generators[idx])
    if rng.random() < 0.5:
        poly = poly * SuperPoly.symbol(chart, rng.choice(SYMBOL_NAMES))
    out = poly * random_coeff(rng)
    if rng.random() < 0.3:
        out = out + random_coeff(rng)
    return out


def random_section(chart, rng):
    """Random symplectic-weight-1 element: one to three generator terms
    with base-function coefficients."""
    ones = [chart.generators[idx] for idx in chart.section_indices]
    if not ones:
        raise SamplingError("chart %s has no weight-1 sector" % chart.name)
    total = chart.zero()
    for _ in range(rng.randint(1, 3)):
        g = rng.choice(ones)
        coeff = random_base_function(chart, rng)
        total = total + coeff * SuperPoly.generator_monomial(chart, g)
    if total.is_zero:
        g = rng.choice(ones)
        total = SuperPoly.generator_monomial(chart, g)
    return total
