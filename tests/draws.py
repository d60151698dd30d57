"""Seeded random inputs for the property tests.

Every helper takes an explicit random.Random, so a seed fixes the inputs
a test sees.  The library's own draws (sections and base functions, which
``superpoisson check`` samples) are in ``superpoisson.sampling``, made as
integral multiples; the draws here are those only the tests need, with
Fraction coefficients, and the SuperPoly-product construction of the
library's draws that tests/test_sampling.py holds them to.
"""

import math
import random
from fractions import Fraction

from superpoisson.charts import (hyperbolic_metric, make_cotangent_antivb_chart,
                                 make_darboux_chart)
from superpoisson.sampling import SYMBOL_NAMES
from superpoisson.superpoly import ODD, SuperPoly


def random_coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                    rng.choice((1, 1, 2, 3)))


def integral_multiple(P):
    """P times the least common multiple of its coefficient denominators:
    the least positive integer multiple of P with int coefficients."""
    return P * math.lcm(*(c.denominator for c in P.terms.values()))


def reference_base_function(chart, rng):
    """A weight-zero element as a chain of SuperPoly products, with
    Fraction coefficients; sampling.random_base_function must give its
    integral_multiple, rng call for rng call."""
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


def reference_section(chart, rng):
    """A weight-1 element as a sum of SuperPoly products, drawing its
    coefficients with reference_base_function; sampling.random_section
    must give its integral_multiple.  The first generator drawn fixes the
    parity of the later ones."""
    ones = [chart.generators[idx] for idx in chart.section_indices]
    total = chart.zero()
    for n in range(rng.randint(1, 3)):
        g = rng.choice(ones)
        if n == 0:
            ones = [h for h in ones if h.parity == g.parity]
        coeff = reference_base_function(chart, rng)
        total = total + coeff * SuperPoly.generator_monomial(chart, g)
    if total.is_zero:
        g = rng.choice(ones)
        total = SuperPoly.generator_monomial(chart, g)
    return total


def random_monomial(chart, rng, *, max_factors=3, allow_symbols=True):
    """One monomial with a random coefficient, or None when it collapsed."""
    poly = chart.one()
    for _ in range(rng.randint(0, max_factors)):
        g = rng.choice(chart.generators)
        poly = poly * SuperPoly.generator_monomial(chart, g)
        if poly.is_zero:
            return None
    if allow_symbols and chart.true_base_indices and rng.random() < 0.4:
        name = rng.choice(SYMBOL_NAMES)
        njets = rng.choice((0, 0, 1, 2))
        jets = tuple(rng.choice(chart.true_base_indices)
                     for _ in range(njets))
        poly = poly * SuperPoly.symbol(chart, name, jets)
    return poly * random_coeff(rng)


def random_term_key(chart, rng, n_odd, *, odd_pool=None):
    """A term key of chart with n_odd odd factors drawn from odd_pool
    (every odd generator by default), up to two even powers with exponents
    1..3, and up to two symbols whose jets are drawn from the true base."""
    if odd_pool is None:
        odd_pool = [g.index for g in chart.generators if g.parity == ODD]
    evens = [g.index for g in chart.generators if g.parity != ODD]
    base = chart.true_base_indices
    odd = tuple(sorted(rng.sample(odd_pool, n_odd)))
    even = tuple(sorted((gi, rng.randint(1, 3))
                        for gi in rng.sample(evens, rng.randint(0, 2))))
    scal = tuple(sorted(
        (rng.choice(SYMBOL_NAMES),
         tuple(sorted(rng.choices(base, k=rng.randint(0, 2)))))
        for _ in range(rng.randint(0, 2))))
    return scal, even, odd


def random_terms(chart, rng, n_odd, size, *, odd_pool=None):
    """A term dict of up to size random_term_key terms with random_coeff
    coefficients, int-first like every SuperPoly's."""
    out = {}
    for _ in range(size):
        key = random_term_key(chart, rng, n_odd, odd_pool=odd_pool)
        out[key] = out.get(key, 0) + random_coeff(rng)
    return SuperPoly(chart, out).terms


def random_homogeneous(chart, rng, *, max_factors=3, allow_symbols=True):
    """Nonzero sum of one or two monomials of one parity and weight vector.

    The class is that of the first monomial drawn, so repeated calls cover
    many weights.
    """
    for _ in range(80):
        grade = None
        picked = []
        for _ in range(80):
            m = random_monomial(chart, rng, max_factors=max_factors,
                                allow_symbols=allow_symbols)
            if m is None:
                continue
            key = next(iter(m.terms))
            drawn = (m.term_parity(key), m.term_weight(key))
            grade = grade or drawn
            if drawn != grade:
                continue
            picked.append(m)
            if len(picked) >= rng.randint(1, 2):
                break
        total = sum(picked, chart.zero())
        if not total.is_zero:
            return total
    return chart.one()


def potential_monomials(chart):
    """Every odd monomial of symplectic weight 3, coefficient 1.

    Weight-zero even generators are capped at exponent 2; everything else
    is capped by the weight budget.  Deterministic order.
    """
    gens = chart.generators
    out = []

    def rec(i, total, even, odd):
        if i == len(gens):
            if total == 3 and len(odd) & 1:
                out.append(SuperPoly(chart, {((), tuple(even), tuple(odd)): 1}))
            return
        g = gens[i]
        wsym = chart.symplectic_weight(g.weight)
        if g.parity == ODD:
            cap = 1
        elif wsym == 0:
            cap = 2
        else:
            cap = (3 - total) // wsym
        rec(i + 1, total, even, odd)
        for e in range(1, cap + 1):
            new_total = total + e * wsym
            if new_total > 3:
                break
            if g.parity == ODD:
                rec(i + 1, new_total, even, odd + [g.index])
            else:
                rec(i + 1, new_total, even + [(g.index, e)], odd)

    rec(0, 0, [], [])
    return out


def random_potential(chart, rng):
    """Random odd potential of symplectic weight 3."""
    pool = potential_monomials(chart)
    assert pool, "chart has no odd monomials of symplectic weight 3"
    for _ in range(40):
        picks = rng.sample(pool, min(rng.randint(1, 3), len(pool)))
        total = chart.zero()
        for m in picks:
            c = random_coeff(rng)
            if chart.true_base_indices and rng.random() < 0.4:
                total = total + (
                    SuperPoly.symbol(chart, rng.choice(SYMBOL_NAMES)) * m * c)
            else:
                total = total + m * c
        if not total.is_zero:
            return total
    return pool[0]


def derived_setups(seed, rounds):
    """(T, s, p, l, f) per round: a potential, three sections and a base
    function, on three charts in turn."""
    rng = random.Random(seed)
    charts = [make_darboux_chart(1, 3), make_cotangent_antivb_chart(1, 2),
              make_darboux_chart(2, 2, metric=hyperbolic_metric(1))]
    for r in range(rounds):
        ch = charts[r % len(charts)]
        T = random_potential(ch, rng)
        s = reference_section(ch, rng)
        p = reference_section(ch, rng)
        l = reference_section(ch, rng)
        f = reference_base_function(ch, rng)
        yield T, s, p, l, f


def random_projectable_potential(ch, rng, rank, dim):
    """Random odd weight-3 potential with an anchor part, a fibre-bracket
    part, and a cubic part, and nothing from the cofibre-heavy sectors.
    The closed graph formulas are exact for this shape only."""
    T = ch.gen("xi1") * ch.gen("p1")
    for _ in range(rng.randrange(4)):
        i = rng.randrange(1, rank + 1)
        a = rng.randrange(1, dim + 1)
        T = T + reference_base_function(ch, rng) \
            * ch.gen("xi%d" % i) * ch.gen("p%d" % a)
    for _ in range(rng.randrange(3)):
        i = rng.randrange(1, rank)
        j = rng.randrange(i + 1, rank + 1)
        k = rng.randrange(1, rank + 1)
        T = T + reference_base_function(ch, rng) \
            * ch.gen("xi%d" % i) * ch.gen("xi%d" % j) * ch.gen("pi%d" % k)
    if rank >= 3:
        for _ in range(rng.randrange(3)):
            T = T + reference_base_function(ch, rng) \
                * ch.gen("xi1") * ch.gen("xi2") * ch.gen("xi3")
    return T


def random_graph_field(ch, rng, prefix):
    """Even weight-2 field sum f_ij prefix_i prefix_j over i < j <= 3 with
    random base functions f_ij, or prefix1 prefix2 if that sum vanished:
    a bivector field for prefix "pi", a two-form for prefix "xi"."""
    out = ch.zero()
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        c = reference_base_function(ch, rng)
        out = out + c * ch.gen("%s%d" % (prefix, i)) \
            * ch.gen("%s%d" % (prefix, j))
    if out.is_zero:
        out = ch.gen(prefix + "1") * ch.gen(prefix + "2")
    return out
