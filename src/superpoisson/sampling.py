"""Seeded random elements for property checks.

Everything takes an explicit random.Random so that identical seeds give
identical elements; the checks built on top are exact, the randomness only
picks where to look.
"""

from fractions import Fraction

from .superpoly import EVEN, ODD, SuperPoly

SYMBOL_NAMES = ("f", "g", "h")


class SamplingError(ValueError):
    """The chart has no elements of the kind asked for."""


def random_coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                    rng.choice((1, 1, 2, 3)))


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


def random_homogeneous(chart, rng, *, parity=None, weight=None, max_terms=2,
                       max_factors=3, allow_symbols=True, tries=80):
    """Nonzero element homogeneous in parity and weight vector.

    When parity/weight are None the class of the first drawn monomial is
    used, so repeated calls cover many weights.
    """
    for _ in range(tries):
        want_parity = parity
        want_weight = weight
        picked = []
        for _ in range(tries):
            m = random_monomial(chart, rng, max_factors=max_factors,
                                allow_symbols=allow_symbols)
            if m is None:
                continue
            key = next(iter(m.terms))
            mp = m.term_parity(key)
            mw = m.term_weight(key)
            if want_parity is None:
                want_parity, want_weight = mp, mw
            if (mp, mw) != (want_parity, want_weight):
                continue
            picked.append(m)
            if len(picked) >= rng.randint(1, max_terms):
                break
        if not picked:
            continue
        total = chart.zero()
        for m in picked:
            total = total + m
        if not total.is_zero:
            return total
    return chart.one()


def random_base_function(chart, rng, *, allow_symbols=True):
    """Weight-zero element: a small polynomial in the base sector, possibly
    times a formal symbol."""
    poly = chart.one()
    base = chart.true_base_indices
    if base:
        for _ in range(rng.randint(0, 2)):
            idx = rng.choice(base)
            poly = poly * SuperPoly.generator_monomial(
                chart, chart.generators[idx])
    if allow_symbols and rng.random() < 0.5:
        poly = poly * SuperPoly.symbol(chart, rng.choice(SYMBOL_NAMES))
    out = poly * random_coeff(rng)
    if rng.random() < 0.3:
        out = out + random_coeff(rng)
    return out


def random_section(chart, rng, *, max_terms=3, allow_symbols=True):
    """Random symplectic-weight-1 element with function coefficients."""
    ones = [g for g in chart.generators
            if chart.symplectic_weight(g.weight) == 1]
    if not ones:
        raise SamplingError("chart %s has no weight-1 sector" % chart.name)
    total = chart.zero()
    for _ in range(rng.randint(1, max_terms)):
        g = rng.choice(ones)
        coeff = random_base_function(chart, rng, allow_symbols=allow_symbols)
        total = total + coeff * SuperPoly.generator_monomial(chart, g)
    if total.is_zero:
        g = rng.choice(ones)
        total = SuperPoly.generator_monomial(chart, g)
    return total


def monomials_of_weight(chart, *, symplectic=None, weight_vector=None,
                        parity=None, max_base_exp=2):
    """All exponent-bounded monomials of the requested weight, coefficient 1.

    Exactly one of symplectic / weight_vector must be given.  Weight-zero
    even generators are capped at max_base_exp; everything else is capped
    by the weight budget.  Deterministic order.
    """
    assert (symplectic is None) != (weight_vector is None)
    gens = chart.generators
    zero_w = tuple([0] * chart.axes)

    def fits(total):
        if weight_vector is not None:
            return all(t <= w for t, w in zip(total, weight_vector))
        return chart.symplectic_weight(total) <= symplectic

    def done(total):
        if weight_vector is not None:
            return tuple(total) == tuple(weight_vector)
        return chart.symplectic_weight(total) == symplectic

    def cap_for(g, total):
        if g.parity == ODD:
            return 1
        if weight_vector is not None:
            caps = [(b - t) // w
                    for b, t, w in zip(weight_vector, total, g.weight) if w]
            return min(caps) if caps else max_base_exp
        wsym = chart.symplectic_weight(g.weight)
        if wsym == 0:
            return max_base_exp
        return (symplectic - chart.symplectic_weight(total)) // wsym

    out = []

    def rec(i, total, even, odd):
        if i == len(gens):
            if done(total) and (parity is None or (len(odd) & 1) == parity):
                key = ((), tuple(even), tuple(odd))
                out.append(SuperPoly(chart, {key: Fraction(1)}))
            return
        g = gens[i]
        for e in range(cap_for(g, total) + 1):
            if e == 0:
                rec(i + 1, total, even, odd)
                continue
            new_total = tuple(a + e * w for a, w in zip(total, g.weight))
            if not fits(new_total):
                break
            if g.parity == ODD:
                rec(i + 1, new_total, even, odd + [g.index])
            else:
                rec(i + 1, new_total, even + [(g.index, e)], odd)

    rec(0, zero_w, [], [])
    return out


def random_potential(chart, rng, *, weight_vector=None, max_terms=3,
                     allow_symbols=True, max_base_exp=2, tries=40):
    """Random odd potential: symplectic weight 3, or a bi-weight target."""
    if weight_vector is not None:
        pool = monomials_of_weight(chart, weight_vector=weight_vector,
                                   parity=ODD, max_base_exp=max_base_exp)
    else:
        pool = monomials_of_weight(chart, symplectic=3, parity=ODD,
                                   max_base_exp=max_base_exp)
    assert pool, "chart has no odd monomials of the requested weight"
    for _ in range(tries):
        picks = rng.sample(pool, min(rng.randint(1, max_terms), len(pool)))
        total = chart.zero()
        for m in picks:
            c = random_coeff(rng)
            if allow_symbols and chart.true_base_indices and rng.random() < 0.4:
                total = total + (
                    SuperPoly.symbol(chart, rng.choice(SYMBOL_NAMES)) * m * c)
            else:
                total = total + m * c
        if not total.is_zero:
            return total
    return pool[0]
