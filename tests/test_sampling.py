"""The sampler's draws, and the integer multiples of them that the
identity sweep of ``superpoisson check`` evaluates its rows on."""

import math
import random
from fractions import Fraction

import draws
from superpoisson import courant, gallery, sampling
from superpoisson.charts import chart_from_json, chart_to_json
from superpoisson.poisson import bracket

SEEDS = range(10)


def typed_terms(P):
    """P's terms with each coefficient's type, so an integral Fraction
    does not pass for the int it equals."""
    return [(key, type(c), c) for key, c in P.items()]


def test_draws_equal_the_superpoly_reference():
    for name in gallery.names():
        chart = gallery.build(name).chart
        for seed in range(200):
            for draw, reference in (
                    (sampling.random_section, draws.reference_section),
                    (sampling.random_base_function,
                     draws.reference_base_function)):
                ours, theirs = random.Random(seed), random.Random(seed)
                got, want = draw(chart, ours), reference(chart, theirs)
                assert got.chart is want.chart
                assert typed_terms(got) == typed_terms(want), (name, seed)
                assert ours.random() == theirs.random(), (name, seed)


def test_sections_take_the_parity_of_their_first_generator():
    # cross3's chart with an even conjugate pair beside the odd weight-1
    # generators: a section mixing the two would have no parity.
    doc = chart_to_json(gallery.build("cross3").chart)
    doc["n_manifold"] = False
    doc["generators"] += [{"name": "e1", "parity": "even", "weight": [1, 0]},
                          {"name": "e2", "parity": "even", "weight": [0, 1]}]
    doc["pairing"].append(["e1", "e2", "1"])
    chart = chart_from_json(doc)
    parities = set()
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        got = sampling.random_section(chart, ours)
        assert got.parity() is not None, seed
        parities.add(got.parity())
        want = draws.reference_section(chart, theirs)
        assert typed_terms(got) == typed_terms(want), seed
        assert ours.random() == theirs.random(), seed
    assert parities == {0, 1}


def multiplier(P):
    """The lcm of the denominators of P's coefficients."""
    return math.lcm(*(Fraction(c).denominator for c in P.terms.values()))


def test_integral_multiple_clears_every_denominator():
    rng = random.Random(7)
    chart = gallery.build("quasi_poisson").chart
    scaled = 0
    for _ in range(200):
        P = sampling.random_section(chart, rng)
        Q = sampling.integral_multiple(P)
        assert Q == P * multiplier(P)
        assert all(type(c) is int for c in Q.terms.values())
        scaled += multiplier(P) > 1
    assert scaled > 50


def summands(T, tt, s, p, l, f, alpha):
    """(name, value, names of the inputs it is linear in) of each summand
    of the four rows of the identity sweep, each computed on its own."""
    pre = lambda a, b: courant.pre_bracket(T, a, b)  # noqa: E731
    T_f = bracket(T, f)
    return [
        ("[[s,p]]", pre(s, p), "sp"),
        ("{T,<s,p>}", bracket(T, courant.pairing(s, p)), "sp"),
        ("rho(s)rho(p)f",
         courant.anchor_apply(T, s, courant.anchor_apply(T, p, f)), "spf"),
        ("{{{tt,f},s},p}", bracket(bracket(bracket(tt, f), s), p), "fsp"),
        ("[[s,[[p,l]]]]", pre(s, pre(p, l)), "spl"),
        ("[[[[s,p]],l]]", pre(pre(s, p), l), "spl"),
        ("[[p,[[s,l]]]]", pre(p, pre(s, l)), "spl"),
        ("{{{tt,s},p},l}", bracket(bracket(bracket(tt, s), p), l), "spl"),
        ("iota_f(Q a)", bracket(T_f, bracket(T, alpha)), "fa"),
        ("Q(iota_f a)", bracket(T, bracket(T_f, alpha)), "fa"),
        ("{{T,{T,f}},a}", bracket(bracket(T, T_f), alpha), "fa"),
    ]


def test_summands_on_the_integer_multiples_scale_by_the_multipliers():
    # Every row of the sweep is a sum of these summands, each linear in
    # each of its inputs, so a row on the integer multiples of the draws
    # is a positive integer times the row on the draws.  The rows vanish,
    # so the scaling is checked on the summands, which mostly do not; the
    # draws carry Fraction coefficients through every bracket here.
    nonzero = {}
    fractional = 0
    for name in gallery.names():
        inst = gallery.build(name)
        chart = inst.chart
        if not chart.section_indices:
            continue
        T = inst.default_potential
        tt = bracket(T, T)
        for seed in SEEDS:
            rng = random.Random(seed)
            for i in range(2):
                drawn = dict(s=sampling.random_section(chart, rng),
                             p=sampling.random_section(chart, rng),
                             l=sampling.random_section(chart, rng),
                             f=sampling.random_base_function(chart, rng))
                scale = {k: multiplier(x) for k, x in drawn.items()}
                fractional += any(m > 1 for m in scale.values())
                ints = {k: sampling.integral_multiple(x)
                        for k, x in drawn.items()}
                # the sweep's alpha: s on odd samples, s*l on even ones
                for d in (drawn, ints):
                    d["a"] = d["s"] if i % 2 else d["s"] * d["l"]
                scale["a"] = scale["s"] * (1 if i % 2 else scale["l"])
                args = ("s", "p", "l", "f", "a")
                pairs = zip(summands(T, tt, *(drawn[k] for k in args)),
                            summands(T, tt, *(ints[k] for k in args)))
                for (label, value, linear), (_, scaled, _) in pairs:
                    factor = math.prod(scale[k] for k in linear)
                    assert scaled == value * factor, (name, seed, i, label)
                    nonzero[label] = nonzero.get(label, 0) + (
                        not value.is_zero)
    assert fractional > 100
    assert all(count > 0 for count in nonzero.values()), nonzero
    assert len(nonzero) == 11
