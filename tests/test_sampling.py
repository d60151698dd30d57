"""The sampler's draws: the integral multiples of the reference draws,
which the identity sweep of ``superpoisson check`` evaluates its rows on."""

import hashlib
import math
import random
from fractions import Fraction

import draws
from superpoisson import cli, courant, gallery, sampling
from superpoisson.charts import chart_from_json, chart_to_json
from superpoisson.poisson import bracket
from superpoisson.superpoly import to_text

SEEDS = range(10)


def typed_terms(P):
    """P's terms with each coefficient's type, so an integral Fraction
    does not pass for the int it equals."""
    return [(key, type(c), c) for key, c in P.items()]


def assert_draws_multiple(draw, reference, chart, seed):
    """draw makes integral_multiple(reference) with int coefficients, and
    leaves the rng where reference leaves it."""
    where = (chart.name, seed)
    ours, theirs = random.Random(seed), random.Random(seed)
    got = draw(chart, ours)
    want = draws.integral_multiple(reference(chart, theirs))
    assert got.chart is want.chart
    assert all(type(c) is int for c in got.terms.values()), where
    assert typed_terms(got) == typed_terms(want), where
    assert ours.getstate() == theirs.getstate(), where
    return got


def test_draws_are_the_integral_multiples_of_the_reference():
    for name in gallery.names():
        chart = gallery.build(name).chart
        for seed in range(200):
            assert_draws_multiple(sampling.random_section,
                                  draws.reference_section, chart, seed)
            assert_draws_multiple(sampling.random_base_function,
                                  draws.reference_base_function, chart, seed)


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
        got = assert_draws_multiple(sampling.random_section,
                                    draws.reference_section, chart, seed)
        assert got.parity() is not None, seed
        parities.add(got.parity())
    assert parities == {0, 1}


def multiplier(P):
    """The lcm of the denominators of P's coefficients."""
    return math.lcm(*(Fraction(c).denominator for c in P.terms.values()))


def test_integral_multiple_clears_every_denominator():
    rng = random.Random(7)
    chart = gallery.build("quasi_poisson").chart
    scaled = 0
    for _ in range(200):
        P = draws.reference_section(chart, rng)
        Q = draws.integral_multiple(P)
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
                drawn = dict(s=draws.reference_section(chart, rng),
                             p=draws.reference_section(chart, rng),
                             l=draws.reference_section(chart, rng),
                             f=draws.reference_base_function(chart, rng))
                scale = {k: multiplier(x) for k, x in drawn.items()}
                fractional += any(m > 1 for m in scale.values())
                ints = {k: draws.integral_multiple(x)
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


# sha256 of the to_text of every s, p, l and f the identity sweep evaluates
# its rows on, for every catalogue name, seeds 0-9 and 4 samples, one line
# per input in the order the rows receive them; taken from the sweep that
# scaled Fraction draws to their integral multiples.
SWEEP_INPUTS_SHA256 = (
    "94e04e8590932a1dd3475a801609b34c674dbade2d54a575cea887560f0e13a0")


def test_the_sweep_evaluates_its_rows_on_pinned_inputs(monkeypatch):
    lines = []
    anchor_defect = courant.anchor_defect
    via_master = courant.jacobiator_via_master

    def recording_anchor_defect(pair, tt, f):
        lines.append("f " + to_text(f))
        return anchor_defect(pair, tt, f)

    def recording_via_master(tt, s, p, l):
        lines.extend("%s %s" % (k, to_text(x))
                     for k, x in zip("spl", (s, p, l)))
        return via_master(tt, s, p, l)

    monkeypatch.setattr(courant, "anchor_defect", recording_anchor_defect)
    monkeypatch.setattr(courant, "jacobiator_via_master",
                        recording_via_master)
    for name in gallery.names():
        inst = gallery.build(name)
        tt = bracket(inst.default_potential, inst.default_potential)
        for seed in SEEDS:
            lines.append("%s %d" % (name, seed))
            rows = cli.identity_sweep(inst, tt, random.Random(seed), 4)
            assert all(row["ok"] for row in rows), (name, seed)
    assert len(lines) == 16 * len(SEEDS) * (1 + 4 * 4)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SWEEP_INPUTS_SHA256
