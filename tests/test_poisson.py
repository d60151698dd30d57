import random

import oracles
from superpoisson import gallery, lifts, poisson, sampling
from superpoisson.charts import (hyperbolic_metric, make_cotangent_antivb_chart,
                                 make_darboux_chart)
from superpoisson.poisson import bracket
from superpoisson.superpoly import parse_expr, to_text


def family_charts():
    lifted = lifts.tangent_lift_chart(
        lifts.flatten_chart(make_cotangent_antivb_chart(1, 2)), 3)
    return [make_darboux_chart(2, 4), make_cotangent_antivb_chart(2, 3),
            lifted]


def pairing_drop(chart):
    drops = set()
    for (g, h), _c in chart.pairing.items():
        wg = chart.generators[g].weight
        wh = chart.generators[h].weight
        drops.add(tuple(a + b for a, b in zip(wg, wh)))
    assert len(drops) == 1
    return drops.pop()


def sign(a, b):
    return -1 if (a & b) else 1


def run_axioms(chart, rng, rounds):
    drop = pairing_drop(chart)
    for _ in range(rounds):
        X = sampling.random_homogeneous(chart, rng, max_factors=2)
        Y = sampling.random_homogeneous(chart, rng, max_factors=2)
        Z = sampling.random_homogeneous(chart, rng, max_factors=2)
        px, py = X.parity(), Y.parity()
        skew = bracket(X, Y) + bracket(Y, X) * sign(px, py)
        assert skew.is_zero
        jac = (bracket(X, bracket(Y, Z)) - bracket(bracket(X, Y), Z)
               - bracket(Y, bracket(X, Z)) * sign(px, py))
        assert jac.is_zero
        leib = (bracket(X, Y * Z) - bracket(X, Y) * Z
                - Y * bracket(X, Z) * sign(px, py))
        assert leib.is_zero
        kx = next(iter(X.terms))
        ky = next(iter(Y.terms))
        want = tuple(a + b - d for a, b, d in
                     zip(X.term_weight(kx), Y.term_weight(ky), drop))
        out = bracket(X, Y)
        for key in out.terms:
            assert out.term_weight(key) == want


def test_axioms_darboux():
    run_axioms(family_charts()[0], random.Random(101), 60)


def test_axioms_antivb():
    run_axioms(family_charts()[1], random.Random(102), 60)


def test_axioms_lifted():
    run_axioms(family_charts()[2], random.Random(103), 60)


def test_literal_darboux_formula_identity_metric():
    ch = make_darboux_chart(2, 3)
    rng = random.Random(21)
    for _ in range(50):
        X = sampling.random_homogeneous(ch, rng)
        Y = sampling.random_homogeneous(ch, rng)
        assert oracles.darboux_literal_bracket(X, Y) == bracket(X, Y)


def test_literal_darboux_formula_hyperbolic_metric():
    ch = make_darboux_chart(1, 4, metric=hyperbolic_metric(2))
    rng = random.Random(22)
    for _ in range(50):
        X = sampling.random_homogeneous(ch, rng)
        Y = sampling.random_homogeneous(ch, rng)
        assert oracles.darboux_literal_bracket(X, Y) == bracket(X, Y)


def test_bracket_spot_values():
    ch = make_darboux_chart(1, 2)
    from superpoisson.superpoly import parse_expr
    assert bracket(ch.gen("p1"), ch.gen("x1")) == 1
    assert bracket(ch.gen("x1"), ch.gen("p1")) == -1
    assert bracket(ch.gen("xi1"), ch.gen("xi1")) == 1
    assert bracket(ch.gen("xi1"), ch.gen("xi2")).is_zero
    f = parse_expr(ch, "g")
    out = bracket(ch.gen("p1"), f)
    assert out == parse_expr(ch, "D[g; x1]")


def test_literal_darboux_formula_on_symbol_carriers():
    # A symbol's chain rule reaches the base coordinates even when no base
    # coordinate is written, so those pairs must not be skipped.
    ch = make_darboux_chart(2, 2)
    texts = ["g", "g*xi1", "g*xi2", "p1*xi1", "p1*xi2", "g*p1", "g*p2*xi1",
             "D[g; x1]*xi2", "g*h", "x1*h*xi2", "xi1*xi2", "p1*p2", "x2"]
    elements = [parse_expr(ch, t) for t in texts]
    for X in elements:
        for Y in elements:
            assert bracket(X, Y) == oracles.darboux_literal_bracket(X, Y), \
                (to_text(X), to_text(Y))
    assert bracket(parse_expr(ch, "g*xi1"), parse_expr(ch, "p1*xi2")) \
        == parse_expr(ch, "-D[g; x1]*xi1*xi2")


def test_bracket_differentiates_only_by_supported_generators(monkeypatch):
    calls = []
    original = poisson.left_partial

    def counting(P, g):
        calls.append(g.name)
        return original(P, g)

    monkeypatch.setattr(poisson, "left_partial", counting)
    ch = gallery.build("cross7").chart
    assert bracket(ch.gen("xi1"), ch.gen("xi2")).is_zero
    assert len(calls) <= 2, calls
    del calls[:]
    assert bracket(ch.gen("xi1"), ch.gen("pi1")) == 1
    assert calls == ["xi1", "pi1"]
