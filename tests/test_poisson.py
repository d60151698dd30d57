import random

import draws
import oracles
from axioms import check_poisson_axioms, poisson_families
from superpoisson import gallery, poisson
from superpoisson.charts import hyperbolic_metric, make_darboux_chart
from superpoisson.poisson import bracket
from superpoisson.superpoly import parse_expr, to_text


def test_axioms_darboux():
    check_poisson_axioms(poisson_families()[0], random.Random(101), 60)


def test_axioms_antivb():
    check_poisson_axioms(poisson_families()[1], random.Random(102), 60)


def test_axioms_lifted():
    check_poisson_axioms(poisson_families()[2], random.Random(103), 60)


def test_literal_darboux_formula_identity_metric():
    ch = make_darboux_chart(2, 3)
    rng = random.Random(21)
    for _ in range(50):
        X = draws.random_homogeneous(ch, rng)
        Y = draws.random_homogeneous(ch, rng)
        assert oracles.darboux_literal_bracket(X, Y) == bracket(X, Y)


def test_literal_darboux_formula_hyperbolic_metric():
    ch = make_darboux_chart(1, 4, metric=hyperbolic_metric(2))
    rng = random.Random(22)
    for _ in range(50):
        X = draws.random_homogeneous(ch, rng)
        Y = draws.random_homogeneous(ch, rng)
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
