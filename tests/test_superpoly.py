import random
from fractions import Fraction

import pytest

import draws
import oracles
from superpoisson import complexes, courant, gallery, lifts
from superpoisson.charts import make_cotangent_antivb_chart, make_darboux_chart
from superpoisson.poisson import bracket
from superpoisson.superpoly import (ParseError, SuperPoly, left_partial,
                                    parse_expr, substitute, to_text)


def chart():
    return make_darboux_chart(2, 3)


def test_odd_generators_anticommute():
    ch = chart()
    a = ch.gen("xi1")
    b = ch.gen("xi2")
    assert a * b == b * a * Fraction(-1)
    assert (a * b + b * a).is_zero


def test_odd_square_is_zero():
    ch = chart()
    assert (ch.gen("xi1") * ch.gen("xi1")).is_zero


def test_even_generators_commute():
    ch = chart()
    assert ch.gen("x1") * ch.gen("p2") == ch.gen("p2") * ch.gen("x1")


def test_constant_arithmetic():
    ch = chart()
    two = SuperPoly.constant(ch, Fraction(2))
    five = SuperPoly.constant(ch, Fraction(5))
    assert two + five == SuperPoly.constant(ch, Fraction(7))
    assert two * five == SuperPoly.constant(ch, Fraction(10))
    assert (two - two).is_zero
    assert two == 2


def test_power():
    ch = chart()
    x = ch.gen("x1")
    assert x ** 3 == x * x * x
    assert (ch.gen("xi1") ** 2).is_zero


def test_random_ring_axioms():
    ch = chart()
    rng = random.Random(11)
    for _ in range(40):
        a = draws.random_homogeneous(ch, rng)
        b = draws.random_homogeneous(ch, rng)
        c = draws.random_homogeneous(ch, rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_parity_and_weight_accessors():
    ch = chart()
    P = ch.gen("xi1") * ch.gen("p1")
    key = next(iter(P.terms))
    assert P.term_parity(key) == 1
    assert P.term_weight(key) == (3,)
    assert P.parity() == 1
    assert ch.zero().parity() is None


def test_parse_round_trip_random():
    ch = chart()
    rng = random.Random(5)
    for _ in range(30):
        P = draws.random_homogeneous(ch, rng)
        Q = draws.random_homogeneous(ch, rng)
        total = P + Q
        again = parse_expr(ch, to_text(total))
        assert again == total


def test_parse_rationals_and_jets():
    ch = chart()
    P = parse_expr(ch, "1/2*x1^2*xi1 - 3*D[f; x1, x2]*p2")
    back = parse_expr(ch, to_text(P))
    assert back == P
    assert "f" in P.symbol_names()


def test_parse_argument_sugar():
    ch = chart()
    assert parse_expr(ch, "f(x1)") == parse_expr(ch, "f")
    with pytest.raises(ParseError):
        parse_expr(ch, "f(p1)")


def test_parse_unary_minus():
    ch = chart()
    assert parse_expr(ch, "-x1 + x1").is_zero


def test_parse_error_has_position():
    ch = chart()
    with pytest.raises(ParseError) as err:
        parse_expr(ch, "x1 + * xi2")
    assert "offset" in str(err.value)


def test_parse_huge_exponent_is_one_term():
    ch = chart()
    P = parse_expr(ch, "x1^1000000000")
    assert to_text(P) == "x1^1000000000"
    assert parse_expr(ch, to_text(P)) == P
    assert parse_expr(ch, "x1^0") == ch.one()
    assert parse_expr(ch, "xi1^1") == ch.gen("xi1")


def test_parse_rejects_odd_exponent():
    ch = chart()
    with pytest.raises(ParseError):
        parse_expr(ch, "xi1^2")


def test_left_derivative_oracle_matches_simple_cases():
    ch = chart()
    x1 = ch.name_to_index["x1"]
    xi1 = ch.name_to_index["xi1"]
    xi2 = ch.name_to_index["xi2"]
    P = parse_expr(ch, "x1^3*xi1*xi2")
    assert oracles.left_derivative(P, x1) == parse_expr(ch, "3*x1^2*xi1*xi2")
    assert oracles.left_derivative(P, xi1) == parse_expr(ch, "x1^3*xi2")
    assert oracles.left_derivative(P, xi2) == parse_expr(ch, "-x1^3*xi1")
    S = parse_expr(ch, "g*p1")
    assert oracles.left_derivative(S, x1) == parse_expr(ch, "D[g; x1]*p1")


def test_substitute_identity_and_scaling():
    ch = make_cotangent_antivb_chart(1, 2)
    P = parse_expr(ch, "x1*xi1*p1 + xi1*xi2")
    same = substitute(P, {})
    assert same == P
    doubled = substitute(P, {"xi1": ch.gen("xi1") * Fraction(2)})
    assert doubled == parse_expr(ch, "2*x1*xi1*p1 + 2*xi1*xi2")


def _is_int_first(c):
    """An int, or a Fraction that is not integral; never a float or bool."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_catalogue_results_store_coefficients_int_first():
    seen = set()
    lifted = 0
    for name in gallery.names():
        inst = gallery.build(name)
        T = inst.default_potential
        polys = [courant.classify(T).sigma]
        polys += [complexes.q_theta(T, el) for el in inst.l_elements]
        try:
            flat = lifts.flatten_chart(inst.chart)
        except lifts.LiftError:
            pass  # a chart with a non-symplectic axis does not flatten
        else:
            polys.append(lifts.complete_lift(lifts.flatten_poly(T, flat), 3))
            lifted += 1
        for P in polys:
            for c in P.terms.values():
                assert _is_int_first(c), (name, repr(c))
                seen.add(type(c))
        # the chart's own data stays Fraction, so 1 / c is exact
        ch = inst.chart
        given = list(ch.pairing.values())
        given += [c for i in range(len(ch.generators))
                  for _, c in ch.conjugates(i)]
        if ch.metric is not None:
            given += [x for row in ch.metric[1] for x in row]
        assert all(type(c) is Fraction for c in given), name
    assert lifted == 13
    assert seen == {int, Fraction}


def test_integral_coefficients_are_stored_as_int():
    ch = chart()
    half = parse_expr(ch, "1/2*x1")
    assert list(half.terms.values()) == [Fraction(1, 2)]
    (c,) = (half * 2).terms.values()
    assert type(c) is int and c == 1
    (c,) = (half + half).terms.values()
    assert type(c) is int and c == 1
    # products, sums of products, derivatives and brackets of halves
    x1_plus_x2 = parse_expr(ch, "x1 + x2")
    for P in (half * parse_expr(ch, "2*x2"),
              parse_expr(ch, "1/2*x1 + 1/2*x2") * x1_plus_x2,
              left_partial(parse_expr(ch, "1/2*x1^2"), "x1"),
              bracket(parse_expr(ch, "1/2*p1^2"), ch.gen("x1"))):
        assert all(map(_is_int_first, P.terms.values())), to_text(P)
        assert int in set(map(type, P.terms.values())), to_text(P)
    P = parse_expr(ch, "-3/2*x1*xi1 + 5/2*D[f; x1]*p2 + 2*xi2")
    again = parse_expr(ch, to_text(P))
    assert again == P
    assert sorted(map(repr, again.terms.values())) \
        == ["2", "Fraction(-3, 2)", "Fraction(5, 2)"]
    with pytest.raises(TypeError):
        P * 0.5
    with pytest.raises(TypeError):
        0.5 * P
