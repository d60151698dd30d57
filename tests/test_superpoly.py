import itertools
import random
from fractions import Fraction

import pytest

import draws
import oracles
import routes
from superpoisson import cli, complexes, courant, gallery, lifts
from superpoisson.charts import make_cotangent_antivb_chart, make_darboux_chart
from superpoisson.poisson import bracket
from superpoisson.superpoly import (ParseError, SuperPoly, left_gradient,
                                    left_partial, mul_terms_into, parse_expr,
                                    substitute, to_text)


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
    assert ch.term_grading(key) == (3, 0)
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


def assert_product(acc, left, right, scale):
    """mul_terms_into on a copy of acc against acc plus the oracle product,
    and every stored coefficient nonzero and int-first."""
    want = dict(acc)
    for key, c in oracles.ordered_product(
            left, right, 1 if scale is None else scale).items():
        want[key] = want.get(key, 0) + c
    want = {key: c for key, c in want.items() if c}
    got = dict(acc)
    mul_terms_into(got, left, right, scale)
    assert got == want, (left, right, scale)
    assert all(c and (type(c) is int or c.denominator > 1)
               for c in got.values())


def test_products_agree_with_the_ordered_word_oracle():
    # odd lengths 0..4 on each side, overlapping indices, shared even
    # indices, several symbols with jets, and int and Fraction scales
    rng = random.Random(31)
    ch = make_darboux_chart(3, 8)
    for n1 in range(5):
        for n2 in range(5):
            for _ in range(12):
                left = draws.random_terms(ch, rng, n1, rng.randint(1, 3))
                right = draws.random_terms(ch, rng, n2, rng.randint(1, 3))
                scale = rng.choice((None, 2, -1, Fraction(2, 3)))
                assert_product({}, left, right, scale)


def test_every_odd_merge_of_up_to_three_indices_agrees_with_the_oracle():
    # every pair of odd parts of length 1-3 over a 6-index pool, so each
    # interleaving, each Koszul sign and each repeated index occurs
    ch = make_darboux_chart(1, 6)
    pool = [g.index for g in ch.generators if g.parity]
    assert len(pool) == 6
    parts = [o for n in (1, 2, 3) for o in itertools.combinations(pool, n)]
    for o1 in parts:
        for o2 in parts:
            assert_product({}, {((), (), o1): Fraction(1, 2)},
                           {((), (), o2): 3}, 2)


def test_products_cancel_inside_a_filled_accumulator():
    # acc holds minus part of the product, so some keys sum to zero and
    # must leave acc, and some unrelated keys stay as they are
    rng = random.Random(32)
    ch = make_darboux_chart(2, 6)
    few = [g.index for g in ch.generators if g.parity][:4]
    cancelled = 0
    for r in range(200):
        left = draws.random_terms(ch, rng, rng.randint(0, 3),
                                  rng.randint(1, 3), odd_pool=few)
        right = draws.random_terms(ch, rng, rng.randint(0, 2),
                                   rng.randint(1, 3))
        scale = rng.choice((None, 3, Fraction(-1, 2)))
        product = oracles.ordered_product(
            left, right, 1 if scale is None else scale)
        acc = {key: -c for key, c in product.items() if rng.random() < 0.5}
        acc.update(draws.random_terms(ch, rng, 1, 2))
        cancelled += sum(1 for key, c in acc.items()
                         if product.get(key, 0) + c == 0)
        assert_product(SuperPoly(ch, acc).terms, left, right, scale)
    assert cancelled > 100


def test_terms_take_only_int_or_fraction_coefficients():
    ch = chart()
    key = ((), ((0, 1),), ())
    for bad in (0.1, 1.0, "1/3", None, 1j):
        with pytest.raises(TypeError):
            SuperPoly(ch, {key: bad})
    for given, want in ((3, 3), (True, 1), (Fraction(4, 2), 2),
                        (Fraction(1, 3), Fraction(1, 3))):
        (c,) = SuperPoly(ch, {key: given}).terms.values()
        assert c == want and type(c) is type(want)
    assert SuperPoly(ch, {key: 0, ((), (), ()): Fraction(0)}).is_zero


@pytest.mark.parametrize("key, problem", [
    (((), (), (3, 2)), "odd part is not strictly ascending"),
    (((), (), (2, 2)), "odd part is not strictly ascending"),
    (((), ((1, 1), (0, 1)), ()), "even part is not strictly ascending"),
    (((), ((0, 1), (0, 2)), ()), "even part is not strictly ascending"),
    (((), ((0, 0),), ()), "even exponent below 1"),
    (((("g", ()), ("f", ())), (), ()), "symbol part is not sorted"),
    (((("f", (1, 0)),), (), ()), "symbol part is not sorted"),
])
def test_terms_refuse_a_key_out_of_canonical_form(key, problem):
    # Equality is dict equality and products bisect odd parts, so a key
    # stored as given made xi2*xi1 unequal to -xi1*xi2 and xi1*xi1
    # nonzero.  from_clean_terms takes its keys on trust.
    ch = make_darboux_chart(1, 2)
    with pytest.raises(ValueError) as refused:
        SuperPoly(ch, {key: 1})
    assert str(refused.value) == "term key %r: %s" % (key, problem)
    assert SuperPoly.from_clean_terms(ch, {key: 1}).terms == {key: 1}
    xi1, xi2 = ch.gen("xi1"), ch.gen("xi2")
    assert SuperPoly(ch, {((), (), (2, 3)): -1}) == -xi1 * xi2 == xi2 * xi1


def test_substitute_identity_and_scaling():
    ch = make_cotangent_antivb_chart(1, 2)
    P = parse_expr(ch, "x1*xi1*p1 + xi1*xi2")
    same = substitute(P, {})
    assert same == P
    doubled = substitute(P, {"xi1": ch.gen("xi1") * Fraction(2)})
    assert doubled == parse_expr(ch, "2*x1*xi1*p1 + 2*xi1*xi2")


def _same_parity_draw(chart, rng, parity):
    while True:
        P = draws.random_homogeneous(chart, rng)
        if P.parity() == parity:
            return P


@pytest.mark.parametrize("name", gallery.names())
def test_substitute_agrees_with_ordered_products(name):
    # Up to three generators outside the true base go to same-parity
    # draws; the rest, and every jet index, go to themselves.
    chart = gallery.build(name).chart
    rng = random.Random(name)
    movable = [g for g in chart.generators if not g.is_true_base]
    for r in range(12):
        P = draws.random_homogeneous(chart, rng)
        genmap = {g.name: _same_parity_draw(chart, rng, g.parity)
                  for g in rng.sample(movable, rng.randint(1, 3))}
        got = substitute(P, genmap)
        assert got == routes.substitute_by_products(P, genmap, chart), (
            r, to_text(P), {k: to_text(v) for k, v in genmap.items()})


def test_substitute_refuses_a_jet_index_off_the_base():
    ch = make_cotangent_antivb_chart(1, 2)
    P = ch.symbol("f", ("x1",)) * ch.gen("xi1")
    for image, message in ((ch.gen("x1") * 2, "single base generator"),
                           (ch.gen("p1"), "weight-zero even sector")):
        with pytest.raises(ValueError, match=message):
            substitute(P, {"x1": image})


@pytest.mark.parametrize("text", ["pi1*²", "²", "pi1^²", "1/²", "pi1²"])
def test_a_superscript_digit_is_not_a_number(text):
    chart = gallery.build("cross3").chart
    with pytest.raises(ParseError, match="unexpected character '²'"):
        parse_expr(chart, text)


@pytest.mark.parametrize("text, pos", [("R^2", 1), ("D[R; x1]^2", 8),
                                       ("f(x1)^2", 5), ("x1^2^3", 4)])
def test_only_a_generator_takes_an_exponent(text, pos):
    chart = gallery.build("rflux").chart
    with pytest.raises(ParseError) as info:
        parse_expr(chart, text)
    assert (info.value.message, info.value.pos) == (
        "only a generator takes an exponent", pos)


def assert_int_first(P):
    """Refuse a zero coefficient of P, and any coefficient that is not an
    int or a non-integral Fraction (a float, a bool, Fraction(2, 1)).

    Term-dict equality treats Fraction(1) as 1, so only a type test sees
    a coefficient that skipped normalisation.
    """
    for key, c in P.terms.items():
        assert c != 0 and (
            type(c) is int
            or (type(c) is Fraction and c.denominator != 1)), (
                to_text(P), key, repr(c))


def test_catalogue_results_store_coefficients_int_first():
    seen = set()
    lifted = 0
    differentials = 0
    for name in gallery.names():
        inst = gallery.build(name)
        T = inst.default_potential
        polys = [courant.classify(T).sigma]
        polys += [complexes.q_theta(T, el) for el in inst.l_elements]
        if inst.l_elements:
            basis, dual = complexes.section_frame(inst.chart)
            polys += [
                complexes.classical_naive_differential(T, el, basis, dual)
                for el in inst.l_elements]
            differentials += len(inst.l_elements)
        try:
            flat = lifts.flatten_chart(inst.chart)
        except lifts.LiftError:
            pass  # a chart with a non-symplectic axis does not flatten
        else:
            polys.append(lifts.complete_lift(lifts.flatten_poly(T, flat), 3))
            lifted += 1
        for P in polys:
            assert_int_first(P)
            seen.update(map(type, P.terms.values()))
        # the chart's pairing seeds and metric stay Fraction, so 1 / c is exact
        ch = inst.chart
        given = [c for _, _, c in ch.pairing_given]
        if ch.metric is not None:
            given += [x for row in ch.metric[1] for x in row]
        assert all(type(c) is Fraction for c in given), name
    assert lifted == 13
    assert differentials >= 20
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
        assert_int_first(P)
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


SCALARS = (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(4, 2), True)


def _scalar_charts():
    return (chart(), make_cotangent_antivb_chart(2, 2))


def test_scalar_products_store_coefficients_int_first():
    rng = random.Random(15)
    for ch in _scalar_charts():
        for _ in range(20):
            P = draws.random_homogeneous(ch, rng)
            for c in SCALARS:
                want = {k: Fraction(v) * c for k, v in P.terms.items() if c}
                for Q in (P * c, c * P):
                    assert_int_first(Q)
                    assert Q.chart is ch and Q.terms == want, (to_text(P), c)
            assert P * 1 is P
            assert P * True is P


def test_a_scalar_minus_an_element_is_the_negated_difference():
    rng = random.Random(18)
    for ch in _scalar_charts():
        for _ in range(10):
            P = draws.random_homogeneous(ch, rng)
            for c in (3, Fraction(-5, 2)):
                Q = c - P
                assert_int_first(Q)
                assert Q == -(P - c) and Q.chart is ch, (to_text(P), c)
                assert Q + P == c


def test_constants_and_scalar_brackets_store_coefficients_int_first():
    rng = random.Random(16)
    for ch in _scalar_charts():
        for c in SCALARS:
            K = SuperPoly.constant(ch, c)
            assert_int_first(K)
            assert K == c and K.terms == ({((), (), ()): c} if c else {})
        for _ in range(10):
            X = draws.random_homogeneous(ch, rng)
            for c in (3, Fraction(1, 2)):
                B = bracket(X, c)
                assert_int_first(B)
                assert B.is_zero and B.chart is ch
    with pytest.raises(TypeError):
        SuperPoly.constant(chart(), 0.5)


def test_products_and_comparisons_across_charts():
    rng = random.Random(17)
    for _ in range(10):
        P = draws.random_homogeneous(chart(), rng)
        Q = draws.random_homogeneous(chart(), rng)
        with pytest.raises(ValueError):
            P * Q
        with pytest.raises(ValueError):
            P + Q
        assert (P == Q) is False
        assert (P != Q) is True


def test_no_kept_gradient_goes_stale(monkeypatch, capsys):
    # A kept gradient is right only while its element's terms stay as they
    # were when it was taken.  Run the check path, the complete lifts and
    # the classical differential, then compare every element that kept a
    # gradient with its terms at that time and with a fresh gradient.  The
    # differential keeps those of theta, psi, the anchor vectors, the
    # derived brackets and the walk's nodes.
    kept = []
    original = SuperPoly.gradient

    def recording(self, wanted=None):
        if self._gradient is None and wanted is None:
            kept.append((self, dict(self.terms)))
        return original(self, wanted)

    monkeypatch.setattr(SuperPoly, "gradient", recording)
    for name in gallery.INSTANCE_NAMES:
        assert cli.main(["check", name, "--seed", "0"]) == 0, name
    capsys.readouterr()
    differential_inputs = []
    for name in gallery.INSTANCE_NAMES:
        inst = gallery.build(name)
        T = inst.default_potential
        if inst.l_elements:
            basis, dual = complexes.section_frame(inst.chart)
            for el in inst.l_elements:
                complexes.classical_naive_differential(T, el, basis, dual)
            differential_inputs += [T, *inst.l_elements]
        if inst.lift_k is not None and inst.chart.lift_degree is None:
            low = lifts.flatten_poly(T, lifts.flatten_chart(inst.chart))
            for k in (2, 3):
                courant.classify(lifts.complete_lift(low, k))
    assert len(differential_inputs) == 16 + 51
    assert all(any(P is X for P, _ in kept) for X in differential_inputs)
    for P, terms in kept:
        assert P.terms == terms, to_text(P)
        assert P.gradient() == left_gradient(P), to_text(P)
