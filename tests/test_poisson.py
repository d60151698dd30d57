import random

import draws
import oracles
from axioms import check_poisson_axioms, poisson_families
from superpoisson import gallery, lifts, superpoly
from superpoisson.charts import hyperbolic_metric, make_darboux_chart
from superpoisson.poisson import bracket
from superpoisson.superpoly import (SuperPoly, left_gradient, parse_expr,
                                    to_text)


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
        assert oracles.darboux_literal_bracket(X, X) == bracket(X, X)


def test_literal_darboux_formula_hyperbolic_metric():
    ch = make_darboux_chart(1, 4, metric=hyperbolic_metric(2))
    rng = random.Random(22)
    for _ in range(50):
        X = draws.random_homogeneous(ch, rng)
        Y = draws.random_homogeneous(ch, rng)
        assert oracles.darboux_literal_bracket(X, Y) == bracket(X, Y)
        assert oracles.darboux_literal_bracket(X, X) == bracket(X, X)


def gradient_elements(rng):
    """(chart, element) pairs on which left derivatives are checked.

    Random sums mix parities and symbols; the fixed ones make chain-rule
    terms meet exponent terms and each other, and cancel.  The last ones
    draw term keys directly, so they carry two symbols whose jets sort on
    either side of a new jet index, exponents up to 3, and Fraction
    coefficients.
    """
    charts = poisson_families() + [make_darboux_chart(2, 2)]
    fixed = ["g*D[h; x1] + D[g; x1]*h", "g*D[h; x1] - D[g; x1]*h",
             "x1*D[g; x1] - g", "g - x1*D[g; x1]",
             "2*g*xi1 + x1*D[g; x1]*xi1", "x1^2*g*xi1 + 2*x1*h*xi1"]
    darboux = charts[-1]
    elements = [(darboux, parse_expr(darboux, t)) for t in fixed]
    for ch in charts:
        for _ in range(40):
            terms = [draws.random_monomial(ch, rng)
                     for _ in range(rng.randint(1, 4))]
            elements.append((ch, sum((m for m in terms if m is not None),
                                     ch.zero())))
    wide = make_darboux_chart(3, 3)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms.update(draws.random_terms(wide, rng, rng.randint(0, 3), 1))
        elements.append((wide, SuperPoly(wide, terms)))
    return elements


def test_left_gradient_equals_oracle_derivatives():
    rng = random.Random(23)
    reordered = 0
    for ch, P in gradient_elements(rng):
        grad = left_gradient(P)
        for g in ch.generators:
            want = oracles.left_derivative(P, g.index)
            assert SuperPoly(ch, grad.get(g.index, {})) == want, \
                (to_text(P), g.name)
            assert (g.index in grad) == (not want.is_zero)
        assert all(type(c) is int or c.denominator > 1
                   for d in grad.values() for c in d.values()), to_text(P)
        reordered += any(len(scal) == 2 and jets and jets[-1] > b
                         for scal, _, _ in P.terms for _, jets in scal
                         for b in ch.true_base_indices)
        wanted = set(rng.sample(range(len(ch.generators)),
                                rng.randint(0, len(ch.generators))))
        assert left_gradient(P, wanted) \
            == {gi: d for gi, d in grad.items() if gi in wanted}
    assert reordered >= 10, reordered


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


# Elements of make_darboux_chart(2, 2).  The mixed-parity elements at the
# end take the bracket's per-term sign.
SYMBOL_CARRIERS = ["g", "g*xi1", "g*xi2", "p1*xi1", "p1*xi2", "g*p1",
                   "g*p2*xi1", "D[g; x1]*xi2", "g*h", "x1*h*xi2", "xi1*xi2",
                   "p1*p2", "x2", "g + xi1", "p1*xi1 + x2",
                   "D[g; x1]*xi2 + p2", "x1*xi1*xi2 + h*xi2 - p1"]


def test_literal_darboux_formula_on_symbol_carriers():
    # A symbol's chain rule reaches the base coordinates even when no base
    # coordinate is written, so those pairs must not be skipped.
    ch = make_darboux_chart(2, 2)
    elements = [parse_expr(ch, t) for t in SYMBOL_CARRIERS]
    for X in elements:
        for Y in elements:
            assert bracket(X, Y) == oracles.darboux_literal_bracket(X, Y), \
                (to_text(X), to_text(Y))
    assert bracket(parse_expr(ch, "g*xi1"), parse_expr(ch, "p1*xi2")) \
        == parse_expr(ch, "-D[g; x1]*xi1*xi2")


def test_bracket_is_independent_of_which_side_is_differentiated_in_full():
    # The smaller argument is differentiated in full and the larger one
    # only where they meet (Y in full on a tie).  A gradient that either
    # side already keeps is read instead, so the four states below take
    # every branch; each must give the literal formula, in one term order.
    ch = make_darboux_chart(2, 2)
    pool = [parse_expr(ch, t) for t in SYMBOL_CARRIERS]

    def fresh(P):
        return SuperPoly(ch, dict(P.terms))

    # every ordered pair; on the diagonal the fresh copies are two distinct
    # elements with as many terms
    pairs = [(A, B) for A in pool for B in pool]
    sizes = {(len(A.terms) > len(B.terms)) - (len(A.terms) < len(B.terms))
             for A, B in pairs}
    assert sizes == {-1, 0, 1}
    for A, B in pairs:
        want = oracles.darboux_literal_bracket(A, B)
        orders = set()
        for keep_x in (False, True):
            for keep_y in (False, True):
                X, Y = fresh(A), fresh(B)
                if keep_x:
                    X.gradient()
                if keep_y:
                    Y.gradient()
                out = bracket(X, Y)
                assert out == want, (to_text(A), to_text(B), keep_x, keep_y)
                orders.add(tuple(out.terms))
        assert len(orders) == 1, (to_text(A), to_text(B))
        if A is B:
            # X is Y, first with no kept gradient, then with the one kept
            X = fresh(A)
            assert bracket(X, X) == want
            assert bracket(X, X) == want


def record_gradients(monkeypatch, elements=None):
    """Names of the derivative indices of each left_gradient pass, one
    sorted list per pass: SuperPoly.gradient takes every pass the bracket
    makes, of X and of Y.  The element of each pass is appended to
    elements when that list is given."""
    passes = []
    original = superpoly.left_gradient

    def counting(P, wanted=None):
        grad = original(P, wanted)
        passes.append(sorted(P.chart.generators[gi].name for gi in grad))
        if elements is not None:
            elements.append(P)
        return grad

    monkeypatch.setattr(superpoly, "left_gradient", counting)
    return passes


def test_bracket_differentiates_only_by_supported_generators(monkeypatch):
    passes = record_gradients(monkeypatch)
    ch = gallery.build("cross7").chart
    assert bracket(ch.gen("xi1"), ch.gen("xi2")).is_zero
    assert sum(len(names) for names in passes) <= 2, passes
    del passes[:]
    assert bracket(ch.gen("xi1"), ch.gen("pi1")) == 1
    assert sorted(name for names in passes for name in names) \
        == ["pi1", "xi1"]


def test_larger_side_is_differentiated_only_where_it_meets(monkeypatch):
    # One term against the quasi_poisson potential, whose symbols make its
    # full gradient reach every base coordinate: the potential is asked
    # only for p1 and pi1, the partners of the term's x1 and xs1.
    differentiated = []
    passes = record_gradients(monkeypatch, differentiated)
    T = gallery.build("quasi_poisson").default_potential
    ch = T.chart
    X = parse_expr(ch, "x1*xs1")
    assert len(X.terms) == 1 < len(T.terms)
    assert not bracket(X, T).is_zero
    assert [P is X for P in differentiated] == [True, False]
    partners = {ch.generators[hj].name for gi in X.gradient()
                for hj, _ in ch.pairing_rows.get(gi, ())}
    assert partners == {"p1", "pi1"}
    assert passes[1] and set(passes[1]) <= partners, passes
    assert len(passes[1]) < len(T.gradient())


def test_self_bracket_fold_equals_ordered_walk_on_catalogue_lifts():
    # A copy of T is a distinct object, so bracket(T, copy) walks every
    # ordered pairing entry; bracket(T, T) folds the unordered ones.
    for name in gallery.INSTANCE_NAMES:
        inst = gallery.build(name)
        if inst.lift_k is None or inst.chart.lift_degree is not None:
            continue
        flat = lifts.flatten_chart(inst.chart)
        low = lifts.flatten_poly(inst.default_potential, flat)
        for k in (2, 3, 4):
            T = lifts.complete_lift(low, k)
            assert bracket(T, T) == bracket(T, SuperPoly(T.chart,
                                                         dict(T.terms))), \
                (name, k)


def test_self_bracket_takes_each_left_derivative_once(monkeypatch):
    passes = record_gradients(monkeypatch)
    T = gallery.build("cross7").default_potential
    assert not bracket(T, T).is_zero
    assert len(passes) == 1
    assert len(passes[0]) == len(set(passes[0])) == 14


def test_bracket_reuses_a_kept_gradient(monkeypatch):
    differentiated = []
    record_gradients(monkeypatch, differentiated)
    inst = gallery.build("cross7")
    T = inst.default_potential
    pi1, xi1 = inst.chart.gen("pi1"), inst.chart.gen("xi1")
    assert not bracket(T, T).is_zero
    assert [P is T for P in differentiated] == [True]
    # T keeps its gradient from {T, T}: only pi1 is differentiated
    del differentiated[:]
    assert not bracket(T, pi1).is_zero
    assert [P is pi1 for P in differentiated] == [True]
    # pi1 keeps its gradient: only xi1 is differentiated, by pi1's partner
    del differentiated[:]
    assert bracket(xi1, pi1) == 1
    assert [P is xi1 for P in differentiated] == [True]
    for _ch, P in gradient_elements(random.Random(23)):
        kept = P.gradient()
        assert kept == left_gradient(P), to_text(P)
        assert P.gradient() is kept
