import random

import pytest

import draws
import oracles
import routes
from superpoisson import complexes, courant, gallery, lifts
from superpoisson.charts import (chart_from_json, chart_to_json,
                                 make_cotangent_antivb_chart,
                                 make_darboux_chart)
from superpoisson.courant import PotentialError
from superpoisson.lifts import LiftError
from superpoisson.poisson import bracket
from superpoisson.superpoly import SuperPoly, parse_expr, to_text


def flat_antivb(dim, rank):
    return lifts.flatten_chart(make_cotangent_antivb_chart(dim, rank))


def test_flatten_is_identity_on_single_axis_charts():
    ch = make_darboux_chart(1, 2)
    assert lifts.flatten_chart(ch) is ch


def test_flatten_collapses_weights_and_keeps_structure():
    ch = make_cotangent_antivb_chart(1, 2)
    flat = lifts.flatten_chart(ch)
    assert flat.axes == 1
    assert flat.name.endswith("|flat")
    for g in ch.generators:
        idx = flat.name_to_index[g.name]
        assert flat.generators[idx].weight \
            == (ch.symplectic_weight(g.weight),)
        assert flat.roles.get(g.name) == ch.roles.get(g.name)
    assert bracket(flat.gen("xi1"), flat.gen("pi1")) == flat.one()
    assert bracket(flat.gen("p1"), flat.gen("x1")) == flat.one()


def test_flatten_rejects_graded_vb_charts():
    ch = gallery.build("vb_plain").chart
    with pytest.raises(LiftError, match="non-symplectic"):
        lifts.flatten_chart(ch)


def test_flatten_poly_commutes_with_bracket():
    ch = make_cotangent_antivb_chart(1, 2)
    flat = lifts.flatten_chart(ch)
    rng = random.Random(51)
    for r in range(12):
        P = draws.random_homogeneous(ch, rng)
        Q = draws.random_homogeneous(ch, rng)
        lhs = bracket(lifts.flatten_poly(P, flat), lifts.flatten_poly(Q, flat))
        rhs = lifts.flatten_poly(bracket(P, Q), flat)
        assert lhs == rhs, r


def test_lifted_chart_shape_and_pairing():
    flat = flat_antivb(0, 2)
    lifted = lifts.tangent_lift_chart(flat, 2)
    assert lifted.axes == 2
    assert lifted.symplectic_axes == (1,)
    assert lifted.lift_degree == 2
    assert lifted.generators[lifted.name_to_index["xi1_0"]].weight == (0, 1)
    assert lifted.generators[lifted.name_to_index["xi1_1"]].weight == (1, 1)
    assert lifted.roles.get("xi1_0") == "fibre"
    assert lifted.roles.get("pi2_1") == "cofibre"
    one = lifted.one()
    assert bracket(lifted.gen("xi1_0"), lifted.gen("pi1_1")) == one
    assert bracket(lifted.gen("xi1_1"), lifted.gen("pi1_0")) == one
    assert bracket(lifted.gen("xi1_0"), lifted.gen("pi1_0")).is_zero
    assert bracket(lifted.gen("xi1_1"), lifted.gen("pi1_1")).is_zero


def test_lifted_metric_pairing():
    ch = make_darboux_chart(0, 2)
    lifted = lifts.tangent_lift_chart(ch, 2)
    one = lifted.one()
    assert bracket(lifted.gen("xi1_0"), lifted.gen("xi1_1")) == one
    assert bracket(lifted.gen("xi1_1"), lifted.gen("xi1_0")) == one
    assert bracket(lifted.gen("xi1_0"), lifted.gen("xi1_0")).is_zero


def test_lift_degree_gates():
    flat = flat_antivb(0, 2)
    with pytest.raises(LiftError, match="at least 2"):
        lifts.tangent_lift_chart(flat, 1)
    with pytest.raises(LiftError, match="single-axis"):
        lifts.tangent_lift_chart(make_cotangent_antivb_chart(1, 2), 2)


def test_lifted_name_format():
    assert lifts.lifted_name("xi1", 0) == "xi1_0"
    assert lifts.lifted_name("p2", 3) == "p2_3"


def test_complete_lift_of_coordinates_and_symbols():
    ch = make_darboux_chart(1, 1)
    assert to_text(lifts.complete_lift(ch.gen("x1"), 2)) == "x1_1"
    assert to_text(lifts.complete_lift(ch.gen("p1"), 2)) == "p1_1"
    assert to_text(lifts.complete_lift(ch.symbol("g"), 2)) \
        == "D[g; x1_0]*x1_1"
    higher = {
        (3, "g"): "D[g; x1_0]*x1_2 + 1/2*D[g; x1_0, x1_0]*x1_1^2",
        (3, "x1*g"): "g*x1_2 + D[g; x1_0]*x1_0*x1_2 + D[g; x1_0]*x1_1^2"
                     " + 1/2*D[g; x1_0, x1_0]*x1_0*x1_1^2",
        (4, "g"): "D[g; x1_0]*x1_3 + D[g; x1_0, x1_0]*x1_1*x1_2"
                  " + 1/6*D[g; x1_0, x1_0, x1_0]*x1_1^3",
        (4, "x1*g"): "g*x1_3 + D[g; x1_0]*x1_0*x1_3"
                     " + 2*D[g; x1_0]*x1_1*x1_2"
                     " + D[g; x1_0, x1_0]*x1_0*x1_1*x1_2"
                     " + 1/2*D[g; x1_0, x1_0]*x1_1^3"
                     " + 1/6*D[g; x1_0, x1_0, x1_0]*x1_0*x1_1^3",
    }
    for (k, text), want in higher.items():
        got = lifts.complete_lift(parse_expr(ch, text), k)
        assert to_text(got) == want, (k, text)


def test_complete_lift_of_products():
    ch = make_darboux_chart(2, 1)
    got = lifts.complete_lift(parse_expr(ch, "x1*x2"), 3)
    want = parse_expr(got.chart, "x1_0*x2_2 + x1_1*x2_1 + x1_2*x2_0")
    assert got == want


def test_complete_lift_needs_homogeneous_input():
    ch = make_darboux_chart(1, 1)
    with pytest.raises(LiftError, match="homogeneous"):
        lifts.complete_lift(parse_expr(ch, "x1 + p1"), 2)


def test_lift_identity_on_random_pairs():
    rng = random.Random(52)
    charts = [make_darboux_chart(1, 2), flat_antivb(1, 2)]
    for k in (2, 3):
        for r in range(10):
            ch = charts[r % len(charts)]
            P = draws.random_homogeneous(ch, rng)
            Q = draws.random_homogeneous(ch, rng)
            defect = lifts.lift_identity_check(P, Q, k)
            assert defect.is_zero, (k, r, to_text(defect))


@pytest.mark.parametrize("k", [2, 3])
def test_lift_identity_check_flattens_a_two_axis_chart(k):
    # cross3 has two symplectic axes; the check flattens it, as
    # complete_lift does, before lifting.
    inst = gallery.build("cross3")
    rng = random.Random(54 + k)
    pairs = [(inst.theta, inst.theta)] + [
        (draws.random_homogeneous(inst.chart, rng),
         draws.random_homogeneous(inst.chart, rng)) for _ in range(4)]
    for r, (P, Q) in enumerate(pairs):
        defect = lifts.lift_identity_check(P, Q, k)
        assert defect.is_zero, (k, r, to_text(defect))
        assert defect.chart.name == "cotangent_antivb(0|3)|flat|T%d" % (k - 1)


def _reversed_generators(chart):
    doc = chart_to_json(chart)
    doc["generators"].reverse()
    return lifts.flatten_chart(chart_from_json(doc))


@pytest.mark.parametrize("other", [
    lambda chart: make_darboux_chart(0, 6),
    _reversed_generators,
], ids=["other-names", "other-order"])
def test_flatten_poly_refuses_a_chart_with_other_generators(other):
    P = gallery.build("cross3").theta
    with pytest.raises(LiftError, match="generators differ"):
        lifts.flatten_poly(P, other(P.chart))


def test_flatten_poly_reads_the_term_dict_as_it_is():
    P = gallery.build("cross7_full").theta
    flat = lifts.flatten_chart(P.chart)
    low = lifts.flatten_poly(P, flat)
    assert low.chart is flat
    assert low.terms == P.terms


def test_complete_lift_matches_curve_oracle():
    rng = random.Random(53)
    charts = [make_darboux_chart(1, 2), flat_antivb(1, 1)]
    for k in (2, 3):
        for r in range(10):
            ch = charts[r % len(charts)]
            P = draws.random_homogeneous(ch, rng, allow_symbols=False)
            got = lifts.complete_lift(P, k)
            want = oracles.curve_lift_value(P, k, got.chart)
            assert got == want, (k, r)


def lifted_cross3(k):
    inst = gallery.build("cross3")
    flat = lifts.flatten_chart(inst.chart)
    TL = lifts.complete_lift(lifts.flatten_poly(inst.theta, flat), k)
    return TL.chart, TL


def test_weight_table_on_lifted_cross_product():
    lifted, TL = lifted_cross3(2)
    report = routes.weight_table_check(TL)
    assert report["problems"] == []
    assert report["checks"] == 288


def test_weight_table_reports_a_potential_of_the_wrong_lift_weight(
        monkeypatch):
    # validate_potential already refuses these potentials; with it bypassed,
    # the table itself must catch the wrong lift weight.
    inst = gallery.build("cross3")
    lifted = lifts.tangent_lift_chart(lifts.flatten_chart(inst.chart), 3)
    monkeypatch.setattr(routes, "validate_potential", lambda theta: None)
    low = routes.weight_table_check(parse_expr(lifted, "xi1_0*xi2_0*xi3_1"))
    assert low["checks"] == 648
    assert len(low["problems"]) == 6
    assert low["problems"][0].startswith(
        "bracket of pi3_1 and pi1_2 misses lift weight 1")
    high = routes.weight_table_check(parse_expr(lifted, "xi1_0*xi2_1*xi3_2"))
    assert any(p.endswith("should vanish below weight zero")
               for p in high["problems"])


def test_weight_table_needs_lifted_chart():
    inst = gallery.build("cross3")
    with pytest.raises(LiftError, match="lift degree"):
        routes.weight_table_check(inst.theta)


def test_weighted_cohomology_of_lifted_cross_product():
    lifted, TL = lifted_cross3(2)
    assert complexes.point_cohomology(courant.AnchorVectors(TL)) \
        == ({0: 1}, {0: 0, 1: 0})


def test_weighted_cohomology_of_zero_potential():
    lifted, _TL = lifted_cross3(2)
    assert complexes.point_cohomology(courant.AnchorVectors(lifted.zero())) \
        == ({0: 1}, {0: 6, 1: 6})


def test_weighted_cohomology_needs_point_chart():
    flat = flat_antivb(1, 1)
    theta = lifts.complete_lift(parse_expr(flat, "xi1*p1"), 2)
    with pytest.raises(PotentialError, match="point"):
        complexes.point_cohomology(courant.AnchorVectors(theta))


def test_weighted_cohomology_reads_the_lift_axis_from_the_chart():
    # The same degree-3 lift of cross3 with every weight vector reversed:
    # the lift axis is now the second one and the symplectic axis the
    # first, a layout the chart format accepts.  The split of H1 follows
    # the chart's non-symplectic axis, wherever it sits.
    lifted, TL = lifted_cross3(3)
    data = chart_to_json(lifted)
    for g in data["generators"]:
        g["weight"] = g["weight"][::-1]
    data["symplectic_axes"] = [0]
    swapped = chart_from_json(data)
    TS = parse_expr(swapped, to_text(TL))
    want = ({0: 1}, {0: 0, 1: 0, 2: 0})
    assert complexes.point_cohomology(courant.AnchorVectors(TL)) == want
    assert complexes.point_cohomology(courant.AnchorVectors(TS)) == want
    assert courant.classify(TS).verdict == courant.classify(TL).verdict


def test_lifted_verdicts():
    lifted, TL = lifted_cross3(2)
    assert courant.classify(TL).verdict == "Courant"
    lifted3, TL3 = lifted_cross3(3)
    assert courant.classify(TL3).verdict == "Courant"


@pytest.mark.parametrize("name", ["rflux", "quasi_poisson"])
def test_degree_four_lift_of_symbol_potentials(name):
    inst = gallery.build(name)
    flat = lifts.flatten_chart(inst.chart)
    low = lifts.flatten_poly(inst.default_potential, flat)
    assert low.symbol_names()
    assert lifts.lift_identity_check(low, low, 4).is_zero
    lifted = lifts.complete_lift(low, 4)
    assert courant.classify(lifted).verdict \
        == courant.classify(inst.default_potential).verdict


def test_complete_lift_multiplies_no_polynomials(monkeypatch):
    # The substitute-and-truncate route multiplies lift-weight groups of
    # SuperPoly factors; the total derivative rewrites term dicts instead.
    inst = gallery.build("quasi_poisson")
    flat = lifts.flatten_chart(inst.chart)
    low = lifts.flatten_poly(inst.default_potential, flat)
    calls = []
    original = SuperPoly.__mul__

    def counting(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(SuperPoly, "__mul__", counting)
    lifted = lifts.complete_lift(low, 4)
    assert calls == []
    assert not lifted.is_zero


def catalogue_lift_inputs():
    """(name, flattened default potential) of every catalogue instance
    that lifts: a lift degree declared and a chart not already lifted."""
    out = []
    for name in gallery.INSTANCE_NAMES:
        inst = gallery.build(name)
        if inst.lift_k is None or inst.chart.lift_degree is not None:
            continue
        flat = lifts.flatten_chart(inst.chart)
        out.append((name, lifts.flatten_poly(inst.default_potential, flat)))
    return out


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_complete_lift_equals_substitution_route_on_the_catalogue(k):
    inputs = catalogue_lift_inputs()
    assert len(inputs) == 13
    assert any(low.symbol_names() for _name, low in inputs)
    for name, low in inputs:
        got = lifts.complete_lift(low, k)
        assert got == routes.substitution_lift(low, k, got.chart), name


def test_complete_lift_equals_substitution_route_on_draws_with_symbols():
    rng = random.Random(54)
    charts = [make_darboux_chart(2, 1), flat_antivb(1, 2)]
    with_symbols = 0
    for k in (2, 3, 4):
        for r in range(12):
            ch = charts[r % len(charts)]
            P = draws.random_homogeneous(ch, rng, allow_symbols=True)
            with_symbols += bool(P.symbol_names())
            got = lifts.complete_lift(P, k)
            assert got == routes.substitution_lift(P, k, got.chart), \
                (k, r, to_text(P))
    assert with_symbols >= 10


@pytest.mark.parametrize("k", [2, 3])
def test_complete_lift_flattens_the_chart_itself(k):
    # Flattening keeps every generator's index, so lifting the two-axis
    # potential gives what the explicit flatten_chart, flatten_poly route
    # gives, on a lifted chart of the same name.
    lifted = 0
    for name in gallery.INSTANCE_NAMES:
        inst = gallery.build(name)
        if inst.lift_k is None:
            continue
        flat = lifts.flatten_chart(inst.chart)
        want = lifts.complete_lift(
            lifts.flatten_poly(inst.default_potential, flat), k)
        got = lifts.complete_lift(inst.default_potential, k)
        assert to_text(got) == to_text(want), name
        assert got.chart.name == want.chart.name, name
        lifted += inst.chart.axes == 2
    assert lifted == 10


def test_lift_and_classify_sum_no_weight_vector_on_the_lifted_chart(
        monkeypatch):
    # The lifted chart stores each generator's grading once; the lift's
    # component and the potential's check read those, not term weights.
    calls = []
    original = SuperPoly.term_weight

    def counting(P, key):
        if P.chart.lift_degree is not None:
            calls.append(key)
        return original(P, key)

    monkeypatch.setattr(SuperPoly, "term_weight", counting)
    for name in ("quasi_poisson", "cross7_full"):
        T = gallery.build(name).default_potential
        assert T.chart.lift_degree is None
        lifted = lifts.complete_lift(T, 5)
        assert lifted.chart.lift_degree == 5 and lifted.terms
        courant.classify(lifted)
        assert calls == [], name
