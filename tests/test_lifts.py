import random

import pytest

import draws
import oracles
import routes
from superpoisson import complexes, courant, gallery, lifts
from superpoisson.charts import make_cotangent_antivb_chart, make_darboux_chart
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
            == (ch.gen_symplectic_weight(g.index),)
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
    lifted = lifts.tangent_lift_chart(ch, 2)
    assert to_text(lifts.complete_lift(ch.gen("x1"), 2, lifted)) == "x1_1"
    assert to_text(lifts.complete_lift(ch.gen("p1"), 2, lifted)) == "p1_1"
    assert to_text(lifts.complete_lift(ch.symbol("g"), 2, lifted)) \
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
        got = lifts.complete_lift(parse_expr(ch, text), k,
                                  lifts.tangent_lift_chart(ch, k))
        assert to_text(got) == want, (k, text)


def test_complete_lift_of_products():
    ch = make_darboux_chart(2, 1)
    lifted = lifts.tangent_lift_chart(ch, 3)
    got = lifts.complete_lift(parse_expr(ch, "x1*x2"), 3, lifted)
    want = parse_expr(lifted, "x1_0*x2_2 + x1_1*x2_1 + x1_2*x2_0")
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
            target = lifts.tangent_lift_chart(ch, k)
            P = draws.random_homogeneous(ch, rng)
            Q = draws.random_homogeneous(ch, rng)
            defect = lifts.lift_identity_check(P, Q, k, target)
            assert defect.is_zero, (k, r, to_text(defect))


def test_complete_lift_matches_curve_oracle():
    rng = random.Random(53)
    charts = [make_darboux_chart(1, 2), flat_antivb(1, 1)]
    for k in (2, 3):
        for r in range(10):
            ch = charts[r % len(charts)]
            target = lifts.tangent_lift_chart(ch, k)
            P = draws.random_homogeneous(ch, rng, allow_symbols=False)
            got = lifts.complete_lift(P, k, target)
            want = oracles.curve_lift_value(P, k, target)
            assert got == want, (k, r)


def lifted_cross3(k):
    inst = gallery.build("cross3")
    flat = lifts.flatten_chart(inst.chart)
    lifted = lifts.tangent_lift_chart(flat, k)
    TL = lifts.complete_lift(lifts.flatten_poly(inst.theta, flat), k, lifted)
    return lifted, TL


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
    assert complexes.point_cohomology(TL) == ({0: 1}, {0: 0, 1: 0})


def test_weighted_cohomology_of_zero_potential():
    lifted, _TL = lifted_cross3(2)
    assert complexes.point_cohomology(lifted.zero()) \
        == ({0: 1}, {0: 6, 1: 6})


def test_weighted_cohomology_needs_point_chart():
    flat = flat_antivb(1, 1)
    lifted = lifts.tangent_lift_chart(flat, 2)
    theta = lifts.complete_lift(parse_expr(flat, "xi1*p1"), 2, lifted)
    with pytest.raises(PotentialError, match="point"):
        complexes.point_cohomology(theta)


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
    target = lifts.tangent_lift_chart(flat, 4)
    assert lifts.lift_identity_check(low, low, 4, target).is_zero
    lifted = lifts.complete_lift(low, 4, target)
    assert courant.classify(lifted).verdict \
        == courant.classify(inst.default_potential).verdict


def test_complete_lift_multiplies_no_polynomials(monkeypatch):
    # The substitute-and-truncate route multiplies lift-weight groups of
    # SuperPoly factors; the total derivative rewrites term dicts instead.
    inst = gallery.build("quasi_poisson")
    flat = lifts.flatten_chart(inst.chart)
    low = lifts.flatten_poly(inst.default_potential, flat)
    target = lifts.tangent_lift_chart(flat, 4)
    calls = []
    original = SuperPoly.__mul__

    def counting(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(SuperPoly, "__mul__", counting)
    lifted = lifts.complete_lift(low, 4, target)
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
        target = lifts.tangent_lift_chart(low.chart, k)
        assert lifts.complete_lift(low, k, target) \
            == routes.substitution_lift(low, k, target), name


def test_complete_lift_equals_substitution_route_on_draws_with_symbols():
    rng = random.Random(54)
    charts = [make_darboux_chart(2, 1), flat_antivb(1, 2)]
    with_symbols = 0
    for k in (2, 3, 4):
        for r in range(12):
            ch = charts[r % len(charts)]
            target = lifts.tangent_lift_chart(ch, k)
            P = draws.random_homogeneous(ch, rng, allow_symbols=True)
            with_symbols += bool(P.symbol_names())
            assert lifts.complete_lift(P, k, target) \
                == routes.substitution_lift(P, k, target), (k, r, to_text(P))
    assert with_symbols >= 10
