import random

import pytest

import draws
import routes
from superpoisson import dirac, gallery, lifts
from superpoisson.charts import (EVEN, ODD, Chart, make_cotangent_antivb_chart,
                                 validate_chart)
from superpoisson.dirac import (BivectorGraph, CoordinateSubbundle, GraphError,
                                TwoFormGraph)
from superpoisson.lifts import LiftError
from superpoisson.superpoly import (SuperPoly, parse_expr, substitute,
                                    to_text)


def test_cross7_coordinate_graph_is_tangent_and_isotropic():
    inst = gallery.build("cross7")
    assert inst.graph is not None
    assert inst.graph.kind == "coords"
    assert dirac.is_isotropic(inst.graph)
    assert dirac.tangency_residual(inst.theta, inst.graph).is_zero


@pytest.mark.parametrize("name", [
    name for name in gallery.names() if gallery.build(name).graph is not None])
def test_pullback_multiplies_term_dicts(monkeypatch, name):
    # substitute builds each term's image with mul_terms_into; the graph's
    # substitution table may use products, but substitute itself makes none.
    inst = gallery.build(name)
    events = []
    real_substitute, real_mul = dirac.substitute, SuperPoly.__mul__

    def substitute_traced(*args):
        events.append("substitute")
        out = real_substitute(*args)
        events.append("done")
        return out

    def mul_traced(self, other):
        events.append("mul")
        return real_mul(self, other)

    monkeypatch.setattr(dirac, "substitute", substitute_traced)
    monkeypatch.setattr(SuperPoly, "__mul__", mul_traced)
    residual = dirac.tangency_residual(inst.default_potential, inst.graph)
    assert events[events.index("substitute"):] == ["substitute", "done"]
    monkeypatch.undo()
    assert residual == routes.substitute_by_products(
        inst.default_potential, inst.graph.substitution(), inst.chart)


def test_metric_chart_survivors_fail_isotropy():
    inst = gallery.build("euclidean_cubic")
    ch = inst.chart
    graph = CoordinateSubbundle(ch, ["xi1"])
    assert dirac.tangency_residual(inst.theta, graph).is_zero
    assert not dirac.is_isotropic(graph)
    with pytest.raises(GraphError, match="isotropic"):
        routes.induced_almost_lie(inst.theta, graph)


def test_non_tangent_graph_is_rejected():
    inst = gallery.build("euclidean_cubic")
    graph = CoordinateSubbundle(inst.chart, ["xi2"])
    res = dirac.tangency_residual(inst.theta, graph)
    assert to_text(res) == "xi1*xi4*xi5"
    with pytest.raises(GraphError, match="residual"):
        routes.induced_almost_lie(inst.theta, graph)


def test_vanishing_base_coordinates_rejected():
    ch = make_cotangent_antivb_chart(1, 2)
    with pytest.raises(GraphError, match="base"):
        CoordinateSubbundle(ch, ["x1"])
    with pytest.raises(GraphError, match="unknown"):
        CoordinateSubbundle(ch, ["nope"])


def test_bivector_closed_formula_matches_pullback():
    rng = random.Random(61)
    ch = make_cotangent_antivb_chart(2, 3)
    for r in range(12):
        graph = BivectorGraph(ch, draws.random_graph_field(ch, rng, "pi"))
        T = draws.random_projectable_potential(ch, rng, 3, 2)
        got = routes.bivector_closed_formula(T, graph)
        want = dirac.pullback(graph, T)
        assert got == want, r
        assert dirac.is_isotropic(graph)


def test_twoform_residual_route_matches_pullback():
    rng = random.Random(62)
    ch = make_cotangent_antivb_chart(1, 3)
    for r in range(12):
        graph = TwoFormGraph(ch, draws.random_graph_field(ch, rng, "xi"))
        T = draws.random_projectable_potential(ch, rng, 3, 1)
        got = routes.twoform_residual_route(T, graph)
        want = dirac.tangency_residual(T, graph)
        assert got == want, r


def test_twoform_substitution_is_hamiltons_equations():
    # -{form, m} for each momentum or cofibre m against c times the left
    # partial of the form by the conjugate z of m, {m, z} = c.
    graphs = [gallery.build(name).graph for name in ("vb_dirac", "vb_twist")]
    rng = random.Random(64)
    for n in (2, 3):
        ch = make_cotangent_antivb_chart(n, 3)
        graphs += [TwoFormGraph(ch, draws.random_graph_field(ch, rng, "xi"))
                   for _ in range(20)]
    for graph in graphs:
        assert graph.kind == "twoform"
        want = routes.twoform_substitution_by_conjugates(graph)
        assert graph.substitution() == want, to_text(graph.function)


def test_momentum_split_recomposes():
    rng = random.Random(63)
    ch = make_cotangent_antivb_chart(2, 2)
    kill = {ch.generators[i].name: ch.zero()
            for role in ("momentum", "cofibre")
            for i in routes.role_indices(ch, role)}
    for r in range(10):
        P = draws.random_potential(ch, rng)
        hi, lo = routes.momentum_split(P)
        assert hi + lo == P
        assert substitute(hi, kill).is_zero
        assert substitute(lo, kill) == lo


def test_sector_validation_rejects_bad_fields():
    ch = make_cotangent_antivb_chart(1, 2)
    with pytest.raises(GraphError, match="even"):
        BivectorGraph(ch, ch.gen("pi1"))
    with pytest.raises(GraphError):
        BivectorGraph(ch, parse_expr(ch, "xi1*pi1"))
    with pytest.raises(GraphError):
        TwoFormGraph(ch, parse_expr(ch, "pi1*pi2"))
    other = make_cotangent_antivb_chart(1, 2)
    with pytest.raises(GraphError, match="wrong chart"):
        BivectorGraph(ch, parse_expr(other, "pi1*pi2"))


def test_a_graph_function_of_two_gradings_is_refused():
    # pi1*pi2 + x1 is even and uses only the cofibre and base sectors, so
    # only the rule of one grading for every term can refuse it: its terms
    # have symplectic weights 2 and 0.
    ch = make_cotangent_antivb_chart(1, 2)
    F = parse_expr(ch, "pi1*pi2 + x1")
    assert F.parity() == 0
    with pytest.raises(GraphError, match=(
            r"^bivector field must be homogeneous: pi1\*pi2 \+ x1$")):
        BivectorGraph(ch, F)


def two_vector_chart():
    """A two-axis chart whose fibre and cofibre sectors each hold two weight
    vectors of one grading: x1 (0,0) base, p1 (1,1) momentum, fibres xi1,
    xi2, xi3 at (1,0), (0,1), (1,0) paired with cofibres pi1, pi2, pi3 at
    (0,1), (1,0), (0,1)."""
    fibres = [(1, 0), (0, 1), (1, 0)]
    gens = [("x1", EVEN, (0, 0)), ("p1", EVEN, (1, 1))]
    gens += [("xi%d" % i, ODD, w) for i, w in enumerate(fibres, 1)]
    gens += [("pi%d" % i, ODD, (1 - a, 1 - b))
             for i, (a, b) in enumerate(fibres, 1)]
    pairing = [("p1", "x1", 1)] + [("xi%d" % i, "pi%d" % i, 1)
                                   for i in (1, 2, 3)]
    roles = {"x1": "base", "p1": "momentum"}
    for i in (1, 2, 3):
        roles.update({"xi%d" % i: "fibre", "pi%d" % i: "cofibre"})
    return Chart("two_vectors", 2, gens, pairing, n_manifold=True,
                 roles=roles)


def test_a_graph_function_of_one_grading_and_two_weight_vectors_is_accepted():
    # A graph's function is judged by Chart.term_grading, as a potential
    # is: pi1*pi2 has weight vector (1,1) and pi1*pi3 (0,2), both of
    # symplectic weight 2.  Each image {F, z} keeps the grading of z.
    ch = two_vector_chart()
    assert validate_chart(ch) == []
    F = parse_expr(ch, "pi1*pi2 + pi1*pi3")
    assert {routes.term_weight_vector(F, key) for key in F.terms} \
        == {(1, 1), (0, 2)}
    graph = BivectorGraph(ch, F)
    images = graph.substitution()
    assert sorted(images) == ["p1", "xi1", "xi2", "xi3"]
    assert len({routes.term_weight_vector(images["xi1"], key)
                for key in images["xi1"].terms}) == 2
    for name, image in images.items():
        assert {ch.term_grading(key) for key in image.terms} \
            <= {ch.gradings[ch.name_to_index[name]]}, name


def test_induced_structure_on_skew_cotangent_graph():
    inst = gallery.build("skew_cotangent")
    ind = routes.induced_almost_lie(inst.default_potential, inst.graph)
    assert ind.sections == ["pi1", "pi2", "pi3", "pi4"]
    assert ind.base_names == ["x1"]
    assert to_text(ind.bracket_table[("pi1", "pi2")]) == "pi3"
    assert to_text(ind.anchor_table[("pi2", "x1")]) == "x1"
    assert ind.ok
    assert ind.problems() == []
    for label, poly in (ind.symmetry_residuals + ind.leibniz_residuals
                        + ind.d_squared_residuals):
        assert poly.is_zero, label


def test_vb_graph_checks():
    plain = gallery.build("vb_plain")
    assert dirac.tangency_residual(plain.default_potential,
                                   plain.graph).is_zero
    twist = gallery.build("vb_twist")
    res = dirac.tangency_residual(twist.default_potential, twist.graph)
    assert to_text(res) \
        == "x1*dx2*dx3*dq1 + x2*q1*dx1*dx2*dx3 - x3*dx1*dx2*dq1"
    route = routes.twoform_residual_route(twist.default_potential, twist.graph)
    assert route == dirac.tangency_residual(twist.default_potential,
                                            twist.graph)
    fixed = gallery.build("vb_dirac")
    assert dirac.tangency_residual(fixed.default_potential,
                                   fixed.graph).is_zero


def test_graph_json_round_trips():
    ch = make_cotangent_antivb_chart(1, 3)
    coords = CoordinateSubbundle(ch, ["pi1", "pi2", "pi3"])
    biv = BivectorGraph(ch, parse_expr(ch, "x1*pi1*pi2"))
    form = TwoFormGraph(ch, parse_expr(ch, "x1*xi2*xi3"))
    for graph in (coords, biv, form):
        data = dirac.graph_to_json(graph)
        back = dirac.graph_from_json(ch, data)
        assert back.kind == graph.kind
        assert dirac.graph_to_json(back) == data
    with pytest.raises(GraphError, match="kind"):
        dirac.graph_from_json(ch, {"kind": "mystery"})


def test_weighted_gate_rejects_offgrade_bivector():
    flat = lifts.flatten_chart(make_cotangent_antivb_chart(0, 2))
    T = lifts.complete_lift(parse_expr(flat, "xi1*xi2*pi1"), 2)
    lifted = T.chart
    with pytest.raises(GraphError, match="weight"):
        BivectorGraph(lifted, parse_expr(lifted, "pi1_0*pi2_0"))
    good = BivectorGraph(
        lifted, parse_expr(lifted, "pi1_0*pi2_1 + pi1_1*pi2_0"))
    dirac.tangency_residual(T, good)


def test_lifted_coordinate_graph_stays_tangent():
    inst = gallery.build("cross3")
    flat = lifts.flatten_chart(inst.chart)
    T = lifts.complete_lift(lifts.flatten_poly(inst.theta, flat), 2)
    lifted = T.chart
    graph = CoordinateSubbundle(flat, ["pi1", "pi2", "pi3"])
    up = routes.lift_graph(graph, lifted, 2)
    assert set(up.vanish) == {"pi%d_%d" % (i, e)
                              for i in (1, 2, 3) for e in (0, 1)}
    assert dirac.tangency_residual(T, up).is_zero
    biv = BivectorGraph(lifted, parse_expr(lifted, "pi1_0*pi2_1 + pi1_1*pi2_0"))
    with pytest.raises(LiftError, match="coordinate"):
        routes.lift_graph(biv, lifted, 2)
