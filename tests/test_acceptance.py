"""Acceptance sweep: every advertised guarantee at its full sample count.

Each test spells out one guarantee and runs it exactly; the sample counts
are the advertised minimums, not smoke-test stand-ins.  Slower than the
unit modules by design.
"""

import json
import random
from fractions import Fraction

import pytest

import draws
import identities
import oracles
import routes
from axioms import check_poisson_axioms, poisson_families
from superpoisson import cli, complexes, courant, dirac, gallery, lifts
from superpoisson.charts import (hyperbolic_metric, make_cotangent_antivb_chart,
                                 make_darboux_chart)
from superpoisson.dirac import BivectorGraph, TwoFormGraph
from superpoisson.poisson import bracket
from superpoisson.superpoly import to_text


REPORT = gallery.run_all()


@pytest.mark.parametrize("family", [0, 1, 2])
def test_criterion_1_poisson_axioms_200_triples(family):
    check_poisson_axioms(poisson_families()[family],
                         random.Random(1000 + family), 200)


def monomial_sum(ch, rng):
    out = ch.zero()
    for _ in range(1 + rng.randrange(2)):
        m = draws.random_monomial(ch, rng)
        if m is not None:
            out = out + m
    return out


def test_criterion_1_literal_darboux_formula_200_pairs():
    rng = random.Random(1100)
    flat_charts = [make_darboux_chart(2, 4),
                   make_darboux_chart(1, 4, metric=hyperbolic_metric(2))]
    for ch in flat_charts:
        for r in range(100):
            X = monomial_sum(ch, rng)
            Y = monomial_sum(ch, rng)
            assert oracles.darboux_literal_bracket(X, Y) == bracket(X, Y), \
                (ch.name, r)


def test_criterion_2_symmetry_defect_100():
    for r, (T, s, p, _l, _f) in enumerate(draws.derived_setups(2001, 100)):
        assert courant.symmetry_defect(
            courant.section_pair(T, s, p)).is_zero, r


def test_criterion_2_anchor_defect_100():
    for r, (T, s, p, _l, f) in enumerate(draws.derived_setups(2002, 100)):
        assert courant.anchor_defect(courant.section_pair(T, s, p),
                                     bracket(T, T), f).is_zero, r


def test_criterion_2_jacobiator_master_100():
    for r, (T, s, p, l, _f) in enumerate(draws.derived_setups(2003, 100)):
        assert identities.jacobiator_master_defect(T, s, p, l).is_zero, r


def test_criterion_2_leibniz_over_functions_100():
    for r, (T, s, p, _l, f) in enumerate(draws.derived_setups(2004, 100)):
        assert identities.leibniz_over_functions_defect(T, s, f, p).is_zero, r


def test_criterion_2_pairing_invariance_100():
    for r, (T, s, p, l, _f) in enumerate(draws.derived_setups(2005, 100)):
        assert identities.pairing_invariance_defect(T, s, p, l).is_zero, r


def test_criterion_3_classification_equivalence_50():
    rng = random.Random(3001)
    charts = [make_darboux_chart(1, 3),
              make_darboux_chart(2, 2, metric=hyperbolic_metric(1)),
              make_darboux_chart(1, 4, metric=hyperbolic_metric(2))]
    potentials = [draws.random_potential(charts[r % 3], rng)
                  for r in range(50)]
    for name in ("euclidean_cubic", "hyperbolic_cubic", "nearly_witness"):
        potentials.append(gallery.build(name).default_potential)
    verdicts = set()
    for i, T in enumerate(potentials):
        sc = courant.classify(T)
        verdicts.add(sc.verdict)
        assert routes.structure_residuals_vanish(T) \
            == (sc.verdict != "Nearly"), i
        assert (sc.verdict == "Courant") == bracket(T, T).is_zero, i
    assert verdicts == {"Nearly", "PreCourant", "Courant"}


def test_criterion_4_gallery_fidelity():
    assert REPORT["ok"], [row for row in REPORT["instances"]
                          if not row["ok"]]

    cross7 = gallery.build("cross7")
    ch7 = cross7.chart
    sc7 = courant.classify(cross7.theta)
    assert sc7.verdict == "PreCourant"
    assert courant.pre_bracket(cross7.theta, ch7.gen("pi1"), ch7.gen("pi2")) \
        == ch7.gen("pi3")
    nonzero_jac = courant.jacobiator(
        courant.section_pair(cross7.theta, ch7.gen("pi1"), ch7.gen("pi2")),
        ch7.gen("pi4"))
    assert to_text(nonzero_jac) == "-2*pi7"

    assert courant.classify(gallery.build("cross3").theta).verdict == "Courant"

    quasi = gallery.build("quasi_poisson")
    Tq = quasi.default_potential
    obstruction = bracket(Tq, bracket(Tq, quasi.chart.symbol("f")))
    assert obstruction == oracles.quasi_obstruction(quasi.chart)
    assert not obstruction.is_zero
    assert courant.classify(Tq).verdict == "Nearly"

    pencil = gallery.build("twisted_pencil")
    assert tuple(pencil.lambdas) == (Fraction(0), Fraction(1), Fraction(-2))
    for lam in pencil.lambdas:
        assert courant.classify(pencil.potential_at(lam)).is_pre_courant, lam

    rflux = gallery.build("rflux")
    assert courant.classify(rflux.default_potential).verdict == "PreCourant"


def test_criterion_5_commutator_defect_100():
    rng = random.Random(5001)
    charts = [make_darboux_chart(1, 3), make_cotangent_antivb_chart(1, 2),
              make_cotangent_antivb_chart(2, 2)]
    for r in range(100):
        ch = charts[r % len(charts)]
        T = draws.random_potential(ch, rng)
        f = draws.reference_base_function(ch, rng)
        a = draws.random_homogeneous(ch, rng)
        assert identities.commutator_defect(T, f, a).is_zero, r


def test_criterion_5_pre_courant_instances_have_closed_small_complex():
    seen = 0
    for name in gallery.names():
        inst = gallery.build(name)
        T = inst.default_potential
        if not courant.classify(T).is_pre_courant:
            continue
        seen += 1
        ch = inst.chart
        for idx in ch.base_indices:
            f = ch.gen(ch.generators[idx].name)
            assert identities.d_squared_on_function(T, f).is_zero, \
                (name, ch.generators[idx].name)
        anchors = courant.AnchorVectors(T)
        for el in inst.l_elements:
            assert complexes.naive_membership(anchors, el), \
                (name, to_text(el))
            image = complexes.q_theta(T, el)
            assert complexes.naive_membership(anchors, image), \
                (name, to_text(el))
            for member in (el, image):
                assert routes.formal_contraction(T, member).is_zero, \
                    (name, to_text(member))
    assert seen >= 8


def test_criterion_5_classical_differential_on_all_list_elements():
    seen = 0
    for name in gallery.names():
        inst = gallery.build(name)
        if not inst.l_elements:
            continue
        T = inst.default_potential
        basis, dual = complexes.section_frame(inst.chart)
        for el in inst.l_elements:
            assert inst.chart.symplectic_weight(el.weight()) <= 3
            got = complexes.classical_naive_differential(T, el, basis, dual)
            assert got == complexes.q_theta(T, el), (name, to_text(el))
            seen += 1
    assert seen >= 20


def test_criterion_5_point_cohomology_of_3d_instance():
    T = gallery.build("cross3").theta
    assert complexes.point_cohomology(courant.AnchorVectors(T)) \
        == ({0: 1}, {0: 0})


def test_criterion_6_bivector_closed_formula_25():
    rng = random.Random(6001)
    ch = make_cotangent_antivb_chart(2, 3)
    for r in range(25):
        graph = BivectorGraph(ch, draws.random_graph_field(ch, rng, "pi"))
        T = draws.random_projectable_potential(ch, rng, 3, 2)
        assert routes.bivector_closed_formula(T, graph) \
            == dirac.pullback(graph, T), r


def test_criterion_6_twoform_residual_route_25():
    rng = random.Random(6002)
    ch = make_cotangent_antivb_chart(1, 3)
    for r in range(25):
        graph = TwoFormGraph(ch, draws.random_graph_field(ch, rng, "xi"))
        T = draws.random_projectable_potential(ch, rng, 3, 1)
        route = routes.twoform_residual_route(T, graph)
        assert route == dirac.tangency_residual(T, graph), r


def test_criterion_6_induced_structures():
    for name in ("cross7", "skew_cotangent", "vb_plain"):
        inst = gallery.build(name)
        ind = routes.induced_almost_lie(inst.default_potential, inst.graph)
        for label, poly in ind.d_squared_residuals:
            assert poly.is_zero, (name, label)
        for label, poly in ind.leibniz_residuals:
            assert poly.is_zero, (name, label)
        assert ind.ok, (name, ind.problems())


def test_criterion_7_lift_identity_50_pairs():
    rng = random.Random(7001)
    charts = [make_darboux_chart(1, 2),
              lifts.flatten_chart(make_cotangent_antivb_chart(1, 2))]
    for k in (2, 3):
        for r in range(25):
            ch = charts[r % len(charts)]
            P = draws.random_homogeneous(ch, rng)
            Q = draws.random_homogeneous(ch, rng)
            assert lifts.lift_identity_check(P, Q, k).is_zero, (k, r)


def test_criterion_7_lifts_preserve_the_verdict():
    seen = {"PreCourant": 0, "Courant": 0}
    for name in gallery.names():
        inst = gallery.build(name)
        if inst.lift_k is None or inst.chart.lift_degree is not None:
            continue
        verdict = courant.classify(inst.default_potential).verdict
        if verdict not in seen:
            continue
        flat = lifts.flatten_chart(inst.chart)
        TL = lifts.complete_lift(
            lifts.flatten_poly(inst.default_potential, flat), inst.lift_k)
        assert courant.classify(TL).verdict == verdict, name
        seen[verdict] += 1
    assert seen["PreCourant"] >= 4
    assert seen["Courant"] >= 4


def test_criterion_7_weight_table_on_the_vb_lift():
    inst = gallery.build("cross7")
    flat = lifts.flatten_chart(inst.chart)
    TL = lifts.complete_lift(lifts.flatten_poly(inst.theta, flat), 2)
    report = routes.weight_table_check(TL)
    assert report["problems"] == []
    assert report["checks"] == 1568


def test_criterion_8_cli_round_trips_and_stability(capsys):
    for name in gallery.names():
        path = gallery.data_path(name)
        argv = ["check", str(path), "--json", "--seed", "11",
                "--samples", "2"]
        code1 = cli.main(argv)
        out1 = capsys.readouterr().out
        code2 = cli.main(argv)
        out2 = capsys.readouterr().out
        assert code1 == 0 and code2 == 0, name
        assert out1 == out2, name
        payload = json.loads(out1)
        assert payload["ok"] is True, name


def test_criterion_8_negative_controls(tmp_path, capsys):
    inst = gallery.build("cross7")
    truncated = tuple(t for t in oracles.CROSS7_TRIPLES if t != (3, 6, 5))
    d = json.loads(gallery.canonical_json(gallery.instance_to_json(inst)))
    d["potential"] = to_text(oracles.cross_theta(inst.chart, truncated))
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(json.dumps(d))
    code = cli.main(["check", str(corrupt)])
    captured = capsys.readouterr()
    assert code == 1
    assert "pre_bracket(pi3, pi6): got 0, expected pi5" \
        in captured.out + captured.err

    d2 = json.loads(gallery.canonical_json(
        gallery.instance_to_json(gallery.build("twisted_pencil"))))
    d2["chart"]["pairing"].append(["x1", "p1", "1"])
    broken = tmp_path / "broken_pairing.json"
    broken.write_text(json.dumps(d2))
    code2 = cli.main(["check", str(broken)])
    captured2 = capsys.readouterr()
    assert code2 == 1
    assert "pairing entries for (x1, p1) conflict" \
        in captured2.out + captured2.err
