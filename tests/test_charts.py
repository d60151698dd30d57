import random
from fractions import Fraction

import pytest

import draws
import routes
from superpoisson.charts import (ODD, Chart, ChartError, chart_from_json,
                                 chart_to_json,
                                 hyperbolic_metric, identity_metric,
                                 make_cotangent_antivb_chart,
                                 make_darboux_chart, validate_chart)
from superpoisson import gallery, lifts


def vb_chart():
    return gallery.build("vb_plain").chart


def test_factories_validate():
    for ch in (make_darboux_chart(2, 4),
               make_darboux_chart(0, 4, metric=hyperbolic_metric(2)),
               make_cotangent_antivb_chart(1, 3),
               make_cotangent_antivb_chart(0, 7),
               vb_chart()):
        problems = validate_chart(ch)
        assert problems == [], (ch.name, problems)


def test_pairing_mirror_completion():
    ch = make_darboux_chart(1, 2)
    p1 = ch.name_to_index["p1"]
    x1 = ch.name_to_index["x1"]
    xi1 = ch.name_to_index["xi1"]
    assert ch.pairing_rows[p1] == ((x1, 1),)
    assert ch.pairing_rows[x1] == ((p1, -1),)
    assert ch.pairing_rows[xi1] == ((xi1, 1),)


def test_antivb_weights_and_roles():
    ch = make_cotangent_antivb_chart(2, 2)
    assert ch.axes == 2
    assert ch.symplectic_axes == (0, 1)
    gen = ch.generators[ch.name_to_index["xi1"]]
    assert gen.weight == (1, 0)
    assert gen.parity == 1
    mom = ch.generators[ch.name_to_index["p2"]]
    assert mom.weight == (1, 1)
    assert routes.role_indices(ch, "fibre") == (
        ch.name_to_index["xi1"], ch.name_to_index["xi2"])


def test_conjugates():
    ch = make_cotangent_antivb_chart(1, 2)
    xi1 = ch.name_to_index["xi1"]
    (idx, coeff), = ch.pairing_rows[xi1]
    assert ch.generators[idx].name == "pi1"
    # the bracket's rows store int, but the seeds are kept as exact Fractions
    assert coeff == 1 and type(coeff) is int
    assert ch.pairing_given == [("p1", "x1", 1), ("xi1", "pi1", 1),
                                ("xi2", "pi2", 1)]
    assert {type(c) for _, _, c in ch.pairing_given} == {Fraction}


def test_metrics():
    assert identity_metric(2) == [[1, 0], [0, 1]]
    hyp = hyperbolic_metric(2)
    assert hyp[0][2] == 1 and hyp[2][0] == 1
    assert hyp[0][0] == 0 and len(hyp) == 4


def test_json_round_trip():
    for ch in (make_darboux_chart(1, 3),
               make_cotangent_antivb_chart(1, 2),
               vb_chart()):
        doc = chart_to_json(ch)
        again = chart_from_json(doc)
        assert chart_to_json(again) == doc
        assert validate_chart(again) == []


def test_json_detects_pairing_conflict():
    doc = chart_to_json(make_darboux_chart(1, 1))
    doc["pairing"].append(["x1", "p1", "1"])
    with pytest.raises(ChartError):
        chart_from_json(doc)
    lax = chart_from_json(doc, strict=False)
    problems = validate_chart(lax)
    assert any("conflict" in p for p in problems)


def test_validate_reports_parity_weight_mismatch():
    doc = chart_to_json(make_darboux_chart(1, 1))
    doc["generators"][0]["weight"] = [1]
    lax = chart_from_json(doc, strict=False)
    assert validate_chart(lax) != []


def test_an_asymmetric_metric_is_reported_once():
    # {a, b} = {b, a} = 2, so the metric entry 0 at (b, a) also disagrees
    # with the pairing; the asymmetry is one problem of the whole block.
    chart = Chart("asym", 1, [("a", ODD, (1,)), ("b", ODD, (1,))],
                  [("a", "a", 1), ("b", "b", 1), ("a", "b", 2)],
                  metric=(["a", "b"], [[1, 2], [0, 1]]), strict=False)
    assert validate_chart(chart) == [
        "metric block is not symmetric",
        "pairing {b,a} = 2 disagrees with the metric entry 0"]


def test_vb_plain_chart_shape():
    ch = vb_chart()
    assert ch.symplectic_axes == (1,)
    assert ch.lift_degree == 2
    dq = ch.generators[ch.name_to_index["dq1"]]
    assert dq.weight == (1, 1)
    assert dict(ch.pairing_rows[ch.name_to_index["y1"]])[
        ch.name_to_index["q1"]] == 1


@pytest.mark.parametrize("axes, symplectic_axes, problems", [
    (2, None, ["generator a has 1 weight entries, chart has 2 axes",
               "generator p has 1 weight entries, chart has 2 axes"]),
    (1, (3,), ["symplectic axis 3 out of range"]),
])
def test_unreadable_weights_are_problems_not_tracebacks(axes, symplectic_axes,
                                                        problems):
    # The sectors sum weight vectors over the symplectic axes; these shapes
    # are reported before any sum is taken.
    args = ("x", axes, [("a", 0, (0,)), ("p", 0, (2,))], [("p", "a", 1)])
    chart = Chart(*args, symplectic_axes=symplectic_axes, strict=False)
    assert validate_chart(chart) == problems
    with pytest.raises(ChartError, match=problems[0]):
        Chart(*args, symplectic_axes=symplectic_axes)


BASE = [("a", 0, (0,)), ("p", 0, (2,))]
ODDS = [("xi", ODD, (1,)), ("eta", ODD, (1,))]
ODD_PAIRS = [("xi", "xi", 1), ("eta", "eta", 1)]


@pytest.mark.parametrize("axes, generators, pairing, options, problems", [
    (1, BASE, [("p", "a", 1), ("p", "zz", 1)], {},
     ["pairing entry (p, zz) names an unknown generator"]),
    (1, ODDS, ODD_PAIRS + [("xi", "xi", 2)], {},
     ["conflicting self-pairing for xi"]),
    # {p, a} = 1 stores {a, p} = -1, so a seed {a, p} = 1 breaks graded
    # antisymmetry and meets the stored mirror.
    (1, BASE, [("p", "a", 1), ("a", "p", 1)], {},
     ["pairing entries for (a, p) conflict: -1 vs 1"]),
    (0, BASE, [("p", "a", 1)], {},
     ["a chart needs at least one weight axis"]),
    (1, BASE, [("p", "a", 1)], {"symplectic_axes": ()},
     ["symplectic_axes must be non-empty",
      "conjugate weights sum to (2,); the symplectic form must have "
      "symplectic weight 2"]),
    (1, [("1a", 0, (0,)), ("p", 0, (2,))], [("p", "1a", 1)], {},
     ["generator name '1a' is not an identifier"]),
    # A parity or a weight entry of the wrong kind is a shape problem, so
    # no weight is summed.
    (1, [("a", 2, (0,)), ("p", 0, (2,))], [("p", "a", 1)], {},
     ["generator a has parity 2, not 0 or 1"]),
    (1, [("a", 0, (0.5,)), ("p", 0, ("1",))], [("p", "a", 1)], {},
     ["generator a has weight (0.5,); its entries must be ints",
      "generator p has weight ('1',); its entries must be ints"]),
    (1, [("x²", 0, (0,)), ("p", 0, (2,))], [("p", "x²", 1)], {},
     ["generator name 'x²' is not an identifier"]),
    # The second a cannot be named in a pairing, so it pairs with nothing.
    (1, BASE + [("a", 0, (0,))], [("p", "a", 1)], {},
     ["duplicate generator name 'a'",
      "pairing matrix is degenerate over the rationals"]),
    (1, ODDS, ODD_PAIRS, {"metric": (["xi", "eta"], [[1, 0]])},
     ["metric block is not square"]),
    (1, ODDS, ODD_PAIRS, {"metric": (["xi", "zeta"], [[1, 0], [0, 1]])},
     ["metric names unknown generator 'zeta'"]),
    (1, ODDS + [("zeta", ODD, (1,)), ("theta", ODD, (1,))],
     [("xi", "zeta", 1), ("eta", "theta", 1)],
     {"metric": (["xi", "eta"], [[0, 0], [0, 0]])},
     ["metric block is singular"]),
    (1, BASE, [("p", "a", 1)], {"roles": {"b": "base"}},
     ["role for unknown generator 'b'"]),
    (1, BASE, [("p", "a", 1)], {"roles": {"a": "anchor"}},
     ["unknown role 'anchor' for a"]),
    (1, [("a", 0, (-1,)), ("p", 0, (3,))], [("p", "a", 1)], {},
     ["generator a has a negative weight"]),
    (1, BASE + [("b", 0, (0,)), ("q", 0, (1,))],
     [("p", "a", 1), ("q", "b", 1)], {},
     ["pairing {b,q} has weight (1,), other pairs have (2,)",
      "pairing {q,b} has weight (1,), other pairs have (2,)"]),
    (1, [("a", 0, (0,)), ("p", 0, (3,))], [("p", "a", 1)], {},
     ["conjugate weights sum to (3,); the symplectic form must have "
      "symplectic weight 2"]),
    (2, [("a", 0, (0, 0)), ("p", 0, (0, 2))], [("p", "a", 1)],
     {"symplectic_axes": (1,), "lift_degree": 3},
     ["conjugate weights sum to (0, 2); on a degree-3 lifted chart the "
      "symplectic form must have lift weight 2"]),
    (1, BASE + [("e", 0, (1,)), ("f", 0, (1,))],
     [("p", "a", 1), ("e", "f", 1)], {"n_manifold": True},
     ["N-manifold rule broken: e has parity 0 but symplectic weight 1",
      "N-manifold rule broken: f has parity 0 but symplectic weight 1"]),
    (1, BASE, [("p", "a", 1)], {"roles": {"p": "base"}},
     ["generator p has role base but nonzero symplectic weight"]),
    (1, BASE, [("p", "a", 1)], {"roles": {"p": "momentum"}},
     ["generator p has role momentum but no conjugate with role in "
      "('base', 'fibre')"]),
    (1, ODDS, ODD_PAIRS, {"roles": {"xi": "cofibre", "eta": "fibre"}},
     ["generator xi has role cofibre but no conjugate with role in "
      "('fibre',)"]),
    # {e, f} = 1 stores {f, e} = -1 for even e and f, against the
    # symmetric metric entry.
    (1, [("e", 0, (1,)), ("f", 0, (1,))], [("e", "f", 1)],
     {"metric": (["e", "f"], [[0, 1], [1, 0]])},
     ["metric generator e is not odd", "metric generator f is not odd",
      "pairing {f,e} = -1 disagrees with the metric entry 1"]),
    (1, ODDS, ODD_PAIRS, {"metric": (["xi", "eta"], [[2, 0], [0, 1]])},
     ["pairing {xi,xi} = 1 disagrees with the metric entry 2"]),
    # Several problems at once pin the order of the checks.
    (1, BASE + [("b", 0, (-1,)), ("q", 0, (2,)), ("xi", ODD, (2,)),
                ("eta", ODD, (1,)), ("r", 0, (1,))],
     [("p", "a", 1), ("q", "b", 1), ("xi", "xi", 1), ("zz", "a", 1),
      ("eta", "r", 1)],
     {"n_manifold": True, "metric": (["xi"], [[2]]),
      "roles": {"a": "momentum", "q": "base", "c": "fibre"}},
     ["pairing entry (zz, a) names an unknown generator",
      "generator b has a negative weight",
      "pairing {b,q} has weight (1,), other pairs have (2,)",
      "pairing {q,b} has weight (1,), other pairs have (2,)",
      "pairing {xi,xi} has weight (4,), other pairs have (2,)",
      "pairing {eta,r} joins different parities (a nonzero constant "
      "bracket is even)",
      "pairing {r,eta} joins different parities (a nonzero constant "
      "bracket is even)",
      "N-manifold rule broken: b has parity 0 but symplectic weight -1",
      "N-manifold rule broken: xi has parity 1 but symplectic weight 2",
      "N-manifold rule broken: r has parity 0 but symplectic weight 1",
      "pairing {xi,xi} = 1 disagrees with the metric entry 2",
      "generator a has role momentum but no conjugate with role in "
      "('base', 'fibre')",
      "role for unknown generator 'c'",
      "generator q has role base but nonzero symplectic weight"]),
], ids=["unknown-pairing-name", "self-pairing-conflict", "antisymmetry",
        "no-axis", "no-symplectic-axis", "not-identifier", "parity-not-0-1",
        "weight-not-int",
        "superscript-digit", "duplicate-name",
        "metric-not-square", "metric-unknown-name", "metric-singular",
        "role-unknown-name", "unknown-role", "negative-weight",
        "pair-weight-differs", "symplectic-weight-not-2",
        "lift-degree-mismatch", "n-manifold-rule", "base-role-weight",
        "momentum-without-conjugate", "cofibre-without-conjugate",
        "metric-not-odd", "pairing-against-metric", "several-at-once"])
def test_each_chart_problem_is_reported(axes, generators, pairing, options,
                                        problems):
    chart = Chart("c", axes, generators, pairing, strict=False, **options)
    assert validate_chart(chart) == problems
    with pytest.raises(ChartError):
        Chart("c", axes, generators, pairing, **options)


def catalogue_charts_and_elements():
    """(chart, elements on it) for every catalogue chart, each flattening
    of one, and the lifts of those at k = 2..5.  The elements are the
    catalogue potential and l_elements, moved onto the flattening, and
    their complete lifts, each on its own copy of the lifted chart."""
    for name in gallery.names():
        inst = gallery.build(name)
        own = [inst.default_potential, *inst.l_elements]
        yield inst.chart, own
        try:
            flat = lifts.flatten_chart(inst.chart)
        except lifts.LiftError:
            continue
        low = [lifts.flatten_poly(P, flat) for P in own]
        yield flat, low
        for k in range(2, 6):
            yield (lifts.tangent_lift_chart(flat, k),
                   [lifts.complete_lift(P, k) for P in low
                    if P.is_zero or P.weight() is not None])


def test_stored_sectors_equal_the_weight_vector_route():
    seen = 0
    for chart, _ in catalogue_charts_and_elements():
        want = routes.sectors_by_weight_vectors(chart)
        for name, value in want.items():
            assert getattr(chart, name) == value, (chart.name, name)
        assert [[type(c) for _, c in row]
                for row in chart.pairing_rows.values()] \
            == [[type(c) for _, c in row]
                for row in want["pairing_rows"].values()], chart.name
        seen += 1
    # 16 catalogue charts, 13 flattenings, 4 lifts of each flattening.
    assert seen == 16 + 13 * 5


def test_term_grading_equals_the_weight_vector_route():
    rng = random.Random(30)
    terms = 0
    for chart, elements in catalogue_charts_and_elements():
        drawn = [draws.random_homogeneous(chart, rng) for _ in range(6)]
        for P in elements + drawn:
            for key in P.terms:
                assert P.chart.term_grading(key) \
                    == routes.grading_by_weight_vector(P, key), \
                    (chart.name, key)
                terms += 1
    assert terms > 5000, terms
