from fractions import Fraction

import pytest

from superpoisson.charts import (ODD, Chart, ChartError, chart_from_json,
                                 chart_to_json,
                                 hyperbolic_metric, identity_metric,
                                 make_cotangent_antivb_chart,
                                 make_darboux_chart, validate_chart)
from superpoisson import gallery


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
    assert ch.pairing[(p1, x1)] == 1
    assert ch.pairing[(x1, p1)] == -1
    xi1 = ch.name_to_index["xi1"]
    assert ch.pairing[(xi1, xi1)] == 1


def test_antivb_weights_and_roles():
    ch = make_cotangent_antivb_chart(2, 2)
    assert ch.axes == 2
    assert ch.symplectic_axes == (0, 1)
    gen = ch.generators[ch.name_to_index["xi1"]]
    assert gen.weight == (1, 0)
    assert gen.parity == 1
    mom = ch.generators[ch.name_to_index["p2"]]
    assert mom.weight == (1, 1)
    assert sorted(ch.role_indices("fibre")) == [
        ch.name_to_index["xi1"], ch.name_to_index["xi2"]]


def test_conjugates():
    ch = make_cotangent_antivb_chart(1, 2)
    xi1 = ch.name_to_index["xi1"]
    pairs = ch.conjugates(xi1)
    assert len(pairs) == 1
    idx, coeff = pairs[0]
    assert ch.generators[idx].name == "pi1"
    assert coeff == 1
    # the bracket's rows store int, but 1 / coeff must stay exact
    assert type(coeff) is Fraction
    assert ch.pairing_rows[xi1] == ((idx, 1),)
    assert type(ch.pairing_rows[xi1][0][1]) is int


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
    assert ch.pairing[(ch.name_to_index["y1"], ch.name_to_index["q1"])] == 1


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
], ids=["unknown-pairing-name", "self-pairing-conflict", "antisymmetry",
        "no-axis", "no-symplectic-axis", "not-identifier",
        "superscript-digit", "duplicate-name",
        "metric-not-square", "metric-unknown-name", "metric-singular",
        "role-unknown-name", "unknown-role"])
def test_each_chart_problem_is_reported(axes, generators, pairing, options,
                                        problems):
    chart = Chart("c", axes, generators, pairing, strict=False, **options)
    assert validate_chart(chart) == problems
    with pytest.raises(ChartError):
        Chart("c", axes, generators, pairing, **options)
