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
