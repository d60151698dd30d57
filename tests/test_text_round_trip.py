"""Property: to_text and parse_expr are inverse on random elements."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from superpoisson import gallery  # noqa: E402
from superpoisson.superpoly import parse_expr, to_text  # noqa: E402

CHARTS = {name: gallery.build(name).chart
          for name in ("cross3", "twisted_pencil")}

# Integers, halves and thirds of both signs.
coefficients = st.builds(Fraction,
                         st.integers(-7, 7).filter(bool),
                         st.sampled_from((1, 2, 3)))


@st.composite
def elements(draw, chart):
    names = [g.name for g in chart.generators]
    base = [g.name for g in chart.generators if g.is_true_base]
    P = chart.zero()
    for _ in range(draw(st.integers(0, 5))):
        term = chart.one() * draw(coefficients)
        if draw(st.booleans()):
            jets = draw(st.lists(st.sampled_from(base), max_size=2)) \
                if base else []
            term = term * chart.symbol(draw(st.sampled_from("fg")), jets)
        for name in draw(st.lists(st.sampled_from(names), max_size=3)):
            term = term * chart.gen(name)
        P = P + term
    return P


@pytest.mark.parametrize("name", sorted(CHARTS))
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_parse_inverts_to_text(name, data):
    chart = CHARTS[name]
    P = data.draw(elements(chart))
    assert parse_expr(chart, to_text(P)) == P
