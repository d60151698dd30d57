"""The chart's nondegeneracy verdict against a dense-determinant oracle.

Charts check their pairing by one rank of its sparse pairing rows; the
oracle takes the determinant of the whole n x n matrix.  They must agree
on every catalogue chart, its flattening and its tangent lifts, on
hand-made degenerate pairings, and on random small sparse pairings.  A
lifted chart passes the rank only its nonzero pairing entries.
"""

import pytest

import oracles
import routes
from superpoisson import gallery, lifts, linalg
from superpoisson.charts import EVEN, ODD, Chart, validate_chart

DEGENERATE = "pairing matrix is degenerate over the rationals"


def degenerate(chart):
    return DEGENERATE in validate_chart(chart)


def flat_charts():
    """The flattening of every catalogue chart that flattens."""
    for name in gallery.names():
        try:
            yield lifts.flatten_chart(gallery.build(name).chart)
        except lifts.LiftError:
            pass


def catalogue_charts():
    """Every catalogue chart, and every flattening with its lifts for
    k = 2..5."""
    for name in gallery.names():
        yield gallery.build(name).chart
    for flat in flat_charts():
        yield flat
        for k in range(2, 6):
            yield lifts.tangent_lift_chart(flat, k)


def test_catalogue_verdicts_match_the_dense_determinant():
    seen = 0
    for chart in catalogue_charts():
        assert degenerate(chart) == (oracles.dense_pairing_det(chart) == 0), \
            chart.name
        seen += 1
    assert seen > 3 * len(gallery.names())


def test_lifted_charts_pass_rank_only_their_pairing_entries(monkeypatch):
    # A dense pairing matrix of one of these lifts has up to 80 rows, each
    # as long; the sparse rows hold only the nonzero entries.
    totals = []
    original = linalg.rank

    def recording(rows):
        rows = [dict(row) for row in rows]
        totals.append(sum(map(len, rows)))
        return original(rows)

    monkeypatch.setattr(linalg, "rank", recording)
    seen = 0
    for flat in flat_charts():
        for k in range(2, 6):
            totals.clear()
            lifted = lifts.tangent_lift_chart(flat, k)
            assert totals == [len(routes.pairing_entries(lifted))], \
                (lifted.name, totals)
            seen += 1
    assert seen > 40


def odd_pair_all_ones():
    """Odd a, b with {a,a} = {b,b} = {a,b} = 1: the block [[1,1],[1,1]]."""
    return Chart("ones", 1, [("a", ODD, (1,)), ("b", ODD, (1,))],
                 [("a", "a", 1), ("b", "b", 1), ("a", "b", 1)], strict=False)


def unpaired_even():
    """x and p conjugate, y paired with nothing: a 1x1 zero block."""
    return Chart("unpaired", 1,
                 [("x", EVEN, (0,)), ("p", EVEN, (2,)), ("y", EVEN, (0,))],
                 [("p", "x", 1)], strict=False)


def second_block_singular():
    """A regular conjugate pair x, p, then the singular odd block a, b."""
    return Chart("second", 1,
                 [("x", EVEN, (0,)), ("p", EVEN, (2,)),
                  ("a", ODD, (1,)), ("b", ODD, (1,))],
                 [("p", "x", 1), ("a", "a", 1), ("b", "b", 1),
                  ("a", "b", 1)], strict=False)


@pytest.mark.parametrize("build", [odd_pair_all_ones, unpaired_even,
                                   second_block_singular])
def test_negative_controls_report_the_degenerate_pairing(build):
    chart = build()
    assert oracles.dense_pairing_det(chart) == 0
    assert chart._problems == [DEGENERATE]
    assert validate_chart(chart) == [DEGENERATE]


def test_random_sparse_pairings_match_the_dense_determinant():
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st

    @st.composite
    def sparse_pairings(draw):
        """Up to six generators of weight 1 and a few seed entries, each
        joining two generators of one parity or an odd generator with
        itself; the chart completes them to graded antisymmetry."""
        n = draw(st.integers(1, 6))
        parities = draw(st.lists(st.sampled_from((EVEN, ODD)),
                                 min_size=n, max_size=n))
        slots = [(i, j) for i in range(n) for j in range(i, n)
                 if parities[i] == parities[j]
                 and (i != j or parities[i] == ODD)]
        assume(slots)
        picked = draw(st.lists(st.sampled_from(slots), min_size=1,
                               max_size=n + 1, unique=True))
        coeffs = st.sampled_from((-2, -1, 1, 2))
        gens = [("g%d" % i, parities[i], (1,)) for i in range(n)]
        return gens, [("g%d" % i, "g%d" % j, draw(coeffs))
                      for i, j in picked]

    outcomes = set()

    @settings(max_examples=100, deadline=None, database=None)
    @given(sparse_pairings())
    def agrees(drawn):
        gens, pairing = drawn
        chart = Chart("drawn", 1, gens, pairing, strict=False)
        want = oracles.dense_pairing_det(chart) == 0
        assert degenerate(chart) == want
        outcomes.add(want)

    agrees()
    assert outcomes == {True, False}
