"""The graded Poisson axioms on seeded random triples.

The unit tests run them on a few triples per chart family and the
acceptance sweep on its advertised count; both draw over the same three
families and check the same skew symmetry, Jacobi identity, Leibniz rule
and bracket weight.
"""

import draws
from routes import pairing_entries
from superpoisson import lifts
from superpoisson.charts import make_cotangent_antivb_chart, make_darboux_chart
from superpoisson.poisson import bracket


def poisson_families():
    """A Darboux chart, a two-axis anti-vector-bundle chart and a degree-3
    tangent lift."""
    flat = lifts.flatten_chart(make_cotangent_antivb_chart(1, 2))
    return [make_darboux_chart(2, 4),
            make_cotangent_antivb_chart(2, 3),
            lifts.tangent_lift_chart(flat, 3)]


def pairing_drop(chart):
    """The weight the bracket lowers by: w(g) + w(h) for every pairing
    entry {g, h}, which must be one vector."""
    drops = set()
    for gi, hj, _c in pairing_entries(chart):
        wg = chart.generators[gi].weight
        wh = chart.generators[hj].weight
        drops.add(tuple(a + b for a, b in zip(wg, wh)))
    assert len(drops) == 1, chart.name
    return drops.pop()


def sign(a, b):
    return -1 if (a and b) else 1


def check_poisson_axioms(chart, rng, rounds):
    """Assert the axioms on rounds random homogeneous triples."""
    drop = pairing_drop(chart)
    for r in range(rounds):
        X = draws.random_homogeneous(chart, rng, max_factors=2)
        Y = draws.random_homogeneous(chart, rng, max_factors=2)
        Z = draws.random_homogeneous(chart, rng, max_factors=2)
        px, py = X.parity(), Y.parity()
        skew = bracket(X, Y) + bracket(Y, X) * sign(px, py)
        assert skew.is_zero, (chart.name, r)
        jac = (bracket(X, bracket(Y, Z)) - bracket(bracket(X, Y), Z)
               - bracket(Y, bracket(X, Z)) * sign(px, py))
        assert jac.is_zero, (chart.name, r)
        leib = (bracket(X, Y * Z) - bracket(X, Y) * Z
                - Y * bracket(X, Z) * sign(px, py))
        assert leib.is_zero, (chart.name, r)
        out = bracket(X, Y)
        if not out.is_zero:
            want = tuple(a + b - d for a, b, d in
                         zip(X.weight(), Y.weight(), drop))
            assert out.parity() is not None and out.weight() == want, \
                (chart.name, r)
