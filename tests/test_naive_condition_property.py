"""Property: over a point the naive condition is the Jacobi identity.

Every constant section over a point is a degree-1 element of the small
complex, so naive_cohomology_condition on the potential of structure
constants c must agree with the structure-constant oracle.  So must the
verdict (Courant exactly when Jacobi holds; over a point the anchor
vanishes, so never Nearly) and the point cohomology.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from superpoisson import complexes, courant  # noqa: E402
from superpoisson.charts import make_cotangent_antivb_chart  # noqa: E402


@st.composite
def structure_constants(draw):
    """(rank, c) with integer c_ijk = -c_jik and rank at most 5.

    Half of the draws are almost abelian, [e_1, e_a] = sum_b A_ba e_b on
    the ideal spanned by e_2..e_n, which always satisfies Jacobi; the other
    half draw every c_ijk with i < j freely and mostly do not.
    """
    rank = draw(st.integers(2, 5))
    coeff = st.integers(-2, 2)
    if draw(st.booleans()):
        upper = {(1, a, b): draw(coeff)
                 for a in range(2, rank + 1) for b in range(2, rank + 1)}
    else:
        upper = {(i, j, k): draw(coeff)
                 for i in range(1, rank + 1) for j in range(i + 1, rank + 1)
                 for k in range(1, rank + 1)}
    c = {}
    for (i, j, k), v in upper.items():
        if v:
            c[i, j, k] = v
            c[j, i, k] = -v
    return rank, c


def test_naive_condition_agrees_with_jacobi_oracle():
    outcomes = set()

    @settings(max_examples=60, deadline=None, database=None)
    @given(structure_constants())
    def agrees(drawn):
        rank, c = drawn
        theta = oracles.structure_theta(make_cotangent_antivb_chart(0, rank),
                                        c)
        want = oracles.jacobi_holds(c, rank)
        sc = courant.classify(theta)
        assert complexes.naive_cohomology_condition(theta, sc.sigma) is want
        assert sc.verdict == ("Courant" if want else "PreCourant")
        assert complexes.point_cohomology(courant.AnchorVectors(theta)) \
            == ({0: 1}, {0: oracles.point_h1(c, rank)})
        outcomes.add(want)

    agrees()
    assert outcomes == {True, False}
