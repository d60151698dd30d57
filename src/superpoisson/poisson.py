"""The graded Poisson bracket of a chart.

The bracket of the constant-rank symplectic structure is

    {X, Y} = sum over ordered pairs (g, h) with P^gh != 0 of
             (-1)^(g~ (X~ + 1)) (d_g X) P^gh (d_h Y)

with left derivatives, applied separately to each parity-homogeneous part
of X.  On an affine Darboux chart this is the familiar

    {X, Y} = dX/dp_a dY/dx^a - dX/dx^a dY/dp_a
             + (-1)^(X~+1) g^ij dX/dxi^j dY/dxi^i,

which the test suite checks term by term against an independent
transcription of that display.
"""

from fractions import Fraction

from .superpoly import EVEN, ODD, SuperPoly, left_partial


def bracket(X, Y):
    """Graded Poisson bracket of two elements of one chart."""
    chart = X.chart
    if isinstance(Y, (int, Fraction)):
        Y = SuperPoly.constant(chart, Y)
    if Y.chart is not chart:
        raise ValueError("bracket arguments live on different charts")
    entries = chart.pairing_entries()
    dY_cache = {}
    total = chart.zero()
    for flag in (EVEN, ODD):
        Xp = X.parity_part(flag)
        if Xp.is_zero:
            continue
        dX_cache = {}
        for gi, hj, coeff in entries:
            g = chart.generators[gi]
            if gi not in dX_cache:
                dX_cache[gi] = left_partial(Xp, g)
            dX = dX_cache[gi]
            if dX.is_zero:
                continue
            if hj not in dY_cache:
                dY_cache[hj] = left_partial(Y, chart.generators[hj])
            dY = dY_cache[hj]
            if dY.is_zero:
                continue
            sign = -1 if (g.parity == ODD and flag == EVEN) else 1
            total = total + dX * dY * (coeff * sign)
    return total
