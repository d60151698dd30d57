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

For odd X the entries (g, h) and (h, g) add the same term to {X, X}, so
{X, X} = sum over g < h of 2 (d_g X) P^gh (d_h X) plus the diagonal once.
The pairing joins only generators of equal parity: for even g and h, P is
skew and d_g X, d_h X are odd, so the two sign flips cancel; for odd g and
h, the metric is symmetric and the derivatives are even.
"""

from fractions import Fraction

from .superpoly import EVEN, ODD, SuperPoly, left_partial, mul_terms_into


def _support(P):
    """Indices of the generators g whose left derivative of P can be
    nonzero: those occurring in a monomial, plus the weight-zero even
    generators when a term carries a scalar symbol (the chain rule extends
    its jets)."""
    out = set()
    symbols = False
    for scal, even, odd in P.terms:
        out.update(odd)
        out.update(idx for idx, _ in even)
        if scal:
            symbols = True
    if symbols:
        out.update(P.chart.true_base_indices)
    return out


def bracket(X, Y):
    """Graded Poisson bracket of two elements of one chart.

    Only the pairing entries (g, h) with g in the support of X and h in
    the support of Y can contribute, so only those are walked.

    When Y is X and X is odd, each entry (g, h) with g < h is folded onto
    (h, g) with coefficient 2 P^gh and each d_g X is taken once, by the
    sign argument of the module docstring.  A pair of mixed parity (only on
    a chart that validate_chart refuses) keeps the ordered walk.
    """
    chart = X.chart
    if isinstance(Y, (int, Fraction)):
        Y = SuperPoly.constant(chart, Y)
    if Y.chart is not chart:
        raise ValueError("bracket arguments live on different charts")
    if X.is_zero or Y.is_zero:
        return chart.zero()
    gens = chart.generators
    rows = chart.pairing_rows
    y_support = _support(Y)
    fold = X is Y and X.parity() == ODD
    dY_cache = {}
    acc = {}
    for flag in (EVEN, ODD):
        Xp = X.parity_part(flag)
        if Xp.is_zero:
            continue
        for gi in sorted(_support(Xp)):
            dX = None
            for hj, coeff in rows.get(gi, ()):
                if hj not in y_support:
                    continue
                if dX is None:
                    dX = left_partial(Xp, gens[gi])
                    if fold:
                        dY_cache[gi] = dX
                    if dX.is_zero:
                        break
                twin = fold and gens[gi].parity == gens[hj].parity
                if twin and hj > gi:
                    continue
                if hj not in dY_cache:
                    dY_cache[hj] = left_partial(Y, gens[hj])
                dY = dY_cache[hj]
                if dY.is_zero:
                    continue
                if gens[gi].parity == ODD and flag == EVEN:
                    coeff = -coeff
                if twin and hj < gi:
                    coeff = 2 * coeff
                mul_terms_into(acc, dX.terms, dY.terms, coeff)
    return SuperPoly.from_clean_terms(chart, acc)
