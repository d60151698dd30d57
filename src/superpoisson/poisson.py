"""The graded Poisson bracket of a chart.

The bracket of the constant-rank symplectic structure is

    {X, Y} = sum over ordered pairs (g, h) with P^gh != 0 of
             (-1)^(g~ (X~ + 1)) (d_g X) P^gh (d_h Y)

with left derivatives.  The sign is taken per term of X, so an X of mixed
parity needs no split into parity parts: for odd g the term d_g t of a term
t of X has parity t~ + 1, and it is negated exactly when it is odd.  On an
affine Darboux chart this is the familiar

    {X, Y} = dX/dp_a dY/dx^a - dX/dx^a dY/dp_a
             + (-1)^(X~+1) g^ij dX/dxi^j dY/dxi^i,

which the test suite checks term by term against an independent
transcription of that display.

Each argument is differentiated at most once, through SuperPoly.gradient,
which alone decides what an element keeps.  Y is always differentiated by
every generator, so its full gradient is taken and kept with Y: the frame
sections and coordinates that stand on the right of many brackets are
differentiated once.  X is asked only for the pairing partners of Y's
derivative indices, since no other d_g X meets a nonzero d_h Y; it answers
with its kept full gradient when it has one and otherwise takes those
derivatives alone and keeps nothing.  X's full gradient is not taken and
kept on first use: a large X bracketed once (a potential with formal
symbols, hundreds of terms) would pay the chain rule on every base
coordinate for derivatives that no d_h Y meets.  A caller that brackets
one X with many Y takes X.gradient() itself, and every later bracket
reads it: complexes.classical_naive_differential does so for theta, psi,
the anchor vectors, the derived brackets and the nodes of its walk, and
reads off the kept gradients which of those brackets are zero.

For odd X the entries (g, h) and (h, g) add the same term to {X, X}, so
{X, X} = sum over g < h of 2 (d_g X) P^gh (d_h X) plus the diagonal once,
and one gradient serves both sides.  The pairing joins only generators of
equal parity: for even g and h, P is skew and d_g X, d_h X are odd, so the
two sign flips cancel; for odd g and h, the metric is symmetric and the
derivatives are even, so no per-term sign applies either.
"""

from .superpoly import ODD, SuperPoly, mul_terms_into


def bracket(X, Y):
    """Graded Poisson bracket of two elements of one chart.

    Takes the full gradient of Y through Y.gradient(), which keeps it with
    Y, and asks X.gradient only for the pairing partners of Y's derivative
    indices, which X answers from a kept full gradient when it has one.  Each derivative of X by an odd generator that meets some
    d_h Y carries the sign (-1)^(X~+1) term by term.

    When Y is X and X is odd, the one gradient of X serves both sides:
    each entry (g, h) with g < h is folded onto (h, g) with coefficient
    2 P^gh, by the sign argument of the module docstring.  A pair of mixed
    parity (only on a chart that validate_chart refuses) is not folded.
    """
    chart = X.chart
    if type(Y) is not SuperPoly:
        Y = SuperPoly.constant(chart, Y)
    if Y.chart is not chart:
        raise ValueError("bracket arguments live on different charts")
    if X.is_zero or Y.is_zero:
        return chart.zero()
    gens = chart.generators
    rows = chart.pairing_rows
    fold = X is Y and X.parity() == ODD
    dY = Y.gradient()
    # dY itself when X is Y
    dX = X.gradient({gi for hj in dY for gi, _ in rows.get(hj, ())})
    acc = {}
    for gi in sorted(dX):
        dXg = dX[gi]
        odd_g = gens[gi].parity == ODD
        signed = fold or not odd_g
        for hj, coeff in rows.get(gi, ()):
            dYh = dY.get(hj)
            if dYh is None:
                continue
            if fold and odd_g == (gens[hj].parity == ODD):
                if hj > gi:
                    continue
                if hj < gi:
                    coeff = 2 * coeff
            if not signed:
                dXg = {k: -c if len(k[2]) & 1 else c for k, c in dXg.items()}
                signed = True
            mul_terms_into(acc, dXg, dYh, coeff)
    return SuperPoly.from_clean_terms(chart, acc)
