"""Higher tangent lifts: lifted charts and complete lifts.

A chart whose axes are all symplectic lifts to a two-axis chart whose
generators are the copies z_eps for 0 <= eps < k, of bi-weight (eps, w(z)),
w(z) the symplectic weight in Chart.gradings.  The pairing of two copies
is the original pairing exactly when the lift weights add up to k - 1,
which makes the lifted bracket carry bi-weight (1-k, -2).

The complete lift of P is the coefficient of t^(k-1) of P on the formal
curves g(t) = sum_eps g_eps t^eps.  Let D be the even derivation with
D g_eps = (eps + 1) g_(eps+1), D g_(k-1) = 0, and the chain rule on jet
symbols, D f_J = sum_b f_(J,b) x_(b,1).  Then exp(tD) is an algebra map
that sends g_0 to g(t) (D^j g_0 = j! g_j) and f(x_0) to f(x(t)), so P on
the curves is exp(tD)(P_0), with P_0 the image of P on the weight-zero
copies, and the lift is D^(k-1)(P_0) / (k-1)!.  complete_lift computes
exactly that on term dicts, dividing once at the end.  The bracket
identity {P^c, Q^c} = ({P, Q})^c, checked by the tests and exposed as
``lift_identity_check``, pins this convention.

complete_lift(P, k) returns an element of a new lifted chart, read as
``.chart``.  Lifts on one chart come from lift_identity_check, or from
``superpoly.substitute`` by name onto a chart already built.  A lifted
chart, like a flattened one, is built by the one Chart constructor, so
each runs every chart check: the problems of a chart come back on its
lift, named by the copies.

Lifting reads only the symplectic weight, so a chart with several axes
lifts as it is, to the lift of its flattening (``flatten_chart``, one axis
of total weight), named ``<name>|flat|T<k-1>``.  Flattening keeps every
generator's name and index, so ``flatten_poly`` reads P's term dict on
the flat chart as it is; it is the one transport onto a flattened chart.

Weights on a lifted chart are checked once, where an object is made:
``courant.validate_potential`` wants a potential of lift weight k - 1, and
the graph constructors of ``dirac`` want a bivector field or two-form of
lift weight k - 1.  Nothing here checks them again.
"""

import math
from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction

from .superpoly import SuperPoly, _norm, to_text
from .poisson import bracket
from .charts import Chart


class LiftError(ValueError):
    pass


def _symplectic_weights(chart):
    """Each generator's symplectic weight, read from Chart.gradings, of a
    chart whose axes are all symplectic; a chart with another axis is
    refused, since dropping that axis would lose its grading."""
    if tuple(chart.symplectic_axes) != tuple(range(chart.axes)):
        raise LiftError(
            "chart %s has non-symplectic axes; flattening would lose its "
            "grading" % chart.name)
    return [sw for sw, _ in chart.gradings]


def flatten_chart(chart):
    """Collapse a multi-axis chart to a single axis of total symplectic
    weight.  Names, parities, roles and the N-flag survive, and so do the
    pairing seeds and the metric block, which are keyed by names."""
    if chart.axes == 1:
        return chart
    gens = [(g.name, g.parity, (sw,))
            for g, sw in zip(chart.generators, _symplectic_weights(chart))]
    return Chart("%s|flat" % chart.name, 1, gens, chart.pairing_given,
                 metric=chart.metric, n_manifold=chart.n_manifold,
                 symplectic_axes=(0,), roles=chart.roles)


def flatten_poly(P, flat):
    """P on flat = flatten_chart(P.chart), which lists P's generators by
    name and index, so P's term dict is read there as it is."""
    if flat.name_to_index != P.chart.name_to_index:
        raise LiftError("chart %s does not flatten %s: its generators "
                        "differ" % (flat.name, P.chart.name))
    return SuperPoly.from_clean_terms(flat, P.terms)


def lifted_name(name, eps):
    return "%s_%d" % (name, eps)


def tangent_lift_chart(chart, k):
    """Chart of the (k-1)-th tangent prolongation of a chart whose axes are
    all symplectic: copies z_eps with bi-weight (eps, w(z)), w(z) the
    symplectic weight from Chart.gradings, and pairing {g_eps, h_delta} =
    {g, h} exactly when eps + delta = k - 1.  A chart with several axes
    lifts as its flattening does, under the flattening's name."""
    if k < 2:
        raise LiftError("lift degree must be at least 2, got %d" % k)
    weights = _symplectic_weights(chart)
    # copies[eps][i] is the name of copy eps of generator i, the name with
    # the suffix lifted_name("", eps).
    names = [g.name for g in chart.generators]
    copies = [[name + suffix for name in names]
              for suffix in [lifted_name("", eps) for eps in range(k)]]
    gens = [(name, g.parity, (eps, w))
            for eps, row in enumerate(copies)
            for name, g, w in zip(row, chart.generators, weights)]
    # One seed per unordered pair of copies: gi < hj at every eps, and a
    # self-pair at the eps with eps <= k - 1 - eps.  The rows list the
    # pairing sorted.
    pairing_spec = [(copies[eps][gi], copies[k - 1 - eps][hj], c)
                    for gi, row in chart.pairing_rows.items()
                    for hj, c in row if gi <= hj
                    for eps in range(k) if gi < hj or 2 * eps < k]
    roles = None if chart.roles is None else {
        copies[eps][g.index]: chart.roles[g.name]
        for g in chart.generators if g.name in chart.roles
        for eps in range(k)}
    name = chart.name if chart.axes == 1 else chart.name + "|flat"
    return Chart("%s|T%d" % (name, k - 1), 2, gens,
                 pairing_spec, n_manifold=chart.n_manifold,
                 symplectic_axes=(1,), roles=roles, lift_degree=k)


def lift_component(P, eps):
    """The part of P of lift weight eps (Chart.term_grading, the first axis
    of a lifted chart), read from the gradings the chart stores.
    complete_lift returns through it only so that the benchmark's tracer
    can count terms kept."""
    grading = P.chart.term_grading
    picked = {key: c for key, c in P.terms.items()
              if grading(key)[1] == eps}
    return SuperPoly.from_clean_terms(P.chart, picked)


def _bump(even, g):
    """An even part with the exponent of generator g raised by one."""
    for pos, (gi, e) in enumerate(even):
        if gi == g:
            return even[:pos] + ((g, e + 1),) + even[pos + 1:]
        if gi > g:
            return even[:pos] + ((g, 1),) + even[pos:]
    return even + ((g, 1),)


def _chain_rule(scal, base, up):
    """D on the symbols of a term: one (symbols, x_(b,1)) for each symbol
    f_J and each true-base copy x_(b,0), with f_(J,b) in place of f_J."""
    out = []
    for pos, (name, jets) in enumerate(scal):
        for b in base:
            entry = (name, tuple(sorted(jets + (b,))))
            out.append((tuple(sorted(scal[:pos] + (entry,) + scal[pos + 1:])),
                        up[b][0]))
    return out


def _total_derivative(terms, up, base):
    """D on a term dict.  up maps a copy g_eps below lift weight k - 1 to
    (g_(eps+1), eps + 1), which has the larger index.  g_eps^e gives
    e (eps + 1) g_eps^(e-1) g_(eps+1); an odd g_eps is replaced in place by
    (eps + 1) g_(eps+1) with the Koszul sign of re-sorting.  base lists the
    true-base copies.

    Pass j of _lift hands over terms of lift weight j <= k - 2, so every
    factor is a copy below k - 1 and up has it.  D only raises the copy of
    a factor, so a term's odd factors hold each base generator at most
    once, as P_0's do, and g_(eps+1) is never already among them."""
    out = defaultdict(int)
    for (scal, even, odd), c in terms.items():
        for pos, (gi, e) in enumerate(even):
            gj, w = up[gi]
            head = even[:pos] + ((gi, e - 1),) if e > 1 else even[:pos]
            out[scal, head + _bump(even[pos + 1:], gj), odd] += c * e * w
        for pos, gi in enumerate(odd):
            gj, w = up[gi]
            at = bisect_left(odd, gj, pos)
            moved = odd[:pos] + odd[pos + 1:at] + (gj,) + odd[at:]
            out[scal, even, moved] += c * w if (at - pos) & 1 else -c * w
        for lifted, xb in _chain_rule(scal, base, up):
            out[lifted, _bump(even, xb), odd] += c
    return {key: _norm(c) for key, c in out.items() if c}


def complete_lift(P, k):
    """P^c = D^(k-1)(P_0) / (k-1)! of a homogeneous P, on a new
    tangent_lift_chart(P.chart, k); see the module docstring."""
    return _lift(P, k, tangent_lift_chart(P.chart, k))


def _lift(P, k, target):
    """complete_lift onto target, which is tangent_lift_chart(P.chart, k):
    D g_eps = (eps + 1) g_(eps+1), 0 at eps = k - 1, and
    D f_J = sum_b f_(J,b) x_(b,1).  Copy eps of generator i has index
    eps n + i on target, so P_0 has P's own term dict.  P is homogeneous
    when its terms have one symplectic weight (Chart.term_grading).
    (k-1)! divides once.
    """
    chart = P.chart
    if P.is_zero:
        return target.zero()
    if len({chart.term_grading(key)[0] for key in P.terms}) > 1:
        raise LiftError("complete lift needs a homogeneous input: %s"
                        % to_text(P))
    n = len(chart.generators)
    up = {i: (i + n, i // n + 1) for i in range(n * (k - 1))}
    terms = P.terms
    for _ in range(k - 1):
        terms = _total_derivative(terms, up, target.true_base_indices)
    scale = math.factorial(k - 1)
    lifted = {key: c // scale if c % scale == 0 else Fraction(c, scale)
              for key, c in terms.items()}
    return lift_component(SuperPoly.from_clean_terms(target, lifted), k - 1)


def lift_identity_check(P, Q, k):
    """{P^c, Q^c} minus ({P, Q})^c on one lift of P.chart; identically zero
    when the lift conventions are consistent."""
    if P.chart is not Q.chart:
        raise LiftError("inputs live on different charts")
    target = tangent_lift_chart(P.chart, k)
    Pc, Qc, PQc = (_lift(X, k, target) for X in (P, Q, bracket(P, Q)))
    return bracket(Pc, Qc) - PQc
