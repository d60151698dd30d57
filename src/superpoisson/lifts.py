"""Higher tangent lifts: lifted charts, complete lifts and weighted checks.

A single-axis chart lifts to a two-axis chart whose generators are the
copies z_eps for 0 <= eps < k, of bi-weight (eps, w(z)).  The pairing of
two copies is the original pairing exactly when the lift weights add up to
k - 1, which makes the lifted bracket carry bi-weight (1-k, -2).  The
complete lift of a polynomial substitutes z by the sum of its copies,
Taylor-expands every scalar symbol around the weight-zero copy of its
arguments, and keeps the part of lift weight k - 1.  No copy has negative
lift weight, so a term above lift weight k - 1 could only feed higher
weights; every product therefore groups both factors by lift weight and
never multiplies a group pair whose weights add up to more than k - 1.
No factorial normalization is applied to the extracted component; the
convention is pinned by the bracket identity {P^c, Q^c} = ({P, Q})^c which
the test suite checks on random inputs and which ``lift_identity_check``
exposes.

Charts with two axes must be flattened to total weight before lifting;
``flatten_chart`` and ``flatten_poly`` do this by preserving names.
"""

import itertools
import math
from fractions import Fraction

from .superpoly import SuperPoly, homogeneity, mul_terms_into, to_text
from .poisson import bracket
from .charts import Chart
from .courant import anchor_apply, pairing, pre_bracket, validate_potential


class LiftError(ValueError):
    pass


def flatten_chart(chart, name=None):
    """Collapse a multi-axis chart to a single axis of total symplectic
    weight.  Names, parities, pairing, roles and the N-flag survive; the
    metric block does too since it is keyed by names."""
    if chart.axes == 1:
        return chart
    if tuple(chart.symplectic_axes) != tuple(range(chart.axes)):
        raise LiftError(
            "chart %s has non-symplectic axes; flattening would lose its "
            "grading" % chart.name)
    gens = [(g.name, g.parity, (chart.gen_symplectic_weight(i),))
            for i, g in enumerate(chart.generators)]
    pairing_spec = [(chart.generators[gi].name, chart.generators[hj].name, c)
                    for gi, hj, c in chart.pairing_entries()
                    if gi < hj or (gi == hj)]
    return Chart(name or ("%s|flat" % chart.name), 1, gens, pairing_spec,
                 metric=chart.metric, n_manifold=chart.n_manifold,
                 symplectic_axes=(0,), roles=chart.roles)


def flatten_poly(P, flat):
    """Transport P to the flattened chart by name."""
    from .superpoly import substitute
    return substitute(P, {}, target=flat)


def lifted_name(name, eps):
    return "%s_%d" % (name, eps)


def tangent_lift_chart(chart, k, name=None):
    """Chart of the (k-1)-th tangent prolongation: copies z_eps with
    bi-weight (eps, w(z)) and pairing {g_eps, h_delta} = {g, h} exactly
    when eps + delta = k - 1."""
    if chart.axes != 1:
        raise LiftError(
            "lifting needs a single-axis chart; flatten %s first"
            % chart.name)
    if k < 2:
        raise LiftError("lift degree must be at least 2, got %d" % k)
    gens = []
    for eps in range(k):
        for g in chart.generators:
            gens.append((lifted_name(g.name, eps), g.parity,
                         (eps, g.weight[0])))
    pairing_spec = []
    seen = set()
    for gi, hj, c in chart.pairing_entries():
        for eps in range(k):
            delta = k - 1 - eps
            key = (lifted_name(chart.generators[gi].name, eps),
                   lifted_name(chart.generators[hj].name, delta))
            back = (key[1], key[0])
            if back in seen:
                continue
            seen.add(key)
            pairing_spec.append((key[0], key[1], c))
    roles = None
    if chart.roles is not None:
        roles = {}
        for g in chart.generators:
            role = chart.roles.get(g.name)
            if role is None:
                continue
            for eps in range(k):
                roles[lifted_name(g.name, eps)] = role
    return Chart(name or ("%s|T%d" % (chart.name, k - 1)), 2, gens,
                 pairing_spec, n_manifold=chart.n_manifold,
                 symplectic_axes=(1,), roles=roles, lift_degree=k)


def lift_component(P, eps):
    """The part of P whose lift weight (first axis) is exactly eps."""
    picked = {key: c for key, c in P.items()
              if P.term_weight(key)[0] == eps}
    return SuperPoly(P.chart, picked)


def _by_lift_weight(P):
    """P's terms grouped by lift weight, as {weight: term dict}."""
    groups = {}
    for key, c in P.terms.items():
        groups.setdefault(P.term_weight(key)[0], {})[key] = c
    return groups


def _product_below(P, Q, top):
    """The part of P * Q of lift weight at most top.

    Lift weights add under multiplication, so only the group pairs of P and
    Q whose lift weights add up to at most top are multiplied.
    """
    out = {}
    right = _by_lift_weight(Q)
    for p, left in _by_lift_weight(P).items():
        for q, terms in right.items():
            if p + q <= top:
                mul_terms_into(out, left, terms)
    return SuperPoly.from_clean_terms(P.chart, out)


def _copies(lifted, name, start, k):
    """Sum of the copies of a generator of lift weight start to k - 1."""
    total = lifted.zero()
    for eps in range(start, k):
        total = total + lifted.gen(lifted_name(name, eps))
    return total


def _symbol_image(chart, lifted, k, scal_key):
    """Taylor expansion of a jet symbol around the weight-zero copies.

    f with jets J maps to the sum over n and over ordered n-tuples of base
    generators b of (1/n!) f_{J,b} (at the zero copies) times the product
    of the positive-weight copies of the b's, cut at lift weight k - 1;
    n is capped by k - 1 since every such copy has lift weight at least 1.
    """
    name, jets = scal_key
    base_idxs = sorted(chart.true_base_indices)
    shifts = {b: _copies(lifted, chart.generators[b].name, 1, k)
              for b in base_idxs}
    out = lifted.zero()
    for n in range(k):
        coeff = Fraction(1, math.factorial(n))
        for extra in itertools.product(base_idxs, repeat=n):
            lifted_jets = tuple(
                lifted.name_to_index[lifted_name(chart.generators[j].name, 0)]
                for j in tuple(jets) + extra)
            piece = SuperPoly.symbol(lifted, name, lifted_jets)
            for b in extra:
                piece = _product_below(piece, shifts[b], k - 1)
            out = out + piece * coeff
    return out


def complete_lift(P, k, target=None):
    """Highest tangent prolongation of a homogeneous P: substitute every
    generator by the sum of its copies, expand symbols, keep lift weight
    k - 1.

    No factor has negative lift weight, so a term above lift weight k - 1
    could only feed higher weights: the group pairs of the factors whose
    lift weights add up to more than k - 1 are never multiplied.
    """
    chart = P.chart
    if target is None:
        target = tangent_lift_chart(chart, k)
    if P.is_zero:
        return target.zero()
    hom = homogeneity(P)
    if not hom.homogeneous:
        raise LiftError("complete lift needs a homogeneous input: %s"
                        % to_text(P))
    sym_cache = {}
    gen_cache = {}
    total = target.zero()
    for key, c in P.items():
        scal, even, odd = key
        piece = SuperPoly.constant(target, c)
        for scal_key in scal:
            if scal_key not in sym_cache:
                sym_cache[scal_key] = _symbol_image(chart, target, k, scal_key)
            piece = _product_below(piece, sym_cache[scal_key], k - 1)
        for idx in [i for i, e in even for _ in range(e)] + list(odd):
            if idx not in gen_cache:
                gen_cache[idx] = _copies(target, chart.generators[idx].name,
                                         0, k)
            piece = _product_below(piece, gen_cache[idx], k - 1)
        total = total + piece
    return lift_component(total, k - 1)


def lift_identity_check(P, Q, k, target=None):
    """{P^c, Q^c} on the lifted chart minus ({P, Q})^c; identically zero
    when the lift conventions are consistent."""
    if P.chart is not Q.chart:
        raise LiftError("inputs live on different charts")
    if target is None:
        target = tangent_lift_chart(P.chart, k)
    lhs = bracket(complete_lift(P, k, target), complete_lift(Q, k, target))
    rhs = complete_lift(bracket(P, Q), k, target)
    return lhs - rhs


def _is_lift_homogeneous(P, expect):
    if P.is_zero:
        return True
    weights = {P.term_weight(key)[0] for key in P.terms}
    return weights == {expect}


def weight_table_check(theta):
    """Spanning-set closure of the weighted operations.

    For coordinate sections s, t of bi-weights (p,1), (q,1) and base
    coordinates f of bi-weight (r,0): the pre-bracket of s and t must be
    zero or of lift weight p+q-k+1, and exactly zero when that target is
    negative; the pairing likewise with symplectic weight 0; the anchor of
    s applied to f must be zero or of lift weight p+1-k+r.  For k = 2 the
    core sector (lift weight 0) must have vanishing core-core bracket and
    pairing.  Returns {"checks": n, "problems": [...]}.
    """
    chart = theta.chart
    if chart.lift_degree is None:
        raise LiftError("weight table needs a chart with a lift degree")
    k = chart.lift_degree
    validate_potential(theta)
    sections = [(i, chart.generators[i].weight[0])
                for i in range(len(chart.generators))
                if chart.gen_symplectic_weight(i) == 1]
    base = [(i, chart.generators[i].weight[0])
            for i in range(len(chart.generators))
            if chart.gen_symplectic_weight(i) == 0
            and chart.generators[i].parity == 0]
    problems = []
    checks = 0

    def expect(what, got, target):
        """got must vanish below weight zero and otherwise be zero or of
        lift weight target."""
        nonlocal checks
        checks += 1
        if target < 0:
            if not got.is_zero:
                problems.append("%s should vanish below weight zero" % what)
        elif not _is_lift_homogeneous(got, target):
            problems.append("%s misses lift weight %d: %s"
                            % (what, target, to_text(got)))

    names = [g.name for g in chart.generators]
    for (si, p), (tj, q) in itertools.product(sections, sections):
        s = chart.gen(names[si])
        t = chart.gen(names[tj])
        pair = "%s and %s" % (names[si], names[tj])
        got = pre_bracket(theta, s, t)
        pg = pairing(s, t)
        expect("bracket of " + pair, got, p + q - k + 1)
        expect("pairing of " + pair, pg, p + q - k + 1)
        if k == 2 and p == 0 and q == 0:
            if not got.is_zero:
                problems.append("core-core bracket of %s is nonzero" % pair)
            if not pg.is_zero:
                problems.append("core-core pairing of %s is nonzero" % pair)
    for (si, p), (fa, r) in itertools.product(sections, base):
        got = anchor_apply(theta, chart.gen(names[si]), chart.gen(names[fa]))
        expect("anchor of %s on %s" % (names[si], names[fa]), got,
               p + 1 - k + r)
    return {"checks": checks, "problems": problems}


def weighted_dirac_check(theta, graph):
    """Tangency residual of a graph on a weighted chart, after checking
    the substitution respects the bi-weight (each image is zero or
    homogeneous of the replaced coordinate's bi-weight)."""
    from .dirac import tangency_residual
    chart = theta.chart
    if chart.lift_degree is None:
        raise LiftError("weighted check needs a chart with a lift degree")
    for name, image in sorted(graph.substitution().items()):
        if image.is_zero:
            continue
        hom = homogeneity(image)
        want = chart.generators[chart.name_to_index[name]].weight
        if not hom.homogeneous or hom.weight != want:
            raise LiftError(
                "graph image of %s has weight %r, the coordinate has %r"
                % (name, hom.weight, want))
    return tangency_residual(theta, graph)
