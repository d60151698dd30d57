"""Higher tangent lifts: lifted charts, complete lifts and weighted checks.

A single-axis chart lifts to a two-axis chart whose generators are the
copies z_eps for 0 <= eps < k, of bi-weight (eps, w(z)).  The pairing of
two copies is the original pairing exactly when the lift weights add up to
k - 1, which makes the lifted bracket carry bi-weight (1-k, -2).  The
complete lift of a polynomial substitutes z by the sum of its copies,
Taylor-expands every scalar symbol around the weight-zero copy of its
arguments, and keeps the part of lift weight k - 1.  No factorial
normalization is applied to the extracted component; the convention is
pinned by the bracket identity {P^c, Q^c} = ({P, Q})^c which the test
suite checks on random inputs and which ``lift_identity_check`` exposes.

Charts with two axes must be flattened to total weight before lifting;
``flatten_chart`` and ``flatten_poly`` do this by preserving names.
"""

import itertools
import math
from fractions import Fraction

from .superpoly import SuperPoly, homogeneity, to_text
from .poisson import bracket
from .charts import Chart
from .courant import anchor_apply, pairing, pre_bracket, validate_potential
from . import linalg


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


def _gen_image(chart, lifted, k, idx):
    total = lifted.zero()
    name = chart.generators[idx].name
    for eps in range(k):
        total = total + lifted.gen(lifted_name(name, eps))
    return total


def _shift_image(chart, lifted, k, idx):
    """Sum of the positive-weight copies of a base generator."""
    total = lifted.zero()
    name = chart.generators[idx].name
    for eps in range(1, k):
        total = total + lifted.gen(lifted_name(name, eps))
    return total


def _symbol_image(chart, lifted, k, scal_key):
    """Taylor expansion of a jet symbol around the weight-zero copies.

    f with jets J maps to the sum over n and over ordered n-tuples of base
    generators b of (1/n!) f_{J,b} (at the zero copies) times the product
    of the positive-weight shifts of the b's; n is capped by k - 1 since
    every shift carries lift weight at least 1.
    """
    name, jets = scal_key
    base_idxs = sorted(chart.true_base_indices)
    out = lifted.zero()
    for n in range(k):
        coeff = Fraction(1, math.factorial(n))
        for extra in itertools.product(base_idxs, repeat=n):
            lifted_jets = tuple(
                lifted.name_to_index[lifted_name(chart.generators[j].name, 0)]
                for j in tuple(jets) + extra)
            piece = SuperPoly.symbol(lifted, name, lifted_jets)
            for b in extra:
                piece = piece * _shift_image(chart, lifted, k, b)
            out = out + piece * coeff
    return out


def complete_lift(P, k, target=None):
    """Highest tangent prolongation of a homogeneous P: substitute every
    generator by the sum of its copies, expand symbols, keep lift weight
    k - 1."""
    chart = P.chart
    if target is None:
        target = tangent_lift_chart(chart, k)
    if P.is_zero:
        return target.zero()
    hom = homogeneity(P)
    if not hom.homogeneous:
        raise LiftError("complete lift needs a homogeneous input: %s"
                        % to_text(P))
    gen_cache = {}
    sym_cache = {}
    total = target.zero()
    for key, c in P.items():
        scal, even, odd = key
        piece = SuperPoly.constant(target, c)
        for scal_key in scal:
            if scal_key not in sym_cache:
                sym_cache[scal_key] = _symbol_image(chart, target, k, scal_key)
            piece = piece * sym_cache[scal_key]
        for idx, e in even:
            if idx not in gen_cache:
                gen_cache[idx] = _gen_image(chart, target, k, idx)
            for _ in range(e):
                piece = piece * gen_cache[idx]
        for idx in odd:
            if idx not in gen_cache:
                gen_cache[idx] = _gen_image(chart, target, k, idx)
            piece = piece * gen_cache[idx]
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
    checks = 0
    problems = []
    for (si, p), (tj, q) in itertools.product(sections, sections):
        s = chart.gen(chart.generators[si].name)
        t = chart.gen(chart.generators[tj].name)
        target = p + q - k + 1
        got = pre_bracket(theta, s, t)
        checks += 1
        if target < 0:
            if not got.is_zero:
                problems.append(
                    "bracket of %s and %s should vanish below weight zero"
                    % (chart.generators[si].name, chart.generators[tj].name))
        elif not _is_lift_homogeneous(got, target):
            problems.append(
                "bracket of %s and %s misses lift weight %d: %s"
                % (chart.generators[si].name, chart.generators[tj].name,
                   target, to_text(got)))
        pg = pairing(s, t)
        checks += 1
        if target < 0:
            if not pg.is_zero:
                problems.append(
                    "pairing of %s and %s should vanish below weight zero"
                    % (chart.generators[si].name, chart.generators[tj].name))
        elif not _is_lift_homogeneous(pg, target):
            problems.append(
                "pairing of %s and %s misses lift weight %d: %s"
                % (chart.generators[si].name, chart.generators[tj].name,
                   target, to_text(pg)))
        if k == 2 and p == 0 and q == 0:
            if not got.is_zero:
                problems.append(
                    "core-core bracket of %s and %s is nonzero"
                    % (chart.generators[si].name, chart.generators[tj].name))
            if not pg.is_zero:
                problems.append(
                    "core-core pairing of %s and %s is nonzero"
                    % (chart.generators[si].name, chart.generators[tj].name))
    for (si, p), (fa, r) in itertools.product(sections, base):
        s = chart.gen(chart.generators[si].name)
        f = chart.gen(chart.generators[fa].name)
        got = anchor_apply(theta, s, f)
        checks += 1
        target = p + 1 - k + r
        if target < 0:
            if not got.is_zero:
                problems.append(
                    "anchor of %s on %s should vanish below weight zero"
                    % (chart.generators[si].name, chart.generators[fa].name))
        elif not _is_lift_homogeneous(got, target):
            problems.append(
                "anchor of %s on %s misses lift weight %d: %s"
                % (chart.generators[si].name, chart.generators[fa].name,
                   target, to_text(got)))
    return {"checks": checks, "problems": problems}


def _monomial_basis(chart, lift_weight, symplectic_weight):
    """All monomials in the plain generators with the given bi-weight;
    only usable over a point (no scalar symbols enter)."""
    gens = list(range(len(chart.generators)))
    out = []

    def extend(start, even, odd, wl, ws):
        if wl == lift_weight and ws == symplectic_weight:
            out.append((tuple(even), tuple(odd)))
        if wl > lift_weight or ws > symplectic_weight:
            return
        for idx in gens[start:]:
            g = chart.generators[idx]
            dl = g.weight[0]
            ds = chart.gen_symplectic_weight(idx)
            if dl == 0 and ds == 0:
                continue
            if g.parity:
                extend(idx + 1, even, odd + [idx], wl + dl, ws + ds)
            else:
                extend(idx + 1, even + [(idx, 1)], odd, wl + dl, ws + ds)

    extend(0, [], [], 0, 0)
    return out


def _poly_from_monomial(chart, mono):
    even, odd = mono
    out = chart.one()
    for idx, e in even:
        for _ in range(e):
            out = out * chart.gen(chart.generators[idx].name)
    for idx in odd:
        out = out * chart.gen(chart.generators[idx].name)
    return out


def _coefficient_rows(chart, values):
    """Matrix of the values in the shared monomial-key coordinates, one
    column per value, so a nullspace vector is a dependency of the values."""
    keys = sorted({key for v in values for key in v.terms})
    rows = [[v.terms.get(key, Fraction(0)) for v in values] for key in keys]
    return rows


def weighted_cohomology_module_check(theta):
    """Graded pieces of the point cohomology of a weighted potential.

    Over a point the degree-zero cochains are the constants, so H^0 is
    one-dimensional and the degree-one coboundaries vanish; the check
    computes dim H^{1,r} = dim ker {theta, .} on the weight-1 sections of
    each lift weight r by exact linear algebra.  Returns
    {"h0": ..., "h1": {r: dim}, "problems": []}; "problems" stays empty,
    because {theta, 1} = 0 holds for every potential and so is not checked.
    """
    chart = theta.chart
    if chart.lift_degree is None:
        raise LiftError("weighted cohomology needs a chart with a lift degree")
    if any(chart.gen_symplectic_weight(i) == 0
           for i in range(len(chart.generators))):
        raise LiftError("point cohomology needs a chart over a point")
    validate_potential(theta)
    k = chart.lift_degree
    h1 = {}
    for r in range(k):
        basis = [_poly_from_monomial(chart, m)
                 for m in _monomial_basis(chart, r, 1)]
        if not basis:
            h1[r] = 0
            continue
        images = [bracket(theta, b) for b in basis]
        rows = _coefficient_rows(chart, images)
        kernel = linalg.nullspace(rows, ncols=len(basis))
        h1[r] = len(kernel)
    return {"h0": {0: 1}, "h1": h1, "problems": []}


def lift_graph(graph, lifted, k):
    """Lift a coordinate subbundle along the chart lift: every vanished
    coordinate vanishes in all copies."""
    from .dirac import CoordinateSubbundle
    if graph.kind != "coords":
        raise LiftError("only coordinate subbundles lift mechanically here")
    names = []
    for nm in graph.vanish:
        for eps in range(k):
            names.append(lifted_name(nm, eps))
    return CoordinateSubbundle(lifted, names)


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
