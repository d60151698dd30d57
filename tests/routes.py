"""Second routes to values the library computes, for cross-checks.

Each function here reaches a quantity the engine also computes, by another
formula: the classification of a potential read off its self-bracket,
the structure functions of a potential over the metric frame and their
closure equations, closed formulas for graph pullbacks, the almost
Lie structure induced along a Dirac graph, the lift of a coordinate
subbundle, left-nested evaluation of a form on sections, the contraction by
a formal function symbol, the weight table of a lifted potential (the lift
weights of its brackets, pairings and anchors, which validate_potential
already forces), the substitute-and-truncate complete lift (every
generator replaced by the sum of its copies, every symbol Taylor-expanded,
every product cut at lift weight k - 1), an algebra map as a sum of
ordered SuperPoly products of the factor images, a term's weight vector
summed from its generators', and a chart's sectors and term gradings
summed from weight vectors and its sorted pairing entries.
Tests compare them with the library; the library does not use them.
"""

import itertools
import math
import types
from fractions import Fraction

import identities
from superpoisson.complexes import section_frame
from superpoisson.courant import (PotentialError, anchor_apply, anchor_vector,
                                  pairing, pre_bracket, section_pair,
                                  symmetry_defect, validate_potential)
from superpoisson.dirac import (CoordinateSubbundle, GraphError, is_isotropic,
                                tangency_residual)
from superpoisson.lifts import (LiftError, lift_component, lifted_name,
                                tangent_lift_chart)
from superpoisson.poisson import bracket
from superpoisson.superpoly import (EVEN, SuperPoly, left_partial,
                                   mul_terms_into, substitute, to_text)


def role_indices(chart, role):
    """Indices of the chart's generators that carry the role, ascending."""
    roles = chart.roles or {}
    return tuple(g.index for g in chart.generators
                 if roles.get(g.name) == role)


def _darboux_sectors(chart):
    if chart.metric is None or chart.axes != 1:
        raise PotentialError("structure functions need a plain metric chart")
    base = [chart.generators[i].name for i in chart.base_indices]
    momentum = []
    for idx in chart.base_indices:
        partners = chart.pairing_rows.get(idx, ())
        if len(partners) != 1:
            raise PotentialError(
                "base generator %s has %d conjugates, expected exactly one"
                % (chart.generators[idx].name, len(partners)))
        momentum.append(chart.generators[partners[0][0]].name)
    return base, momentum


def extract_structure_functions(theta):
    """Read the anchor and cubic coefficient tables of a potential.

    Returns (anchor, cubic) where anchor[i][a] = rho(e_i) x^a and
    cubic[i][j][k] = <[[e_i, e_j]], e_k>, both over the dual frame e_i of
    complexes.section_frame, the inverse-metric frame on a metric chart.
    reassemble_structure_functions() inverts this exactly.
    """
    validate_potential(theta)
    chart = theta.chart
    base, _ = _darboux_sectors(chart)
    frame = section_frame(chart)[1]
    anchor = [[anchor_apply(theta, e, chart.gen(name)) for name in base]
              for e in frame]
    cubic = [[[pairing(pre_bracket(theta, ei, ej), ek) for ek in frame]
              for ej in frame]
             for ei in frame]
    return anchor, cubic


def reassemble_structure_functions(chart, anchor, cubic):
    """Rebuild the potential -xi^i Q_i^a p_a - (1/3!) xi^i xi^j xi^k Q_kji.

    anchor and cubic are tables as produced by extract_structure_functions;
    the round trip reassemble(extract(T)) == T holds for every potential on
    a plain metric chart.
    """
    base, momentum = _darboux_sectors(chart)
    odd_names = chart.metric[0]
    rank = len(odd_names)
    out = chart.zero()
    for i in range(rank):
        for a in range(len(base)):
            out = out - chart.gen(odd_names[i]) * anchor[i][a] * chart.gen(momentum[a])
    sixth = Fraction(1, 6)
    for i in range(rank):
        for j in range(rank):
            for k in range(rank):
                coeff = cubic[k][j][i]
                if coeff.is_zero:
                    continue
                out = out - (chart.gen(odd_names[i]) * chart.gen(odd_names[j])
                             * chart.gen(odd_names[k]) * coeff * sixth)
    return out


def structure_residuals_vanish(theta):
    """Whether both closure equations for the structure functions hold.

    With Q_i^a and Q_ijk the extracted tables and g the metric pairing
    block, the first family is

        Q_i^b d_b Q_j^a - Q_j^b d_b Q_i^a - g^lm Q_mij Q_l^a

    over all (i, j, a), and the second is g^ij Q_j^a Q_i^b over all (a, b).
    Both families vanish identically exactly when classify(theta) is not
    Nearly; the tests check that equivalence.
    """
    chart = theta.chart
    base, _ = _darboux_sectors(chart)
    anchor, cubic = extract_structure_functions(theta)
    rank = len(chart.metric[0])
    gpair = chart.metric[1]
    residuals = []
    for i in range(rank):
        for j in range(rank):
            for a in range(len(base)):
                res = chart.zero()
                for b, bname in enumerate(base):
                    res = res + anchor[i][b] * left_partial(anchor[j][a], chart.generator(bname))
                    res = res - anchor[j][b] * left_partial(anchor[i][a], chart.generator(bname))
                for l in range(rank):
                    for m in range(rank):
                        if gpair[l][m]:
                            res = res - gpair[l][m] * cubic[m][i][j] * anchor[l][a]
                residuals.append(res)
    for a in range(len(base)):
        for b in range(len(base)):
            res = chart.zero()
            for i in range(rank):
                for j in range(rank):
                    if gpair[i][j]:
                        res = res + gpair[i][j] * anchor[j][a] * anchor[i][b]
            residuals.append(res)
    return all(p.is_zero for p in residuals)


def classify_by_self_bracket(theta):
    """The verdict of courant.classify read off the self-bracket S = {T, T}.

    Courant when S is zero; PreCourant when S uses no generator paired
    with a base coordinate, since then {S, f} vanishes for every weight-0
    f; otherwise Nearly at the first base coordinate x with {S, x}
    nonzero, with that value as the witness.  Returns a namespace with
    verdict, sigma, witness_name and witness_value.
    """
    validate_potential(theta)
    chart = theta.chart
    sigma = bracket(theta, theta)

    def verdict(name, witness_name=None, witness_value=None):
        return types.SimpleNamespace(verdict=name, sigma=sigma,
                                     witness_name=witness_name,
                                     witness_value=witness_value)

    if sigma.is_zero:
        return verdict("Courant")
    base = set(chart.base_indices)
    momenta = {gi for gi, row in chart.pairing_rows.items()
              for hj, _ in row if hj in base}
    if not any(momenta.intersection(odd)
               or momenta.intersection(gi for gi, _ in even)
               or any(momenta.intersection(jets) for _, jets in scal)
               for scal, even, odd in sigma.terms):
        return verdict("PreCourant")
    for idx in chart.base_indices:
        name = chart.generators[idx].name
        value = bracket(sigma, chart.gen(name))
        if not value.is_zero:
            return verdict("Nearly", name, value)
    raise PotentialError("self-bracket uses a momentum generator but kills "
                         "every base coordinate")


def momentum_split(P):
    """Split P into (momentum part, position part) term by term.

    The momentum part collects every term containing at least one momentum
    or cofibre coordinate; the position part is the rest.  For a projectable
    potential on a cotangent chart this is exactly the split into the
    anchor-plus-fibre-bracket part and the pure cubic part.
    """
    chart = P.chart
    mom = set(role_indices(chart, "momentum") + role_indices(chart, "cofibre"))
    hi = {}
    lo = {}
    for key, c in P.items():
        scal, even, odd = key
        touched = any(i in mom for i, _e in even) or any(i in mom for i in odd)
        (hi if touched else lo)[key] = c
    return SuperPoly(chart, hi), SuperPoly(chart, lo)


def bivector_closed_formula(theta, graph):
    """The pullback of theta along a bivector graph through nested
    brackets: (1/2){L,{L,theta_m}} + (1/3!){L,{L,{L,theta_p}}} with theta
    split into momentum and position parts and L the field.  Exact for
    projectable potentials."""
    lam = graph.function
    hi, lo = momentum_split(theta)
    quad = bracket(lam, bracket(lam, hi)) * Fraction(1, 2)
    cub = bracket(lam, bracket(lam, bracket(lam, lo))) * Fraction(1, 6)
    return quad + cub


def twoform_residual_route(theta, graph):
    """The tangency residual of a two-form graph through the differential:
    {theta, form} + (position part of theta).  Exact for projectable
    potentials."""
    return bracket(theta, graph.function) + momentum_split(theta)[1]


def twoform_substitution_by_conjugates(graph):
    """The substitution of a two-form graph by Hamilton's equations: each
    momentum or cofibre coordinate m, with its single conjugate z and
    c = {m, z}, goes to c times the left partial of the form by z."""
    chart = graph.chart
    sub = {}
    moving = role_indices(chart, "momentum") + role_indices(chart, "cofibre")
    for idx in moving:
        (zidx, c), = chart.pairing_rows[idx]
        zname = chart.generators[zidx].name
        sub[chart.generators[idx].name] = left_partial(graph.function,
                                                       zname) * c
    return sub


class InducedAlmostLie(types.SimpleNamespace):
    """Bracket and anchor tables induced on the sections along a graph,
    together with the residuals that certify the almost Lie axioms."""

    def problems(self):
        return ["%s: %s" % (label, to_text(value))
                for label, value in (self.symmetry_residuals
                                     + self.leibniz_residuals
                                     + self.d_squared_residuals)
                if not value.is_zero]

    @property
    def ok(self):
        return not self.problems()


def survivor_indices(graph):
    """Indices of the generators that the graph keeps as coordinates: the
    unvanished ones of a coordinate subbundle, the base and cofibre sectors
    along a bivector graph, the position sector along a two-form graph."""
    if graph.kind == "coords":
        return graph.survivor_indices()
    roles = (("base", "cofibre") if graph.kind == "bivector"
             else ("base", "fibre"))
    return [idx for idx, g in enumerate(graph.chart.generators)
            if graph.chart.roles.get(g.name) in roles]


def induced_almost_lie(theta, graph):
    """Restrict the derived bracket and anchor to the sections along the
    graph.  Requires a vanishing tangency residual and, for coordinate
    subbundles, an isotropic surviving sector."""
    chart = theta.chart
    res = tangency_residual(theta, graph)
    if not res.is_zero:
        raise GraphError("tangency residual is nonzero: %s" % to_text(res))
    if not is_isotropic(graph):
        raise GraphError("surviving sector is not isotropic")
    sub = graph.substitution()

    def pb(P):
        return substitute(P, sub)

    alive = survivor_indices(graph)
    sections = [chart.generators[i].name for i in alive
                if i in chart.section_indices]
    base_names = [chart.generators[i].name for i in alive
                  if i in chart.base_indices
                  and chart.generators[i].parity == 0]

    bracket_table = {}
    symmetry_residuals = []
    for sname in sections:
        for tname in sections:
            s = chart.gen(sname)
            t = chart.gen(tname)
            bracket_table[(sname, tname)] = pb(pre_bracket(theta, s, t))
            symmetry = symmetry_defect(section_pair(theta, s, t))
            symmetry_residuals.append((("symmetry", sname, tname),
                                       pb(symmetry)))

    anchor_table = {}
    for sname in sections:
        for fname in base_names:
            anchor_table[(sname, fname)] = pb(
                anchor_apply(theta, chart.gen(sname), chart.gen(fname)))

    leibniz_residuals = []
    for i, sname in enumerate(sections):
        tname = sections[(i + 1) % len(sections)]
        for fname in base_names:
            res = identities.leibniz_over_functions_defect(
                theta, chart.gen(sname), chart.gen(fname), chart.gen(tname))
            leibniz_residuals.append(
                (("leibniz", sname, fname, tname), pb(res)))

    d_squared_residuals = []
    for fname in base_names:
        one = pb(bracket(theta, chart.gen(fname)))
        two = pb(bracket(theta, one))
        d_squared_residuals.append((("d_squared", fname), two))

    return InducedAlmostLie(
        sections=sections, base_names=base_names, bracket_table=bracket_table,
        anchor_table=anchor_table, symmetry_residuals=symmetry_residuals,
        leibniz_residuals=leibniz_residuals,
        d_squared_residuals=d_squared_residuals)


def lift_graph(graph, lifted, k):
    """Lift a coordinate subbundle along the chart lift: every vanished
    coordinate vanishes in all copies."""
    if graph.kind != "coords":
        raise LiftError("only coordinate subbundles lift mechanically here")
    return CoordinateSubbundle(lifted, [lifted_name(nm, eps)
                                        for nm in graph.vanish
                                        for eps in range(k)])


def eval_on_sections(alpha, sections):
    """Left-nested evaluation {...{{alpha, s_1}, s_2}..., s_k}."""
    out = alpha
    for s in sections:
        out = bracket(out, s)
    return out


def formal_contraction(theta, alpha):
    """Contraction of alpha by a formal function symbol that neither theta
    nor alpha uses (F, then Fq, ...).  For a momentum-free alpha it is a
    combination of the base-coordinate contractions, so it vanishes on every
    element that naive_membership accepts."""
    used = theta.symbol_names() | alpha.symbol_names()
    probe = "F"
    while probe in used:
        probe += "q"
    return bracket(anchor_vector(theta, alpha.chart.symbol(probe)), alpha)


def _is_lift_homogeneous(P, expect):
    if P.is_zero:
        return True
    weights = {term_weight_vector(P, key)[0] for key in P.terms}
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
    sections = [(i, chart.lift_weight(chart.generators[i].weight))
                for i in chart.section_indices]
    base = [(i, chart.lift_weight(chart.generators[i].weight))
            for i in chart.base_indices
            if chart.generators[i].parity == 0]
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


# -- substitute-and-truncate complete lift ---------------------------------

def _by_lift_weight(P):
    """P's terms grouped by lift weight, as {weight: term dict}."""
    groups = {}
    for key, c in P.terms.items():
        groups.setdefault(term_weight_vector(P, key)[0], {})[key] = c
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


def substitution_lift(P, k, target=None):
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
    if P.parity() is None or weight_vector(P) is None:
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


# -- algebra map by SuperPoly products -------------------------------------


def substitute_by_products(P, genmap, target):
    """superpoly.substitute(P, genmap, target) for a genmap keyed by name,
    each term rebuilt as the ordered SuperPoly product of its factors'
    images; a jet index moves to the one generator of its image."""
    chart = P.chart
    images = {chart.generator(name).index: img for name, img in genmap.items()}

    def image(idx):
        if idx in images:
            return images[idx]
        return target.gen(chart.generators[idx].name)

    def moved(jets):
        return tuple(sorted(next(iter(image(j).terms))[1][0][0]
                            for j in jets))

    total = target.zero()
    for (scal, even, odd), c in P.terms.items():
        scal = tuple(sorted((name, moved(jets)) for name, jets in scal))
        part = SuperPoly(target, {(scal, (), ()): c})
        for idx, e in even:
            part = part * image(idx) ** e
        for idx in odd:
            part = part * image(idx)
        total = total + part
    return total


def pairing_entries(chart):
    """Every ordered pair (gi, hj, coefficient) of the pairing, sorted: the
    nonzero seeds of chart.pairing_given with their mirrors by graded
    antisymmetry P^hg = -(-1)^(g~ h~) P^gh, completed here and not read
    from the chart's own completion."""
    entries = {}
    for gname, hname, c in chart.pairing_given:
        if c:
            g, h = chart.generator(gname), chart.generator(hname)
            entries[g.index, h.index] = c
            entries[h.index, g.index] = c if g.parity and h.parity else -c
    return [(gi, hj, c) for (gi, hj), c in sorted(entries.items())]


def sectors_by_weight_vectors(chart):
    """The gradings, sectors and pairing rows a chart stores, recomputed
    from its generators' weight vectors and from pairing_entries, as a
    dict from attribute name to value.  A grading is the weight summed
    over the symplectic axes and over the rest; a row lists a generator's
    partners in order, with each Fraction stored integer-first."""
    gradings = []
    for g in chart.generators:
        sw = sum(g.weight[a] for a in chart.symplectic_axes)
        gradings.append((sw, sum(g.weight) - sw))
    rows = {}
    for gi, hj, c in pairing_entries(chart):
        c = c.numerator if c.denominator == 1 else c
        rows.setdefault(gi, []).append((hj, c))
    return {
        "gradings": tuple(gradings),
        "base_indices": tuple(i for i, (sw, _) in enumerate(gradings)
                              if sw == 0),
        "section_indices": tuple(i for i, (sw, _) in enumerate(gradings)
                                 if sw == 1),
        "true_base_indices": tuple(
            g.index for g in chart.generators
            if g.parity == EVEN and all(w == 0 for w in g.weight)),
        "pairing_rows": {gi: tuple(row) for gi, row in rows.items()},
    }


def term_weight_vector(P, key):
    """The weight vector of the term key of P: the weight vectors of its
    generator factors, each even one times its exponent, summed.  The
    library sums no weight vector per term; the tests read one here."""
    gens = P.chart.generators
    total = [0] * P.chart.axes
    for idx, e in list(key[1]) + [(idx, 1) for idx in key[2]]:
        total = [t + e * w for t, w in zip(total, gens[idx].weight)]
    return tuple(total)


def weight_vector(P):
    """The weight vector shared by every term of P, or None when P is zero
    or two of its terms have different ones."""
    vectors = {term_weight_vector(P, key) for key in P.terms}
    return vectors.pop() if len(vectors) == 1 else None


def grading_by_weight_vector(P, key):
    """(symplectic weight, lift weight) of the term key of P, summed here
    from its weight vector over the symplectic axes and over the rest."""
    weight = term_weight_vector(P, key)
    sw = sum(weight[a] for a in P.chart.symplectic_axes)
    return sw, sum(weight) - sw
