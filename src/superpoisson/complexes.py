"""Quasi-cochain complexes attached to an odd cubic potential.

Two complexes live on the same chart: the full one, whose differential is
q_theta = {theta, .}, and the small one built on functions of the weight-1
coordinates only, cut out by the contractions

    iota_f(alpha) = (-1)^f~ {{theta, f}, alpha}
                  = {courant.anchor_vector(theta, f), alpha}.

classical_naive_differential recomputes the differential of a small-complex
element through the classical alternating sum over a section basis (anchor
terms plus bracket terms); its agreement with q_theta is a checked identity,
with the degree-dependent identification constants recorded here.  The
basis and its dual are constant rational combinations of the weight-1
generators (section_frame builds them from the pairing block), so their
duality is one exact product of coefficient rows, not a bracket per pair.

Values that several checks read are arguments, computed once by the
caller: naive_membership and point_cohomology read the anchor vectors
(-1)^x~ {theta, x} of coordinates from a courant.AnchorVectors table,
naive_commutator_defect takes {theta, alpha}, and
naive_cohomology_condition takes {theta, theta}.
"""

from .superpoly import (ODD, SuperPoly, _add_term, _norm, mul_terms_into,
                        to_text)
from .poisson import bracket
from .courant import (AnchorVectors, PotentialError, anchor_vector,
                      apply_anchor_vector, pre_bracket)
from . import linalg


def q_theta(theta, alpha):
    """Differential of the full complex: {theta, alpha}."""
    return bracket(theta, alpha)


def naive_membership(anchors, alpha):
    """Structural membership test for the small complex.

    anchors is the courant.AnchorVectors table of the potential.  An
    element must be built from the base and weight-1 sectors only, and
    every contraction {anchors[x], alpha} must kill it.  The contractions
    by the base coordinates x decide that: for a momentum-free element the
    contraction by any weight-0 function, a formal symbol included, is a
    combination of them, so it vanishes once they all do.  The zero
    element and a zero contraction vector need no bracket.
    """
    chart = alpha.chart
    gradings = chart.gradings
    for scal, even, odd in alpha.terms:
        if (any(gradings[gi][0] > 1 for gi, _ in even)
                or any(gradings[gi][0] > 1 for gi in odd)
                or any(gradings[gi][0] > 1
                       for _, jets in scal for gi in jets)):
            return False
    if alpha.is_zero:
        return True
    for idx in chart.base_indices:
        rho = anchors[chart.generators[idx].name]
        if not rho.is_zero and not bracket(rho, alpha).is_zero:
            return False
    return True


def naive_commutator_defect(theta, f, alpha, d_alpha):
    """iota_f(Q alpha) + (-1)^f~ Q(iota_f alpha) - {{theta,{theta,f}}, alpha}.

    Identically zero for every potential; on a potential whose self-bracket
    kills weight-0 functions the last term dies, so the small complex is
    closed under the differential.

    d_alpha is Q alpha = {theta, alpha}, passed in so that a caller that
    has it (the identity sweep, from a section's anchor vector) does not
    compute it again.  {theta, f} is computed once and serves both
    contractions and the last term; in the second term the sign of the
    contraction cancels the (-1)^f~ in front of it.
    """
    pf = f.parity()
    sign = -1 if pf else 1
    theta_f = bracket(theta, f)
    out = bracket(theta_f, d_alpha) * sign
    out = out + q_theta(theta, bracket(theta_f, alpha))
    out = out - bracket(bracket(theta, theta_f), alpha)
    return out


def identification_constant(k):
    """{...{{d_1 ... d_k, b_1}, b_2}..., b_k} for dual pairs <b,d> = 1.

    The constants are (-1)^(k(k-1)/2): +1, -1, -1, +1, ... They translate
    between multilinear-form values and coefficient polynomials.
    """
    return -1 if (k * (k - 1) // 2) % 2 else 1


def _section_keys(chart):
    """The term key of each weight-1 generator, in section_indices order:
    a frame element is a constant combination of these keys."""
    return [((), (), (g,)) if chart.generators[g].parity == ODD
            else ((), ((g, 1),), ()) for g in chart.section_indices]


def _pairing_block(chart):
    """The pairing P^gh among the weight-1 generators, as one sparse row
    [(position of h, P^gh)] per g, positions in section_indices order.
    Two constant combinations of them pair through this block alone."""
    pos = {g: a for a, g in enumerate(chart.section_indices)}
    return [[(pos[hj], c) for hj, c in chart.pairing_rows.get(g, ())
             if hj in pos] for g in chart.section_indices]


def section_frame(chart):
    """(basis, dual): the weight-1 generators in section_indices order and
    dual[b] = sum_a (P^-1)_ab basis[a], P their pairing block, so that
    <basis[i], dual[j]> = delta.  Weights add up to 2 under the pairing,
    so the sector pairs only with itself and P is invertible.  Each dual's
    term dict is read off the nonzero entries of column b of P^-1."""
    inverse = linalg.invert(_pairing_block(chart))
    if inverse is None:
        raise PotentialError("singular weight-1 pairing on %s" % chart.name)
    keys = _section_keys(chart)
    basis = [chart.gen(chart.generators[g].name)
             for g in chart.section_indices]
    return basis, [SuperPoly.from_clean_terms(
        chart, {key: _norm(row[b]) for key, row in zip(keys, inverse)
                if row[b]}) for b in range(len(keys))]


def _frame_rows(chart, elements, label):
    """Each element as its sparse row {position: coefficient} over
    chart.section_indices, refusing any element that is not a constant
    rational combination of the chart's weight-1 generators."""
    position = {key: a for a, key in enumerate(_section_keys(chart))}
    rows = []
    for i, e in enumerate(elements):
        if e.chart is not chart or not position.keys() >= e.terms.keys():
            raise PotentialError(
                "%s[%d] is not a constant combination of the weight-1 "
                "generators of %s: %s" % (label, i, chart.name, to_text(e)))
        rows.append({position[key]: c for key, c in e.terms.items()})
    return rows


def _check_dual(chart, basis, dual):
    """Refuse a frame unless B P D^T = I, B and D the coefficient rows of
    the basis and the dual, P the pairing block: for constant coefficients
    that is <basis[i], dual[j]> = delta, since {e_g, e_h} = P^gh for
    either parity and the bracket is bilinear.  The product is sparse;
    values[j] holds each <basis[i], dual[j]> that can be nonzero."""
    if not len(basis) == len(dual) == len(chart.section_indices):
        raise PotentialError(
            "a frame needs one section and one dual per weight-1 generator: "
            "got %d sections and %d duals for %d generators"
            % (len(basis), len(dual), len(chart.section_indices)))
    block = _pairing_block(chart)
    rows = _frame_rows(chart, basis, "basis")
    dual_columns = {}
    for j, row in enumerate(_frame_rows(chart, dual, "dual")):
        for h, y in row.items():
            dual_columns.setdefault(h, []).append((j, y))
    for i, row in enumerate(rows):
        paired = {}
        for a, x in row.items():
            for h, c in block[a]:
                paired[h] = paired.get(h, 0) + x * c
        values = {i: 0}
        for h, v in paired.items():
            for j, y in dual_columns.get(h, ()):
                values[j] = values.get(j, 0) + v * y
        bad = [j for j, v in values.items() if v != (1 if i == j else 0)]
        if bad:
            j = min(bad)
            raise PotentialError(
                "basis/dual mismatch: <basis[%d], dual[%d]> = %s"
                % (i, j, to_text(SuperPoly.constant(chart, values[j]))))


def classical_naive_differential(theta, psi, basis, dual):
    """Differential of a small-complex element via the alternating sum.

    psi is built on the odd generators of the weight-1 sector over the
    base and has one degree k, the symplectic weight of each term
    (Chart.term_grading), whatever its weight vectors; an element of two
    degrees is refused.  The sum runs over tuples of distinct sections, so
    it evaluates skew forms only: an element with an even weight-1 factor
    (an even generator in section_indices, possible only off N-manifold
    charts) is refused.  basis is a list of sections, one per weight-1
    generator, and dual a list with <basis[i], dual[j]> = delta, each a
    constant rational combination of the weight-1 generators.  Every
    caller passes section_frame(chart); the frame stays an argument
    because the benchmark's differential workload passes one.  It is
    checked on its coefficient rows, as B P D^T = I with P the pairing
    block, which takes no bracket; a frame of the wrong size, a mismatched
    dual or an element with a non-constant coefficient is refused with
    PotentialError.  Evaluates Psi(t) = eval(psi; t) / c_k on every
    ascending basis tuple of length k+1 through

        sum_i (-1)^i rho(b_i) Psi(..b_i dropped..)
          + sum_{i<j} (-1)^(i+j) Psi([[b_i, b_j]], ..both dropped..),

    then reassembles the values on the dual monomials with one overall
    minus sign.  That sign was measured, not assumed: with the value
    normalization above, {theta, .} corresponds to minus the alternating
    sum uniformly (checked for input degrees 0 through 5 on three chart
    families).  The result equals q_theta(theta, psi) exactly; that
    equality is a checked identity.

    Only evaluations that can be nonzero are made.  The left-nested
    evaluations {...{psi, s_1}..., s_m} are walked depth first over
    ascending basis indices, from psi for the anchor terms and from
    {psi, [[b_i, b_j]]} for the bracket terms; a zero prefix is bracketed
    no further, since it is zero on every extension.  Each nonzero full
    evaluation is scattered, with its sign, into the term dict of the
    (k+1)-tuple it belongs to, and each nonzero tuple then takes one
    product by its dual monomial, scaled by -c_k.  This is the same finite
    sum in another order, so it is exact.  Applying c_k once instead of
    dividing every value by it is exact too: everything after the
    evaluation is linear in the values, and c_k = +-1 is its own inverse.
    The zero element, which is in the small complex, has differential
    zero once the frame is checked.

    Every anchor vector rho(b_i) = (-1)^b_i~ {theta, b_i} is computed
    at most once, whenever the anchor terms or the bracket terms need it.
    Every [[b_i, b_j]] is computed at most once, by pre_bracket given
    rho(b_i), as the derived bracket {rho(b_i), b_j}, and only for k >= 1,
    where the bracket terms exist; so theta is bracketed with each section
    at most once, not once per pair.  A zero anchor vector is applied to
    nothing.  Over a point (no generator of symplectic weight 0) the
    anchor terms are skipped: every form value there is a constant, which
    every anchor vector kills.  The anchor vectors are still made there
    for the bracket terms, but never applied.

    The elements that are contracted with several others keep their full
    gradient (SuperPoly.gradient): theta, psi, each anchor vector, each
    [[b_i, b_j]] and each node of the walk, as do the sections.  A bracket
    {X, Y} is a sum of (d_g X) P^gh (d_h Y), so it is zero when no
    derivative index g of X pairs with a derivative index h of Y; such a
    contraction is not made.  So {theta, b_i} is skipped, and rho(b_i)
    left zero, when theta meets no index of b_i; {rho(b_i), b_j} when
    rho(b_i) meets none of b_j; {psi, [[b_i, b_j]]} when the derived
    bracket is zero or psi meets none of its indices; and {node, b_m} in
    the walk when the node meets none of b_m.
    """
    if not naive_membership(AnchorVectors(theta), psi):
        raise PotentialError("element is not in the small complex: %s"
                             % to_text(psi))
    chart = psi.chart
    degrees = {chart.term_grading(key)[0] for key in psi.terms}
    if len(degrees) > 1:
        raise PotentialError("element must be homogeneous: %s" % to_text(psi))
    if any(chart.gradings[gi][0] == 1 for _, even, _ in psi.terms
           for gi, _e in even):
        raise PotentialError("element has an even weight-1 factor, which the "
                             "alternating sum of skew forms cannot "
                             "evaluate: %s" % to_text(psi))
    _check_dual(chart, basis, dual)
    if psi.is_zero:
        return chart.zero()
    k, = degrees
    n = len(basis)
    rows = chart.pairing_rows
    values = {}

    def partners(X):
        """The indices that pair with a derivative index of X, read off
        X's full gradient, which X keeps."""
        return {hj for gi in X.gradient() for hj, _ in rows.get(gi, ())}

    def walk(value, free, depth, labels=()):
        if value.is_zero:
            return
        if not depth:
            yield labels, value
            return
        meets = partners(value)
        for pos in range(len(free) - depth + 1):
            b = basis[free[pos]]
            if not meets.isdisjoint(b.gradient()):
                yield from walk(bracket(value, b), free[pos + 1:],
                                depth - 1, labels + (free[pos],))

    def scatter(combo, value, power):
        """Add (-1)^power value into the term dict of combo."""
        terms = values.setdefault(combo, {})
        for key, c in value.terms.items():
            _add_term(terms, key, -c if power % 2 else c)

    anchor_terms = bool(chart.base_indices) and k < n
    bracket_terms = 1 <= k < n
    if anchor_terms or bracket_terms:
        meets = partners(theta)
        anchors = [chart.zero() if meets.isdisjoint(b.gradient())
                   else anchor_vector(theta, b) for b in basis]
    if anchor_terms:
        for rest, value in walk(psi, range(n), k):
            for a in range(n):
                if a not in rest and not anchors[a].is_zero:
                    combo = tuple(sorted(rest + (a,)))
                    scatter(combo, apply_anchor_vector(anchors[a], value),
                            combo.index(a))
    if bracket_terms:
        meets_psi = partners(psi)
        for p in range(n):
            meets = partners(anchors[p])
            for q in range(p + 1, n):
                if meets.isdisjoint(basis[q].gradient()):
                    continue
                derived = pre_bracket(theta, basis[p], basis[q],
                                      anchor=anchors[p])
                if meets_psi.isdisjoint(derived.gradient()):
                    continue
                free = [m for m in range(n) if m != p and m != q]
                for rest, value in walk(bracket(psi, derived), free, k - 1):
                    combo = tuple(sorted(rest + (p, q)))
                    scatter(combo, value, combo.index(p) + combo.index(q))
    out = {}
    scale = -identification_constant(k)
    for combo, terms in values.items():
        if terms:
            monomial = chart.one()
            for m in combo:
                monomial = monomial * dual[m]
            mul_terms_into(out, terms, monomial.terms, scale)
    return SuperPoly.from_clean_terms(chart, out)


def point_cohomology(anchors):
    """(H0, H1) of the small complex over a point, as dicts {lift weight:
    dimension}, for the potential of the courant.AnchorVectors table
    anchors.

    Over a point the contraction conditions are empty, so the degree-1
    cochains are spanned by the weight-1 generators, H0 is the constants
    (lift weight 0) and d0 = {theta, const} = 0, so H1 is the kernel of
    {theta, .} on those generators.  They are grouped by lift weight
    (Chart.gradings) on a lifted chart and form one group of lift
    weight 0 otherwise; dim H1 of a group is its size minus the rank of
    the images {theta, g}, by exact linear algebra.  The table's anchor
    vectors (-1)^g~ {theta, g} are those images up to a sign per row,
    which leaves the rank as it is.

    Nothing is refused when {theta, theta} != 0: H0 and H1 depend only on
    d0 and d1, and d0 vanishes for every theta over a point, so a d^2 check
    on these degrees could never fail.
    """
    chart = anchors.theta.chart
    if chart.base_indices:
        raise PotentialError("point cohomology needs a chart over a point "
                             "(no symplectic-weight-0 generators)")
    groups = {}
    for idx in chart.section_indices:
        weight = chart.gradings[idx][1] if chart.lift_degree is not None else 0
        groups.setdefault(weight, []).append(
            anchors[chart.generators[idx].name])
    h1 = {}
    for weight, images in sorted(groups.items()):
        h1[weight] = len(images) - linalg.rank([v.terms for v in images])
    return {0: 1}, h1


def constant_l1_basis(theta):
    """Spanning set of the degree-1 small complex with constant coefficients.

    Solves the coordinate-contraction conditions for rational constant
    combinations of the weight-1 generators by exact nullspace computation.
    Those conditions are naive_membership's, and a weight-1 combination is
    momentum-free, so every nullspace element is in the small complex by
    construction and is not tested again.  Each signed {theta, x_a} of
    iota is computed once; a zero one imposes no condition.
    """
    chart = theta.chart
    sections = [chart.gen(chart.generators[idx].name)
                for idx in chart.section_indices]
    rows = []
    for idx in chart.base_indices:
        tf = anchor_vector(theta, chart.gen(chart.generators[idx].name))
        if tf.is_zero:
            continue
        # one row per term key of the brackets {tf, s}: its coefficient
        # in each, by section
        by_key = {}
        for a, s in enumerate(sections):
            for key, c in bracket(tf, s).terms.items():
                by_key.setdefault(key, {})[a] = c
        rows.extend(by_key.values())
    keys = _section_keys(chart)
    return [SuperPoly.from_clean_terms(
        chart, {key: _norm(c) for key, c in zip(keys, coeffs) if c})
        for coeffs in linalg.nullspace(rows, ncols=len(sections))]


def naive_cohomology_condition(theta, tt):
    """True when the Jacobiator kills every degree-1 small-complex element.

    Scans a constant-coefficient spanning set of the degree-1 elements
    against all ordered pairs of weight-1 coordinate sections.  When this
    holds the small complex is a genuine cochain complex (the squared
    differential vanishes on it), which the tests verify separately.

    The Jacobiator is read off the self-bracket tt = {theta, theta} in its
    master form J(k,u,v) = (-1)^u~ (1/2) {{{tt, k}, u}, v}
    (courant.jacobiator_via_master), so a triple vanishes exactly when
    {{{tt, k}, u}, v} does.  Each {tt, k} is computed once per kappa and
    each {{tt, k}, u} once per pair; a triple then costs one bracket.
    """
    if tt.is_zero:
        return True
    chart = theta.chart
    ones = [chart.gen(chart.generators[idx].name)
            for idx in chart.section_indices]
    for kappa in constant_l1_basis(theta):
        with_kappa = bracket(tt, kappa)
        if with_kappa.is_zero:
            continue
        for u in ones:
            with_u = bracket(with_kappa, u)
            if with_u.is_zero:
                continue
            for v in ones:
                if not bracket(with_u, v).is_zero:
                    return False
    return True
