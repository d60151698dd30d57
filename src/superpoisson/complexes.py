"""Quasi-cochain complexes attached to an odd cubic potential.

Two complexes live on the same chart: the full one, whose differential is
q_theta = {theta, .}, and the small one built on functions of the weight-1
coordinates only, cut out by the contractions

    iota(theta, f, alpha) = (-1)^f~ {{theta, f}, alpha}.

classical_naive_differential recomputes the differential of a small-complex
element through the classical alternating sum over a section basis (anchor
terms plus bracket terms); its agreement with q_theta is a checked identity,
with the degree-dependent identification constants recorded here.
"""

from .superpoly import homogeneity, to_text
from .poisson import bracket
from .courant import (PotentialError, anchor_vector, apply_anchor_vector,
                      pairing, pre_bracket)
from . import linalg


def q_theta(theta, alpha):
    """Differential of the full complex: {theta, alpha}."""
    return bracket(theta, alpha)


def iota(theta, f, alpha):
    """Contraction by a weight-0 function: (-1)^f~ {{theta, f}, alpha}."""
    pf = f.parity()
    sign = -1 if pf else 1
    return bracket(bracket(theta, f), alpha) * sign


def naive_membership(theta, alpha):
    """Structural membership test for the small complex.

    An element must be built from the base and weight-1 sectors only, and
    every contraction must kill it.  The contractions by the base
    coordinates decide that: for a momentum-free element the contraction by
    any weight-0 function, a formal symbol included, is a combination of
    them, so it vanishes once they all do.
    """
    chart = alpha.chart
    for g in chart.generators:
        if chart.gen_symplectic_weight(g.index) > 1 and alpha.uses_generator(g.index):
            return False
    for idx in chart.base_indices:
        f = chart.gen(chart.generators[idx].name)
        if not iota(theta, f, alpha).is_zero:
            return False
    return True


def naive_commutator_defect(theta, f, alpha):
    """iota_f(Q alpha) + (-1)^f~ Q(iota_f alpha) - {{theta,{theta,f}}, alpha}.

    Identically zero for every potential; on a potential whose self-bracket
    kills weight-0 functions the last term dies, so the small complex is
    closed under the differential.

    Within one call {theta, f} is computed once and serves both
    contractions and the last term; in the second term the sign of the
    contraction cancels the (-1)^f~ in front of it.
    """
    pf = f.parity()
    sign = -1 if pf else 1
    theta_f = bracket(theta, f)
    out = bracket(theta_f, q_theta(theta, alpha)) * sign
    out = out + q_theta(theta, bracket(theta_f, alpha))
    out = out - bracket(bracket(theta, theta_f), alpha)
    return out


def identification_constant(k):
    """{...{{d_1 ... d_k, b_1}, b_2}..., b_k} for dual pairs <b,d> = 1.

    The constants are (-1)^(k(k-1)/2): +1, -1, -1, +1, ... They translate
    between multilinear-form values and coefficient polynomials.
    """
    return -1 if (k * (k - 1) // 2) % 2 else 1


def _check_dual(basis, dual):
    chart = basis[0].chart
    for i, b in enumerate(basis):
        for j, d in enumerate(dual):
            want = chart.one() if i == j else chart.zero()
            if pairing(b, d) != want:
                raise PotentialError(
                    "basis/dual mismatch: <basis[%d], dual[%d]> = %s"
                    % (i, j, to_text(pairing(b, d))))


def classical_naive_differential(theta, psi, basis, dual):
    """Differential of a small-complex element via the alternating sum.

    psi is a weight-k element built on the weight-1 sector, basis a list of
    sections spanning it and dual a list with <basis[i], dual[j]> = delta.
    Evaluates Psi(t) = eval(psi; t) / c_k on every ascending basis tuple of
    length k+1 through

        sum_i (-1)^i rho(b_i) Psi(..b_i dropped..)
          + sum_{i<j} (-1)^(i+j) Psi([[b_i, b_j]], ..both dropped..),

    then reassembles the values on the dual monomials with one overall
    minus sign.  That sign was measured, not assumed: with the value
    normalization above, {theta, .} corresponds to minus the alternating
    sum uniformly (checked for input degrees 0 through 5 on three chart
    families).  The result equals q_theta(theta, psi) exactly; that
    equality is a checked identity.

    The constant c_k is applied once, to the assembled sum, not to each
    evaluation.  This is exact: the anchor terms, the bracket terms and
    the reassembly on dual monomials are all linear in the values Psi(t),
    and c_k = +-1 is its own inverse, so dividing every value by c_k and
    multiplying the sum by c_k give the same element, coefficient for
    coefficient (an int scalar builds no Fraction).

    The basis tuples overlap heavily, so within one call every [[b_i, b_j]]
    is computed once per index pair, every anchor vector (-1)^b_i~
    {theta, b_i} once per basis index, and every left-nested evaluation once
    per prefix of section labels (a basis index, or an index pair standing
    for its derived bracket).  Over a point (no generator of symplectic
    weight 0) the anchor terms and their anchor vectors are skipped: every
    form value there is a constant, which every anchor vector kills.
    """
    if not naive_membership(theta, psi):
        raise PotentialError("element is not in the small complex: %s"
                             % to_text(psi))
    hom = homogeneity(psi)
    if not hom.homogeneous or hom.weight is None:
        raise PotentialError("element must be homogeneous: %s" % to_text(psi))
    chart = psi.chart
    k = chart.symplectic_weight(hom.weight)
    _check_dual(basis, dual)
    ck = identification_constant(k)
    brackets = {}
    anchors = ([anchor_vector(theta, b) for b in basis]
               if chart.base_indices else [])
    evaluations = {(): psi}

    def section(label):
        if isinstance(label, int):
            return basis[label]
        if label not in brackets:
            brackets[label] = pre_bracket(theta, basis[label[0]],
                                          basis[label[1]])
        return brackets[label]

    def form_value(labels):
        start = len(labels)
        while labels[:start] not in evaluations:
            start -= 1
        for end in range(start + 1, len(labels) + 1):
            evaluations[labels[:end]] = bracket(evaluations[labels[:end - 1]],
                                                section(labels[end - 1]))
        return evaluations[labels]

    out = chart.zero()
    n = len(basis)
    for combo in _ascending_tuples(n, k + 1):
        value = chart.zero()
        for i in range(k + 1 if chart.base_indices else 0):
            rest = tuple(combo[m] for m in range(k + 1) if m != i)
            sign = -1 if i % 2 else 1
            value = value + apply_anchor_vector(anchors[combo[i]],
                                               form_value(rest)) * sign
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                rest = ((combo[i], combo[j]),) + tuple(
                    combo[m] for m in range(k + 1) if m != i and m != j)
                sign = -1 if (i + j) % 2 else 1
                value = value + form_value(rest) * sign
        if value.is_zero:
            continue
        monomial = chart.one()
        for m in combo:
            monomial = monomial * dual[m]
        out = out - value * monomial
    return out * ck


def _ascending_tuples(n, k):
    if k == 0:
        yield ()
        return
    def rec(start, prefix):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for i in range(start, n):
            prefix.append(i)
            yield from rec(i + 1, prefix)
            prefix.pop()
    yield from rec(0, [])


def point_cohomology(theta):
    """(H0, H1) of the small complex over a point, as dicts {lift weight:
    dimension}.

    Over a point the contraction conditions are empty, so the degree-1
    cochains are spanned by the weight-1 generators, H0 is the constants
    (lift weight 0) and d0 = {theta, const} = 0, so H1 is the kernel of
    {theta, .} on those generators.  They are grouped by lift weight on a
    lifted chart and form one group of lift weight 0 otherwise; dim H1 of
    a group is its size minus the rank of the images {theta, g}, by exact
    linear algebra.

    Nothing is refused when {theta, theta} != 0: H0 and H1 depend only on
    d0 and d1, and d0 vanishes for every theta over a point, so a d^2 check
    on these degrees could never fail.
    """
    chart = theta.chart
    if chart.base_indices:
        raise PotentialError("point cohomology needs a chart over a point "
                             "(no symplectic-weight-0 generators)")
    groups = {}
    for g in chart.generators:
        if chart.gen_symplectic_weight(g.index) == 1:
            weight = g.weight[0] if chart.lift_degree is not None else 0
            groups.setdefault(weight, []).append(
                bracket(theta, chart.gen(g.name)))
    h1 = {}
    for weight, images in sorted(groups.items()):
        keys = sorted({key for v in images for key in v.terms})
        h1[weight] = len(images) - linalg.rank(
            [[v.coefficient(key) for key in keys] for v in images])
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
    sections = [chart.gen(g.name) for g in chart.generators
                if chart.gen_symplectic_weight(g.index) == 1]
    if not sections:
        return []
    contractions = []
    for idx in chart.base_indices:
        f = chart.gen(chart.generators[idx].name)
        tf = bracket(theta, f) * (-1 if f.parity() else 1)
        if not tf.is_zero:
            contractions.append([bracket(tf, s) for s in sections])
    keys = sorted({key
                   for pieces in contractions
                   for p in pieces
                   for key in p.terms})
    rows = []
    for pieces in contractions:
        for key in keys:
            row = [p.coefficient(key) for p in pieces]
            if any(row):
                rows.append(row)
    kernel = linalg.nullspace(rows, ncols=len(sections))
    out = []
    for coeffs in kernel:
        el = chart.zero()
        for c, sec in zip(coeffs, sections):
            if c:
                el = el + sec * c
        out.append(el)
    return out


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
    ones = [chart.gen(g.name) for g in chart.generators
            if chart.gen_symplectic_weight(g.index) == 1]
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
