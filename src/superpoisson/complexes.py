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

from fractions import Fraction

from .superpoly import homogeneity, to_text
from .poisson import bracket
from .courant import (PotentialError, anchor_apply, jacobiator, pairing,
                      pre_bracket, validate_potential)
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
    every contraction must kill it.  The contraction condition is decided
    on each base coordinate and re-checked against a formal function symbol
    (two independent routes; for momentum-free elements their equivalence
    is a theorem, so a disagreement would flag an engine bug).
    """
    chart = alpha.chart
    for g in chart.generators:
        if chart.gen_symplectic_weight(g.index) > 1 and alpha.uses_generator(g.index):
            return False
    for idx in chart.base_indices:
        f = chart.gen(chart.generators[idx].name)
        if not iota(theta, f, alpha).is_zero:
            return False
    used = theta.symbol_names() | alpha.symbol_names()
    probe = "F"
    while probe in used:
        probe += "q"
    if not iota(theta, chart.symbol(probe), alpha).is_zero:
        raise PotentialError(
            "coordinate contractions vanish but the formal contraction does "
            "not; the structural membership argument is broken on this input")
    return True


def naive_commutator_defect(theta, f, alpha):
    """iota_f(Q alpha) + (-1)^f~ Q(iota_f alpha) - {{theta,{theta,f}}, alpha}.

    Identically zero for every potential; on a potential whose self-bracket
    kills weight-0 functions the last term dies, so the small complex is
    closed under the differential.
    """
    pf = f.parity()
    sign = -1 if pf else 1
    out = iota(theta, f, q_theta(theta, alpha))
    out = out + q_theta(theta, iota(theta, f, alpha)) * sign
    out = out - bracket(bracket(theta, bracket(theta, f)), alpha)
    return out


def eval_on_sections(alpha, sections):
    """Left-nested evaluation {...{{alpha, s_1}, s_2}..., s_k}."""
    out = alpha
    for s in sections:
        out = bracket(out, s)
    return out


def identification_constant(k):
    """eval_on_sections(d_1 ... d_k; b_1, ..., b_k) for dual pairs <b,d> = 1.

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

    The basis tuples overlap heavily, so within one call every [[b_i, b_j]]
    is computed once per index pair and every left-nested evaluation once
    per prefix of section labels (a basis index, or an index pair standing
    for its derived bracket).
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
        return evaluations[labels] * Fraction(ck)

    out = chart.zero()
    n = len(basis)
    for combo in _ascending_tuples(n, k + 1):
        value = chart.zero()
        for i in range(k + 1):
            rest = tuple(combo[m] for m in range(k + 1) if m != i)
            sign = -1 if i % 2 else 1
            value = value + anchor_apply(theta, basis[combo[i]],
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
    return out


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


def cohomology_point(theta):
    """(dim H0, dim H1) of the small complex over a point base.

    H0 is the constants (the differential of a constant is computed and
    must vanish); H1 is the kernel of the anchor on the weight-1 fibre
    sector modulo differentials of weight-0 functions, both sides obtained
    by exact linear algebra.  Over a point the anchor matrix has no rows
    and the image is generated by {theta, 1}, so the computation is honest
    but small.
    """
    chart = theta.chart
    if chart.base_indices:
        raise PotentialError("cohomology_point needs a chart over a point "
                             "(no symplectic-weight-0 generators)")
    validate_potential(theta)
    d_const = q_theta(theta, chart.one())
    if not d_const.is_zero:
        raise PotentialError("differential of a constant is nonzero; the "
                             "bracket engine is broken")
    fibre = chart.role_indices("fibre")
    if not fibre:
        fibre = tuple(g.index for g in chart.generators
                      if chart.gen_symplectic_weight(g.index) == 1)
    n = len(fibre)
    anchor_rows = []
    for idx in chart.base_indices:
        f = chart.gen(chart.generators[idx].name)
        row = []
        for m in fibre:
            sec = chart.gen(chart.generators[m].name)
            row.append(anchor_apply(theta, sec, f))
        anchor_rows.append(row)
    # over a point anchor_rows is empty; keep the honest call anyway
    kernel = linalg.nullspace([[_constant_of(p) for p in row]
                               for row in anchor_rows], ncols=n)
    image_rows = [[_coefficient_on(d_const, chart, m) for m in fibre]]
    image_rank = linalg.rank(image_rows)
    return (1, len(kernel) - image_rank)


def _constant_of(poly):
    if poly.is_zero:
        return Fraction(0)
    items = poly.items()
    if len(items) != 1 or items[0][0] != ((), (), ()):
        raise PotentialError("expected a constant, got %s" % to_text(poly))
    return items[0][1]


def _coefficient_on(poly, chart, idx):
    gen = chart.generators[idx]
    if gen.parity:
        key = ((), (), (idx,))
    else:
        key = ((), ((idx, 1),), ())
    return poly.coefficient(key)


def constant_l1_basis(theta):
    """Spanning set of the degree-1 small complex with constant coefficients.

    Solves the coordinate-contraction conditions for rational constant
    combinations of the weight-1 generators by exact nullspace computation;
    each resulting element is re-validated through naive_membership (which
    adds the formal-symbol route).
    """
    chart = theta.chart
    ones = [g.index for g in chart.generators
            if chart.gen_symplectic_weight(g.index) == 1]
    if not ones:
        return []
    contractions = []
    for m in ones:
        sec = chart.gen(chart.generators[m].name)
        pieces = [iota(theta, chart.gen(chart.generators[idx].name), sec)
                  for idx in chart.base_indices]
        contractions.append(pieces)
    keys = sorted({key
                   for pieces in contractions
                   for p in pieces
                   for key in p.terms})
    rows = []
    for a in range(len(chart.base_indices)):
        for key in keys:
            row = [contractions[m][a].coefficient(key)
                   for m in range(len(ones))]
            if any(row):
                rows.append(row)
    kernel = linalg.nullspace(rows, ncols=len(ones))
    out = []
    for coeffs in kernel:
        el = chart.zero()
        for c, m in zip(coeffs, ones):
            if c:
                el = el + chart.gen(chart.generators[m].name) * c
        if not naive_membership(theta, el):
            raise PotentialError("nullspace element fails membership; the "
                                 "structural reduction is broken")
        out.append(el)
    return out


def naive_cohomology_condition(theta):
    """True when the Jacobiator kills every degree-1 small-complex element.

    Scans a constant-coefficient spanning set of the degree-1 elements
    against all ordered pairs of weight-1 coordinate sections.  When this
    holds the small complex is a genuine cochain complex (the squared
    differential vanishes on it), which the tests verify separately.
    """
    chart = theta.chart
    kappas = constant_l1_basis(theta)
    ones = [chart.gen(g.name) for g in chart.generators
            if chart.gen_symplectic_weight(g.index) == 1]
    for kappa in kappas:
        for u in ones:
            for v in ones:
                if not jacobiator(theta, kappa, u, v).is_zero:
                    return False
    return True
