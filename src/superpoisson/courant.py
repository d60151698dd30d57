"""Derived-bracket calculus for odd cubic potentials.

An odd potential T of symplectic weight 3 on a graded symplectic chart
induces a bracket, an anchor and a pairing on the weight-1 functions
("sections").  Everything here is a thin layer of Poisson brackets:

    pre_bracket(T, s, p)  = (-1)^s~ {{T, s}, p}
    anchor_vector(T, s)   = (-1)^s~ {T, s}
    anchor_apply(T, s, f) = {anchor_vector(T, s), f}
    pairing(s, p)         = {s, p}

The differential {T, f} of a function is ``complexes.q_theta``.

The self-bracket {T, T} measures how far this structure is from a Courant
algebroid.  classify() sorts potentials into three classes by one rule:
for odd T the graded Jacobi identity gives {{T, T}, x} = 2 {T, {T, x}},
so T is Nearly when {T, {T, x}} is nonzero for some base coordinate x,
and otherwise {T, T} decides between Courant (zero) and PreCourant.
The closed forms built on {T, T} take it as an argument, so a caller that
checks many samples computes it once: jacobiator_via_master, the
right-hand side of anchor_defect, and complexes.naive_cohomology_condition,
which asks whether the master form of the Jacobiator vanishes on the small
complex.  A StructureClass computes it on the first read of its sigma.

The identities on two sections s, p take a SectionPair in the same way:
it carries the anchor vectors of s and p, the derived bracket [[s, p]]
and its anchor vector, so symmetry_defect, anchor_defect and jacobiator
on one pair share them instead of each computing them again.  An
AnchorVectors table passes the anchor vectors of coordinates and named
arguments to the checks of one instance in the same way.
"""

import functools
from fractions import Fraction

from .superpoly import ODD, parse_expr, to_text
from .poisson import bracket


class PotentialError(ValueError):
    """Raised when an argument is not a valid potential for an operation."""


def _parity(value, what):
    if value.is_zero:
        return 0
    par = value.parity()
    if par is None:
        raise PotentialError("%s must have homogeneous parity" % what)
    return par


def _term_problem(theta, key, lift):
    """What is wrong with the term key of a potential, as a message with
    one %s for the term's text; None when nothing is."""
    if theta.term_parity(key) != ODD:
        return "potential must be odd; even term %s"
    sw, lw = theta.chart.term_grading(key)
    if sw != 3:
        return ("potential must have symplectic weight 3; term %%s has %d"
                % sw)
    if lift is not None and lw != lift:
        return ("potential on a degree-%d lifted chart must have lift "
                "weight %d; term %%s has %d" % (lift + 1, lift, lw))
    return None


def validate_potential(theta):
    """Check that theta is odd and of symplectic weight 3 in every term.

    The weight vector may differ between terms across the symplectic axes
    (on a two-axis cotangent chart the pure cubic fibre term trades axis
    weights against the momentum terms), so the scan is term by term.  On
    a lifted chart every term must in addition have lift weight k - 1
    where k is the chart's lift degree.  Raises PotentialError for the
    least offending term key; the terms are sorted, and a term's text
    built, only for that message.
    """
    chart = theta.chart
    lift = None if chart.lift_degree is None else chart.lift_degree - 1
    bad = [key for key in theta.terms if _term_problem(theta, key, lift)]
    if bad:
        key = min(bad)
        raise PotentialError(_term_problem(theta, key, lift) % to_text(
            type(theta)(chart, {key: theta.terms[key]})))


def pre_bracket(theta, sigma, psi, anchor=None):
    """Derived bracket on sections: (-1)^sigma~ {{theta, sigma}, psi}, that
    is {rho(sigma), psi} for the anchor vector rho(sigma).  A caller that
    brackets one sigma with many psi makes anchor_vector(theta, sigma) once
    and passes it as anchor."""
    if anchor is None:
        anchor = anchor_vector(theta, sigma)
    return bracket(anchor, psi)


def anchor_vector(theta, sigma):
    """(-1)^sigma~ {theta, sigma}, by which sigma acts on functions."""
    sign = -1 if _parity(sigma, "section") else 1
    return bracket(theta, sigma) * sign


def apply_anchor_vector(rho, f):
    """{rho, f} for an anchor vector rho and a function f of symplectic
    weight 0 in every term; the terms may differ in lift weight."""
    if any(f.chart.term_grading(key)[0] != 0 for key in f.terms):
        raise PotentialError("anchor argument must have symplectic "
                             "weight 0: %s" % to_text(f))
    return bracket(rho, f)


def anchor_apply(theta, sigma, f):
    """Action of the section sigma on the weight-0 function f."""
    return apply_anchor_vector(anchor_vector(theta, sigma), f)


def pairing(sigma, psi):
    """Symmetric pairing of sections: the plain Poisson bracket {sigma, psi}."""
    return bracket(sigma, psi)


class SectionPair:
    """Two sections and the pieces of their derived bracket.

    rho_sigma and rho_psi are the anchor vectors of sigma and psi, given
    (section_pair computes them, an AnchorVectors table looks them up);
    value is [[sigma, psi]] = {rho_sigma, psi} and rho_value its anchor
    vector, both computed here.
    """

    def __init__(self, theta, sigma, psi, rho_sigma, rho_psi):
        self.theta = theta
        self.sigma = sigma
        self.psi = psi
        self.parities = (_parity(sigma, "section"), _parity(psi, "section"))
        # (-1)^((s~+1)(p~+1)), the sign of swapping the two sections.
        self.swap_sign = -1 if not any(self.parities) else 1
        self.rho_sigma = rho_sigma
        self.rho_psi = rho_psi
        self.value = bracket(rho_sigma, psi)
        self.rho_value = anchor_vector(theta, self.value)


def section_pair(theta, sigma, psi):
    """The SectionPair of sigma and psi, with their anchor vectors."""
    return SectionPair(theta, sigma, psi, anchor_vector(theta, sigma),
                       anchor_vector(theta, psi))


class AnchorVectors(dict):
    """anchor_vector(theta, x) by the text of x, each computed on its first
    lookup.

    For a section x it is the anchor of x.  For a weight-0 coordinate x the
    bracket with it is the contraction (-1)^x~ {{theta, x}, .} of the small
    complex (complexes.naive_membership); for a weight-1 generator it is
    {theta, x} up to a sign (complexes.point_cohomology).  One table serves
    one computation, such as one check of an instance, so every check that
    reads the same vector shares one bracket, and nothing outlives it.
    """

    def __init__(self, theta):
        super().__init__()
        self.theta = theta

    def __missing__(self, text):
        value = self[text] = anchor_vector(
            self.theta, parse_expr(self.theta.chart, text))
        return value


def jacobiator(pair, lam):
    """Defect of the Jacobi identity for the derived bracket.

    J(s,p,l) = [[s,[[p,l]]]] - [[[[s,p]],l]] - (-1)^((s~+1)(p~+1)) [[p,[[s,l]]]]

    for the sections s, p of the SectionPair and l.  Every derived bracket
    [[a, b]] is {anchor vector of a, b}; the pair supplies those of s, p
    and [[s, p]].
    """
    out = bracket(pair.rho_sigma, bracket(pair.rho_psi, lam))
    out = out - bracket(pair.rho_value, lam)
    out = out - bracket(pair.rho_psi, bracket(pair.rho_sigma, lam)) \
        * pair.swap_sign
    return out


def jacobiator_via_master(tt, sigma, psi, lam):
    """The same Jacobiator from the self-bracket tt = {theta, theta}.

    J(s,p,l) = (-1)^p~ (1/2) {{{tt, s}, p}, l}; the agreement with
    jacobiator() on all inputs is one of the checked identities.
    """
    sign = -1 if _parity(psi, "section") else 1
    out = bracket(bracket(bracket(tt, sigma), psi), lam)
    return out * Fraction(sign, 2)


def symmetry_defect(pair):
    """[[s,p]] + (-1)^((s~+1)(p~+1)) [[p,s]] - (-1)^s~ {theta, <s,p>}.

    Identically zero for every potential; the derived bracket fails to be
    skew only through the differential of the pairing.  [[s, p]] is the
    pair's value, [[p, s]] = {rho_p, s} is computed here.
    """
    s, p = pair.sigma, pair.psi
    d_sign = -1 if pair.parities[0] else 1
    out = pair.value + bracket(pair.rho_psi, s) * pair.swap_sign
    out = out - bracket(pair.theta, pairing(s, p)) * d_sign
    return out


def anchor_defect(pair, tt, f):
    """Anchor-morphism defect minus its closed form; identically zero.

    The commutator of anchor actions differs from the anchor of the bracket
    by (1/2)(-1)^(f~(s~+p~)+p~) {{{tt,f},s},p} with tt = {theta, theta};
    this function computes both sides and returns their difference.  The
    direct side uses the pair's anchor vectors only (those of s, p and
    [[s, p]], all from theta), the closed form tt only.
    """
    ps, pp = pair.parities
    pf = _parity(f, "function")
    rho_s, rho_p = pair.rho_sigma, pair.rho_psi
    lhs = apply_anchor_vector(rho_s, apply_anchor_vector(rho_p, f))
    lhs = lhs - apply_anchor_vector(
        rho_p, apply_anchor_vector(rho_s, f)) * pair.swap_sign
    lhs = lhs - apply_anchor_vector(pair.rho_value, f)
    rhs_sign = -1 if ((pf & (ps ^ pp)) ^ pp) else 1
    rhs = bracket(bracket(bracket(tt, f), pair.sigma), pair.psi)
    rhs = rhs * Fraction(rhs_sign, 2)
    return lhs - rhs


NEARLY = "Nearly"
PRE_COURANT = "PreCourant"
COURANT = "Courant"


class StructureClass:
    """Classification verdict for a potential T, with witnesses.

    verdict is one of "Courant" ({T,T} = 0), "PreCourant" ({T,T} nonzero but
    killing every weight-0 function) or "Nearly" (neither).  For Nearly,
    witness_name/witness_value give the first base coordinate x with
    {{T,T}, x} = 2 {T, {T, x}} nonzero, and that value.  sigma is {T,T},
    computed from theta on its first read.
    """

    def __init__(self, theta, verdict, witness_name=None, witness_value=None):
        self.theta = theta
        self.verdict = verdict
        self.witness_name = witness_name
        self.witness_value = witness_value

    @functools.cached_property
    def sigma(self):
        """The self-bracket {T, T}."""
        return bracket(self.theta, self.theta)

    @property
    def is_pre_courant(self):
        """True when {{T,T}, f} = 0 for all weight-0 f (Courant included)."""
        return self.verdict != NEARLY

    def __repr__(self):
        return "StructureClass(%r)" % self.verdict


def classify(theta):
    """Sort a potential into Courant / PreCourant / Nearly: Nearly at the
    first base coordinate x with {T, {T, x}} nonzero, else by {T, T}."""
    validate_potential(theta)
    chart = theta.chart
    for idx in chart.base_indices:
        name = chart.generators[idx].name
        rho = bracket(theta, chart.gen(name))
        if rho.is_zero:
            continue
        value = bracket(theta, rho)
        if not value.is_zero:
            return StructureClass(theta, NEARLY, name, value * 2)
    sc = StructureClass(theta, PRE_COURANT)
    if sc.sigma.is_zero:
        sc.verdict = COURANT
    return sc

