import collections
import itertools
import random
from fractions import Fraction

import pytest

import draws
import identities
import oracles
import routes
from superpoisson import (charts, complexes, courant, gallery, lifts,
                          superpoly)
from superpoisson.charts import (chart_from_json, chart_to_json,
                                 hyperbolic_metric, make_cotangent_antivb_chart,
                                 make_darboux_chart)
from superpoisson.courant import PotentialError
from superpoisson.poisson import bracket
from superpoisson.superpoly import parse_expr, to_text


def bialgebroid():
    inst = gallery.build("bialgebroid")
    return inst.chart, inst.default_potential


def member(T, text):
    return complexes.naive_membership(courant.AnchorVectors(T),
                                      parse_expr(T.chart, text))


def test_membership_structural_gate_rejects_momenta():
    _ch, T = bialgebroid()
    for text in ("p1", "x1*p1", "xi1*p1"):
        assert not member(T, text), text


def test_membership_contraction_gate():
    _ch, T = bialgebroid()
    for text in ("xi1", "pi2", "x1*xi1", "xi1*pi2"):
        assert member(T, text), text
    # these contract against {T, x1} = -(xi1 + pi2) and fail
    for text in ("xi2", "pi1", "xi1*xi2", "x1*pi1"):
        assert not member(T, text), text


def test_membership_constants_and_functions():
    _ch, T = bialgebroid()
    for text in ("1", "x1^2", "g", "0"):
        assert member(T, text), text


def test_commutator_defect_vanishes_on_random_inputs():
    rng = random.Random(41)
    charts = [make_darboux_chart(1, 3), make_cotangent_antivb_chart(1, 2),
              make_cotangent_antivb_chart(2, 2)]
    for r in range(30):
        ch = charts[r % len(charts)]
        T = draws.random_potential(ch, rng)
        f = draws.reference_base_function(ch, rng)
        a = draws.random_homogeneous(ch, rng)
        defect = identities.commutator_defect(T, f, a)
        assert defect.is_zero, (r, to_text(defect))


def test_section_frame_is_dual():
    # Two Darboux metric charts, then the 55 catalogue charts, their
    # flattenings and the lifts of those at k = 2 and 3.
    charts = [make_darboux_chart(1, 3),
              make_darboux_chart(1, 4, metric=hyperbolic_metric(2))]
    for name in gallery.names():
        chart = gallery.build(name).chart
        charts.append(chart)
        try:
            flat = lifts.flatten_chart(chart)
        except lifts.LiftError:
            continue
        charts += [flat] + [lifts.tangent_lift_chart(flat, k) for k in (2, 3)]
    assert len(charts) == 2 + 55
    for chart in charts:
        basis, dual = complexes.section_frame(chart)
        # the frame the identity sweeps and the benchmark load
        assert identities.weight_one_frame(chart) == (basis, dual)
        assert basis == [chart.gen(chart.generators[idx].name)
                         for idx in chart.section_indices]
        for i, b in enumerate(basis):
            for j, d in enumerate(dual):
                want = chart.one() if i == j else chart.zero()
                assert courant.pairing(b, d) == want, (chart.name, i, j)


@pytest.mark.parametrize("k, count", [(2, 8), (3, 11)])
def test_classical_differential_on_a_lifted_non_diagonal_metric(k, count):
    # Every lifted weight-1 generator pairs with several copies here, so
    # no frame of single scaled conjugates exists.
    ch = make_darboux_chart(0, 3, metric=[[1, 1, 0], [1, 2, 0], [0, 0, 1]])
    T = lifts.complete_lift(parse_expr(ch, "xi1*xi2*xi3"), k)
    basis, dual = complexes.section_frame(T.chart)
    elements = [T.chart.one()] + basis + [basis[0] * basis[-1]]
    assert len(elements) == count
    for el in elements:
        got = complexes.classical_naive_differential(T, el, basis, dual)
        assert got == complexes.q_theta(T, el), to_text(el)


def test_classical_differential_rejects_non_members():
    ch, T = bialgebroid()
    basis, dual = complexes.section_frame(ch)
    with pytest.raises(PotentialError):
        complexes.classical_naive_differential(T, ch.gen("p1"), basis, dual)


def test_classical_differential_rejects_bad_dual():
    ch, T = bialgebroid()
    basis, dual = complexes.section_frame(ch)
    with pytest.raises(PotentialError):
        complexes.classical_naive_differential(T, ch.gen("xi1"), basis,
                                               list(basis))


def cross3_frame():
    inst = gallery.build("cross3")
    basis, dual = complexes.section_frame(inst.chart)
    return inst.default_potential, inst.chart.gen("xi1"), basis, dual


@pytest.mark.parametrize("cut", ["short_dual", "empty", "short_frame"])
def test_classical_differential_rejects_a_frame_of_the_wrong_size(cut):
    # A short dual used to raise IndexError, and so did an empty frame; a
    # five-section frame with matching duals spans too little and used to
    # return a wrong element without complaint.
    T, psi, basis, dual = cross3_frame()
    assert len(basis) == len(dual) == 6
    basis, dual = {"short_dual": (basis, dual[:5]),
                   "empty": ([], []),
                   "short_frame": (basis[:5], dual[:5])}[cut]
    with pytest.raises(PotentialError, match="one section and one dual"):
        complexes.classical_naive_differential(T, psi, basis, dual)


def changed_frame(chart, rng):
    """(A basis, A^-T dual) with A a seeded unitriangular matrix of small
    integers whose rows are permuted, and A^-1, on the frame of chart."""
    basis, dual = complexes.section_frame(chart)
    n = len(basis)
    upper = [[1 if a == i else rng.choice((-1, 0, 0, 1, 2)) if a > i else 0
              for a in range(n)] for i in range(n)]
    inverse = [[0] * n for _ in range(n)]
    for i in reversed(range(n)):
        inverse[i][i] = 1
        for j in range(i + 1, n):
            inverse[i][j] = -sum(upper[i][m] * inverse[m][j]
                                 for m in range(i + 1, j + 1))
    perm = list(range(n))
    rng.shuffle(perm)
    # A[i] = upper[perm[i]], so (A^-1)[b][j] = inverse[b][perm[j]]
    new_basis = [sum((b * upper[perm[i]][a] for a, b in enumerate(basis)
                      if upper[perm[i]][a]), chart.zero()) for i in range(n)]
    new_dual = [sum((d * inverse[b][perm[j]] for b, d in enumerate(dual)
                     if inverse[b][perm[j]]), chart.zero()) for j in range(n)]
    return new_basis, new_dual


@pytest.mark.parametrize("name", gallery.names())
def test_classical_differential_accepts_a_constant_change_of_frame(name):
    # The frame check reads coefficient rows, so any constant frame with
    # <basis[i], dual[j]> = delta passes it, and the alternating sum does
    # not depend on which one it is.
    inst = gallery.build(name)
    T = inst.default_potential
    basis, dual = changed_frame(inst.chart, random.Random(name))
    assert basis != complexes.section_frame(inst.chart)[0]
    for el in inst.l_elements:
        got = complexes.classical_naive_differential(T, el, basis, dual)
        assert got == complexes.q_theta(T, el), to_text(el)


def first_pairing_mismatch(basis, dual):
    """The first (i, j, <basis[i], dual[j]>) off delta, by n^2 brackets,
    or None."""
    chart = basis[0].chart
    for i, b in enumerate(basis):
        for j, d in enumerate(dual):
            value = courant.pairing(b, d)
            if value != (chart.one() if i == j else chart.zero()):
                return i, j, to_text(value)
    return None


def frame_chart(name):
    """(chart, potential): a catalogue instance's, or for "even_pair"
    cross3's potential on its chart with an even conjugate pair e1, e2
    added to the weight-1 sector."""
    if name != "even_pair":
        inst = gallery.build(name)
        return inst.chart, inst.default_potential
    inst = gallery.build("cross3")
    doc = chart_to_json(inst.chart)
    doc["n_manifold"] = False
    doc["generators"] += [{"name": "e1", "parity": "even", "weight": [1, 0]},
                          {"name": "e2", "parity": "even", "weight": [0, 1]}]
    doc["pairing"].append(["e1", "e2", "1"])
    chart = chart_from_json(doc)
    return chart, parse_expr(chart, to_text(inst.default_potential))


@pytest.mark.parametrize("name", gallery.names() + ["even_pair"])
def test_frame_row_check_agrees_with_the_pairings(name):
    # The row check must give the verdict, and name the entry, that the
    # n^2 pairing brackets give: on the chart's frame, on a seeded constant
    # change of it, with one dual zeroed, with two duals swapped (two bad
    # entries in one row), and with one dual coefficient changed by a
    # nonzero rational at a seeded position (a new term or an existing
    # one).  On "even_pair" the frame holds even sections, whose pairing
    # block is skew.
    rng = random.Random(name)
    chart, T = frame_chart(name)
    basis, dual = complexes.section_frame(chart)
    cases = [(basis, dual), changed_frame(chart, rng)]
    j = rng.randrange(len(dual))
    cases.append((basis, dual[:j] + [chart.zero()] + dual[j + 1:]))
    j, k = sorted(rng.sample(range(len(dual)), 2))
    cases.append((basis, dual[:j] + [dual[k]] + dual[j + 1:k] + [dual[j]]
                  + dual[k + 1:]))
    for _ in range(3):
        j, a = rng.randrange(len(dual)), rng.randrange(len(basis))
        delta = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
        cases.append((basis, dual[:j] + [dual[j] + basis[a] * delta]
                       + dual[j + 1:]))
    verdicts = []
    for b, d in cases:
        want = first_pairing_mismatch(b, d)
        verdicts.append(want is None)
        if want is None:
            complexes.classical_naive_differential(T, chart.one(), b, d)
            continue
        with pytest.raises(PotentialError) as refused:
            complexes.classical_naive_differential(T, chart.one(), b, d)
        assert str(refused.value) == (
            "basis/dual mismatch: <basis[%d], dual[%d]> = %s" % want)
    assert verdicts == [True, True] + [False] * 5


def test_classical_differential_refuses_a_function_coefficient():
    # basis[0] + x1*basis[1] with the dual that matches it pairs to delta
    # exactly, but a frame is a constant combination of weight-1
    # generators, so it is refused.
    inst = gallery.build("action_algebra")
    ch, T = inst.chart, inst.default_potential
    basis, dual = complexes.section_frame(ch)
    x1 = ch.gen("x1")
    basis = [basis[0] + x1 * basis[1]] + basis[1:]
    dual = [dual[0], dual[1] - x1 * dual[0]] + dual[2:]
    assert first_pairing_mismatch(basis, dual) is None
    with pytest.raises(PotentialError, match=r"basis\[0\] is not a constant "
                       "combination of the weight-1 generators"):
        complexes.classical_naive_differential(T, ch.one(), basis, dual)


def test_classical_differential_refuses_a_frame_of_another_chart():
    # Two builds of cross3 make two charts with the same generators.
    T, psi, basis, dual = cross3_frame()
    other = complexes.section_frame(gallery.build("cross3").chart)
    with pytest.raises(PotentialError, match=r"basis\[0\] is not a constant "
                       "combination of the weight-1 generators of "):
        complexes.classical_naive_differential(T, psi, *other)


def test_classical_differential_of_one_makes_no_bracket(bracket_calls):
    # The frame check takes no bracket, and d(1) has no anchor or bracket
    # terms to evaluate.
    inst = gallery.build("cross7")
    ch, T = inst.chart, inst.default_potential
    basis, dual = complexes.section_frame(ch)
    del bracket_calls[:]
    got = complexes.classical_naive_differential(T, ch.one(), basis, dual)
    assert len(bracket_calls) == 0
    assert got.is_zero


@pytest.mark.parametrize("name, text, degree", [
    ("cross7", "1", 0),
    ("cross7", "xi1*xi2*xi3*xi4", 4),
    ("cross7", "xi1*xi3*xi5*xi6*xi7", 5),
    ("action_algebra", "x1", 0),
    ("action_algebra", "x1^2*xi1*xi2*xi3*xi4", 4),
    ("vb_plain", "x1*q1", 0),
    ("vb_plain", "dx1*dx2*dx3*dq1", 4),
])
def test_classical_differential_equals_q_theta_off_the_catalogue_degrees(
        name, text, degree):
    # The catalogue elements have degrees 1 to 3; these cover degree 0 and
    # the top degrees over a point, over a true base and on a weighted
    # chart.
    inst = gallery.build(name)
    T = inst.default_potential
    psi = parse_expr(inst.chart, text)
    assert inst.chart.symplectic_weight(psi.weight()) == degree
    basis, dual = complexes.section_frame(inst.chart)
    got = complexes.classical_naive_differential(T, psi, basis, dual)
    assert got == complexes.q_theta(T, psi)


def potential_or_lift(name):
    """A catalogue potential, or with the suffix _lift<k> its complete lift
    at degree k."""
    base, _, k = name.partition("_lift")
    T = gallery.build(base).default_potential
    return lifts.complete_lift(T, int(k)) if k else T


@pytest.mark.parametrize("name, text", [
    (name, text) for name in ("cross3", "cross7", "cross7_full")
    for text in ("xi1 + pi1", "xi1*xi2 + pi1*pi2", "xi1*pi2 + xi2*xi3")] + [
    ("cross3_lift2", "xi1_0 + pi3_1"),
    ("cross3_lift2", "xi1_0*xi2_0 + pi2_1*pi3_1"),
])
def test_classical_differential_reads_the_degree_from_the_gradings(
        name, text):
    # Each element has one degree, symplectic weight 1 or 2, but two
    # weight vectors: on cross3's axes, or on the lift axis of its k = 2
    # lift.  The degree is read from the chart's gradings.
    T = potential_or_lift(name)
    psi = parse_expr(T.chart, text)
    assert psi.weight() is None
    basis, dual = complexes.section_frame(T.chart)
    got = complexes.classical_naive_differential(T, psi, basis, dual)
    assert got == complexes.q_theta(T, psi)


@pytest.mark.parametrize("name, text", [
    ("cross3", "xi1 + xi1*xi2"),
    ("cross7", "1 + pi1*pi2*pi3"),
    ("cross3_lift2", "xi1_0 + xi1_0*pi2_1"),
])
def test_classical_differential_refuses_an_element_of_two_degrees(
        name, text):
    T = potential_or_lift(name)
    psi = parse_expr(T.chart, text)
    basis, dual = complexes.section_frame(T.chart)
    with pytest.raises(PotentialError, match="element must be homogeneous"):
        complexes.classical_naive_differential(T, psi, basis, dual)


@pytest.mark.parametrize("name, index, most", [("twisted_pencil", 2, 200),
                                               ("cross7", 1, 600)])
def test_classical_differential_brackets_no_zero_prefix(
        bracket_calls, name, index, most):
    # A zero form value is zero on every extension, so it is bracketed no
    # further.  Evaluating every term of every basis tuple made 1,081
    # calls on twisted_pencil and 1,561 on cross7, about half of them with
    # a zero left argument.
    inst = gallery.build(name)
    T = inst.default_potential
    el = inst.l_elements[index]
    basis, dual = complexes.section_frame(inst.chart)
    del bracket_calls[:]
    got = complexes.classical_naive_differential(T, el, basis, dual)
    assert len(bracket_calls) <= most
    assert got == complexes.q_theta(T, el)


@pytest.mark.parametrize("name", ["cross7", "twisted_pencil"])
def test_classical_differential_parses_no_text(monkeypatch, name):
    # The anchor vectors of the base coordinates are looked up by name, and
    # a name is read through Chart.gen, not parsed.
    inst = gallery.build(name)
    basis, dual = complexes.section_frame(inst.chart)
    texts = []

    def recording(chart, text):
        texts.append(text)
        return parse_expr(chart, text)

    for module in (superpoly, courant, charts, gallery):
        monkeypatch.setattr(module, "parse_expr", recording)
    for el in inst.l_elements:
        got = complexes.classical_naive_differential(
            inst.default_potential, el, basis, dual)
        assert got == complexes.q_theta(inst.default_potential, el)
    assert texts == []


def test_identification_constants():
    assert [complexes.identification_constant(k) for k in range(6)] \
        == [1, 1, -1, -1, 1, 1]


def test_identification_constants_match_evaluation():
    ch = make_cotangent_antivb_chart(0, 5)
    for k in range(1, 6):
        psi = ch.one()
        for i in range(1, k + 1):
            psi = psi * ch.gen("xi%d" % i)
        secs = [ch.gen("pi%d" % i) for i in range(1, k + 1)]
        val = routes.eval_on_sections(psi, secs)
        assert val == ch.one() * complexes.identification_constant(k), k


def test_cohomology_point_values():
    # so(3) has H1 = 0 by Whitehead; the seven-dimensional cross product
    # has no closed weight-1 section either.
    for name, h1 in (("cross3", 0), ("cross7", 0), ("euclidean_cubic", 0),
                     ("hyperbolic_cubic", 1)):
        T = gallery.build(name).theta
        got = complexes.point_cohomology(courant.AnchorVectors(T))
        assert got == ({0: 1}, {0: h1}), name


def test_cohomology_point_rejects_base_charts():
    inst = gallery.build("nearly_witness")
    with pytest.raises(PotentialError):
        complexes.point_cohomology(
            courant.AnchorVectors(inst.default_potential))


def naive_condition(theta):
    return complexes.naive_cohomology_condition(theta, bracket(theta, theta))


def test_naive_cohomology_condition():
    assert naive_condition(gallery.build("cross3").theta)
    assert not naive_condition(gallery.build("cross7").theta)
    assert not naive_condition(gallery.build("cross7_full").theta)


def test_naive_condition_equals_the_direct_jacobiator_on_the_catalogue():
    # The master form answers the same question as the direct Jacobiator
    # over the same triples: every kappa against ordered pairs of weight-1
    # coordinate sections.
    outcomes = []
    for name in gallery.names():
        T = gallery.build(name).default_potential
        chart = T.chart
        ones = [chart.gen(chart.generators[idx].name)
                for idx in chart.section_indices]
        direct = all(courant.jacobiator(courant.section_pair(T, kappa, u),
                                        v).is_zero
                     for kappa in complexes.constant_l1_basis(T)
                     for u in ones for v in ones)
        assert naive_condition(T) is direct, name
        outcomes.append(direct)
    assert outcomes.count(True) == 7 and outcomes.count(False) == 9


def test_constant_l1_basis_sizes():
    assert len(complexes.constant_l1_basis(gallery.build("cross3").theta)) == 6
    assert len(complexes.constant_l1_basis(gallery.build("cross7").theta)) == 14


@pytest.mark.parametrize("name, calls", [("rflux", 20), ("vb_twist", 36)])
def test_constant_l1_basis_brackets_theta_with_each_coordinate_once(
        bracket_calls, name, calls):
    # One {T, x_a} per base coordinate, then {{T, x_a}, s} for each
    # weight-1 generator s and each nonzero {T, x_a}: 2 of rflux's 4 are
    # zero.  Bracketing T with x_a again for every s made 64 calls on each.
    T = gallery.build(name).default_potential
    del bracket_calls[:]
    basis = complexes.constant_l1_basis(T)
    assert len(bracket_calls) == calls
    assert not any(X.is_zero for X, _ in bracket_calls)
    assert len(basis) == {"rflux": 6, "vb_twist": 4}[name]


def test_members_have_a_zero_formal_contraction():
    # naive_membership decides on the base coordinates alone; a formal
    # function symbol must then contract to zero as well.
    for name in gallery.names():
        T = gallery.build(name).default_potential
        anchors = courant.AnchorVectors(T)
        for el in complexes.constant_l1_basis(T):
            assert complexes.naive_membership(anchors, el), \
                (name, to_text(el))
            assert routes.formal_contraction(T, el).is_zero, \
                (name, to_text(el))
    for name in ("bialgebroid", "twisted_pencil"):
        inst = gallery.build(name)
        T = inst.default_potential
        rng = random.Random(1101)
        anchors = courant.AnchorVectors(T)
        members = 0
        for _ in range(200):
            el = draws.random_homogeneous(inst.chart, rng)
            if complexes.naive_membership(anchors, el):
                members += 1
                assert routes.formal_contraction(T, el).is_zero, \
                    (name, to_text(el))
        assert members >= 50, name


def test_squared_differential_equals_half_self_bracket():
    rng = random.Random(77)
    charts = [make_darboux_chart(1, 3), make_cotangent_antivb_chart(1, 2),
              make_darboux_chart(2, 2)]
    for r in range(24):
        ch = charts[r % len(charts)]
        T = draws.random_potential(ch, rng)
        f = draws.reference_base_function(ch, rng)
        lhs = complexes.q_theta(T, complexes.q_theta(T, f))
        rhs = bracket(bracket(T, T) * Fraction(1, 2), f)
        assert lhs == rhs, r


def test_squared_differential_on_gallery_functions():
    pencil = gallery.build("twisted_pencil")
    T = pencil.potential_at(1)
    for idx in pencil.chart.base_indices:
        f = pencil.chart.gen(pencil.chart.generators[idx].name)
        assert identities.d_squared_on_function(T, f).is_zero

    nearly = gallery.build("nearly_witness")
    Tn = nearly.default_potential
    f = nearly.chart.gen("x1")
    val = identities.d_squared_on_function(Tn, f)
    assert to_text(val) == "p1"


def test_classical_differential_brackets_each_basis_pair_once(
        monkeypatch, bracket_calls):
    # Each [[b_p, b_q]] goes through pre_bracket at most once, given the
    # anchor vector rho(b_p) that the differential makes anyway, so
    # pre_bracket brackets rho(b_p) with b_q and never theta with b_p
    # again.  A pair where no derivative index of rho(b_p) pairs with b_q
    # is skipped: 54 of the 91 pairs on cross7 are made.
    inst = gallery.build("cross7")
    T = inst.default_potential
    basis, dual = complexes.section_frame(inst.chart)
    anchors = {}
    original_anchor_vector = complexes.anchor_vector

    def recording(theta, s):
        p = basis.index(s)
        anchors[p] = original_anchor_vector(theta, s)
        return anchors[p]

    calls = []
    original_pre_bracket = complexes.pre_bracket

    def counting(theta, s, p, anchor=None):
        calls.append((s, p, anchor))
        return original_pre_bracket(theta, s, p, anchor=anchor)

    monkeypatch.setattr(complexes, "anchor_vector", recording)
    monkeypatch.setattr(complexes, "pre_bracket", counting)
    el = inst.l_elements[1]
    del bracket_calls[:]
    got = complexes.classical_naive_differential(T, el, basis, dual)
    # The frame check takes no bracket; it took 196 pairings, 464 calls in
    # all, with theta bracketed with b_p again for every q, 541, and with
    # every basis pair and walk contraction made, 268.
    assert len(bracket_calls) <= 80
    assert got == complexes.q_theta(T, el)
    assert len(basis) == len(anchors) == 14
    pairs = [(basis.index(s), basis.index(p)) for s, p, _ in calls]
    assert len(pairs) == len(set(pairs)) == 54
    assert all(p < q for p, q in pairs)
    assert all(anchor is anchors[p] for (p, _), (_, _, anchor)
               in zip(pairs, calls))
    derived = [(X, Y) for X, Y in bracket_calls
               if any(X is a for a in anchors.values())
               and any(Y is b for b in basis)]
    assert len(derived) == 54


def theta_section_brackets(name):
    """The {theta, b} with b a frame section that one classical
    differential of l_elements[1] makes, and the frame; the differential
    must equal q_theta."""
    inst = gallery.build(name)
    T = inst.default_potential
    basis, dual = complexes.section_frame(inst.chart)
    sections = {to_text(b) for b in basis}
    calls = []
    original_bracket = courant.bracket

    def counting_bracket(X, Y):
        if X == T and to_text(Y) in sections:
            calls.append(to_text(Y))
        return original_bracket(X, Y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(courant, "bracket", counting_bracket)
        mp.setattr(complexes, "bracket", counting_bracket)
        el = inst.l_elements[1]
        got = complexes.classical_naive_differential(T, el, basis, dual)
    assert got == complexes.q_theta(T, el)
    return calls, basis


def test_classical_differential_brackets_theta_with_each_section_once():
    # The anchor terms and the derived brackets [[b_p, b_q]] share at most
    # one {theta, b_i} per section.  Over a point (cross7) there are no
    # anchor terms, and the anchor vectors serve the derived brackets only.
    # On action_algebra no derivative index of theta pairs with two of the
    # sections, so their anchor vectors are zero and are not made.
    calls, basis = theta_section_brackets("cross7")
    assert len(basis) == 14
    assert len(calls) == len(set(calls)) == 14
    calls, basis = theta_section_brackets("action_algebra")
    assert len(basis) == 8
    assert len(calls) == len(set(calls)) == 6


@pytest.mark.parametrize("name", gallery.names())
def test_classical_differential_of_zero_is_zero(name):
    # 0 is in the small complex and q_theta(theta, 0) = 0; the frame is
    # still checked first.
    inst = gallery.build(name)
    ch, T = inst.chart, inst.default_potential
    basis, dual = complexes.section_frame(ch)
    got = complexes.classical_naive_differential(T, ch.zero(), basis, dual)
    assert got.is_zero and got == complexes.q_theta(T, ch.zero())
    with pytest.raises(PotentialError, match="basis/dual mismatch"):
        complexes.classical_naive_differential(
            T, ch.zero(), basis, dual[:-1] + [ch.zero()])
    with pytest.raises(PotentialError, match="one section and one dual"):
        complexes.classical_naive_differential(T, ch.zero(), basis[:-1],
                                               dual[:-1])


def unskipped_contractions(T, psi, basis):
    """The brackets (X, Y) that the alternating sum for psi makes when it
    skips none: {theta, b} for every section b, every section contraction
    of every nonzero node of the depth-first walks, and for each p < q
    the derived bracket (rho(b_p), b_q) and (psi, [[b_p, b_q]])."""
    chart = T.chart
    n = len(basis)
    k = chart.symplectic_weight(psi.weight())
    pairs = []

    def walk(value, free, depth):
        if value.is_zero or not depth:
            return
        for pos in range(len(free) - depth + 1):
            pairs.append((value, basis[free[pos]]))
            walk(bracket(value, basis[free[pos]]), free[pos + 1:],
                 depth - 1)

    anchor_terms = bool(chart.base_indices) and k < n
    bracket_terms = 1 <= k < n
    if anchor_terms or bracket_terms:
        pairs += [(T, b) for b in basis]
    if anchor_terms:
        walk(psi, range(n), k)
    if bracket_terms:
        for p, q in itertools.combinations(range(n), 2):
            rho = courant.anchor_vector(T, basis[p])
            derived = bracket(rho, basis[q])
            pairs += [(rho, basis[q]), (psi, derived)]
            walk(bracket(psi, derived),
                 [m for m in range(n) if m != p and m != q], k - 1)
    return pairs


def test_classical_differential_skips_only_zero_contractions(bracket_calls):
    # Every bracket of the unskipped sum that the differential does not
    # make must be zero: the l_elements of the catalogue, and the lifted
    # chart of test_classical_differential_on_a_lifted_non_diagonal_metric.
    cases = []
    for name in gallery.names():
        inst = gallery.build(name)
        cases += [(inst.default_potential, el) for el in inst.l_elements]
    ch = make_darboux_chart(0, 3, metric=[[1, 1, 0], [1, 2, 0], [0, 0, 1]])
    for k in (2, 3):
        T = lifts.complete_lift(parse_expr(ch, "xi1*xi2*xi3"), k)
        basis = complexes.section_frame(T.chart)[0]
        cases += [(T, el) for el in
                  [T.chart.one()] + basis + [basis[0] * basis[-1]]]

    def key(X, Y):
        return frozenset(X.terms.items()), frozenset(Y.terms.items())

    made_total = skipped = 0
    for T, psi in cases:
        basis, dual = complexes.section_frame(T.chart)
        del bracket_calls[:]
        got = complexes.classical_naive_differential(T, psi, basis, dual)
        assert got == complexes.q_theta(T, psi), to_text(psi)
        made = collections.Counter(key(X, Y) for X, Y in bracket_calls)
        for X, Y in unskipped_contractions(T, psi, basis):
            if made[key(X, Y)]:
                made[key(X, Y)] -= 1
                made_total += 1
            else:
                assert bracket(X, Y).is_zero, (to_text(psi), to_text(X),
                                               to_text(Y))
                skipped += 1
    assert len(cases) == 51 + 19
    assert skipped > made_total > 0


def skew(entries):
    """Structure constants c_ijk = -c_jik from the entries with i < j."""
    c = {}
    for (i, j, k), v in entries.items():
        c[i, j, k] = v
        c[j, i, k] = -v
    return c


# Over a point every constant section is a kappa, so the naive condition on
# the potential of structure constants c is the Jacobi identity of c.
POINT_ALGEBRAS = {
    "so3": (3, skew({(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1}), True),
    "heisenberg": (3, skew({(1, 2, 3): 1}), True),
    "abelian": (4, {}, True),
    "solvable": (3, skew({(1, 2, 1): 1, (1, 3, 2): 1, (2, 3, 3): 1}), True),
    "not_lie": (3, skew({(1, 2, 2): 1, (2, 3, 1): 1}), False),
}


@pytest.mark.parametrize("name", sorted(POINT_ALGEBRAS))
def test_naive_condition_is_jacobi_over_a_point(name):
    rank, c, lie = POINT_ALGEBRAS[name]
    assert oracles.jacobi_holds(c, rank) is lie
    theta = oracles.structure_theta(make_cotangent_antivb_chart(0, rank), c)
    assert naive_condition(theta) is lie


@pytest.mark.parametrize("name", sorted(oracles.CROSS_INSTANCES))
def test_naive_condition_of_cross_instances_against_oracle(name):
    rank, triples = oracles.CROSS_INSTANCES[name]
    inst = gallery.build(name)
    want = oracles.jacobi_holds(oracles.epsilon_table(triples), rank)
    assert naive_condition(inst.default_potential) is want
    assert inst.expected["naive_condition"] is want


@pytest.mark.parametrize("name", sorted(oracles.CROSS_INSTANCES))
def test_point_cohomology_of_cross_instances_against_oracle(name):
    rank, triples = oracles.CROSS_INSTANCES[name]
    inst = gallery.build(name)
    h1 = oracles.point_h1(oracles.epsilon_table(triples), rank)
    assert h1 == 0
    anchors = courant.AnchorVectors(inst.default_potential)
    assert complexes.point_cohomology(anchors) \
        == ({0: 1}, {0: h1})
    assert inst.expected["cohomology_point"] == [1, h1]


def test_naive_condition_computes_each_bracket_once(bracket_calls):
    # 216 triples at 12 brackets each made 2,604 calls; read off {T, T}
    # a triple costs one bracket past the {{tt, kappa}, u} it shares, and
    # a zero {T, T}, {tt, kappa} or {{tt, kappa}, u} is bracketed no
    # further.  On cross3 {T, T} = 0 answers at once: the 258 calls that
    # took its zero as the left argument are gone.  On cross7 112 of 133
    # calls had a zero left argument.
    T = gallery.build("cross3").default_potential
    tt = bracket(T, T)
    del bracket_calls[:]
    assert complexes.naive_cohomology_condition(T, tt) is True
    assert len(bracket_calls) == 0
    T = gallery.build("cross7").default_potential
    tt = bracket(T, T)
    del bracket_calls[:]
    assert complexes.naive_cohomology_condition(T, tt) is False
    assert len(bracket_calls) == 21
    assert not any(X.is_zero for X, _ in bracket_calls)


def test_commutator_defect_brackets_theta_with_f_once(bracket_calls):
    ch, T = bialgebroid()
    alpha = parse_expr(ch, "x1*xi1")
    d_alpha = complexes.q_theta(T, alpha)
    del bracket_calls[:]
    value = complexes.naive_commutator_defect(T, ch.gen("x1"), alpha, d_alpha)
    assert value.is_zero
    assert len(bracket_calls) <= 6
