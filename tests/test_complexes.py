import random
from fractions import Fraction

import pytest

import draws
import identities
import oracles
import routes
from superpoisson import complexes, courant, gallery, sampling
from superpoisson.charts import make_cotangent_antivb_chart, make_darboux_chart
from superpoisson.courant import PotentialError
from superpoisson.poisson import bracket
from superpoisson.superpoly import parse_expr, to_text


def bialgebroid():
    inst = gallery.build("bialgebroid")
    return inst.chart, inst.default_potential


def test_membership_structural_gate_rejects_momenta():
    ch, T = bialgebroid()
    assert not complexes.naive_membership(T, ch.gen("p1"))
    assert not complexes.naive_membership(T, parse_expr(ch, "x1*p1"))
    assert not complexes.naive_membership(T, parse_expr(ch, "xi1*p1"))


def test_membership_contraction_gate():
    ch, T = bialgebroid()
    for text in ("xi1", "pi2", "x1*xi1", "xi1*pi2"):
        assert complexes.naive_membership(T, parse_expr(ch, text)), text
    # these contract against {T, x1} = -(xi1 + pi2) and fail
    for text in ("xi2", "pi1", "xi1*xi2", "x1*pi1"):
        assert not complexes.naive_membership(T, parse_expr(ch, text)), text


def test_membership_constants_and_functions():
    ch, T = bialgebroid()
    assert complexes.naive_membership(T, ch.one())
    assert complexes.naive_membership(T, parse_expr(ch, "x1^2"))
    assert complexes.naive_membership(T, ch.symbol("g"))


def test_commutator_defect_vanishes_on_random_inputs():
    rng = random.Random(41)
    charts = [make_darboux_chart(1, 3), make_cotangent_antivb_chart(1, 2),
              make_cotangent_antivb_chart(2, 2)]
    for r in range(30):
        ch = charts[r % len(charts)]
        T = draws.random_potential(ch, rng)
        f = sampling.random_base_function(ch, rng)
        a = draws.random_homogeneous(ch, rng)
        defect = identities.commutator_defect(T, f, a)
        assert defect.is_zero, (r, to_text(defect))


def test_classical_differential_rejects_non_members():
    ch, T = bialgebroid()
    basis, dual = identities.weight_one_frame(ch)
    with pytest.raises(PotentialError):
        complexes.classical_naive_differential(T, ch.gen("p1"), basis, dual)


def test_classical_differential_rejects_bad_dual():
    ch, T = bialgebroid()
    basis, dual = identities.weight_one_frame(ch)
    with pytest.raises(PotentialError):
        complexes.classical_naive_differential(T, ch.gen("xi1"), basis,
                                               list(basis))


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
        got = complexes.point_cohomology(gallery.build(name).theta)
        assert got == ({0: 1}, {0: h1}), name


def test_cohomology_point_rejects_base_charts():
    inst = gallery.build("nearly_witness")
    with pytest.raises(PotentialError):
        complexes.point_cohomology(inst.default_potential)


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
        ones = [chart.gen(g.name) for g in chart.generators
                if chart.gen_symplectic_weight(g.index) == 1]
        direct = all(courant.jacobiator(T, kappa, u, v).is_zero
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
        for el in complexes.constant_l1_basis(T):
            assert complexes.naive_membership(T, el), (name, to_text(el))
            assert routes.formal_contraction(T, el).is_zero, \
                (name, to_text(el))
    for name in ("bialgebroid", "twisted_pencil"):
        inst = gallery.build(name)
        T = inst.default_potential
        rng = random.Random(1101)
        members = 0
        for _ in range(200):
            el = draws.random_homogeneous(inst.chart, rng)
            if complexes.naive_membership(T, el):
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
        f = sampling.random_base_function(ch, rng)
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


def test_classical_differential_brackets_each_basis_pair_once(monkeypatch):
    inst = gallery.build("cross7")
    T = inst.default_potential
    basis, dual = identities.weight_one_frame(inst.chart)
    calls = []
    original = complexes.pre_bracket

    def counting(theta, s, p):
        calls.append((to_text(s), to_text(p)))
        return original(theta, s, p)

    monkeypatch.setattr(complexes, "pre_bracket", counting)
    el = inst.l_elements[1]
    got = complexes.classical_naive_differential(T, el, basis, dual)
    assert got == complexes.q_theta(T, el)
    assert len(basis) == 14
    assert len(calls) == len(set(calls)) == 91


def theta_section_brackets(name):
    """The {theta, b} with b a frame section that one classical
    differential of l_elements[1] makes outside pre_bracket, and the
    frame; the differential must equal q_theta."""
    inst = gallery.build(name)
    T = inst.default_potential
    basis, dual = identities.weight_one_frame(inst.chart)
    sections = {to_text(b) for b in basis}
    calls = []
    in_pre_bracket = []
    original_bracket = courant.bracket
    original_pre_bracket = complexes.pre_bracket

    def counting_bracket(X, Y):
        if not in_pre_bracket and X == T and to_text(Y) in sections:
            calls.append(to_text(Y))
        return original_bracket(X, Y)

    def flagged_pre_bracket(theta, s, p):
        in_pre_bracket.append(True)
        try:
            return original_pre_bracket(theta, s, p)
        finally:
            in_pre_bracket.pop()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(courant, "bracket", counting_bracket)
        mp.setattr(complexes, "pre_bracket", flagged_pre_bracket)
        el = inst.l_elements[1]
        got = complexes.classical_naive_differential(T, el, basis, dual)
    assert got == complexes.q_theta(T, el)
    return calls, basis


def test_classical_differential_brackets_theta_with_each_section_once():
    # Outside the derived brackets (pinned above), the anchor terms need
    # {theta, b_i} once per section, not once per basis tuple; over a point
    # no anchor term is formed, so no anchor vector either.
    calls, basis = theta_section_brackets("cross7")
    assert len(basis) == 14
    assert calls == []
    calls, basis = theta_section_brackets("action_algebra")
    assert len(calls) == len(set(calls)) == len(basis)


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
    assert complexes.point_cohomology(inst.default_potential) \
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
    value = complexes.naive_commutator_defect(T, ch.gen("x1"),
                                              parse_expr(ch, "x1*xi1"))
    assert value.is_zero
    assert len(bracket_calls) <= 7
