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


def test_naive_cohomology_condition():
    assert complexes.naive_cohomology_condition(gallery.build("cross3").theta)
    assert not complexes.naive_cohomology_condition(
        gallery.build("cross7").theta)
    assert not complexes.naive_cohomology_condition(
        gallery.build("cross7_full").theta)


def test_constant_l1_basis_sizes():
    assert len(complexes.constant_l1_basis(gallery.build("cross3").theta)) == 6
    assert len(complexes.constant_l1_basis(gallery.build("cross7").theta)) == 14


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


def test_classical_differential_brackets_theta_with_each_section_once(
        monkeypatch):
    # Outside the 91 derived brackets (pinned above), the anchor terms need
    # {theta, b_i} once per section, not once per basis tuple.
    inst = gallery.build("cross7")
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

    monkeypatch.setattr(courant, "bracket", counting_bracket)
    monkeypatch.setattr(complexes, "pre_bracket", flagged_pre_bracket)
    el = inst.l_elements[1]
    got = complexes.classical_naive_differential(T, el, basis, dual)
    assert got == complexes.q_theta(T, el)
    assert len(basis) == 14
    assert 0 < len(calls) <= 14


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
    assert complexes.naive_cohomology_condition(theta) is lie


@pytest.mark.parametrize("name", sorted(oracles.CROSS_INSTANCES))
def test_naive_condition_of_cross_instances_against_oracle(name):
    rank, triples = oracles.CROSS_INSTANCES[name]
    inst = gallery.build(name)
    want = oracles.jacobi_holds(oracles.epsilon_table(triples), rank)
    assert complexes.naive_cohomology_condition(inst.default_potential) \
        is want
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
    # 216 triples at 12 brackets each made 2,604 calls; with the inner
    # brackets and anchor vectors tabled per call a triple costs three.
    T = gallery.build("cross3").default_potential
    assert complexes.naive_cohomology_condition(T) is True
    assert len(bracket_calls) <= 800


def test_commutator_defect_brackets_theta_with_f_once(bracket_calls):
    ch, T = bialgebroid()
    value = complexes.naive_commutator_defect(T, ch.gen("x1"),
                                              parse_expr(ch, "x1*xi1"))
    assert value.is_zero
    assert len(bracket_calls) <= 7
