import random
from fractions import Fraction

import pytest

import identities
from superpoisson import complexes, gallery, sampling
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
        T = sampling.random_potential(ch, rng)
        f = sampling.random_base_function(ch, rng)
        a = sampling.random_homogeneous(ch, rng, max_terms=2, max_factors=3)
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
        val = complexes.eval_on_sections(psi, secs)
        assert val == ch.one() * complexes.identification_constant(k), k


def test_cohomology_point_values():
    assert complexes.cohomology_point(gallery.build("cross3").theta) == (1, 3)
    assert complexes.cohomology_point(gallery.build("cross7").theta) == (1, 7)


def test_cohomology_point_rejects_base_charts():
    inst = gallery.build("nearly_witness")
    with pytest.raises(PotentialError):
        complexes.cohomology_point(inst.default_potential)


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
        T = sampling.random_potential(ch, rng)
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
