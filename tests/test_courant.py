import collections
import functools
import itertools
import random
from fractions import Fraction

import pytest

import draws
import identities
import oracles
import routes
from superpoisson import complexes, courant, gallery, lifts
from superpoisson.charts import (hyperbolic_metric, make_cotangent_antivb_chart,
                                 make_darboux_chart)
from superpoisson.courant import PotentialError
from superpoisson.poisson import bracket
from superpoisson.superpoly import parse_expr, to_text


def cross7():
    ch = make_cotangent_antivb_chart(0, 7)
    return ch, oracles.cross_theta(ch, oracles.CROSS7_TRIPLES)


def test_pre_bracket_matches_structure_constants():
    ch, T = cross7()
    eps = oracles.epsilon_table(oracles.CROSS7_TRIPLES)
    for i in range(1, 8):
        for j in range(1, 8):
            got = courant.pre_bracket(T, ch.gen("pi%d" % i),
                                      ch.gen("pi%d" % j))
            want = ch.zero()
            for k in range(1, 8):
                c = eps.get((i, j, k), 0)
                if c:
                    want = want + ch.gen("pi%d" % k) * Fraction(c)
            assert got == want, (i, j)


def test_jacobiator_matches_algebra_oracle_everywhere():
    ch, T = cross7()
    eps = oracles.epsilon_table(oracles.CROSS7_TRIPLES)
    for (i, j, k) in itertools.combinations(range(1, 8), 3):
        pair = courant.section_pair(T, ch.gen("pi%d" % i),
                                    ch.gen("pi%d" % j))
        got = courant.jacobiator(pair, ch.gen("pi%d" % k))
        alg = oracles.algebra_jacobiator(eps, 7, i, j, k)
        want = ch.zero()
        for l, c in alg.items():
            want = want + ch.gen("pi%d" % l) * Fraction(-c)
        assert got == want, (i, j, k)


def test_pairing_and_anchor_on_point_chart():
    ch, T = cross7()
    assert courant.pairing(ch.gen("xi1"), ch.gen("pi1")) == 1
    assert courant.pairing(ch.gen("pi1"), ch.gen("pi2")).is_zero
    assert courant.pairing(ch.gen("xi1"), ch.gen("xi2")).is_zero


def test_symmetry_defect_vanishes():
    for T, s, p, l, f in draws.derived_setups(31, 40):
        assert courant.symmetry_defect(
            courant.section_pair(T, s, p)).is_zero


def test_anchor_defect_vanishes():
    for T, s, p, l, f in draws.derived_setups(32, 40):
        assert courant.anchor_defect(courant.section_pair(T, s, p),
                                     bracket(T, T), f).is_zero


def test_jacobiator_equals_master_route():
    for T, s, p, l, f in draws.derived_setups(33, 40):
        assert identities.jacobiator_master_defect(T, s, p, l).is_zero


def test_leibniz_over_functions():
    for T, s, p, l, f in draws.derived_setups(34, 40):
        assert identities.leibniz_over_functions_defect(T, s, f, p).is_zero


def test_pairing_invariance():
    for T, s, p, l, f in draws.derived_setups(35, 40):
        assert identities.pairing_invariance_defect(T, s, p, l).is_zero


def test_d_operator_against_anchor():
    for T, s, p, l, f in draws.derived_setups(36, 20):
        lhs = courant.pairing(complexes.q_theta(T, f), s)
        rhs = courant.anchor_apply(T, s, f)
        assert (lhs - rhs).is_zero or (lhs + rhs).is_zero


def test_anchor_takes_weight_zero_terms_of_any_lift_weight():
    # On vb_plain x1 has weight (0, 0) and q1 weight (1, 0): both are of
    # symplectic weight 0, so the anchor acts on their sum term by term.
    inst = gallery.build("vb_plain")
    T, ch = inst.theta, inst.chart
    s = ch.gen("pi1")
    got = courant.anchor_apply(T, s, parse_expr(ch, "x1 + q1"))
    parts = [courant.anchor_apply(T, s, ch.gen(name))
             for name in ("x1", "q1")]
    assert got == parts[0] + parts[1] == -1
    with pytest.raises(PotentialError, match="symplectic weight 0"):
        courant.anchor_apply(T, s, parse_expr(ch, "x1 + dx1"))


def test_classify_verdicts():
    ch = make_darboux_chart(0, 5)
    T = parse_expr(ch, "xi1*xi2*xi3 + xi1*xi4*xi5")
    sc = courant.classify(T)
    assert sc.verdict == "PreCourant"
    assert sc.is_pre_courant
    chh = make_darboux_chart(0, 4, metric=hyperbolic_metric(2))
    Th = parse_expr(chh, "xi1*xi2*xi3 + xi1*xi3*xi4")
    assert courant.classify(Th).verdict == "Courant"
    chn = make_darboux_chart(1, 4)
    Tn = parse_expr(chn, "xi1*p1 + x1*xi2*xi3*xi4")
    scn = courant.classify(Tn)
    assert scn.verdict == "Nearly"
    assert not scn.is_pre_courant
    assert scn.witness_name == "x1"
    assert scn.witness_value is not None and not scn.witness_value.is_zero


def test_validate_potential_rejects_bad_inputs():
    ch = make_darboux_chart(1, 2)
    with pytest.raises(PotentialError):
        courant.validate_potential(parse_expr(ch, "x1*p1"))
    with pytest.raises(PotentialError):
        courant.validate_potential(parse_expr(ch, "xi1"))
    courant.validate_potential(parse_expr(ch, "xi1*p1"))


@functools.lru_cache(maxsize=None)
def catalogue_potentials(k):
    """The 16 catalogue default potentials and every pencil member when k
    is None, else the complete lifts to degree k of the default potential
    of every instance that lifts (a lift degree declared and a chart not
    already lifted)."""
    out = []
    for name in gallery.INSTANCE_NAMES:
        inst = gallery.build(name)
        if k is None:
            out.append(inst.default_potential)
            out.extend(inst.potential_at(lam) for lam in inst.lambdas)
        elif inst.lift_k is not None and inst.chart.lift_degree is None:
            out.append(lifts.complete_lift(inst.default_potential, k))
    assert len(out) == (29 if k is None else 13)
    return tuple(out)


@pytest.mark.parametrize("k", [None, 2, 3, 4, 5])
def test_classify_agrees_with_the_self_bracket_route(k):
    verdicts = set()
    for T in catalogue_potentials(k):
        got = courant.classify(T)
        want = routes.classify_by_self_bracket(T)
        assert got.verdict == want.verdict, to_text(T)
        assert got.witness_name == want.witness_name, to_text(T)
        assert got.witness_value == want.witness_value, to_text(T)
        # The reference route's sigma is bracket(T, T).
        assert got.sigma == want.sigma, to_text(T)
        verdicts.add(got.verdict)
    assert verdicts == {"Courant", "PreCourant", "Nearly"}


@pytest.mark.parametrize("k", [None, 2, 3, 4, 5])
def test_self_bracket_on_a_base_coordinate_is_twice_the_double_bracket(k):
    for T in catalogue_potentials(k):
        tt = bracket(T, T)
        for idx in T.chart.base_indices:
            x = T.chart.gen(T.chart.generators[idx].name)
            assert bracket(tt, x) == bracket(T, bracket(T, x)) * 2, \
                (to_text(T), to_text(x))


def test_classify_computes_the_self_bracket_on_first_read(bracket_calls):
    for name in ("quasi_poisson", "nearly_witness"):
        T = gallery.build(name).default_potential
        del bracket_calls[:]
        sc = courant.classify(T)
        assert sc.verdict == "Nearly"
        assert len(bracket_calls) == 2
        assert (T, T) not in bracket_calls
        sigma = sc.sigma
        assert sc.sigma is sigma
        assert bracket_calls[2:] == [(T, T)]
        assert sigma == bracket(T, T)
    TL = lifts.complete_lift(gallery.build("quasi_poisson").default_potential,
                             5)
    del bracket_calls[:]
    assert courant.classify(TL).verdict == "Nearly"
    assert len(bracket_calls) == 2


def test_classify_decides_pre_courant_by_a_weight_1_witness(bracket_calls):
    # cross7 and its k = 5 lift are PreCourant by {T, {T, e}} for their
    # first weight-1 generator e, so classify builds no {T, T}; a read of
    # sigma builds it once.
    T7 = gallery.build("cross7").default_potential
    for T in (T7, lifts.complete_lift(T7, 5)):
        del bracket_calls[:]
        sc = courant.classify(T)
        assert sc.verdict == "PreCourant"
        assert sc.witness_name is None and sc.witness_value is None
        assert not any(X is Y for X, Y in bracket_calls)
        del bracket_calls[:]
        sigma = sc.sigma
        assert [(X, Y) for X, Y in bracket_calls if X is Y] == [(T, T)]
        assert sigma == bracket(T, T)
    # On a Courant potential the witness is zero, and {T, T} decides.
    T3 = lifts.complete_lift(gallery.build("cross3").default_potential, 3)
    del bracket_calls[:]
    assert courant.classify(T3).verdict == "Courant"
    assert [(X, Y) for X, Y in bracket_calls if X is Y] == [(T3, T3)]


def test_classify_agrees_with_the_self_bracket_route_on_drawn_potentials():
    # Sums of one to four drawn potentials on point and base charts, and
    # k = 2, 3 lifts of every fourth round.  "by sigma" counts the classes
    # that had built {T, T} when classify returned: every Courant class,
    # and a PreCourant one only when its weight-1 witness is zero.
    rng = random.Random(35)
    charts = [make_darboux_chart(0, 4), make_darboux_chart(0, 5),
              make_darboux_chart(1, 4),
              make_darboux_chart(0, 4, metric=hyperbolic_metric(2)),
              make_cotangent_antivb_chart(1, 3)]
    seen = collections.Counter()
    for r in range(60):
        for ch in charts:
            T = ch.zero()
            for _ in range(rng.randint(1, 4)):
                T = T + draws.random_potential(ch, rng)
            potentials = [T]
            if r % 4 == 0:
                potentials.append(lifts.complete_lift(T, 2 + r // 4 % 2))
            for P in potentials:
                got = courant.classify(P)
                by_sigma = "sigma" in vars(got)
                want = routes.classify_by_self_bracket(P)
                assert got.verdict == want.verdict, to_text(P)
                assert got.witness_name == want.witness_name, to_text(P)
                assert got.witness_value == want.witness_value, to_text(P)
                assert got.sigma == want.sigma, to_text(P)
                seen[got.verdict, by_sigma] += 1
    # 195, 72, 4 and 104 of the 375 classes.
    least = {("Courant", True): 150, ("PreCourant", False): 60,
             ("PreCourant", True): 3, ("Nearly", False): 80}
    assert set(seen) == set(least)
    assert all(seen[key] >= n for key, n in least.items())


def test_metric_frame_reproduces_metric():
    for metric, rank in ((None, 3), (hyperbolic_metric(2), 4)):
        ch = make_darboux_chart(1, rank, metric=metric)
        _, frame = complexes.section_frame(ch)
        names, rows = ch.metric
        for i in range(rank):
            for j in range(rank):
                got = courant.pairing(ch.gen(names[i]), frame[j])
                assert got == (1 if i == j else 0)


def test_extract_reassemble_round_trip():
    rng = random.Random(41)
    for rank, dim in ((2, 1), (3, 2)):
        ch = make_darboux_chart(dim, rank)
        for _ in range(8):
            T = draws.random_potential(ch, rng)
            anchor, cubic = routes.extract_structure_functions(T)
            back = routes.reassemble_structure_functions(ch, anchor, cubic)
            assert back == T


def test_structure_residual_equivalence_samples():
    rng = random.Random(42)
    ch = make_darboux_chart(1, 3)
    seen = set()
    for _ in range(20):
        T = draws.random_potential(ch, rng)
        sc = courant.classify(T)
        seen.add(sc.verdict)
        vanish = routes.structure_residuals_vanish(T)
        assert vanish == (sc.verdict != "Nearly")
        assert (sc.verdict == "Courant") == bracket(T, T).is_zero


def test_jacobiator_shares_anchor_vectors(bracket_calls):
    ch, T = cross7()
    pair = courant.section_pair(T, ch.gen("pi1"), ch.gen("pi2"))
    value = courant.jacobiator(pair, ch.gen("pi4"))
    assert to_text(value) == "-2*pi7"
    assert len(bracket_calls) <= 9


def test_anchor_defect_shares_anchor_vectors(bracket_calls):
    ch = make_darboux_chart(1, 3)
    T = parse_expr(ch, "x1*xi1*p1 + xi1*xi2*xi3")
    pair = courant.section_pair(T, parse_expr(ch, "x1*xi1"), ch.gen("xi2"))
    value = courant.anchor_defect(pair, bracket(T, T),
                                  parse_expr(ch, "x1^2"))
    assert value.is_zero
    assert len(bracket_calls) <= 13
