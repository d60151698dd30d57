import copy
import glob
import importlib.util
import os
from fractions import Fraction

import pytest

import identities
import oracles
from superpoisson import courant, dirac, gallery, lifts
from superpoisson.charts import chart_to_json
from superpoisson.gallery import GalleryError
from superpoisson.poisson import bracket
from superpoisson.superpoly import parse_expr, to_text


REPORT = gallery.run_all()


def test_every_instance_checks_clean():
    assert REPORT["ok"], [row for row in REPORT["instances"]
                          if not row["ok"]]
    assert len(REPORT["instances"]) == 16
    assert [row["name"] for row in REPORT["instances"]] \
        == list(gallery.names())


def test_build_rejects_unknown_names():
    with pytest.raises(GalleryError, match="unknown"):
        gallery.build("no_such_thing")


def test_catalogue_names_match_the_data_files():
    stems = {os.path.splitext(os.path.basename(p))[0]
             for p in glob.glob(os.path.join(gallery.data_dir(), "*.json"))}
    assert set(gallery.names()) == stems
    assert len(gallery.names()) == len(stems)


def test_data_files_are_regenerated_bytes():
    for name in gallery.names():
        path = gallery.data_path(name)
        with open(path, "rb") as fh:
            stored = fh.read()
        fresh = gallery.canonical_json(
            gallery.instance_to_json(gallery.load_instance(path)))
        assert stored == fresh.encode("utf-8"), name


def test_data_file_potentials_match_oracles():
    for name, (_rank, triples) in oracles.CROSS_INSTANCES.items():
        inst = gallery.build(name)
        assert inst.theta == oracles.cross_theta(inst.chart, triples), name

    quasi = gallery.build("quasi_poisson")
    spots = [s for s in quasi.expected["spots"] if s["op"] == "potential_nest"]
    assert len(spots) == 1
    assert spots[0]["value"] == to_text(
        oracles.quasi_obstruction(quasi.chart))

    plain = gallery.build("vb_plain")
    fixed = gallery.build("vb_dirac")
    assert chart_to_json(plain.chart) == chart_to_json(fixed.chart)
    theta0 = parse_expr(fixed.chart, to_text(plain.theta))
    alpha = fixed.graph.function
    assert fixed.theta == theta0 - bracket(theta0, alpha)


def test_instance_json_round_trip():
    for name in ("cross7", "twisted_pencil", "vb_twist", "quasi_poisson"):
        inst = gallery.build(name)
        d = gallery.instance_to_json(inst)
        back = gallery.instance_from_json(d)
        assert back.name == inst.name
        assert to_text(back.theta) == to_text(inst.theta)
        assert (back.twist is None) == (inst.twist is None)
        if inst.twist is not None:
            assert to_text(back.twist) == to_text(inst.twist)
            assert back.lambdas == inst.lambdas
        assert gallery.canonical_json(gallery.instance_to_json(back)) \
            == gallery.canonical_json(d)
        assert gallery.check_instance(back)[0] == []


def test_load_instance_from_file():
    inst = gallery.load_instance(gallery.data_path("cross3"))
    assert inst.name == "cross3"
    assert gallery.check_instance(inst)[0] == []


def test_cross7_jacobiator_against_algebra_oracle():
    inst = gallery.build("cross7")
    ch = inst.chart
    eps = oracles.epsilon_table(oracles.CROSS7_TRIPLES)
    for (i, j, k) in ((1, 2, 4), (2, 3, 5), (1, 6, 7)):
        pair = courant.section_pair(inst.theta, ch.gen("pi%d" % i),
                                    ch.gen("pi%d" % j))
        got = courant.jacobiator(pair, ch.gen("pi%d" % k))
        alg = oracles.algebra_jacobiator(eps, 7, i, j, k)
        want = ch.zero()
        for m, c in alg.items():
            want = want + ch.gen("pi%d" % m) * Fraction(-c)
        assert got == want, (i, j, k)
    direct = courant.jacobiator(
        courant.section_pair(inst.theta, ch.gen("pi1"), ch.gen("pi2")),
        ch.gen("pi4"))
    assert to_text(direct) == "-2*pi7"


def test_quasi_obstruction_against_independent_oracle():
    inst = gallery.build("quasi_poisson")
    T = inst.default_potential
    f = inst.chart.symbol("f")
    got = bracket(T, bracket(T, f))
    assert got == oracles.quasi_obstruction(inst.chart)
    assert not got.is_zero


def test_vb_twist_residual_recomputed_from_parts():
    inst = gallery.build("vb_twist")
    alpha = inst.graph.function
    beta = inst.twist
    res = dirac.tangency_residual(inst.default_potential, inst.graph)
    assert res == bracket(inst.theta, alpha) + beta
    assert to_text(res) \
        == "x1*dx2*dx3*dq1 + x2*q1*dx1*dx2*dx3 - x3*dx1*dx2*dq1"


def test_pencil_self_bracket_is_linear_in_lambda():
    inst = gallery.build("twisted_pencil")
    cross = bracket(inst.theta, inst.twist)
    for lam in inst.lambdas:
        P = inst.potential_at(lam)
        assert bracket(P, P) == cross * (2 * lam), lam
    verdicts = {lam: courant.classify(inst.potential_at(lam)).verdict
                for lam in inst.lambdas}
    assert verdicts == {Fraction(0): "Courant",
                        Fraction(1): "PreCourant",
                        Fraction(-2): "PreCourant"}


def test_the_default_potential_is_made_once():
    # The pencil at lambda = 1 is the default potential itself, so what a
    # check keeps with it (its class's {T, T}, its gradient) is not lost.
    pencils = 0
    for name in gallery.names():
        inst = gallery.build(name)
        assert inst.default_potential is inst.default_potential, name
        if inst.twist is None:
            assert inst.default_potential is inst.theta, name
            continue
        pencils += 1
        assert inst.potential_at(1) is inst.default_potential, name
        assert inst.default_potential == inst.theta + inst.twist, name
    assert pencils == 5


def test_euclidean_sigma_against_literal_oracle():
    inst = gallery.build("euclidean_cubic")
    sigma = oracles.darboux_literal_bracket(inst.theta, inst.theta)
    assert to_text(sigma) == "2*xi2*xi3*xi4*xi5"
    assert sigma == bracket(inst.theta, inst.theta)


def test_weight_one_frames_are_dual():
    for name in ("cross7", "vb_plain", "euclidean_cubic", "hyperbolic_cubic"):
        chart = gallery.build(name).chart
        basis, dual = identities.weight_one_frame(chart)
        for i, b in enumerate(basis):
            for j, d in enumerate(dual):
                want = chart.one() if i == j else chart.zero()
                assert courant.pairing(b, d) == want, (name, i, j)


def test_tampered_expectations_are_detected():
    d = copy.deepcopy(gallery.instance_to_json(gallery.build("cross7")))
    assert d["expected"]["spots"][0]["value"] == "pi3"
    d["expected"]["spots"][0]["value"] = "pi4"
    inst = gallery.instance_from_json(d)
    failures, _ = gallery.check_instance(inst)
    assert failures
    assert any("pre_bracket(pi1, pi2)" in f for f in failures)


def test_tampered_verdict_is_detected():
    d = copy.deepcopy(gallery.instance_to_json(gallery.build("cross3")))
    d["expected"]["verdict"] = "PreCourant"
    failures, _ = gallery.check_instance(gallery.instance_from_json(d))
    assert any("verdict" in f for f in failures)


DEMOS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, capsys):
    spec = importlib.util.spec_from_file_location("demo_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("name,most", [("cross7", 2), ("twisted_pencil", 4)])
def test_check_instance_classifies_each_potential_once(monkeypatch, name,
                                                       most):
    # cross7: its potential and its lift; twisted_pencil: three lambdas,
    # one of them the default potential, and the lift.
    calls = []
    original = courant.classify

    def counting(theta):
        calls.append(theta)
        return original(theta)

    monkeypatch.setattr(courant, "classify", counting)
    assert gallery.check_instance(gallery.build(name))[0] == []
    assert len(calls) <= most


@pytest.mark.parametrize("name, calls", [("cross7", 56), ("rflux", 63)])
def test_check_instance_bracket_count(bracket_calls, name, calls):
    # naive_membership contracts by the base coordinates only,
    # constant_l1_basis does not test its own nullspace again, and the
    # naive condition reads the Jacobiator off the class's {T, T} and
    # brackets no zero {tt, kappa} or {{tt, kappa}, u} further (170 calls,
    # 112 of them with a zero left argument, before).  One AnchorVectors
    # table gives the point cohomology, the spots and every membership
    # test their {T, x}, and {theta, twist} is computed once for all
    # lambdas: cross7 made 58 calls and rflux 61 (25 distinct pairs, each
    # {T, x_a} six times) before.  classify brackets {T, x} for every base
    # coordinate x of a potential that is not Nearly, and {T, {T, x}} when
    # {T, x} is nonzero: rflux makes 24 such calls for its two pencil
    # members and its lift; cross7 has no base coordinates.  It then
    # brackets T with the weight-1 generators up to the first e with
    # {T, e} nonzero, makes the witness {T, {T, e}}, and builds {T, T}
    # only when that witness is zero.  cross7: 2 calls each for the
    # potential and its k = 2 lift, both PreCourant by witness, and the
    # naive condition's read of the potential's {T, T}; the lift's {T, T}
    # is no longer built (53 + 4 - 1).  rflux meets 4 zero {T, e} first in
    # each of its three classes, so 6 calls each; the Courant member at
    # lambda 0 still builds its {T, T}, the twist check reads that of
    # lambda 1, and the lift's is no longer built (46 + 18 - 1).
    inst = gallery.build(name)
    del bracket_calls[:]
    failures, sc = gallery.check_instance(inst)
    assert failures == []
    assert sc.is_pre_courant
    assert len(bracket_calls) == calls
    assert not any(X.is_zero for X, _ in bracket_calls)
