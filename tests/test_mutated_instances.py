"""Mutated catalogue files keep the exit-code contract.

Whatever an instance file says, `superpoisson check` answers 0 (all checks
hold), 1 (a check ran and failed) or 2 (the request is malformed); no
exception escapes.  The files here are catalogue files with one seeded
mutation each, of the kinds a hand-edited file tends to carry.
"""

import json
import random
import re

import pytest

from superpoisson import cli, gallery

SEED = 20261018
ROUNDS = 3

# the instances whose check is cheap enough to run many times
INSTANCES = ("cross3", "twisted_pencil", "bialgebroid", "action_algebra",
             "skew_cotangent", "euclidean_cubic", "hyperbolic_cubic",
             "nearly_witness")

VB_SEED = 20261019
VB_INSTANCES = ("vb_plain", "vb_twist", "vb_dirac")


def _names(d):
    return [g["name"] for g in d["chart"]["generators"]]


def swap_names_in_potential(d, rng):
    a, b = rng.sample(_names(d), 2)
    d["potential"] = re.sub(
        r"\b(%s|%s)\b" % (a, b), lambda m: b if m.group(0) == a else a,
        d["potential"])


def append_cubic_term(d, rng):
    factors = "*".join(rng.choice(_names(d)) for _ in range(3))
    d["potential"] += " %s %d*%s" % (rng.choice("+-"), rng.choice((1, 2, 3)),
                                     factors)


def wrong_parity(d, rng):
    gen = rng.choice(d["chart"]["generators"])
    gen["parity"] = "even" if gen["parity"] == "odd" else "odd"


def wrong_weight(d, rng):
    gen = rng.choice(d["chart"]["generators"])
    axis = rng.randrange(len(gen["weight"]))
    gen["weight"][axis] += rng.choice((-1, 1))


def degenerate_pairing(d, rng):
    entry = rng.choice(d["chart"]["pairing"])
    entry[2] = rng.choice(("0", "1/2"))


def broken_l_element(d, rng):
    bad = rng.choice(("xi1*", "zz9", "(", "p1^-1", ""))
    elements = d.setdefault("l_elements", [])
    if elements:
        elements[rng.randrange(len(elements))] = bad
    else:
        elements.append(bad)


def broken_spot(d, rng):
    spots = d["expected"].get("spots")
    bad = rng.choice(("zz9", "xi1*", "x1^x1"))
    if spots:
        spot = rng.choice(spots)
        spot["args"][rng.randrange(len(spot["args"]))] = bad
    else:
        d["expected"]["spots"] = [{"op": "pairing", "args": [bad, bad],
                                   "value": "0"}]


def spot_of_wrong_kind(d, rng):
    """A first spot whose op refuses its arguments: a derived bracket of a
    section of mixed parity, or an anchor applied to a function of nonzero
    symplectic weight."""
    chart = d["chart"]
    gens = chart["generators"]
    axes = chart.get("symplectic_axes") or range(chart["axes"])
    odd = rng.choice([g["name"] for g in gens if g["parity"] == "odd"])
    weighty = rng.choice([g["name"] for g in gens
                          if sum(g["weight"][a] for a in axes)])
    spot = rng.choice((
        {"op": "pre_bracket", "args": [odd + " + 1", odd], "value": "0"},
        {"op": "anchor", "args": [odd, weighty], "value": "0"}))
    d["expected"].setdefault("spots", []).insert(0, spot)


def lift_degree(d, rng):
    d["lift"] = {"k": rng.choice((2, 3, 6))}
    d["expected"].setdefault("lift_verdict", "Courant")


def graph_weight(d, rng):
    """Replace the graph's function by a product of sector generators whose
    lift weight is not the chart's lift degree minus one."""
    chart = d["chart"]
    role = "cofibre" if d["dirac"]["kind"] == "bivector" else "fibre"
    gens = chart["generators"]
    odd = [g for g in gens if chart["roles"].get(g["name"]) == role]
    base = [g for g in gens if chart["roles"].get(g["name"]) == "base"]
    while True:
        factors = rng.sample(odd, 2) + rng.sample(base, rng.randrange(2))
        if sum(g["weight"][0] for g in factors) != chart["lift_degree"] - 1:
            break
    d["dirac"]["expr"] = "*".join(g["name"] for g in factors)


def chart_lift_degree(d, rng):
    """Raise the chart's lift degree above the one its pairing was lifted
    to, so the conjugate lift weights no longer add up to it minus one."""
    d["chart"]["lift_degree"] += 1


MUTATIONS = (swap_names_in_potential, append_cubic_term, wrong_parity,
             wrong_weight, degenerate_pairing, broken_l_element, broken_spot,
             spot_of_wrong_kind, lift_degree)


def check_mutated(tmp_path, capsys, name, mutate, rng, n):
    """Exit code and stdout of `check --json` on the catalogue file of name
    after one mutation, with the mutated document."""
    d = json.loads(gallery.canonical_json(
        gallery.instance_to_json(gallery.build(name))))
    mutate(d, rng)
    path = tmp_path / ("%s_%s_%d.json" % (name, mutate.__name__, n))
    path.write_text(json.dumps(d))
    code = cli.main(["check", str(path), "--samples", "1", "--json"])
    return code, capsys.readouterr().out, d


def test_mutated_instance_files_exit_0_1_or_2(tmp_path, capsys):
    rng = random.Random(SEED)
    codes = set()
    for n in range(ROUNDS):
        for name in INSTANCES:
            for mutate in MUTATIONS:
                code, _out, d = check_mutated(tmp_path, capsys, name, mutate,
                                              rng, n)
                if mutate is spot_of_wrong_kind:
                    assert code == 2, (name, d["expected"]["spots"][0])
                assert code in (0, 1, 2), (name, mutate.__name__, d)
                codes.add(code)
    assert codes == {0, 1, 2}


def test_mutated_lifted_instance_files_exit_0_1_or_2(tmp_path, capsys):
    # The vb instances carry a lift degree and a graph; a graph function
    # of the wrong lift weight is a malformed file, and a lift degree that
    # the pairing does not fit is a failed chart check.
    rng = random.Random(VB_SEED)
    codes = set()
    for n in range(ROUNDS):
        for name in VB_INSTANCES:
            for mutate in MUTATIONS + (graph_weight, chart_lift_degree):
                code, out, d = check_mutated(tmp_path, capsys, name, mutate,
                                             rng, n)
                if mutate is graph_weight:
                    assert code == 2, (name, d["dirac"])
                if mutate is spot_of_wrong_kind:
                    assert code == 2, (name, d["expected"]["spots"][0])
                if mutate is chart_lift_degree:
                    assert code == 1, name
                    failures = json.loads(out)["failures"]
                    assert failures and all(
                        f.startswith("chart: ") for f in failures), failures
                assert code in (0, 1, 2), (name, mutate.__name__, d)
                codes.add(code)
    assert codes == {0, 1, 2}


def flip_residual_zero(d, rng):
    dirac = d["expected"]["dirac"]
    dirac["residual_zero"] = not dirac["residual_zero"]


def not_isotropic(d, rng):
    d["expected"]["dirac"]["isotropic"] = False


@pytest.mark.parametrize("name, mutate, failure", [
    ("vb_twist", flip_residual_zero,
     "graph residual zero is False, expected True"),
    ("vb_dirac", not_isotropic, "graph isotropy is True, expected False"),
], ids=["residual-zero", "isotropic"])
def test_a_wrong_dirac_expectation_fails_the_check(tmp_path, capsys, name,
                                                    mutate, failure):
    code, out, _d = check_mutated(tmp_path, capsys, name, mutate, None, 0)
    assert code == 1
    assert json.loads(out)["failures"] == [failure]
