import json
import os
import random
import subprocess
import sys

import pytest

import oracles
from superpoisson import cli, complexes, courant, gallery
from superpoisson.poisson import bracket
from superpoisson.superpoly import parse_expr, to_text

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gallery_list(capsys):
    code, out, _err = run(capsys, ["gallery", "--list"])
    assert code == 0
    names = out.split()
    assert names == list(gallery.names())


def test_gallery_json_report(capsys):
    code, out, _err = run(capsys, ["gallery", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert len(report["instances"]) == 16


def test_gallery_single_instance(capsys):
    code, out, _err = run(capsys, ["gallery", "cross3"])
    assert code == 0
    assert "cross3" in out


def test_bracket_commands(capsys):
    for argv, want in (
            (["bracket", "cross7", "--pre", "pi1", "pi2"], "pi3"),
            (["bracket", "twisted_pencil", "--poisson", "p1", "x1"], "1"),
            (["bracket", "euclidean_cubic", "--pairing", "xi1", "xi1"], "1"),
            (["bracket", "hyperbolic_cubic", "--pairing", "xi1", "xi3"], "1"),
            (["bracket", "hyperbolic_cubic", "--pairing", "xi1", "xi1"], "0"),
    ):
        code, out, _err = run(capsys, argv)
        assert code == 0, argv
        assert out.strip().splitlines()[-1] == want, argv


def test_jacobiator_command(capsys):
    code, out, _err = run(capsys, ["jacobiator", "cross7",
                                   "pi1", "pi2", "pi4"])
    assert code == 0
    assert "-2*pi7" in out
    assert "agrees" in out


def test_check_by_name(capsys):
    code, out, _err = run(capsys, ["check", "cross3"])
    assert code == 0
    assert "ok" in out


def test_check_json_is_byte_stable(capsys):
    argv = ["check", "cross7", "--json", "--seed", "3", "--samples", "3"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] is True


def test_lift_roundtrip(tmp_path, capsys):
    target = tmp_path / "cross7_lift2.json"
    code, out, _err = run(capsys, ["lift", "cross7", "-k", "2",
                                   "--out", str(target)])
    assert code == 0
    assert "PreCourant" in out
    assert target.exists()
    code2, out2, _err2 = run(capsys, ["check", str(target)])
    assert code2 == 0, out2

    code3, out3, _err3 = run(capsys, ["lift", "cross3", "-k", "3",
                                      "--out", str(tmp_path / "c3.json")])
    assert code3 == 0
    assert "Courant" in out3


def test_lift_usage_errors(capsys):
    code, _out, err = run(capsys, ["lift", "cross7", "-k", "1"])
    assert code == 2
    assert "at least 2" in err
    code2, _out2, err2 = run(capsys, ["lift", "vb_plain", "-k", "2"])
    assert code2 == 2
    assert "non-symplectic" in err2


def test_lift_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "x.json"
    code, out, err = run(capsys, ["lift", "cross3", "-k", "3",
                                  "--out", str(missing)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write %s: " % missing)
    assert "Traceback" not in err
    assert not missing.parent.exists()

    code2, out2, err2 = run(capsys, ["lift", "cross3", "-k", "3",
                                     "--out", str(tmp_path)])
    assert code2 == 2
    assert out2 == ""
    assert err2.startswith("error: cannot write %s: " % tmp_path)
    assert "Traceback" not in err2


def test_unknown_instance_lists_names(capsys):
    code, _out, err = run(capsys, ["check", "nope"])
    assert code == 2
    assert "cross3" in err


def test_bad_potential_text_in_file(tmp_path, capsys):
    d = json.loads(gallery.canonical_json(
        gallery.instance_to_json(gallery.build("cross3"))))
    d["potential"] = "xi1*+"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    code, _out, err = run(capsys, ["check", str(path)])
    assert code == 2
    assert "parse error" in err


def test_malformed_json_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _out, err = run(capsys, ["check", str(path)])
    assert code == 2
    assert "parse error in %s: line 1 column 2:" % path in err


def test_corrupted_structure_constants_fail_with_witness(tmp_path, capsys):
    inst = gallery.build("cross7")
    truncated = tuple(t for t in oracles.CROSS7_TRIPLES if t != (3, 6, 5))
    d = json.loads(gallery.canonical_json(gallery.instance_to_json(inst)))
    d["potential"] = to_text(oracles.cross_theta(inst.chart, truncated))
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(d))
    code, out, err = run(capsys, ["check", str(path)])
    assert code == 1
    text = out + err
    assert "pre_bracket(pi3, pi6): got 0, expected pi5" in text


def test_broken_pairing_fails_with_witness(tmp_path, capsys):
    d = json.loads(gallery.canonical_json(
        gallery.instance_to_json(gallery.build("twisted_pencil"))))
    d["chart"]["pairing"].append(["x1", "p1", "1"])
    path = tmp_path / "pairing.json"
    path.write_text(json.dumps(d))
    code, out, err = run(capsys, ["check", str(path)])
    assert code == 1
    text = out + err
    assert "pairing entries for (x1, p1) conflict" in text
    for argv in (["bracket", str(path), "--pre", "pi2", "pi3"],
                 ["jacobiator", str(path), "pi2", "pi3", "pi4"],
                 ["lift", str(path), "-k", "2",
                  "--out", str(tmp_path / "lifted.json")]):
        code, out, err = run(capsys, argv)
        assert code == 1, argv
        assert out == "", argv
        assert "pairing entries for (x1, p1) conflict" in err, argv
    assert not (tmp_path / "lifted.json").exists()


def test_catalogue_name_beside_a_directory_of_that_name(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cross3").mkdir()
    code, out, _err = run(capsys, ["check", "cross3"])
    assert code == 0
    assert "instance cross3: ok" in out


def test_unreadable_instance_file_is_a_usage_error(tmp_path, capsys,
                                                   monkeypatch):
    path = tmp_path / "cross3.json"
    path.write_text(gallery.canonical_json(
        gallery.instance_to_json(gallery.build("cross3"))))

    def refuse(ref):
        raise PermissionError(13, "Permission denied", ref)

    monkeypatch.setattr(gallery, "load_instance", refuse)
    code, out, err = run(capsys, ["check", str(path)])
    assert code == 2
    assert out == ""
    assert "Permission denied" in err


@pytest.mark.parametrize("command", ["check", "lift"])
@pytest.mark.parametrize("name", ["bad.json", "deep.json", "long.json"])
def test_undecodable_instance_file_is_a_usage_error(tmp_path, capsys,
                                                    command, name):
    path = tmp_path / name
    if name == "long.json" and not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts integers of any length")
    path.write_bytes({"bad.json": b"\xff\xfe",
                      "deep.json": b"[" * 100000 + b"]" * 100000,
                      "long.json": b'{"schema_version": ' + b"1" * 5000
                      + b"}"}[name])
    out_path = tmp_path / "lifted.json"
    argv = [command, str(path)]
    if command == "lift":
        argv += ["-k", "2", "--out", str(out_path)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read %s: " % path)
    assert err.count("\n") == 1
    assert not out_path.exists()


def write_instance(tmp_path, name, edit):
    d = json.loads(gallery.canonical_json(
        gallery.instance_to_json(gallery.build(name))))
    edit(d)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(d))
    return str(path)


def test_instance_file_without_chart_is_a_usage_error(tmp_path, capsys):
    path = write_instance(tmp_path, "cross3", lambda d: d.pop("chart"))
    code, out, err = run(capsys, ["check", path])
    assert code == 2
    assert out == ""
    assert "malformed instance: chart: missing" in err


def test_non_integer_generator_weight_is_a_usage_error(tmp_path, capsys):
    def edit(d):
        d["chart"]["generators"][1]["weight"] = ["a", 0]

    path = write_instance(tmp_path, "cross3", edit)
    code, out, err = run(capsys, ["check", path])
    assert code == 2
    assert out == ""
    assert "chart.generators[1].weight[0]: expected an integer" in err


def test_text_lift_degree_is_a_usage_error(tmp_path, capsys):
    def edit(d):
        d["lift"] = {"k": "3"}

    path = write_instance(tmp_path, "cross3", edit)
    for argv in (["check", path],
                 ["lift", path, "-k", "2", "--out", str(tmp_path / "F")]):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == "", argv
        assert "lift.k: expected an integer" in err, argv
    assert not (tmp_path / "F").exists()


@pytest.mark.parametrize("spot, message", [
    ({"op": "pre_bracket", "args": ["pi1 + 1", "pi2"], "value": "pi3"},
     "section must have homogeneous parity"),
    ({"op": "anchor", "args": ["pi1", "pi2"], "value": "0"},
     "anchor argument must have symplectic weight 0: pi2"),
])
def test_a_spot_argument_its_op_refuses_is_a_usage_error(tmp_path, capsys,
                                                         spot, message):
    # The potential is valid; the file asks an op for a value it has none
    # of, which is a malformed file rather than a failed check.
    def edit(d):
        d["expected"]["spots"][0] = spot

    path = write_instance(tmp_path, "cross3", edit)
    code, out, err = run(capsys, ["check", path, "--json"])
    assert code == 2
    assert out == ""
    assert "malformed instance: expected.spots[0]: " + message in err


def test_deeply_nested_expression_is_a_parse_error(capsys):
    deep = "(" * 3000 + "xi1" + ")" * 3000
    code, out, err = run(capsys, ["bracket", "cross3", "--poisson",
                                  deep, "pi1"])
    assert code == 2
    assert out == ""
    assert "parentheses nest deeper than 100 levels" in err
    nested = "(" * 100 + "xi1" + ")" * 100
    code, out, _err = run(capsys, ["bracket", "cross3", "--poisson",
                                   nested, "pi1"])
    assert code == 0
    assert out == "1\n"


def test_check_on_an_invalid_chart_reports_the_chart(tmp_path, capsys):
    # The identity sweeps need a valid chart: on this one they would stop
    # at the first section of mixed parity and hide the chart problems.
    def edit(d):
        for g in d["chart"]["generators"]:
            if g["name"] == "xi1":
                g["parity"] = "even"

    path = write_instance(tmp_path, "cross3", edit)
    code, out, _err = run(capsys, ["check", path, "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["identities"] == []
    assert payload["failures"] == [
        "chart: pairing {xi1,pi1} joins different parities (a nonzero "
        "constant bracket is even)",
        "chart: pairing {pi1,xi1} joins different parities (a nonzero "
        "constant bracket is even)",
        "chart: N-manifold rule broken: xi1 has parity 0 but symplectic "
        "weight 1"]


def test_instance_file_without_expected_block_fails_check(tmp_path, capsys):
    path = write_instance(tmp_path, "cross3", lambda d: d.pop("expected"))
    code, out, _err = run(capsys, ["check", path])
    assert code == 1
    assert "no expected verdict for the potential" in out
    code, out, _err = run(capsys, ["bracket", path, "--pre", "pi1", "pi2"])
    assert code == 0
    assert out == "pi3\n"


def test_sampling_flags_belong_to_check_only(capsys):
    for argv in (["gallery", "--seed", "1"],
                 ["lift", "cross3", "-k", "2", "--samples", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_check_samples_must_be_positive(capsys):
    # A sweep of no samples checks nothing and must not report ok.
    for value in ("-3", "0", "two"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "cross3", "--samples", value, "--json"])
        assert exc.value.code == 2, value
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --samples" in captured.err


def test_check_without_weight_one_sector_is_a_usage_error(tmp_path, capsys):
    doc = {"schema_version": 1, "name": "no_sections", "potential": "0",
           "chart": {"name": "plain", "axes": 1, "n_manifold": True,
                     "symplectic_axes": [0],
                     "generators": [
                         {"name": "x1", "parity": "even", "weight": [0]},
                         {"name": "p1", "parity": "even", "weight": [2]}],
                     "pairing": [["p1", "x1", "1"]]},
           "expected": {"verdicts": {}}}
    path = tmp_path / "no_sections.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["check", str(path)])
    assert code == 2
    assert out == ""
    assert "chart plain has no weight-1 sector" in err


def test_each_loaded_chart_is_validated_once(tmp_path, capsys, monkeypatch):
    """The constructor's structural checks are the chart's validation;
    loading and validating an instance does not run them again."""
    from superpoisson import charts
    original = charts._structural_problems
    seen = []

    def counting(chart):
        seen.append(chart)
        return original(chart)

    monkeypatch.setattr(charts, "_structural_problems", counting)
    for argv in (["check", "cross7"],
                 ["bracket", "cross7", "--pre", "pi1", "pi2"],
                 ["lift", "cross3", "-k", "3", "--out",
                  str(tmp_path / "c3.json")]):
        seen.clear()
        assert run(capsys, argv)[0] == 0, argv
        assert seen, argv
        assert [sum(c is chart for c in seen) for chart in seen] \
            == [1] * len(seen), argv


def test_check_cross7_builds_two_charts(capsys, monkeypatch):
    """The loaded two-axis chart and its k = 2 lift, which reads the
    loaded chart's gradings: no flattened chart is built on the way."""
    from superpoisson import charts
    original = charts.Chart.__init__
    built = []

    def counting(chart, *args, **kwargs):
        original(chart, *args, **kwargs)
        built.append(chart.name)

    monkeypatch.setattr(charts.Chart, "__init__", counting)
    assert run(capsys, ["check", "cross7"])[0] == 0
    assert built == ["cotangent_antivb(0|7)",
                     "cotangent_antivb(0|7)|flat|T1"]


def test_check_cross7_computes_each_self_bracket_once(bracket_calls, capsys):
    # One {T, T}, built on the class's first read of sigma, which the
    # naive condition and every sample of the identity sweep reuse.  The
    # k = 2 lift is PreCourant by its weight-1 witness {T, {T, e}}, so its
    # classification builds no self-bracket (it built one, two in all,
    # before classify read that witness).
    assert run(capsys, ["check", "cross7"])[0] == 0
    selves = [X for X, Y in bracket_calls if X is Y]
    T = selves[0]
    assert to_text(T) == to_text(gallery.build("cross7").default_potential)
    assert sum(X is T for X in selves) == 1
    assert len(selves) == 1


def test_check_quasi_poisson_differentiates_the_larger_side_partially(
        derivative_terms, capsys):
    # The bracket differentiates its smaller argument in full and asks the
    # larger one only for the derivatives that meet it: 2,617 derivative
    # terms.  Taking the right argument's full gradient whatever its size
    # built 4,104, most of them chain-rule terms of symbol-carrying
    # potentials that no derivative of the smaller side meets.
    code, out, _err = run(capsys, ["check", "quasi_poisson", "--json",
                                   "--seed", "5", "--samples", "4"])
    assert code == 0
    assert json.loads(out)["ok"] is True
    assert sum(derivative_terms) <= 3000, sum(derivative_terms)


@pytest.mark.parametrize("argv", [
    ["bracket", "cross3", "--pre", "xi1+xi1*xi2", "pi1"],
    ["jacobiator", "cross7", "xi1+xi1*xi2", "pi1", "pi2"],
])
def test_mixed_parity_section_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "must have homogeneous parity" in err


@pytest.mark.parametrize("argv, refused", [
    (["jacobiator", "cross3", "1", "2", "3"], "1"),
    (["bracket", "rflux", "--pre", "x1", "p1"], "x1"),
    (["bracket", "rflux", "--pre", "xs1", "p1"], "p1"),
    (["bracket", "cross3", "--pairing", "x1", "x2"], "x1"),
    (["bracket", "cross7", "--pairing", "pi1", "pi1*pi2"], "pi1*pi2"),
], ids=["constants", "base-coordinate", "momentum", "scalar-symbols",
        "weight-2"])
def test_section_of_another_weight_is_a_usage_error(capsys, argv, refused):
    # Each of these printed 0 with exit 0 when any element was taken as a
    # section; x1 and x2 are not generators of cross3 but scalar symbols.
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: section %s must have symplectic weight 1\n" \
        % refused


def test_sections_of_weight_one_are_accepted(capsys):
    for argv, want in (
            (["bracket", "rflux", "--pre", "xs1", "x1*pi2"], "0"),
            (["bracket", "cross7", "--pairing", "0", "pi1"], "0"),
            (["jacobiator", "cross7", "pi1", "pi2", "2*pi4"], "-4*pi7")):
        code, out, _err = run(capsys, argv)
        assert code == 0, argv
        assert out.splitlines()[0] == want, argv


@pytest.mark.parametrize("samples, calls", [(1, 30), (2, 59)])
def test_identity_sweep_shares_each_sample_s_brackets(bracket_calls,
                                                      samples, calls):
    # Per sample one SectionPair gives the symmetry, anchor-morphism and
    # direct Jacobiator defects their anchor vectors, [[s, p]] and its
    # anchor vector (37 calls per sample before); the second sample's
    # alpha is s, whose {T, s} is read off its anchor vector.
    inst = gallery.build("cross7")
    T = inst.default_potential
    tt = bracket(T, T)
    del bracket_calls[:]
    rows = cli.identity_sweep(inst, tt, random.Random(1), samples)
    assert [row["ok"] for row in rows] == [True] * 4
    assert len(bracket_calls) == calls


def test_a_failing_row_s_witness_is_its_value_on_integer_inputs(
        capsys, monkeypatch):
    # A doubled pairing is a planted error that stays linear in each
    # section, so the symmetry row on the integer multiples of the draws
    # is a positive multiple of the row on the draws.  The witness lists
    # the multiples, and the row recomputed on them, with the pairing still
    # doubled, is the witness value.
    original = courant.pairing
    monkeypatch.setattr(courant, "pairing",
                        lambda s, p: original(s, p) * 2)
    code, out, _err = run(capsys, ["check", "twisted_pencil", "--json",
                                   "--seed", "1"])
    assert code == 1
    row = json.loads(out)["identities"][0]
    assert (row["name"], row["ok"]) == ("bracket_symmetry", False)
    witness = row["witness"]
    assert witness["inputs"] == ["-2*pi3 + 9*x1^2*pi3 + 3*f*x1^2*pi4",
                                 "x1*xi1 + x1*xi4 - 9*h*x1^2*pi2"]
    inst = gallery.build("twisted_pencil")
    s, p = (parse_expr(inst.chart, text) for text in witness["inputs"])
    assert all(type(c) is int for x in (s, p) for c in x.terms.values())
    value = courant.symmetry_defect(
        courant.section_pair(inst.default_potential, s, p))
    assert not value.is_zero
    assert to_text(value) == witness["value"]


def _plus(module, name, term):
    """module.name with term(*args) added to its value."""
    original = getattr(module, name)
    return lambda *args: original(*args) + term(*args)


# On cross7 (no base coordinates) a base function f is a constant or a
# formal symbol, which T kills: {T, <s, p>}, the anchor actions on f and
# every term of the contraction row vanish there.  Each broken route
# therefore adds a term that survives rather than scaling one.
BROKEN_ROUTES = [
    ("bracket_symmetry", courant, "pairing", lambda s, p: s),
    ("anchor_morphism", courant, "apply_anchor_vector", lambda rho, f: f),
    ("jacobiator_master", courant, "jacobiator_via_master",
     lambda tt, s, p, l: l),
    ("contraction_commutator", complexes, "q_theta", lambda theta, a: 1),
]


@pytest.mark.parametrize("row, module, name, term", BROKEN_ROUTES,
                         ids=[r[0] for r in BROKEN_ROUTES])
def test_a_broken_route_fails_its_identity_row(capsys, monkeypatch, row,
                                               module, name, term):
    # The shared pair must not let a row compare a value with itself: one
    # broken route turns its own row NONZERO, with a witness, and leaves
    # the other rows ok.
    monkeypatch.setattr(module, name, _plus(module, name, term))
    code, out, _err = run(capsys, ["check", "cross7", "--json"])
    assert code == 1
    rows = {r["name"]: r for r in json.loads(out)["identities"]}
    assert rows[row]["ok"] is False
    assert rows[row]["witness"]["inputs"]
    assert rows[row]["witness"]["value"] != "0"
    assert [r["name"] for r in rows.values() if not r["ok"]] == [row]
    code, out, _err = run(capsys, ["check", "cross7"])
    assert code == 1
    assert "  identity %s (4 samples): NONZERO" % row in out.splitlines()


def test_one_parser_serves_every_call_in_a_process(capsys):
    # No --json, --seed or --samples state leaks from one call into the
    # next: each stdout equals that of a fresh process.
    argvs = (["check", "cross7", "--json", "--seed", "3", "--samples", "3"],
             ["bracket", "cross7", "--pre", "pi1", "pi2"],
             ["check", "cross7"])
    env = dict(os.environ, PYTHONPATH=SRC)
    fresh = [subprocess.run([sys.executable, "-m", "superpoisson.cli"]
                            + argv, env=env, capture_output=True, text=True,
                            check=True).stdout
             for argv in argvs]
    cli.build_parser.cache_clear()
    for argv, want in zip(argvs, fresh):
        code, out, _err = run(capsys, argv)
        assert code == 0, argv
        assert out == want, argv
    assert cli.build_parser.cache_info().misses == 1


INVALID_POTENTIALS = [
    ("xi1*xi2*pi1*pi2",
     "potential: potential must be odd; even term xi1*xi2*pi1*pi2"),
    ("xi1*xi2*xi3*pi1*pi2",
     "potential: potential must have symplectic weight 3; term "
     "xi1*xi2*xi3*pi1*pi2 has 5"),
]


@pytest.mark.parametrize("potential, failure", INVALID_POTENTIALS)
def test_check_on_an_invalid_potential_reports_it(tmp_path, capsys,
                                                  potential, failure):
    # The chart is valid; the potential is not, so the checks that read it
    # and the identity sweeps are skipped.
    path = write_instance(tmp_path, "cross3",
                          lambda d: d.update(potential=potential))
    code, out, _err = run(capsys, ["check", path, "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["identities"] == []
    assert payload["failures"] == [failure]


@pytest.mark.parametrize("potential, failure", INVALID_POTENTIALS)
@pytest.mark.parametrize("argv", [
    ["bracket", "--pre", "pi1", "pi2"],
    ["bracket", "--poisson", "pi1", "xi2"],
    ["jacobiator", "pi1", "pi2", "pi3"],
    ["lift", "-k", "2", "--out", "F"],
], ids=["pre", "poisson", "jacobiator", "lift"])
def test_commands_refuse_an_invalid_potential_as_check_does(
        tmp_path, capsys, argv, potential, failure):
    # Each of these printed a value with exit 0, or named a lifted term,
    # when only check validated the potential.
    path = write_instance(tmp_path, "cross3",
                          lambda d: d.update(potential=potential))
    argv = [argv[0], path] + [str(tmp_path / a) if a == "F" else a
                              for a in argv[1:]]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == failure + "\n"
    assert not (tmp_path / "F").exists()


def test_point_cohomology_on_a_chart_with_base_coordinates_is_a_usage_error(
        tmp_path, capsys):
    # The potential is valid; the file asks for a quantity that is only
    # defined over a point, like a spot its op refuses.
    def edit(d):
        d["expected"]["cohomology_point"] = [1, 0]

    path = write_instance(tmp_path, "bialgebroid", edit)
    code, out, err = run(capsys, ["check", path])
    assert code == 2
    assert out == ""
    assert ("malformed instance: expected.cohomology_point: point "
            "cohomology needs a chart over a point") in err


def mixed_parity_sections(d):
    """cross3 with an even conjugate pair e1, e2 in the weight-1 sector."""
    chart = d["chart"]
    chart["n_manifold"] = False
    chart["generators"] += [
        {"name": "e1", "parity": "even", "weight": [1, 0]},
        {"name": "e2", "parity": "even", "weight": [0, 1]}]
    chart["pairing"].append(["e1", "e2", "1"])
    chart["roles"].update(e1="fibre", e2="cofibre")
    del d["expected"]["cohomology_point"]


@pytest.mark.parametrize("seed", range(8))
def test_check_draws_sections_of_one_parity(tmp_path, capsys, seed):
    # The weight-1 sector has odd and even generators; each drawn section
    # takes the parity of its first generator.
    path = write_instance(tmp_path, "cross3", mixed_parity_sections)
    code, out, err = run(capsys, ["check", path, "--seed", str(seed),
                                  "--json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [row["ok"] for row in payload["identities"]] == [True] * 4


@pytest.mark.parametrize("text", ["pi1*²", "²", "pi1^²", "1/²", "pi1²"])
def test_a_superscript_digit_is_a_parse_error(capsys, text):
    code, out, err = run(capsys, ["bracket", "cross3", "--poisson",
                                  text, "pi2"])
    assert code == 2
    assert out == ""
    assert "parse error: unexpected character '²'" in err


def test_a_symbol_power_is_a_parse_error(capsys):
    code, out, err = run(capsys, ["bracket", "rflux", "--poisson",
                                  "R^2", "p1"])
    assert code == 2
    assert out == ""
    assert "parse error: only a generator takes an exponent (at offset 1)" \
        in err


def test_a_superscript_digit_in_an_instance_file_is_a_parse_error(
        tmp_path, capsys):
    def edit(d):
        d["potential"] += " + xi1*xi2*pi3^²"

    path = write_instance(tmp_path, "cross3", edit)
    code, out, err = run(capsys, ["check", path])
    assert code == 2
    assert out == ""
    assert "parse error: unexpected character '²'" in err


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(d):
        for step in path:
            d = d[step]
        d[key] = value
    return edit


@pytest.mark.parametrize("name, edit, message", [
    ("cross3", _set("chart", "pairing", 0, 2, "x"),
     'chart.pairing[0][2]: expected a rational like "3/2", got "x"'),
    ("cross3", _set("chart", "pairing", 0, ["xi1", "pi1"]),
     'chart.pairing[0]: expected a list of 3 entries, got ["xi1", "pi1"]'),
    ("cross3", _set("chart", "generators", 0, "parity", "neutral"),
     'chart.generators[0].parity: expected one of "even", "odd", 0, 1, '
     'got "neutral"'),
    ("cross3", _set("lift", "k", 1),
     "lift.k: expected an integer of at least 2, got 1"),
    ("cross3", _set("expected", "spots", 0, "args", ["pi1"]),
     "expected.spots[0].args: pre_bracket takes 2 arguments, got 1"),
    ("cross3", _set("chart", "generators", 0, "weight", [1]),
     "chart.generators[0].weight: expected 2 entries, one per axis, got 1"),
    ("cross3", _set("chart", "symplectic_axes", [0, 2]),
     "chart.symplectic_axes[1]: axis 2 out of range for 2 axes"),
    # a string where a list of strings is expected is refused, not read
    # as its characters
    ("cross3", _set("l_elements", "xi1"),
     'l_elements: expected a list, got "xi1"'),
    ("cross3", _set("expected", "spots", 0, "args", "pi1"),
     'expected.spots[0].args: expected a list, got "pi1"'),
    ("cross7", _set("dirac", "vanish", "pi1"),
     'dirac.vanish: expected a list, got "pi1"'),
], ids=["rational", "pairing-length", "parity", "lift-k", "spot-arity",
        "weight-length", "symplectic-axis", "elements-string",
        "spot-args-string", "vanish-string"])
def test_each_malformed_field_is_refused_with_its_path(tmp_path, capsys, name,
                                                       edit, message):
    path = write_instance(tmp_path, name, edit)
    code, out, err = run(capsys, ["check", path])
    assert code == 2
    assert out == ""
    assert "malformed instance: " + message in err


def test_an_unsupported_schema_version_is_refused(tmp_path, capsys):
    path = write_instance(tmp_path, "cross3", _set("schema_version", 99))
    code, out, err = run(capsys, ["check", path])
    assert code == 2
    assert out == ""
    assert "unsupported schema version 99" in err
