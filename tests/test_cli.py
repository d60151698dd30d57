import json

import pytest

import oracles
from superpoisson import cli, gallery
from superpoisson.superpoly import to_text


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
    assert "parse error" in err


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

    def refuse(ref, strict=True):
        raise PermissionError(13, "Permission denied", ref)

    monkeypatch.setattr(gallery, "load_instance", refuse)
    code, out, err = run(capsys, ["check", str(path)])
    assert code == 2
    assert out == ""
    assert "Permission denied" in err


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
