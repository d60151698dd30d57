"""Byte-for-byte CLI and demo output, pinned.

Each command's stdout and exit code are stored under tests/golden/ and
compared exactly, so a change meant to be behaviour-preserving (a speed-up,
a refactor) cannot alter what a user sees.  The lift commands run in an
empty working directory with a relative ``-o``, and the instance file each
one writes is pinned too; each demo's stdout is pinned as well.  When an
output is meant to change, regenerate the files from the source tree to be
pinned with

    PYTHONPATH=src python tests/test_golden_cli.py

and say which files changed and why.
"""

import contextlib
import glob
import importlib.util
import io
import json
import os
import sys
import tempfile

import pytest

from superpoisson import cli

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")

COMMANDS = (
    ("gallery_json", ["gallery", "--json"]),
    ("gallery_cross3_json", ["gallery", "cross3", "--json"]),
    ("gallery_cross3", ["gallery", "cross3"]),
    ("check_cross7", ["check", "cross7", "--json", "--seed", "3",
                      "--samples", "3"]),
    ("check_quasi_poisson", ["check", "quasi_poisson", "--json", "--seed",
                             "5", "--samples", "4"]),
    ("check_twisted_pencil", ["check", "twisted_pencil", "--json", "--seed",
                              "1", "--samples", "4"]),
    ("jacobiator_cross7", ["jacobiator", "cross7", "pi1", "pi2", "pi4",
                           "--json"]),
)

# Each writes golden/<name>.json; stdout names that relative path.
LIFTS = (
    ("lift_quasi_poisson_k4", ["lift", "quasi_poisson", "-k", "4"]),
    ("lift_rflux_k5", ["lift", "rflux", "-k", "5"]),
    ("lift_cross7_full_k5", ["lift", "cross7_full", "-k", "5"]),
)

DEMOS = sorted(glob.glob(os.path.join(HERE, "..", "demos", "*.py")))


def _demo_name(path):
    return "demo_" + os.path.splitext(os.path.basename(path))[0]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _run_lift(name, argv):
    """Exit code, stdout and the written instance file's text of one lift
    run in a fresh working directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            code, out = _run(argv + ["-o", name + ".json"])
            with open(name + ".json", encoding="utf-8", newline="") as fh:
                written = fh.read()
        finally:
            os.chdir(cwd)
    return code, out, written


def _run_demo(path):
    spec = importlib.util.spec_from_file_location("demo_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        module.main()
    return out.getvalue()


def _golden(filename):
    with open(os.path.join(GOLDEN, filename), newline="") as fh:
        return fh.read()


def _exit_code(name):
    with open(os.path.join(GOLDEN, "exit_codes.json")) as fh:
        return json.load(fh)[name]


@pytest.mark.parametrize("name,argv", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_cli_output_matches_golden(name, argv):
    code, out = _run(argv)
    assert code == _exit_code(name)
    assert out == _golden(name + ".out")


@pytest.mark.parametrize("name,argv", LIFTS, ids=[c[0] for c in LIFTS])
def test_lift_output_and_file_match_golden(name, argv):
    code, out, written = _run_lift(name, argv)
    assert code == _exit_code(name)
    assert out == _golden(name + ".out")
    assert written == _golden(name + ".json")


@pytest.mark.parametrize("path", DEMOS, ids=_demo_name)
def test_demo_output_matches_golden(path):
    assert _run_demo(path) == _golden(_demo_name(path) + ".out")


def _write(filename, text):
    with open(os.path.join(GOLDEN, filename), "w", newline="") as fh:
        fh.write(text)


def _regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    for name, argv in COMMANDS:
        codes[name], out = _run(argv)
        _write(name + ".out", out)
    for name, argv in LIFTS:
        codes[name], out, written = _run_lift(name, argv)
        _write(name + ".out", out)
        _write(name + ".json", written)
    for path in DEMOS:
        _write(_demo_name(path) + ".out", _run_demo(path))
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(_regenerate())
