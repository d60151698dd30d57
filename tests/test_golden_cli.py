"""Byte-for-byte CLI output, pinned.

Each command's stdout and exit code are stored under tests/golden/ and
compared exactly, so a change meant to be behaviour-preserving (a speed-up,
a refactor) cannot alter what a user sees.  When an output is meant to
change, regenerate the files from the source tree to be pinned with

    PYTHONPATH=src python tests/test_golden_cli.py

and say which files changed and why.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from superpoisson import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

COMMANDS = (
    ("gallery_json", ["gallery", "--json"]),
    ("check_cross7", ["check", "cross7", "--json", "--seed", "3",
                      "--samples", "3"]),
    ("check_quasi_poisson", ["check", "quasi_poisson", "--json", "--seed",
                             "5", "--samples", "4"]),
    ("check_twisted_pencil", ["check", "twisted_pencil", "--json", "--seed",
                              "1", "--samples", "4"]),
    ("jacobiator_cross7", ["jacobiator", "cross7", "pi1", "pi2", "pi4",
                           "--json"]),
)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name,argv", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_cli_output_matches_golden(name, argv):
    with open(os.path.join(GOLDEN, "exit_codes.json")) as fh:
        want_code = json.load(fh)[name]
    with open(os.path.join(GOLDEN, name + ".out"), newline="") as fh:
        want_out = fh.read()
    code, out = _run(argv)
    assert code == want_code
    assert out == want_out


def _regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    for name, argv in COMMANDS:
        code, out = _run(argv)
        codes[name] = code
        with open(os.path.join(GOLDEN, name + ".out"), "w", newline="") as fh:
            fh.write(out)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(_regenerate())
