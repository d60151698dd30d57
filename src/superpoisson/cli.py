"""Command line front end.

check      run an instance's frozen expectations plus seeded identity sweeps
bracket    evaluate one bracket, anchor pairing or derived bracket
jacobiator derived-bracket Jacobiator with the master-equation cross check
lift       tangent lift an instance and classify the result
gallery    list or check the built-in catalogue

Instances are referred to by catalogue name or by a path to a serialized
instance file.  Exit codes: 0 all checks passed, 1 a check ran and failed,
2 the request was malformed (unknown name, parse error, bad lift degree).
"""

import argparse
import json
import os
import random
import sys

from . import complexes, courant, gallery, lifts, sampling
from .charts import validate_chart
from .courant import PotentialError
from .gallery import SCHEMA_VERSION
from .poisson import bracket
from .superpoly import ParseError, parse_expr, to_text

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


class ChartFailure(Exception):
    """The instance's chart failed validation; the message lists every
    problem, one per line."""


def _load_instance(ref):
    """A path to an instance file, or a catalogue name standing for its
    data file."""
    if os.path.isfile(ref):
        path = ref
    elif ref in gallery.INSTANCE_NAMES:
        path = gallery.data_path(ref)
    else:
        raise UsageError(
            "unknown instance %r: not a catalogue name and not a file; "
            "catalogue names are %s" % (ref, ", ".join(gallery.names())))
    try:
        return gallery.load_instance(path, strict=False)
    except OSError as e:
        raise UsageError("cannot read %s: %s" % (path, e.strerror))


def _load_valid_instance(ref):
    """_load_instance, refusing a chart that fails validation."""
    inst = _load_instance(ref)
    problems = validate_chart(inst.chart).problems
    if problems:
        raise ChartFailure("\n".join("chart: " + p for p in problems))
    return inst


def _emit(args, payload, lines):
    if args.json:
        sys.stdout.write(gallery.canonical_json(payload))
    else:
        for line in lines:
            print(line)


IDENTITIES = (
    ("bracket_symmetry",
     "[[s,p]] + (-1)^((s~+1)(p~+1))*[[p,s]] - (-1)^s~*{T,<s,p>}"),
    ("anchor_morphism",
     "rho(s)rho(p)f - (-1)^((s~+1)(p~+1))*rho(p)rho(s)f - rho([[s,p]])f"
     " - (1/2)*(-1)^(f~*(s~+p~)+p~)*{{{{T,T},f},s},p}"),
    ("jacobiator_master",
     "J(s,p,l) - (-1)^p~*(1/2)*{{{{T,T},s},p},l}"),
    ("contraction_commutator",
     "iota_f(Q a) + (-1)^f~*Q(iota_f a) - {{T,{T,f}},a}"),
)


def identity_sweep(inst, rng, samples):
    """Seeded random sweep of the four engine identities on one chart;
    every defect is identically zero, so a nonzero value names a bug."""
    T = inst.default_potential
    chart = inst.chart
    state = {name: {"name": name, "formula": formula, "samples": samples,
                    "ok": True}
             for name, formula in IDENTITIES}

    def record(name, value, inputs):
        row = state[name]
        if row["ok"] and not value.is_zero:
            row["ok"] = False
            row["witness"] = {"inputs": [to_text(x) for x in inputs],
                              "value": to_text(value)}

    for i in range(samples):
        s = sampling.random_section(chart, rng)
        p = sampling.random_section(chart, rng)
        l = sampling.random_section(chart, rng)
        f = sampling.random_base_function(chart, rng)
        record("bracket_symmetry", courant.symmetry_defect(T, s, p), (s, p))
        record("anchor_morphism", courant.anchor_defect(T, s, p, f),
               (s, p, f))
        direct = courant.jacobiator(T, s, p, l)
        master = courant.jacobiator_via_master(T, s, p, l)
        record("jacobiator_master", direct - master, (s, p, l))
        alpha = s if i % 2 else s * l
        record("contraction_commutator",
               complexes.naive_commutator_defect(T, f, alpha), (f, alpha))
    return [state[name] for name, _ in IDENTITIES]


def cmd_check(args):
    inst = _load_instance(args.instance)
    failures = gallery.check_instance(inst)
    rng = random.Random(args.seed)
    try:
        identities = identity_sweep(inst, rng, args.samples)
    except sampling.SamplingError as e:
        raise UsageError("cannot run the identity sweeps on %s: %s"
                         % (inst.name, e))
    ok = not failures and all(row["ok"] for row in identities)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "instance": inst.name,
        "ok": ok,
        "failures": failures,
        "identities": identities,
        "seed": args.seed,
        "samples": args.samples,
    }
    lines = ["instance %s: %s" % (inst.name, "ok" if ok else "FAILED")]
    for fail in failures:
        lines.append("  expected-value failure: %s" % fail)
    for row in identities:
        mark = "ok" if row["ok"] else "NONZERO"
        lines.append("  identity %s (%d samples): %s"
                     % (row["name"], row["samples"], mark))
        lines.append("    %s" % row["formula"])
        if not row["ok"]:
            lines.append("    witness value %s on inputs %s"
                         % (row["witness"]["value"],
                            ", ".join(row["witness"]["inputs"])))
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_bracket(args):
    inst = _load_valid_instance(args.instance)
    chart = inst.chart
    if args.pre is not None:
        op, (a, b) = "pre", args.pre
    elif args.poisson is not None:
        op, (a, b) = "poisson", args.poisson
    else:
        op, (a, b) = "pairing", args.pairing
    left = parse_expr(chart, a)
    right = parse_expr(chart, b)
    if op == "pre":
        value = courant.pre_bracket(inst.default_potential, left, right)
    elif op == "poisson":
        value = bracket(left, right)
    else:
        value = courant.pairing(left, right)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "bracket",
        "instance": inst.name,
        "op": op,
        "args": [a, b],
        "value": to_text(value),
    }
    _emit(args, payload, [to_text(value)])
    return EXIT_OK


def cmd_jacobiator(args):
    inst = _load_valid_instance(args.instance)
    chart = inst.chart
    T = inst.default_potential
    secs = [parse_expr(chart, a) for a in args.sections]
    direct = courant.jacobiator(T, *secs)
    master = courant.jacobiator_via_master(T, *secs)
    agrees = direct == master
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "jacobiator",
        "instance": inst.name,
        "args": list(args.sections),
        "value": to_text(direct),
        "master_route_agrees": agrees,
    }
    lines = [to_text(direct),
             "master route (-1)^p~*(1/2)*{{{{T,T},s},p},l}: %s"
             % ("agrees" if agrees else "DISAGREES: " + to_text(master))]
    _emit(args, payload, lines)
    return EXIT_OK if agrees else EXIT_FAILED


def cmd_lift(args):
    if args.degree < 2:
        raise UsageError("lift degree must be at least 2, got %d"
                         % args.degree)
    inst = _load_valid_instance(args.instance)
    try:
        flat = lifts.flatten_chart(inst.chart)
        low = lifts.flatten_poly(inst.default_potential, flat)
        lifted = lifts.complete_lift(low, args.degree)
    except lifts.LiftError as e:
        raise UsageError(str(e))
    verdict = courant.classify(lifted)
    out_name = "%s_lift%d" % (inst.name, args.degree)
    out_path = args.out or (out_name + ".json")
    doc = gallery.instance_to_json(gallery.Instance(
        out_name, lifted.chart, lifted, {"verdict": verdict.verdict}))
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(gallery.canonical_json(doc))
    except OSError as e:
        raise UsageError("cannot write %s: %s" % (out_path, e.strerror))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "lift",
        "instance": inst.name,
        "degree": args.degree,
        "verdict": verdict.verdict,
        "path": out_path,
    }
    _emit(args, payload,
          ["%s lifted to degree %d: %s" % (inst.name, args.degree,
                                           verdict.verdict),
           "written to %s" % out_path])
    return EXIT_OK


def cmd_gallery(args):
    if args.list:
        payload = {"schema_version": SCHEMA_VERSION, "command": "gallery",
                   "names": gallery.names()}
        _emit(args, payload, gallery.names())
        return EXIT_OK
    if args.name is not None:
        try:
            inst = gallery.build(args.name)
        except gallery.GalleryError as e:
            raise UsageError(str(e))
        failures = gallery.check_instance(inst)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "gallery",
            "instances": [{"name": inst.name, "ok": not failures,
                           "failures": failures}],
            "ok": not failures,
        }
        lines = ["%s: %s" % (inst.name, "ok" if not failures else "FAILED")]
        lines.extend("  " + f for f in failures)
        _emit(args, payload, lines)
        return EXIT_OK if not failures else EXIT_FAILED
    report = gallery.run_all()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "gallery",
        "instances": report["instances"],
        "ok": report["ok"],
    }
    lines = []
    for row in report["instances"]:
        lines.append("%-22s %s" % (row["name"],
                                   "ok" if row["ok"] else "FAILED"))
        lines.extend("  " + f for f in row["failures"])
    _emit(args, payload, lines)
    return EXIT_OK if report["ok"] else EXIT_FAILED


def positive_int(text):
    """argparse type for a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % text)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="superpoisson",
        description="Exact graded symplectic charts, derived brackets and "
                    "their classification checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="canonical JSON output")

    p = sub.add_parser("check", help="run an instance's checks")
    p.add_argument("instance")
    common(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized sweeps")
    p.add_argument("--samples", type=positive_int, default=4,
                   help="samples per randomized identity")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bracket", help="evaluate one bracket or pairing")
    p.add_argument("instance")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pre", nargs=2, metavar=("S", "P"),
                       help="derived bracket of two sections")
    group.add_argument("--poisson", nargs=2, metavar=("X", "Y"),
                       help="graded Poisson bracket")
    group.add_argument("--pairing", nargs=2, metavar=("S", "P"),
                       help="weight-1 pairing")
    common(p)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("jacobiator",
                       help="Jacobiator with master-equation cross check")
    p.add_argument("instance")
    p.add_argument("sections", nargs=3, metavar="SECTION")
    common(p)
    p.set_defaults(func=cmd_jacobiator)

    p = sub.add_parser("lift", help="tangent lift and classify")
    p.add_argument("instance")
    p.add_argument("-k", "--degree", type=int, required=True,
                   help="lift degree, at least 2")
    p.add_argument("-o", "--out", help="output instance file path")
    common(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("gallery", help="list or check the catalogue")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true", help="print names only")
    common(p)
    p.set_defaults(func=cmd_gallery)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except ChartFailure as e:
        print(e, file=sys.stderr)
        return EXIT_FAILED
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as e:
        print("parse error: line %d column %d: %s"
              % (e.lineno, e.colno, e.msg), file=sys.stderr)
        return EXIT_USAGE
    except gallery.GalleryError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except PotentialError as e:
        print("potential check failed: %s" % e, file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
