"""Command line front end.

check      run an instance's frozen expectations plus seeded identity sweeps
bracket    evaluate one bracket, anchor pairing or derived bracket
jacobiator derived-bracket Jacobiator with the master-equation cross check
lift       tangent lift an instance and classify the result
gallery    list or check the built-in catalogue

Instances are referred to by catalogue name or by a path to a serialized
instance file.  Exit codes: 0 all checks passed, 1 a check ran and failed
(bracket, jacobiator and lift refuse an instance whose chart or potential
fails validation this way, with the lines check lists for it), 2 the
request was malformed (unknown name, parse error, bad lift degree, a
section argument of mixed parity or of symplectic weight other than 1).
"""

import argparse
import functools
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


class InvalidInstance(Exception):
    """The instance's chart or default potential failed validation; the
    message holds the lines that check lists for it, one per line."""


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
        return gallery.load_instance(path)
    except OSError as e:
        raise UsageError("cannot read %s: %s" % (path, e.strerror))


def _load_valid_instance(ref):
    """_load_instance, refusing an instance whose chart or default
    potential fails validation with the failures check lists for it."""
    inst = _load_instance(ref)
    problems = ["chart: " + p for p in validate_chart(inst.chart)]
    if not problems:
        try:
            courant.validate_potential(inst.default_potential)
        except PotentialError as e:
            problems = ["potential: %s" % e]
    if problems:
        raise InvalidInstance("\n".join(problems))
    return inst


def _emit(args, payload, lines):
    """The payload, stamped with the schema version and the command, as
    canonical JSON under --json; the text lines otherwise."""
    if args.json:
        sys.stdout.write(gallery.canonical_json(
            dict(payload, schema_version=SCHEMA_VERSION,
                 command=args.command)))
    else:
        for line in lines:
            print(line)


def _sections(chart, texts):
    """The section arguments, parsed.  A section has homogeneous parity
    and symplectic weight 1 in every term (zero included); an argument
    that does not is a malformed request rather than a failed check."""
    sections = [parse_expr(chart, text) for text in texts]
    for text, s in zip(texts, sections):
        if not s.is_zero and s.parity() is None:
            raise UsageError("section %s must have homogeneous parity"
                             % text)
        if any(chart.term_grading(key)[0] != 1 for key in s.terms):
            raise UsageError("section %s must have symplectic weight 1"
                             % text)
    return sections


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


def identity_sweep(inst, tt, rng, samples):
    """Seeded random sweep of the four engine identities on one chart;
    every defect is identically zero, so a nonzero value names a bug.
    tt is {T, T} of the default potential T.

    Each row runs on integer multiples of the sample's draws: s, p, l and
    f are each scaled by the lcm of their coefficient denominators before
    any bracket, so no Fraction enters a bracket through them.  The rng
    stream and the draws are those of the unscaled sweep.  Every row is a
    sum of bracket chains linear in each of its inputs (alpha is s or
    s*l), so on the multiples it is a positive integer times the row on
    the draws, and zero exactly when that is.  A failing row's witness
    lists the inputs it was evaluated on, the multiples, and its value on
    them.

    Per sample the anchor vectors of s and p, [[s, p]] and its anchor
    vector are computed once, in one courant.SectionPair that the
    symmetry, anchor-morphism and direct Jacobiator defects share; the
    other side of each identity comes from a different formula ({T, <s,p>}
    and [[p, s]], the closed form on tt, the master form on tt).  When
    alpha is s, {T, alpha} is read off the anchor vector of s."""
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
        draws = (sampling.random_section(chart, rng),
                 sampling.random_section(chart, rng),
                 sampling.random_section(chart, rng),
                 sampling.random_base_function(chart, rng))
        s, p, l, f = map(sampling.integral_multiple, draws)
        pair = courant.section_pair(T, s, p)
        record("bracket_symmetry", courant.symmetry_defect(pair), (s, p))
        record("anchor_morphism", courant.anchor_defect(pair, tt, f),
               (s, p, f))
        direct = courant.jacobiator(pair, l)
        master = courant.jacobiator_via_master(tt, s, p, l)
        record("jacobiator_master", direct - master, (s, p, l))
        if i % 2:
            # {T, s} = (-1)^s~ rho_s
            alpha = s
            d_alpha = pair.rho_sigma * (-1 if pair.parities[0] else 1)
        else:
            alpha = s * l
            d_alpha = complexes.q_theta(T, alpha)
        record("contraction_commutator",
               complexes.naive_commutator_defect(T, f, alpha, d_alpha),
               (f, alpha))
    return [state[name] for name, _ in IDENTITIES]


def cmd_check(args):
    inst = _load_instance(args.instance)
    failures, sc = gallery.check_instance(inst)
    # The sweeps need a valid chart and potential; on an invalid one the
    # problems that check_instance reported are the answer.
    identities = []
    if sc is not None:
        identities = identity_sweep(inst, sc.sigma, random.Random(args.seed),
                                    args.samples)
    ok = not failures and all(row["ok"] for row in identities)
    payload = {
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
    if op == "poisson":
        value = bracket(parse_expr(chart, a), parse_expr(chart, b))
    else:
        left, right = _sections(chart, (a, b))
        if op == "pre":
            value = courant.pre_bracket(inst.default_potential, left, right)
        else:
            value = courant.pairing(left, right)
    payload = {
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
    secs = _sections(chart, args.sections)
    direct = courant.jacobiator(courant.section_pair(T, secs[0], secs[1]),
                                secs[2])
    master = courant.jacobiator_via_master(bracket(T, T), *secs)
    agrees = direct == master
    payload = {
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
    inst = _load_valid_instance(args.instance)
    lifted = lifts.complete_lift(inst.default_potential, args.degree)
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
        _emit(args, {"names": gallery.names()}, gallery.names())
        return EXIT_OK
    if args.name is not None:
        row = gallery.check_row(gallery.build(args.name))
        lines = ["%s: %s" % (row["name"], "ok" if row["ok"] else "FAILED")]
        lines.extend("  " + f for f in row["failures"])
        _emit(args, {"instances": [row], "ok": row["ok"]}, lines)
        return EXIT_OK if row["ok"] else EXIT_FAILED
    report = gallery.run_all()
    lines = []
    for row in report["instances"]:
        lines.append("%-22s %s" % (row["name"],
                                   "ok" if row["ok"] else "FAILED"))
        lines.extend("  " + f for f in row["failures"])
    _emit(args, report, lines)
    return EXIT_OK if report["ok"] else EXIT_FAILED


def positive_int(text):
    """argparse type for a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % text)
    return value


@functools.lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built on the first call and reused by
    every later main() in the process: parsing leaves no state in it, each
    call returns a fresh namespace.  It is not built at import."""
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
    except (UsageError, gallery.GalleryError, lifts.LiftError,
            sampling.SamplingError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except InvalidInstance as e:
        print(e, file=sys.stderr)
        return EXIT_FAILED
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except PotentialError as e:
        print("potential check failed: %s" % e, file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
