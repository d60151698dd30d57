"""Catalogue of pinned instances: charts, potentials and expected values.

The catalogue is the set of JSON files under the package data directory,
one per name in INSTANCE_NAMES; the files are also the command line's
input format.  Each file records a chart, a potential and the expected
block: the verdict, spot values and residuals for one concrete structure.
Every frozen value was computed by an independent route (hand calculation,
a second formula, or a measured dual route), and the test suite checks the
files against the oracles in tests/oracles.py; the check runner here
recomputes everything with the library and reports mismatches.
"""

import json
import os
from fractions import Fraction

from .superpoly import parse_expr, to_text
from .poisson import bracket
from .charts import chart_from_json, chart_to_json, validate_chart
from . import complexes, courant, dirac, lifts

SCHEMA_VERSION = 1


class GalleryError(ValueError):
    pass


class Instance:
    """One chart with a potential, optional twist pencil, optional graph,
    optional lift request, and the expected block the checker consumes."""

    def __init__(self, name, chart, theta, expected, *, twist=None,
                 lambdas=(), graph=None, lift_k=None, l_elements=()):
        self.name = name
        self.chart = chart
        self.theta = theta
        self.expected = expected
        self.twist = twist
        self.lambdas = tuple(Fraction(l) for l in lambdas)
        self.graph = graph
        self.lift_k = lift_k
        self.l_elements = tuple(l_elements)

    def potential_at(self, lam):
        if self.twist is None:
            raise GalleryError("instance %s has no twist" % self.name)
        return self.theta + self.twist * Fraction(lam)

    @property
    def default_potential(self):
        """The potential the spot checks run against: the twist at its
        reference value 1 when a pencil is present, theta otherwise."""
        if self.twist is not None:
            return self.theta + self.twist
        return self.theta


# Listing order of ``gallery --list`` and of run_all's rows.  Adding an
# instance means adding its data file and its name here.
INSTANCE_NAMES = (
    "cross3",
    "cross7",
    "cross7_full",
    "twisted_pencil",
    "twisted_pencil_closed",
    "bialgebroid",
    "action_algebra",
    "skew_cotangent",
    "rflux",
    "quasi_poisson",
    "euclidean_cubic",
    "hyperbolic_cubic",
    "nearly_witness",
    "vb_plain",
    "vb_twist",
    "vb_dirac",
)


def names():
    return list(INSTANCE_NAMES)


def build(name):
    """The catalogue instance of that name, loaded from its data file."""
    if name not in INSTANCE_NAMES:
        raise GalleryError("unknown instance %r; known: %s"
                           % (name, ", ".join(INSTANCE_NAMES)))
    return load_instance(data_path(name))


# -- checking ---------------------------------------------------------------

def _spot_result(inst, spot):
    chart = inst.chart
    args = [parse_expr(chart, a) for a in spot["args"]]
    op = spot["op"]
    T = inst.default_potential
    if op == "poisson":
        return bracket(args[0], args[1])
    if op == "nested_poisson":
        return bracket(bracket(args[0], args[1]), args[2])
    if op == "potential_nest":
        return bracket(T, bracket(T, args[0]))
    if op == "pre_bracket":
        return courant.pre_bracket(T, args[0], args[1])
    if op == "anchor":
        return courant.anchor_apply(T, args[0], args[1])
    if op == "pairing":
        return courant.pairing(args[0], args[1])
    if op == "jacobiator":
        return courant.jacobiator(T, args[0], args[1], args[2])
    raise GalleryError("unknown spot op %r" % op)


def _spot_text(spot):
    return "%s(%s)" % (spot["op"], ", ".join(spot["args"]))


def check_instance(inst):
    """Run every expected-value assertion of one instance; returns a list
    of failure descriptions, empty when all hold."""
    failures = []
    chart = inst.chart
    expected = inst.expected
    report = validate_chart(chart)
    failures.extend("chart: " + p for p in report.problems)

    def check_verdict(P, want, label):
        try:
            courant.validate_potential(P)
        except courant.PotentialError as e:
            failures.append("%s: %s" % (label, e))
            return
        got = courant.classify(P)
        if got.verdict != want:
            failures.append("%s: verdict %s, expected %s"
                            % (label, got.verdict, want))
        return got

    if inst.twist is not None:
        verdicts = expected.get("verdicts", {})
        for lam in inst.lambdas:
            want = verdicts.get(str(lam))
            if want is None:
                failures.append("no expected verdict for lambda %s" % lam)
                continue
            P = inst.potential_at(lam)
            check_verdict(P, want, "lambda %s" % lam)
            factor = expected.get("twist_sigma_factor")
            if factor is not None:
                lhs = bracket(P, P)
                rhs = bracket(inst.theta, inst.twist) * (Fraction(factor)
                                                         * lam)
                if lhs != rhs:
                    failures.append(
                        "lambda %s: {T,T} != %s*lambda*{theta,twist}"
                        % (lam, factor))
    else:
        check_verdict(inst.theta, expected["verdict"], "potential")

    sc = courant.classify(inst.default_potential)
    if expected.get("pre_courant") is not None:
        if sc.is_pre_courant != expected["pre_courant"]:
            failures.append("pre-Courant property is %s, expected %s"
                            % (sc.is_pre_courant, expected["pre_courant"]))
    if expected.get("witness_nonzero"):
        if sc.witness_value is None or sc.witness_value.is_zero:
            failures.append("expected a nonzero classification witness")
        want_name = expected.get("witness_name")
        if want_name is not None and sc.witness_name != want_name:
            failures.append("witness is %r, expected %r"
                            % (sc.witness_name, want_name))

    for spot in expected.get("spots", ()):
        got = _spot_result(inst, spot)
        want = parse_expr(chart, spot["value"])
        if got != want:
            failures.append("%s: got %s, expected %s"
                            % (_spot_text(spot), to_text(got), spot["value"]))

    if inst.graph is not None and "dirac" in expected:
        want = expected["dirac"]
        iso = dirac.is_isotropic(inst.graph)
        if iso != want.get("isotropic", True):
            failures.append("graph isotropy is %s, expected %s"
                            % (iso, want.get("isotropic", True)))
        T = inst.default_potential
        if chart.lift_degree is not None:
            residual = lifts.weighted_dirac_check(T, inst.graph)
        else:
            residual = dirac.tangency_residual(T, inst.graph)
        if "residual" in want:
            if residual != parse_expr(chart, want["residual"]):
                failures.append("graph residual %s, expected %s"
                                % (to_text(residual), want["residual"]))
        if want.get("residual_zero") is not None:
            if residual.is_zero != want["residual_zero"]:
                failures.append("graph residual zero is %s, expected %s"
                                % (residual.is_zero, want["residual_zero"]))

    if "cohomology_point" in expected:
        got = complexes.cohomology_point(inst.default_potential)
        if list(got) != list(expected["cohomology_point"]):
            failures.append("point cohomology %s, expected %s"
                            % (list(got), expected["cohomology_point"]))
    if "naive_condition" in expected:
        got = complexes.naive_cohomology_condition(inst.default_potential)
        if got != expected["naive_condition"]:
            failures.append("naive cohomology condition %s, expected %s"
                            % (got, expected["naive_condition"]))

    for el in inst.l_elements:
        if not complexes.naive_membership(inst.default_potential, el):
            failures.append("element %s left the small complex"
                            % to_text(el))
        elif sc.is_pre_courant:
            image = complexes.q_theta(inst.default_potential, el)
            if not complexes.naive_membership(inst.default_potential, image):
                failures.append("differential of %s left the small complex"
                                % to_text(el))

    if inst.lift_k is not None and "lift_verdict" in expected:
        flat = lifts.flatten_chart(chart)
        Tf = lifts.flatten_poly(inst.default_potential, flat)
        Tc = lifts.complete_lift(Tf, inst.lift_k)
        got = courant.classify(Tc)
        if got.verdict != expected["lift_verdict"]:
            failures.append("lift verdict %s, expected %s"
                            % (got.verdict, expected["lift_verdict"]))
    return failures


def run_all():
    """Check every instance; the report lists per-instance failures."""
    rows = []
    ok = True
    for name in INSTANCE_NAMES:
        inst = build(name)
        failures = check_instance(inst)
        ok = ok and not failures
        rows.append({"name": name, "ok": not failures,
                     "failures": failures})
    return {"schema_version": SCHEMA_VERSION, "ok": ok, "instances": rows}


# -- serialization ----------------------------------------------------------

def instance_to_json(inst):
    d = {
        "schema_version": SCHEMA_VERSION,
        "name": inst.name,
        "chart": chart_to_json(inst.chart),
        "potential": to_text(inst.theta),
    }
    if inst.twist is not None:
        d["twist"] = {"expr": to_text(inst.twist),
                      "lambdas": [str(l) for l in inst.lambdas]}
    if inst.graph is not None:
        d["dirac"] = dirac.graph_to_json(inst.graph)
    if inst.lift_k is not None:
        d["lift"] = {"k": inst.lift_k}
    if inst.l_elements:
        d["l_elements"] = [to_text(e) for e in inst.l_elements]
    d["expected"] = inst.expected
    return d


def instance_from_json(d, *, strict=True):
    if d.get("schema_version") != SCHEMA_VERSION:
        raise GalleryError("unsupported schema version %r"
                           % (d.get("schema_version"),))
    chart = chart_from_json(d["chart"], strict=strict)
    theta = parse_expr(chart, d["potential"])
    twist = None
    lambdas = ()
    if "twist" in d:
        twist = parse_expr(chart, d["twist"]["expr"])
        lambdas = tuple(Fraction(l) for l in d["twist"]["lambdas"])
    graph = None
    if "dirac" in d:
        graph = dirac.graph_from_json(chart, d["dirac"])
    lift_k = d.get("lift", {}).get("k")
    l_elements = [parse_expr(chart, e) for e in d.get("l_elements", ())]
    return Instance(d["name"], chart, theta, d.get("expected", {}),
                    twist=twist, lambdas=lambdas, graph=graph,
                    lift_k=lift_k, l_elements=l_elements)


def canonical_json(obj):
    """Byte-stable rendering: sorted keys, compact separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def data_dir():
    return os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(data_dir(), name + ".json")


def load_instance(path, *, strict=True):
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(json.load(fh), strict=strict)
