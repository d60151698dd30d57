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

# Spot operations and the number of arguments each takes.
SPOT_ARITY = {"poisson": 2, "nested_poisson": 3, "potential_nest": 1,
              "pre_bracket": 2, "anchor": 2, "pairing": 2, "jacobiator": 3}


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
    if failures:
        return failures

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

    # Each distinct potential is classified once: the class carries {P, P}
    # as its sigma, and the default potential is the pencil at lambda = 1.
    sc = None
    if inst.twist is not None:
        verdicts = expected.get("verdicts", {})
        for lam in inst.lambdas:
            want = verdicts.get(str(lam))
            if want is None:
                failures.append("no expected verdict for lambda %s" % lam)
                continue
            P = inst.potential_at(lam)
            got = check_verdict(P, want, "lambda %s" % lam)
            if lam == 1:
                sc = got
            factor = expected.get("twist_sigma_factor")
            if factor is not None:
                lhs = got.sigma if got is not None else bracket(P, P)
                rhs = bracket(inst.theta, inst.twist) * (Fraction(factor)
                                                         * lam)
                if lhs != rhs:
                    failures.append(
                        "lambda %s: {T,T} != %s*lambda*{theta,twist}"
                        % (lam, factor))
    elif "verdict" not in expected:
        failures.append("no expected verdict for the potential")
    else:
        sc = check_verdict(inst.theta, expected["verdict"], "potential")

    if sc is None:
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
        got = [sum(h.values()) for h in
               complexes.point_cohomology(inst.default_potential)]
        if got != list(expected["cohomology_point"]):
            failures.append("point cohomology %s, expected %s"
                            % (got, expected["cohomology_point"]))
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


# -- file format ------------------------------------------------------------
#
# A spec is a type (str, int, bool), RATIONAL, a one-element list [item]
# for a list of items, a tuple for a list of fixed length, a dict for an
# object (a key ending in "?" is optional, other keys are ignored), or a
# function (value, path) that raises GalleryError itself.  A path is None
# at the top or (parent path, key or index); it is spelled out only when
# something is wrong.  Values that json.load made of exactly the type a
# spec names are passed without a call, which keeps loading cheap.

RATIONAL = "rational"


def _path_text(path):
    parts = []
    while path is not None:
        path, key = path
        parts.append("[%d]" % key if isinstance(key, int) else "." + key)
    return "".join(reversed(parts)).lstrip(".") or "$"


def _malformed(path, message):
    raise GalleryError("malformed instance: %s: %s"
                       % (_path_text(path), message))


def _got(value):
    text = json.dumps(value)
    return text if len(text) <= 40 else "a long " + type(value).__name__


def _check(value, spec, path):
    if isinstance(spec, type):
        if not isinstance(value, spec) or (
                spec is int and isinstance(value, bool)):
            _malformed(path, "expected %s, got %s"
                       % (_TYPE_WORDS[spec], _got(value)))
    elif spec is RATIONAL:
        try:
            ok = not isinstance(value, bool) and isinstance(
                value, (int, str)) and Fraction(value) is not None
        except (ValueError, ZeroDivisionError):
            ok = False
        if not ok:
            _malformed(path, "expected a rational like \"3/2\", got %s"
                       % _got(value))
    elif callable(spec):
        spec(value, path)
    elif isinstance(spec, list):
        if type(value) is not list:
            _check(value, list, path)
        sub = spec[0]
        for i, item in enumerate(value):
            if type(item) is not sub:
                _check(item, sub, (path, i))
    elif isinstance(spec, tuple):
        if not isinstance(value, list) or len(value) != len(spec):
            _malformed(path, "expected a list of %d entries, got %s"
                       % (len(spec), _got(value)))
        for i, (item, sub) in enumerate(zip(value, spec)):
            _check(item, sub, (path, i))
    else:
        if type(value) is not dict:
            _check(value, dict, path)
        for key, sub in spec.items():
            name = key.rstrip("?")
            if name in value:
                if type(value[name]) is not sub:
                    _check(value[name], sub, (path, name))
            elif not key.endswith("?"):
                _malformed((path, name), "missing")


_TYPE_WORDS = {str: "a string", int: "an integer", bool: "true or false",
               list: "a list", dict: "an object"}


def _nullable(spec):
    def check(value, path):
        if value is not None:
            _check(value, spec, path)
    return check


def _map_of(spec):
    def check(value, path):
        _check(value, dict, path)
        for key, item in value.items():
            _check(item, spec, (path, key))
    return check


def _one_of(*choices):
    def check(value, path):
        if value not in choices or isinstance(value, bool):
            _malformed(path, "expected one of %s, got %s"
                       % (", ".join(json.dumps(c) for c in choices),
                          _got(value)))
    return check


def _at_least(low):
    def check(value, path):
        _check(value, int, path)
        if value < low:
            _malformed(path, "expected an integer of at least %d, got %d"
                       % (low, value))
    return check


_GRAPH_KIND = {"kind": _one_of("coords", "bivector", "twoform")}
_GRAPH_BODY = {"coords": {"vanish?": [str]}, "bivector": {"expr": str},
               "twoform": {"expr": str}}


def _graph(value, path):
    _check(value, _GRAPH_KIND, path)
    _check(value, _GRAPH_BODY[value["kind"]], path)


_SPOT_SPEC = {"op": _one_of(*sorted(SPOT_ARITY)), "args": [str], "value": str}


def _spot(value, path):
    _check(value, _SPOT_SPEC, path)
    want = SPOT_ARITY[value["op"]]
    if len(value["args"]) != want:
        _malformed((path, "args"), "%s takes %d arguments, got %d"
                   % (value["op"], want, len(value["args"])))


_CHART_SPEC = {
    "name?": str,
    "axes": _at_least(1),
    "generators": [{"name": str,
                    "parity": _one_of("even", "odd", 0, 1),
                    "weight": [int]}],
    "pairing?": [(str, str, RATIONAL)],
    "metric?": _nullable({"generators": [str], "rows": [[RATIONAL]]}),
    "n_manifold?": bool,
    "symplectic_axes?": [int],
    "roles?": _nullable(_map_of(str)),
    "lift_degree?": _nullable(_at_least(2)),
}


def _chart(value, path):
    _check(value, _CHART_SPEC, path)
    axes = value["axes"]
    for i, g in enumerate(value["generators"]):
        if len(g["weight"]) != axes:
            _malformed((((path, "generators"), i), "weight"),
                       "expected %d entries, one per axis, got %d"
                       % (axes, len(g["weight"])))
    for i, a in enumerate(value.get("symplectic_axes", ())):
        if not 0 <= a < axes:
            _malformed(((path, "symplectic_axes"), i),
                       "axis %d out of range for %d axes" % (a, axes))


# The instance file format, checked before anything is built from a file.
# Only shapes and types are checked here; whether the chart is a valid
# graded symplectic chart is validate_chart's question.
INSTANCE_SPEC = {
    "name": str,
    "chart": _chart,
    "potential": str,
    "twist?": {"expr": str, "lambdas": [RATIONAL]},
    "dirac?": _graph,
    "lift?": {"k": _at_least(2)},
    "l_elements?": [str],
    "expected?": {
        "verdict?": str,
        "verdicts?": _map_of(str),
        "twist_sigma_factor?": _nullable(RATIONAL),
        "pre_courant?": _nullable(bool),
        "witness_nonzero?": bool,
        "witness_name?": _nullable(str),
        "spots?": [_spot],
        "dirac?": {"isotropic?": bool, "residual?": str,
                   "residual_zero?": _nullable(bool)},
        "cohomology_point?": [int],
        "naive_condition?": bool,
        "lift_verdict?": str,
    },
}


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
    _check(d, dict, None)
    if d.get("schema_version") != SCHEMA_VERSION:
        raise GalleryError("unsupported schema version %r"
                           % (d.get("schema_version"),))
    _check(d, INSTANCE_SPEC, None)
    chart = chart_from_json(d["chart"], strict=strict)
    theta = parse_expr(chart, d["potential"])
    twist = None
    lambdas = ()
    if "twist" in d:
        twist = parse_expr(chart, d["twist"]["expr"])
        lambdas = tuple(Fraction(l) for l in d["twist"]["lambdas"])
    graph = None
    if "dirac" in d:
        try:
            graph = dirac.graph_from_json(chart, d["dirac"])
        except dirac.GraphError as e:
            _malformed((None, "dirac"), str(e))
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
