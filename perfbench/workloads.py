"""The benchmark's workloads: set-up, op lists, timed calls and checks.

An op is one timed call into the package.  Each workload gives every op
three steps:

* ``prepare`` loads the op's inputs afresh from its instance file, outside
  the timed interval, so no chart object is shared between ops;
* ``call`` is the timed interval;
* ``check`` verifies the output by an independent route or by a property
  the method must have, outside the timed interval.

Package modules are looked up at call time (``self.mods["cli"].main``), so
the wrappers that the traced run installs on module attributes are seen.
"""

import contextlib
import glob
import importlib
import importlib.util
import io
import json
import os
import sys

MODULES = ("superpoly", "poisson", "charts", "courant", "complexes", "dirac",
           "lifts", "gallery", "linalg", "sampling", "cli")
CHECK_SLOTS = 3
CHECK_SAMPLES = 4
LIFT_DEGREES = (2, 3, 4, 5)

# Ops left out of every pass; README.md gives each reason and its cost.
LEFT_OUT = frozenset({
    ("differential", "cross7", 2),       # degree-3 element, 7-9 s
    ("differential", "cross7_full", 2),  # degree-3 element, 7-9 s
    ("lift", "quasi_poisson", 4),        # 7 s
    ("lift", "quasi_poisson", 5),        # about 92 s
    ("lift", "rflux", 5),                # about 21 s
})


class Package:
    """The package under test and the repository's test helpers, imported
    afresh: earlier imports are dropped from ``sys.modules`` first, so the
    import is paid again on every set-up."""

    def __init__(self, root):
        for name in list(sys.modules):
            if name == "superpoisson" or name.startswith("superpoisson."):
                del sys.modules[name]
        self.package = importlib.import_module("superpoisson")
        self.mods = {name: importlib.import_module("superpoisson." + name)
                     for name in MODULES}
        self.identities = _load_helper(root, "identities")
        self.oracles = _load_helper(root, "oracles")
        self.data_paths = sorted(glob.glob(
            os.path.join(root, "src", "superpoisson", "data", "*.json")))


def _load_helper(root, name):
    """tests/<name>.py loaded by path under a private module name, so no
    other ``tests`` package on the path can shadow it."""
    path = os.path.join(root, "tests", name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Op:
    __slots__ = ("instance", "path", "arg")

    def __init__(self, instance, path, arg):
        self.instance = instance
        self.path = path
        self.arg = arg

    @property
    def key(self):
        return "%s/%s" % (self.instance, self.arg)


class CheckWorkload:
    """``cli.main(["check", file, "--json", "--seed", s, ...])`` with stdout
    captured, on every instance and seed slot; every pass draws fresh
    seeds."""

    name = "check"

    def __init__(self, pkg, catalogue):
        self.mods = pkg.mods
        self.ops = [Op(name, path, slot)
                    for name, (path, _) in sorted(catalogue.items())
                    for slot in range(CHECK_SLOTS)]

    def prepare(self, op, rng):
        return ["check", op.path, "--json", "--seed",
                str(rng.randrange(1 << 30)), "--samples", str(CHECK_SAMPLES)]

    def call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.mods["cli"].main(argv)
        return code, buf.getvalue()

    def check(self, argv, out):
        """Exit code 0, payload ok and every identity row at the requested
        sample count; the identities are exact theorems."""
        code, text = out
        if code != 0:
            return False
        payload = json.loads(text)
        return (payload["ok"] is True and not payload["failures"]
                and payload["seed"] == int(argv[4])
                and len(payload["identities"]) == 4
                and all(row["ok"] is True and row["samples"] == CHECK_SAMPLES
                        for row in payload["identities"]))


class DifferentialWorkload:
    """``complexes.classical_naive_differential`` on every catalogue
    small-complex element, with the full weight-1 frame as basis."""

    name = "differential"

    def __init__(self, pkg, catalogue):
        self.mods = pkg.mods
        self.identities = pkg.identities
        self.ops = [Op(name, path, i)
                    for name, (path, inst) in sorted(catalogue.items())
                    for i in range(len(inst.l_elements))
                    if (self.name, name, i) not in LEFT_OUT]

    def prepare(self, op, rng):
        inst = self.mods["gallery"].load_instance(op.path)
        basis, dual = self.identities.weight_one_frame(inst.chart)
        return inst.default_potential, inst.l_elements[op.arg], basis, dual

    def call(self, inputs):
        return self.mods["complexes"].classical_naive_differential(*inputs)

    def check(self, inputs, out):
        """The alternating-sum formula and {theta, .} must agree."""
        theta, element = inputs[0], inputs[1]
        return out == self.mods["complexes"].q_theta(theta, element)


class LiftWorkload:
    """``lifts.complete_lift(T_flat, k)`` then ``courant.classify`` of the
    lift, for every single-axis-liftable instance and k = 2..5."""

    name = "lift"

    def __init__(self, pkg, catalogue):
        self.mods = pkg.mods
        self.oracles = pkg.oracles
        self.ops = [Op(name, path, k)
                    for name, (path, inst) in sorted(catalogue.items())
                    if inst.lift_k is not None
                    and inst.chart.lift_degree is None
                    for k in LIFT_DEGREES
                    if (self.name, name, k) not in LEFT_OUT]

    def prepare(self, op, rng):
        lifts = self.mods["lifts"]
        inst = self.mods["gallery"].load_instance(op.path)
        flat = lifts.flatten_chart(inst.chart)
        low = lifts.flatten_poly(inst.default_potential, flat)
        verdict = self.mods["courant"].classify(inst.default_potential).verdict
        return low, op.arg, verdict

    def call(self, inputs):
        low, k, _ = inputs
        lifted = self.mods["lifts"].complete_lift(low, k)
        return lifted, self.mods["courant"].classify(lifted).verdict

    def check(self, inputs, out):
        """{P^c, Q^c} = ({P, Q})^c forces the unlifted verdict; on
        symbol-free potentials the lift must also equal the coefficient of
        t^(k-1) along formal curves, a route independent of complete_lift."""
        low, k, want = inputs
        lifted, verdict = out
        if verdict != want:
            return False
        if low.symbol_names():
            return True
        return lifted == self.oracles.curve_lift_value(low, k, lifted.chart)


WORKLOADS = {w.name: w for w in (CheckWorkload, DifferentialWorkload,
                                 LiftWorkload)}


def setup(root, workload):
    """Import the package, load every instance file and build the
    workload's op list; this is what ``setup_s`` times."""
    pkg = Package(root)
    gallery = pkg.mods["gallery"]
    catalogue = {}
    for path in pkg.data_paths:
        inst = gallery.load_instance(path)
        catalogue[inst.name] = (path, inst)
    return pkg, WORKLOADS[workload](pkg, catalogue)
