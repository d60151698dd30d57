"""Per-layer tracing from outside the package.

Each traced function is wrapped wherever a ``superpoisson`` module holds
that function object (``bracket`` is bound in seven modules), and
``SuperPoly.__mul__`` / ``SuperPoly.__add__`` are wrapped on the class.
While an op runs, every wrapped call records its call count, its self time
(its duration minus the wrapped calls made inside it), the largest term
count of its output and, for the bracket layers, the distinct argument
tuples by ``to_text``.  The wrappers' own bookkeeping is charged to
neither the callee nor the caller.
"""

import time

# (layer, module, attribute); "SuperPoly.x" names a method on the class.
LAYERS = (
    ("superpoly.mul", "superpoly", "SuperPoly.__mul__"),
    ("superpoly.add", "superpoly", "SuperPoly.__add__"),
    ("superpoly.left_partial", "superpoly", "left_partial"),
    ("superpoly.parse_expr", "superpoly", "parse_expr"),
    ("superpoly.substitute", "superpoly", "substitute"),
    ("poisson.bracket", "poisson", "bracket"),
    ("courant.pre_bracket", "courant", "pre_bracket"),
    ("courant.anchor_apply", "courant", "anchor_apply"),
    ("courant.classify", "courant", "classify"),
    ("complexes.classical_naive_differential", "complexes",
     "classical_naive_differential"),
    ("complexes.naive_membership", "complexes", "naive_membership"),
    ("lifts.complete_lift", "lifts", "complete_lift"),
    ("lifts.lift_component", "lifts", "lift_component"),
    ("dirac.tangency_residual", "dirac", "tangency_residual"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("sampling.random_section", "sampling", "random_section"),
    ("gallery.check_instance", "gallery", "check_instance"),
    ("gallery.instance_from_json", "gallery", "instance_from_json"),
    ("charts.chart_from_json", "charts", "chart_from_json"),
    ("charts.validate_chart", "charts", "validate_chart"),
    ("cli.identity_sweep", "cli", "identity_sweep"),
    ("cli.main", "cli", "main"),
)
DISTINCT = frozenset({"poisson.bracket", "courant.pre_bracket"})
KEPT = "lifts.lift_component"


class LayerStat:
    __slots__ = ("calls", "self_s", "terms_max", "keys", "terms_in",
                 "terms_out")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.terms_max = 0
        self.keys = set()
        self.terms_in = 0
        self.terms_out = 0


class Tracer:
    """Install with ``install``, take one op's records with
    ``begin_op``/``end_op``, and restore the package with ``uninstall``.
    Outside an op the wrappers only forward the call."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.active = False
        self.stack = []
        self.stats = {}
        self._undo = []

    def install(self):
        mods = self.pkg.mods
        to_text = mods["superpoly"].to_text
        for layer, home, attr in LAYERS:
            if attr.startswith("SuperPoly."):
                cls = mods["superpoly"].SuperPoly
                original = cls.__dict__[attr.split(".", 1)[1]]
                wrapper = self._wrap(layer, original, to_text)
                holders = [cls]
            else:
                original = getattr(mods[home], attr)
                wrapper = self._wrap(layer, original, to_text)
                holders = list(mods.values()) + [self.pkg.package]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        self._undo.append((holder, name, original))

    def uninstall(self):
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo = []

    def begin_op(self):
        self.stats = {layer: LayerStat() for layer, _, _ in LAYERS}
        self.active = True

    def end_op(self):
        self.active = False
        return self.stats

    def exclude(self, seconds):
        """Charge time spent outside the program (a speed probe) to no
        layer."""
        if self.stack:
            self.stack[-1][0] += seconds

    def _wrap(self, layer, fn, to_text):
        tracer = self
        perf = time.perf_counter
        distinct = layer in DISTINCT
        kept = layer == KEPT

        def key_of(args):
            return tuple(to_text(a) if hasattr(a, "terms") else repr(a)
                         for a in args)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf()
            stat = tracer.stats[layer]
            if distinct:
                stat.keys.add(key_of(args))
            frame = [0.0]
            stack = tracer.stack
            stack.append(frame)
            t1 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t2 = perf()
                stack.pop()
                stat.calls += 1
                stat.self_s += (t2 - t1) - frame[0]
            terms = getattr(out, "terms", None)
            if terms is not None:
                if len(terms) > stat.terms_max:
                    stat.terms_max = len(terms)
                if kept:
                    stat.terms_in += len(args[0].terms)
                    stat.terms_out += len(terms)
            if stack:
                stack[-1][0] += perf() - t0
            return out

        return wrapper
