"""Isotropic coordinate subbundles, Lagrangian graphs and tangency residuals.

A chart whose generators carry roles splits into a position sector (roles
"base" and "fibre") and a momentum sector (roles "momentum" and "cofibre").
A graded subbundle is described here by a substitution that expresses some
of the coordinates through the surviving ones:

* CoordinateSubbundle(chart, vanish): the named coordinates are set to 0.
* BivectorGraph(chart, F) and TwoFormGraph(chart, F): F is an even
  weight-2 function built over the base from the cofibre sector (a
  bivector field) or the fibre sector (a two-form).  Each fibre and
  momentum coordinate z goes to {F, z} along a bivector field, each
  momentum and cofibre coordinate z to -{F, z} along a two-form; the
  zero F gives the restriction that kills those sectors.

``pullback`` applies the substitution to any polynomial and
``tangency_residual`` applies it to a potential; the residual is zero
precisely when the Hamiltonian vector field of the potential is tangent to
the subbundle, which makes it a sub-Dirac structure.

On a chart with a lift degree k the bivector field or two-form must have
lift weight k - 1, so that the substitution keeps every coordinate's
bi-weight; a graph that breaks this is refused when it is built.
"""

from .superpoly import substitute, to_text
from .poisson import bracket
from .courant import validate_potential


class GraphError(ValueError):
    pass


class CoordinateSubbundle:
    """Subbundle given by setting the named coordinates to zero."""

    kind = "coords"

    def __init__(self, chart, vanish):
        self.chart = chart
        seen = []
        for name in vanish:
            if name not in chart.name_to_index:
                raise GraphError("unknown coordinate %r" % name)
            if name in seen:
                continue
            idx = chart.name_to_index[name]
            if idx in chart.base_indices:
                raise GraphError(
                    "vanishing the base coordinate %s would move the "
                    "support off the full base, which is not supported"
                    % name)
            seen.append(name)
        self.vanish = tuple(seen)

    def substitution(self):
        return {name: self.chart.zero() for name in self.vanish}

    def survivor_indices(self):
        dead = {self.chart.name_to_index[name] for name in self.vanish}
        return [i for i in range(len(self.chart.generators)) if i not in dead]


class _FunctionGraph:
    """Graph of an even weight-2 function F built from the odd_role sector
    over the base: each generator z of a replaced role goes to sign*{F, z}.

    F may use only odd generators of the odd_role sector and even base
    generators.  It is judged as a potential is, by Chart.term_grading:
    its terms share one grading, whatever their weight vectors, of
    symplectic weight 2 and, on a chart with a lift degree k, lift weight
    k - 1.  That is the whole weight rule for the graph: the pairing joins
    lift weights adding up to k - 1, so every image of the substitution
    has the bi-weight of the coordinate it replaces exactly when F has
    lift weight k - 1."""

    def __init__(self, chart, function):
        if chart.roles is None:
            raise GraphError(
                "chart %s carries no sector roles; graphs need them"
                % chart.name)
        what = self.what
        if function.chart is not chart:
            raise GraphError("%s lives on the wrong chart" % what)
        self.chart = chart
        self.function = function
        if function.is_zero:
            return
        gradings = {chart.term_grading(key) for key in function.terms}
        if len(gradings) > 1:
            raise GraphError(
                "%s must be homogeneous: %s" % (what, to_text(function)))
        if function.parity() != 0:
            raise GraphError("%s must be even: %s" % (what, to_text(function)))
        (sw, lift), = gradings
        if sw != 2:
            raise GraphError(
                "%s must have symplectic weight 2, got %d" % (what, sw))
        if chart.lift_degree is not None and lift != chart.lift_degree - 1:
            raise GraphError(
                "%s on a degree-%d lifted chart must have lift weight %d, "
                "got %d" % (what, chart.lift_degree, chart.lift_degree - 1,
                            lift))
        for (_scal, even, odd), _c in function.items():
            for idx in [i for i, _e in even] + list(odd):
                g = chart.generators[idx]
                role = self.odd_role if g.parity else "base"
                if chart.roles.get(g.name) != role:
                    raise GraphError("%s uses %s outside the %s sector"
                                     % (what, g.name, role))

    def substitution(self):
        chart = self.chart
        return {g.name: bracket(self.function, chart.gen(g.name)) * self.sign
                for g in chart.generators
                if chart.roles.get(g.name) in self.replaced}


class BivectorGraph(_FunctionGraph):
    """Graph of an even weight-2 cofibre-sector function."""

    kind = "bivector"
    what = "bivector field"
    odd_role = "cofibre"
    replaced = ("fibre", "momentum")
    sign = 1


class TwoFormGraph(_FunctionGraph):
    """Graph of an even weight-2 fibre-sector function; -{form, m} is
    c times the left partial of the form by z when {m, z} = c."""

    kind = "twoform"
    what = "two-form"
    odd_role = "fibre"
    replaced = ("momentum", "cofibre")
    sign = -1


def pullback(graph, P):
    """Apply the graph substitution to P."""
    if P.chart is not graph.chart:
        raise GraphError("polynomial lives on the wrong chart")
    return substitute(P, graph.substitution())


def tangency_residual(theta, graph):
    """Pullback of the potential; zero iff the graph is a sub-Dirac
    structure for theta."""
    validate_potential(theta)
    return pullback(graph, theta)


def is_isotropic(graph):
    """Whether all pairings among surviving weight-1 coordinates vanish.

    Graph kinds are isotropic by construction; for coordinate subbundles
    the surviving sector is inspected entry by entry."""
    if graph.kind != "coords":
        return True
    chart = graph.chart
    alive = set(graph.survivor_indices()).intersection(chart.section_indices)
    return not any(j in alive for i in alive
                   for j, _ in chart.pairing_rows.get(i, ()))


def graph_from_json(chart, data):
    """Build a graph from {"kind": ..., "expr" | "vanish": ...}."""
    kind = data.get("kind")
    if kind == "coords":
        return CoordinateSubbundle(chart, list(data.get("vanish", ())))
    for cls in (BivectorGraph, TwoFormGraph):
        if kind == cls.kind:
            return cls(chart, chart.parse(data["expr"]))
    raise GraphError("unknown graph kind %r" % kind)


def graph_to_json(graph):
    if graph.kind == "coords":
        return {"kind": "coords", "vanish": list(graph.vanish)}
    return {"kind": graph.kind, "expr": to_text(graph.function)}
