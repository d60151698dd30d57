"""Isotropic coordinate subbundles, Lagrangian graphs and tangency residuals.

A chart whose generators carry roles splits into a position sector (roles
"base" and "fibre") and a momentum sector (roles "momentum" and "cofibre").
A graded subbundle is described here by a substitution that expresses some
of the coordinates through the surviving ones:

* CoordinateSubbundle(chart, vanish): the named coordinates are set to 0.
* BivectorGraph(chart, field): the even weight-2 function ``field`` is
  built from the cofibre sector over the base; every fibre and momentum
  coordinate z is replaced by {field, z}.  The zero field gives the
  restriction that kills the fibre and momentum sectors.
* TwoFormGraph(chart, form): the even weight-2 function ``form`` is built
  from the fibre sector over the base; every momentum coordinate m with
  conjugate position z and pairing constant c = {m, z} is replaced by
  c times the left partial of the form by z.

``pullback`` applies the substitution to any polynomial and
``tangency_residual`` applies it to a potential; the residual is zero
precisely when the Hamiltonian vector field of the potential is tangent to
the subbundle, which makes it a sub-Dirac structure.

On a chart with a lift degree k the bivector field or two-form must have
lift weight k - 1, so that the substitution keeps every coordinate's
bi-weight; a graph that breaks this is refused when it is built.
"""

from .superpoly import left_partial, substitute, to_text
from .poisson import bracket
from .courant import validate_potential

POSITION_ROLES = ("base", "fibre")
MOMENTUM_ROLES = ("momentum", "cofibre")


class GraphError(ValueError):
    pass


def _require_roles(chart):
    if chart.roles is None:
        raise GraphError(
            "chart %s carries no sector roles; graphs need them" % chart.name)


def momentum_indices(chart):
    _require_roles(chart)
    return sorted(i for role in MOMENTUM_ROLES
                  for i in chart.role_indices(role))


def _check_sector_function(chart, value, odd_role, what):
    """value must be even, of symplectic weight 2, and use only odd
    generators of the given role plus even base-sector generators.

    On a chart with a lift degree k, value must also have lift weight
    k - 1.  That is the whole weight rule for the graph: the pairing joins
    lift weights adding up to k - 1, so every image of the substitution has
    the bi-weight of the coordinate it replaces exactly when value has
    lift weight k - 1."""
    if value.is_zero:
        return
    weight, parity = value.weight(), value.parity()
    if weight is None or parity is None:
        raise GraphError("%s must be homogeneous: %s" % (what, to_text(value)))
    if parity != 0:
        raise GraphError("%s must be even: %s" % (what, to_text(value)))
    if chart.symplectic_weight(weight) != 2:
        raise GraphError(
            "%s must have symplectic weight 2, got %d"
            % (what, chart.symplectic_weight(weight)))
    lift = chart.lift_weight(weight)
    if chart.lift_degree is not None and lift != chart.lift_degree - 1:
        raise GraphError(
            "%s on a degree-%d lifted chart must have lift weight %d, got %d"
            % (what, chart.lift_degree, chart.lift_degree - 1, lift))
    for key, _c in value.items():
        _scal, even, odd = key
        for idx, _e in even:
            if chart.roles.get(chart.generators[idx].name) != "base":
                raise GraphError(
                    "%s uses %s outside the base sector"
                    % (what, chart.generators[idx].name))
        for idx in odd:
            if chart.roles.get(chart.generators[idx].name) != odd_role:
                raise GraphError(
                    "%s uses %s outside the %s sector"
                    % (what, chart.generators[idx].name, odd_role))


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


class BivectorGraph:
    """Graph of an even weight-2 cofibre-sector function."""

    kind = "bivector"

    def __init__(self, chart, field):
        _require_roles(chart)
        self.chart = chart
        if field.chart is not chart:
            raise GraphError("field lives on the wrong chart")
        _check_sector_function(chart, field, "cofibre", "bivector field")
        self.field = field

    def substitution(self):
        chart = self.chart
        sub = {}
        for idx, g in enumerate(chart.generators):
            if chart.roles.get(g.name) in ("fibre", "momentum"):
                sub[g.name] = bracket(self.field, chart.gen(g.name))
        return sub


class TwoFormGraph:
    """Graph of an even weight-2 fibre-sector function."""

    kind = "twoform"

    def __init__(self, chart, form):
        _require_roles(chart)
        self.chart = chart
        if form.chart is not chart:
            raise GraphError("form lives on the wrong chart")
        _check_sector_function(chart, form, "fibre", "two-form")
        self.form = form

    def substitution(self):
        chart = self.chart
        sub = {}
        for idx in momentum_indices(chart):
            conj = chart.conjugates(idx)
            if len(conj) != 1:
                raise GraphError(
                    "momentum coordinate %s has %d conjugates, need exactly 1"
                    % (chart.generators[idx].name, len(conj)))
            zidx, c = conj[0]
            zname = chart.generators[zidx].name
            if chart.roles.get(zname) not in POSITION_ROLES:
                raise GraphError(
                    "conjugate of %s is %s, which is not a position "
                    "coordinate" % (chart.generators[idx].name, zname))
            sub[chart.generators[idx].name] = left_partial(self.form, zname) * c
        return sub


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
    alive = [i for i in graph.survivor_indices()
             if i in chart.section_indices]
    for i in alive:
        for j in alive:
            if chart.pairing.get((i, j), 0) != 0:
                return False
    return True


def graph_from_json(chart, data):
    """Build a graph from {"kind": ..., "expr" | "vanish": ...}."""
    kind = data.get("kind")
    if kind == "coords":
        return CoordinateSubbundle(chart, list(data.get("vanish", ())))
    if kind == "bivector":
        return BivectorGraph(chart, chart.parse(data["expr"]))
    if kind == "twoform":
        return TwoFormGraph(chart, chart.parse(data["expr"]))
    raise GraphError("unknown graph kind %r" % kind)


def graph_to_json(graph):
    if graph.kind == "coords":
        return {"kind": "coords", "vanish": list(graph.vanish)}
    if graph.kind == "bivector":
        return {"kind": "bivector", "expr": to_text(graph.field)}
    return {"kind": "twoform", "expr": to_text(graph.form)}
