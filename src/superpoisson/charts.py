"""Graded symplectic charts: generators, constant pairing, validation, JSON.

A Chart is an ordered list of graded generators together with the constant
symplectic pairing data {g, h} = P^gh (conjugate pairs and, on metric
charts, the odd metric block).  The pairing seeds are kept as given in
Chart.pairing_given, a coefficient other than an int or a Fraction read as
a Fraction; the pairing itself is stored completed to graded antisymmetry
P^gh = -(-1)^(g~ h~) P^hg in Chart.pairing_rows, one sorted row of
(partner, coefficient) per generator with each coefficient integer-first.
Every structural invariant the bracket engine relies on (weight
compatibility, parity compatibility, nondegeneracy over the rationals) is
checked here, not in the engine.  Nondegeneracy is checked by one exact
rank of the sparse pairing rows.

The grading is decided here and nowhere else: Chart.symplectic_weight and
Chart.lift_weight sum a weight vector over the symplectic axes and over
the others (the lift axis of a lifted chart).  A generator's grading, the
pair (symplectic weight, lift weight), is summed on construction, once for
each distinct weight vector, and stored in Chart.gradings;
Chart.term_grading(key) adds up the stored gradings of a term's factors,
so no caller sums a weight vector per term: potentials, graph functions,
lift inputs and differential elements are judged by it alone, and no
element method sums a weight vector.  The sectors are read off the
gradings: base_indices (symplectic weight 0), section_indices (weight 1)
and true_base_indices (even, weight 0 on every axis).  The structural
checks read those stored values and the pairing rows.

Every chart, loaded, flattened or lifted, is built and checked by the same
constructor, and every lift and flattening builds a new chart, so the
checks are written for speed: a generator name is tried against the ASCII
identifier pattern before the parser's rule, a duplicate name is one whose
name_to_index entry is an earlier generator, and the rank over the pairing
rows clears no denominators when the pairing is integral.
"""

from fractions import Fraction
from operator import add

from .superpoly import (EVEN, ODD, Generator, SuperPoly, _name_end, _norm,
                        parse_expr)
from . import linalg

ROLES = ("base", "fibre", "momentum", "cofibre")


class ChartError(ValueError):
    pass


class Chart:
    """Chart data plus completed pairing; construction validates by default.

    generators: list of (name, parity, weight) with parity 0/1 and weight a
    tuple of non-negative ints, one entry per axis.
    pairing: list of (gname, hname, coefficient) seed entries; the graded
    antisymmetric completion is computed, and giving both orientations is
    allowed only when they are consistent.
    symplectic_axes: the axes whose weight sum is the symplectic weight
    (defaults to all axes).  The symplectic form has weight 2 there.
    """

    def __init__(self, name, axes, generators, pairing, *, metric=None,
                 n_manifold=False, symplectic_axes=None, roles=None,
                 lift_degree=None, strict=True):
        self.name = name
        self.axes = int(axes)
        self.generators = [Generator(gname, parity, weight, i) for i, (
            gname, parity, weight) in enumerate(generators)]
        self.name_to_index = index = {}
        for g in self.generators:
            index.setdefault(g.name, g.index)
        self.pairing_given = [(g, h, c if type(c) in (int, Fraction)
                               else Fraction(c)) for g, h, c in pairing]
        self.metric = None
        if metric is not None:
            mnames, rows = metric
            self.metric = (tuple(mnames),
                           tuple(tuple(Fraction(x) for x in row)
                                 for row in rows))
        self.n_manifold = bool(n_manifold)
        if symplectic_axes is None:
            symplectic_axes = tuple(range(self.axes))
        self.symplectic_axes = tuple(int(a) for a in symplectic_axes)
        self.roles = None
        if roles is not None:
            self.roles = dict(zip(map(str, roles), map(str, roles.values())))
        self.lift_degree = lift_degree

        self._problems = []
        pairing = self._complete_pairing()
        # The sectors are read off the weight vectors, which a chart with a
        # shape problem cannot sum; its shape problems are the answer.
        shape = _shape_problems(self)
        if shape:
            self._problems.extend(shape)
        else:
            self._index_sectors(pairing)
            self._problems.extend(_structural_problems(self))
        if strict:
            _refuse_invalid(self)

    # -- construction helpers -------------------------------------------

    def _complete_pairing(self):
        """The seeds completed to graded antisymmetry, as one dict
        {(gi, hj): coefficient} with each coefficient integer-first."""
        index, gens, pairing = self.name_to_index, self.generators, {}
        for gname, hname, c in self.pairing_given:
            gi = index.get(gname)
            hj = index.get(hname)
            if gi is None or hj is None:
                self._problems.append(
                    "pairing entry (%s, %s) names an unknown generator"
                    % (gname, hname))
                continue
            if not c:
                continue
            c = _norm(c)
            g = gens[gi]
            if gi == hj:
                if g.parity == EVEN:
                    self._problems.append(
                        "even generator %s cannot pair with itself" % g.name)
                    continue
                if (gi, hj) in pairing and pairing[gi, hj] != c:
                    self._problems.append(
                        "conflicting self-pairing for %s" % g.name)
                    continue
                pairing[gi, hj] = c
                continue
            # Both orientations are stored together, so a seed against
            # graded antisymmetry meets its mirror here as a conflict.
            if (gi, hj) in pairing:
                if pairing[gi, hj] != c:
                    self._problems.append(
                        "pairing entries for (%s, %s) conflict: %s vs %s"
                        % (gname, hname, pairing[gi, hj], c))
                continue
            pairing[gi, hj] = c
            # graded antisymmetry: P^hg = -(-1)^(g~ h~) P^gh
            pairing[hj, gi] = c if g.parity and gens[hj].parity else -c
        return pairing

    def _index_sectors(self, pairing):
        """Each generator's grading, summed once for each distinct weight
        vector, the sectors read off the gradings, and the pairing rows:
        the completed pairing, sorted."""
        gradings, base, section, true_base = [], [], [], []
        by_weight = {}
        for g in self.generators:
            grading = by_weight.get(g.weight)
            if grading is None:
                grading = by_weight[g.weight] = (
                    self.symplectic_weight(g.weight),
                    self.lift_weight(g.weight))
            gradings.append(grading)
            if grading[0] == 0:
                base.append(g.index)
            elif grading[0] == 1:
                section.append(g.index)
            if g.is_true_base:
                true_base.append(g.index)
        self.gradings = tuple(gradings)
        self.base_indices = tuple(base)
        self.section_indices = tuple(section)
        self.true_base_indices = tuple(true_base)
        rows = {}
        for (gi, hj), c in sorted(pairing.items()):
            rows.setdefault(gi, []).append((hj, c))
        self.pairing_rows = {gi: tuple(row) for gi, row in rows.items()}

    # -- lookups ---------------------------------------------------------

    def generator(self, name):
        return self.generators[self.name_to_index[name]]

    def symplectic_weight(self, weight):
        """The entries of a weight vector on the symplectic axes, summed."""
        return sum(map(weight.__getitem__, self.symplectic_axes))

    def lift_weight(self, weight):
        """The entries of a weight vector on the other axes, summed: the
        lift weight on a lifted chart, 0 where every axis is symplectic."""
        return sum(weight) - self.symplectic_weight(weight)

    def term_grading(self, key):
        """(symplectic weight, lift weight) of the term key of an element
        on this chart: the stored gradings of its factors, summed."""
        gradings = self.gradings
        sw = lw = 0
        for idx, e in key[1]:
            s, l = gradings[idx]
            sw += e * s
            lw += e * l
        for idx in key[2]:
            s, l = gradings[idx]
            sw += s
            lw += l
        return sw, lw

    # -- element factories ----------------------------------------------

    def zero(self):
        return SuperPoly(self, {})

    def one(self):
        return SuperPoly.constant(self, 1)

    def gen(self, name):
        return SuperPoly.generator_monomial(self, self.generator(name))

    def symbol(self, name, jets=()):
        jets = tuple(self.generator(j).index if isinstance(j, str) else j
                     for j in jets)
        return SuperPoly.symbol(self, name, jets)

    def parse(self, text):
        return parse_expr(self, text)

    def __repr__(self):
        return "Chart(%r, %d generators)" % (self.name, len(self.generators))


def _shape_problems(chart):
    """A missing axis, a symplectic axis out of range, a parity other than
    0/1, or a weight vector that is not one int per axis: the problems
    that leave a generator's grading unreadable."""
    if chart.axes < 1:
        return ["a chart needs at least one weight axis"]
    problems = ["symplectic axis %d out of range" % a
                for a in chart.symplectic_axes if not 0 <= a < chart.axes]
    ints = {type(w) for g in chart.generators for w in g.weight} <= {int}
    for g in chart.generators:
        if g.parity not in (EVEN, ODD):
            problems.append("generator %s has parity %r, not 0 or 1"
                            % (g.name, g.parity))
        if len(g.weight) != chart.axes:
            problems.append(
                "generator %s has %d weight entries, chart has %d axes"
                % (g.name, len(g.weight), chart.axes))
        elif not ints and any(type(w) is not int for w in g.weight):
            problems.append("generator %s has weight %r; its entries must be "
                            "ints" % (g.name, g.weight))
    return problems


def _structural_problems(chart):
    """The problems of a chart whose weights are readable, in the order of
    the checks.  It reads the gradings and the pairing rows _index_sectors
    stored; the rows list the pairing in sorted order."""
    problems = []
    if not chart.symplectic_axes:
        problems.append("symplectic_axes must be non-empty")
    gens = chart.generators

    # One pass over the generators; the N-manifold rule is reported after
    # the pairing's problems.  A name that is not an ASCII identifier is
    # read by _name_end, the parser's rule, and a name is a duplicate when
    # name_to_index, which keeps the first of each name, points elsewhere.
    index, n_manifold = chart.name_to_index, chart.n_manifold
    broken = []
    for g, (sw, _) in zip(gens, chart.gradings):
        name = g.name
        if not (name.isascii() and name.isidentifier()
                or name and _name_end(name, 0) == len(name)):
            problems.append("generator name %r is not an identifier" % name)
        if index[name] != g.index:
            problems.append("duplicate generator name %r" % name)
        if min(g.weight) < 0:
            problems.append("generator %s has a negative weight" % name)
        if n_manifold and g.parity != sw % 2:
            broken.append(
                "N-manifold rule broken: %s has parity %d but symplectic "
                "weight %d" % (name, g.parity, sw))

    pair_weight = None
    for gi, row in chart.pairing_rows.items():
        g = gens[gi]
        for hj, _ in row:
            h = gens[hj]
            if g.parity != h.parity:
                problems.append(
                    "pairing {%s,%s} joins different parities (a nonzero "
                    "constant bracket is even)" % (g.name, h.name))
            w = tuple(map(add, g.weight, h.weight))
            if pair_weight is None:
                pair_weight = w
            elif w != pair_weight:
                problems.append(
                    "pairing {%s,%s} has weight %r, other pairs have %r"
                    % (g.name, h.name, w, pair_weight))
    if pair_weight is None:
        problems.append("chart has an empty pairing")
    elif chart.symplectic_weight(pair_weight) != 2:
        problems.append(
            "conjugate weights sum to %r; the symplectic form must have "
            "symplectic weight 2" % (pair_weight,))
    elif (chart.lift_degree is not None
          and chart.lift_weight(pair_weight) != chart.lift_degree - 1):
        problems.append(
            "conjugate weights sum to %r; on a degree-%d lifted chart the "
            "symplectic form must have lift weight %d"
            % (pair_weight, chart.lift_degree, chart.lift_degree - 1))

    if pair_weight is not None and (linalg.rank(chart.pairing_rows.values())
                                    < len(chart.generators)):
        problems.append("pairing matrix is degenerate over the rationals")

    problems.extend(broken)

    if chart.metric is not None:
        mnames, rows = chart.metric
        r = len(mnames)
        if any(len(row) != r for row in rows) or len(rows) != r:
            problems.append("metric block is not square")
        else:
            for name in mnames:
                if name not in chart.name_to_index:
                    problems.append("metric names unknown generator %r" % name)
            if all(name in chart.name_to_index for name in mnames):
                idxs = [chart.name_to_index[m] for m in mnames]
                if any(rows[a][b] != rows[b][a]
                       for a in range(r) for b in range(a)):
                    problems.append("metric block is not symmetric")
                for a in range(r):
                    if chart.generators[idxs[a]].parity != ODD:
                        problems.append(
                            "metric generator %s is not odd" % mnames[a])
                    row = dict(chart.pairing_rows.get(idxs[a], ()))
                    for b in range(r):
                        got = row.get(idxs[b], 0)
                        if got != rows[a][b]:
                            problems.append(
                                "pairing {%s,%s} = %s disagrees with the "
                                "metric entry %s"
                                % (mnames[a], mnames[b], got, rows[a][b]))
                if linalg.rank([enumerate(row) for row in rows]) < r:
                    problems.append("metric block is singular")

    roles = chart.roles
    if roles is not None:
        pairing_rows = chart.pairing_rows
        for name, role in sorted(roles.items()):
            idx = index.get(name)
            if idx is None:
                problems.append("role for unknown generator %r" % name)
                continue
            if role not in ROLES:
                problems.append("unknown role %r for %s" % (role, name))
                continue
            if role == "base" and chart.gradings[idx][0] != 0:
                problems.append(
                    "generator %s has role base but nonzero symplectic "
                    "weight" % name)
            if role in ("momentum", "cofibre"):
                want = ("base", "fibre") if role == "momentum" else ("fibre",)
                for hj, _ in pairing_rows.get(idx, ()):
                    if roles.get(gens[hj].name) in want:
                        break
                else:
                    problems.append(
                        "generator %s has role %s but no conjugate with "
                        "role in %r" % (name, role, want))
    return problems


def _refuse_invalid(chart):
    """Raise ChartError naming every problem of the chart, if it has any."""
    if chart._problems:
        raise ChartError("invalid chart %r: %s"
                         % (chart.name, "; ".join(chart._problems)))


def validate_chart(chart):
    """Every structural problem of the chart, as a list of messages.

    A chart is never changed after construction, so the problems its
    constructor found are the whole answer; nothing is checked again.
    """
    return list(chart._problems)


# -- constructors -------------------------------------------------------


def identity_metric(rank):
    return [[Fraction(1 if i == j else 0) for j in range(rank)]
            for i in range(rank)]


def hyperbolic_metric(half_rank):
    """Off-diagonal identity blocks: <xi^i, xi^(r+j)> = delta."""
    r = 2 * half_rank
    rows = [[Fraction(0)] * r for _ in range(r)]
    for i in range(half_rank):
        rows[i][half_rank + i] = Fraction(1)
        rows[half_rank + i][i] = Fraction(1)
    return rows


def make_darboux_chart(base_dim, rank, metric=None):
    """Affine Darboux chart: x^a (weight 0), p_a (weight 2), xi^i (weight 1)
    with {p_a, x^b} = delta and {xi^i, xi^j} = g^ij."""
    if metric is None:
        metric = identity_metric(rank)
    odd_names = ["xi%d" % (i + 1) for i in range(rank)]
    gens = []
    for a in range(base_dim):
        gens.append(("x%d" % (a + 1), EVEN, (0,)))
    for a in range(base_dim):
        gens.append(("p%d" % (a + 1), EVEN, (2,)))
    for i in range(rank):
        gens.append((odd_names[i], ODD, (1,)))
    pairing = []
    for a in range(base_dim):
        pairing.append(("p%d" % (a + 1), "x%d" % (a + 1), Fraction(1)))
    for i in range(rank):
        for j in range(i, rank):
            c = Fraction(metric[i][j])
            if c:
                pairing.append((odd_names[i], odd_names[j], c))
    roles = {}
    for a in range(base_dim):
        roles["x%d" % (a + 1)] = "base"
        roles["p%d" % (a + 1)] = "momentum"
    for i in range(rank):
        roles[odd_names[i]] = "fibre"
    return Chart("darboux(%d|%d)" % (base_dim, rank), 1, gens,
                 pairing, metric=(odd_names, metric), n_manifold=True,
                 symplectic_axes=(0,), roles=roles)


def make_cotangent_antivb_chart(base_dim, fibre_rank):
    """Chart of the cotangent of a parity-shifted vector bundle: x^a (0,0)
    even, xi^i (1,0) odd, p_a (1,1) even, pi_i (0,1) odd, with {p_a, x^b} =
    delta and {xi^i, pi_j} = delta.  Symplectic weight is the total weight."""
    base_names = ["x%d" % (a + 1) for a in range(base_dim)]
    fibre_names = ["xi%d" % (i + 1) for i in range(fibre_rank)]
    momentum_names = ["p%d" % (a + 1) for a in range(base_dim)]
    cofibre_names = ["pi%d" % (i + 1) for i in range(fibre_rank)]
    gens = []
    for nm in base_names:
        gens.append((nm, EVEN, (0, 0)))
    for nm in fibre_names:
        gens.append((nm, ODD, (1, 0)))
    for nm in momentum_names:
        gens.append((nm, EVEN, (1, 1)))
    for nm in cofibre_names:
        gens.append((nm, ODD, (0, 1)))
    pairing = []
    for a in range(base_dim):
        pairing.append((momentum_names[a], base_names[a], Fraction(1)))
    for i in range(fibre_rank):
        pairing.append((fibre_names[i], cofibre_names[i], Fraction(1)))
    roles = {}
    for nm in base_names:
        roles[nm] = "base"
    for nm in fibre_names:
        roles[nm] = "fibre"
    for nm in momentum_names:
        roles[nm] = "momentum"
    for nm in cofibre_names:
        roles[nm] = "cofibre"
    return Chart("cotangent_antivb(%d|%d)" % (base_dim, fibre_rank),
                 2, gens, pairing, n_manifold=True, symplectic_axes=(0, 1),
                 roles=roles)


# -- serialization ------------------------------------------------------


def chart_to_json(chart):
    d = {
        "name": chart.name,
        "axes": chart.axes,
        "generators": [
            {"name": g.name,
             "parity": "odd" if g.parity else "even",
             "weight": list(g.weight)}
            for g in chart.generators],
        "pairing": [[g, h, str(c)] for g, h, c in chart.pairing_given],
        "n_manifold": chart.n_manifold,
        "symplectic_axes": list(chart.symplectic_axes),
    }
    if chart.metric is not None:
        mnames, rows = chart.metric
        d["metric"] = {"generators": list(mnames),
                       "rows": [[str(x) for x in row] for row in rows]}
    if chart.roles is not None:
        d["roles"] = dict(sorted(chart.roles.items()))
    if chart.lift_degree is not None:
        d["lift_degree"] = chart.lift_degree
    return d


def _parity_from_json(p):
    if p in (0, 1):
        return p
    if p == "even":
        return EVEN
    if p == "odd":
        return ODD
    raise ChartError("parity must be 'even' or 'odd', got %r" % (p,))


def chart_from_json(d, *, strict=True):
    gens = [(g["name"], _parity_from_json(g["parity"]), tuple(g["weight"]))
            for g in d["generators"]]
    metric = d.get("metric")
    if metric is not None:
        metric = (metric["generators"], metric["rows"])
    return Chart(d.get("name", "chart"), d["axes"], gens, d.get("pairing", []),
                 metric=metric, n_manifold=d.get("n_manifold", False),
                 symplectic_axes=tuple(d.get("symplectic_axes",
                                             range(d["axes"]))),
                 roles=d.get("roles"), lift_degree=d.get("lift_degree"),
                 strict=strict)
