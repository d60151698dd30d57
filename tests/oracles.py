"""Independent oracles the tests compare the library against.

Everything here recomputes expected values through a second route that
shares as little code as possible with the implementation under test:
derivatives are taken by direct term-key manipulation, products by sorting
words of odd factors one swap at a time, bracket values come from the
literal Darboux formula, Jacobiators from structure-constant arithmetic,
point cohomology from structure-constant ranks, pairing nondegeneracy from
one dense determinant rather than one rank of the sparse pairing rows,
lifts from a formal curve substitution, and the obstruction polynomial of
the quasi-Poisson instance is assembled index by index.
"""

import itertools
from fractions import Fraction

from superpoisson.charts import Chart, EVEN
from superpoisson.superpoly import SuperPoly, substitute
from superpoisson import lifts


# -- independent left derivative -------------------------------------------

def left_derivative(P, gidx):
    """d/d(generator gidx) acting from the left, by key surgery."""
    chart = P.chart
    gen = chart.generators[gidx]
    true_base = set(chart.true_base_indices)
    out = {}

    def add(key, c):
        out[key] = out.get(key, Fraction(0)) + c

    for (scal, even, odd), coeff in P.terms.items():
        if gen.parity:
            if gidx in odd:
                pos = odd.index(gidx)
                sign = -1 if pos % 2 else 1
                new_odd = odd[:pos] + odd[pos + 1:]
                add((scal, even, new_odd), coeff * sign)
        else:
            for n, (gi, e) in enumerate(even):
                if gi == gidx:
                    if e == 1:
                        new_even = even[:n] + even[n + 1:]
                    else:
                        new_even = (even[:n] + ((gi, e - 1),)
                                    + even[n + 1:])
                    add((scal, new_even, odd), coeff * e)
            if gidx in true_base:
                for m, (name, jets) in enumerate(scal):
                    new_factor = (name, tuple(sorted(jets + (gidx,))))
                    new_scal = tuple(sorted(scal[:m] + (new_factor,)
                                            + scal[m + 1:]))
                    add((new_scal, even, odd), coeff)
    return SuperPoly(chart, out)


# -- independent term product ----------------------------------------------

def ordered_product(left, right, scale=1):
    """The product of two term dicts, times scale, as a term dict with
    Fraction coefficients.  Each pair of terms is written as one word of
    odd factors, the left term's then the right term's, and the word is
    bubble-sorted into ascending order with one sign change per swap; a
    word that repeats a factor is zero.  Symbols and even exponents are
    collected by counting."""
    out = {}
    for (s1, e1, o1), c1 in left.items():
        for (s2, e2, o2), c2 in right.items():
            word = list(o1) + list(o2)
            if len(set(word)) < len(word):
                continue
            sign = 1
            for end in range(len(word) - 1, 0, -1):
                for i in range(end):
                    if word[i] > word[i + 1]:
                        word[i], word[i + 1] = word[i + 1], word[i]
                        sign = -sign
            powers = {}
            for gi, e in e1 + e2:
                powers[gi] = powers.get(gi, 0) + e
            key = (tuple(sorted(s1 + s2)), tuple(sorted(powers.items())),
                   tuple(word))
            out[key] = out.get(key, 0) + Fraction(c1) * c2 * scale * sign
    return {key: c for key, c in out.items() if c}


# -- literal Darboux bracket ------------------------------------------------

def darboux_literal_bracket(X, Y):
    """The displayed coordinate formula on an affine Darboux chart:
    dX/dp_a dY/dx_a - dX/dx_a dY/dp_a plus (-1)^(X~+1) dX/dxi g dY/dxi,
    taken per parity part of X with left derivatives throughout."""
    chart = X.chart
    names, rows = chart.metric
    midx = [chart.name_to_index[nm] for nm in names]
    roles = chart.roles or {}
    base = [g.index for g in chart.generators if roles.get(g.name) == "base"]
    mom = [g.index for g in chart.generators
           if roles.get(g.name) == "momentum"]
    assert len(base) == len(mom)
    out = chart.zero()
    for px in (0, 1):
        Xp = SuperPoly(chart, {k: c for k, c in X.terms.items()
                               if len(k[2]) % 2 == px})
        if Xp.is_zero:
            continue
        odd_sign = 1 if px else -1
        for xa, pa in zip(base, mom):
            out = out + left_derivative(Xp, pa) * left_derivative(Y, xa)
            out = out - left_derivative(Xp, xa) * left_derivative(Y, pa)
        for i, gi in enumerate(midx):
            for j, gj in enumerate(midx):
                if rows[i][j]:
                    out = out + (left_derivative(Xp, gi)
                                 * left_derivative(Y, gj)
                                 * (rows[i][j] * odd_sign))
    return out


# -- structure-constant arithmetic -----------------------------------------

CROSS7_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7),
                  (3, 6, 5))

# The catalogue's cross-product instances: (rank, ordered triples i, j, k
# with [e_i, e_j] = e_k).
CROSS_INSTANCES = {"cross3": (3, ((1, 2, 3),)),
                   "cross7": (7, CROSS7_TRIPLES),
                   "cross7_full": (7, CROSS7_TRIPLES + ((3, 4, 7),))}


def epsilon_table(triples):
    eps = {}
    for (i, j, k) in triples:
        for perm in ((i, j, k), (j, k, i), (k, i, j)):
            eps[perm] = 1
        for perm in ((j, i, k), (i, k, j), (k, j, i)):
            eps[perm] = -1
    return eps


def vector_bracket(eps, rank, v, w):
    """[v, w]_l = sum_ij v_i w_j eps_ijl on coefficient dicts."""
    out = {}
    for i, vi in v.items():
        for j, wj in w.items():
            for l in range(1, rank + 1):
                c = eps.get((i, j, l), 0)
                if c:
                    out[l] = out.get(l, 0) + vi * wj * c
    return {l: c for l, c in out.items() if c}


def algebra_jacobiator(eps, rank, i, j, k):
    """Cyclic Jacobiator [[ei,ej],ek] + [[ej,ek],ei] + [[ek,ei],ej]."""
    out = {}
    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
        inner = vector_bracket(eps, rank, {a: 1}, {b: 1})
        term = vector_bracket(eps, rank, inner, {c: 1})
        for l, v in term.items():
            out[l] = out.get(l, 0) + v
    return {l: c for l, c in out.items() if c}


def structure_theta(chart, c):
    """(1/2) c_ijk xi^i xi^j pi_k for structure constants c_ijk = -c_jik,
    given as a dict from (i, j, k) to the coefficient of e_k in [e_i, e_j]
    (1-based; absent entries are zero)."""
    T = chart.zero()
    for (i, j, k), s in sorted(c.items()):
        T = T + (chart.gen("xi%d" % i) * chart.gen("xi%d" % j)
                 * chart.gen("pi%d" % k) * Fraction(s, 2))
    return T


def jacobi_holds(c, rank):
    """True when the cyclic Jacobiator of the structure constants c (keyed
    as in structure_theta) vanishes on every triple of basis vectors."""
    return all(not algebra_jacobiator(c, rank, i, j, k)
               for i, j, k in itertools.product(range(1, rank + 1),
                                                repeat=3))


def dense_rank(rows):
    """Rank of a dense matrix by forward elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def point_h1(c, rank):
    """dim H1 over a point of the potential of structure constants c (keyed
    as in structure_theta).  {theta, .} maps the xi^k into xi xi and the
    pi_l into xi pi, so the kernel splits: on the xi^k it is the dual of
    g / [g, g], n minus the rank of c_ijk over pairs i < j with one row per
    k; on the pi_l it is the centre, n minus the rank of v -> sum_k v_k
    c_kjl."""
    idx = range(1, rank + 1)
    pairs = [(i, j) for i in idx for j in idx if i < j]
    derived = [[c.get((i, j, k), 0) for i, j in pairs] for k in idx]
    centre = [[c.get((k, j, l), 0) for k in idx] for j in idx for l in idx]
    return (rank - dense_rank(derived)) + (rank - dense_rank(centre))


def cross_theta(chart, triples):
    """(1/2) eps_ijk xi^i xi^j pi_k, assembled from the antisymmetrized
    table rather than the ordered-triple shortcut."""
    return structure_theta(chart, epsilon_table(triples))


# -- quasi-Poisson obstruction, rebuilt ------------------------------------

def quasi_obstruction(chart, dim=3):
    """(1/2)(L^{bc} dL^{ad}/dx^c - L^{dc} dL^{ab}/dx^c - L^{ac} dL^{bd}/dx^c)
    xs_d xs_b df/dx^a summed over all four indices, using formal
    antisymmetric entries L^{ab} = -L^{ba} stored as upper-index symbols."""

    def lam(a, b, jet=None):
        if a == b:
            return chart.zero()
        name = "L%d%d" % (min(a, b), max(a, b))
        jets = () if jet is None else (chart.name_to_index["x%d" % jet],)
        sym = SuperPoly.symbol(chart, name, jets)
        return sym if a < b else chart.zero() - sym

    out = chart.zero()
    for a in range(1, dim + 1):
        fa = SuperPoly.symbol(chart, "f",
                              (chart.name_to_index["x%d" % a],))
        for b in range(1, dim + 1):
            for c in range(1, dim + 1):
                for d in range(1, dim + 1):
                    coeff = (lam(b, c) * lam(a, d, jet=c)
                             - lam(d, c) * lam(a, b, jet=c)
                             - lam(a, c) * lam(b, d, jet=c))
                    out = out + (coeff * chart.gen("xs%d" % d)
                                 * chart.gen("xs%d" % b) * fa)
    return out * Fraction(1, 2)


# -- dense pairing determinant ---------------------------------------------

def dense_pairing_det(chart):
    """Determinant of the chart's whole n x n pairing matrix {g_i, g_j}, by
    Gaussian elimination over Fraction on the dense matrix; the chart
    itself checks nondegeneracy by one rank of its sparse pairing rows."""
    n = len(chart.generators)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, row in chart.pairing_rows.items():
        for j, c in row:
            m[i][j] = Fraction(c)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


# -- curve-substitution lift oracle ----------------------------------------

def curve_lift_value(P, k, target):
    """Coefficient of t^(k-1) in P evaluated on the formal curves
    g(t) = sum_eps g_eps t^eps, expressed on the given lifted chart.

    Only for symbol-free P: a symbol on the curves would need its own
    Taylor expansion, which this substitution cannot express.  The lift
    reaches symbols by the chain rule on jets instead, and
    routes.substitution_lift checks that sector by Taylor expansion."""
    if P.symbol_names():
        raise ValueError("curve oracle handles symbol-free input only")
    low = P.chart
    gens = [(g.name, g.parity, g.weight) for g in target.generators]
    gens.append(("t", EVEN, tuple(0 for _ in range(target.axes))))
    aux = Chart(target.name + "+t", target.axes, gens, [], strict=False)
    t = aux.gen("t")
    genmap = {}
    for g in low.generators:
        total = aux.zero()
        for eps in range(k):
            total = total + (aux.gen(lifts.lifted_name(g.name, eps))
                             * t ** eps)
        genmap[g.name] = total
    image = substitute(P, genmap, aux)
    t_idx = aux.name_to_index["t"]
    out = {}
    for (scal, even, odd), coeff in image.terms.items():
        texp = 0
        new_even = []
        for gi, e in even:
            if gi == t_idx:
                texp = e
            else:
                new_even.append((gi, e))
        if texp != k - 1:
            continue
        out[(scal, tuple(new_even), odd)] = coeff
    return SuperPoly(target, out)
