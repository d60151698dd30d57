"""Exact supercommutative polynomial algebra on graded charts.

An element is a finite rational combination of monomials in a chart's
generators.  Generators carry a parity (even/odd) and a vector of
non-negative integer weights; odd generators anticommute and square to
zero, so every monomial has a canonical form and equality is literal
dictionary equality.  Monomials may also carry formal scalar symbols
f, g, ... standing for unspecified smooth functions of the weight-zero
even generators; their derivatives are tracked as jets D[f; x, y] that
never simplify.  Every coefficient is exact: an int, or a
fractions.Fraction when it is not integral, so "equals zero" is a
decidable, exact statement.  Left derivatives have one rule, in
left_gradient, which takes all of an element's derivatives in one pass over
its terms; the Poisson bracket differentiates each argument once with it.
SuperPoly.gradient takes that full gradient on its first call and keeps it
with the element.  The bracket takes and keeps the full gradient of its
argument with fewer terms (Y on a tie) and asks the other only for the
derivatives that meet it, a pass that keeps nothing; so an element that
is the smaller side of many brackets, or whose gradient() its caller
takes, is differentiated once.

Products have one loop, mul_terms_into, which multiplies two term dicts
into an accumulator; SuperPoly products, the Poisson bracket and every
other product of term dicts go through it.  An empty symbol, even or odd
part on either side is the other side as it is.  Two nonempty odd parts
follow one rule: for each right index, bisect_left into the left part
finds a repeated index (an odd square, so the term is zero) and counts the
larger left indices; the Koszul sign is the parity of that count, and the
merged part is the sorted concatenation.  Only two nonempty even parts
call _merge_even, and only two nonempty symbol parts are sorted.

Scalars have one rule too, in _scalar, which products, sums, comparisons,
constants, the coefficients given to SuperPoly(chart, terms) and the
Poisson bracket all follow: a SuperPoly operand is
recognised first, by its exact type; an int (a bool included) stays an int
and never builds a Fraction; a Fraction goes through _norm, so an integral
one is stored as its int numerator.  A product by 1 is the element itself.

Elements are immutable by convention: no code writes to an element's terms
after building it.  The convention is load-bearing: a product by 1 shares
the element, and a kept gradient holds the derivatives of the terms as they
were, so a write to an element's terms would make every later bracket with
that element wrong.
"""

from bisect import bisect_left
from fractions import Fraction

EVEN = 0
ODD = 1


class Generator:
    """One graded coordinate: a name, a parity, and a weight vector.

    The parity and weight are stored as given; the Chart that makes a
    Generator reports a parity other than 0/1 or a weight entry that is
    not an int as a problem.  is_true_base is stored on construction: even
    and weight zero on every axis, the sector the chain rule sees."""

    __slots__ = ("name", "parity", "weight", "index", "is_true_base")

    def __init__(self, name, parity, weight, index):
        self.name = name
        self.parity = parity
        self.weight = weight = tuple(weight)
        self.index = index
        self.is_true_base = parity == EVEN and not any(weight)

    def __repr__(self):
        return "Generator(%r, parity=%r, weight=%r)" % (
            self.name, self.parity, self.weight)


# A term key is (scal, even, odd):
#   scal: sorted tuple of (symbol_name, jets) where jets is a sorted tuple of
#         generator indices the symbol has been differentiated by (a multiset);
#   even: tuple of (generator_index, exponent) with indices strictly
#         ascending and exponents at least 1;
#   odd:  strictly ascending tuple of generator indices.
# The coefficient of a key is nonzero: an int, or a Fraction when it is not
# integral (see _norm).  SuperPoly(chart, terms) refuses a key in any other
# form (_key_problem); from_clean_terms takes its keys on trust.


def _key_problem(key):
    """What breaks the canonical form of a term key, or None."""
    scal, even, odd = key
    if len(odd) > 1 and any(a >= b for a, b in zip(odd, odd[1:])):
        return "odd part is not strictly ascending"
    prev = -1
    for gi, e in even:
        if gi <= prev:
            return "even part is not strictly ascending"
        if e < 1:
            return "even exponent below 1"
        prev = gi
    if scal and (list(scal) != sorted(scal)
                 or any(list(jets) != sorted(jets) for _, jets in scal)):
        return "symbol part is not sorted"
    return None


def _norm(c):
    """An integral Fraction as its int numerator; any other c unchanged.

    Almost every coefficient the bracket produces is an integer, and int
    arithmetic is several times cheaper than Fraction arithmetic, so every
    place a coefficient is born stores it through here.
    """
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _scalar(x):
    """x as a coefficient under the one scalar rule: an int (a bool
    included) as an int, a Fraction through _norm; None when x is neither."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return _norm(Fraction(x))
    return None


def _merge_even(a, b):
    """Merge two nonempty (index, exponent) tuples, adding exponents."""
    acc = dict(a)
    for idx, e in b:
        acc[idx] = acc.get(idx, 0) + e
    return tuple(sorted(acc.items()))


def mul_terms_into(acc, left, right, scale=None):
    """Add the product of two term dicts, times scale, into acc.

    Keys whose coefficient sums to zero are dropped, so acc stays a valid
    term dict; both SuperPoly products and the Poisson bracket accumulate
    through here.

    An empty side of any of the three key parts is the other side as it
    is.  Two nonempty odd parts o1, o2 have one rule: bisect_left of each
    index of o2 into o1 finds a repeated index (the term is zero) and the
    number of o1's indices above it; the Koszul sign is the parity of the
    sum of those numbers, and the merged part is sorted(o1 + o2).
    """
    get = acc.get
    for (s1, e1, o1), c1 in left.items():
        if scale is not None:
            c1 = c1 * scale
            if type(c1) is Fraction:
                c1 = _norm(c1)
        n1 = len(o1)
        for (s2, e2, o2), c2 in right.items():
            n2 = len(o2)
            neg = False
            if not n2:
                odd = o1
            elif not n1:
                odd = o2
            else:
                # inv -1 marks a shared index: an odd square, a zero term
                inv = 0
                for j in o2:
                    p = bisect_left(o1, j)
                    if p < n1 and o1[p] == j:
                        inv = -1
                        break
                    inv += n1 - p
                if inv < 0:
                    continue
                odd = tuple(sorted(o1 + o2))
                neg = inv & 1
            if not s1 or not s2:
                scal = s1 + s2
            else:
                scal = tuple(sorted(s1 + s2))
            if not e1 or not e2:
                even = e1 + e2
            else:
                even = _merge_even(e1, e2)
            key = (scal, even, odd)
            c = -(c1 * c2) if neg else c1 * c2
            if type(c) is Fraction:
                c = _norm(c)
            old = get(key)
            if old is None:
                acc[key] = c
            else:
                c = old + c
                if type(c) is Fraction:
                    c = _norm(c)
                if c:
                    acc[key] = c
                else:
                    del acc[key]


class SuperPoly:
    """Immutable-by-convention element of a chart's function algebra."""

    __slots__ = ("chart", "terms", "_gradient")

    def __init__(self, chart, terms=None):
        self.chart = chart
        clean = {}
        if terms:
            for key, given in terms.items():
                problem = _key_problem(key)
                if problem:
                    raise ValueError("term key %r: %s" % (key, problem))
                c = given if type(given) is int else _scalar(given)
                if c is None:
                    raise TypeError(
                        "a coefficient is an int or a Fraction, not %r"
                        % (given,))
                if c:
                    clean[key] = c
        self.terms = clean
        self._gradient = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_clean_terms(chart, terms):
        """Wrap a term dict whose coefficients are already nonzero ints, or
        Fractions when not integral, without copying or re-checking it."""
        P = SuperPoly.__new__(SuperPoly)
        P.chart = chart
        P.terms = terms
        P._gradient = None
        return P

    @staticmethod
    def constant(chart, value):
        c = _scalar(value)
        if c is None:
            raise TypeError("a constant is an int or a Fraction, not %r"
                            % (value,))
        return SuperPoly.from_clean_terms(chart,
                                          {((), (), ()): c} if c else {})

    @staticmethod
    def generator_monomial(chart, gen):
        if gen.parity == ODD:
            key = ((), (), (gen.index,))
        else:
            key = ((), ((gen.index, 1),), ())
        return SuperPoly.from_clean_terms(chart, {key: 1})

    @staticmethod
    def symbol(chart, name, jets=()):
        key = (((name, tuple(sorted(jets))),), (), ())
        return SuperPoly.from_clean_terms(chart, {key: 1})

    # -- basic structure ------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def items(self):
        """Deterministically ordered (key, coefficient) pairs."""
        return [(k, self.terms[k]) for k in sorted(self.terms)]

    def gradient(self, wanted=None):
        """left_gradient(self, wanted), as far as the element keeps it.

        The full gradient (wanted None) is taken on the first call and kept
        with the element.  A call with a wanted set of indices returns the
        kept full gradient when there is one, and otherwise takes only the
        wanted derivatives and keeps nothing.  Callers read the returned
        dicts and never write to them."""
        if self._gradient is not None:
            return self._gradient
        if wanted is not None:
            return left_gradient(self, wanted)
        self._gradient = left_gradient(self)
        return self._gradient

    def __eq__(self, other):
        if type(other) is not SuperPoly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.chart is other.chart and self.terms == other.terms

    __hash__ = None

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        """other as an element of this chart: a SuperPoly of the same chart
        as it is, a scalar as a constant; None for anything else."""
        if type(other) is SuperPoly:
            if other.chart is not self.chart:
                raise ValueError(
                    "cannot mix elements of charts %r and %r"
                    % (getattr(self.chart, "name", "?"),
                       getattr(other.chart, "name", "?")))
            return other
        c = _scalar(other)
        if c is None:
            return None
        return SuperPoly.constant(self.chart, c)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        _add_terms(out, other.terms)
        return SuperPoly.from_clean_terms(self.chart, out)

    __radd__ = __add__

    def __neg__(self):
        return SuperPoly.from_clean_terms(
            self.chart, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        _add_terms(out, other.terms, -1)
        return SuperPoly.from_clean_terms(self.chart, out)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is SuperPoly:
            other = self._coerce(other)
            out = {}
            mul_terms_into(out, self.terms, other.terms)
            return SuperPoly.from_clean_terms(self.chart, out)
        c = _scalar(other)
        if c is None:
            return NotImplemented
        if c == 1:
            return self
        if not c:
            return SuperPoly.from_clean_terms(self.chart, {})
        return SuperPoly.from_clean_terms(
            self.chart, {k: _norm(v * c) for k, v in self.terms.items()})

    def __rmul__(self, other):
        # Only a left operand that is not a SuperPoly lands here, and a
        # scalar commutes with every element.
        return self.__mul__(other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = SuperPoly.constant(self.chart, 1)
        for _ in range(n):
            out = out * self
        return out

    # -- parity (a term's grading is Chart.term_grading) ---------------

    def term_parity(self, key):
        return len(key[2]) & 1

    def parity(self):
        """Parity if parity-homogeneous (zero counts), else None."""
        p = None
        for key in self.terms:
            tp = self.term_parity(key)
            if p is None:
                p = tp
            elif p != tp:
                return None
        return p

    def symbol_names(self):
        names = set()
        for scal, _, _ in self.terms:
            for name, _ in scal:
                names.add(name)
        return names


def _add_term(out, key, c):
    """Add c to out[key] in a term dict, dropping the key if the sum is 0."""
    c = _norm(out.get(key, 0) + c)
    if c:
        out[key] = c
    else:
        del out[key]


def _add_terms(out, terms, sign=1):
    """Add sign (1 or -1) times the term dict terms into the term dict out,
    in one pass, dropping each key whose sum is 0."""
    get = out.get
    for key, c in terms.items():
        s = get(key, 0) + c if sign > 0 else get(key, 0) - c
        if type(s) is Fraction:
            s = _norm(s)
        if s:
            out[key] = s
        else:
            out.pop(key, None)


def left_gradient(P, wanted=None):
    """Left derivatives of P by every generator, in one pass over its terms.

    Returns {generator index: term dict of d_g P} for the g whose
    derivative is nonzero, restricted to the indices in wanted when given.
    For odd g the derivative anticommutes past the odd factors to the left
    of g; for even g it lowers the exponent; for an even weight-zero g the
    chain rule also extends every scalar symbol by one jet index.  Each
    term dict lists its keys in the order of P's terms.

    No derivative that receives a term cancels to zero: the chain rule
    lifts the jets of the highest order into an order nothing else
    reaches.
    """
    base = P.chart.true_base_indices
    if wanted is not None:
        base = [gi for gi in base if gi in wanted]
    grad = {}
    for (scal, even, odd), c in P.terms.items():
        for pos, gi in enumerate(odd):
            if wanted is None or gi in wanted:
                out = grad.get(gi)
                if out is None:
                    out = grad[gi] = {}
                out[scal, even, odd[:pos] + odd[pos + 1:]] = (
                    -c if pos & 1 else c)
        for k, (gi, e) in enumerate(even):
            if wanted is None or gi in wanted:
                out = grad.get(gi)
                if out is None:
                    out = grad[gi] = {}
                if e > 1:
                    _add_term(out, (scal, even[:k] + ((gi, e - 1),)
                                    + even[k + 1:], odd), c * e)
                else:
                    _add_term(out, (scal, even[:k] + even[k + 1:], odd), c)
        if scal:
            for gi in base:
                out = grad.get(gi)
                if out is None:
                    out = grad[gi] = {}
                for k, (name, jets) in enumerate(scal):
                    entry = (name, tuple(sorted(jets + (gi,))))
                    lifted = tuple(sorted(scal[:k] + (entry,) + scal[k + 1:]))
                    _add_term(out, (lifted, even, odd), c)
    return grad


def left_partial(P, g):
    """Left derivative of P by generator g (name or Generator): the g entry
    of left_gradient as a SuperPoly."""
    if isinstance(g, str):
        g = P.chart.generator(g)
    return SuperPoly.from_clean_terms(
        P.chart, left_gradient(P, (g.index,)).get(g.index, {}))


def substitute(P, genmap, target=None):
    """Apply the parity-preserving algebra map sending generators to images.

    genmap maps Generator/name (of P's chart) to a SuperPoly on the target
    chart.  Unmapped generators go to the target generator with the same
    name.  Scalar symbols are carried along; each of their jet indices must
    land on a weight-zero even target generator (i.e. the base sector must
    map to the base sector by renaming), otherwise the chain rule would be
    unsound and a ValueError is raised.  Each term's image is the ordered
    product of its factors' images, multiplied on term dicts with
    mul_terms_into, so the Koszul signs come out of the products.  This is
    the transport between charts that are not a flattening of one another;
    ``lifts.flatten_poly`` moves an element onto its flattened chart.
    """
    chart = P.chart
    if target is None:
        target = chart
    images = {}
    for g, img in genmap.items():
        if isinstance(g, str):
            g = chart.generator(g)
        if type(img) is not SuperPoly:
            img = SuperPoly.constant(target, img)
        if img.chart is not target:
            raise ValueError("image of %s lives on the wrong chart" % g.name)
        images[g.index] = img.terms

    def gen_image(idx):
        if idx not in images:
            name = chart.generators[idx].name
            images[idx] = SuperPoly.generator_monomial(
                target, target.generator(name)).terms
        return images[idx]

    def jet_target(idx):
        img = gen_image(idx)
        keys = list(img)
        tidx = keys[0][1][0][0] if len(keys) == 1 and keys[0][1] else None
        if tidx is None or img != {((), ((tidx, 1),), ()): 1}:
            raise ValueError(
                "jet index %s must map to a single base generator"
                % chart.generators[idx].name)
        if not target.generators[tidx].is_true_base:
            raise ValueError(
                "jet index %s must land in the weight-zero even sector"
                % chart.generators[idx].name)
        return tidx

    total = {}
    for (scal, even, odd), c in P.terms.items():
        if scal:
            scal = tuple(sorted(
                (name, tuple(sorted(jet_target(j) for j in jets)))
                for name, jets in scal))
        part = {(scal, (), ()): c}
        for idx in [gi for gi, e in even for _ in range(e)] + list(odd):
            part, left = {}, part
            mul_terms_into(part, left, gen_image(idx))
        for key, v in part.items():
            _add_term(total, key, v)
    return SuperPoly.from_clean_terms(target, total)


# -- printing ----------------------------------------------------------


def _key_text(chart, key):
    scal, even, odd = key
    parts = []
    for name, jets in scal:
        if jets:
            parts.append("D[%s; %s]" % (
                name, ", ".join(chart.generators[j].name for j in jets)))
        else:
            parts.append(name)
    for idx, e in even:
        n = chart.generators[idx].name
        parts.append(n if e == 1 else "%s^%d" % (n, e))
    for idx in odd:
        parts.append(chart.generators[idx].name)
    return "*".join(parts)


def to_text(P):
    """Canonical text form; parse_expr(chart, to_text(P)) == P."""
    if P.is_zero:
        return "0"
    bits = []
    for key in sorted(P.terms):
        c = P.terms[key]
        body = _key_text(P.chart, key)
        mag = abs(c)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = "%s*%s" % (mag, body)
        if not bits:
            bits.append(body if c > 0 else "-" + body)
        else:
            bits.append((" + " if c > 0 else " - ") + body)
    return "".join(bits)


# -- parsing -----------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at offset %d)" % (message, pos))
        self.message = message
        self.pos = pos


_OPCHARS = set("+-*/^()[];,")


def _name_end(text, i):
    """End of the identifier that starts at text[i], or i if none does: a
    letter or '_', then letters, decimal digits or '_'."""
    j = i
    while j < len(text) and (text[j].isalpha() or text[j] == "_"
                             or (j > i and text[j].isdecimal())):
        j += 1
    return j


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("NUM", text[i:j], i))
            i = j
            continue
        j = _name_end(text, i)
        if j > i:
            toks.append(("IDENT", text[i:j], i))
            i = j
            continue
        if ch in _OPCHARS:
            toks.append(("OP", ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    toks.append(("END", "", n))
    return toks


# Deepest parenthesis nesting parse_expr accepts; the parser recurses once
# per level, so the bound keeps it well inside Python's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, chart, text):
        self.chart = chart
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, ch):
        kind, val, pos = self.next()
        if kind != "OP" or val != ch:
            raise ParseError("expected %r" % ch, pos)

    def at_op(self, ch):
        kind, val, _ = self.peek()
        return kind == "OP" and val == ch

    def parse(self):
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "END":
            raise ParseError("trailing input", pos)
        return value

    def expr(self):
        negate = False
        if self.at_op("-"):
            self.next()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while True:
            if self.at_op("+"):
                self.next()
                value = value + self.term()
            elif self.at_op("-"):
                self.next()
                value = value - self.term()
            else:
                return value

    def term(self):
        value = self.factor()
        while self.at_op("*"):
            self.next()
            value = value * self.factor()
        return value

    def factor(self):
        value = self.atom()
        if self.at_op("^"):
            raise ParseError("only a generator takes an exponent",
                             self.peek()[2])
        return value

    def base_name(self, what):
        kind, val, pos = self.next()
        if kind != "IDENT":
            raise ParseError("expected %s" % what, pos)
        try:
            g = self.chart.generator(val)
        except KeyError:
            raise ParseError("%s %r is not a generator" % (what, val), pos)
        if not g.is_true_base:
            raise ParseError(
                "%s %r must be an even weight-zero generator" % (what, val),
                pos)
        return g

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "NUM":
            self.next()
            return SuperPoly.constant(self.chart, self.rational_tail(val))
        if kind == "OP" and val == "(":
            self.next()
            if self.depth == MAX_NESTING:
                raise ParseError("parentheses nest deeper than %d levels"
                                 % MAX_NESTING, pos)
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return value
        if kind != "IDENT":
            raise ParseError("expected a factor", pos)
        self.next()
        if val == "D" and self.at_op("["):
            return self.jet(pos)
        try:
            g = self.chart.generator(val)
        except KeyError:
            g = None
        if g is not None:
            value = SuperPoly.generator_monomial(self.chart, g)
            if self.at_op("^"):
                self.next()
                kind, ev, epos = self.next()
                if kind != "NUM":
                    raise ParseError("expected an integer exponent", epos)
                e = int(ev)
                if g.parity == ODD and e >= 2:
                    raise ParseError(
                        "odd generator %r squares to zero; write 0 instead"
                        % g.name, epos)
                if e == 0:
                    value = self.chart.one()
                elif g.parity == EVEN:
                    value = SuperPoly(self.chart,
                                      {((), ((g.index, e),), ()): 1})
            return value
        # Formal scalar symbol, optionally with a declared argument list.
        if self.at_op("("):
            self.next()
            self.base_name("argument")
            while self.at_op(","):
                self.next()
                self.base_name("argument")
            self.expect_op(")")
        return SuperPoly.symbol(self.chart, val)

    def rational_tail(self, first):
        num = int(first)
        if self.at_op("/"):
            self.next()
            kind, dval, dpos = self.next()
            if kind != "NUM":
                raise ParseError("expected a denominator", dpos)
            den = int(dval)
            if den == 0:
                raise ParseError("zero denominator", dpos)
            return Fraction(num, den)
        return num

    def jet(self, dpos):
        self.expect_op("[")
        kind, fname, pos = self.next()
        if kind != "IDENT":
            raise ParseError("expected a symbol name in D[...]", pos)
        try:
            self.chart.generator(fname)
        except KeyError:
            pass
        else:
            raise ParseError(
                "%r is a generator; D[...] takes a formal symbol" % fname, pos)
        jets = []
        if self.at_op(";"):
            self.next()
            jets.append(self.base_name("jet index").index)
            while self.at_op(","):
                self.next()
                jets.append(self.base_name("jet index").index)
        self.expect_op("]")
        return SuperPoly.symbol(self.chart, fname, tuple(jets))


def parse_expr(chart, text):
    """Parse the expression grammar into a SuperPoly on the chart.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := rational | generator ['^' nat] | symbol ['(' args ')']
            | 'D' '[' symbol (';' ident (',' ident)*)? ']' | '(' expr ')'

    An identifier (a letter or '_', then letters, decimal digits or '_')
    that names a chart generator is a generator; any other identifier is a
    formal scalar symbol (a smooth function of the weight-zero even
    generators; a declared argument list is validated against that sector
    and otherwise carries no extra meaning).
    """
    return _Parser(chart, text).parse()
