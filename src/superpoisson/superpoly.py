"""Exact supercommutative polynomial algebra on graded charts.

An element is a finite rational combination of monomials in a chart's
generators.  Generators carry a parity (even/odd) and a vector of
non-negative integer weights; odd generators anticommute and square to
zero, so every monomial has a canonical form and equality is literal
dictionary equality.  Monomials may also carry formal scalar symbols
f, g, ... standing for unspecified smooth functions of the weight-zero
even generators; their derivatives are tracked as jets D[f; x, y] that
never simplify.  All coefficients are fractions.Fraction, so "equals
zero" is a decidable, exact statement.
"""

from fractions import Fraction

EVEN = 0
ODD = 1


class Generator:
    """One graded coordinate: a name, a parity, and a weight vector."""

    __slots__ = ("name", "parity", "weight", "index")

    def __init__(self, name, parity, weight, index):
        assert parity in (EVEN, ODD), parity
        self.name = name
        self.parity = parity
        self.weight = tuple(int(w) for w in weight)
        self.index = index

    @property
    def is_true_base(self):
        """Even and weight zero on every axis: the sector the chain rule sees."""
        return self.parity == EVEN and all(w == 0 for w in self.weight)

    def __repr__(self):
        return "Generator(%r, parity=%d, weight=%r)" % (
            self.name, self.parity, self.weight)


# A term key is (scal, even, odd):
#   scal: sorted tuple of (symbol_name, jets) where jets is a sorted tuple of
#         generator indices the symbol has been differentiated by (a multiset);
#   even: tuple of (generator_index, exponent) with indices ascending;
#   odd:  strictly ascending tuple of generator indices.
# The coefficient of a key is a nonzero Fraction.


def _merge_odd(a, b):
    """Merge two ascending odd-index tuples; return (merged, koszul_sign).

    Returns None when an index repeats (odd square is zero).  The sign is
    (-1)**inversions where inversions counts the transpositions needed to
    sort the concatenation a + b.
    """
    if not a:
        return b, 1
    if not b:
        return a, 1
    out = []
    i = j = 0
    inv = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            inv += len(a) - i
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), (-1 if inv & 1 else 1)


def _merge_even(a, b):
    if not a:
        return b
    if not b:
        return a
    acc = {}
    for idx, e in a:
        acc[idx] = acc.get(idx, 0) + e
    for idx, e in b:
        acc[idx] = acc.get(idx, 0) + e
    return tuple(sorted(acc.items()))


def _merge_scal(a, b):
    if not a:
        return b
    if not b:
        return a
    return tuple(sorted(a + b))


def mul_terms_into(acc, left, right, scale=None):
    """Add the product of two term dicts, times scale, into acc.

    Keys whose coefficient sums to zero are dropped, so acc stays a valid
    term dict; both SuperPoly products and the Poisson bracket accumulate
    through here.
    """
    for (s1, e1, o1), c1 in left.items():
        if scale is not None:
            c1 = c1 * scale
        for (s2, e2, o2), c2 in right.items():
            merged = _merge_odd(o1, o2)
            if merged is None:
                continue
            odd, sign = merged
            key = (_merge_scal(s1, s2), _merge_even(e1, e2), odd)
            c = c1 * c2 if sign > 0 else -(c1 * c2)
            old = acc.get(key)
            if old is None:
                acc[key] = c
            else:
                c = old + c
                if c:
                    acc[key] = c
                else:
                    del acc[key]


class SuperPoly:
    """Immutable-by-convention element of a chart's function algebra."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart, terms=None):
        self.chart = chart
        clean = {}
        if terms:
            for key, c in terms.items():
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    clean[key] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_clean_terms(chart, terms):
        """Wrap a term dict whose coefficients are already nonzero
        Fractions, without copying or re-checking it."""
        P = SuperPoly.__new__(SuperPoly)
        P.chart = chart
        P.terms = terms
        return P

    @staticmethod
    def constant(chart, value):
        value = Fraction(value)
        if not value:
            return SuperPoly(chart, {})
        return SuperPoly(chart, {((), (), ()): value})

    @staticmethod
    def generator_monomial(chart, gen):
        if gen.parity == ODD:
            key = ((), (), (gen.index,))
        else:
            key = ((), ((gen.index, 1),), ())
        return SuperPoly(chart, {key: Fraction(1)})

    @staticmethod
    def symbol(chart, name, jets=()):
        key = (((name, tuple(sorted(jets))),), (), ())
        return SuperPoly(chart, {key: Fraction(1)})

    # -- basic structure ------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def items(self):
        """Deterministically ordered (key, coefficient) pairs."""
        return [(k, self.terms[k]) for k in sorted(self.terms)]

    def coefficient(self, key):
        return self.terms.get(key, Fraction(0))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SuperPoly.constant(self.chart, other)
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self.chart is other.chart and self.terms == other.terms

    def __ne__(self, other):
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return eq
        return not eq

    __hash__ = None

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SuperPoly):
            if other.chart is not self.chart:
                raise ValueError(
                    "cannot mix elements of charts %r and %r"
                    % (getattr(self.chart, "name", "?"),
                       getattr(other.chart, "name", "?")))
            return other
        if isinstance(other, (int, Fraction)):
            return SuperPoly.constant(self.chart, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, Fraction(0)) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return SuperPoly(self.chart, out)

    __radd__ = __add__

    def __neg__(self):
        return SuperPoly(self.chart, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return SuperPoly(self.chart, {})
            return SuperPoly(self.chart,
                             {k: v * c for k, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        mul_terms_into(out, self.terms, other.terms)
        return SuperPoly.from_clean_terms(self.chart, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = SuperPoly.constant(self.chart, 1)
        for _ in range(n):
            out = out * self
        return out

    # -- grading --------------------------------------------------------

    def term_parity(self, key):
        return len(key[2]) & 1

    def term_weight(self, key):
        gens = self.chart.generators
        axes = self.chart.axes
        tot = [0] * axes
        for idx, e in key[1]:
            w = gens[idx].weight
            for a in range(axes):
                tot[a] += e * w[a]
        for idx in key[2]:
            w = gens[idx].weight
            for a in range(axes):
                tot[a] += w[a]
        return tuple(tot)

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

    def weight(self):
        """Weight vector if weight-homogeneous and nonzero, else None."""
        w = None
        for key in self.terms:
            tw = self.term_weight(key)
            if w is None:
                w = tw
            elif w != tw:
                return None
        return w

    def parity_part(self, parity):
        return SuperPoly.from_clean_terms(
            self.chart, {k: c for k, c in self.terms.items()
                         if self.term_parity(k) == parity})

    def uses_generator(self, idx):
        for scal, even, odd in self.terms:
            if idx in odd:
                return True
            if any(i == idx for i, _ in even):
                return True
            if any(idx in jets for _, jets in scal):
                return True
        return False

    def symbol_names(self):
        names = set()
        for scal, _, _ in self.terms:
            for name, _ in scal:
                names.add(name)
        return names


class Homogeneity:
    """Result of a homogeneity scan: shared parity/weight or the offenders."""

    __slots__ = ("homogeneous", "parity", "weight", "offenders")

    def __init__(self, homogeneous, parity, weight, offenders):
        self.homogeneous = homogeneous
        self.parity = parity
        self.weight = weight
        self.offenders = offenders

    def __repr__(self):
        return ("Homogeneity(homogeneous=%r, parity=%r, weight=%r, offenders=%r)"
                % (self.homogeneous, self.parity, self.weight, self.offenders))


def homogeneity(P):
    """Report whether P is parity- and weight-homogeneous.

    Zero is homogeneous of every parity and weight (both reported None).
    Offenders list the distinct (parity, weight) classes present when the
    scan fails.
    """
    if P.is_zero:
        return Homogeneity(True, None, None, [])
    classes = {}
    for key in sorted(P.terms):
        cls = (P.term_parity(key), P.term_weight(key))
        classes.setdefault(cls, []).append(key)
    if len(classes) == 1:
        (parity, weight), = classes.keys()
        return Homogeneity(True, parity, weight, [])
    offenders = [(parity, weight, _key_text(P.chart, keys[0]))
                 for (parity, weight), keys in sorted(classes.items())]
    return Homogeneity(False, None, None, offenders)


def left_partial(P, g):
    """Left derivative of P by generator g (name or Generator).

    For odd g the derivative anticommutes past the factors to the left of
    g; for an even weight-zero generator the chain rule also extends every
    scalar symbol by one jet index.
    """
    chart = P.chart
    if isinstance(g, str):
        g = chart.generator(g)
    gi = g.index
    out = {}

    def put(key, c):
        old = out.get(key)
        if old is None:
            out[key] = c
        else:
            c = old + c
            if c:
                out[key] = c
            else:
                del out[key]

    if g.parity == ODD:
        for (scal, even, odd), c in P.terms.items():
            if gi not in odd:
                continue
            pos = odd.index(gi)
            rest = odd[:pos] + odd[pos + 1:]
            put((scal, even, rest), -c if pos & 1 else c)
    else:
        chain = g.is_true_base
        for (scal, even, odd), c in P.terms.items():
            for k, (idx, e) in enumerate(even):
                if idx == gi:
                    if e == 1:
                        new_even = even[:k] + even[k + 1:]
                    else:
                        new_even = even[:k] + ((idx, e - 1),) + even[k + 1:]
                    put((scal, new_even, odd), c * e)
                    break
            if chain:
                for k, (name, jets) in enumerate(scal):
                    entry = (name, tuple(sorted(jets + (gi,))))
                    new_scal = tuple(sorted(scal[:k] + (entry,) + scal[k + 1:]))
                    put((new_scal, even, odd), c)
    return SuperPoly.from_clean_terms(chart, out)


def substitute(P, genmap, target=None):
    """Apply the parity-preserving algebra map sending generators to images.

    genmap maps Generator/name (of P's chart) to a SuperPoly on the target
    chart.  Unmapped generators go to the target generator with the same
    name.  Scalar symbols are carried along; each of their jet indices must
    land on a weight-zero even target generator (i.e. the base sector must
    map to the base sector by renaming), otherwise the chain rule would be
    unsound and a ValueError is raised.  Koszul signs come out automatically
    because each term is rebuilt as an ordered product of factor images.
    """
    chart = P.chart
    if target is None:
        target = chart
    images = {}
    for g, img in genmap.items():
        if isinstance(g, str):
            g = chart.generator(g)
        if isinstance(img, (int, Fraction)):
            img = SuperPoly.constant(target, img)
        if img.chart is not target:
            raise ValueError("image of %s lives on the wrong chart" % g.name)
        images[g.index] = img

    image_cache = {}

    def gen_image(idx):
        if idx in image_cache:
            return image_cache[idx]
        if idx in images:
            img = images[idx]
        else:
            name = chart.generators[idx].name
            img = SuperPoly.generator_monomial(target, target.generator(name))
        image_cache[idx] = img
        return img

    def jet_target(idx):
        img = gen_image(idx)
        if len(img.terms) != 1:
            raise ValueError(
                "jet index %s must map to a single base generator"
                % chart.generators[idx].name)
        (scal, even, odd), c = next(iter(img.terms.items()))
        if scal or odd or len(even) != 1 or even[0][1] != 1 or c != 1:
            raise ValueError(
                "jet index %s must map to a single base generator"
                % chart.generators[idx].name)
        tidx = even[0][0]
        if not target.generators[tidx].is_true_base:
            raise ValueError(
                "jet index %s must land in the weight-zero even sector"
                % chart.generators[idx].name)
        return tidx

    total = SuperPoly(target, {})
    for (scal, even, odd), c in P.terms.items():
        part = SuperPoly.constant(target, c)
        if scal:
            new_scal = tuple(sorted(
                (name, tuple(sorted(jet_target(j) for j in jets)))
                for name, jets in scal))
            part = part * SuperPoly(target, {(new_scal, (), ()): Fraction(1)})
        for idx, e in even:
            img = gen_image(idx)
            for _ in range(e):
                part = part * img
        for idx in odd:
            part = part * gen_image(idx)
        total = total + part
    return total


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


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("NUM", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
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

    def factor(self):
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
                value = value ** e
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
        return Fraction(num)

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
    factor := rational | ident | ident '^' nat | ident '(' args ')'
            | 'D' '[' ident (';' ident (',' ident)*)? ']' | '(' expr ')'

    Identifiers that name chart generators are generators; any other
    identifier is a formal scalar symbol (a smooth function of the
    weight-zero even generators; a declared argument list is validated
    against that sector and otherwise carries no extra meaning).
    """
    return _Parser(chart, text).parse()
