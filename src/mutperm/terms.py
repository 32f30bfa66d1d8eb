"""Bracket terms, bracket polynomials, named identity templates, parsing.

A term is a binary tree over named variables with two node kinds:

* ``('b', l, r)`` -- the mutation bracket <l, r>
* ``('m', l, r)`` -- the ordinary (non-mutated) product l*r
* ``('v', name)`` -- a leaf

Polynomials are rational linear combinations of terms.  The named
templates (f, ftilde, wa, flex, hbar, ibar, conj4a, conj4b, crit36) are
the identity candidates the rest of the package keeps checking; crit36 is
stated over the ordinary product because it constrains the original
algebra, not its mutation.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from fractions import Fraction

from .linalg import Combination, signed_sum


def term_degree(t):
    if t[0] == "v":
        return 1
    return term_degree(t[1]) + term_degree(t[2])


def term_vars(t, out=None):
    """Multiset of leaf names, as a dict name -> occurrence count."""
    if out is None:
        out = {}
    if t[0] == "v":
        out[t[1]] = out.get(t[1], 0) + 1
    else:
        term_vars(t[1], out)
        term_vars(t[2], out)
    return out


def term_key(t):
    if t[0] == "v":
        name = t[1]
        m = re.match(r"^([a-zA-Z_]+)([0-9]*)(?:#([0-9]+))?$", name)
        if m:
            base, num, pol = m.groups()
            return (0, base, int(num) if num else 0, int(pol) if pol else 0)
        return (0, name, 0, 0)
    kind = 1 if t[0] == "b" else 2
    return (kind, term_key(t[1]), term_key(t[2]))


def term_sort_key(t):
    return (term_degree(t), term_key(t))


def rename_leaves(t, mapping):
    if t[0] == "v":
        return ("v", mapping.get(t[1], t[1]))
    return (t[0], rename_leaves(t[1], mapping), rename_leaves(t[2], mapping))


class TermPoly(Combination):
    """Rational linear combination of terms, with ``linalg.Combination``'s
    arithmetic."""

    __slots__ = ()

    @classmethod
    def var(cls, name):
        return cls({("v", name): 1})

    @classmethod
    def term(cls, t, coeff=1):
        return cls({t: coeff})

    def rename(self, mapping):
        out = TermPoly.zero()
        for t, c in self.terms.items():
            out += TermPoly.term(rename_leaves(t, mapping), c)
        return out

    def variables(self):
        out = {}
        for t in self.terms:
            term_vars(t, out)
        return out

    def __str__(self):
        return render(self)

    __repr__ = __str__


def _multidegree(poly, what):
    """The multidegree every term of ``poly`` has, as a Counter; raises
    ValueError naming ``what`` if two terms have different ones."""
    degrees = [term_vars(t) for t in poly.terms]
    if any(d != degrees[0] for d in degrees):
        raise ValueError(f"{what} {render(poly)} is not multihomogeneous")
    return Counter(degrees[0] if degrees else {})


def _magmatic_count(n):
    """n! * Catalan(n - 1), the size of the degree-n magmatic basis."""
    return math.factorial(n) * math.comb(2 * n - 2, n - 1) // n


# Most magmatic monomials one degree may enumerate, and most terms one
# product of polynomials may build: 30,240, the count at degree 6 (degree
# 7 has 665,280).
MAX_MAGMATIC = _magmatic_count(6)


def _combine(kind, a, b):
    """The node ``kind`` of two polynomials, bilinearly; refuses a
    product of more than MAX_MAGMATIC terms before building any."""
    size = len(a.terms) * len(b.terms)
    if size > MAX_MAGMATIC:
        raise ValueError(f"a product of {len(a.terms):,} by "
                         f"{len(b.terms):,} terms has {size:,} terms, "
                         f"above the ceiling of {MAX_MAGMATIC:,}")
    return a.product(b, lambda s, t: (kind, s, t))


def bnode(a, b):
    """Bilinear mutation bracket of two polynomials."""
    return _combine("b", a, b)


def mnode(a, b):
    """Bilinear ordinary product of two polynomials."""
    return _combine("m", a, b)


def fold(leaf, node):
    """A term walker that memoizes every subterm it meets, across all the
    terms it is given: leaf(name) at a leaf, node(kind, l, r) at a node
    whose children have values l and r."""
    cache = {}

    def go(t):
        r = cache.get(t)
        # not ``if not r``: a zero Elt or TermPoly is falsy
        if r is None:
            r = cache[t] = (leaf(t[1]) if t[0] == "v"
                            else node(t[0], go(t[1]), go(t[2])))
        return r

    return go


def substitute(poly, mapping):
    """Replace leaves by polynomials (names absent from mapping stay leaves)."""
    def leaf(name):
        r = mapping.get(name)
        return TermPoly.var(name) if r is None else r

    go = fold(leaf, _combine)
    return TermPoly.linear((go(t), c) for t, c in poly.terms.items())


def _relabel_occurrences(t, name, labels, counter):
    if t[0] == "v":
        if t[1] == name:
            i = counter[0]
            counter[0] += 1
            return ("v", labels[i])
        return t
    return (t[0],
            _relabel_occurrences(t[1], name, labels, counter),
            _relabel_occurrences(t[2], name, labels, counter))


def multilinearize(poly):
    """Full polarization: each k-fold variable becomes k fresh copies.

    A variable v occurring k > 1 times (the count must be the same in
    every monomial, which holds for homogeneous identities in
    characteristic 0) is replaced by v#1..v#k, summed over all k!
    assignments of the copies to its occurrences.
    """
    counts = _multidegree(poly, "polynomial")
    for name in sorted(counts):
        k = counts[name]
        if k <= 1:
            continue
        fresh = [f"{name}#{i}" for i in range(1, k + 1)]
        out = TermPoly.zero()
        for t, c in poly.terms.items():
            for perm in itertools.permutations(fresh):
                out += TermPoly.term(
                    _relabel_occurrences(t, name, perm, [0]), c)
        poly = out
    return poly


class Template:
    """Named identity template: a bracket polynomial over formal slots."""

    def __init__(self, name, slots, body):
        self.name = name
        self.slots = tuple(slots)
        self.arity = len(slots)
        extra = set(body.variables()) - set(slots)
        if extra:
            raise ValueError(f"template {name} uses undeclared slots {extra}")
        self.body = body

    def instantiate(self, args):
        """Slot-wise substitution; args are variable names or TermPolys."""
        if len(args) != self.arity:
            raise ValueError(f"{self.name} expects {self.arity} arguments, "
                             f"got {len(args)}")
        if all(isinstance(a, str) for a in args):
            return self.body.rename(dict(zip(self.slots, args)))
        mapping = {}
        for s, a in zip(self.slots, args):
            mapping[s] = TermPoly.var(a) if isinstance(a, str) else a
        return substitute(self.body, mapping)


def _v(n):
    return TermPoly.var(n)


def _assoc3(x, y, z):
    """Bracket associator <x, y, z> = <<x,y>,z> - <x,<y,z>>."""
    return bnode(bnode(x, y), z) - bnode(x, bnode(y, z))


def _build_templates():
    a, b, c, d, y = map(_v, "abcdy")
    s3 = list(itertools.permutations([a, b, c]))
    signs = [1, -1, -1, 1, 1, -1]

    f = TermPoly.zero()
    ftilde = TermPoly.zero()
    for sgn, (u, v2, w) in zip(signs, s3):
        f += bnode(bnode(u, v2), w).scale(sgn)
        ftilde += bnode(u, bnode(v2, w)).scale(sgn)

    wa = _assoc3(a, b, c) + _assoc3(b, c, a) - _assoc3(b, a, c)
    flex = _assoc3(a, b, c) + _assoc3(c, b, a)

    hbar = TermPoly.zero()
    for (u, v2, w) in s3:
        hbar += bnode(bnode(u, v2), bnode(w, d))
        hbar -= bnode(u, bnode(bnode(v2, w), d))

    # paper slot order (x1, x3, x2, x4) = (a, b, c, d)
    bullet_ad = bnode(a, d) + bnode(d, a)
    ibar = (_assoc3(c, bullet_ad, b)
            - (bnode(_assoc3(c, d, b), a) + bnode(a, _assoc3(c, d, b)))
            - (bnode(_assoc3(c, a, b), d) + bnode(d, _assoc3(c, a, b))))

    def lb(u, v2, w, z):
        return bnode(bnode(bnode(u, v2), w), z)

    conj4a = lb(a, b, c, d) + lb(c, d, a, b) - lb(a, d, c, b) - lb(c, b, a, d)

    conj4b = (bnode(bnode(a, b), bnode(d, c))
              + bnode(bnode(c, bnode(b, a)), d)
              + lb(b, a, c, d)
              - bnode(bnode(bnode(a, b), d), c)
              - lb(b, c, a, d)
              - lb(c, a, b, d))

    crit36 = TermPoly.zero()
    for sgn, (u, v2, w) in zip(signs, s3):
        crit36 += mnode(mnode(u, y), mnode(mnode(v2, y), w)).scale(sgn)
        crit36 -= mnode(mnode(mnode(mnode(u, y), v2), y), w).scale(sgn)

    circ = bnode(a, b) - bnode(b, a)
    bullet = bnode(a, b) + bnode(b, a)
    assoc = _assoc3(a, b, c)

    # Jordan identity <<z,z>,<y,z>> = <<<z,z>,y>,z>; together with
    # flexibility this is the noncommutative-Jordan condition.  Polarize
    # with multilinearize() to get the multilinear form.
    z = _v("z")
    jordan = (bnode(bnode(z, z), bnode(y, z))
              - bnode(bnode(bnode(z, z), y), z))

    ts = [
        Template("circ", "ab", circ),
        Template("bullet", "ab", bullet),
        Template("assoc", "abc", assoc),
        Template("f", "abc", f),
        Template("ftilde", "abc", ftilde),
        Template("wa", "abc", wa),
        Template("flex", "abc", flex),
        Template("hbar", "abcd", hbar),
        Template("ibar", "abcd", ibar),
        Template("conj4a", "abcd", conj4a),
        Template("conj4b", "abcd", conj4b),
        Template("jordan", ("y", "z"), jordan),
        Template("crit36", ("a", "b", "c", "y"), crit36),
    ]
    return {t.name: t for t in ts}


TEMPLATES = _build_templates()


class ParseError(ValueError):
    def __init__(self, msg, pos):
        super().__init__(f"{msg} at position {pos}")
        self.pos = pos


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-zA-Z_][a-zA-Z0-9_#]*)|(.))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or not m.group(0).strip():
            break
        num, ident, sym = m.groups()
        start = m.start(1) if num else m.start(2) if ident else m.start(3)
        if num:
            tokens.append(("num", int(num), start))
        elif ident:
            tokens.append(("ident", ident, start))
        elif sym in "<>(),+-*/":
            tokens.append((sym, sym, start))
        else:
            raise ParseError(f"unexpected character {sym!r}", start)
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t

    def poly(self):
        sign = 1
        if self.peek()[0] in "+-":
            sign = 1 if self.next()[0] == "+" else -1
        out = self.term().scale(sign)
        while self.peek()[0] in "+-":
            sign = 1 if self.next()[0] == "+" else -1
            out += self.term().scale(sign)
        return out

    def rational(self):
        t = self.expect("num")
        num = t[1]
        if self.peek()[0] == "/":
            self.next()
            den = self.expect("num")
            if den[1] <= 0:
                raise ParseError("denominator must be positive", den[2])
            return Fraction(num, den[1])
        return Fraction(num)

    def term(self):
        coeff = Fraction(1)
        if self.peek()[0] == "num":
            coeff = self.rational()
            if self.peek()[0] != "*":
                if coeff == 0:
                    return TermPoly.zero()
                raise ParseError("expected '*' after coefficient",
                                 self.peek()[2])
            self.next()
        out = self.factor()
        while self.peek()[0] == "*":
            self.next()
            out = mnode(out, self.factor())
        return out.scale(coeff)

    def factor(self):
        kind, val, pos = self.peek()
        if kind == "<":
            self.next()
            left = self.poly()
            self.expect(",")
            right = self.poly()
            self.expect(">")
            return bnode(left, right)
        if kind == "(":
            self.next()
            inner = self.poly()
            self.expect(")")
            return inner
        if kind == "ident":
            self.next()
            if self.peek()[0] == "(":
                self.next()
                args = [self.poly()]
                while self.peek()[0] == ",":
                    self.next()
                    args.append(self.poly())
                self.expect(")")
                tpl = TEMPLATES.get(val)
                if tpl is None:
                    raise ParseError(f"unknown function {val!r}", pos)
                if len(args) != tpl.arity:
                    raise ParseError(
                        f"{val} expects {tpl.arity} arguments", pos)
                return tpl.instantiate(args)
            return TermPoly.var(val)
        raise ParseError(f"unexpected token {val!r}", pos)


def parse(text):
    """Parse a bracket/product polynomial; see the module grammar."""
    p = _Parser(text)
    out = p.poly()
    p.expect("end")
    return out


def _render_term(t):
    if t[0] == "v":
        return t[1]
    if t[0] == "b":
        return f"<{_render_term(t[1])},{_render_term(t[2])}>"
    return f"({_render_term(t[1])}*{_render_term(t[2])})"


def render(poly):
    """Deterministic textual form; parse(render(p)) == p."""
    return signed_sum(((poly.terms[t], _render_term(t))
                       for t in sorted(poly.terms, key=term_sort_key)), "*")
