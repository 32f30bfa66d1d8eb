"""The free perm algebra on generators x1, x2, ... and the parameters p, q.

A perm algebra is associative and left-commutative (abc = bac), so a
left-normed word is determined by the multiset of all letters except the
last one, plus the last letter.  A canonical monomial is therefore a pair
(prefix, tail): prefix sorted ascending, tail free.  Generators are
ordered x1 < x2 < ... < p < q.

Monomials are plain tuples ``(prefix_tuple, tail)`` so they can be dict
keys; elements (Elt) are finite rational linear combinations of monomials.
Coefficients are ``int`` or ``Fraction``: integral ones are kept as
``int`` (see ``Elt``), so integral work, such as every bracket of
generators and every element of the basis B, runs in ``int`` arithmetic.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from fractions import Fraction

_X_RE = re.compile(r"^x([1-9][0-9]*)$")


def _coeff(c):
    """A rational coefficient as an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


@functools.cache
def gkey(g):
    """Sort key realizing x1 < x2 < ... < p < q."""
    if g == "p":
        return (1, 0)
    if g == "q":
        return (2, 0)
    m = _X_RE.match(g)
    if not m:
        raise ValueError(f"unknown generator {g!r}")
    return (0, int(m.group(1)))


def is_x(g):
    return g not in ("p", "q")


def normalize_word(letters):
    """Canonical monomial of a nonempty word of generators."""
    letters = tuple(letters)
    if not letters:
        raise ValueError("empty word")
    for g in letters:
        gkey(g)
    return (tuple(sorted(letters[:-1], key=gkey)), letters[-1])


def mono_mul(a, b):
    """Product of two canonical monomials (left-normed concatenation)."""
    (pa, ta), (pb, tb) = a, b
    return (tuple(sorted(pa + (ta,) + pb, key=gkey)), tb)


def mono_degree(m):
    return len(m[0]) + 1


def mono_key(m):
    """Global monomial order: degree, then tail, then prefix lex."""
    prefix, tail = m
    return (len(prefix) + 1, gkey(tail), tuple(gkey(g) for g in prefix))


def mono_str(m):
    prefix, tail = m
    return " ".join(prefix + (tail,))


def x_multidegree(m):
    """Counter of x-generators of a monomial."""
    prefix, tail = m
    return Counter(g for g in prefix + (tail,) if is_x(g))


def param_degree(m):
    prefix, tail = m
    return sum(1 for g in prefix + (tail,) if not is_x(g))


class Elt:
    """Element of the free perm algebra: dict monomial -> nonzero coefficient.

    The constructor and ``scale`` store an integral coefficient as an int
    and any other as a Fraction; sums and products of int coefficients
    stay int.  Since ``Fraction(2) == 2`` and the two hash alike, equality,
    hashing and rendering do not depend on which of the two is stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for m, c in terms.items():
                c = _coeff(c)
                if c:
                    t[m] = c
        self.terms = t

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def gen(cls, name):
        gkey(name)
        return cls({((), name): 1})

    @classmethod
    def monomial(cls, m, coeff=1):
        return cls({m: coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Elt) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        r = Elt.__new__(Elt)
        r.terms = out
        return r

    def __neg__(self):
        r = Elt.__new__(Elt)
        r.terms = {m: -c for m, c in self.terms.items()}
        return r

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Elt):
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = mono_mul(m1, m2)
                    nc = out.get(m, 0) + c1 * c2
                    if nc:
                        out[m] = nc
                    else:
                        out.pop(m, None)
            r = Elt.__new__(Elt)
            r.terms = out
            return r
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = _coeff(c)
        if not c:
            return Elt()
        return Elt({m: c * v for m, v in self.terms.items()})

    def monomials(self):
        return sorted(self.terms, key=mono_key)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in self.monomials():
            c = self.terms[m]
            body = mono_str(m)
            mag = abs(c)
            word = body if mag == 1 else f"{mag} {body}"
            if not parts:
                parts.append(word if c > 0 else f"-{word}")
            else:
                parts.append(("+ " if c > 0 else "- ") + word)
        return " ".join(parts)

    __repr__ = __str__


def word_elt(*letters):
    """Elt of a single left-normed word, e.g. word_elt('x2','x1','x3')."""
    return Elt.monomial(normalize_word(letters))


def commutator(a, b):
    """[a, b] = ab - ba."""
    return a * b - b * a


_P = None
_Q = None


def _params():
    global _P, _Q
    if _P is None:
        _P, _Q = Elt.gen("p"), Elt.gen("q")
    return _P, _Q


def bracket(a, b):
    """Mutation product <a, b> = (a p) b - (b q) a inside the free perm algebra."""
    p, q = _params()
    return (a * p) * b - (b * q) * a


def multilinear_monomials(n):
    """All canonical monomials multilinear in x1..xn with no parameters."""
    names = [f"x{i}" for i in range(1, n + 1)]
    out = []
    for tail in names:
        prefix = tuple(g for g in names if g != tail)
        out.append((prefix, tail))
    return sorted(out, key=mono_key)
