"""The free perm algebra on generators x1, x2, ... and the parameters p, q.

A perm algebra is associative and left-commutative (abc = bac), so a
left-normed word is determined by the multiset of all letters except the
last one, plus the last letter.  A canonical monomial is therefore a pair
(prefix, tail): prefix sorted ascending, tail free.  Generators are
ordered x1 < x2 < ... < p < q.

Monomials are plain tuples ``(prefix_tuple, tail)`` so they can be dict
keys; elements (Elt) are finite rational linear combinations of monomials.
Coefficients are ``int`` or exact fractions: integral ones are kept as
``int`` (see ``Elt``), so integral work, such as every bracket of
generators and every element of the basis B, runs in ``int`` arithmetic.
"""

from __future__ import annotations

import functools
import re
from collections import Counter

from .linalg import Combination, signed_sum

_X_RE = re.compile(r"^x([1-9][0-9]*)$")


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
    # sorting checks every prefix letter through gkey, in order
    prefix = tuple(sorted(letters[:-1], key=gkey))
    gkey(letters[-1])
    return (prefix, letters[-1])


def mono_mul(a, b):
    """Product of two canonical monomials (left-normed concatenation)."""
    (pa, ta), (pb, tb) = a, b
    return (tuple(sorted(pa + (ta,) + pb, key=gkey)), tb)


def mono_key(m):
    """Global monomial order: degree, then tail, then prefix lex."""
    prefix, tail = m
    return (len(prefix) + 1, gkey(tail), tuple(gkey(g) for g in prefix))


def monomial_index(elts):
    """The monomials of the Elts in mono_key order, and their positions."""
    monos = sorted({m for e in elts for m in e.terms}, key=mono_key)
    return monos, {m: i for i, m in enumerate(monos)}


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


class Elt(Combination):
    """Element of the free perm algebra: dict monomial -> nonzero coefficient.

    The arithmetic is ``linalg.Combination``'s, with integral coefficients
    stored as int; products of int coefficients stay int.
    """

    __slots__ = ()

    @classmethod
    def gen(cls, name):
        gkey(name)
        return cls({((), name): 1})

    @classmethod
    def monomial(cls, m, coeff=1):
        return cls({m: coeff})

    def __mul__(self, other):
        if isinstance(other, Elt):
            return self.product(other, mono_mul)
        return self.scale(other)

    def monomials(self):
        return sorted(self.terms, key=mono_key)

    def __str__(self):
        return signed_sum(((self.terms[m], mono_str(m))
                           for m in self.monomials()), " ")

    __repr__ = __str__


def word_elt(*letters):
    """Elt of a single left-normed word, e.g. word_elt('x2','x1','x3')."""
    return Elt.monomial(normalize_word(letters))


def commutator(a, b):
    """[a, b] = ab - ba."""
    return a * b - b * a


_P = Elt.gen("p")
_Q = Elt.gen("q")


def bracket(a, b):
    """Mutation product <a, b> = (a p) b - (b q) a inside the free perm algebra."""
    return (a * _P) * b - (b * _Q) * a


def multilinear_monomials(n):
    """All canonical monomials multilinear in x1..xn with no parameters."""
    names = [f"x{i}" for i in range(1, n + 1)]
    out = []
    for tail in names:
        prefix = tuple(g for g in names if g != tail)
        out.append((prefix, tail))
    return sorted(out, key=mono_key)
