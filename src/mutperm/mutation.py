"""Expansion of bracket polynomials into the free perm algebra, and the
spanning/basis set B of the free mutation algebra.

``expand`` is the homomorphism sending <u, v> to (u p) v - (v q) u inside
P(X u {p, q}).  The set B = X u B1 u B2 u B3 consists of

* B1: x_i p x_j - x_j q x_i,
* B2: (p-q)^(n-1) x_{j_n} ... x_{j_1} with the non-tail letters sorted,
* B3: p^(n-1-i) q^i x_{j_n} ... x_{j_3} [x_{j_2}, x_{j_1}] with
  j_2 > j_1 <= j_3 <= ... <= j_n and 1 <= i <= n-1,

and is a basis of the x-generated mutation subalgebra; the multilinear
component in n variables has dimension n + (n-1)^2.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .linalg import SpanReducer
from .perm import (Elt, bracket, commutator, gkey, mono_key, param_degree,
                   x_multidegree)
from .terms import TermPoly


def _resolve_leaf(name, assignment):
    if assignment and name in assignment:
        return assignment[name]
    try:
        return Elt.gen(name)
    except ValueError:
        raise ValueError(f"unresolved variable {name!r}") from None


def _expander(assignment=None):
    """A term -> perm element expansion function that memoizes every
    subterm it expands, across all the terms it is given."""
    cache = {}

    def go(t):
        r = cache.get(t)
        if r is not None:
            return r
        if t[0] == "v":
            r = _resolve_leaf(t[1], assignment)
        elif t[0] == "b":
            r = bracket(go(t[1]), go(t[2]))
        else:
            r = go(t[1]) * go(t[2])
        cache[t] = r
        return r

    return go


def expand(poly, assignment=None):
    """Expand a bracket/product polynomial to a perm element.

    Leaves default to the like-named generator (x<i>, p or q); other names
    must appear in ``assignment``.  'b' nodes become the mutation product,
    'm' nodes the ordinary perm product.
    """
    go = _expander(assignment)
    out = Elt.zero()
    for t, c in poly.terms.items():
        out = out + go(t).scale(c)
    return out


@dataclass
class BSetElement:
    family: str          # "X", "B1", "B2" or "B3"
    data: tuple          # index tuple identifying the element
    value: Elt


def _xname(i):
    return f"x{i}"


def _b2_value(indices):
    """(p-q)^(n-1) x_{j_n} ... x_{j_1} for indices = (j_n, ..., j_1)."""
    n = len(indices)
    xs = tuple(_xname(j) for j in indices[:-1])
    tail = _xname(indices[-1])
    terms = {}
    for k in range(n):
        params = ("p",) * (n - 1 - k) + ("q",) * k
        prefix = tuple(sorted(params + xs, key=gkey))
        terms[(prefix, tail)] = Fraction((-1) ** k * comb(n - 1, k))
    return Elt(terms)


def _b3_value(i, j1, j2, rest):
    """p^(n-1-i) q^i x_{rest...} [x_{j2}, x_{j1}]."""
    n = len(rest) + 2
    params = ("p",) * (n - 1 - i) + ("q",) * i
    base = params + tuple(_xname(j) for j in rest)
    pre_a = tuple(sorted(base + (_xname(j2),), key=gkey))
    pre_b = tuple(sorted(base + (_xname(j1),), key=gkey))
    return Elt({(pre_a, _xname(j1)): Fraction(1),
                (pre_b, _xname(j2)): Fraction(-1)})


def enumerate_B(n_vars, max_degree):
    """All B elements with x-degree <= max_degree over x1..x{n_vars}.

    B1 includes the diagonal i = j (the defining set-builder does not
    exclude it and the diagonal elements are nonzero).
    """
    if n_vars < 1 or max_degree < 1:
        raise ValueError("n_vars and max_degree must be positive")
    out = []
    for i in range(1, n_vars + 1):
        out.append(BSetElement("X", (i,), Elt.gen(_xname(i))))
    if max_degree >= 2:
        for i in range(1, n_vars + 1):
            for j in range(1, n_vars + 1):
                val = (Elt.gen(_xname(i)) * Elt.gen("p") * Elt.gen(_xname(j))
                       - Elt.gen(_xname(j)) * Elt.gen("q") * Elt.gen(_xname(i)))
                out.append(BSetElement("B1", (i, j), val))
    for n in range(3, max_degree + 1):
        # B2: sorted non-tail letters j_2 <= ... <= j_n, free tail j_1.
        for rest in itertools.combinations_with_replacement(
                range(1, n_vars + 1), n - 1):
            for j1 in range(1, n_vars + 1):
                indices = tuple(reversed(rest)) + (j1,)
                out.append(BSetElement("B2", (j1,) + rest,
                                       _b2_value(indices)))
        # B3: j_2 > j_1 <= j_3 <= ... <= j_n, parameter split 1 <= i <= n-1.
        for j1 in range(1, n_vars + 1):
            for j2 in range(j1 + 1, n_vars + 1):
                for rest in itertools.combinations_with_replacement(
                        range(j1, n_vars + 1), n - 2):
                    for i in range(1, n):
                        out.append(BSetElement(
                            "B3", (i, j1, j2) + rest,
                            _b3_value(i, j1, j2, rest)))
    return out


def tree_shapes(n):
    """Binary tree shapes with n leaves, smaller left subtree first."""
    if n == 1:
        return [None]
    out = []
    for k in range(1, n):
        for left in tree_shapes(k):
            for right in tree_shapes(n - k):
                out.append((k, left, right))
    return out


def _tree_term(shape, leaves, kind="b"):
    if shape is None:
        return ("v", leaves[0])
    k, left, right = shape
    return (kind, _tree_term(left, leaves[:k], kind),
            _tree_term(right, leaves[k:], kind))


def bracket_monomials(multidegree):
    """All bracket monomials (as terms) with the given x-multidegree."""
    letters = []
    for name in sorted(multidegree, key=gkey):
        letters.extend([name] * multidegree[name])
    n = len(letters)
    if n < 1:
        raise ValueError("total degree must be >= 1")
    seen = set()
    arrangements = []
    for p in itertools.permutations(letters):
        if p not in seen:
            seen.add(p)
            arrangements.append(p)
    out = []
    for shape in tree_shapes(n):
        for arr in arrangements:
            out.append(_tree_term(shape, list(arr)))
    return out


def bracket_span(multidegree):
    """Expansions of all bracket monomials at the multidegree."""
    go = _expander()
    return [go(t) for t in bracket_monomials(multidegree)]


def _mono_index(elts):
    monos = sorted({m for e in elts for m in e.terms}, key=mono_key)
    idx = {m: i for i, m in enumerate(monos)}
    return monos, idx


def _as_vec(e, idx):
    return {idx[m]: c for m, c in e.terms.items()}


class ComponentSpan:
    """Lazily grown span of the bracket expansions at one multidegree.

    Membership of targets is confirmed as soon as the partial span covers
    them; bracket monomials are only expanded until then.
    """

    def __init__(self, multidegree):
        self.multidegree = dict(multidegree)
        self._stream = iter(bracket_monomials(multidegree))
        self.reducer = SpanReducer()
        self._index = {}
        self._exhausted = False

    def _vec(self, e):
        idx = self._index
        v = {}
        for m, c in e.terms.items():
            k = idx.get(m)
            if k is None:
                k = idx[m] = len(idx)
            v[k] = c
        return v

    def contains(self, e):
        v = self._vec(e)
        if self.reducer.contains(v):
            return True
        while not self._exhausted:
            grown = False
            for t in itertools.islice(self._stream, 16):
                grown = True
                self.reducer.insert(self._vec(expand(TermPoly.term(t))))
            if not grown:
                self._exhausted = True
                break
            if self.reducer.contains(v):
                return True
        return self.reducer.contains(v)


def _split_by_multidegree(e):
    parts = {}
    for m, c in e.terms.items():
        key = tuple(sorted(x_multidegree(m).items()))
        parts.setdefault(key, {})[m] = c
    return {k: Elt(v) for k, v in parts.items()}


def _canonicalize_part(key, part):
    """Relabel x-variables so the multidegree becomes a canonical pattern.

    Bracket spans are equivariant under renaming the x-generators, so
    membership can be tested in one component per multiplicity pattern
    (largest multiplicity first, ties by original order).
    """
    ranked = sorted(key, key=lambda nc: (-nc[1], gkey(nc[0])))
    mapping = {name: _xname(i + 1) for i, (name, _) in enumerate(ranked)}
    ckey = tuple(sorted((mapping[n], c) for n, c in key))
    terms = {}
    for (prefix, tail), c in part.terms.items():
        mono = (tuple(sorted((mapping.get(g, g) for g in prefix), key=gkey)),
                mapping.get(tail, tail))
        terms[mono] = c
    return ckey, Elt(terms)


def is_mutation_element(e, _cache=None):
    """Can e be written from X using only the mutation bracket?

    Decomposes by x-multidegree; each homogeneous part must have parameter
    degree = x-degree - 1 in every monomial (the mutation grading) and lie
    in the span of the bracket expansions at that multidegree.
    """
    if not e:
        return True
    for key, part in _split_by_multidegree(e).items():
        xdeg = sum(c for _, c in key)
        for m in part.terms:
            if param_degree(m) != xdeg - 1:
                return False
        ckey, cpart = _canonicalize_part(key, part)
        if _cache is not None and ckey in _cache:
            span = _cache[ckey]
        else:
            span = ComponentSpan(dict(ckey))
            if _cache is not None:
                _cache[ckey] = span
        if not span.contains(cpart):
            return False
    return True


def _multidegrees(n_vars, degree):
    """All x-multidegrees of exact total ``degree`` over x1..x{n_vars}."""
    for combo in itertools.combinations_with_replacement(
            range(1, n_vars + 1), degree):
        yield dict(Counter(_xname(i) for i in combo))


def verify_basis_B(n_vars, degree, closure_degree=None):
    """Check that B is an independent, spanning, bracket-closed set.

    Returns a dict with keys independent, spans, closed_under_bracket and
    multilinear_dim.  Spanning is certified per homogeneous multidegree up
    to ``degree``; closure for all B-pairs with combined x-degree up to
    ``closure_degree`` (default: ``degree``).
    """
    if degree < 2:
        raise ValueError("degree must be >= 2")
    if closure_degree is None:
        closure_degree = degree
    elements = enumerate_B(n_vars, degree)

    monos, idx = _mono_index([b.value for b in elements])
    red = SpanReducer()
    independent = all(red.insert(_as_vec(b.value, idx)) for b in elements)

    by_mdeg = {}
    for b in elements:
        key = tuple(sorted(x_multidegree(next(iter(b.value.terms))).items()))
        by_mdeg.setdefault(key, []).append(b)

    def b_span(key):
        red = SpanReducer()
        local = {}

        def vec(e):
            v = {}
            for m, c in e.terms.items():
                k = local.get(m)
                if k is None:
                    k = local[m] = len(local)
                v[k] = c
            return v

        for b in by_mdeg.get(key, []):
            red.insert(vec(b.value))
        return red, vec

    spans = True
    for d in range(2, degree + 1):
        for mdeg in _multidegrees(n_vars, d):
            key = tuple(sorted(mdeg.items()))
            red, vec = b_span(key)
            for e in bracket_span(mdeg):
                if not red.contains(vec(e)):
                    spans = False

    closed = True
    span_cache = {}
    degrees = [sum(x_multidegree(next(iter(b.value.terms))).values())
               for b in elements]
    for b1, d1 in zip(elements, degrees):
        for b2, d2 in zip(elements, degrees):
            if d1 + d2 > closure_degree:
                continue
            prod = bracket(b1.value, b2.value)
            if not prod:
                continue
            key = tuple(sorted(x_multidegree(next(iter(prod.terms))).items()))
            if key not in span_cache:
                span_cache[key] = b_span(key)
            red, vec = span_cache[key]
            ok = all(red.contains(vec(part))
                     for part in _split_by_multidegree(prod).values())
            if not ok:
                closed = False

    ml_key = tuple(sorted({(_xname(i), 1) for i in range(1, n_vars + 1)}))
    multilinear_dim = len(by_mdeg.get(ml_key, []))

    return {"independent": independent, "spans": spans,
            "closed_under_bracket": closed,
            "multilinear_dim": multilinear_dim}


def _relation_set(a, b, c):
    """The six perm-algebra bracket relations as (name, lhs, rhs) triples."""
    p, q = Elt.gen("p"), Elt.gen("q")
    return [
        ("<a,b> = (p-q)ab + q[a,b]",
         bracket(a, b), (p - q) * (a * b) + q * commutator(a, b)),
        ("<a,bc> = b<a,c>", bracket(a, b * c), b * bracket(a, c)),
        ("<ab,c> = a<b,c>", bracket(a * b, c), a * bracket(b, c)),
        ("<a,[b,c]> = p a[b,c]",
         bracket(a, commutator(b, c)), p * (a * commutator(b, c))),
        ("<[a,b],c> = -q c[a,b]",
         bracket(commutator(a, b), c), -(q * (c * commutator(a, b)))),
        ("<b,<a,c>> = ap<b,c> - cq<b,a>",
         bracket(b, bracket(a, c)),
         (a * p) * bracket(b, c) - (c * q) * bracket(b, a)),
    ]


def check_relations(samples=20, seed=0):
    """Verify the six bracket relations symbolically and on random elements.

    Returns {"passed": bool, "failures": [(relation, witness), ...]}.
    """
    import random

    failures = []
    gens = [Elt.gen("x1"), Elt.gen("x2"), Elt.gen("x3")]
    cases = [tuple(gens)]
    rng = random.Random(seed)
    names = ["x1", "x2", "x3", "p", "q"]
    for _ in range(samples):
        case = []
        for _ in range(3):
            e = Elt.zero()
            for _ in range(rng.randint(1, 3)):
                length = rng.randint(1, 3)
                letters = [rng.choice(names) for _ in range(length)]
                coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                mono = (tuple(sorted(letters[:-1], key=gkey)), letters[-1])
                e = e + Elt.monomial(mono, coeff)
            case.append(e)
        cases.append(tuple(case))
    for a, b, c in cases:
        for name, lhs, rhs in _relation_set(a, b, c):
            if lhs != rhs:
                failures.append((name, (str(a), str(b), str(c))))
    return {"passed": not failures, "failures": failures}
