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
from math import comb

from .linalg import SpanReducer, sparse_vec
from .perm import (Elt, bracket, commutator, gkey, normalize_word,
                   param_degree, x_multidegree)
from .terms import fold


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
    return fold(lambda name: _resolve_leaf(name, assignment),
                lambda kind, a, b: bracket(a, b) if kind == "b" else a * b)


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
    letters = tuple(_xname(j) for j in indices)
    terms = {}
    for k in range(n):
        params = ("p",) * (n - 1 - k) + ("q",) * k
        terms[normalize_word(params + letters)] = (-1) ** k * comb(n - 1, k)
    return Elt(terms)


def _b3_value(i, j1, j2, rest):
    """p^(n-1-i) q^i x_{rest...} [x_{j2}, x_{j1}]."""
    n = len(rest) + 2
    params = ("p",) * (n - 1 - i) + ("q",) * i
    base = params + tuple(_xname(j) for j in rest)
    xj1, xj2 = _xname(j1), _xname(j2)
    return Elt({normalize_word(base + (xj2, xj1)): 1,
                normalize_word(base + (xj1, xj2)): -1})


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


def bracket_monomials(multidegree, kind="b"):
    """All monomials (as terms with ``kind`` nodes) of an x-multidegree."""
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
            out.append(_tree_term(shape, list(arr), kind))
    return out


def _key(multidegree):
    """Hashable form of a multidegree: sorted (name, count) pairs."""
    return tuple(sorted((n, c) for n, c in multidegree.items() if c))


def _component(key, cache):
    """The ComponentSpan of a multidegree key, memoised in ``cache``."""
    span = cache.get(key)
    if span is None:
        span = cache[key] = ComponentSpan(dict(key), cache)
    return span


class ComponentSpan:
    """Lazily grown span of the bracket expansions at one multidegree.

    The span is built from smaller components by bilinearity.  A bracket
    monomial of degree >= 2 is <u, v> with u, v bracket monomials whose
    multidegrees m1, m2 are nonzero and add up to this one, m.  For a
    fixed ordered split (m1, m2) the bracket is bilinear, so the span of
    all such <u, v> is the span of <a, b> with a running over a basis of
    the component at m1 and b over a basis of the component at m2.  Hence
    the component at m is spanned by these products over all ordered
    splits; the component of a single letter x is spanned by x.

    The basis of a component is the list of its elements whose insert was
    accepted.  Sub-components are grown completely and memoised in
    ``_cache`` by multidegree key (``is_mutation_element`` passes its own
    cache, so one dict holds both).  The component itself is grown only
    until a target is covered: products are inserted in chunks of 16 and
    the target is checked after each chunk.
    """

    def __init__(self, multidegree, _cache=None):
        self.multidegree = {n: c for n, c in multidegree.items() if c}
        if sum(self.multidegree.values()) < 1:
            raise ValueError("total degree must be >= 1")
        self._cache = {} if _cache is None else _cache
        self.reducer = SpanReducer()
        self.basis = []
        self._columns = {}
        self._stream = self._products()

    def _products(self):
        md = self.multidegree
        names = sorted(md, key=gkey)
        if sum(md.values()) == 1:
            yield Elt.gen(names[0])
            return
        for counts in itertools.product(*(range(md[n] + 1) for n in names)):
            m1 = dict(zip(names, counts))
            m2 = {n: md[n] - m1[n] for n in names}
            if not any(counts) or not any(m2.values()):
                continue
            left = _component(_key(m1), self._cache).full_basis()
            right = _component(_key(m2), self._cache).full_basis()
            for a in left:
                for b in right:
                    yield bracket(a, b)

    def _grow(self, count):
        """Insert the next ``count`` products; False if none were left."""
        grown = False
        for e in itertools.islice(self._stream, count):
            grown = True
            if self.reducer.insert(sparse_vec(e.terms, self._columns)):
                self.basis.append(e)
        return grown

    def full_basis(self):
        """A basis of the whole component, growing it to the end."""
        while self._grow(16):
            pass
        return self.basis

    def contains(self, e):
        v = sparse_vec(e.terms, self._columns)
        while not self.reducer.contains(v):
            if not self._grow(16):
                return False
        return True


def _split_by_multidegree(e):
    parts = {}
    for m, c in e.terms.items():
        parts.setdefault(_key(x_multidegree(m)), {})[m] = c
    return {k: Elt(v) for k, v in parts.items()}


def _canonical(key):
    """Relabel x-variables so a multidegree key becomes a canonical pattern.

    Bracket spans are equivariant under renaming the x-generators, so
    membership can be tested in one component per multiplicity pattern
    (largest multiplicity first, ties by original order).  Returns the
    canonical key and the renaming that produces it.
    """
    ranked = sorted(key, key=lambda nc: (-nc[1], gkey(nc[0])))
    mapping = {name: _xname(i + 1) for i, (name, _) in enumerate(ranked)}
    return tuple(sorted((mapping[n], c) for n, c in key)), mapping


def is_mutation_element(e, _cache=None):
    """Can e be written from X using only the mutation bracket?

    Decomposes by x-multidegree; each homogeneous part must have parameter
    degree = x-degree - 1 in every monomial (the mutation grading) and lie
    in the span of the bracket expansions at that multidegree.  That span
    is a ComponentSpan, built by bilinearity from the brackets of bases of
    smaller components rather than by expanding every bracket monomial.
    ``_cache``, when given, keeps the component spans (keyed by
    multidegree) across calls.
    """
    if not e:
        return True
    cache = {} if _cache is None else _cache
    for key, part in _split_by_multidegree(e).items():
        xdeg = sum(c for _, c in key)
        for m in part.terms:
            if param_degree(m) != xdeg - 1:
                return False
        ckey, mapping = _canonical(key)
        cpart = Elt({normalize_word(mapping.get(g, g)
                                    for g in prefix + (tail,)): c
                     for (prefix, tail), c in part.terms.items()})
        if not _component(ckey, cache).contains(cpart):
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
    multilinear_dim (the number of multilinear B elements).  Spanning is
    certified for every multidegree m with 2 <= |m| <= ``degree``: every
    B element passes ``is_mutation_element``, so span B_m lies in the
    span S_m of the bracket expansions at m, and the rank of B_m equals
    dim S_m, the size of the ComponentSpan basis at the canonical
    relabelling of m (renaming x-variables preserves bracket spans);
    hence span B_m = S_m.  Closure is checked by brute force: the bracket
    of every B-pair with combined x-degree up to ``closure_degree``
    (default: ``degree``) lies in the span of B at its multidegree.
    """
    if degree < 2:
        raise ValueError("degree must be >= 2")
    if closure_degree is None:
        closure_degree = degree
    elements = enumerate_B(n_vars, degree)

    columns = {}
    red = SpanReducer()
    independent = all(red.insert(sparse_vec(b.value.terms, columns))
                      for b in elements)

    by_mdeg = {}
    for b in elements:
        key = _key(x_multidegree(next(iter(b.value.terms))))
        by_mdeg.setdefault(key, []).append(b)

    b_spans = {}

    def b_span(key):
        """A reducer over the B elements of multidegree ``key``."""
        if key not in b_spans:
            red, local = SpanReducer(), {}
            for b in by_mdeg.get(key, []):
                red.insert(sparse_vec(b.value.terms, local))
            b_spans[key] = red, local
        return b_spans[key]

    cache = {}
    spans = all(is_mutation_element(b.value, cache) for b in elements)
    for d in range(2, degree + 1):
        for mdeg in _multidegrees(n_vars, d):
            key = _key(mdeg)
            ckey, _ = _canonical(key)
            if b_span(key)[0].dim != len(_component(ckey, cache).full_basis()):
                spans = False

    # A bracket of multihomogeneous elements is multihomogeneous, with the
    # sum of their multidegrees.
    closed = True
    for k1, group1 in by_mdeg.items():
        for k2, group2 in by_mdeg.items():
            key = _key(Counter(dict(k1)) + Counter(dict(k2)))
            if sum(c for _, c in key) > closure_degree:
                continue
            red, local = b_span(key)
            for b1 in group1:
                for b2 in group2:
                    prod = bracket(b1.value, b2.value)
                    if not red.contains(sparse_vec(prod.terms, local)):
                        closed = False

    ml_key = _key(dict.fromkeys(map(_xname, range(1, n_vars + 1)), 1))
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


def check_relations():
    """Verify the six bracket relations for all elements.

    The relations are checked at the generators (x1, x2, x3), which
    proves them for every triple (a, b, c) of the free perm algebra: the
    homomorphism that sends x1, x2, x3 to a, b, c and fixes p and q maps
    each side of a relation at the generators to the same side at
    (a, b, c), since both sides are sums of products of x1, x2, x3, p, q.

    Returns {"passed": bool, "failures": [(relation, witness), ...]}.
    """
    a, b, c = Elt.gen("x1"), Elt.gen("x2"), Elt.gen("x3")
    failures = [(name, (str(a), str(b), str(c)))
                for name, lhs, rhs in _relation_set(a, b, c) if lhs != rhs]
    return {"passed": not failures, "failures": failures}
