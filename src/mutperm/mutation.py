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
from .perm import Elt, bracket, commutator, gkey, is_x, normalize_word
from .terms import fold


def _resolve_leaf(name, assignment):
    if assignment and name in assignment:
        return assignment[name]
    try:
        return Elt.gen(name)
    except ValueError:
        raise ValueError(f"unresolved variable {name!r}") from None


def expand(poly, assignment=None):
    """Expand a bracket/product polynomial to a perm element.

    Leaves default to the like-named generator (x<i>, p or q); other names
    must appear in ``assignment``.  'b' nodes become the mutation product,
    'm' nodes the ordinary perm product.  Every subterm is expanded once,
    however many terms share it.
    """
    go = fold(lambda name: _resolve_leaf(name, assignment),
              lambda kind, a, b: bracket(a, b) if kind == "b" else a * b)
    return Elt.linear((go(t), c) for t, c in poly.terms.items())


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


def _tree_term(shape, leaves):
    if shape is None:
        return ("v", leaves[0])
    k, left, right = shape
    return ("b", _tree_term(left, leaves[:k]), _tree_term(right, leaves[k:]))


def bracket_monomials(multidegree):
    """All bracket monomials (as terms) of an x-multidegree."""
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


def _key(multidegree):
    """Hashable form of a multidegree: sorted (name, count) pairs."""
    return tuple(sorted((n, c) for n, c in multidegree.items() if c))


def _canonical(key):
    """Relabel x-variables so a multidegree key becomes a canonical pattern.

    An injective renaming of x-generators extends to an automorphism of
    the free perm algebra that fixes p and q.  It commutes with the
    bracket <u, v> = (u p) v - (v q) u, so it maps the bracket monomials
    of a multidegree, and the span of their expansions, onto those of the
    renamed multidegree.  One span per multiplicity pattern (largest
    multiplicity first, ties by original order) thus serves every
    multidegree renamed to it.  Returns the canonical key and the
    renaming that produces it.
    """
    ranked = sorted(key, key=lambda nc: (-nc[1], gkey(nc[0])))
    mapping = {name: _xname(i + 1) for i, (name, _) in enumerate(ranked)}
    return tuple(sorted((mapping[n], c) for n, c in key)), mapping


def _rename(terms, mapping):
    """The Elt of ``terms`` (monomial -> coefficient) with each generator
    g renamed to mapping.get(g, g), for ``mapping`` an injective renaming
    of all their x-generators to x-generators.  One that keeps them in
    order keeps each prefix sorted, so it skips ``normalize_word``."""
    get = mapping.get
    keys = [gkey(mapping[g]) for g in sorted(mapping, key=gkey)]
    if keys == sorted(keys):
        return Elt({(tuple(map(get, prefix, prefix)), get(tail, tail)): c
                    for (prefix, tail), c in terms.items()})
    return Elt({normalize_word(get(g, g) for g in prefix + (tail,)): c
                for (prefix, tail), c in terms.items()})


def is_mutation_element(e, _cache=None):
    """Can e be written from X using only the mutation bracket?

    Decomposes e by x-multidegree; the part at multidegree m, of x-degree
    n over k distinct letters, must lie in the span S_m of the bracket
    expansions at m.  That is decided in closed form from O(terms) sums.
    Let A_m be spanned by the n*k monomials of multidegree m with n - 1
    parameters and an x tail, write P_i = p^(n-1-i) q^i, and for E in A_m
    let sigma_i(E) be the sum of its coefficients at the monomials with i
    q's.  Let U_m = {E in A_m : sigma_i = (-1)^i C(n-1, i) sigma_0 for
    1 <= i <= n-1}.  Then S_m = U_m, except at m = {s, t} with s != t,
    where S_m is spanned by <s, t> = (s p, t) - (t q, s) and <t, s>, so E
    is in S_m iff c(s p, t) + c(t q, s) = 0 = c(t p, s) + c(s q, t).  A
    part with a monomial outside A_m (wrong grading or a p/q tail) is in
    no S_m.

    Proof.  S_m lies in U_m: the homomorphism g into Q[p, q] (commutative,
    so a perm algebra) that sends every x to 1 has g(<u, v>) = (p - q)
    g(u) g(v), so every bracket monomial of degree n maps to (p - q)^(n-1);
    and <u, v> = (u p) v - (v q) u takes each tail from u or v, an x.  At
    n = 1 both are the line of x, at m = {s, s} the line of <s, s>, and at
    n = 3 dim S_m = 3k - 2 = dim U_m (1, 4, 7 for k = 1, 2, 3, the ranks
    of the expansions of all bracket monomials).  For n >= 4, U_m is ker g
    plus the line of a bracket monomial (its sigma_0 is 1), and ker g is
    spanned by the tail differences D_i(s, t) = (P_i + m - t, t) -
    (P_i + m - s, s).  Take a letter x with s, t in m - x.  The x-tail
    terms cancel in <x, D_i(m - x)> = D_i(m) for i <= n - 2 and in
    <D_(n-2)(m - x), x> = -D_(n-1)(m), so by induction from n = 3, where
    ker g lies in U = S, every D_i(m) is in S_m.

    ``_cache`` is accepted and ignored.
    """
    parts, pairs = {}, {}
    for (prefix, tail), c in e.terms.items():
        if not is_x(tail):
            return False
        nq = prefix.count("q")
        n = len(prefix) + 1 - nq - prefix.count("p")
        if len(prefix) != 2 * n - 2:
            return False
        xs = prefix[:n - 1]        # a canonical prefix lists its x's first
        if n == 2 and xs[0] != tail:
            # the monomial's place in <a, b> = (a p, b) - (b q, a)
            ab = (tail, xs[0]) if nq else (xs[0], tail)
            pairs[ab] = pairs.get(ab, 0) + c
        else:
            sigma = parts.setdefault(tuple(sorted(xs + (tail,))), [0] * n)
            sigma[nq] += c
    return (not any(pairs.values())
            and all(s == (-1) ** i * comb(len(sigma) - 1, i) * sigma[0]
                    for sigma in parts.values()
                    for i, s in enumerate(sigma)))


def _multidegrees(n_vars, degree):
    """All x-multidegrees of exact total ``degree`` over x1..x{n_vars}."""
    for combo in itertools.combinations_with_replacement(
            range(1, n_vars + 1), degree):
        yield dict(Counter(_xname(i) for i in combo))


def _bracket_span(key, by_mdeg):
    """T_c for the multidegree key c, with its columns: the span of c's
    letter if |c| = 1, else of the brackets <a, b> with a in B_m1 and b in
    B_m2 (``by_mdeg``) over the ordered splits m1 + m2 = c into nonzero
    multidegrees."""
    md = dict(key)
    names = sorted(md, key=gkey)
    span, columns = SpanReducer(), {}
    if sum(md.values()) == 1:
        span.insert(sparse_vec(Elt.gen(names[0]).terms, columns))
        return span, columns
    for counts in itertools.product(*(range(md[n] + 1) for n in names)):
        m2 = {n: md[n] - c for n, c in zip(names, counts)}
        if any(counts) and any(m2.values()):
            right = by_mdeg.get(_key(m2), [])
            for a in by_mdeg.get(_key(dict(zip(names, counts))), []):
                for b in right:
                    span.insert(sparse_vec(bracket(a, b).terms, columns))
    return span, columns


def verify_basis_B(n_vars, degree, closure_degree=None):
    """Check that B is an independent, spanning, bracket-closed set.

    Returns a dict with keys independent, spans, closed_under_bracket and
    multilinear_dim (the number of multilinear B elements).  B elements
    are multihomogeneous in x, so span B is the direct sum over the
    x-multidegrees m of span B_m, B_m being the B elements of multidegree
    m.  For each m over x1..x{n_vars} with 1 <= |m| <= ``degree``, let
    r_m be the rank of B_m, in a reducer of its own.  B is independent
    when every r_m = |B_m|.

    B spans when, for every m with canonical pattern c (``_canonical``),
    B_m renamed to c lies in T_c and r_m = dim T_c.  T_c is spanned by x1
    if |c| = 1, and otherwise by the brackets <a, b> with a in B_m1 and b
    in B_m2 over the ordered splits m1 + m2 = c into nonzero multidegrees.
    Proof, by induction on |m|, that then span B_m = S_m, the span of the
    expansions of the bracket monomials of multidegree m.  S_x is spanned
    by x.  For |m| >= 2 a bracket monomial is <u, v> with u, v bracket
    monomials of multidegrees m1 + m2 = m, so by bilinearity S_m is
    spanned by <a, b> over bases a of S_m1 and b of S_m2.  The splits of
    c are over x1..xk with k <= n_vars and have smaller degree, so by
    induction S_m1 = span B_m1, and T_c = S_c.  B_m renamed lies in S_c
    and has rank dim S_c, so it spans S_c; renaming back (``_canonical``)
    gives span B_m = S_m.  The closed form of ``is_mutation_element`` is
    not used.

    That check runs in full once per composition, the multiplicities of
    m in letter order: (2, 1) for {x2: 2, x5: 1}.  Let mu_m rename the
    letters of m, in order, to x1..xk; it keeps their order, so
    ``_rename`` skips ``normalize_word``.  The first multidegree m0 of a
    composition, the one on x1..xk, is checked in full.  A later m whose
    mu_m(B_m) equals mu_m0(B_m0), element for element and in order, takes
    m0's flags.  Proof: B_m and B_m0 are written in the letters of m and
    m0, and mu = mu_m^-1 mu_m0 renames x-generators injectively and fixes
    p and q, so it is an automorphism of the free perm algebra that
    commutes with the bracket (``_canonical``).  It maps the bracket
    monomials of m0 onto those of m, so mu(S_m0) = S_m, and the equality
    gives mu(B_m0) = B_m.  So r_m = r_m0, |B_m| = |B_m0|, and span B_m =
    S_m exactly when span B_m0 = S_m0.  Any other B_m, a faulty one
    included, is checked in full.

    Closure is the same flag: when B spans, <B_m1, B_m2> lies in
    S_(m1+m2) = span B_(m1+m2) whenever |m1| + |m2| <= ``degree``, and at
    a canonical pattern c the check tests this literally, as span B_c =
    T_c.  ``closure_degree`` may be None or at most ``degree``; B is not
    certified above ``degree``, so a larger value raises ValueError.
    """
    if degree < 2:
        raise ValueError("degree must be >= 2")
    if closure_degree is not None and closure_degree > degree:
        raise ValueError(f"closure_degree {closure_degree} exceeds "
                         f"degree {degree}")
    by_mdeg = {}
    for b in enumerate_B(n_vars, degree):
        prefix, tail = next(iter(b.value.terms))
        xs = [g for g in prefix + (tail,) if is_x(g)]
        key = _key({g: xs.count(g) for g in xs})
        by_mdeg.setdefault(key, []).append(b.value)

    bracket_spans, checked = {}, {}
    independent = spans = True
    for d in range(1, degree + 1):
        for mdeg in _multidegrees(n_vars, d):
            key = _key(mdeg)
            group = by_mdeg.get(key, [])
            names = sorted(mdeg, key=gkey)
            in_order = {n: _xname(i + 1) for i, n in enumerate(names)}
            renamed = [_rename(v.terms, in_order) for v in group]
            composition = tuple(mdeg[n] for n in names)
            if composition in checked and checked[composition] == renamed:
                continue
            checked.setdefault(composition, renamed)
            red, columns = SpanReducer(), {}
            rank = sum(red.insert(sparse_vec(v.terms, columns)) for v in group)
            independent = independent and rank == len(group)
            ckey, mapping = _canonical(key)
            if ckey not in bracket_spans:
                bracket_spans[ckey] = _bracket_span(ckey, by_mdeg)
            span, columns = bracket_spans[ckey]
            spans = spans and rank == span.dim and all(
                span.contains(sparse_vec(_rename(v.terms, mapping).terms,
                                         columns))
                for v in group)

    ml_key = _key(dict.fromkeys(map(_xname, range(1, n_vars + 1)), 1))
    return {"independent": independent, "spans": spans,
            "closed_under_bracket": spans,
            "multilinear_dim": len(by_mdeg.get(ml_key, []))}


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
