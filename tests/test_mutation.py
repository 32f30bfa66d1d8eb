import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from mutperm import mutation
from mutperm.linalg import SpanReducer, sparse_vec
from mutperm.mutation import (BSetElement, bracket_monomials,
                              check_relations, enumerate_B, expand,
                              is_mutation_element, tree_shapes, verify_basis_B)
from mutperm.perm import (Elt, bracket, commutator, gkey, is_x,
                          normalize_word, x_multidegree)
from mutperm.terms import TermPoly, fold, parse

from conftest import random_cancelling_poly, reduced_rows, running_sum


def test_expand_degree3_left_bracket():
    got = expand(parse("<<x1,x2>,x3>"))
    p, q = Elt.gen("p"), Elt.gen("q")
    x1, x2, x3 = (Elt.gen(f"x{i}") for i in range(1, 4))
    want = ((p - q) * (p - q)) * (x1 * x2 * x3) \
        + (p * q) * (x1 * commutator(x2, x3)) \
        - (q * q) * (x2 * commutator(x1, x3))
    assert got == want


def test_expand_degree3_right_bracket():
    got = expand(parse("<x1,<x2,x3>>"))
    p, q = Elt.gen("p"), Elt.gen("q")
    x1, x2, x3 = (Elt.gen(f"x{i}") for i in range(1, 4))
    want = ((p - q) * (p - q)) * (x1 * x2 * x3) \
        + (p * q) * (x1 * commutator(x2, x3)) \
        + (p * q) * (x2 * commutator(x1, x3)) \
        - (q * q) * (x2 * commutator(x1, x3))
    assert got == want


def test_expand_degree4_double_bracket():
    got = expand(parse("<<x1,x2>,<x3,x4>>"))
    p, q = Elt.gen("p"), Elt.gen("q")
    x1, x2, x3, x4 = (Elt.gen(f"x{i}") for i in range(1, 5))
    pq3 = (p - q) * (p - q) * (p - q)
    want = pq3 * (x1 * x2 * x3 * x4) \
        + ((p - q) * p * q) * (x1 * x2 * commutator(x3, x4)) \
        + ((p - q) * p * q) * (x1 * x3 * commutator(x2, x4)) \
        - ((p - q) * q * q) * (x2 * x3 * commutator(x1, x4))
    assert got == want


def test_relations_hold():
    res = check_relations()
    assert res["passed"], res["failures"]


def test_enumerate_B_counts():
    # counted straight from the index sets
    for n_vars, max_degree in [(3, 4), (4, 4), (6, 3)]:
        els = enumerate_B(n_vars, max_degree)
        by_family = {}
        for b in els:
            by_family[b.family] = by_family.get(b.family, 0) + 1
        assert by_family["X"] == n_vars
        assert by_family["B1"] == n_vars * n_vars
        b2 = sum(comb(n_vars + n - 2, n - 1) * n_vars
                 for n in range(3, max_degree + 1))
        assert by_family.get("B2", 0) == b2
        b3 = sum((n - 1) * sum(comb(n_vars - j1 + n - 2, n - 2)
                               * (n_vars - j1)
                               for j1 in range(1, n_vars + 1))
                 for n in range(3, max_degree + 1))
        assert by_family.get("B3", 0) == b3


def test_B1_includes_diagonal_and_expands_brackets():
    els = {b.data: b.value for b in enumerate_B(2, 2) if b.family == "B1"}
    assert (1, 1) in els and els[(1, 1)]
    # <xi, xj> = xi p xj - xj q xi is exactly the B1 element
    assert els[(1, 2)] == bracket(Elt.gen("x1"), Elt.gen("x2"))


def test_multilinear_dims_of_B():
    for n, want in [(3, 7), (4, 13), (5, 21)]:
        els = enumerate_B(n, n)
        count = 0
        for b in els:
            mono = next(iter(b.value.terms))
            letters = [g for g in mono[0] + (mono[1],) if g.startswith("x")]
            if sorted(letters) == [f"x{i}" for i in range(1, n + 1)]:
                count += 1
        assert count == want == n + (n - 1) ** 2


def test_tree_shapes_are_catalan():
    for n, cat in [(1, 1), (2, 1), (3, 2), (4, 5), (5, 14)]:
        assert len(tree_shapes(n)) == cat


def test_bracket_monomials_multidegree():
    monos = bracket_monomials({"x1": 1, "x2": 1, "x3": 1})
    assert len(monos) == 12
    monos2 = bracket_monomials({"x1": 2, "x2": 1})
    assert len(monos2) == 6   # 3 arrangements x 2 shapes


def test_is_mutation_element_positives():
    x1, x2, x3 = (Elt.gen(f"x{i}") for i in range(1, 4))
    assert is_mutation_element(x1)
    assert is_mutation_element(bracket(x1, x2))
    assert is_mutation_element(bracket(bracket(x1, x2), x3))
    assert is_mutation_element(Elt.zero())
    for b in enumerate_B(3, 4):
        assert is_mutation_element(b.value)


def test_is_mutation_element_negatives():
    x1, x2 = Elt.gen("x1"), Elt.gen("x2")
    p, q = Elt.gen("p"), Elt.gen("q")
    assert not is_mutation_element(p)
    assert not is_mutation_element(x1 * x2)           # no parameters
    assert not is_mutation_element(p * x1 * x2)       # wrong combination
    assert not is_mutation_element(x1 * p)            # parameter tail
    assert not is_mutation_element(bracket(x1, x2) + p * q * x1)


def _component(key, cache):
    """The ComponentSpan of a multidegree key, memoised in ``cache``."""
    span = cache.get(key)
    if span is None:
        span = cache[key] = ComponentSpan(dict(key), cache)
    return span


class ComponentSpan:
    """The span S_m of the bracket expansions at multidegree m: the
    reference that the closed form of ``is_mutation_element`` is compared
    against.

    A bracket monomial of degree >= 2 is <u, v> with u, v bracket
    monomials whose nonzero multidegrees m1, m2 add up to m.  The bracket
    is bilinear, so S_m is spanned by <a, b> over all ordered splits
    (m1, m2), with a running over any basis of S_m1 and b over any basis
    of S_m2; the component of a single letter x is spanned by x.  Each
    sub-component comes from one component per multiplicity pattern:
    S_m1 gets the basis of m1's canonical pattern (``mutation._canonical``)
    renamed back.  Canonical components are memoised in ``_cache`` by key.
    Every product is inserted when the span is built.

    ``full_basis()`` is reduced (``reduced_rows``): no element is nonzero
    at another's pivot monomial, so each has at most 1 + (monomials -
    rank) terms and the brackets built on it stay cheap.
    """

    def __init__(self, multidegree, _cache=None):
        self.multidegree = {n: c for n, c in multidegree.items() if c}
        if sum(self.multidegree.values()) < 1:
            raise ValueError("total degree must be >= 1")
        self._cache = {} if _cache is None else _cache
        self.reducer = SpanReducer()
        self._columns = {}
        for e in self._products():
            self.reducer.insert(sparse_vec(e.terms, self._columns))
        monos = list(self._columns)
        self._basis = [Elt({monos[k]: c for k, c in row.items()})
                       for row in reduced_rows(self.reducer)]

    def _sub_basis(self, multidegree):
        """The full basis of ``multidegree``'s pattern, renamed back."""
        ckey, mapping = mutation._canonical(mutation._key(multidegree))
        back = {v: k for k, v in mapping.items()}
        return [mutation._rename(b.terms, back)
                for b in _component(ckey, self._cache).full_basis()]

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
            right = self._sub_basis(m2)
            for a in self._sub_basis(m1):
                for b in right:
                    yield bracket(a, b)

    def full_basis(self):
        """A reduced basis of the component."""
        return self._basis

    def contains(self, e):
        return self.reducer.contains(sparse_vec(e.terms, self._columns))


def _in_component_spans(e, cache):
    """Whether every part of e by x-multidegree has the mutation grading
    and lies in its ComponentSpan; components are memoised in
    ``cache``."""
    parts = {}
    for m, c in e.terms.items():
        xs = sorted(g for g in m[0] + (m[1],) if is_x(g))
        # parameter degree len(m[0]) + 1 - len(xs) must be len(xs) - 1
        if len(m[0]) + 2 != 2 * len(xs):
            return False
        parts.setdefault(tuple(xs), {})[m] = c
    for xs, terms in parts.items():
        ckey, mapping = mutation._canonical(mutation._key(Counter(xs)))
        if not _component(ckey, cache).contains(
                mutation._rename(terms, mapping)):
            return False
    return True


def test_component_span_early_exhaustion():
    span = ComponentSpan({"x1": 1, "x2": 1})
    assert span.contains(expand(parse("<x1,x2>")))
    assert not span.contains(Elt.gen("p") * Elt.gen("x1") * Elt.gen("x2")
                             + Elt.gen("x2") * Elt.gen("p") * Elt.gen("x1"))


def _patterns(n, largest=None):
    """Multiplicity patterns of total n, largest multiplicity first."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _patterns(n - k, k):
            yield (k,) + rest


def _expanded_component(multidegree):
    """Oracle: the expansion of every bracket monomial of the multidegree,
    each tree expanded on its own."""
    return [expand(TermPoly.term(t)) for t in bracket_monomials(multidegree)]


def _assert_reduced(span):
    """No element of the full basis is nonzero at another's pivot."""
    basis = span.full_basis()
    pivots = [min(b.terms, key=span._columns.get) for b in basis]
    for i, b in enumerate(basis):
        for j, pivot in enumerate(pivots):
            assert (pivot in b.terms) == (i == j)


def test_component_span_matches_expanded_monomials():
    # Each pattern on x1, x2, ... and on relabelled letters x(2k-1), ...,
    # x3, x1: a component at a non-canonical key is built from the
    # renamed bases of canonical sub-components.
    patterns = [p for n in range(1, 6) for p in _patterns(n)]
    assert len(patterns) == 18
    for pattern in patterns:
        k = len(pattern)
        for names in ([f"x{i + 1}" for i in range(k)],
                      [f"x{2 * (k - i) - 1}" for i in range(k)]):
            md = dict(zip(names, pattern))
            expansions = _expanded_component(md)
            columns, oracle = {}, SpanReducer()
            for e in expansions:
                oracle.insert(sparse_vec(e.terms, columns))
            span = ComponentSpan(md)
            assert len(span.full_basis()) == oracle.dim, md
            # dim S_m = dim U_m = n*k - n + 1 except at (1, 1): the base
            # case of is_mutation_element's closed form
            n = sum(pattern)
            assert oracle.dim == (2 if pattern == (1, 1)
                                  else n * k - n + 1), md
            assert all(span.contains(e) for e in expansions), md
            _assert_reduced(span)


def test_membership_insert_count(count_inserts):
    """The bilinear span of the multilinear degree-6 component grows every
    sub-component.  They come from one canonical component per
    multiplicity pattern, so 75 rows are accepted, the target's 31
    included; building each of the 62 proper sub-components on its own
    letters makes 5,948 inserts here (528 accepted).  The closed form of
    is_mutation_element makes no insert."""
    calls = count_inserts
    names = [f"x{i}" for i in range(1, 7)]
    x1, x2, x3, x4, x5, x6 = map(Elt.gen, names)
    member = bracket(bracket(x1, x2),
                     bracket(bracket(x3, x4), bracket(x5, x6)))
    tail_p = normalize_word(("x1", "x2", "x3", "x4", "x5", "x6",
                             "p", "q", "q", "p", "p"))
    span = ComponentSpan(dict.fromkeys(names, 1))
    assert span.contains(member)
    assert not span.contains(member + Elt.monomial(tail_p))
    assert (len(calls), sum(calls)) == (2517, 75)
    assert is_mutation_element(member)
    assert not is_mutation_element(member + Elt.monomial(tail_p))
    assert len(calls) == 2517


def _random_bracket(rng, letters):
    """The expansion of a random bracket monomial on ``letters``."""
    if len(letters) == 1:
        return Elt.gen(letters[0])
    k = rng.randint(1, len(letters) - 1)
    return bracket(_random_bracket(rng, letters[:k]),
                   _random_bracket(rng, letters[k:]))


def test_closed_form_matches_component_spans():
    """is_mutation_element's closed form answers as ComponentSpan.contains
    on every part (``_in_component_spans``) for 2,400 seeded
    elements up to degree 6 over x1..x4: sums of scaled bracket monomials,
    alone or plus a graded monomial with an x, p or q tail, or plus a
    tail difference D_i(s, t) = (P_i + m - t, t) - (P_i + m - s, s).  A
    tail difference lies in the span except at n = 2 with s != t."""
    rng = random.Random(20)
    cache = {}
    seen = Counter()
    for _ in range(2400):
        n = rng.choice([1, 2, 2, 3, 4, 5, 6])
        letters = rng.choices(["x1", "x2", "x3", "x4"], k=n)
        e = Elt.zero()
        for _ in range(rng.randint(1, 3)):
            rng.shuffle(letters)
            e = e + _random_bracket(rng, letters).scale(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        kind = "member" if n == 1 else rng.choice(["member", "x tail",
                                                   "p/q tail", "difference"])
        i = rng.randrange(n)
        params = ["p"] * (n - 1 - i) + ["q"] * i       # P_i
        if kind == "x tail":
            word = letters[1:] + params + letters[:1]
            e = e + Elt.monomial(normalize_word(word), rng.randint(1, 3))
        elif kind == "p/q tail":
            word = letters + params[1:] + params[:1]
            e = e + Elt.monomial(normalize_word(word), rng.randint(1, 3))
        elif kind == "difference":
            s, t = rng.sample(range(n), 2)
            kind += " n=2" if n == 2 and letters[s] != letters[t] else ""
            for tail, sign in ((t, 1), (s, -1)):
                rest = letters[:tail] + letters[tail + 1:]
                word = rest + params + [letters[tail]]
                e = e + Elt.monomial(normalize_word(word), sign)
        want = _in_component_spans(e, cache)
        assert is_mutation_element(e) == want, e
        seen[kind, want] += 1
    assert seen["member", True] > 500
    assert seen["x tail", False] > 200 and seen["p/q tail", False] > 200
    assert seen["difference", True] > 200
    assert seen["difference n=2", False] > 20


def test_rename_matches_normalize_word():
    """An order-keeping renaming maps prefixes letter by letter, any other
    re-sorts them; both agree with normalize_word of the renamed word,
    term order included.  The targets reach x10 and x12, which sort
    after x9 numerically but not as strings."""
    rng = random.Random(7)
    olds = ["x1", "x2", "x3", "x4"]
    targets = [f"x{i}" for i in range(1, 13)]
    kept_order = 0
    for _ in range(200):
        new = rng.sample(targets, len(olds))
        if rng.random() < 0.5:
            new.sort(key=gkey)
        kept_order += new == sorted(new, key=gkey)
        mapping = dict(zip(olds, new))
        terms = {}
        for _ in range(rng.randint(1, 6)):
            word = rng.choices(olds + ["p", "q"], k=rng.randint(1, 7))
            terms[normalize_word(word)] = rng.randint(-5, 5) or 1
        want = {normalize_word(mapping.get(g, g) for g in m[0] + (m[1],)): c
                for m, c in terms.items()}
        got = mutation._rename(terms, mapping)
        assert list(got.terms.items()) == list(want.items())
    assert 50 < kept_order < 150


def test_verify_basis_B_small():
    for n_vars, degree, dim in [(3, 3, 7), (4, 4, 13), (5, 4, 0)]:
        rep = verify_basis_B(n_vars, degree)
        assert rep == {"independent": True, "spans": True,
                       "closed_under_bracket": True,
                       "multilinear_dim": dim}, (n_vars, degree)


def _brackets_stay_in_B(n_vars, degree):
    """Oracle: the bracket of every pair of B elements with combined
    x-degree <= degree lies in the span of B at the summed multidegree."""
    by_mdeg = {}
    for b in enumerate_B(n_vars, degree):
        mdeg = Counter(x_multidegree(next(iter(b.value.terms))))
        by_mdeg.setdefault(frozenset(mdeg.items()), []).append(b.value)
    spans = {}
    for key, group in by_mdeg.items():
        red, columns = SpanReducer(), {}
        for v in group:
            red.insert(sparse_vec(v.terms, columns))
        spans[key] = red, columns
    for k1, group1 in by_mdeg.items():
        for k2, group2 in by_mdeg.items():
            key = frozenset((Counter(dict(k1)) + Counter(dict(k2))).items())
            if sum(c for _, c in key) > degree:
                continue
            red, columns = spans[key]
            for b1 in group1:
                for b2 in group2:
                    prod = bracket(b1, b2).terms
                    if not red.contains(sparse_vec(prod, columns)):
                        return False
    return True


@pytest.mark.parametrize("n_vars,degree,inserts", [
    (3, 3, (44, 36)), (4, 4, (261, 125)), (5, 4, (261, 125)),
    (5, 5, (1357, 373))])
def test_verify_basis_B_insert_count(count_inserts, n_vars, degree, inserts):
    """One insert per B element of each composition's first multidegree
    (the one on x1..xk) into its reducer, plus one per bracket <a, b> of
    B elements over the ordered splits of each canonical pattern (x1
    alone at degree 1); the accepted ones are the ranks, sum |B_m| over
    those multidegrees + sum dim S_c.  With one reducer per multidegree
    the counts were (70, 62), (500, 364), (860, 724) and (3026, 2042)."""
    rep = verify_basis_B(n_vars, degree)
    assert rep["independent"] and rep["spans"], (n_vars, degree)
    assert (len(count_inserts), sum(count_inserts)) == inserts


def test_verify_basis_B_does_not_use_closed_form(monkeypatch):
    """The certificate is independent of is_mutation_element."""
    def closed_form(e, _cache=None):
        raise AssertionError("verify_basis_B used the closed form")

    monkeypatch.setattr(mutation, "is_mutation_element", closed_form)
    assert verify_basis_B(4, 4) == {"independent": True, "spans": True,
                                    "closed_under_bracket": True,
                                    "multilinear_dim": 13}


def test_verify_basis_B_closure_agrees_with_brute_force():
    for n_vars, degree in [(3, 3), (4, 4), (5, 4)]:
        assert _brackets_stay_in_B(n_vars, degree)
        assert verify_basis_B(n_vars, degree)["closed_under_bracket"]


def test_verify_basis_B_reports_injected_faults(monkeypatch):
    real = enumerate_B(3, 3)

    def report(elements):
        monkeypatch.setattr(mutation, "enumerate_B", lambda n, d: elements)
        rep = verify_basis_B(3, 3)
        assert verify_basis_B(3, 3, closure_degree=3) == rep
        with pytest.raises(ValueError):
            verify_basis_B(3, 3, closure_degree=4)
        return rep

    assert all(report(real).values())
    for family in ("X", "B1", "B2", "B3"):
        last = max(i for i, b in enumerate(real) if b.family == family)
        rep = report(real[:last] + real[last + 1:])
        assert not rep["spans"], family
        assert not rep["closed_under_bracket"], family
    assert not report(real + real[-1:])["independent"]
    last = real[-1]
    doubled = BSetElement(last.family, last.data, last.value.scale(2))
    assert not report(real + [doubled])["independent"]
    # A correctly graded element outside the mutation subalgebra: a B3
    # value plus a monomial of its multidegree with a parameter tail.
    b3 = real[-1]
    prefix, tail = next(iter(b3.value.terms))
    moved = (tuple(sorted(prefix[:-1] + (tail,), key=gkey)), prefix[-1])
    bad = BSetElement("B3", b3.data, b3.value + Elt.monomial(moved))
    rep = report(real + [bad])
    assert rep["independent"] and not rep["spans"]
    assert not rep["closed_under_bracket"]


def per_multidegree_verify_basis_B(n_vars, degree):
    """Oracle: ``verify_basis_B`` with the full check at every
    multidegree, none of them taking its composition's result."""
    by_mdeg = {}
    for b in mutation.enumerate_B(n_vars, degree):
        key = mutation._key(x_multidegree(next(iter(b.value.terms))))
        by_mdeg.setdefault(key, []).append(b.value)

    bracket_spans = {}
    independent = spans = True
    for d in range(1, degree + 1):
        for mdeg in mutation._multidegrees(n_vars, d):
            key = mutation._key(mdeg)
            group = by_mdeg.get(key, [])
            red, columns = SpanReducer(), {}
            rank = sum(red.insert(sparse_vec(v.terms, columns)) for v in group)
            independent = independent and rank == len(group)
            ckey, mapping = mutation._canonical(key)
            if ckey not in bracket_spans:
                bracket_spans[ckey] = mutation._bracket_span(ckey, by_mdeg)
            span, columns = bracket_spans[ckey]
            spans = spans and rank == span.dim and all(
                span.contains(sparse_vec(
                    mutation._rename(v.terms, mapping).terms, columns))
                for v in group)

    ml_key = mutation._key(dict.fromkeys(
        (f"x{i}" for i in range(1, n_vars + 1)), 1))
    return {"independent": independent, "spans": spans,
            "closed_under_bracket": spans,
            "multilinear_dim": len(by_mdeg.get(ml_key, []))}


def _with_parameter_tail(b):
    """b plus a monomial of its multidegree that has a parameter tail."""
    prefix, tail = next(iter(b.value.terms))
    moved = (tuple(sorted(prefix[:-1] + (tail,), key=gkey)), prefix[-1])
    return BSetElement(b.family, b.data, b.value + Elt.monomial(moved))


def _faults_at(real, multidegree):
    """B with one element of the multidegree dropped, doubled (a second,
    scaled copy), or given a parameter-tail monomial."""
    at = [i for i, b in enumerate(real)
          if x_multidegree(next(iter(b.value.terms))) == multidegree]
    assert at, multidegree
    i = at[len(at) // 2]
    b = real[i]
    doubled = BSetElement(b.family, b.data, b.value.scale(2))
    return {"dropped": real[:i] + real[i + 1:],
            "doubled": real[:i + 1] + [doubled] + real[i + 1:],
            "parameter tail": real[:i] + [_with_parameter_tail(b)]
            + real[i + 1:]}


@pytest.mark.parametrize("n_vars,degree", [(3, 3), (4, 4), (5, 4), (5, 5)])
def test_verify_basis_B_matches_per_multidegree_oracle(n_vars, degree):
    assert verify_basis_B(n_vars, degree) == per_multidegree_verify_basis_B(
        n_vars, degree)


@pytest.mark.parametrize("n_vars,degree,checks", [
    (3, 3, 7), (4, 4, 15), (5, 4, 15), (5, 5, 31)])
def test_verify_basis_B_checks_each_composition_once(monkeypatch, n_vars,
                                                     degree, checks):
    """On the true B, one full check (one ``_canonical`` call) per
    composition of 1..degree into at most n_vars parts."""
    calls = []
    canonical = mutation._canonical

    def counting(key):
        calls.append(key)
        return canonical(key)

    monkeypatch.setattr(mutation, "_canonical", counting)
    rep = verify_basis_B(n_vars, degree)
    assert rep["independent"] and rep["spans"]
    assert len(calls) == checks


def test_verify_basis_B_faults_match_per_multidegree_oracle(monkeypatch):
    """Every fault of test_verify_basis_B_reports_injected_faults, and
    faults planted in a composition's first multidegree ({x1: 1, x2: 2})
    and in a later one ({x2: 1, x3: 2}), are reported as the oracle
    reports them, and are found."""
    real = enumerate_B(3, 3)
    faults = {"duplicate": real + real[-1:],
              "doubled last": real + [BSetElement(
                  real[-1].family, real[-1].data, real[-1].value.scale(2))],
              "parameter tail last": real + [_with_parameter_tail(real[-1])]}
    for family in ("X", "B1", "B2", "B3"):
        last = max(i for i, b in enumerate(real) if b.family == family)
        faults["no last " + family] = real[:last] + real[last + 1:]
    for multidegree in ({"x1": 1, "x2": 2}, {"x2": 1, "x3": 2}):
        for name, elements in _faults_at(real, multidegree).items():
            faults[f"{name} at {multidegree}"] = elements
    assert len(faults) == 13
    for name, elements in faults.items():
        monkeypatch.setattr(mutation, "enumerate_B", lambda n, d: elements)
        rep = verify_basis_B(3, 3)
        assert rep == per_multidegree_verify_basis_B(3, 3), name
        assert not all(rep.values()), name


def test_verify_basis_B_detects_failure():
    with pytest.raises(ValueError):
        verify_basis_B(3, 1)


def test_expand_with_assignment():
    poly = parse("<u,w>")
    val = expand(poly, {"u": Elt.gen("x1"), "w": Elt.gen("x2")})
    assert val == bracket(Elt.gen("x1"), Elt.gen("x2"))
    with pytest.raises(ValueError):
        expand(poly, {"u": Elt.gen("x1")})


def test_expand_matches_the_running_sum_fold():
    """Terms, values and their order equal those of folding the running
    sum, on seeded polynomials whose twin terms cancel (a, b and c expand
    to the same element, so c's terms put cancelled keys back)."""
    rng = random.Random(28)
    value = Elt.gen("x1") - Elt.gen("x2").scale(Fraction(1, 2))
    assignment = dict.fromkeys("abc", value)
    go = fold(lambda name: assignment.get(name) or Elt.gen(name),
              lambda _, a, b: bracket(a, b))
    for _ in range(30):
        poly = random_cancelling_poly(rng, ["a", "b", "c", "x1"],
                                      {"a": "b"}, rng.randint(1, 12))
        got = expand(poly, assignment)
        want = running_sum(Elt.zero(), go, poly)
        assert type(got) is Elt
        assert ([(m, type(c), c) for m, c in got.terms.items()]
                == [(m, type(c), c) for m, c in want.terms.items()])
