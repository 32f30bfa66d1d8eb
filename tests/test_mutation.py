from math import comb

import pytest

from mutperm import mutation
from mutperm.linalg import SpanReducer
from mutperm.mutation import (BSetElement, ComponentSpan, bracket_monomials,
                              check_relations, enumerate_B, expand,
                              is_mutation_element, tree_shapes, verify_basis_B)
from mutperm.perm import Elt, bracket, commutator, gkey
from mutperm.terms import TermPoly, parse


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
    cache = {}
    assert is_mutation_element(x1, cache)
    assert is_mutation_element(bracket(x1, x2), cache)
    assert is_mutation_element(bracket(bracket(x1, x2), x3), cache)
    assert is_mutation_element(Elt.zero(), cache)
    for b in enumerate_B(3, 4):
        assert is_mutation_element(b.value, cache)


def test_is_mutation_element_negatives():
    x1, x2 = Elt.gen("x1"), Elt.gen("x2")
    p, q = Elt.gen("p"), Elt.gen("q")
    assert not is_mutation_element(p)
    assert not is_mutation_element(x1 * x2)           # no parameters
    assert not is_mutation_element(p * x1 * x2)       # wrong combination
    assert not is_mutation_element(x1 * p)            # parameter tail
    assert not is_mutation_element(bracket(x1, x2) + p * q * x1)


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


def test_component_span_matches_expanded_monomials():
    patterns = [p for n in range(1, 6) for p in _patterns(n)]
    assert len(patterns) == 18
    for pattern in patterns:
        md = {f"x{i + 1}": c for i, c in enumerate(pattern)}
        expansions = _expanded_component(md)
        columns, oracle = {}, SpanReducer()
        for e in expansions:
            oracle.insert({columns.setdefault(m, len(columns)): c
                           for m, c in e.terms.items()})
        span = ComponentSpan(md)
        assert len(span.full_basis()) == oracle.dim, pattern
        assert all(span.contains(e) for e in expansions), pattern


def test_partial_span_grows_fully_as_a_subcomponent():
    # A member of degree 4 is covered by a partly grown span; a later
    # degree-5 query needs that span as a complete sub-component.
    x1, x2, x3, x4, x5 = (Elt.gen(f"x{i}") for i in range(1, 6))
    ml4 = tuple((f"x{i}", 1) for i in range(1, 5))
    cache = {}
    assert is_mutation_element(bracket(x4, bracket(bracket(x1, x2), x3)),
                               cache)
    assert cache[ml4].reducer.dim < 13
    deg5 = bracket(bracket(bracket(x1, x2), bracket(x3, x4)), x5)
    assert is_mutation_element(deg5, cache)
    assert not is_mutation_element(deg5 + Elt.gen("p") * Elt.gen("q")
                                   * x1 * x2 * x3 * x4 * x5, cache)
    assert cache[ml4].reducer.dim == len(cache[ml4].basis) == 13


def test_verify_basis_B_small():
    for n_vars, degree, dim in [(3, 3, 7), (4, 4, 13), (5, 4, 0)]:
        rep = verify_basis_B(n_vars, degree)
        assert rep == {"independent": True, "spans": True,
                       "closed_under_bracket": True,
                       "multilinear_dim": dim}, (n_vars, degree)


def test_verify_basis_B_reports_injected_faults(monkeypatch):
    real = enumerate_B(3, 3)

    def report(elements):
        monkeypatch.setattr(mutation, "enumerate_B", lambda n, d: elements)
        return verify_basis_B(3, 3)

    for family in ("B1", "B2", "B3"):
        last = max(i for i, b in enumerate(real) if b.family == family)
        assert not report(real[:last] + real[last + 1:])["spans"], family
    assert not report(real + real[-1:])["independent"]
    # A correctly graded element outside the mutation subalgebra: a B3
    # value plus a monomial of its multidegree with a parameter tail.
    b3 = real[-1]
    prefix, tail = next(iter(b3.value.terms))
    moved = (tuple(sorted(prefix[:-1] + (tail,), key=gkey)), prefix[-1])
    bad = BSetElement("B3", b3.data, b3.value + Elt.monomial(moved))
    rep = report(real + [bad])
    assert rep["independent"] and not rep["spans"]


def test_verify_basis_B_detects_failure():
    with pytest.raises(ValueError):
        verify_basis_B(3, 1)


def test_expand_with_assignment():
    poly = parse("<u,w>")
    val = expand(poly, {"u": Elt.gen("x1"), "w": Elt.gen("x2")})
    assert val == bracket(Elt.gen("x1"), Elt.gen("x2"))
    with pytest.raises(ValueError):
        expand(poly, {"u": Elt.gen("x1")})
