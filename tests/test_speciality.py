from fractions import Fraction

import pytest

from mutperm.linalg import SpanReducer
from mutperm.mutation import expand
from mutperm.perm import Elt
from mutperm.speciality import (IdealComponentRequest, cohn_check,
                                mutation_ideal_component,
                                mutation_ideal_words, paper_instance,
                                perm_ideal_component)
from mutperm.terms import TermPoly, bnode

# the published 12-equation system, rows as (lambda coefficients, rhs)
REFERENCE_SYSTEM = [
    ((0, 1, 1, 0), 1),
    ((1, 1, 2, 1), 1),
    ((0, 0, 0, 1), 0),
    ((1, 0, 1, 2), 0),
    ((0, 1, 0, 1), 1),
    ((1, 0, 1, 0), 1),
    ((0, 1, 0, 1), 1),
    ((1, 0, 1, 0), 1),
    ((1, 0, 0, 1), 0),
    ((2, 1, 1, 1), 1),
    ((1, 2, 1, 0), 1),
    ((0, 1, 0, 0), 0),
]


def x(i):
    return TermPoly.var(f"x{i}")


def test_paper_instance_words_and_component():
    req, _ = paper_instance()
    words = [str(w) for w in mutation_ideal_words(req)]
    assert words == ["<<<x2,x3>,x4>,x1>", "<x1,<<x2,x3>,x4>>",
                     "<<<x2,x3>,x1>,x4>", "<x4,<<x2,x3>,x1>>"]
    assert len(mutation_ideal_component(req)) == 4


def test_cohn_check_reproduces_reference_system():
    req, target = paper_instance()
    rep = cohn_check(req, target)
    assert rep["in_perm_ideal"] is True
    assert rep["in_mutation_ideal"] is False
    assert rep["verdict"] == "exceptional image certified"
    assert rep["system"].nrows == 12 and len(rep["unknowns"]) == 4

    def normalize(coeffs, rhs):
        nz = next((c for c in coeffs + (rhs,) if c), 1)
        s = 1 if nz > 0 else -1
        return tuple(s * c for c in coeffs), s * rhs

    got = []
    for i, row in enumerate(rep["system"].rows):
        coeffs = tuple(int(row.get(j, 0)) for j in range(4))
        got.append(normalize(coeffs, int(rep["rhs"].get(i, 0))))
    want = sorted(normalize(c, r) for c, r in REFERENCE_SYSTEM)
    assert sorted(got) == want
    assert rep["certificate"] == {0: 3, 1: 2, 2: 1, 4: -1, 8: 1}


def test_membership_identity_for_perm_side():
    req, target = paper_instance()
    f1, f2 = (expand(g) for g in req.generators)
    lhs = expand(target)
    rhs = (Elt.gen("x1") * Elt.gen("p")) * f1 \
        - (Elt.gen("x4") * Elt.gen("q")) * f2
    assert lhs == rhs


def test_generator_is_in_both_ideals():
    f1 = bnode(bnode(x(2), x(3)), x(4))
    req = IdealComponentRequest([f1], {"x2": 1, "x3": 1, "x4": 1})
    rep = cohn_check(req, f1)
    assert rep["in_perm_ideal"] and rep["in_mutation_ideal"]
    assert rep["verdict"] == "member of the mutation ideal"


def test_explicit_lambda_solution():
    req, _ = paper_instance()
    target = bnode(bnode(bnode(x(2), x(3)), x(4)), x(1))
    rep = cohn_check(req, target)
    assert rep["in_mutation_ideal"]
    assert rep["solution"] == {0: Fraction(1)}


def test_mutation_component_inside_perm_component():
    req, _ = paper_instance()
    gen_elts = [expand(g) for g in req.generators]
    perm_comp = perm_ideal_component(gen_elts, req.multidegree)
    red = SpanReducer()
    index = {}

    def vec(e):
        out = {}
        for m, c in e.terms.items():
            out[index.setdefault(m, len(index))] = c
        return out

    for e in perm_comp:
        red.insert(vec(e))
    for e in mutation_ideal_component(req):
        assert red.contains(vec(e))


def test_single_generator_component_sizes():
    g = bnode(x(2), x(3))
    req = IdealComponentRequest([g], {"x1": 1, "x2": 1, "x3": 1})
    assert len(mutation_ideal_component(req)) == 2
    comp = perm_ideal_component([expand(g)], {"x1": 1, "x2": 1, "x3": 1})
    # frozen by exhaustive enumeration: extra letter x1 plus one extra
    # parameter (p or q), each with a prefix-only and a new-tail variant
    assert len(comp) == 6


def test_empty_generators():
    assert perm_ideal_component([], {"x1": 1}) == []


def test_request_validates_domination():
    with pytest.raises(ValueError):
        IdealComponentRequest([bnode(x(1), x(2))], {"x1": 1})


def test_target_multidegree_must_match():
    req, _ = paper_instance()
    with pytest.raises(ValueError):
        cohn_check(req, bnode(x(1), x(2)))
