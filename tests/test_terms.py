import itertools
from fractions import Fraction

import pytest

from mutperm.terms import (TEMPLATES, ParseError, Template, TermPoly, bnode,
                           mnode, multilinearize, parse, render, substitute,
                           term_vars)


def v(name):
    return TermPoly.var(name)


def test_parse_render_round_trip():
    cases = [
        "<x1,x2>",
        "<<x1,x2>,x3> - <x1,<x2,x3>>",
        "(a*b)*c - (a*c)*b",
        "3/2*<a,b> + <b,a> - 2*(a*b)",
        "x1",
        "0",
        "f(x1,x2,x3)",
        "wa(<a,b>,c,d)",
    ]
    for text in cases:
        poly = parse(text)
        assert parse(render(poly)) == poly
    # signs, unit, integral and 1/2 coefficients, zero
    assert render(parse("-<a,b> + 2*<a,<b,c>> - 1/2*(a*b) + 4/2*<b,a>"
                        " + <c,a>")) == \
        "-<a,b> + 2*<b,a> + <c,a> - 1/2*(a*b) + 2*<a,<b,c>>"
    assert render(TermPoly.zero()) == "0"


def test_render_round_trip_on_template_bodies():
    for t in TEMPLATES.values():
        assert parse(render(t.body)) == t.body


def test_parse_errors_carry_positions():
    for text in ["<x1,", "x1 +", "3x", "<a,b> >", "unknownfn(a)"]:
        with pytest.raises(ParseError):
            parse(text)


def test_bracket_vs_product_nodes():
    p = parse("<a,b>*c")
    ((kind, left, right),) = p.terms
    assert kind == "m" and left[0] == "b"
    assert parse("<a*b,c>") != parse("<a,b>*c")


def test_substitute_is_homomorphic():
    poly = parse("<a,b> + 2*(a*b)")
    repl = {"a": parse("<u,w>"), "b": v("z")}
    out = substitute(poly, repl)
    assert out == bnode(parse("<u,w>"), v("z")) \
        + mnode(parse("<u,w>"), v("z")).scale(2)


def test_multilinearize_counts():
    # z appears 3 times: polarization produces 3! copies per monomial
    body = TEMPLATES["jordan"].body
    linear = multilinearize(body)
    for t in linear.terms:
        assert all(c == 1 for c in term_vars(t).values())
    # degree 4 in {y, z#1, z#2, z#3}
    names = {n for t in linear.terms for n in term_vars(t)}
    assert names == {"y", "z#1", "z#2", "z#3"}


def test_multilinearize_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        multilinearize(parse("a*a + a*b"))


def test_template_arities_and_registry():
    expected = {"circ": 2, "bullet": 2, "assoc": 3, "f": 3, "ftilde": 3,
                "wa": 3, "flex": 3, "hbar": 4, "ibar": 4, "conj4a": 4,
                "conj4b": 4, "jordan": 2, "crit36": 4}
    assert {n: t.arity for n, t in TEMPLATES.items()} == expected
    with pytest.raises(ValueError):
        TEMPLATES["f"].instantiate(["a", "b"])
    with pytest.raises(ValueError):
        Template("bad", "ab", parse("<a,c>"))


def test_f_is_the_alternating_sum():
    f = TEMPLATES["f"].instantiate(["x1", "x2", "x3"])
    signs = {}
    for perm in itertools.permutations(["x1", "x2", "x3"]):
        t = ("b", ("b", ("v", perm[0]), ("v", perm[1])), ("v", perm[2]))
        signs[perm] = f.terms[t]
    assert signs[("x1", "x2", "x3")] == 1
    assert signs[("x2", "x1", "x3")] == -1
    assert sum(signs.values()) == 0


def test_ftilde_decomposition_is_structural():
    T = TEMPLATES
    x, y, z = v("x"), v("y"), v("z")
    combo = (T["wa"].instantiate([z, y, x]) - T["wa"].instantiate([z, x, y])
             - T["f"].instantiate([z, y, x]))
    assert T["ftilde"].instantiate([x, y, z]) == combo


def test_crit36_uses_ordinary_product_only():
    body = TEMPLATES["crit36"].body
    kinds = {t[0] for t in body.terms}
    assert kinds == {"m"}


def test_rational_coefficients():
    poly = parse("1/3*<a,b> - 2/3*<a,b>")
    ((_, c),) = poly.terms.items()
    assert c == Fraction(-1, 3)
    # integral coefficients are stored as int, the others as Fraction
    ab = ("b", ("v", "a"), ("v", "b"))
    assert type(parse("4/2*<a,b>").terms[ab]) is int
    assert type(TermPoly({ab: Fraction(-6, 3)}).terms[ab]) is int
    assert type(TermPoly.term(ab, Fraction(1, 2)).terms[ab]) is Fraction
    assert type(parse("1/2*<a,b>").scale(2).terms[ab]) is int
    assert all(type(c) is int
               for c in TEMPLATES["conj4b"].instantiate(
                   [parse("<a,b>"), "c", "d", "e"]).terms.values())
