import itertools
import random
from fractions import Fraction

import pytest

from mutperm.perm import (Elt, bracket, commutator, gkey, mono_key, mono_mul,
                          multilinear_monomials, normalize_word, word_elt,
                          x_multidegree, param_degree)
from mutperm.terms import TermPoly


def closure_class(word):
    """Independent oracle: the set of words reachable by swapping adjacent
    letters anywhere except across the final position (left-commutativity
    abc = bac generates exactly these)."""
    seen = {tuple(word)}
    frontier = [tuple(word)]
    while frontier:
        w = frontier.pop()
        for i in range(len(w) - 2):
            s = list(w)
            s[i], s[i + 1] = s[i + 1], s[i]
            s = tuple(s)
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return frozenset(seen)


def test_normalize_matches_rewriting_closure():
    letters = ["x1", "x2", "p", "x1", "q"]
    for n in range(1, 5):
        for w1 in itertools.permutations(letters, n):
            for w2 in itertools.permutations(letters, n):
                same_class = closure_class(w1) == closure_class(w2)
                assert (normalize_word(w1) == normalize_word(w2)) == same_class


def test_generator_order():
    assert gkey("x2") < gkey("x10") < gkey("p") < gkey("q")
    with pytest.raises(ValueError):
        gkey("z")
    with pytest.raises(ValueError):
        gkey("x0")


def test_normalize_word_names_the_first_unknown_letter():
    with pytest.raises(ValueError, match="'z'"):
        normalize_word(["x1", "p", "z"])
    with pytest.raises(ValueError, match="'z'"):
        normalize_word(["x2", "z", "x1"])
    with pytest.raises(ValueError, match="'y'"):
        normalize_word(["x1", "y", "z"])
    with pytest.raises(ValueError, match="'z'"):
        normalize_word(["z"])


def test_mono_mul_is_associative_and_left_commutative():
    ms = [normalize_word(w) for w in
          [("x1",), ("x2", "p"), ("q", "x1", "x3")]]
    for a, b, c in itertools.product(ms, repeat=3):
        assert mono_mul(mono_mul(a, b), c) == mono_mul(a, mono_mul(b, c))
        assert mono_mul(mono_mul(a, b), c) == mono_mul(mono_mul(b, a), c)


def test_elt_ring_axioms_on_random_elements():
    rng = random.Random(0)
    names = ["x1", "x2", "p", "q"]

    def rand_elt():
        e = Elt.zero()
        for _ in range(rng.randint(1, 4)):
            w = [rng.choice(names) for _ in range(rng.randint(1, 3))]
            e = e + Elt.monomial(normalize_word(w),
                                 Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        return e

    for _ in range(25):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a + b) * c == a * c + b * c
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert (a * b) * c == (b * a) * c   # left commutativity


def test_multilinear_dimension_is_n():
    for n in range(1, 7):
        monos = multilinear_monomials(n)
        assert len(monos) == n
        assert monos == sorted(monos, key=mono_key)


def test_degrees_and_multidegree():
    m = normalize_word(["p", "x2", "q", "x2", "x1"])
    assert param_degree(m) == 2
    assert x_multidegree(m) == {"x2": 2, "x1": 1}


def test_bracket_definition():
    a, b = Elt.gen("x1"), Elt.gen("x2")
    p, q = Elt.gen("p"), Elt.gen("q")
    assert bracket(a, b) == (a * p) * b - (b * q) * a


def test_commutator_product_is_metabelian():
    # <circ(a,b), circ(c,d)> = 0: the commutator algebra is metabelian
    xs = [Elt.gen(f"x{i}") for i in range(1, 5)]

    def circ(u, v):
        return bracket(u, v) - bracket(v, u)

    assert not bracket(circ(xs[0], xs[1]), circ(xs[2], xs[3]))
    assert circ(xs[0], xs[1]) == (Elt.gen("p") + Elt.gen("q")) \
        * commutator(xs[0], xs[1])


def test_rendering_is_canonical():
    assert str(Elt.zero()) == "0"
    assert str(word_elt("x2", "p", "x1")) == "x2 p x1"
    assert str(-2 * word_elt("x1")) == "-2 x1"
    e = word_elt("x2", "x1") - word_elt("x1", "x2")
    assert str(e) == "x2 x1 - x1 x2"
    e = (word_elt("x1").scale(Fraction(1, 2)) - word_elt("x2", "p", "x1")
         + 3 * word_elt("x2", "x1") - 2 * word_elt("q", "x1", "x3"))
    assert str(e) == "1/2 x1 + 3 x2 x1 - x2 p x1 - 2 x1 q x3"
    assert str(-e) == "-1/2 x1 - 3 x2 x1 + x2 p x1 + 2 x1 q x3"


def test_integral_coefficients_are_stored_as_int():
    m = normalize_word(["x1", "p", "x2"])
    assert type(Elt({m: Fraction(4, 2)}).terms[m]) is int
    assert type(Elt({m: Fraction(1, 2)}).terms[m]) is Fraction
    assert type(Elt.monomial(m, Fraction(-6, 3)).terms[m]) is int
    assert type(word_elt("x1").scale(Fraction(3, 3)).terms[((), "x1")]) is int
    half = word_elt("x1").scale(Fraction(1, 2))
    assert type(half.scale(2).terms[((), "x1")]) is int
    x1, x2 = Elt.gen("x1"), Elt.gen("x2")
    assert all(type(c) is int for c in bracket(bracket(x1, x2), x1)
               .terms.values())
    # TermPoly shares the rule
    t = ("v", "a")
    assert type(TermPoly({t: Fraction(4, 2)}).terms[t]) is int
    assert type(TermPoly({t: Fraction(1, 2)}).terms[t]) is Fraction
    assert type(TermPoly.term(t, Fraction(1, 2)).scale(2).terms[t]) is int
    assert type((TermPoly.var("a") - TermPoly.var("a").scale(3))
                .terms[t]) is int


def test_int_and_fraction_coefficients_compare_and_render_alike():
    ms = [normalize_word(w) for w in
          [("x1",), ("x2", "p", "x1"), ("q", "x1", "x3")]]
    ints = Elt(dict(zip(ms, (3, -1, 1))))
    fracs = Elt(dict(zip(ms, (Fraction(6, 2), Fraction(-1), Fraction(1)))))
    raw = Elt.__new__(Elt)
    raw.terms = dict(zip(ms, (Fraction(3), Fraction(-1), Fraction(1))))
    # an Elt never equals a TermPoly, even over the same dict
    assert ints != TermPoly(ints.terms) and TermPoly(ints.terms) != ints
    assert Elt.zero() != TermPoly.zero()
    for other in (fracs, raw):
        assert ints == other and str(ints) == str(other)
        assert ints * ints == other * other
        assert str(ints * ints) == str(other * other)
        assert not ints - other
