from fractions import Fraction

import pytest

from mutperm.linalg import SpanReducer, _cancel, _primitive
from mutperm.terms import TermPoly


@pytest.fixture
def count_inserts(monkeypatch):
    """A list that gets the result of every SpanReducer.insert call."""
    calls = []
    insert = SpanReducer.insert

    def counting(self, v):
        calls.append(insert(self, v))
        return calls[-1]

    monkeypatch.setattr(SpanReducer, "insert", counting)
    return calls


def reduced_rows(reducer):
    """The primitive integer rows of a SpanReducer in pivot order,
    back-substituted so each is positive at its pivot (its first column)
    and 0 at the others."""
    reduced = {}
    for c in sorted(reducer.pivot_rows, reverse=True):
        row = dict(reducer.pivot_rows[c])
        for d in reversed(reduced):
            if d in row:
                _cancel(row, d, reduced[d], [])
        reduced[c] = _primitive(row)
    return list(reversed(reduced.values()))


def running_sum(zero, go, poly):
    """sum of c * go(t) over the terms c*t of ``poly``, folded as
    ``out = out + go(t).scale(c)``: one copy of the running sum per term.
    The oracle for the terms, values and order of a one-dict sum."""
    out = zero
    for t, c in poly.terms.items():
        out = out + go(t).scale(c)
    return out


def random_cancelling_poly(rng, leaves, twins, size):
    """A seeded polynomial of random bracket terms over ``leaves`` with
    rational coefficients.  About half the terms are followed by their
    twin, the term with every leaf a renamed to twins[a], at minus the
    term's coefficient, so a mapping that sends a and twins[a] to the
    same value cancels the pair exactly."""
    def tree(k):
        if k == 1:
            return ("v", rng.choice(leaves))
        left = rng.randint(1, k - 1)
        return ("b", tree(left), tree(k - left))

    def twin(t):
        if t[0] == "v":
            return ("v", twins.get(t[1], t[1]))
        return (t[0], twin(t[1]), twin(t[2]))

    terms = {}
    for _ in range(size):
        t = tree(rng.randint(1, 4))
        c = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))
        terms[t] = terms.get(t, 0) + c
        if rng.random() < 0.5 and twin(t) != t:
            terms[twin(t)] = -c
    return TermPoly({t: c for t, c in terms.items() if c})
