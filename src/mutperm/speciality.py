"""Ideal-component computations and the exceptional-image certificate.

Given bracket generators inside the mutation algebra, two homogeneous
components at a fixed x-multidegree are compared:

* the mutation-side component: all bracket words built from a generator by
  repeatedly bracketing with the missing variables on either side;
* the perm-side component: all products u g v in the free perm algebra,
  with u, v monomials over the complementary variables and parameters.

A target that lies in the perm-side span but not in the mutation-side span
certifies an exceptional homomorphic image (Cohn's criterion).  The
mutation-side membership test is emitted as an explicit linear system in
unknowns lambda_1..lambda_k, one equation per perm monomial.
"""

from __future__ import annotations

import math
from collections import Counter

from .identities import MAX_MAGMATIC
from .linalg import Inconsistent, Matrix, SpanReducer, solve, sparse_vec
from .mutation import expand
from .perm import Elt, monomial_index, param_degree, x_multidegree
from .terms import TermPoly, _multidegree, bnode, render


class IdealComponentRequest:
    """Bracket generators plus the target x-multidegree.

    ``generators`` are bracket polynomials (usually single bracket words);
    ``multidegree`` maps variable name -> multiplicity.  Each generator
    must be nonzero and multihomogeneous, with a multidegree dominated by
    the target, and the request may span at most MAX_MAGMATIC bracket
    words, counted before any is built.
    """

    def __init__(self, generators, multidegree):
        self.generators = list(generators)
        self.multidegree = Counter(multidegree)
        words = 0
        for g in self.generators:
            if not g:
                raise ValueError("a generator is 0 and spans no bracket words")
            gv = _multidegree(g, "generator")
            if gv - self.multidegree:
                raise ValueError(
                    f"generator multidegree {dict(gv)} not dominated by "
                    f"target {dict(self.multidegree)}")
            # a side for each missing letter, times their distinct orders
            m = self.multidegree - gv
            words += (2 ** m.total() * math.factorial(m.total())
                      // math.prod(map(math.factorial, m.values())))
        if words > MAX_MAGMATIC:
            raise ValueError(f"the request spans {words:,} bracket words, "
                             f"above the ceiling of {MAX_MAGMATIC:,}")


def mutation_ideal_words(req):
    """Bracket words spanning the mutation-side component, in a fixed
    order: generators first-to-last, missing variables bracketed on the
    left then on the right, breadth first."""
    out = []
    for g in req.generators:
        frontier = [g]
        while frontier:
            nxt = []
            for w in frontier:
                missing = req.multidegree - _multidegree(w, "word")
                if not missing:
                    out.append(w)
                    continue
                for name in sorted(missing):
                    x = TermPoly.var(name)
                    nxt.append(bnode(w, x))
                    nxt.append(bnode(x, w))
            frontier = nxt
    return out


def mutation_ideal_component(req):
    """Expansions of the mutation-side spanning words."""
    return [expand(w) for w in mutation_ideal_words(req)]


def _letter_pool(complement, extra_params):
    """Letter multisets: complement x-variables plus every p/q split of
    the required parameter count."""
    for a in range(extra_params + 1):
        letters = list(complement.elements())
        letters += ["p"] * a + ["q"] * (extra_params - a)
        yield letters


def perm_ideal_component(generators, multidegree):
    """Span of all u g v at the target multidegree in the free perm
    algebra, with parameter degree x-degree - 1.

    Left-commutativity collapses u g v to a function of the total extra
    letter multiset and the choice of final tail letter (or the tail of g
    itself when v is empty), so the spanning set is small and explicit.
    ``generators`` are PermElements (expansions of bracket words).
    """
    target = Counter(multidegree)
    param_target = sum(target.values()) - 1
    out = []
    seen = set()

    def emit(e):
        key = tuple(sorted((m, c) for m, c in e.terms.items()))
        if e and key not in seen:
            seen.add(key)
            out.append(e)

    for g in generators:
        if not g:
            continue
        monos = list(g.terms)
        gx = x_multidegree(monos[0])
        gparam = param_degree(monos[0])
        if any(x_multidegree(m) != gx or param_degree(m) != gparam
               for m in monos):
            raise ValueError("generator is not multihomogeneous")
        complement = target - gx
        extra = param_target - gparam
        if (gx - target) or extra < 0:
            continue
        for letters in _letter_pool(complement, extra):
            # all letters into the prefix; tail comes from g
            e = g
            for letter in letters:
                e = Elt.gen(letter) * e
            emit(e)
            # one letter becomes the new tail, the rest join the prefix
            for t in sorted(set(letters)):
                rest = list(letters)
                rest.remove(t)
                e = g
                for letter in rest:
                    e = Elt.gen(letter) * e
                emit(e * Elt.gen(t))
    return out


def cohn_check(req, target):
    """Membership report for ``target`` (a bracket polynomial) against
    the two ideal components of the request.

    Returns {in_perm_ideal, in_mutation_ideal, system, rhs, monomials,
    unknowns, words, solution, certificate, verdict}; the system has one
    equation per perm monomial, unknowns lambda_i matching the rendered
    ``words`` of mutation_ideal_words.  ``certificate`` is the
    unsolvable system's certificate from ``linalg.solve`` when the target
    is not in the mutation-side span, else None.
    The verdict is "exceptional image certified" exactly when the target
    is in the perm-side span but not the mutation-side span.
    """
    if _multidegree(target, "target") != req.multidegree:
        raise ValueError("target multidegree differs from the request")
    t_elt = expand(target)

    gen_elts = [expand(g) for g in req.generators]
    red, columns = SpanReducer(), {}
    for e in perm_ideal_component(gen_elts, req.multidegree):
        red.insert(sparse_vec(e.terms, columns))
    in_perm = red.contains(sparse_vec(t_elt.terms, columns))

    words = mutation_ideal_words(req)
    mut_comp = [expand(w) for w in words]
    monos, midx = monomial_index(mut_comp + [t_elt])
    # equations: rows indexed by perm monomial, columns by lambda_i
    rows = [{} for _ in monos]
    for j, e in enumerate(mut_comp):
        for m, c in e.terms.items():
            rows[midx[m]][j] = c
    system = Matrix(rows, len(words))
    rhs = {midx[m]: c for m, c in t_elt.terms.items()}
    sol = solve(system, rhs)
    in_mut = not isinstance(sol, Inconsistent)

    if in_perm and not in_mut:
        verdict = "exceptional image certified"
    elif in_mut:
        verdict = "member of the mutation ideal"
    else:
        verdict = "not in the perm ideal component"
    return {
        "in_perm_ideal": in_perm,
        "in_mutation_ideal": in_mut,
        "system": system,
        "rhs": rhs,
        "monomials": monos,
        "unknowns": [f"lambda{j + 1}" for j in range(len(words))],
        "words": [render(w) for w in words],
        "solution": None if isinstance(sol, Inconsistent) else sol,
        "certificate": sol.certificate if isinstance(sol, Inconsistent)
        else None,
        "verdict": verdict,
    }


def paper_instance():
    """The bundled instance: generators <<x2,x3>,x4> and <<x2,x3>,x1>,
    multilinear in x1..x4, target <<x2,x3>,<x1,x4>>."""
    x1, x2, x3, x4 = (TermPoly.var(f"x{i}") for i in range(1, 5))
    f1 = bnode(bnode(x2, x3), x4)
    f2 = bnode(bnode(x2, x3), x1)
    req = IdealComponentRequest([f1, f2], {f"x{i}": 1 for i in range(1, 5)})
    target = bnode(bnode(x2, x3), bnode(x1, x4))
    return req, target
