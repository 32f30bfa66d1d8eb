"""Multilinear identity discovery for mutations of perm algebras.

The multilinear magmatic space of degree n has n! * Catalan(n-1) basis
monomials (tree shape times variable permutation).  Expanding each through
the mutation product gives a linear map into the free perm algebra whose
left kernel is exactly the space of multilinear identities of that degree.
T-ideal consequences of known identities are generated degree by degree:
bracket with a fresh variable on either side, substitute a bracket with a
fresh variable into each slot, then close under variable permutations.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

from .linalg import Matrix, SpanReducer, kernel_basis, rref
from .mutation import _expander, bracket_monomials, expand
from .perm import monomial_index
from .terms import (Template, TermPoly, _combine, rename_leaves, substitute,
                    term_vars)


def _magmatic_count(n):
    """n! * Catalan(n - 1), the size of the degree-n magmatic basis."""
    return math.factorial(n) * math.comb(2 * n - 2, n - 1) // n


# Most magmatic monomials one degree may enumerate: 30,240, the count at
# degree 6 (degree 7 has 665,280).
MAX_MAGMATIC = _magmatic_count(6)


def _check_degree(n):
    if n < 1:
        raise ValueError(f"degree {n} is below 1")
    # the count grows with n, so degree 20 stands in for any higher one
    count = _magmatic_count(min(n, 20))
    if count > MAX_MAGMATIC:
        more = "more than " if n > 20 else ""
        raise ValueError(f"degree {n} has {more}{count:,} multilinear "
                         f"magmatic monomials, above the ceiling of "
                         f"{MAX_MAGMATIC:,}")


def _xnames(n):
    return [f"x{i}" for i in range(1, n + 1)]


def magmatic_basis(n, kind="b"):
    """Ordered multilinear magmatic monomials of degree n (as terms).

    Shapes are enumerated with the smaller left factor first and variable
    permutations lexicographically; for n = 3 this reproduces the order
    a(bc), a(cb), ..., (cb)a used in the degree-3 rank computation.
    Raises ValueError below degree 1 or above MAX_MAGMATIC monomials.
    """
    _check_degree(n)
    return bracket_monomials(dict.fromkeys(_xnames(n), 1), kind)


def expansion_matrix(n):
    """Rows: magmatic monomials; columns: perm monomials (global order)."""
    basis = magmatic_basis(n)
    # one subtree cache for the whole basis: the monomials share subtrees
    go = _expander()
    expansions = [go(t) for t in basis]
    monos, idx = monomial_index(expansions)
    rows = [{idx[m]: c for m, c in e.terms.items()} for e in expansions]
    return Matrix(rows, len(monos))


def vec_to_poly(vec, basis):
    return TermPoly({basis[i]: c for i, c in vec.items()})


def poly_to_vec(poly, index):
    """Vector of a multilinear polynomial over a magmatic monomial index."""
    out = {}
    for t, c in poly.terms.items():
        i = index.get(t)
        if i is None:
            raise ValueError(f"term outside the magmatic basis: {t}")
        out[i] = c
    return out


def identity_kernel(n):
    """Basis of all multilinear degree-n identities, as bracket polynomials.

    These are the vectors over the magmatic basis annihilated by the
    expansion map, i.e. the kernel of the transposed expansion matrix.
    """
    basis = magmatic_basis(n)
    mat = expansion_matrix(n).transpose()
    return [vec_to_poly(v, basis) for v in kernel_basis(mat)]


def _canonical_degree(template_or_poly):
    if isinstance(template_or_poly, Template):
        return template_or_poly.arity
    return len(template_or_poly.variables())


def _as_poly_at_x(item):
    if isinstance(item, Template):
        return item.instantiate(_xnames(item.arity))
    names = sorted(item.variables())
    return item.rename(dict(zip(names, _xnames(len(names)))))


def _lift_once(poly, d, kind):
    """All one-step T-ideal liftings of a multilinear degree-d polynomial."""
    new = TermPoly.var(f"x{d + 1}")
    out = [_combine(kind, poly, new), _combine(kind, new, poly)]
    for i in range(1, d + 1):
        xi = TermPoly.var(f"x{i}")
        out.append(substitute(poly, {f"x{i}": _combine(kind, xi, new)}))
        out.append(substitute(poly, {f"x{i}": _combine(kind, new, xi)}))
    return out


class _DegreeSpace:
    """Magmatic index plus precomputed permutation actions at one degree."""

    def __init__(self, n, kind):
        self.basis = magmatic_basis(n, kind)
        self.index = {t: i for i, t in enumerate(self.basis)}
        names = _xnames(n)
        self.transposition_maps = [
            self.index_map({names[k]: names[k + 1], names[k + 1]: names[k]})
            for k in range(n - 1)]

    def index_map(self, mapping):
        """The column permutation of renaming leaves by ``mapping``:
        column i goes to column index_map(mapping)[i]."""
        return [self.index[rename_leaves(t, mapping)] for t in self.basis]


def _close(red, actions, bound):
    """Grow ``red`` to the smallest span that contains it and is closed
    under ``actions`` (linear maps, as callables on sparse vectors), or
    until ``red.dim`` reaches ``bound``.

    A FIFO worklist applies every action once to each accepted row; the
    accepted rows span the result, so it is closed once the queue is
    empty.  This accepts the same rows in the same order as passes that
    re-apply every action to every pivot row until a pass adds nothing.
    Pivot rows are never rewritten after insertion and pivot_rows
    iterates in insertion order, so the queue meets rows in the order
    those passes first visit them; a later visit only re-inserts vectors
    already in the span, which are rejected without changing any state.
    """
    queue = deque(red.pivot_rows.values())
    while queue and red.dim < bound:
        vec = queue.popleft()
        for act in actions:
            if red.insert(act(vec)):
                # the accepted row is the newest pivot row
                queue.append(next(reversed(red.pivot_rows.values())))
                if red.dim >= bound:
                    break


def consequence_span(identities, n, kind="b", cap=None):
    """Span of all multilinear degree-n T-ideal consequences.

    ``identities`` is a list of Templates or multilinear TermPolys.  The
    result is a list of sparse vectors over the degree-n magmatic basis
    (use ``magmatic_basis(n, kind)`` for the column meaning).  ``cap``
    stops growth once the dimension is known to be reached (callers must
    justify the bound).
    """
    _check_degree(n)
    items = [(_canonical_degree(it), _as_poly_at_x(it)) for it in identities]
    if any(d > n for d, _ in items):
        raise ValueError("identity degree exceeds target degree")
    dmin = min((d for d, _ in items), default=n)

    prev_polys = []
    for d in range(dmin, n + 1):
        space = _DegreeSpace(d, kind)
        reducer = SpanReducer()
        bound = cap if d == n and cap is not None else math.inf
        gens = [p for deg, p in items if deg == d]
        for poly in prev_polys:
            gens.extend(_lift_once(poly, d - 1, kind))
        for poly in gens:
            reducer.insert(poly_to_vec(poly, space.index))
            if reducer.dim >= bound:
                break
        # close under variable permutations: adjacent transpositions
        # generate S_d
        _close(reducer, [lambda v, m=m: {m[i]: c for i, c in v.items()}
                         for m in space.transposition_maps], bound)
        if d < n:
            prev_polys = [vec_to_poly(v, space.basis)
                          for v in reducer.rows()]
    return reducer.rows()


def _kernel_dim(n):
    mat = expansion_matrix(n)
    _, rank = rref(mat)
    return mat.nrows - rank, mat


def _quotient_gain(w, actions, gap):
    """Dimension of the smallest subspace that contains w and is closed
    under ``actions`` (SpanReducer.quotient_map columns), counted up to
    ``gap``."""
    if not w:
        return 0
    sub = SpanReducer()
    sub.insert(w)

    def apply(act):
        def go(x):
            y = {}
            for j, c in x.items():
                for k, a in act[j].items():
                    y[k] = y.get(k, 0) + c * a
            return y
        return go

    _close(sub, [apply(act) for act in actions], gap)
    return sub.dim


def new_identities(known, n):
    """Compare the full identity space at degree n with the consequences
    of ``known``.

    Returns {kernel_dim, consequence_dim, new_dim, representatives}.
    ``new_dim`` is the size of a greedy generating set of new identities:
    their orbits under variable permutations, together with the
    consequences of ``known``, span the kernel at this degree.  One
    degree-n identity contributes its whole orbit, so the set is smaller
    than the dimension gap in general.  The generators are chosen greedily,
    which is deterministic: in each round every kernel basis vector v is
    scored by its gain, the dimension its orbit adds to the current span R,
    and the first vector of largest gain wins; its residue modulo R is the
    representative, and its orbit joins R.  The gain is computed in the
    quotient by R, from the normal form of v and the action of the
    adjacent transpositions there (see the comment in the loop).
    ``representatives`` lists the winners.  A greedy set need not be a
    smallest one, so ``new_dim`` is an upper bound on the number of new
    generators needed.
    Raises ValueError (with a witness) if some known candidate is not an
    identity of mutations of perm algebras.
    """
    for it in known:
        val = expand(_as_poly_at_x(it))
        if val:
            name = it.name if isinstance(it, Template) else str(it)
            raise ValueError(f"not an identity: {name}; expansion {val}")

    kdim, mat = _kernel_dim(n)
    # consequences of vanishing identities always lie in the kernel, so
    # the kernel dimension is a sound growth cap
    cons = consequence_span(known, n, kind="b", cap=kdim)
    cdim = len(cons)

    representatives = []
    if cdim < kdim:
        space = _DegreeSpace(n, "b")
        # one index map over the magmatic basis per variable permutation
        names = _xnames(n)
        maps = [space.index_map(dict(zip(names, pp)))
                for pp in itertools.permutations(names)]

        red = SpanReducer()
        for v in cons:
            red.insert(v)
        kb = kernel_basis(mat.transpose())
        # The span R = red is closed under variable permutations, and
        # stays so after each orbit insertion.  So a permutation acts on
        # V/R, and on its normal forms through quotient_map.  The gain of
        # v, dim(span(S_n v) + R) - dim R, is the dimension of the
        # S_n-submodule of V/R generated by the class of v, which is the
        # smallest subspace containing NF(v) closed under the adjacent
        # transpositions, because they generate S_n.  It is at most
        # the gap kdim - dim R, as S_n v + R lies in the kernel; so
        # counting stops at the gap, and a candidate that reaches it
        # cannot be beaten under the strict first-maximum rule.  A
        # candidate in R has NF(v) = 0 and gain 0, and is never chosen.
        # The representative is the winner's residue modulo R, and its
        # orbit joins R, so the next round starts from span(S_n v) + R.
        while red.dim < kdim:
            gap = kdim - red.dim
            actions = [red.quotient_map(t)
                       for t in space.transposition_maps]
            best_gain, best = 0, None
            for v in kb:
                gain = _quotient_gain(red.normal_form(v), actions, gap)
                if gain > best_gain:
                    best_gain, best = gain, v
                    if gain == gap:
                        break
            residue = red.residue(best)
            representatives.append(vec_to_poly(residue, space.basis))
            for m in maps:
                red.insert({m[i]: c for i, c in residue.items()})
    return {"kernel_dim": kdim, "consequence_dim": cdim,
            "new_dim": len(representatives),
            "representatives": representatives}


def tideal_membership(target, defining, kind="m"):
    """Does ``target`` follow from ``defining`` as a multilinear T-ideal
    consequence at its own degree?

    ``target`` must be multilinear; its variables are canonicalized to
    x1..xn in sorted order.  ``defining`` are templates/polynomials over
    the same product kind ('m' for ordinary-product varieties such as
    bicommutative algebras).
    """
    for t in target.terms:
        if any(c != 1 for c in term_vars(t).values()):
            raise ValueError("target is not multilinear; polarize it first")
    n = len(target.variables())
    index = {t: i for i, t in enumerate(magmatic_basis(n, kind))}
    # a term of the other or of mixed node kinds is outside the index
    vec = poly_to_vec(_as_poly_at_x(target), index)
    red = SpanReducer()
    for v in consequence_span(defining, n, kind=kind):
        red.insert(v)
    return red.contains(vec)
