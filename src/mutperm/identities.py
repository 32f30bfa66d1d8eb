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
from fractions import Fraction

from .linalg import Matrix, SpanReducer, kernel_basis, rref
from .mutation import _expander, expand, tree_shapes, _tree_term
from .perm import mono_key
from .terms import Template, TermPoly, rename_leaves, substitute, term_vars

DEFAULT_DEGREE_LIMIT = 6


def _magmatic_count(n):
    """n! * Catalan(n - 1), the size of the degree-n magmatic basis."""
    return math.factorial(n) * math.comb(2 * n - 2, n - 1) // n


# Most magmatic monomials one degree may enumerate, whatever the caller's
# limit: 30,240, the count at the default limit (degree 7 has 665,280).
MAX_MAGMATIC = _magmatic_count(DEFAULT_DEGREE_LIMIT)


def _check_degree(n, limit):
    if not 1 <= n <= limit:
        raise ValueError(f"degree {n} outside limit {limit}")
    # the count grows with n, so degree 20 stands in for any higher one
    count = _magmatic_count(min(n, 20))
    if count > MAX_MAGMATIC:
        more = "more than " if n > 20 else ""
        raise ValueError(f"degree {n} has {more}{count:,} multilinear "
                         f"magmatic monomials, above the ceiling of "
                         f"{MAX_MAGMATIC:,}")


def _xnames(n):
    return [f"x{i}" for i in range(1, n + 1)]


def magmatic_basis(n, kind="b", limit=DEFAULT_DEGREE_LIMIT):
    """Ordered multilinear magmatic monomials of degree n (as terms).

    Shapes are enumerated with the smaller left factor first and variable
    permutations lexicographically; for n = 3 this reproduces the order
    a(bc), a(cb), ..., (cb)a used in the degree-3 rank computation.
    Raises ValueError above ``limit`` or above MAX_MAGMATIC monomials.
    """
    _check_degree(n, limit)
    names = _xnames(n)
    out = []
    for shape in tree_shapes(n):
        for perm in itertools.permutations(names):
            out.append(_tree_term(shape, list(perm), kind))
    return out


def expansion_matrix(n, limit=DEFAULT_DEGREE_LIMIT):
    """Rows: magmatic monomials; columns: perm monomials (global order)."""
    basis = magmatic_basis(n, limit=limit)
    # one subtree cache for the whole basis: the monomials share subtrees
    go = _expander()
    expansions = [go(t) for t in basis]
    monos = sorted({m for e in expansions for m in e.terms}, key=mono_key)
    idx = {m: i for i, m in enumerate(monos)}
    rows = [{idx[m]: c for m, c in e.terms.items()} for e in expansions]
    return Matrix(rows, len(monos), labels=monos)


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


def identity_kernel(n, limit=DEFAULT_DEGREE_LIMIT):
    """Basis of all multilinear degree-n identities, as bracket polynomials.

    These are the vectors over the magmatic basis annihilated by the
    expansion map, i.e. the kernel of the transposed expansion matrix.
    """
    basis = magmatic_basis(n, limit=limit)
    mat = expansion_matrix(n, limit=limit).transpose()
    return [vec_to_poly(v, basis) for v in kernel_basis(mat)]


def _canonical_degree(template_or_poly):
    if isinstance(template_or_poly, Template):
        return template_or_poly.arity
    return len(template_or_poly.variables())


def _as_poly_at_x(item, n):
    if isinstance(item, Template):
        return item.instantiate(_xnames(item.arity))
    poly = item
    names = sorted(poly.variables())
    return poly.rename(dict(zip(names, _xnames(len(names)))))


def _lift_once(poly, d, kind):
    """All one-step T-ideal liftings of a multilinear degree-d polynomial."""
    node = (lambda a, b: TermPoly({(kind, ta, tb): ca * cb
                                   for ta, ca in a.terms.items()
                                   for tb, cb in b.terms.items()}))
    new = TermPoly.var(f"x{d + 1}")
    out = [node(poly, new), node(new, poly)]
    for i in range(1, d + 1):
        xi = TermPoly.var(f"x{i}")
        out.append(substitute(poly, {f"x{i}": node(xi, new)}))
        out.append(substitute(poly, {f"x{i}": node(new, xi)}))
    return out


class _DegreeSpace:
    """Magmatic index plus precomputed permutation actions at one degree."""

    def __init__(self, n, kind, limit):
        self.n = n
        self.basis = magmatic_basis(n, kind=kind, limit=limit)
        self.index = {t: i for i, t in enumerate(self.basis)}
        names = _xnames(n)
        self.transposition_maps = []
        for k in range(n - 1):
            mapping = {names[k]: names[k + 1], names[k + 1]: names[k]}
            perm = [0] * len(self.basis)
            for i, t in enumerate(self.basis):
                perm[i] = self.index[rename_leaves(t, mapping)]
            self.transposition_maps.append(perm)

    def permuted(self, vec, perm):
        return {perm[i]: c for i, c in vec.items()}


def consequence_span(identities, n, kind="b", limit=DEFAULT_DEGREE_LIMIT,
                     cap=None, stop=None):
    """Span of all multilinear degree-n T-ideal consequences.

    ``identities`` is a list of Templates or multilinear TermPolys.  The
    result is a list of sparse vectors over the degree-n magmatic basis
    (use ``magmatic_basis(n, kind)`` for the column meaning).  ``cap``
    stops growth once the dimension is known to be reached (callers must
    justify the bound); ``stop`` is an optional callback on the reducer
    for early termination (e.g. membership queries).
    """
    _check_degree(n, limit)
    items = [(_canonical_degree(it), _as_poly_at_x(it, n)) for it in identities]
    if any(d > n for d, _ in items):
        raise ValueError("identity degree exceeds target degree")
    dmin = min((d for d, _ in items), default=n)

    prev_polys = []
    reducer = None
    for d in range(dmin, n + 1):
        space = _DegreeSpace(d, kind, limit)
        reducer = SpanReducer()
        done = False
        ticks = [0]

        def saturated(force=False):
            if cap is not None and d == n and reducer.dim >= cap:
                return True
            if stop is not None and d == n:
                ticks[0] += 1
                if force or ticks[0] % 32 == 0:
                    return stop(reducer, space)
            return False

        gens = [p for deg, p in items if deg == d]
        for poly in prev_polys:
            gens.extend(_lift_once(poly, d - 1, kind))
        for poly in gens:
            if done:
                break
            vec = poly_to_vec(poly, space.index)
            reducer.insert(vec)
            done = saturated()
        # Close under variable permutations (adjacent transpositions) with
        # a FIFO worklist: each pivot row has the transpositions applied
        # exactly once.  This accepts the same rows in the same order as
        # passes that re-apply them to every pivot row until a pass adds
        # nothing.  Pivot rows are never rewritten after insertion and
        # pivot_rows iterates in insertion order, so the queue meets rows
        # in the order those passes first visit them; a later visit only
        # re-inserts vectors already in the span, which are rejected
        # without changing any state.  So the accepted inserts happen in
        # the same sequence and saturated() is called at the same points.
        queue = deque(reducer.pivot_rows.values())
        while queue and not done:
            vec = queue.popleft()
            for perm in space.transposition_maps:
                if reducer.insert(space.permuted(vec, perm)):
                    # the accepted row is the newest pivot row
                    queue.append(next(reversed(reducer.pivot_rows.values())))
                    if saturated():
                        done = True
                        break
        if not done and saturated(force=True):
            done = True
        if d < n:
            prev_polys = [vec_to_poly(v, space.basis)
                          for v in reducer.rows()]
    return reducer.rows() if reducer is not None else []


def _kernel_dim(n, limit):
    mat = expansion_matrix(n, limit=limit)
    _, rank = rref(mat)
    return mat.nrows - rank, mat


def _quotient_gain(w, actions, gap):
    """Dimension of the smallest subspace that contains w and is closed
    under ``actions`` (SpanReducer.quotient_map columns), counted up to
    ``gap``.  A FIFO worklist applies every action once to each accepted
    row; the accepted rows span the subspace, so it is closed once the
    queue is empty."""
    if not w:
        return 0
    sub = SpanReducer()
    sub.insert(w)
    queue = deque(sub.pivot_rows.values())
    while queue and sub.dim < gap:
        x = queue.popleft()
        for act in actions:
            y = {}
            for j, c in x.items():
                for k, a in act[j].items():
                    y[k] = y.get(k, 0) + c * a
            if sub.insert(y):
                queue.append(next(reversed(sub.pivot_rows.values())))
                if sub.dim == gap:
                    break
    return sub.dim


def new_identities(known, n, limit=DEFAULT_DEGREE_LIMIT):
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
        poly = _as_poly_at_x(it, n)
        val = expand(poly)
        if val:
            name = it.name if isinstance(it, Template) else str(it)
            raise ValueError(f"not an identity: {name}; expansion {val}")

    kdim, mat = _kernel_dim(n, limit)
    # consequences of vanishing identities always lie in the kernel, so
    # the kernel dimension is a sound growth cap
    cons = consequence_span(known, n, kind="b", limit=limit, cap=kdim)
    cdim = len(cons)

    representatives = []
    if cdim < kdim:
        space = _DegreeSpace(n, "b", limit)
        # one index map over the magmatic basis per variable permutation
        names = _xnames(n)
        maps = []
        for pp in itertools.permutations(names):
            mapping = dict(zip(names, pp))
            maps.append([space.index[rename_leaves(t, mapping)]
                         for t in space.basis])

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
            representatives.append(vec_to_poly(
                {k: Fraction(c) for k, c in residue.items()}, space.basis))
            for m in maps:
                red.insert({m[i]: c for i, c in residue.items()})
    return {"kernel_dim": kdim, "consequence_dim": cdim,
            "new_dim": len(representatives),
            "representatives": representatives}


def tideal_membership(target, defining, kind="m", limit=DEFAULT_DEGREE_LIMIT):
    """Does ``target`` follow from ``defining`` as a multilinear T-ideal
    consequence at its own degree?

    ``target`` must be multilinear; its variables are canonicalized to
    x1..xn in sorted order.  ``defining`` are templates/polynomials over
    the same product kind ('m' for ordinary-product varieties such as
    bicommutative algebras).
    """
    names = sorted(target.variables())
    for t in target.terms:
        if any(c != 1 for c in term_vars(t).values()):
            raise ValueError("target is not multilinear; polarize it first")
    n = len(names)
    canon = target.rename(dict(zip(names, _xnames(n))))
    for t in canon.terms:
        if _kind_of(t) not in (None, kind):
            raise ValueError("mixed node kinds between target and variety")

    found = [False]
    vec_holder = {}

    def stop(reducer, space):
        if "vec" not in vec_holder:
            vec_holder["vec"] = poly_to_vec(canon, space.index)
        if reducer.contains(vec_holder["vec"]):
            found[0] = True
            return True
        return False

    consequence_span(defining, n, kind=kind, limit=limit, stop=stop)
    return found[0]


def _kind_of(t):
    if t[0] == "v":
        return None
    k1 = t[0]
    for child in (t[1], t[2]):
        k2 = _kind_of(child)
        if k2 is not None and k2 != k1:
            raise ValueError("mixed node kinds inside one term")
    return k1
