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


def _as_poly_at_x(item):
    if isinstance(item, Template):
        return item.instantiate(_xnames(item.arity))
    names = sorted(item.variables())
    return item.rename(dict(zip(names, _xnames(len(names)))))


def _only_kind(t, kind):
    """Are all the inner nodes of the term t of ``kind``?"""
    return t[0] == "v" or (t[0] == kind and _only_kind(t[1], kind)
                           and _only_kind(t[2], kind))


def _multilinear_at_x(item, kind):
    """(n, ``item`` at x1..xn) for an identity whose terms all lie in the
    degree-n magmatic basis of ``kind``, n its number of variables;
    raises ValueError naming the identity and the reason otherwise."""
    poly = _as_poly_at_x(item)
    name = item.name if isinstance(item, Template) else str(item)
    n = len(poly.variables())
    if not all(_only_kind(t, kind) for t in poly.terms):
        has, uses = (("product", "bracket") if kind == "b"
                     else ("bracket", "product"))
        raise ValueError(f"identity {name} has {has} nodes; this scan "
                         f"uses {uses}s")
    if any(term_vars(t) != dict.fromkeys(_xnames(n), 1) for t in poly.terms):
        raise ValueError(f"identity {name} is not multilinear; "
                         f"polarize it first")
    return n, poly


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
        # the adjacent transpositions, which generate S_n
        self.transpositions = [
            self.action({names[k]: names[k + 1], names[k + 1]: names[k]})
            for k in range(n - 1)]

    def action(self, mapping):
        """Renaming leaves by ``mapping``, as a map on sparse vectors."""
        colmap = [self.index[rename_leaves(t, mapping)] for t in self.basis]
        return lambda v: {colmap[i]: c for i, c in v.items()}


def _close(red, actions, bound, start):
    """Grow ``red`` to the smallest span that contains it and is closed
    under ``actions`` (linear maps, as callables on sparse vectors), or
    until ``red.dim`` reaches ``bound``.  The pivot rows before position
    ``start`` (in insertion order) must already span a closed subspace.

    A FIFO worklist applies every action once to each row from ``start``
    on and to each accepted row; with the closed rows they span the
    result, so it is closed once the queue is empty.  This accepts the
    same rows in the same order as passes that re-apply every action to
    every pivot row until a pass adds nothing.  Pivot rows are never
    rewritten after insertion and pivot_rows iterates in insertion order,
    so the queue meets rows in the order those passes first visit them; a
    later visit only re-inserts vectors already in the span, which are
    rejected without changing any state.
    """
    queue = deque(itertools.islice(red.pivot_rows.values(), start, None))
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
    justify the bound).  Raises ValueError for an identity that is not
    multilinear or has nodes of another kind.
    """
    _check_degree(n)
    items = [_multilinear_at_x(it, kind) for it in identities]
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
        _close(reducer, space.transpositions, bound, 0)
        if d < n:
            prev_polys = [vec_to_poly(v, space.basis)
                          for v in reducer.rows()]
    return reducer.rows()


def _kernel_dim(n):
    mat = expansion_matrix(n)
    _, rank = rref(mat)
    return mat.nrows - rank, mat


def _orbit_span(red, v, actions, bound):
    """The span R of ``red`` grown by v and closed under ``actions``,
    which generate S_n: span(S_n v) + R, in a new reducer grown at most
    to ``bound``.  R must be closed already, so only the rows after R's
    enter the closure; the copy shares R's pivot rows, which are never
    rewritten."""
    trial = SpanReducer()
    trial.pivot_rows = dict(red.pivot_rows)
    trial.insert(v)
    _close(trial, actions, bound, red.dim)
    return trial


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
    representative, and its orbit joins R.  The gain is read off a copy of
    R grown by v and closed under the adjacent transpositions.
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
        names = _xnames(n)
        orbit = [space.action(dict(zip(names, pp)))
                 for pp in itertools.permutations(names)]

        red = SpanReducer()
        for v in cons:
            red.insert(v)
        kb = kernel_basis(mat.transpose())
        # R = red is closed under variable permutations, and stays so after
        # each orbit insertion.  A trial lies in the kernel, so one that
        # reaches kdim ends the round.  A v in the best trial so far (at
        # first R itself) has S_n v + R inside it, so its gain cannot beat
        # the best one strictly, and v is skipped.
        while red.dim < kdim:
            best, best_trial = None, red
            for v in kb:
                if best_trial.contains(v):
                    continue
                trial = _orbit_span(red, v, space.transpositions, kdim)
                if trial.dim > best_trial.dim:
                    best, best_trial = v, trial
                    if trial.dim == kdim:
                        break
            residue = red.residue(best)
            representatives.append(vec_to_poly(residue, space.basis))
            for act in orbit:
                red.insert(act(residue))
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
    n, poly = _multilinear_at_x(target, kind)
    index = {t: i for i, t in enumerate(magmatic_basis(n, kind))}
    vec = poly_to_vec(poly, index)
    red = SpanReducer()
    for v in consequence_span(defining, n, kind=kind):
        red.insert(v)
    return red.contains(vec)
