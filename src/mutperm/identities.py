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
from collections import deque
from math import gcd

from .linalg import Matrix, SpanReducer, _to_int_row, kernel_basis, rref
from .mutation import _expander, _rename, bracket_monomials, expand
from .perm import monomial_index
from .symmetric import dimension, grow, irreps, multiplicities
from .terms import (MAX_MAGMATIC, Template, TermPoly, _magmatic_count, bnode,
                    fold, substitute, term_vars)


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


def magmatic_basis(n):
    """Ordered multilinear magmatic monomials of degree n (as terms).

    Shapes are enumerated with the smaller left factor first and variable
    permutations lexicographically; for n = 3 this reproduces the order
    a(bc), a(cb), ..., (cb)a used in the degree-3 rank computation.
    Raises ValueError below degree 1 or above MAX_MAGMATIC monomials.
    """
    _check_degree(n)
    return bracket_monomials(dict.fromkeys(_xnames(n), 1))


def _expansion(n):
    """``expansion_matrix(n)`` and ``columns``: ``columns[r][k]`` is the
    column of the k-th monomial of the shapes' expansions renamed by the
    r-th leaf word.

    Renaming x-generators is an automorphism of the free perm algebra
    that fixes p and q and commutes with the bracket
    (``mutation._canonical``), so only the tree of each shape at x1..xn
    is expanded: at the leaf word w the row is its expansion renamed by
    x_i -> w_i, term for term.
    """
    basis = magmatic_basis(n)
    names = _xnames(n)
    words = list(itertools.permutations(names))
    go = _expander()
    shapes = [go(t) for t in basis[::len(words)]]
    # the shapes' monomials, numbered by coefficients that renaming keeps
    number = {m: k for k, m in enumerate(
        dict.fromkeys(m for e in shapes for m in e.terms), 1)}
    renamed = [_rename(number, dict(zip(names, w))) for w in words]
    monos, idx = monomial_index(renamed)
    columns = [{k: idx[m] for m, k in e.terms.items()} for e in renamed]
    rows = [{col[number[m]]: c for m, c in e.terms.items()}
            for e in shapes for col in columns]
    return Matrix(rows, len(monos)), columns


def expansion_matrix(n):
    """Rows: magmatic monomials; columns: perm monomials (global order)."""
    return _expansion(n)[0]


def kernel_multiplicities(n, expansion=None):
    """dim K and the multiplicities m_λ(K), in ``symmetric.partitions``
    order, of the irreducibles of S_n in the degree-n identity kernel K.
    ``expansion`` is ``_expansion(n)``, when the caller has it already.

    The expansion map commutes with renaming and V_n is C = Catalan(n-1)
    copies of QS_n, so m_λ(K) = C*d_λ - m_λ(image).  The image character
    at sigma is sum_i (sigma.row_i)[pivot_i] over the RREF rows of
    ``expansion_matrix(n)``: sigma.row_i lies in the image, whose vectors
    u are sum_i u[pivot_i] row_i.  sigma sends the column of shape
    monomial k at word w to its column at sigma o w; this takes the entry
    at that column, the value of (sigma^-1.row_i)[pivot_i], and every
    permutation is conjugate to its inverse.
    """
    mat, columns = expansion or _expansion(n)
    ech, rank = rref(mat)
    words = list(itertools.permutations(range(n)))
    position = {w: r for r, w in enumerate(words)}
    origin = {c: (r, k) for r, col in enumerate(columns)
              for k, c in col.items()}
    pivots = [(row, origin[min(row)]) for row in ech.rows]

    def trace(sigma):
        return sum(row.get(columns[position[tuple(
            sigma[i] for i in words[r])]][k], 0) for row, (r, k) in pivots)

    image = multiplicities(n, [trace(sigma) for sigma in words])
    shapes = mat.nrows // len(words)
    return mat.nrows - rank, [shapes * rep.dim - m
                              for rep, m in zip(irreps(n), image)]


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
    """(n, ``item`` at x1..xn with every inner node relabelled 'b') for an
    identity whose terms all lie in the degree-n magmatic basis of
    ``kind``, n its number of variables; raises ValueError naming the
    identity and the reason otherwise.  No scan reads a node's label, so
    they all run on bracket trees, whichever kind they were given."""
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
    relabel = fold(lambda name: ("v", name), lambda _, a, b: ("b", a, b))
    return n, TermPoly({relabel(t): c for t, c in poly.terms.items()})


class _DegreeSpace:
    """Magmatic index plus permutation actions at one degree n.  Column
    s*n! + r is tree shape s with the r-th leaf word (``magmatic_basis``);
    renaming x_i -> x_sigma(i) keeps the shape and sends the word w to
    sigma o w, so an action is a table on the n! words."""

    def __init__(self, n):
        self.basis = magmatic_basis(n)
        self.index = {t: i for i, t in enumerate(self.basis)}
        self._words = list(itertools.permutations(range(n)))
        self._rank = {w: r for r, w in enumerate(self._words)}
        # the adjacent transpositions, which generate S_n
        swaps = (list(range(k)) + [k + 1, k] + list(range(k + 2, n))
                 for k in range(n - 1))
        self.transpositions = [self.action(sigma) for sigma in swaps]

    def colmap(self, sigma):
        """The column map of x_(i+1) -> x_(sigma[i]+1), sigma in S_n."""
        word = [self._rank[tuple(sigma[i] for i in w)] for w in self._words]
        return [s + r for s in range(0, len(self.basis), len(word))
                for r in word]

    def action(self, sigma):
        """``colmap(sigma)`` as a map on sparse vectors."""
        colmap = self.colmap(sigma)
        return lambda v: {colmap[i]: c for i, c in v.items()}


def _lift_maps(low, space, d):
    """Column maps, from the degree-(d-1) basis ``low`` into ``space``, of
    the one-step T-ideal liftings of g: with y = x_d, (g, y) and (y, g),
    then g at x_i -> (x_i, y) and at x_i -> (y, x_i) for i < d.  Each
    sends basis terms to basis terms injectively, so lifting the sum of
    the basis terms with coefficients 1, 2, ... gives the map."""
    y = TermPoly.var(f"x{d}")
    numbered = TermPoly({t: k for k, t in enumerate(low, 1)})
    lifted = [bnode(numbered, y), bnode(y, numbered)]
    for i in range(1, d):
        xi = TermPoly.var(f"x{i}")
        for sub in (bnode(xi, y), bnode(y, xi)):
            lifted.append(substitute(numbered, {f"x{i}": sub}))
    return [[space.index[t] for t in sorted(p.terms, key=p.terms.get)]
            for p in lifted]


def _close(red, transpositions, lifted):
    """Grow ``red`` to the smallest span that contains it and is closed
    under S_n.  ``transpositions`` must be the adjacent transpositions
    s_1, ..., s_{n-1} of S_n, in this order, as callables on sparse
    vectors (``_DegreeSpace.transpositions``).  ``lifted`` says that
    ``red`` holds just the ``_lift_maps`` images of a degree-(n-1) span
    closed under S_{n-1}.

    A FIFO worklist applies the transpositions to every row, the rows
    already in ``red`` first; once the queue is empty the span is closed.
    This accepts the same rows in the same order as passes that re-apply
    every transposition to every pivot row until a pass adds nothing.
    Pivot rows are never rewritten after insertion and pivot_rows iterates
    in insertion order, so the queue meets rows in the order those passes
    first visit them; a later visit only re-inserts vectors already in the
    span, which are rejected without changing any state.

    Each queued row r records ``via``, the k of the s_k whose image it was
    accepted from (its position in ``transpositions``; None for the rows
    already in ``red``), and its parent's ``via``.  s_j is skipped for r
    when j = k, when j <= k - 2, and when j = k + 1 and the parent r' of r
    has ``via`` k + 1, as s_j(r) is then in the span already.  Proof, by
    induction on the order in which rows are popped (every image of a
    processed row is in the span): r was accepted while r' was processed,
    so r is a multiple of s_k(r') modulo rows accepted before r; by FIFO
    order these were processed before r is popped, so their images are in
    the span.  For j = k, s_k(s_k(r')) = r'.  For j <= k - 2, s_j s_k(r') =
    s_k s_j(r') by the Coxeter relations, and s_j(r') was inserted (or
    skipped) before s_k(r'), so it lies in the span of rows accepted before
    r, whose s_k images are in the span.  In the braid case r' is likewise
    a multiple of s_{k+1}(r'') modulo rows accepted before r', whose s_k
    and s_{k+1} images lie in the span of rows accepted before r; so
    s_{k+1}(r) is a multiple of s_{k+1} s_k s_{k+1}(r'') = s_k s_{k+1}
    s_k(r''), and s_k(r'') was inserted (or skipped) before s_{k+1}(r''),
    so it lies in the span of rows accepted before r'.

    When ``lifted``, s_1, ..., s_{n-2} are skipped for the rows already
    in ``red``.  Those rows span the lifts of a degree-(n-1) span W closed
    under S_{n-1}, and s_j for j <= n-2 fixes x_n: renaming a lift of g
    by a sigma that fixes x_n gives a lift of sigma(g) (the slot
    x_i -> (x_i, x_n) moving to x_sigma(i)), and sigma(g) lies in W.  So
    these images lie in the span of the rows already in ``red``, and the
    induction above holds as before.  A skipped insert would be rejected
    without changing any state, so skipping it accepts exactly the same
    rows in the same order.
    """
    last = len(transpositions) - 1
    queue = deque((vec, None, None) for vec in red.pivot_rows.values())
    while queue:
        vec, via, parent = queue.popleft()
        for j, act in enumerate(transpositions):
            if via is None:
                if lifted and j < last:
                    continue
            elif j == via or j <= via - 2 or j == via + 1 == parent:
                continue
            if red.insert(act(vec)):
                # the accepted row is the newest pivot row
                queue.append((next(reversed(red.pivot_rows.values())), j,
                              via))


def _usable(identities, n, kind="b"):
    """``_multilinear_at_x`` of each identity; ValueError above degree n."""
    _check_degree(n)
    items = [_multilinear_at_x(it, kind) for it in identities]
    if any(d > n for d, _ in items):
        raise ValueError("identity degree exceeds target degree")
    return items


def _degrees(items, n):
    """For each d from the least degree of the ``_usable`` identities
    ``items`` (n if there are none) to n: d, the ``_DegreeSpace`` of
    degree d, the ``_lift_maps`` into it from degree d-1 (none at the
    first d) and the vectors of the identities of degree d."""
    space = None
    for d in range(min((d for d, _ in items), default=n), n + 1):
        low, space = space, _DegreeSpace(d)
        lifts = [] if low is None else _lift_maps(low.basis, space, d)
        yield d, space, lifts, [poly_to_vec(p, space.index)
                                for deg, p in items if deg == d]


def _consequences(items, n):
    """The reducer of the degree-n ``consequence_span`` of the ``_usable``
    identities ``items``, closed under S_n, and the ``_DegreeSpace`` of
    its columns."""
    rows = []
    for _, space, lifts, vecs in _degrees(items, n):
        reducer = SpanReducer()
        for vec in itertools.chain(
                vecs,
                ({m[i]: c for i, c in row.items()}
                 for row in rows for m in lifts)):
            reducer.insert(vec)
        _close(reducer, space.transpositions, bool(lifts) and not vecs)
        rows = [reducer.pivot_rows[c] for c in sorted(reducer.pivot_rows)]
    return reducer, space


def consequence_span(identities, n):
    """Span of all multilinear degree-n T-ideal consequences.

    ``identities`` is a list of Templates or multilinear TermPolys over
    the bracket.  The result is the span's primitive integer echelon rows
    in pivot order, as sparse vectors over the degree-n magmatic basis
    (use ``magmatic_basis(n)`` for the column meaning).  Raises ValueError
    for an identity that is not multilinear or has product nodes.
    """
    red, _ = _consequences(_usable(identities, n), n)
    return [red.pivot_rows[c] for c in sorted(red.pivot_rows)]


def consequences_per_lambda(identities, n, caps):
    """The degree-n consequence span of ``identities`` split by the
    irreducibles of S_n: per partition λ (``symmetric.partitions``
    order), the span of the stacked rho_λ(g) over its S_n-module
    generators g, grown at most to ``caps[λ]`` (``symmetric.grow``).
    Uncapped, ``symmetric.dimension`` of the result is
    ``len(consequence_span(identities, n))``.

    The generators are the identities of degree n and the lifts of the
    generators of degree n-1 (200 vectors at degree 5 for the six of the
    paper).  Lifting commutes with S_{n-1}: renaming the lift of g by
    sigma, which fixes x_n, gives a lift of g renamed by sigma (the slot
    x_i -> (x_i, x_n) moving to x_sigma(i)).  So the lifts of the
    degree-(n-1) span, which ``consequence_span`` inserts before closing,
    lie in the module the lifts of its generators generate.
    """
    return _per_lambda(_usable(identities, n), n, caps)


def _per_lambda(items, n, caps):
    """``consequences_per_lambda`` of the ``_usable`` identities
    ``items``."""
    gens = []
    for _, _, lifts, vecs in _degrees(items, n):
        gens = [_to_int_row(v) for v in vecs] + [
            {m[i]: c for i, c in g.items()} for g in gens for m in lifts]
    return grow(n, gens, caps)


def new_identities(known, n):
    """Compare the full identity space at degree n with the consequences
    of ``known``.

    Returns {kernel_dim, consequence_dim, new_dim, representatives}, with
    dim K and the multiplicities m_λ(K) of the irreducibles of S_n in the
    kernel K from ``kernel_multiplicities`` (exact).  ``consequence_dim``
    is sum_λ d_λ dim R_λ over ``consequences_per_lambda`` capped at
    m_λ(K).  Its generators are consequences, which lie in K, so dim R_λ
    is at most the multiplicity of λ in the consequences, itself at most
    m_λ(K); a sum equal to dim K proves that they span K, and then nothing
    more is built.  ``new_dim`` counts a greedy set of new identities
    whose orbits span K with the consequences R.  In each round every
    kernel basis vector v is scored by its gain, the dimension its orbit
    adds to R, read off per irreducible as
    sum_λ d_λ (rank [R_λ; rho_λ(v)] - rank R_λ); the first vector of
    largest gain wins and its orbit joins R, until R reaches dim K.  The
    winner's residue r modulo the orbits of the representatives chosen
    before it, divided by the positive gcd of its integer coefficients
    (so primitive, with its sign kept), joins ``representatives``.  Any
    such r serves: those orbits span an S_n-closed R' inside R, and
    v - r lies in R', so S_n r + R = S_n v + R, and r is not 0 because
    v is not in R.  R is held only as its per-λ spans R_λ.  A greedy set
    need not be a smallest one, so ``new_dim`` bounds the number of new
    generators needed from above.
    Raises ValueError before anything is built for a degree out of range
    and for a known identity that ``_usable`` refuses or (with a witness)
    that does not vanish in mutations of perm algebras.
    """
    items = _usable(known, n)
    for it, (_, poly) in zip(known, items):
        val = expand(poly)
        if val:
            name = it.name if isinstance(it, Template) else str(it)
            raise ValueError(f"not an identity: {name}; expansion {val}")

    expansion = _expansion(n)
    kdim, caps = kernel_multiplicities(n, expansion)
    spans = _per_lambda(items, n, caps)
    cdim = dimension(n, spans)

    representatives = []
    if cdim < kdim:
        kb = kernel_basis(expansion[0].transpose())
        space = _DegreeSpace(n)
        orbit = [space.action(sigma)
                 for sigma in itertools.permutations(range(n))]
        # the orbits of the representatives so far, to reduce the next one
        chosen = SpanReducer()
        # The per-λ spans hold R, which stays closed under variable
        # permutations.  R and every candidate lie in the kernel, so
        # m_λ(K) caps each R_λ exactly, and a candidate whose gain
        # reaches kdim ends the round.  The gain dim S_n v - dim(S_n v ∩ R)
        # cannot grow with R, so a candidate's last gain bounds its gain
        # now, and one whose bound cannot beat the best gain is skipped.
        candidates = [_to_int_row(v) for v in kb]
        bounds = [kdim] * len(kb)
        dim = cdim
        while dim < kdim:
            best, best_dim = None, dim
            for i, v in enumerate(candidates):
                if dim + bounds[i] <= best_dim:
                    continue
                trial = grow(n, [v], caps, spans)
                trial_dim = dimension(n, trial)
                bounds[i] = trial_dim - dim
                if trial_dim > best_dim:
                    best, best_dim, best_spans = i, trial_dim, trial
                    if trial_dim == kdim:
                        break
            residue = chosen.residue(kb[best])
            content = gcd(*residue.values())
            residue = {k: c // content for k, c in residue.items()}
            representatives.append(vec_to_poly(residue, space.basis))
            for act in orbit:
                chosen.insert(act(residue))
            spans, dim = best_spans, best_dim
    return {"kernel_dim": kdim, "consequence_dim": cdim,
            "new_dim": len(representatives),
            "representatives": representatives}


def tideal_membership(target, defining, kind="m"):
    """Does ``target`` follow from ``defining`` as a multilinear T-ideal
    consequence at its own degree?

    ``target`` must be multilinear; its variables are canonicalized to
    x1..xn in sorted order.  ``defining`` are templates/polynomials over
    the same node kind ('m' for ordinary-product varieties such as
    bicommutative algebras, 'b' for the bracket); both are checked for it
    and then relabelled to bracket polynomials, which the scan runs on.
    """
    n, poly = _multilinear_at_x(target, kind)
    red, space = _consequences(_usable(defining, n, kind), n)
    return red.contains(poly_to_vec(poly, space.index))
