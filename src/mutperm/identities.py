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

from .linalg import (Combination, Matrix, SpanReducer, _to_int_row,
                     kernel_basis, rref)
from .mutation import bracket_monomials, expand, tree_shapes
from .symmetric import Quotient, dimension, grow, irreps, multiplicities
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


def _tail_q_expansion(shape, first=0):
    """The expansion of the bracket tree ``shape`` (``tree_shapes``) on
    the leaves first, first + 1, ..., leaf i standing for x_(i+1), as a
    Combination keyed by (tail leaf, number of q's): see ``_expansion``.
    In <u, v> = (u p) v - (v q) u the first product takes its tail from
    v and the q's of both factors, the second its tail from u and one q
    more; this is ``mutation.expand``'s order of terms."""
    if shape is None:
        return Combination({(first, 0): 1})
    k, left, right = shape
    u = _tail_q_expansion(left, first)
    v = _tail_q_expansion(right, first + k)
    return (u.product(v, lambda s, t: (t[0], s[1] + t[1]))
            - v.product(u, lambda s, t: (t[0], s[1] + t[1] + 1)))


def _expansion(n):
    """``expansion_matrix(n)`` and ``columns``: ``columns[r][(t, k)]`` is
    the column of the monomial with tail x_(t+1) and k q's of the shapes'
    expansions (``_tail_q_expansion``) renamed by the r-th leaf word.

    Every bracket monomial of degree n in x1..xn expands into monomials
    with all n letters once and n - 1 parameters, and left-commutativity
    sorts the prefix, so such a monomial is fixed by its tail x_(t+1) and
    its number k of q's.  Column t*n + k is that monomial: the n^2 pairs
    (t, k) in sorted order are ``perm.mono_key`` order, which compares
    tails first and then the sorted prefixes, where the x's agree and,
    as p < q, the one with fewer q's comes first.

    Renaming x-generators is an automorphism of the free perm algebra
    that fixes p and q and commutes with the bracket
    (``mutation._canonical``), so only the tree of each shape at x1..xn
    is expanded: at the leaf word w the row is its expansion renamed by
    x_i -> w_i, term for term, and renaming keeps the q's and sends the
    tail x_(t+1) to x_(w[t]+1).
    """
    _check_degree(n)
    shapes = [_tail_q_expansion(shape) for shape in tree_shapes(n)]
    columns = [{(t, k): w[t] * n + k for t in range(n) for k in range(n)}
               for w in itertools.permutations(range(n))]
    rows = [{col[m]: c for m, c in e.terms.items()}
            for e in shapes for col in columns]
    return Matrix(rows, n * n), columns


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
    """(stop level, column map) of each one-step T-ideal lifting of g,
    from the degree-(d-1) basis ``low`` into ``space``: with y = x_d,
    (g, y) and (y, g) at stop level 0, then g at x_i -> (x_i, y) and at
    x_i -> (y, x_i) at stop level i, for i < d (see ``_close``).  Each
    map sends basis terms to basis terms injectively, so lifting the sum
    of the basis terms with coefficients 1, 2, ... gives the map."""
    y = TermPoly.var(f"x{d}")
    numbered = TermPoly({t: k for k, t in enumerate(low, 1)})
    lifted = [(0, bnode(numbered, y)), (0, bnode(y, numbered))]
    for i in range(1, d):
        xi = TermPoly.var(f"x{i}")
        for sub in (bnode(xi, y), bnode(y, xi)):
            lifted.append((i, substitute(numbered, {f"x{i}": sub})))
    return [(stop, [space.index[t] for t in sorted(p.terms, key=p.terms.get)])
            for stop, p in lifted]


def _close(red, transpositions, lifted):
    """Grow ``red`` to the smallest span that contains it and is closed
    under S_n.  ``transpositions`` must be the adjacent transpositions
    s_1, ..., s_{n-1} of S_n, in this order, as callables on sparse
    vectors (``_DegreeSpace.transpositions``).  ``lifted`` is None, or,
    when ``red`` holds just the ``_lift_maps`` images of a degree-(n-1)
    span closed under S_{n-1}, the stop level of the map that each row of
    ``red`` was accepted from, in order.

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

    When ``lifted``, each row tries one transposition only.  Write t_j
    for ``transpositions[j]``, which swaps x_{j+1} and x_{j+2}.  A row
    already in ``red`` tries t_{n-2} (``last``), and a row accepted from
    t_k tries t_{k-1} (nothing for k = 0).  This walks coset chains.  The
    rows already in ``red`` span W0, the lifts of a degree-(n-1) span W
    closed under S_{n-1}.  W0 is closed under t_0, ..., t_{n-3}, which fix
    x_n: renaming a lift of g by a sigma that fixes x_n gives a lift of
    sigma(g) (the slot x_i -> (x_i, x_n) moving to x_sigma(i)), and
    sigma(g) lies in W.  Let c_i = t_i t_{i+1} ... t_{n-2}, with c_{n-1}
    the identity; c_i sends x_n to x_{i+1}, so S_n is the disjoint union
    of the cosets c_i S_{n-1}.  Let U_k = c_k W0 + ... + c_{n-1} W0.  The
    relations t_{i-1} c_i = c_{i-1}, t_i c_i = c_{i+1}, t_j c_i = c_i t_j
    (j <= i - 2), t_{i+1} c_i = c_i t_i and t_j c_i = c_i t_{j-1}
    (j >= i + 2) show that U_k is closed under every t_j with j != k - 1,
    and that U_k + t_{k-1} U_k = U_{k-1}.

    Call the rows already in ``red`` level n - 1 and a row accepted from
    t_k level k.  Level-k rows come only from level-(k+1) rows, so FIFO
    order pops the levels n - 1, n - 2, ..., 0 one after another, and
    when the first level-k row is popped every row of level >= k is in
    ``red``.  By induction on the level, the rows of level >= k span U_k:
    the level-k rows are the t_k images of the level-(k+1) rows, reduced
    modulo rows of level >= k; the rows of level > k + 1 span U_{k+2},
    which t_k maps to itself; so the rows of level >= k span U_{k+1} +
    t_k U_{k+1} = U_k.  A level-k row r lies in U_k, so every image t_j(r)
    with j != k - 1 is in the span when r is popped, and inserting it
    would be rejected without changing any state.  So skipping these
    inserts accepts exactly the same rows in the same order, and U_0,
    closed under every t_j, is the closure.

    A chain also ends at its lift's own variable: a row of level k tries
    nothing when the row of ``red`` it descends from has stop level k.
    Let L_i and R_i put (x_i, x_n) and (x_n, x_i) into the slot x_i (stop
    level i; (g, x_n) and (x_n, g) have stop level 0).  c_k fixes x_1,
    ..., x_k and sends x_n to x_{k+1}, so t_{k-1} c_k L_k = c_k R_k and
    t_{k-1} c_k R_k = c_k L_k.  Call row m of ``red`` w_m; it and the
    rows descended from it, at most one per level, form chain m, and FIFO
    order keeps the chains in order at every level.  Let W0_m be the span
    of w_1, ..., w_m and V_{k,m} = U_{k+1} + c_k W0_m (U_n = 0).  Without
    the stop, by induction on n - k and m, the rows of level > k and the
    level-k rows of chains 1..m span V_{k,m}: chain m's level-(k+1) row,
    if any, is a nonzero multiple of c_{k+1} w_m modulo V_{k+1,m-1}, so
    its t_k image is one of c_k w_m modulo t_k V_{k+1,m-1}, inside
    V_{k,m-1}; if it has none, c_{k+1} w_m lies in V_{k+1,m-1}, so c_k
    w_m lies in V_{k,m-1}.  Now let w_m be accepted from a = L_k(g) or
    R_k(g), so it is a multiple of a modulo W0_{m-1}.  When chain m's
    level-k row r is popped the span is V_{k-1,m-1}, which holds t_{k-1}
    V_{k,m-1} and c_{k-1} W0_{m-1}; so modulo the span t_{k-1}(r) is a
    multiple of c_{k-1} a = t_{k-1} c_k a, which lies in c_k W0, inside
    U_k, as L_k(g) and R_k(g) lie in W0.  So the insert would be
    rejected; by induction on the order in which rows are popped, the
    stop skips only rejected inserts.
    """
    last = len(transpositions) - 1
    stops = itertools.repeat(None) if lifted is None else lifted
    queue = deque((vec, None, None, stop)
                  for vec, stop in zip(red.pivot_rows.values(), stops))
    while queue:
        vec, via, parent, stop = queue.popleft()
        for j, act in enumerate(transpositions):
            if lifted is not None:
                if j != (last if via is None else via - 1) or j < stop:
                    continue
            elif via is not None and (j == via or j <= via - 2
                                      or j == via + 1 == parent):
                continue
            if red.insert(act(vec)):
                # the accepted row is the newest pivot row
                queue.append((next(reversed(red.pivot_rows.values())), j,
                              via, stop))


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
        for vec in vecs:
            reducer.insert(vec)
        # the stop level of each lift that the reducer accepts
        stops = [stop for row in rows for stop, m in lifts
                 if reducer.insert({m[i]: c for i, c in row.items()})]
        _close(reducer, space.transpositions, None if vecs else stops)
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
            {m[i]: c for i, c in g.items()} for g in gens for _, m in lifts]
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
    sum_λ d_λ (rank [R_λ; rho_λ(v)] - rank R_λ), which ``Quotient`` reads
    in null-space coordinates as sum_λ d_λ rank(rho_λ(v) N_λ); the first
    vector of largest gain wins and its orbit joins R, until R reaches
    dim K.  The winner's residue r modulo the orbits of the
    representatives chosen before it, divided by the positive gcd of its
    integer coefficients (so primitive, with its sign kept), joins
    ``representatives``.  Any
    such r serves: those orbits span an S_n-closed R' inside R, and
    v - r lies in R', so S_n r + R = S_n v + R, and r is not 0 because
    v is not in R.  R is held only per irreducible, never as a direct
    span.  QS_n is split semisimple and holds λ d_λ times, so a module
    that g vectors generate holds λ at most g d_λ times, and K/R needs at
    least max_λ ceil((m_λ(K) - dim R_λ) / d_λ) new generators.
    ``new_dim`` meets this bound, so the greedy set is a smallest one,
    for f, wa, hbar and ibar at degrees 4 and 5 (2 each), f and wa at
    degrees 3 (0) and 4 (2), f at degrees 3 (1) and 4 (5), wa at degree
    4 (2) and nothing known at degrees 3 (2), 4 (5) and 5 (14).
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
        # R stays closed under variable permutations.  R and every
        # candidate lie in the kernel, so m_λ(K) caps each R_λ exactly,
        # and a candidate whose gain reaches kdim ends the round.  The
        # gain dim S_n v - dim(S_n v ∩ R) cannot grow with R, so a
        # candidate's last gain bounds its gain now, and one whose bound
        # cannot beat the best gain is skipped.  A candidate's rho_λ rows
        # are built when it is first scored and kept for later rounds.
        quotient = Quotient(n, spans, caps)
        rows = [None] * len(kb)
        bounds = [kdim] * len(kb)
        dim = cdim
        while dim < kdim:
            best, best_dim = None, dim
            for i, v in enumerate(kb):
                if dim + bounds[i] <= best_dim:
                    continue
                if rows[i] is None:
                    rows[i] = quotient.rows(_to_int_row(v))
                bounds[i] = quotient.gain(rows[i])
                if dim + bounds[i] > best_dim:
                    best, best_dim = i, dim + bounds[i]
                    if best_dim == kdim:
                        break
            quotient.add(rows[best])
            residue = chosen.residue(kb[best])
            content = gcd(*residue.values())
            residue = {k: c // content for k, c in residue.items()}
            representatives.append(vec_to_poly(residue, space.basis))
            for act in orbit:
                chosen.insert(act(residue))
            dim = best_dim
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
