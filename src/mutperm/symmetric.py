"""Young's seminormal form of the symmetric group S_n, and per-λ ranks.

The multilinear magmatic space V_n is C = Catalan(n-1) copies of the
group algebra QS_n: column s*n! + r is tree shape s with the r-th word of
``itertools.permutations(range(n))``, and renaming x_i -> x_sigma(i) is
left multiplication, sending the word w to sigma o w.  QS_n is split
semisimple over Q: w -> (rho_λ(w))_λ is an isomorphism onto the product of
the matrix algebras M_{d_λ}(Q) over the partitions λ of n (Wedderburn).
So for v in V_n let rho_λ(v) be the d_λ x C*d_λ matrix whose block s is
sum_r c_{s,r} rho_λ(w_r); the submodule that g_1, ..., g_k generate has
d_λ copies of the row space of the stacked rho_λ(g_i) at each λ, and its
dimension is sum_λ d_λ * rank, each rank being the multiplicity of λ.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm

from .linalg import Matrix, SpanReducer, _to_int_row, kernel_basis


def partitions(n, largest=None):
    """The partitions of n, each with its parts in decreasing order, in
    decreasing lexicographic order: (n), (n-1, 1), ..., (1, ..., 1)."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [(k,) + rest for k in range(min(n, largest), 0, -1)
            for rest in partitions(n - k, k)]


def standard_tableaux(shape):
    """The standard Young tableaux of ``shape``, each as the tuple of the
    (row, column) cells of the entries 0, 1, ..., n-1."""
    out = []

    def place(cells, lengths):
        if len(cells) == sum(shape):
            out.append(tuple(cells))
        for r, length in enumerate(lengths):
            if length < shape[r] and (r == 0 or lengths[r - 1] > length):
                lengths[r] += 1
                place(cells + [(r, length)], lengths)
                lengths[r] -= 1

    place([], [0] * len(shape))
    return out


def _seminormal(tableaux):
    """Young's seminormal action of s_k, the swap of the entries k and
    k+1, on the basis v_t of the tableaux t, times one common denominator
    D: D and, per k, per t, the list of (index, coefficient) of D s_k v_t.
    With a = c(k+1) - c(k) the axial distance (c = column - row),
    s_k v_t = v_t / a + b v_t', where t' is t with k and k+1 swapped,
    b = 1 if k+1 lies in a lower row than k and b = 1 - 1/a^2 otherwise.
    When k and k+1 share a row or a column, a = 1 or -1 and t' is not
    standard, and s_k v_t = a v_t."""
    n = len(tableaux[0])
    index = {t: i for i, t in enumerate(tableaux)}
    den = lcm(*(a * a for a in range(1, n)))
    acts = []
    for k in range(n - 1):
        act = []
        for t in tableaux:
            (r1, c1), (r2, c2) = t[k], t[k + 1]
            a = (c2 - r2) - (c1 - r1)
            column = [(index[t], den // a)]
            if r1 != r2 and c1 != c2:
                swapped = t[:k] + (t[k + 1], t[k]) + t[k + 2:]
                column.append((index[swapped],
                               den if r2 > r1 else den - den // (a * a)))
            act.append(column)
        acts.append(act)
    return den, acts


class Irrep:
    """The irreducible representation rho_λ of S_n for the partition
    ``shape``, of dimension ``dim``.  ``words[r]`` is scale * rho_λ(w_r)
    for the r-th word of ``itertools.permutations(range(n))``, a row-major
    tuple of ints: one common denominator ``scale`` clears every entry of
    every rho_λ(w), and a nonzero scalar leaves every rank unchanged.
    ``traces[r]`` is the trace of ``words[r]``."""

    def __init__(self, shape):
        tableaux = standard_tableaux(shape)
        den, acts = _seminormal(tableaux)
        d = len(tableaux)
        n = sum(shape)
        # breadth-first over S_n from the identity word, each rho(w) as an
        # integer matrix over its denominator in lowest terms: rho(s_k o w)
        # is rho(s_k) rho(w), whose row i sums c * (row t of rho(w)) over
        # the (i, c) in the column action of s_k on v_t
        first = tuple(range(n))
        mats = {first: ([int(i == j) for i in range(d) for j in range(d)],
                        1)}
        queue = deque([first])
        while queue:
            w = queue.popleft()
            m, q = mats[w]
            for k, act in enumerate(acts):
                sw = tuple(k + 1 if x == k else k if x == k + 1 else x
                           for x in w)
                if sw in mats:
                    continue
                rows = [[0] * d for _ in range(d)]
                for t, column in enumerate(act):
                    row = m[t * d:t * d + d]
                    for i, c in column:
                        rows[i] = [x + c * y for x, y in zip(rows[i], row)]
                flat = [x for row in rows for x in row]
                g = gcd(q * den, *flat)
                mats[sw] = [x // g for x in flat], q * den // g
                queue.append(sw)
        self.shape, self.dim, self.nwords = shape, d, len(mats)
        self.scale = lcm(*(q for _, q in mats.values()))
        self.words = [tuple(x * (self.scale // q) for x in m)
                      for m, q in map(mats.get,
                                      itertools.permutations(range(n)))]
        self.traces = [sum(m[::d + 1]) for m in self.words]

    def rows(self, v):
        """The rows of scale * rho_λ(v), for v an integer sparse vector
        over V_n, as sparse vectors with column s*dim + j in block s."""
        d = self.dim
        blocks = {}
        for col, c in v.items():
            s, r = divmod(col, self.nwords)
            m = self.words[r]
            acc = blocks.get(s)
            blocks[s] = ([c * y for y in m] if acc is None
                         else [x + c * y for x, y in zip(acc, m)])
        out = [{} for _ in range(d)]
        for s, acc in blocks.items():
            for e, x in enumerate(acc):
                if x:
                    i, j = divmod(e, d)
                    out[i][s * d + j] = x
        return [row for row in out if row]


@cache
def irreps(n):
    """The ``Irrep`` of every partition of n, in ``partitions`` order;
    built on first use for each n, and shared."""
    return tuple(Irrep(shape) for shape in partitions(n))


def multiplicities(n, character):
    """The multiplicity (1/n!) sum_sigma chi(sigma) chi_λ(sigma) of each
    irreducible, in ``partitions`` order, in the representation of S_n
    whose character takes the value ``character[r]`` at the r-th word.
    Raises ValueError if one is not a whole number."""
    out = []
    for rep in irreps(n):
        m = Fraction(sum(x * t for x, t in zip(character, rep.traces)),
                     rep.scale * factorial(n))
        if m.denominator != 1:
            raise ValueError(f"{rep.shape} has multiplicity {m}: the "
                             f"values are not a character")
        out.append(int(m))
    return out


def grow(n, vectors, caps):
    """Per partition λ of n, the row span of the stacked rho_λ(v), v in
    the integer sparse ``vectors`` in order: a list of ``SpanReducer``s.
    Each stops once its dimension reaches ``caps[λ]``, so it is never
    above the rank it would have with no cap, and it is that rank
    whenever the cap is not below it."""
    out = []
    for k, rep in enumerate(irreps(n)):
        red = SpanReducer()
        for v in vectors:
            if red.dim >= caps[k]:
                break
            for row in rep.rows(v):
                if red.insert(row) and red.dim >= caps[k]:
                    break
        out.append(red)
    return out


def _as_rows(columns, nrows):
    """The nrows x len(columns) integer matrix whose column t is
    ``columns[t]`` scaled by ``_to_int_row``, as its sparse rows."""
    rows = [{} for _ in range(nrows)]
    for t, v in enumerate(columns):
        for i, c in _to_int_row(v).items():
            rows[i][t] = c
    return rows


def _times(x, rows):
    """The sparse row x times the matrix of the sparse ``rows``; x itself
    when ``rows`` is None, the identity."""
    if rows is None:
        return x
    out = {}
    for i, c in x.items():
        for t, a in rows[i].items():
            out[t] = out.get(t, 0) + c * a
    return {t: c for t, c in out.items() if c}


class Quotient:
    """V_n modulo a submodule R, in null-space coordinates per
    irreducible.  R starts as the per-λ ``spans`` of ``grow`` capped at
    ``caps[λ]``, the multiplicities of λ in a submodule K that holds R
    and every vector given later.  λ is open while dim R_λ < caps[λ];
    ``room[λ]`` is caps[λ] - dim R_λ, and N_λ is an integer basis of the
    right null space of R_λ's rows, its columns the ``kernel_basis``
    vectors scaled by ``_to_int_row`` (None, the identity, while R_λ is
    empty; nothing once λ closes).

    The gain of v, dim(S_n v + R) - dim R, is sum_λ d_λ rank(rho_λ(v) N_λ)
    over the open λ.  By the double annihilator, x N_λ = 0 exactly when
    the row x lies in R_λ, so rank(rho_λ(v) N_λ) = rank [R_λ; rho_λ(v)] -
    rank R_λ, and a row of rho_λ(v) N_λ is independent of the rows before
    it exactly when the row of rho_λ(v) is independent of R_λ and the
    rows before it: ranking the products makes the insert calls, with the
    same results, that inserting rho_λ(v) on top of R_λ makes.  The rank
    stops at room[λ], where such a span stops at its cap; v in K keeps it
    from stopping early.  No row is reduced against R_λ.  Adding S_n w
    to R replaces N_λ by N_λ M, M a basis of the null space of
    Y = rho_λ(w) N_λ, as null(R_λ + rowspace rho_λ(w)) = N_λ null(Y),
    and room[λ] drops by rank Y."""

    def __init__(self, n, spans, caps):
        self.reps = irreps(n)
        self.room = [cap - red.dim for cap, red in zip(caps, spans)]
        self.width, self.null = [], []
        shapes = comb(2 * n - 2, n - 1) // n
        for rep, red, room in zip(self.reps, spans, self.room):
            cols, rows = shapes * rep.dim, list(red.pivot_rows.values())
            self.width.append(cols - len(rows))
            self.null.append(_as_rows(kernel_basis(Matrix(rows, cols)), cols)
                             if room and rows else None)

    def rows(self, v):
        """rho_λ(v) (``Irrep.rows``) at each open λ, None at the others,
        for v an integer sparse vector over V_n."""
        return [rep.rows(v) if room else None
                for rep, room in zip(self.reps, self.room)]

    def gain(self, rows):
        """dim(S_n v + R) - dim R for the ``rows(v)`` of a v in K: the
        rank of rho_λ(v) N_λ, counted d_λ times, over the open λ."""
        total = 0
        for rep, room, null, x in zip(self.reps, self.room, self.null,
                                      rows):
            if not room:
                continue
            red = SpanReducer()
            for row in x:
                if red.insert(_times(row, null)) and red.dim >= room:
                    break
            total += rep.dim * red.dim
        return total

    def add(self, rows):
        """Add S_n w to R, for the ``rows(w)`` of a w in K."""
        for k, x in enumerate(rows):
            if not self.room[k]:
                continue
            width, null = self.width[k], self.null[k]
            m = kernel_basis(Matrix([_times(row, null) for row in x], width))
            self.room[k] -= width - len(m)
            self.width[k] = len(m)
            if not self.room[k]:
                self.null[k] = None
            elif len(m) < width:
                m = _as_rows(m, width)
                self.null[k] = (m if null is None
                                else [_times(row, m) for row in null])


def dimension(n, spans):
    """sum_λ d_λ * dim spans[λ]: the dimension of the submodule of V_n
    whose multiplicities are the dimensions of the per-λ ``spans``."""
    return sum(rep.dim * red.dim for rep, red in zip(irreps(n), spans))
