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
from math import factorial, gcd, lcm

from .linalg import SpanReducer


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


def grow(n, vectors, caps, spans=None):
    """Per partition λ of n, the row span of the stacked rho_λ(v), v in
    the integer sparse ``vectors`` in order, on top of a copy of
    ``spans[λ]`` (an empty span when ``spans`` is None): a list of
    ``SpanReducer``s.  Each stops once its dimension reaches ``caps[λ]``,
    so it is never above the rank it would have with no cap, and it is
    that rank whenever the cap is not below it.  The spans given are not
    changed; one already at its cap is returned as it is."""
    out = []
    for k, rep in enumerate(irreps(n)):
        if spans is not None and spans[k].dim >= caps[k]:
            out.append(spans[k])
            continue
        red = SpanReducer()
        if spans is not None:
            red.pivot_rows = dict(spans[k].pivot_rows)
        for v in vectors:
            if red.dim >= caps[k]:
                break
            for row in rep.rows(v):
                if red.insert(row) and red.dim >= caps[k]:
                    break
        out.append(red)
    return out


def dimension(n, spans):
    """sum_λ d_λ * dim spans[λ]: the dimension of the submodule of V_n
    whose multiplicities are the dimensions of the per-λ ``spans``."""
    return sum(rep.dim * red.dim for rep, red in zip(irreps(n), spans))
