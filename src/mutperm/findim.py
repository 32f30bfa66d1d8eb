"""Finite-dimensional algebras given by structure constants.

An algebra is a dim x dim x dim table c with e_i e_j = sum_k c[i][j][k] e_k
over the rationals; no axioms are assumed.  This is enough to evaluate
bracket/product polynomials on concrete vectors, to build the
(p,q)-mutation of an algebra as a new table, and to decide multilinear
identities exactly by scanning basis tuples.

Bracket nodes in a polynomial are evaluated as (x p) y - (y q) x when
vectors p, q are supplied; without them the algebra's own product is used
for brackets too (for tables that already describe a bracket, like the
three-dimensional counterexample bundled as data/prop35.alg).
"""

from __future__ import annotations

import itertools
import json
import math
import os
from fractions import Fraction
from operator import itemgetter

from .linalg import Matrix, rref, signed_sum, solve
from .terms import (TEMPLATES, Template, TermPoly, mnode, multilinearize,
                    term_vars)

# Largest dimension load_algebra accepts.  FiniteAlgebra holds a dense
# dim x dim x dim table, so a file naming dim 2000 would ask for 8e9
# entries; 32 keeps it at 32,768.
MAX_DIM = 32

# Most coordinates the value tables of one satisfies call may hold.  A
# subtree with m leaves has dim^m values of up to dim coordinates each,
# so this bounds the memory of a check: at dim 32 every template of
# degree 3 and the Jacobiator fit, and crit36 (degree 5) fits up to
# dim 9.
MAX_TABLE_COORDS = 1_000_000


def _frac_list(coords, dim):
    v = [Fraction(c) for c in coords]
    if len(v) != dim:
        raise ValueError(f"vector length {len(v)} != dim {dim}")
    return v


class FiniteAlgebra:
    """Structure-constants algebra over the rationals; it starts from the
    zero table, which callers fill in."""

    def __init__(self, dim, names=None):
        self.dim = dim
        self.names = list(names) if names else [f"e{i + 1}" for i in range(dim)]
        if len(self.names) != dim:
            raise ValueError("names length does not match dim")
        self.table = [[[Fraction(0)] * dim for _ in range(dim)]
                      for _ in range(dim)]

    def zero(self):
        return [Fraction(0)] * self.dim

    def basis(self, i):
        v = self.zero()
        v[i] = Fraction(1)
        return v

    def mul(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector dimension mismatch")
        out = self.zero()
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, t in enumerate(self.table[i][j]):
                    if t:
                        out[k] += c * t
        return out

    def vec_str(self, v):
        return signed_sum(((c, name) for c, name in zip(v, self.names) if c),
                          " ")

    def __eq__(self, other):
        return (isinstance(other, FiniteAlgebra) and self.dim == other.dim
                and self.names == other.names and self.table == other.table)


def load_algebra(source):
    """Read the JSON algebra format.

    {"dim": n, "names": [...], "table": [[i, j, k, "c"], ...]} with 1-based
    indices and rational strings (or JSON integers); omitted entries are
    zero.  ``source`` is a path (str, bytes or os.PathLike), a file object
    or the parsed document.  A repeated [i, j, k] entry, a JSON float
    coefficient (which is not an exact rational), a JSON boolean for the
    dim, an index or a coefficient, a zero denominator, a dim above
    MAX_DIM, ``names`` that are not dim strings, or a document or
    ``table`` of the wrong JSON type raises ValueError.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source) as fh:
            doc = json.load(fh)
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ValueError("schema: the document is not an object")
    # type(x) is int, because JSON true and false are ints to isinstance
    if type(doc.get("dim")) is not int or doc["dim"] < 0:
        raise ValueError("schema: 'dim' must be a nonnegative integer")
    dim = doc["dim"]
    if dim > MAX_DIM:
        raise ValueError(f"'dim' {dim} is above the ceiling of {MAX_DIM}")
    names, table = doc.get("names"), doc.get("table", [])
    if names is not None and not (isinstance(names, list) and len(names) == dim
                                  and all(isinstance(n, str) for n in names)):
        raise ValueError(f"schema: 'names' is not a list of {dim} strings")
    if not isinstance(table, list):
        raise ValueError("schema: 'table' is not a list")
    a = FiniteAlgebra(dim, names)
    seen = set()
    for pos, entry in enumerate(table):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ValueError(f"schema: table entry {pos} is not [i,j,k,c]")
        i, j, k, c = entry
        for label, idx in (("i", i), ("j", j), ("k", k)):
            if type(idx) is not int or not 1 <= idx <= dim:
                raise ValueError(
                    f"schema: table entry {pos}: index {label}={idx!r} "
                    f"outside 1..{dim}")
        if (i, j, k) in seen:
            raise ValueError(f"schema: table entry {pos} repeats "
                             f"[{i},{j},{k}]")
        seen.add((i, j, k))
        if isinstance(c, (bool, float)):
            raise ValueError(f"schema: table entry {pos}: coefficient {c!r} "
                             f"is a {type(c).__name__}; write it as an "
                             f"integer or a rational string")
        try:
            a.table[i - 1][j - 1][k - 1] = Fraction(str(c))
        except ZeroDivisionError:
            raise ValueError(f"schema: table entry {pos}: coefficient {c!r} "
                             f"has a zero denominator") from None
    return a


def dump_algebra(a):
    """Serialize to the JSON algebra format (sorted entries, lossless)."""
    entries = []
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                c = a.table[i][j][k]
                if c:
                    entries.append([i + 1, j + 1, k + 1, str(c)])
    doc = {"dim": a.dim, "names": a.names, "table": entries}
    return json.dumps(doc, indent=1)


def evaluate(a, poly, assignment, p=None, q=None):
    """Value of a bracket/product polynomial at concrete vectors.

    Product nodes use a's product.  Bracket nodes use (x p) y - (y q) x
    when p and q are given, else a's product directly.
    """
    if (p is None) != (q is None):
        raise ValueError("supply both p and q or neither")
    if p is not None:
        p = _frac_list(p, a.dim)
        q = _frac_list(q, a.dim)
    vecs = {name: _frac_list(v, a.dim) for name, v in assignment.items()}
    cache = {}

    def go(t):
        if t in cache:
            return cache[t]
        if t[0] == "v":
            v = vecs.get(t[1])
            if v is None:
                raise ValueError(f"unassigned variable {t[1]!r}")
        else:
            x, y = go(t[1]), go(t[2])
            if t[0] == "m" or p is None:
                v = a.mul(x, y)
            else:
                xp_y = a.mul(a.mul(x, p), y)
                yq_x = a.mul(a.mul(y, q), x)
                v = [u - w for u, w in zip(xp_y, yq_x)]
        cache[t] = v
        return v

    out = a.zero()
    for t, c in poly.terms.items():
        v = go(t)
        for k in range(a.dim):
            out[k] += c * v[k]
    return out


def _scaled(c, d):
    """The integer c * d, for a rational c whose denominator divides d."""
    return c.numerator * (d // c.denominator)


def _sparse_table(table, d):
    """A dense structure-constants table times d, as rows of {k: int}
    over the nonzero entries."""
    return [[{k: _scaled(c, d) for k, c in enumerate(row) if c}
             for row in plane] for plane in table]


def _mul_into(out, c, table, x, y):
    """out += c * (x y) for sparse vectors x, y under a sparse table."""
    for i, xi in x.items():
        row = table[i]
        for j, yj in y.items():
            s = c * xi * yj
            for k, t in row[j].items():
                out[k] = out.get(k, 0) + s * t


def _leaf_key(t, pos):
    """Picks the basis indices of t's leaves, left to right, out of a
    tuple indexed like ``pos`` (t holds each variable once)."""
    leaves = [pos[name] for name in term_vars(t)]
    if len(leaves) == 1:
        (p,) = leaves
        return lambda tup: (tup[p],)
    return itemgetter(*leaves)


def _first_nonzero(coeffs, names, dim, tables):
    """First basis tuple, in itertools.product order over ``names``, at
    which the multilinear polynomial ``coeffs`` ({term: int}) is nonzero:
    (tuple, sparse value) or None.

    Every term holds each variable once, so a proper subtree's value
    depends only on the basis indices of its own leaves.  Each distinct
    subtree is tabulated once, bottom-up, keyed by those indices left to
    right, so a node's key is its left factor's key plus its right's;
    only nonzero values are stored.  The tuples
    are then streamed: each one sums c * (left . right) over the terms
    from the tables of their two factors, and the scan stops at the first
    nonzero sum.  ``tables`` maps a node kind ('m', 'b') to a sparse
    product table.
    """
    leaves = {}                  # distinct proper subtree -> leaf count

    def collect(t):
        if t not in leaves:
            leaves[t] = (1 if t[0] == "v"
                         else collect(t[1]) + collect(t[2]))
        return leaves[t]

    for t in coeffs:
        for u in ((t,) if t[0] == "v" else t[1:]):
            collect(u)
    coords = sum(dim ** (m + 1) for m in leaves.values())
    if coords > MAX_TABLE_COORDS:
        raise ValueError(f"the value tables would hold up to {coords:,} "
                         f"coordinates on a {dim}-dimensional algebra, "
                         f"above the ceiling of {MAX_TABLE_COORDS:,}")

    vals = {}
    for t in sorted(leaves, key=leaves.get):
        if t[0] == "v":
            vals[t] = {(i,): {i: 1} for i in range(dim)}
            continue
        table = tables[t[0]]
        vals[t] = out = {}
        for lk, x in vals[t[1]].items():
            for rk, y in vals[t[2]].items():
                v = {}
                _mul_into(v, 1, table, x, y)
                v = {k: c for k, c in v.items() if c}
                if v:
                    out[lk + rk] = v

    pos = {nm: i for i, nm in enumerate(names)}
    terms = []
    for t, c in coeffs.items():
        if t[0] == "v":          # a degree-1 body: the term is one leaf
            terms.append((c, None, _leaf_key(t, pos), vals[t], None, None))
        else:
            terms.append((c, tables[t[0]],
                          _leaf_key(t[1], pos), vals[t[1]],
                          _leaf_key(t[2], pos), vals[t[2]]))
    for tup in itertools.product(range(dim), repeat=len(names)):
        total = {}
        for c, table, lkey, left, rkey, right in terms:
            x = left.get(lkey(tup))
            if x is None:
                continue
            if table is None:
                for k, v in x.items():
                    total[k] = total.get(k, 0) + c * v
                continue
            y = right.get(rkey(tup))
            if y is not None:
                _mul_into(total, c, table, x, y)
        if any(total.values()):
            return tup, total
    return None


def satisfies(a, template, p=None, q=None):
    """Does a satisfy the identity template?  (yes, None) or (no, witness).

    The template body is fully polarized first, so checking all basis
    tuples decides the identity exactly in characteristic zero.  The
    tuples are scanned from per-subtree value tables over a sparse copy
    of a's structure constants (see _first_nonzero); with p and q, bracket
    nodes use the table of mutation_algebra(a, p, q), the same product by
    bilinearity.  The scan runs in integers: every term of the degree-n
    body has n - 1 product nodes, so scaling all structure constants by a
    common denominator d and the body by e scales the body's value by
    e * d^(n-1), and the same tuples fail.  A witness is (basis index
    tuple, value vector) for the first failing tuple in lexicographic
    order; its value vector is recomputed by ``evaluate`` and must agree
    with the scan.  Raises ValueError when the tables could hold more
    than MAX_TABLE_COORDS coordinates.
    """
    if (p is None) != (q is None):
        raise ValueError("supply both p and q or neither")
    body = multilinearize(template.body)
    names = sorted(body.variables())
    prod = a.table
    brk = prod if p is None else mutation_algebra(a, p, q).table
    d = math.lcm(*(c.denominator for t in (prod, brk) for plane in t
                   for row in plane for c in row))
    e = math.lcm(*(c.denominator for c in body.terms.values()))
    coeffs = {t: _scaled(c, e) for t, c in body.terms.items()}
    prod_d = _sparse_table(prod, d)
    brk_d = prod_d if brk is prod else _sparse_table(brk, d)
    found = _first_nonzero(coeffs, names, a.dim, {"m": prod_d, "b": brk_d})
    if found is None:
        return True, None
    tup, value = found
    val = evaluate(a, body, {nm: a.basis(i) for nm, i in zip(names, tup)},
                   p, q)
    scale = e * d ** (len(names) - 1)
    if [c * scale for c in val] != [value.get(k, 0) for k in range(a.dim)]:
        raise RuntimeError(f"value tables disagree with evaluate at {tup}")
    return False, (tup, val)


def mutation_algebra(a, p, q):
    """Structure constants of the product (x p) y - (y q) x."""
    p = _frac_list(p, a.dim)
    q = _frac_list(q, a.dim)
    out = FiniteAlgebra(a.dim, a.names)
    for i in range(a.dim):
        ei_p = a.mul(a.basis(i), p)
        for j in range(a.dim):
            left = a.mul(ei_p, a.basis(j))
            right = a.mul(a.mul(a.basis(j), q), a.basis(i))
            out.table[i][j] = [u - w for u, w in zip(left, right)]
    return out


def _jacobiator():
    """Sum over cyclic (a, b, c) of [[a, b], c], with [u, v] = uv - vu."""
    a, b, c = (TermPoly.var(n) for n in "abc")

    def comm(u, v):
        return mnode(u, v) - mnode(v, u)

    body = (comm(comm(a, b), c) + comm(comm(b, c), a)
            + comm(comm(c, a), b))
    return Template("jacobiator", "abc", body)


_JACOBIATOR = _jacobiator()


def jacobi_test(a):
    """Jacobi identity for the commutator of a's product, on basis triples.

    One ``satisfies`` scan of the 12-term Jacobiator, so the witness is
    the first failing (i, j, k) in lexicographic order.  Returns
    (yes, None) or (no, (i, j, k)).
    """
    ok, witness = satisfies(a, _JACOBIATOR)
    return ok, None if ok else witness[0]


def _lattice(k, d):
    """The points of L(k, d) = {c in N^k : |c| <= d}, lexicographically."""
    if k == 0:
        yield ()
        return
    for first in range(d + 1):
        for rest in _lattice(k - 1, d - first):
            yield (first,) + rest


def mutations_lie_admissible(a):
    """Is every (p, q)-mutation of a Lie-admissible?  Decided exactly.

    The mutation product (x p) y - (y q) x has structure constants linear
    in the k = 2 dim coordinates of (p, q), so each coordinate of its
    Jacobiator on a basis triple is a polynomial of degree <= 2 in them.
    A polynomial P of degree <= d that vanishes on the lattice
    L(k, d) = {c in N^k : |c| <= d} is zero, by induction on k and d:
    P(c', 0) vanishes on L(k - 1, d), hence is 0, so P = c_k Q with
    deg Q <= d - 1, and Q(c + e_k) vanishes on L(k, d - 1).  Hence checking the
    C(k + 2, 2) mutations at the points of L(k, 2) (28 for dim 3) with
    ``jacobi_test`` decides all of them.  Returns (yes, None), or
    (no, (p, q, (i, j, k))) for the first failing lattice point (p, q) in
    lexicographic order.
    """
    for c in _lattice(2 * a.dim, 2):
        p = [Fraction(x) for x in c[:a.dim]]
        q = [Fraction(x) for x in c[a.dim:]]
        ok, triple = jacobi_test(mutation_algebra(a, p, q))
        if not ok:
            return False, (p, q, triple)
    return True, None


def lie_admissible_criterion(a):
    """The degree-5 product identity whose validity makes every mutation
    of a Lie-admissible (proved for every algebra by
    ``verify.check_lie_admissibility``); checked via its full
    linearization on basis tuples.  Returns (yes, None) or (no, witness)."""
    return satisfies(a, TEMPLATES["crit36"])


def change_of_basis(a, s):
    """The same algebra expressed in the basis f_i = sum_j s[i][j] e_j.

    ``s`` must be invertible.  Identities are invariant under this, so
    conjugating a known identity-satisfying table yields fresh samples.
    """
    s = [[Fraction(c) for c in row] for row in s]
    # row j of the system: sum_m s[m][j] c_m = v_j
    rows = [{m: s[m][j] for m in range(a.dim) if s[m][j]}
            for j in range(a.dim)]
    mat = Matrix(rows, a.dim)
    if rref(mat)[1] != a.dim:
        raise ValueError("basis matrix is singular")

    def to_new_basis(v):
        sol = solve(mat, {i: c for i, c in enumerate(v) if c})
        return [sol.get(i, Fraction(0)) for i in range(a.dim)]

    out = FiniteAlgebra(a.dim, a.names)
    for i in range(a.dim):
        for j in range(a.dim):
            prod = a.mul(s[i], s[j])
            out.table[i][j] = to_new_basis(prod)
    return out
