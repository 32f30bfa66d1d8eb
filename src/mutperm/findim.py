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
from fractions import Fraction


def _frac_list(coords, dim):
    v = [Fraction(c) for c in coords]
    if len(v) != dim:
        raise ValueError(f"vector length {len(v)} != dim {dim}")
    return v


class FiniteAlgebra:
    """Structure-constants algebra over the rationals."""

    def __init__(self, dim, names=None, table=None):
        self.dim = dim
        self.names = list(names) if names else [f"e{i + 1}" for i in range(dim)]
        if len(self.names) != dim:
            raise ValueError("names length does not match dim")
        if table is None:
            table = [[[Fraction(0)] * dim for _ in range(dim)]
                     for _ in range(dim)]
        else:
            table = [[[Fraction(c) for c in row] for row in plane]
                     for plane in table]
            if (len(table) != dim
                    or any(len(plane) != dim for plane in table)
                    or any(len(row) != dim for plane in table for row in plane)):
                raise ValueError("table is not dim x dim x dim")
        self.table = table

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
        parts = []
        for c, name in zip(v, self.names):
            if not c:
                continue
            mag = abs(c)
            word = name if mag == 1 else f"{mag} {name}"
            if not parts:
                parts.append(word if c > 0 else f"-{word}")
            else:
                parts.append(("+ " if c > 0 else "- ") + word)
        return " ".join(parts) if parts else "0"

    def __eq__(self, other):
        return (isinstance(other, FiniteAlgebra) and self.dim == other.dim
                and self.names == other.names and self.table == other.table)


def load_algebra(source):
    """Read the JSON algebra format.

    {"dim": n, "names": [...], "table": [[i, j, k, "c"], ...]} with 1-based
    indices and rational strings (or JSON integers); omitted entries are
    zero.  ``source`` is a path, a file object, or a parsed dict.  A
    repeated [i, j, k] entry or a JSON float coefficient (which is not an
    exact rational) raises ValueError.
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source) as fh:
            doc = json.load(fh)
    if not isinstance(doc.get("dim"), int) or doc["dim"] < 0:
        raise ValueError("schema: 'dim' must be a nonnegative integer")
    dim = doc["dim"]
    names = doc.get("names")
    a = FiniteAlgebra(dim, names)
    seen = set()
    for pos, entry in enumerate(doc.get("table", [])):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ValueError(f"schema: table entry {pos} is not [i,j,k,c]")
        i, j, k, c = entry
        for label, idx in (("i", i), ("j", j), ("k", k)):
            if not isinstance(idx, int) or not 1 <= idx <= dim:
                raise ValueError(
                    f"schema: table entry {pos}: index {label}={idx!r} "
                    f"outside 1..{dim}")
        if (i, j, k) in seen:
            raise ValueError(f"schema: table entry {pos} repeats "
                             f"[{i},{j},{k}]")
        seen.add((i, j, k))
        if isinstance(c, float):
            raise ValueError(f"schema: table entry {pos}: coefficient {c!r} "
                             f"is a float; write it as a rational string")
        a.table[i - 1][j - 1][k - 1] = Fraction(str(c))
    return a


def dump_algebra(a, fp=None):
    """Serialize to the JSON algebra format (sorted entries, lossless)."""
    entries = []
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                c = a.table[i][j][k]
                if c:
                    entries.append([i + 1, j + 1, k + 1, str(c)])
    doc = {"dim": a.dim, "names": a.names, "table": entries}
    if fp is None:
        return json.dumps(doc, indent=1)
    json.dump(doc, fp, indent=1)
    return None


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


def satisfies(a, template, p=None, q=None):
    """Does a satisfy the identity template?  (yes, None) or (no, witness).

    The template body is fully polarized first, so checking all basis
    tuples decides the identity exactly in characteristic zero.  A witness
    is (basis index tuple, value vector) for the first failing tuple in
    lexicographic order.
    """
    from .terms import multilinearize
    body = multilinearize(template.body)
    names = sorted(body.variables())
    for tup in itertools.product(range(a.dim), repeat=len(names)):
        assignment = {nm: a.basis(i) for nm, i in zip(names, tup)}
        val = evaluate(a, body, assignment, p, q)
        if any(val):
            return False, (tup, val)
    return True, None


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


def jacobi_test(a):
    """Jacobi identity for the commutator of a's product, on basis triples.

    Returns (yes, None) or (no, (i, j, k)).
    """
    def comm(x, y):
        xy = a.mul(x, y)
        yx = a.mul(y, x)
        return [u - w for u, w in zip(xy, yx)]

    basis = [a.basis(i) for i in range(a.dim)]
    for i, j, k in itertools.product(range(a.dim), repeat=3):
        x, y, z = basis[i], basis[j], basis[k]
        total = a.zero()
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            t = comm(comm(u, v), w)
            for n in range(a.dim):
                total[n] += t[n]
        if any(total):
            return False, (i, j, k)
    return True, None


def lie_admissible_criterion(a):
    """The degree-5 product identity whose validity makes every mutation
    of a Lie-admissible; checked via its full linearization on basis
    tuples.  Returns (yes, None) or (no, witness)."""
    from .terms import TEMPLATES
    return satisfies(a, TEMPLATES["crit36"])


def random_vector(rng, dim, lo=-2, hi=2):
    return [Fraction(rng.randint(lo, hi)) for _ in range(dim)]


def change_of_basis(a, s):
    """The same algebra expressed in the basis f_i = sum_j s[i][j] e_j.

    ``s`` must be invertible.  Identities are invariant under this, so
    conjugating a known identity-satisfying table yields fresh samples.
    """
    from .linalg import Matrix, rref, solve

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
