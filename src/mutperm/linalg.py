"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping a column index (position in some ordered basis)
to a nonzero int or Fraction.  Matrices are lists of such rows together
with a column count.  Everything is exact: no floats, no tolerances.
Pivoting is deterministic (every row pivots at its earliest column), so
equal inputs always give identical output.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


_EXACT = frozenset((int, Fraction))


def clean_vec(v):
    """Drop zero entries; keep int values, coerce the others to Fraction.
    A vector of nonzero ints and Fractions is copied without per-entry
    coercion."""
    vals = v.values()
    if _EXACT.issuperset(map(type, vals)) and 0 not in vals:
        return dict(v)
    return {k: c if type(c) is int else Fraction(c)
            for k, c in v.items() if c}


def _coeff(c):
    """A rational coefficient as an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Combination:
    """Finite rational linear combination: dict key -> nonzero coefficient.

    The constructor and ``scale`` store an integral coefficient as an int
    and any other as a Fraction; sums and products stay int on ints.
    Since ``Fraction(2) == 2`` and the two hash alike, equality and
    rendering do not depend on which of the two is stored.  Combinations
    of different subclasses never compare equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for m, c in terms.items():
                c = _coeff(c)
                if c:
                    t[m] = c
        self.terms = t

    @classmethod
    def zero(cls):
        return cls()

    def _new(self, terms):
        """A combination of this type holding ``terms`` as given."""
        r = object.__new__(type(self))
        r.terms = terms
        return r

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def _merge(self, other, sign):
        """self + sign * other, sign being 1 or -1."""
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, 0) + sign * c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return self._new(out)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def product(self, other, key):
        """Bilinear product: each term s of self times each term t of
        other is added under ``key(s, t)``, entries that cancel are
        dropped, and the result has the receiver's type."""
        out = {}
        for s, c1 in self.terms.items():
            for t, c2 in other.terms.items():
                k = key(s, t)
                nc = out.get(k, 0) + c1 * c2
                if nc:
                    out[k] = nc
                else:
                    out.pop(k, None)
        return self._new(out)

    def __neg__(self):
        return self._new({m: -c for m, c in self.terms.items()})

    def scale(self, c):
        c = _coeff(c)
        if not c:
            return self._new({})
        return type(self)({m: c * v for m, v in self.terms.items()})

    __rmul__ = scale


def signed_sum(pairs, sep):
    """Render (coefficient, body) pairs as a signed sum such as
    ``x1 - 2 x2 + 1/2 x3``: a magnitude other than 1 is joined to its
    body by ``sep``, and no pairs render as ``0``."""
    parts = []
    for c, body in pairs:
        mag = abs(c)
        word = body if mag == 1 else f"{mag}{sep}{body}"
        if not parts:
            parts.append(word if c > 0 else f"-{word}")
        else:
            parts.append(("+ " if c > 0 else "- ") + word)
    return " ".join(parts) if parts else "0"


class Matrix:
    """Sparse rational matrix: a list of sparse rows over ncols columns."""

    def __init__(self, rows, ncols):
        self.rows = [clean_vec(r) for r in rows]
        self.ncols = ncols
        for r in self.rows:
            if r and (min(r) < 0 or max(r) >= ncols):
                raise ValueError("row index outside column basis")

    @property
    def nrows(self):
        return len(self.rows)

    def transpose(self):
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, c in row.items():
                cols[j][i] = c
        return Matrix(cols, self.nrows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ncols == other.ncols
                and self.rows == other.rows)


class Inconsistent:
    """Outcome of solve() on an unsolvable system.

    ``certificate`` is a left null combination of the matrix rows whose
    pairing with the right-hand side is nonzero: the first vector of
    ``kernel_basis(m.transpose())`` that pairs nonzero with it.
    """

    def __init__(self, certificate):
        self.certificate = certificate

    def __repr__(self):
        return f"Inconsistent({self.certificate!r})"


def rref(m):
    """Reduced row echelon form and rank of a Matrix.

    It back-substitutes as it goes: the kept rows are primitive integer
    rows, each positive at its pivot (its first column) and 0 at the
    other pivots.  A row of m, scaled to coprime integers, is cancelled
    at the pivot columns of its own support; no cancel adds an entry at a
    pivot column, so one pass leaves its residue.  A nonzero residue is
    kept, pivoting at its first column, and cancelled from the kept rows
    that have an entry there.  The kept rows span the rows of m and are
    reduced, so divided by their pivots they are its RREF, which is
    unique for the fixed column order.
    """
    kept = {}
    for r in m.rows:
        v = _to_int_row(r)
        for c in [c for c in v if c in kept]:
            _cancel(v, c, kept[c], [])
        if not v:
            continue
        v = _primitive(v)
        p = min(v)
        for c, row in kept.items():
            if p in row:
                _cancel(row, p, v, [])
                kept[c] = _primitive(row)
        kept[p] = v
    rows = []
    for c in sorted(kept):
        row = kept[c]
        rows.append({k: Fraction(x, row[c]) for k, x in row.items()})
    return Matrix(rows, m.ncols), len(rows)


def kernel_basis(m):
    """Reduced basis of the right kernel {v : m.v = 0}.

    One basis vector per free column, with a 1 in that free column; the
    list is ordered by free column index.
    """
    ech, rank = rref(m)
    piv_cols = []
    for row in ech.rows:
        piv_cols.append(min(row))
    piv_set = set(piv_cols)
    basis = []
    for f in range(m.ncols):
        if f in piv_set:
            continue
        v = {f: Fraction(1)}
        for row, c in zip(ech.rows, piv_cols):
            if f in row:
                v[c] = -row[f]
        basis.append(v)
    return basis


def solve(m, rhs):
    """One exact solution of m.x = rhs, or Inconsistent with certificate.

    ``rhs`` maps row index -> Fraction.  The solution is read from the
    RREF of [m | rhs] with free variables set to zero, so it is
    deterministic; a pivot in the rhs column means there is none.
    """
    n = m.ncols
    aug = []
    for i, r in enumerate(m.rows):
        row = dict(r)
        if rhs.get(i):
            row[n] = rhs[i]
        aug.append(row)
    ech, _ = rref(Matrix(aug, n + 1))
    if ech.rows and min(ech.rows[-1]) == n:
        for y in kernel_basis(m.transpose()):
            if sum(c * rhs.get(i, 0) for i, c in y.items()):
                return Inconsistent(y)
    return {min(row): row[n] for row in ech.rows if n in row}


def sparse_vec(terms, columns):
    """Sparse vector of a ``{label: coefficient}`` mapping.

    ``columns`` maps labels to column indices and grows as it is used: a
    label seen for the first time gets the next free column.  Vectors
    built against one ``columns`` dict are comparable; the column order
    is the order of first appearance, which no span or rank depends on.
    """
    v = {}
    for m, c in terms.items():
        k = columns.get(m)
        if k is None:
            k = columns[m] = len(columns)
        v[k] = c
    return v


def _cancel(v, c, row, added):
    """Cancel column c of the integer row v in place against ``row``,
    whose pivot is c, fraction-free: v becomes m*v - k*row with m > 0
    (a pivot row's leading coefficient is positive), and m = 1 when the
    pivot is 1.  Each column it adds to v is pushed on the heap
    ``added``."""
    a = v[c]
    g = row[c]
    if g == 1:
        mr = a
    else:
        d = gcd(a, g)
        mv = g // d
        mr = a // d
        if mv != 1:
            for k in v:
                v[k] *= mv
    for k, val in row.items():
        nv = v.get(k)
        if nv is None:
            v[k] = -mr * val
            heappush(added, k)
        else:
            nv -= mr * val
            if nv:
                v[k] = nv
            else:
                del v[k]


def _primitive(row):
    """The integer row divided by its content, signed so that the
    leading coefficient is positive."""
    if not row:
        return row
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g == 1:
        return row
    return {k: c // g for k, c in row.items()}


def _to_int_row(v):
    """Scale a rational sparse vector to coprime integers with a positive
    leading coefficient."""
    if all(type(c) is int for c in v.values()):
        return _primitive({k: c for k, c in v.items() if c})
    items = [(k, Fraction(c)) for k, c in v.items() if c]
    den = lcm(*(c.denominator for _, c in items))
    return _primitive({k: c.numerator * (den // c.denominator)
                       for k, c in items})


class SpanReducer:
    """Incremental integer row-echelon span with exact membership tests.

    Rows are kept fraction-free (coprime integer entries, positive leading
    coefficient), one per pivot column.  Inserts keep forward echelon form
    only, which is all the big consequence-span computations need.

    A vector is reduced by cancelling its leading column against the
    pivot row there until that column has no pivot row.  Its columns are
    walked in increasing order from a heap, onto which each cancel pushes
    the columns it adds (all beyond the cancelled one), so the next
    leading column is found without a scan of the whole vector.  A
    vector equal to the pivot row at its leading column is rejected at
    once, as its first cancel would leave nothing.  Each cancel is the one
    the plain leading-column loop makes, in column, multiplier and order,
    so the rows and residues are that loop's.
    """

    def __init__(self):
        self.pivot_rows = {}

    @property
    def dim(self):
        return len(self.pivot_rows)

    def _reduce(self, v):
        """Reduce the primitive integer row v in place; returns the
        residue."""
        pivots = self.pivot_rows
        cols = list(v)
        heapify(cols)
        if cols and pivots.get(cols[0]) == v:
            return {}
        while cols:
            c = heappop(cols)
            if c not in v:
                continue    # cancelled by an earlier row
            row = pivots.get(c)
            if row is None:
                return v
            _cancel(v, c, row, cols)
        return v

    def residue(self, v):
        """Reduce a copy of v against the current span (integerized)."""
        return self._reduce(_to_int_row(v))

    def contains(self, v):
        return not self.residue(v)

    def insert(self, v):
        """Add v to the span; True if the dimension grew."""
        r = _primitive(self._reduce(_to_int_row(v)))
        if not r:
            return False
        self.pivot_rows[min(r)] = r
        return True
