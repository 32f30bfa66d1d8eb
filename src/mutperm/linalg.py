"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping a column index (position in some ordered basis)
to a nonzero int or Fraction.  Matrices are lists of such rows together
with a column count.  Everything is exact: no floats, no tolerances.
Pivoting is deterministic (earliest column, then smallest-magnitude
pivot), so equal inputs always give identical output.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def clean_vec(v):
    """Drop zero entries; keep int values, coerce the others to Fraction."""
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
    and any other as a Fraction; sums of int coefficients stay int.
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

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return self._new(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, 0) - c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
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
            if any(not (0 <= k < ncols) for k in r):
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

    def mul_vec(self, v):
        """Matrix times column vector, result as row-index -> value."""
        out = {}
        for i, row in enumerate(self.rows):
            s = sum((c * v[k] for k, c in row.items() if k in v), Fraction(0))
            if s:
                out[i] = s
        return out

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

    The rows are thinned to a basis of their span by a SpanReducer, whose
    fraction-free echelon rows are then back-substituted, last pivot
    first, and divided by their pivots.  The RREF of a row space is
    unique for the fixed column order, so the result is deterministic.
    """
    red = SpanReducer()
    for r in m.rows:
        red.insert(r)
    pivots = sorted(red.pivot_rows)
    reduced = {}
    for i in range(len(pivots) - 1, -1, -1):
        row = dict(red.pivot_rows[pivots[i]])
        for c in pivots[i + 1:]:
            if c in row:
                _cancel(row, c, reduced[c])
        reduced[pivots[i]] = _primitive(row)
    rows = []
    for c in pivots:
        piv = reduced[c][c]
        rows.append({k: Fraction(v, piv) for k, v in reduced[c].items()})
    return Matrix(rows, m.ncols), len(pivots)


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


def _cancel(v, c, row):
    """Cancel column c of the integer row v in place against ``row``,
    whose pivot is c, fraction-free: v becomes m*v - k*row with m > 0
    (a pivot row's leading coefficient is positive).  Returns m."""
    a = v[c]
    g = row[c]
    d = gcd(a, g)
    mv = g // d
    mr = a // d
    if mv != 1:
        for k in v:
            v[k] *= mv
    for k, val in row.items():
        nv = v.get(k, 0) - mr * val
        if nv:
            v[k] = nv
        else:
            v.pop(k, None)
    return mv


def _primitive(row):
    """The integer row divided by its content, signed so that the
    leading coefficient is positive."""
    if not row:
        return row
    g = 0
    for c in row.values():
        g = gcd(g, c)
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
    den = 1
    for _, c in items:
        den = den * c.denominator // gcd(den, c.denominator)
    return _primitive({k: int(c * den) for k, c in items})


class SpanReducer:
    """Incremental integer row-echelon span with exact membership tests.

    Rows are kept fraction-free (coprime integer entries, positive leading
    coefficient), one per pivot column.  This is forward echelon only, not
    RREF; it is the workhorse behind the big consequence-span and
    spanning-set computations, where full back-elimination is too costly.
    """

    def __init__(self):
        self.pivot_rows = {}

    @property
    def dim(self):
        return len(self.pivot_rows)

    def _reduce(self, v):
        while v:
            c = min(v)
            row = self.pivot_rows.get(c)
            if row is None:
                return v
            _cancel(v, c, row)
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

    def rows(self):
        """Echelon rows in pivot order, as Fraction dicts."""
        return [{k: Fraction(c) for k, c in self.pivot_rows[p].items()}
                for p in sorted(self.pivot_rows)]
