"""A fixed reference computation that measures the machine's current speed.

The machine a run shares with others changes speed by up to a factor of
two over seconds to minutes.  run.py runs ``reference()`` between the
workload's units and scales every time it reports by
``REFERENCE_SECONDS / (mean reference time of the run)``, so that a
slow spell slows the reference and the workload alike and cancels out.

The reference does the two kinds of work the library spends its time
in, written here and never changed with the library: fraction-free
integer elimination of sparse dict rows (as in ``SpanReducer``) and a
product of sparse polynomials with tuple monomials and Fraction
coefficients (as in ``Elt.__mul__``).  It imports nothing from
``mutperm``, so a change to the library does not change it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

# Nominal reference time: reported times are scaled to a machine speed
# at which reference() takes this long (about its mean on the machine
# the benchmark was built on).
REFERENCE_SECONDS = 0.15


def _rows(rng, nrows=70, ncols=120, nnz=12):
    return [{rng.randrange(ncols): rng.randint(-9, 9) or 1
             for _ in range(nnz)} for _ in range(nrows)]


def _poly(rng, nterms=40):
    return {(tuple(sorted(rng.choice("abcdpq") for _ in range(3))),
             rng.choice("xyz")): Fraction(rng.randint(1, 9), rng.randint(1, 9))
            for _ in range(nterms)}


_RNG = random.Random(20241014)
ROWS = _rows(_RNG)
LEFT, RIGHT = _poly(_RNG), _poly(_RNG)
# (rank of ROWS, monomials of LEFT*RIGHT), a check that the inputs and
# the code are unchanged
EXPECTED = (70, 1034)


def _eliminate(rows):
    """Rank of the rows by fraction-free forward elimination."""
    pivots = {}
    for row in rows:
        v = dict(row)
        while v:
            c = min(v)
            r = pivots.get(c)
            if r is None:
                g = 0
                for x in v.values():
                    g = gcd(g, x)
                pivots[c] = {k: x // g for k, x in v.items()}
                break
            d = gcd(v[c], r[c])
            mv, mr = r[c] // d, v[c] // d
            if mv != 1:
                for k in list(v):
                    v[k] *= mv
            for k, x in r.items():
                nv = v.get(k, 0) - mr * x
                if nv:
                    v[k] = nv
                else:
                    v.pop(k, None)
    return len(pivots)


def _multiply(a, b, times=12):
    """Number of monomials in the product a*b, computed ``times`` times."""
    for _ in range(times):
        out = {}
        for (pa, ta), ca in a.items():
            for (pb, tb), cb in b.items():
                key = (tuple(sorted(pa + (ta,) + pb)), tb)
                out[key] = out.get(key, 0) + ca * cb
    return len(out)


def reference():
    """Run the reference once; return its seconds."""
    t0 = time.perf_counter()
    rank = _eliminate(ROWS)
    size = _multiply(LEFT, RIGHT)
    secs = time.perf_counter() - t0
    if (rank, size) != EXPECTED:
        raise RuntimeError(f"reference computed {(rank, size)}, "
                           f"expected {EXPECTED}")
    return secs

