import random
from fractions import Fraction

from mutperm.linalg import (Combination, Inconsistent, Matrix, SpanReducer,
                            clean_vec, kernel_basis, rref, solve, sparse_vec)
from mutperm.terms import TermPoly

from conftest import reduced_rows


def dense_rank(rows, ncols):
    """Independent rank oracle: dense Gaussian elimination, first nonzero
    pivot, no reduced form."""
    a = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col] / a[rank][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def random_matrix(rng, nrows, ncols, density=0.6):
    rows = [{j: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for j in range(ncols) if rng.random() < density}
            for _ in range(nrows)]
    return Matrix(rows, ncols)


def mul_vec(m, v):
    """Matrix times column vector, result as row-index -> value."""
    out = {}
    for i, row in enumerate(m.rows):
        s = sum((c * v[k] for k, c in row.items() if k in v), Fraction(0))
        if s:
            out[i] = s
    return out


def in_span(rows, v, ncols):
    """Oracle: is v a rational combination of the given rows?

    Solves the transposed system exactly; returns (True, coords) with
    coords[j] the coefficient of rows[j], or (False, None).
    """
    cols = [{} for _ in range(ncols)]
    for j, row in enumerate(rows):
        for k, c in row.items():
            cols[k][j] = c
    res = solve(Matrix(cols, len(rows)), clean_vec(v))
    if isinstance(res, Inconsistent):
        return False, None
    return True, res


def plain_rref(m):
    """Oracle: Gauss-Jordan elimination of every row in Fractions, no
    pre-thinning; pivot on the earliest column, smallest magnitude."""
    rows = [{k: Fraction(v) for k, v in r.items()} for r in m.rows]
    n = len(rows)
    r = 0
    for c in range(m.ncols):
        best = None
        for i in range(r, n):
            v = rows[i].get(c)
            if v:
                cand = (abs(v), i)
                if best is None or cand < best:
                    best = cand
        if best is None:
            continue
        i = best[1]
        rows[r], rows[i] = rows[i], rows[r]
        piv = rows[r][c]
        rows[r] = {k: v / piv for k, v in rows[r].items()}
        for j in range(n):
            fac = rows[j].get(c) if j != r else None
            if not fac:
                continue
            for k, v in rows[r].items():
                nv = rows[j].get(k, 0) - fac * v
                if nv:
                    rows[j][k] = nv
                else:
                    rows[j].pop(k, None)
        r += 1
    return Matrix(rows[:r], m.ncols), r


def oracle_kernel(m):
    """Oracle: the reduced kernel basis read off plain_rref."""
    ech, _ = plain_rref(m)
    pivots = [min(row) for row in ech.rows]
    return [{f: 1, **{c: -row[f] for row, c in zip(ech.rows, pivots)
                      if f in row}}
            for f in range(m.ncols) if f not in pivots]


def oracle_solution(m, rhs):
    """Oracle: the solution read off plain_rref of [m | rhs], free
    variables zero; None when a pivot falls in the rhs column."""
    n = m.ncols
    aug = Matrix([{**row, n: rhs.get(i, 0)} for i, row in enumerate(m.rows)],
                 n + 1)
    ech, _ = plain_rref(aug)
    if any(min(row) == n for row in ech.rows):
        return None
    return {min(row): row[n] for row in ech.rows if n in row}


def rank_deficient_matrix(rng, nrows, ncols, rank):
    """nrows random rational combinations of ``rank`` random rows."""
    base = random_matrix(rng, rank, ncols).rows
    rows = []
    for _ in range(nrows):
        v = {}
        for row in base:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for j, x in row.items():
                v[j] = v.get(j, Fraction(0)) + c * x
        rows.append(v)
    return Matrix(rows, ncols)


def test_rref_rank_against_dense_oracle():
    rng = random.Random(1)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        _, rank = rref(m)
        assert rank == dense_rank(m.rows, m.ncols)


def test_rref_matches_plain_gauss_jordan():
    rng = random.Random(8)
    shapes = ([(rng.randint(8, 30), rng.randint(1, 6)) for _ in range(20)]
              + [(rng.randint(1, 6), rng.randint(8, 30)) for _ in range(20)])
    cases = [random_matrix(rng, r, c, rng.choice((0.2, 0.6)))
             for r, c in shapes]
    cases += [rank_deficient_matrix(rng, rng.randint(4, 20),
                                    rng.randint(4, 20), rng.randint(1, 4))
              for _ in range(20)]
    # int matrices, full-rank-ish and rank deficient
    for _ in range(20):
        ncols = rng.randint(1, 12)
        cases.append(Matrix([{j: rng.randint(-5, 5) for j in range(ncols)
                              if rng.random() < 0.5}
                             for _ in range(rng.randint(1, 12))], ncols))
    for _ in range(20):
        ncols = rng.randint(2, 12)
        base = [{j: rng.randint(-4, 4) for j in range(ncols)}
                for _ in range(rng.randint(1, 3))]
        cases.append(Matrix([{j: sum(rng.randint(-3, 3) * b[j] for b in base)
                              for j in range(ncols)}
                             for _ in range(rng.randint(2, 10))], ncols))
    for m in cases:
        ech, rank = rref(m)
        want, want_rank = plain_rref(m)
        assert ech == want and rank == want_rank
        assert kernel_basis(m) == oracle_kernel(m)
        rhs = {i: rng.choice((rng.randint(-3, 3), Fraction(1, 2)))
               for i in range(m.nrows) if rng.random() < 0.7}
        got = solve(m, rhs)
        assert (None if isinstance(got, Inconsistent) else got) == \
            oracle_solution(m, rhs)
        # a right side inside the column space is always solvable
        x = {j: Fraction(rng.randint(-2, 2)) for j in range(m.ncols)}
        want = oracle_solution(m, mul_vec(m, x))
        assert want is not None and solve(m, mul_vec(m, x)) == want


def test_span_reducer_same_rows_for_int_and_fraction_input():
    rng = random.Random(9)
    for _ in range(40):
        ncols = rng.randint(1, 12)
        vecs = [{j: rng.randint(-6, 6) for j in range(ncols)
                 if rng.random() < 0.5} for _ in range(rng.randint(1, 15))]
        ints, fracs = SpanReducer(), SpanReducer()
        for v in vecs:
            assert ints.insert(v) == fracs.insert(
                {j: Fraction(c) for j, c in v.items()})
        assert ints.pivot_rows == fracs.pivot_rows
        assert list(ints.pivot_rows) == list(fracs.pivot_rows)


def test_rref_matches_span_reducer_reduced_rows():
    """rref back-substitutes as it inserts; SpanReducer eliminates
    forward, and ``reduced_rows`` back-substitutes at the end.  Both give
    the one RREF."""
    rng = random.Random(11)

    def entry(frac):
        c = rng.randint(-5, 5)
        return Fraction(c, rng.randint(1, 4)) if frac else c

    cases = []
    for _ in range(120):
        frac = rng.random() < 0.5
        nrows, ncols = rng.choice(((rng.randint(10, 30), rng.randint(1, 6)),
                                   (rng.randint(1, 6), rng.randint(10, 30)),
                                   (rng.randint(1, 12), rng.randint(1, 12))))
        rows = [{j: entry(frac) for j in range(ncols)
                 if rng.random() < rng.choice((0.2, 0.6))}
                for _ in range(nrows)]
        if rng.random() < 0.4:
            # rank deficient: combinations of two of the rows
            base = rows[:2]
            rows = [{j: sum(rng.randint(-2, 2) * b.get(j, 0) for b in base)
                     for j in range(ncols)} for _ in range(nrows)]
        rows += [{}] * rng.randint(0, 2)
        rows += [dict(rng.choice(rows)) for _ in range(rng.randint(0, 3))]
        rng.shuffle(rows)
        cases.append(Matrix(rows, ncols))
    for m in cases:
        red = SpanReducer()
        for row in m.rows:
            red.insert(row)
        want = [{k: Fraction(v, row[min(row)]) for k, v in row.items()}
                for row in reduced_rows(red)]
        ech, rank = rref(m)
        assert ech.rows == want and rank == len(want) == red.dim


def test_rref_idempotent_and_deterministic():
    rng = random.Random(2)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        ech, rank = rref(m)
        again, rank2 = rref(ech)
        assert again == ech and rank2 == rank
        assert rref(m)[0] == ech


def test_kernel_vectors_annihilate_and_rank_nullity():
    rng = random.Random(3)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
        _, rank = rref(m)
        kern = kernel_basis(m)
        assert rank + len(kern) == m.ncols
        for v in kern:
            assert not mul_vec(m, v)


def test_solve_plugs_back_or_certifies():
    rng = random.Random(4)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        rhs = {i: Fraction(rng.randint(-3, 3)) for i in range(m.nrows)
               if rng.random() < 0.7}
        res = solve(m, rhs)
        if isinstance(res, Inconsistent):
            # certificate: a left combination of rows that is zero but
            # pairs nonzero with the right-hand side
            cert = res.certificate
            combo = {}
            for i, c in cert.items():
                for j, v in m.rows[i].items():
                    combo[j] = combo.get(j, Fraction(0)) + c * v
            assert not any(combo.values())
            assert sum(c * rhs.get(i, 0) for i, c in cert.items()) != 0
            # the canonical choice: the first left-kernel basis vector
            # that pairs nonzero with the right-hand side
            first = next(y for y in kernel_basis(m.transpose())
                         if sum(c * rhs.get(i, 0) for i, c in y.items()))
            assert cert == first
        else:
            assert mul_vec(m, res) == {i: c for i, c in rhs.items() if c}


def test_in_span_reconstructs():
    rng = random.Random(5)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(m.nrows)]
        v = {}
        for c, row in zip(coeffs, m.rows):
            for j, x in row.items():
                v[j] = v.get(j, Fraction(0)) + c * x
        ok, coords = in_span(m.rows, v, m.ncols)
        assert ok
        rebuilt = {}
        for j, c in (coords or {}).items():
            for k, x in m.rows[j].items():
                rebuilt[k] = rebuilt.get(k, Fraction(0)) + c * x
        assert {k: c for k, c in rebuilt.items() if c} == \
               {k: c for k, c in v.items() if c}


def test_in_span_rejects_outside_vector():
    rows = [{0: Fraction(1), 1: Fraction(1)}]
    ok, coords = in_span(rows, {0: Fraction(1)}, 2)
    assert not ok and coords is None


def test_span_reducer_matches_rref_rank():
    rng = random.Random(6)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        red = SpanReducer()
        for row in m.rows:
            red.insert(row)
        assert red.dim == rref(m)[1]
        for row in m.rows:
            assert red.contains(row)


def test_span_reducer_membership():
    red = SpanReducer()
    red.insert({0: Fraction(1), 1: Fraction(2)})
    red.insert({1: Fraction(1), 2: Fraction(1)})
    assert red.contains({0: Fraction(2), 1: Fraction(5), 2: Fraction(1)})
    assert not red.contains({2: Fraction(1), 3: Fraction(1)})
    assert not red.insert({0: Fraction(3), 1: Fraction(6)})


def test_sparse_vec_grows_one_column_index():
    columns = {}
    assert sparse_vec({"a": 2, "b": Fraction(1, 2)}, columns) == \
        {0: 2, 1: Fraction(1, 2)}
    assert sparse_vec({"c": -1, "a": 3}, columns) == {2: -1, 0: 3}
    assert columns == {"a": 0, "b": 1, "c": 2}
    assert sparse_vec({}, columns) == {}


def test_transpose_involution():
    rng = random.Random(7)
    m = random_matrix(rng, 4, 6)
    assert m.transpose().transpose() == m


def test_int_matrix_gives_the_fraction_results_without_floats():
    rng = random.Random(10)
    cases = []
    for _ in range(30):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        cases.append([{j: rng.randint(-5, 5) for j in range(ncols)
                       if rng.random() < 0.6} for _ in range(nrows)])
    # rank deficient: integer combinations of two rows
    for _ in range(10):
        base = [{j: rng.randint(-4, 4) for j in range(6)} for _ in range(2)]
        cases.append([{j: a * base[0][j] + b * base[1][j] for j in range(6)}
                      for a, b in ((rng.randint(-3, 3), rng.randint(-3, 3))
                                   for _ in range(5))])

    def no_floats(vecs):
        return all(type(c) is not float for v in vecs for c in v.values())

    for rows in cases:
        ncols = max((k for r in rows for k in r), default=0) + 1
        mi = Matrix(rows, ncols)
        mf = Matrix([{j: Fraction(c) for j, c in r.items()} for r in rows],
                    ncols)
        assert all(type(c) is int for r in mi.rows for c in r.values())
        ech, rank = rref(mi)
        assert (ech, rank) == rref(mf) and no_floats(ech.rows)
        kern = kernel_basis(mi)
        assert kern == kernel_basis(mf) and no_floats(kern)
        rhs = {i: rng.randint(-3, 3) for i in range(len(rows))}
        got, want = solve(mi, rhs), solve(mf, rhs)
        if isinstance(want, Inconsistent):
            assert isinstance(got, Inconsistent)
            assert got.certificate == want.certificate
            assert no_floats([got.certificate])
        else:
            assert got == want and no_floats([got])



def test_product_files_pairs_under_their_key_and_drops_cancellations():
    # (x1 + x2)(x1 - x2) under a commutative key: the cross terms cancel
    a = TermPoly.var("x1") + TermPoly.var("x2")
    b = TermPoly.var("x1") - TermPoly.var("x2")
    got = a.product(b, lambda s, t: tuple(sorted((s[1], t[1]))))
    assert type(got) is TermPoly
    assert got.terms == {("x1", "x1"): 1, ("x2", "x2"): -1}
    half = Combination({"u": Fraction(1, 2)})
    assert half.product(half, str.__add__).terms == {"uu": Fraction(1, 4)}
    assert not a.product(Combination(), str.__add__)
