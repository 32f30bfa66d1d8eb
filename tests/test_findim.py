import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from mutperm.findim import (_JACOBIATOR, MAX_DIM, FiniteAlgebra,
                            dump_algebra, evaluate, jacobi_test,
                            lie_admissible_criterion, load_algebra,
                            mutation_algebra, satisfies)
from mutperm.linalg import Matrix, rref, solve
from mutperm.perm import Elt, bracket, mono_mul
from mutperm.terms import TEMPLATES, Template, TermPoly, multilinearize, parse
from mutperm.verify import _prop35


def random_vector(rng, dim):
    return [Fraction(rng.randint(-2, 2)) for _ in range(dim)]


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


def lattice(k, d):
    """The points of L(k, d) = {c in N^k : |c| <= d}, lexicographically."""
    if k == 0:
        yield ()
        return
    for first in range(d + 1):
        for rest in lattice(k - 1, d - first):
            yield (first,) + rest


def lattice_lie_admissible(a):
    """Is every (p, q)-mutation of a Lie-admissible?  Decided exactly, by
    a search independent of crit36.

    The mutation product (x p) y - (y q) x has structure constants linear
    in the k = 2 dim coordinates of (p, q), so each coordinate of its
    Jacobiator on a basis triple is a polynomial of degree <= 2 in them.
    A polynomial P of degree <= d that vanishes on the lattice
    L(k, d) = {c in N^k : |c| <= d} is zero, by induction on k and d:
    P(c', 0) vanishes on L(k - 1, d), hence is 0, so P = c_k Q with
    deg Q <= d - 1, and Q(c + e_k) vanishes on L(k, d - 1).  Hence checking
    the C(k + 2, 2) mutations at the points of L(k, 2) (28 for dim 3) with
    ``jacobi_test`` decides all of them.  Returns (yes, None), or
    (no, (p, q, (i, j, k))) for the first failing lattice point (p, q) in
    lexicographic order.
    """
    for c in lattice(2 * a.dim, 2):
        p = [Fraction(x) for x in c[:a.dim]]
        q = [Fraction(x) for x in c[a.dim:]]
        ok, triple = jacobi_test(mutation_algebra(a, p, q))
        if not ok:
            return False, (p, q, triple)
    return True, None


def random_algebras(rng, count):
    """Random tables of dims 1 to 3 with integer entries, from sparse to
    dense."""
    out = []
    for n in range(count):
        dim, density = 1 + n % 3, (0.1, 0.3, 0.6)[n // 3 % 3]
        a = FiniteAlgebra(dim)
        for i, j, k in itertools.product(range(dim), repeat=3):
            if rng.random() < density:
                a.table[i][j][k] = Fraction(rng.choice((1, -1, 2)))
        out.append(a)
    return out


def criterion_satisfying_samples(rng, count):
    """Random algebras satisfying the Lie-admissibility criterion, built
    by change of basis from tables known to satisfy it."""
    zero2 = FiniteAlgebra(2)
    bicomm = FiniteAlgebra(2)
    bicomm.table[0][0][1] = Fraction(1)
    comm3 = FiniteAlgebra(3)   # e1 idempotent, otherwise zero
    comm3.table[0][0][0] = Fraction(1)
    catalog = [bicomm, comm3, zero2]
    out = []
    while len(out) < count:
        base = catalog[len(out) % len(catalog)]
        s = [[Fraction(rng.randint(-2, 2)) for _ in range(base.dim)]
             for _ in range(base.dim)]
        try:
            out.append(change_of_basis(base, s))
        except ValueError:
            continue
    return out


def matrix2x2():
    """The 2x2 matrix algebra as structure constants, basis E11,E12,E21,E22.
    Built straight from matrix units: Eij Ekl = delta_jk Eil."""
    a = FiniteAlgebra(4, ["E11", "E12", "E21", "E22"])
    pos = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    for (i, j), m in pos.items():
        for (k, l), n in pos.items():
            if j == k:
                a.table[m][n][pos[(i, l)]] = Fraction(1)
    return a


def as_matrix(v):
    return [[v[0], v[1]], [v[2], v[3]]]


def mat_mul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]


def test_mul_matches_matrix_multiplication():
    a = matrix2x2()
    rng = random.Random(0)
    for _ in range(20):
        x = random_vector(rng, 4)
        y = random_vector(rng, 4)
        prod = a.mul(x, y)
        assert as_matrix(prod) == mat_mul(as_matrix(x), as_matrix(y))


def test_circ_is_twice_commutator_at_identity_parameters():
    a = matrix2x2()
    ident = [Fraction(1), Fraction(0), Fraction(0), Fraction(1)]
    rng = random.Random(1)
    circ = TEMPLATES["circ"]
    for _ in range(10):
        x = random_vector(rng, 4)
        y = random_vector(rng, 4)
        got = evaluate(a, circ.instantiate(["u", "w"]), {"u": x, "w": y},
                       p=ident, q=ident)
        xy = mat_mul(as_matrix(x), as_matrix(y))
        yx = mat_mul(as_matrix(y), as_matrix(x))
        want = [2 * (xy[i][j] - yx[i][j]) for i in range(2)
                for j in range(2)]
        assert got == want


def test_evaluate_zero_polynomial():
    a = matrix2x2()
    assert evaluate(a, parse("0"), {}) == a.zero()


def test_evaluate_errors():
    a = matrix2x2()
    with pytest.raises(ValueError):
        evaluate(a, parse("u*w"), {"u": a.basis(0)})
    with pytest.raises(ValueError):
        evaluate(a, parse("u"), {"u": [1, 2]})
    with pytest.raises(ValueError):
        evaluate(a, parse("<u,w>"), {"u": a.basis(0), "w": a.basis(1)},
                 p=a.basis(0))


def test_prop35_satisfies_f_fails_wa():
    a = _prop35()
    ok, _ = satisfies(a, TEMPLATES["f"])
    assert ok
    ok, witness = satisfies(a, TEMPLATES["wa"])
    assert not ok
    tup, val = witness
    assert tup == (0, 0, 2)
    assert val == [Fraction(-1), Fraction(0), Fraction(0)]
    assert a.vec_str(val) == "-e1"
    assert a.vec_str(a.zero()) == "0"
    assert a.vec_str([Fraction(-1, 2), Fraction(1), Fraction(2)]) == \
        "-1/2 e1 + e2 + 2 e3"
    assert a.vec_str([Fraction(0), Fraction(1, 2), Fraction(-3)]) == \
        "1/2 e2 - 3 e3"


def test_zero_algebra_satisfies_everything():
    z = FiniteAlgebra(3)
    for t in TEMPLATES.values():
        ok, _ = satisfies(z, t)
        assert ok


def test_load_dump_round_trip():
    a = _prop35()
    doc = json.loads(dump_algebra(a))
    assert load_algebra(doc) == a
    # fractional constants survive
    b = FiniteAlgebra(2)
    b.table[0][1][0] = Fraction(-3, 7)
    assert load_algebra(json.loads(dump_algebra(b))) == b


def test_load_schema_errors():
    with pytest.raises(ValueError):
        load_algebra({"dim": -1, "table": []})
    with pytest.raises(ValueError):
        load_algebra({"dim": 2, "table": [[1, 2, 3, "1"]]})   # k out of range
    with pytest.raises(ValueError):
        load_algebra({"dim": 2, "table": [[1, 2, "1"]]})
    for doc in ([1, 2], {"dim": 2, "names": 5},
                {"dim": 2, "names": ["e1", 2]}, {"dim": 2, "names": ["e1"]},
                {"dim": 2, "table": 5},
                {"dim": 1, "table": [[1, 1, 1, "1/0"]]}):
        with pytest.raises(ValueError):
            load_algebra(io.StringIO(json.dumps(doc)))
    # parsed documents that are not objects; 5 is not a file descriptor
    for doc in ([1, 2], 5, None):
        with pytest.raises(ValueError):
            load_algebra(doc)


def test_mutation_algebra_zero_parameters():
    a = _prop35()
    m = mutation_algebra(a, a.zero(), a.zero())
    assert m == FiniteAlgebra(3, a.names)


def test_mutation_algebra_matches_direct_evaluation():
    a = matrix2x2()
    rng = random.Random(2)
    p = random_vector(rng, 4)
    q = random_vector(rng, 4)
    m = mutation_algebra(a, p, q)
    for i, j in itertools.product(range(4), repeat=2):
        want = evaluate(a, parse("<u,w>"),
                        {"u": a.basis(i), "w": a.basis(j)}, p=p, q=q)
        assert m.table[i][j] == want


def truncated_free_perm_algebra(letters, top):
    """The free perm algebra on ``letters`` (in generator order) modulo
    the words longer than ``top``: its basis is the canonical monomials
    up to degree ``top``, and a product is perm.mono_mul's monomial, or 0
    above ``top``.  Returns the algebra and the monomial -> basis index."""
    monos = [(prefix, tail) for d in range(1, top + 1)
             for prefix in itertools.combinations_with_replacement(letters,
                                                                   d - 1)
             for tail in letters]
    index = {m: i for i, m in enumerate(monos)}
    a = FiniteAlgebra(len(monos))
    for (i, u), (j, w) in itertools.product(enumerate(monos), repeat=2):
        k = index.get(mono_mul(u, w))
        if k is not None:
            a.table[i][j][k] = Fraction(1)
    return a, index


def test_findim_brackets_agree_with_perm_brackets():
    """Differential oracle between layers: in the free perm algebra on
    x1, x2, p, q truncated above degree 3, findim's mutation product
    with p = e_p and q = e_q, both through evaluate and through the
    mutation_algebra table, has the coordinates of perm.bracket."""
    letters = ["x1", "x2", "p", "q"]
    a, index = truncated_free_perm_algebra(letters, 3)
    assert a.dim == 60
    e = {g: a.basis(index[((), g)]) for g in letters}
    mut = mutation_algebra(a, e["p"], e["q"])
    for u, w in itertools.product(["x1", "x2"], repeat=2):
        want = a.zero()
        for m, c in bracket(Elt.gen(u), Elt.gen(w)).terms.items():
            want[index[m]] = Fraction(c)
        assert sum(map(bool, want)) == 2
        assert evaluate(a, parse(f"<{u},{w}>"), {u: e[u], w: e[w]},
                        p=e["p"], q=e["q"]) == want
        assert mut.table[index[((), u)]][index[((), w)]] == want


def test_change_of_basis_preserves_identities():
    a = _prop35()
    s = [[1, 1, 0], [0, 1, 0], [2, 0, 1]]
    b = change_of_basis(a, s)
    ok, _ = satisfies(b, TEMPLATES["f"])
    assert ok
    ok, _ = satisfies(b, TEMPLATES["wa"])
    assert not ok
    with pytest.raises(ValueError):
        change_of_basis(a, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])


def test_jacobi_on_lie_like_table():
    # the commutator of an associative algebra always satisfies Jacobi
    ok, _ = jacobi_test(matrix2x2())
    assert ok
    ok, _ = jacobi_test(FiniteAlgebra(2))
    assert ok


def test_criterion_samples_and_forward_direction():
    rng = random.Random(3)
    for a in criterion_satisfying_samples(rng, 6):
        ok, _ = lie_admissible_criterion(a)
        assert ok
        for _ in range(10):
            p = random_vector(rng, a.dim)
            q = random_vector(rng, a.dim)
            ok, _ = jacobi_test(mutation_algebra(a, p, q))
            assert ok


def test_criterion_failure_yields_non_jacobi_mutation():
    # a deterministic search: random 3-dim tables until one fails the
    # criterion, then a random (p, q) whose mutation breaks Jacobi
    rng = random.Random(4)
    while True:
        a = FiniteAlgebra(3)
        for i, j, k in itertools.product(range(3), repeat=3):
            a.table[i][j][k] = Fraction(rng.randint(-1, 1))
        ok, _ = lie_admissible_criterion(a)
        if not ok:
            break
    found = None
    for _ in range(200):
        p = random_vector(rng, 3)
        q = random_vector(rng, 3)
        ok, witness = jacobi_test(mutation_algebra(a, p, q))
        if not ok:
            found = (p, q, witness)
            break
    assert found is not None


# Reference implementations: evaluate every basis tuple on its own, and
# the commutator's Jacobi identity by a triple loop.

def oracle_satisfies(a, template, p=None, q=None):
    body = multilinearize(template.body)
    names = sorted(body.variables())
    for tup in itertools.product(range(a.dim), repeat=len(names)):
        assignment = {nm: a.basis(i) for nm, i in zip(names, tup)}
        val = evaluate(a, body, assignment, p, q)
        if any(val):
            return False, (tup, val)
    return True, None


def oracle_jacobi(a):
    def comm(x, y):
        return [u - w for u, w in zip(a.mul(x, y), a.mul(y, x))]

    basis = [a.basis(i) for i in range(a.dim)]
    for i, j, k in itertools.product(range(a.dim), repeat=3):
        x, y, z = basis[i], basis[j], basis[k]
        total = a.zero()
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            total = [s + t for s, t in zip(total, comm(comm(u, v), w))]
        if any(total):
            return False, (i, j, k)
    return True, None


def differential_algebras():
    """Sparse int, dense rational and change-of-basis tables."""
    rng = random.Random(7)
    sparse = FiniteAlgebra(3)
    for i, j, k in itertools.product(range(3), repeat=3):
        sparse.table[i][j][k] = Fraction(rng.choice((0, 0, 0, 0, 1, -1, 2)))
    dense = FiniteAlgebra(2)
    for i, j, k in itertools.product(range(2), repeat=3):
        dense.table[i][j][k] = Fraction(rng.randint(-3, 3),
                                        rng.randint(1, 4))
    return ([("prop35", _prop35()), ("sparse", sparse), ("dense", dense),
             ("zero", FiniteAlgebra(2))]
            + [(f"sample{n}", s) for n, s in
               enumerate(criterion_satisfying_samples(rng, 3))])


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_satisfies_matches_per_tuple_oracle(name):
    rng = random.Random(name)
    for label, a in differential_algebras():
        pq = (random_vector(rng, a.dim), random_vector(rng, a.dim))
        for args in ((), pq):
            got = satisfies(a, TEMPLATES[name], *args)
            want = oracle_satisfies(a, TEMPLATES[name], *args)
            assert got == want, (label, len(args))
            if not got[0]:
                assert all(type(c) is Fraction for c in got[1][1])


def test_satisfies_degree_one_and_zero_bodies():
    linear = Template("linear", "a", TermPoly.var("a").scale(3))
    zero = Template("zero", "a", TermPoly.zero())
    for _, a in differential_algebras():
        for t in (linear, zero):
            assert satisfies(a, t) == oracle_satisfies(a, t)
    assert satisfies(_prop35(), linear) == (False, ((0,), [3, 0, 0]))


def test_jacobi_matches_triple_loop_oracle():
    rng = random.Random(8)
    failures = 0
    for label, a in differential_algebras() + [("matrix", matrix2x2())]:
        for m in (a, mutation_algebra(a, random_vector(rng, a.dim),
                                      random_vector(rng, a.dim))):
            got = jacobi_test(m)
            assert got == oracle_jacobi(m), label
            failures += not got[0]
    assert failures > 0


def test_table_ceiling_raises():
    with pytest.raises(ValueError, match="ceiling"):
        satisfies(FiniteAlgebra(10), TEMPLATES["crit36"])
    assert satisfies(FiniteAlgebra(9), TEMPLATES["crit36"]) == (True, None)


def test_load_rejects_dim_above_ceiling():
    assert load_algebra({"dim": MAX_DIM, "table": []}).dim == MAX_DIM
    with pytest.raises(ValueError, match="ceiling"):
        load_algebra({"dim": MAX_DIM + 1, "table": []})


def test_lattice_check_finds_non_lie_admissible_mutation():
    rng = random.Random(0)
    a = FiniteAlgebra(3)
    for i, j, k in itertools.product(range(3), repeat=3):
        a.table[i][j][k] = Fraction(rng.choice((0, 0, 1, -1)))
    ok, (p, q, triple) = lattice_lie_admissible(a)
    assert not ok
    assert (p, q) == (a.zero(), a.basis(2))
    assert oracle_jacobi(mutation_algebra(a, p, q)) == (False, triple)


def test_lattice_check_needs_the_degree_two_points():
    # every mutation with (p, q) zero or a unit vector is Lie-admissible,
    # but p = 0, q = e2 + e3 is not
    rng = random.Random(69)
    a = FiniteAlgebra(3)
    for i, j, k in itertools.product(range(3), repeat=3):
        a.table[i][j][k] = Fraction(rng.choice((0, 0, 0, 0, 1, -1)))
    zero = a.zero()
    for u in [zero] + [a.basis(i) for i in range(3)]:
        assert oracle_jacobi(mutation_algebra(a, u, zero))[0]
        assert oracle_jacobi(mutation_algebra(a, zero, u))[0]
    ok, (p, q, triple) = lattice_lie_admissible(a)
    assert not ok
    assert (p, q) == (zero, [0, 1, 1])
    assert oracle_jacobi(mutation_algebra(a, p, q)) == (False, triple)


def test_lattice_check_passes_on_criterion_samples():
    """A sampled cross-check of verify.check_lie_admissibility's proof:
    20 criterion-satisfying algebras, every lattice mutation of each."""
    points = 0
    for a in criterion_satisfying_samples(random.Random(11), 20):
        assert lie_admissible_criterion(a) == (True, None)
        assert lattice_lie_admissible(a) == (True, None)
        points += math.comb(2 * a.dim + 2, 2)
    assert points == 391


def test_criterion_agrees_with_lattice_search():
    """Criterion 11 as an equivalence: the crit36 scan and the lattice
    search give the same verdict, on algebras of both kinds."""
    verdicts = []
    for a in random_algebras(random.Random(12), 54):
        ok, _ = lie_admissible_criterion(a)
        assert ok == lattice_lie_admissible(a)[0]
        verdicts.append(ok)
    assert True in verdicts and False in verdicts


def test_criterion_witness_gives_non_lie_admissible_mutation():
    """A crit36 witness ((i, j, k, l, m), L) names the mutations at
    (e_l, e_m) and (e_l, -e_m): their Jacobiators at (e_i, e_j, e_k)
    differ by -2 L, so one of the two fails Jacobi."""
    failures = 0
    for a in random_algebras(random.Random(13), 54):
        ok, witness = lie_admissible_criterion(a)
        if ok:
            continue
        failures += 1
        (i, j, k, l, m), value = witness
        triple = {"a": a.basis(i), "b": a.basis(j), "c": a.basis(k)}
        muts = [mutation_algebra(a, a.basis(l), [s * x for x in a.basis(m)])
                for s in (1, -1)]
        plus, minus = (evaluate(mut, _JACOBIATOR.body, triple)
                       for mut in muts)
        assert [u - w for u, w in zip(plus, minus)] == [-2 * v
                                                        for v in value]
        assert not all(jacobi_test(mut)[0] for mut in muts)
    assert failures > 0
