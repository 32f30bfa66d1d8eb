import io
import itertools
import json
import random
from fractions import Fraction

import pytest

from mutperm.findim import (MAX_DIM, FiniteAlgebra, change_of_basis,
                            dump_algebra, evaluate, jacobi_test,
                            lie_admissible_criterion, load_algebra,
                            mutation_algebra, mutations_lie_admissible,
                            random_vector, satisfies)
from mutperm.terms import TEMPLATES, Template, TermPoly, multilinearize, parse
from mutperm.verify import _prop35, criterion_satisfying_samples


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
    ok, (p, q, triple) = mutations_lie_admissible(a)
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
    ok, (p, q, triple) = mutations_lie_admissible(a)
    assert not ok
    assert (p, q) == (zero, [0, 1, 1])
    assert oracle_jacobi(mutation_algebra(a, p, q)) == (False, triple)


def test_lattice_check_passes_on_criterion_samples():
    for a in criterion_satisfying_samples(random.Random(9), 3):
        assert mutations_lie_admissible(a) == (True, None)
