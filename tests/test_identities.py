import itertools
import random
from fractions import Fraction

import pytest

from mutperm.identities import (_DegreeSpace, _as_poly_at_x, _lift_once,
                                _orbit_span, consequence_span,
                                expansion_matrix, identity_kernel,
                                magmatic_basis, new_identities, poly_to_vec,
                                tideal_membership, vec_to_poly)
from mutperm.linalg import Matrix, SpanReducer, kernel_basis, rref
from mutperm.mutation import expand
from mutperm.terms import (TEMPLATES, TermPoly, bnode, mnode, multilinearize,
                           parse, rename_leaves)
from mutperm.verify import PAPER_MATRIX_3, permutation_matrix_deg3


def test_magmatic_counts():
    assert len(magmatic_basis(2)) == 2
    assert len(magmatic_basis(3)) == 12
    assert len(magmatic_basis(4)) == 120
    with pytest.raises(ValueError):
        magmatic_basis(7)


def test_degree3_column_order_matches_reference():
    names = [str(TermPoly.term(t)) for t in magmatic_basis(3)]
    assert names[:3] == ["<x1,<x2,x3>>", "<x1,<x3,x2>>", "<x2,<x1,x3>>"]
    assert names[6] == "<<x1,x2>,x3>"
    assert names[-1] == "<<x3,x2>,x1>"


def test_reference_matrix_is_reproduced():
    mat = permutation_matrix_deg3()
    _, rank = rref(mat)
    assert rank == 5
    ref = Matrix([{j: Fraction(c) for j, c in enumerate(row) if c}
                  for row in PAPER_MATRIX_3], 12)
    assert rref(ref)[1] == 5
    # identical row spans (ours lists the f permutations first)
    assert rref(ref)[0] == rref(mat)[0]


def test_expansion_matrix_ranks():
    assert rref(expansion_matrix(2))[1] == 2
    m3 = expansion_matrix(3)
    assert m3.nrows == 12 and rref(m3)[1] == 7


def test_identity_kernel_dims():
    assert len(identity_kernel(2)) == 0
    kern = identity_kernel(3)
    assert len(kern) == 5
    for poly in kern:
        assert not expand(poly)


def brute_consequences_deg4(identities):
    """Independent oracle for degree-4 consequence spans: enumerate every
    substitution instance and context product explicitly, then close the
    span.  No shared code with consequence_span's lifting."""
    basis = magmatic_basis(4)
    index = {t: i for i, t in enumerate(basis)}
    names = ["x1", "x2", "x3", "x4"]
    red = SpanReducer()

    def add(poly):
        red.insert(poly_to_vec(poly, index))

    for ident in identities:
        arity = ident.arity
        if arity == 4:
            for perm in itertools.permutations(names):
                add(ident.instantiate(list(perm)))
        elif arity == 3:
            # substitute a bracket of two variables into one slot
            for perm in itertools.permutations(names):
                args = [TermPoly.var(perm[0]), TermPoly.var(perm[1]),
                        TermPoly.var(perm[2])]
                for slot in range(3):
                    for inner in (bnode(args[slot], TermPoly.var(perm[3])),
                                  bnode(TermPoly.var(perm[3]), args[slot])):
                        new_args = list(args)
                        new_args[slot] = inner
                        add(ident.instantiate(new_args))
                # multiply the whole identity by the fourth variable
                body = ident.instantiate(list(perm[:3]))
                add(bnode(body, TermPoly.var(perm[3])))
                add(bnode(TermPoly.var(perm[3]), body))
        else:
            raise ValueError("oracle only handles arities 3 and 4")
    return red.dim


def test_consequence_span_degree3():
    cons = consequence_span([TEMPLATES["f"], TEMPLATES["wa"]], 3)
    assert len(cons) == 5
    kern = identity_kernel(3)
    basis = magmatic_basis(3)
    index = {t: i for i, t in enumerate(basis)}
    red = SpanReducer()
    for v in cons:
        red.insert(v)
    for poly in kern:
        assert red.contains(poly_to_vec(poly, index))


def test_consequence_span_degree4_against_brute_oracle():
    T = TEMPLATES
    combos = [
        [T["f"]],
        [T["wa"]],
        [T["f"], T["wa"]],
        [T["f"], T["wa"], T["hbar"], T["ibar"]],
    ]
    for combo in combos:
        fast = len(consequence_span(combo, 4))
        slow = brute_consequences_deg4(combo)
        assert fast == slow


def fixed_point_consequence_span(identities, n):
    """Oracle: consequence_span with the permutation closure done by
    re-applying every transposition to every pivot row until a whole pass
    adds nothing."""
    items = [(len(p.variables()), p) for p in map(_as_poly_at_x, identities)]
    prev_polys = []
    for d in range(min(deg for deg, _ in items), n + 1):
        space = _DegreeSpace(d, "b")
        reducer = SpanReducer()
        gens = [p for deg, p in items if deg == d]
        for poly in prev_polys:
            gens.extend(_lift_once(poly, d - 1, "b"))
        for poly in gens:
            reducer.insert(poly_to_vec(poly, space.index))
        grew = True
        while grew:
            grew = False
            for vec in list(reducer.pivot_rows.values()):
                for act in space.transpositions:
                    if reducer.insert(act(vec)):
                        grew = True
        prev_polys = [vec_to_poly(v, space.basis) for v in reducer.rows()]
    return reducer.rows()


@pytest.mark.parametrize("names,n", [(("f", "wa"), 4), (("f", "conj4b"), 5)])
def test_consequence_span_matches_fixed_point_closure(names, n):
    known = [TEMPLATES[name] for name in names]
    assert consequence_span(known, n) == fixed_point_consequence_span(known, n)


def test_consequence_span_degree4_frozen_dims():
    T = TEMPLATES
    assert len(consequence_span([T["f"]], 4)) == 20
    assert len(consequence_span([T["wa"]], 4)) == 72
    assert len(consequence_span([T["f"], T["wa"]], 4)) == 88
    assert len(consequence_span(
        [T["f"], T["wa"], T["hbar"], T["ibar"]], 4)) == 92
    assert len(consequence_span(
        [T["f"], T["wa"], T["conj4a"], T["conj4b"]], 4)) == 107


@pytest.mark.parametrize("cap", [1, 17, 87])
def test_consequence_span_cap_returns_cap_rows_of_the_span(cap):
    known = [TEMPLATES["f"], TEMPLATES["wa"]]
    full = SpanReducer()
    for v in consequence_span(known, 4):
        full.insert(v)
    assert full.dim == 88
    capped = consequence_span(known, 4, cap=cap)
    assert len(capped) == cap
    assert all(full.contains(v) for v in capped)


def test_new_identities_degree3():
    rep = new_identities([TEMPLATES["f"], TEMPLATES["wa"]], 3)
    assert rep["kernel_dim"] == 5
    assert rep["consequence_dim"] == 5
    assert rep["new_dim"] == 0
    assert rep["representatives"] == []


def test_new_identities_degree4():
    T = TEMPLATES
    rep = new_identities([T["f"], T["wa"], T["hbar"], T["ibar"]], 4)
    assert rep["kernel_dim"] == 107
    assert rep["consequence_dim"] == 92
    assert rep["new_dim"] == 2
    # the two representatives really close the kernel
    rep2 = new_identities([T["f"], T["wa"], T["hbar"], T["ibar"]]
                          + rep["representatives"], 4)
    assert rep2["new_dim"] == 0 and rep2["consequence_dim"] == 107
    # each representative expands to zero, i.e. is an identity
    for poly in rep["representatives"]:
        assert not expand(poly)


def trial_loop_new_identities(known, n):
    """Oracle for new_identities' greedy choice: in each round, copy the
    span, insert the whole orbit of each candidate's residue into the
    copy and read off the dimension gain; the first largest gain wins.
    Returns the report and, per round, the span before it (its pivot
    rows) and every candidate's gain."""
    basis = magmatic_basis(n)
    index = {t: i for i, t in enumerate(basis)}
    names = [f"x{i}" for i in range(1, n + 1)]
    maps = [[index[rename_leaves(t, dict(zip(names, pp)))] for t in basis]
            for pp in itertools.permutations(names)]
    mat = expansion_matrix(n)
    kb = kernel_basis(mat.transpose())
    kdim = len(kb)
    cons = consequence_span(known, n)
    red = SpanReducer()
    for v in cons:
        red.insert(v)

    def orbit(vec):
        return [{m[i]: c for i, c in vec.items()} for m in maps]

    reps, rounds = [], []
    while red.dim < kdim:
        gains, best = [], None
        for v in kb:
            residue = red.residue(v)
            if not residue:
                gains.append(0)
                continue
            trial = SpanReducer()
            trial.pivot_rows = dict(red.pivot_rows)
            for ov in orbit(residue):
                trial.insert(ov)
            gains.append(trial.dim - red.dim)
            if best is None or gains[-1] > best[0]:
                best = (gains[-1], residue)
        rounds.append((dict(red.pivot_rows), gains))
        reps.append(vec_to_poly({k: Fraction(c) for k, c in best[1].items()},
                                basis))
        for ov in orbit(best[1]):
            red.insert(ov)
    report = {"kernel_dim": kdim, "consequence_dim": len(cons),
              "new_dim": len(reps), "representatives": reps}
    return report, rounds, kb


def orbit_gains(pivot_rows, kb, n):
    """Every candidate's gain as new_identities scores it, from the span
    with the given pivot rows."""
    red = SpanReducer()
    red.pivot_rows = dict(pivot_rows)
    actions = _DegreeSpace(n, "b").transpositions
    return [_orbit_span(red, v, actions, len(kb)).dim - red.dim for v in kb]


def seeded_known(rng, names):
    """The named identities at random distinct variable names (renamed and
    reordered), each scaled by a random rational, shuffled."""
    polys = []
    for name in names:
        t = TEMPLATES[name]
        xs = rng.sample(["a", "b", "c", "d", "u", "w", "y", "z"], t.arity)
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                         rng.randint(1, 9))
        polys.append(t.instantiate(xs).scale(scale))
    rng.shuffle(polys)
    return polys


def assert_same_report(got, want):
    assert got == want
    # the same Fraction coefficients and term order, not only equal values
    assert repr(got) == repr(want)


KNOWN4 = ("f", "wa", "hbar", "ibar")
GAIN_CASES = [(("f", "wa"), 3), ((), 3), (("f",), 3), (KNOWN4, 4),
              (("f", "wa"), 4)]


@pytest.mark.parametrize("names,n", GAIN_CASES,
                         ids=[f"{n}-{'+'.join(k) or 'none'}"
                              for k, n in GAIN_CASES])
def test_new_identities_against_trial_loop_with_gains(names, n):
    known = [TEMPLATES[name] for name in names]
    want, rounds, kb = trial_loop_new_identities(known, n)
    assert_same_report(new_identities(known, n), want)
    for pivot_rows, gains in rounds:
        assert orbit_gains(pivot_rows, kb, n) == gains


@pytest.mark.parametrize("names", [("f",), ("wa",)])
def test_new_identities_against_trial_loop_one_generator(names):
    known = [TEMPLATES[name] for name in names]
    assert_same_report(new_identities(known, 4),
                       trial_loop_new_identities(known, 4)[0])


@pytest.mark.parametrize("seed", [1, 2])
def test_new_identities_against_trial_loop_seeded(seed):
    rng = random.Random(seed)
    for names, n in ((("f", "wa"), 3), (KNOWN4, 4), (("f", "wa"), 4)):
        known = seeded_known(rng, names)
        want, rounds, kb = trial_loop_new_identities(known, n)
        assert_same_report(new_identities(known, n), want)
        for pivot_rows, gains in rounds[:1]:
            assert orbit_gains(pivot_rows, kb, n) == gains


def test_new_identities_rejects_non_identity():
    fake = parse("<x1,x2> - <x2,x1>")
    with pytest.raises(ValueError):
        new_identities([fake], 3)


def test_tideal_membership_basics():
    a, b, c = (TermPoly.var(n) for n in "abc")
    comm = mnode(a, b) - mnode(b, a)
    # (ab)c - (ba)c follows from commutativity
    target = mnode(mnode(a, b), c) - mnode(mnode(b, a), c)
    assert tideal_membership(target, [comm], kind="m")
    # associativity does not follow from commutativity
    assoc = mnode(mnode(a, b), c) - mnode(a, mnode(b, c))
    assert not tideal_membership(assoc, [comm], kind="m")
    # with no defining identities only 0 follows
    assert not tideal_membership(assoc, [], kind="m")
    assert not tideal_membership(parse("<<a,b>,c>"), [], kind="b")


def test_tideal_membership_rejects_nonlinear_target():
    a, b = TermPoly.var("a"), TermPoly.var("b")
    with pytest.raises(ValueError):
        tideal_membership(mnode(a, a), [mnode(a, b) - mnode(b, a)], kind="m")


def test_tideal_membership_rejects_other_node_kinds():
    a, b = TermPoly.var("a"), TermPoly.var("b")
    comm = mnode(a, b) - mnode(b, a)
    for target in ("<<a,b>,c>", "<a*b,c>"):
        with pytest.raises(ValueError):
            tideal_membership(parse(target), [comm], kind="m")
