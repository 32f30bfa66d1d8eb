import itertools
import math
import random
from collections import deque
from fractions import Fraction

import pytest

from mutperm import identities, linalg, verify
from mutperm.identities import (_DegreeSpace, _as_poly_at_x, _lift_maps,
                                consequence_span, consequences_per_lambda,
                                expansion_matrix, identity_kernel,
                                kernel_multiplicities, magmatic_basis,
                                new_identities, poly_to_vec,
                                tideal_membership, vec_to_poly)
from mutperm.linalg import (Matrix, SpanReducer, _to_int_row, kernel_basis,
                            rref)
from mutperm.mutation import expand
from mutperm.perm import mono_key
from mutperm.symmetric import Quotient, dimension, grow, irreps
from mutperm.terms import (TEMPLATES, Template, TermPoly, bnode, mnode,
                           multilinearize, parse, rename_leaves, substitute,
                           term_vars)
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


def perm_columns(n):
    """The multilinear perm monomials of degree n in x1..xn with n - 1
    parameters, in the global monomial order."""
    names = [f"x{i}" for i in range(1, n + 1)]
    monos = []
    for tail in names:
        rest = [g for g in names if g != tail]
        for k in range(n):
            params = ["p"] * k + ["q"] * (n - 1 - k)
            monos.append((tuple(rest + params), tail))
    return sorted(monos, key=mono_key)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_expansion_columns_are_tail_and_q_count(n):
    """n^2 columns; column (t - 1)*n + k is the monomial with tail x_t and
    k q's."""
    assert expansion_matrix(n).ncols == n * n
    for i, (prefix, tail) in enumerate(perm_columns(n)):
        assert i == (int(tail[1:]) - 1) * n + prefix.count("q")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_expansion_matrix_rows_are_expansions(n):
    """Each row is the expansion of its magmatic monomial, term order
    included: every row for n <= 5, 300 seeded rows for n = 6."""
    mat = expansion_matrix(n)
    cols = {m: i for i, m in enumerate(perm_columns(n))}
    assert mat.ncols == len(cols)
    basis = magmatic_basis(n)
    rows = range(len(basis))
    if n == 6:
        rows = random.Random(6).sample(rows, 300)
    for i in rows:
        want = [(cols[m], c) for m, c in
                expand(TermPoly.term(basis[i])).terms.items()]
        assert list(mat.rows[i].items()) == want


def test_degree_space_maps_match_leaf_renaming():
    """The index-table actions equal renaming the leaves of every term:
    the transpositions for n <= 5, the whole orbit for n <= 4 and 20
    seeded permutations for n = 5."""
    rng = random.Random(5)
    for n in range(1, 6):
        space = _DegreeSpace(n)
        basis = magmatic_basis(n)
        index = {t: i for i, t in enumerate(basis)}
        assert space.basis == basis and space.index == index
        names = [f"x{i}" for i in range(1, n + 1)]
        every = {i: i + 1 for i in range(len(basis))}
        assert len(space.transpositions) == n - 1
        for (a, b), act in zip(zip(names, names[1:]), space.transpositions):
            want = renaming_colmap(basis, index, {a: b, b: a})
            assert list(act(every).items()) == [(want[i], c)
                                                for i, c in every.items()]
        sigmas = list(itertools.permutations(range(n)))
        if n == 5:
            sigmas = rng.sample(sigmas, 20)
        for sigma in sigmas:
            mapping = {names[i]: names[j] for i, j in enumerate(sigma)}
            assert space.colmap(sigma) == renaming_colmap(basis, index,
                                                          mapping)


def test_lift_maps_match_substitution():
    """Lifting a vector through the column maps equals lifting its
    polynomial by substitution, term order included, for every basis
    term and for seeded polynomials, degrees 1 to 4 lifted by one."""
    rng = random.Random(4)
    for d in range(1, 5):
        low = magmatic_basis(d)
        space = _DegreeSpace(d + 1)
        maps = _lift_maps(low, space, d + 1)
        vecs = [{i: 1} for i in range(len(low))]
        vecs += [{i: rng.randint(-9, 9) or 1
                  for i in rng.sample(range(len(low)), min(len(low), 7))}
                 for _ in range(10)]
        for v in vecs:
            want = [poly_to_vec(p, space.index)
                    for p in _lift_once(vec_to_poly(v, low), d)]
            got = [{m[i]: c for i, c in v.items()} for _, m in maps]
            assert [list(w.items()) for w in want] == \
                [list(g.items()) for g in got]


def test_lift_variable_ends_the_coset_chain():
    """The lemma behind the closure's lift-variable stop, on column maps:
    with c_k = t_k ... t_{d-2} and L_k, R_k the lifts that put (x_k, x_d)
    and (x_d, x_k) into the slot x_k, t_{k-1} c_k L_k = c_k R_k and
    t_{k-1} c_k R_k = c_k L_k for 1 <= k <= d - 1; and the stop levels of
    the lifts (g, x_d), (x_d, g), L_1, R_1, ... are 0, 0, 1, 1, ..."""
    for d in (4, 5):
        low = magmatic_basis(d - 1)
        space = _DegreeSpace(d)
        t = space.transpositions
        maps = _lift_maps(low, space, d)
        assert [stop for stop, _ in maps] == [i // 2 for i in range(2 * d)]
        # an injective map is fixed by the image of this vector
        every = {i: i + 1 for i in range(len(low))}
        for k in range(1, d):
            def chain(m):
                v = {m[i]: c for i, c in every.items()}
                for j in reversed(range(k, d - 1)):
                    v = t[j](v)
                return v
            lk, rk = chain(maps[2 * k][1]), chain(maps[2 * k + 1][1])
            assert t[k - 1](lk) == rk and t[k - 1](rk) == lk


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


def _lift_once(poly, d):
    """All one-step T-ideal liftings of a multilinear degree-d bracket
    polynomial, by substitution into the polynomial."""
    new = TermPoly.var(f"x{d + 1}")
    out = [bnode(poly, new), bnode(new, poly)]
    for i in range(1, d + 1):
        xi = TermPoly.var(f"x{i}")
        out.append(substitute(poly, {f"x{i}": bnode(xi, new)}))
        out.append(substitute(poly, {f"x{i}": bnode(new, xi)}))
    return out


def renaming_colmap(basis, index, mapping):
    """Column map of renaming the leaves of every basis term."""
    return [index[rename_leaves(t, mapping)] for t in basis]


def fixed_point_consequence_span(identities, n):
    """Oracle: consequence_span with the liftings done by substitution
    into polynomials, the transpositions by renaming leaves, and the
    permutation closure by re-applying every transposition to every pivot
    row until a whole pass adds nothing."""
    items = [(len(p.variables()), p) for p in map(_as_poly_at_x, identities)]
    prev_polys = []
    for d in range(min(deg for deg, _ in items), n + 1):
        basis = magmatic_basis(d)
        index = {t: i for i, t in enumerate(basis)}
        names = [f"x{i}" for i in range(1, d + 1)]
        maps = [renaming_colmap(basis, index, {a: b, b: a})
                for a, b in zip(names, names[1:])]
        reducer = SpanReducer()
        gens = [p for deg, p in items if deg == d]
        for poly in prev_polys:
            gens.extend(_lift_once(poly, d - 1))
        for poly in gens:
            reducer.insert(poly_to_vec(poly, index))
        grew = True
        while grew:
            grew = False
            for vec in list(reducer.pivot_rows.values()):
                for m in maps:
                    if reducer.insert({m[i]: c for i, c in vec.items()}):
                        grew = True
        rows = [reducer.pivot_rows[c] for c in sorted(reducer.pivot_rows)]
        prev_polys = [vec_to_poly(v, basis) for v in rows]
    return rows


# The oracle makes every insert, so equal rows show that the closure
# skips only inserts that would be rejected.  At degree 4 f and conj4a
# are an identity of the top degree beside the lifts of f, which the
# lift-row skip must leave alone.
@pytest.mark.parametrize("names,n", [
    (("f", "wa"), 4), (("f", "conj4b"), 5), (("conj4b",), 5),
    (("hbar", "conj4a"), 5), (("f",), 5), (("f", "conj4a"), 4)])
def test_consequence_span_matches_fixed_point_closure(names, n):
    known = [TEMPLATES[name] for name in names]
    assert consequence_span(known, n) == fixed_point_consequence_span(known, n)


def test_consequence_span_insert_count(count_inserts):
    """The closure skips the transposition images that the Coxeter and
    braid relations place in the span already, and on lifted spans lets
    each row try only the next transposition of its coset chain, until
    the chain reaches its lift's own variable.  Measured here: a closure
    that applies every transposition to every row makes 4,701 inserts;
    one that skips the Coxeter cases 3,282, and the braid case too 2,916;
    one that also skips S_{n-1} on the lifted rows 1,686, of which 216
    are the images under s_j, j >= k + 2, of rows accepted from s_k, all
    rejected; the coset chains skip those and make 1,470, of which 357
    are rejected in the lifted closure; ending each chain at its lift's
    variable skips 269 of those and makes 1,201."""
    rows = consequence_span([TEMPLATES["f"], TEMPLATES["conj4b"]], 5)
    assert len(rows) == 1039
    assert len(count_inserts) == 1201


def coset_chain_close(red, transpositions, stops, omitted):
    """``identities._close`` on a lifted span without the lift-variable
    stop, every row trying the next transposition of its coset chain;
    appends to ``omitted`` the result of every insert that the stop does
    not make."""
    last = len(transpositions) - 1
    queue = deque((vec, None, stop)
                  for vec, stop in zip(red.pivot_rows.values(), stops))
    while queue:
        vec, via, stop = queue.popleft()
        j = last if via is None else via - 1
        if j < 0:
            continue
        accepted = red.insert(transpositions[j](vec))
        if j < stop:
            omitted.append(accepted)
        if accepted:
            queue.append((next(reversed(red.pivot_rows.values())), j, stop))


@pytest.mark.parametrize("names,n", [
    (("f", "conj4b"), 5), (("conj4b",), 5), (("f",), 5),
    (("hbar", "conj4a"), 5), (("wa",), 5), (("ibar",), 5)])
def test_lifted_closure_skips_only_rejected_images(monkeypatch, names, n):
    known = [TEMPLATES[name] for name in names]
    want = consequence_span(known, n)
    omitted = []
    close = identities._close
    monkeypatch.setattr(
        identities, "_close",
        lambda red, transpositions, lifted: (
            close(red, transpositions, lifted) if lifted is None
            else coset_chain_close(red, transpositions, lifted, omitted)))
    assert consequence_span(known, n) == want
    assert omitted and not any(omitted)


def test_scans_keep_the_consequence_reducer(count_inserts):
    """tideal_membership queries the reducer that the consequence span
    was closed in, and new_identities eliminates the expansion matrix
    once for its kernel and builds no direct consequence span.
    Re-inserting the consequence rows into a new reducer, and ranking the
    expansion matrix apart from its kernel, made 1,221 inserts (617
    accepted) and 7,952 (3,412) here; before the closure skipped the
    braid case, 1,009 (512) and 6,302 (1,762), and before it skipped
    S_{n-1} on the lifted rows and ``rref`` eliminated on its own, 1,097
    (580) and 6,149 (1,762).  The scan scores candidates per irreducible:
    of the 731 inserts (487 accepted), 683 (442) are per-irreducible rows
    and 48 (45) the two representatives' orbits; ``rref``, which ranks
    the orbit sums of the expansion matrix's rows for the kernel
    multiplicities and the transpose for the kernel, makes no insert.
    Reducing the representatives modulo the closed direct consequence
    span made 961 (554), and orbit trials in that span 895 (512).  The
    membership test made 2,873 (1,762) before the lifted closure ended
    each coset chain at its lift's own variable."""
    calls = count_inserts
    T = TEMPLATES
    rep = new_identities([T["f"], T["wa"], T["hbar"], T["ibar"]], 4)
    assert rep["new_dim"] == 2
    assert (len(calls), sum(calls)) == (731, 487)
    calls.clear()
    a, b, c = (TermPoly.var(x) for x in "abc")
    bicommutativity = [mnode(mnode(a, b), c) - mnode(mnode(a, c), b),
                       mnode(a, mnode(b, c)) - mnode(b, mnode(a, c))]
    assert tideal_membership(multilinearize(T["crit36"].body),
                             bicommutativity, kind="m")
    assert (len(calls), sum(calls)) == (2480, 1762)


def test_consequence_span_degree4_frozen_dims():
    T = TEMPLATES
    assert len(consequence_span([T["f"]], 4)) == 20
    assert len(consequence_span([T["wa"]], 4)) == 72
    assert len(consequence_span([T["f"], T["wa"]], 4)) == 88
    assert len(consequence_span(
        [T["f"], T["wa"], T["hbar"], T["ibar"]], 4)) == 92
    assert len(consequence_span(
        [T["f"], T["wa"], T["conj4a"], T["conj4b"]], 4)) == 107


def test_new_identities_degree3():
    rep = new_identities([TEMPLATES["f"], TEMPLATES["wa"]], 3)
    assert rep["kernel_dim"] == 5
    assert rep["consequence_dim"] == 5
    assert rep["new_dim"] == 0
    assert rep["representatives"] == []


def renaming_maps(n):
    """The degree-n magmatic basis, its index, and the column maps of
    all n! renamings of x1..xn."""
    basis = magmatic_basis(n)
    index = {t: i for i, t in enumerate(basis)}
    names = [f"x{i}" for i in range(1, n + 1)]
    return basis, index, [renaming_colmap(basis, index, dict(zip(names, pp)))
                          for pp in itertools.permutations(names)]


def trial_loop_new_identities(known, n):
    """Oracle for new_identities' greedy choice: in each round, copy the
    span R of the consequences and the winners' orbits, insert the whole
    orbit of each candidate's residue into the copy and read off the
    dimension gain; the first largest gain wins, its orbit joins R, and
    its residue modulo the earlier winners' orbits alone, divided by the
    gcd of its coefficients, is reported.  Returns the report and, per
    round, R before it (its pivot rows) and every candidate's gain."""
    basis, index, maps = renaming_maps(n)
    mat = expansion_matrix(n)
    kb = kernel_basis(mat.transpose())
    kdim = len(kb)
    cons = consequence_span(known, n)
    red, chosen = SpanReducer(), SpanReducer()
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
                best = (gains[-1], residue, v)
        rounds.append((dict(red.pivot_rows), gains))
        for ov in orbit(best[1]):
            red.insert(ov)
        rep = chosen.residue(best[2])
        content = math.gcd(*rep.values())
        reps.append(vec_to_poly({k: Fraction(c, content)
                                 for k, c in rep.items()}, basis))
        for ov in orbit(rep):
            chosen.insert(ov)
    report = {"kernel_dim": kdim, "consequence_dim": len(cons),
              "new_dim": len(reps), "representatives": reps}
    return report, rounds, kb


def grow_on_top(n, vectors, caps, spans):
    """``symmetric.grow`` on top of a copy of the per-λ ``spans``, which
    are not changed: each copy takes the rows of rho_λ(v), v in
    ``vectors``, until it reaches its cap."""
    out = []
    for k, rep in enumerate(irreps(n)):
        red = SpanReducer()
        red.pivot_rows = dict(spans[k].pivot_rows)
        for v in vectors:
            if red.dim >= caps[k]:
                break
            for row in rep.rows(v):
                if red.insert(row) and red.dim >= caps[k]:
                    break
        out.append(red)
    return out


def copy_on_top_gains(spans, vectors, n, caps):
    """Each vector's gain over the per-λ ``spans``:
    sum_λ d_λ (rank [R_λ; rho_λ(v)] - rank R_λ), rho_λ(v) inserted into
    a copy of R_λ."""
    dim = dimension(n, spans)
    return [dimension(n, grow_on_top(n, [_to_int_row(v)], caps, spans))
            - dim for v in vectors]


def orbit_gains(pivot_rows, kb, n):
    """Every candidate's gain, from the span with the given pivot rows,
    with R_λ built here from the span's own rows."""
    _, caps = kernel_multiplicities(n)
    spans = grow(n, list(pivot_rows.values()), caps)
    assert dimension(n, spans) == len(pivot_rows)
    return copy_on_top_gains(spans, kb, n, caps)


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


def case_ids(cases):
    return [f"{n}-{'+'.join(k) or 'none'}" for k, n in cases]


GAIN_CASES = [(("f", "wa"), 3), ((), 3), (("f",), 3), (KNOWN4, 4),
              (("f", "wa"), 4)]


@pytest.mark.parametrize("names,n", GAIN_CASES,
                         ids=case_ids(GAIN_CASES))
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


def scored_gains(known, n):
    """The report of new_identities(known, n) and, per round, the
    (candidate, gain) pairs of every candidate it scores, in order,
    recorded from ``Quotient``: a candidate's rows are built once, and
    ``add`` ends a round."""
    rounds, owner = [[]], {}
    rows, gain, add = Quotient.rows, Quotient.gain, Quotient.add

    def recording_rows(self, v):
        out = rows(self, v)
        owner[id(out)] = v
        return out

    def recording_gain(self, x):
        rounds[-1].append((owner[id(x)], gain(self, x)))
        return rounds[-1][-1][1]

    def recording_add(self, x):
        add(self, x)
        rounds.append([])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Quotient, "rows", recording_rows)
        mp.setattr(Quotient, "gain", recording_gain)
        mp.setattr(Quotient, "add", recording_add)
        report = new_identities(known, n)
    return report, rounds[:-1]


@pytest.mark.parametrize("names,n", GAIN_CASES,
                         ids=case_ids(GAIN_CASES))
def test_null_space_gains_equal_orbit_gains(names, n):
    """Every gain the scan reads in null-space coordinates, in every
    round, is the candidate's gain over the direct span R of that round
    (the consequences and the orbits of the representatives so far)."""
    known = [TEMPLATES[name] for name in names]
    report, rounds = scored_gains(known, n)
    assert len(rounds) == report["new_dim"]
    spans = direct_spans(known, n, report["representatives"])
    for pivot_rows, scored in zip(spans, rounds):
        vectors, gains = zip(*scored)
        assert orbit_gains(pivot_rows, vectors, n) == list(gains)


def test_null_space_gains_equal_orbit_gains_at_degree5():
    """The first 100 gains of the first round at degree 5, where R is the
    consequences of f, wa, hbar and ibar (1,573 of 1,659), its R_λ those
    of ``consequences_per_lambda``."""
    known = [TEMPLATES[name] for name in KNOWN4]
    report, rounds = scored_gains(known, 5)
    assert (report["consequence_dim"], report["new_dim"]) == (1573, 2)
    vectors, gains = zip(*rounds[0][:100])
    _, caps = kernel_multiplicities(5)
    spans = consequences_per_lambda(known, 5, caps)
    assert copy_on_top_gains(spans, vectors, 5, caps) == list(gains)


VALID_CASES = GAIN_CASES + [(("f",), 4), (("wa",), 4), ((), 4)]


@pytest.mark.parametrize("names,n", VALID_CASES,
                         ids=case_ids(VALID_CASES))
def test_new_identities_representatives_are_valid(names, n):
    """Each representative is a primitive identity, there is one whenever
    the consequences fall short of the kernel, and with the known
    identities the representatives close the kernel."""
    known = [TEMPLATES[name] for name in names]
    rep = new_identities(known, n)
    if rep["consequence_dim"] < rep["kernel_dim"]:
        assert rep["representatives"]
    for poly in rep["representatives"]:
        assert not expand(poly)
        coeffs = list(poly.terms.values())
        assert all(c.denominator == 1 for c in coeffs)
        assert math.gcd(*map(int, coeffs)) == 1
    closed = new_identities(known + rep["representatives"], n)
    assert closed["new_dim"] == 0
    assert closed["consequence_dim"] == rep["kernel_dim"]


@pytest.mark.parametrize("names,n,bound", [
    (*case, bound) for case, bound in zip(VALID_CASES,
                                          (0, 2, 1, 2, 2, 5, 2, 5))],
    ids=case_ids(VALID_CASES))
def test_greedy_count_meets_the_lower_bound(names, n, bound):
    """QS_n is split semisimple and holds λ d_λ times, so a module that g
    vectors generate holds λ at most g d_λ times, and K/R needs at least
    max_λ ceil(gap_λ / d_λ) generators, gap_λ = m_λ(K) - dim R_λ.  The
    greedy count meets that bound in each of these cases."""
    known = [TEMPLATES[name] for name in names]
    _, caps = kernel_multiplicities(n)
    spans = consequences_per_lambda(known, n, caps)
    assert max(-(-(cap - red.dim) // rep.dim) for cap, red, rep
               in zip(caps, spans, irreps(n))) == bound
    assert new_identities(known, n)["new_dim"] == bound


def dims(report):
    return (report["kernel_dim"], report["consequence_dim"],
            report["new_dim"], report["representatives"])


def test_closed_scans_never_build_the_direct_span(monkeypatch):
    """The scan never builds the direct consequence span: not when the
    per-irreducible dimension of the consequences reaches the kernel's,
    and not when a gap remains."""
    def refuse(*args):
        raise AssertionError("the direct consequence span was built")

    monkeypatch.setattr(identities, "_consequences", refuse)
    T = TEMPLATES
    six = [T[name] for name in KNOWN4 + ("conj4a", "conj4b")]
    assert dims(new_identities(six, 4)) == (107, 107, 0, [])
    assert dims(new_identities([T["f"], T["wa"]], 3)) == (5, 5, 0, [])
    for known, n, want in (([T[name] for name in KNOWN4], 4, (107, 92, 2)),
                           ([], 3, (5, 0, 2)), ([T["f"]], 4, (107, 20, 5))):
        assert dims(new_identities(known, n))[:3] == want


def test_closed_degree5_scan_never_eliminates_the_expansion_matrix(
        monkeypatch):
    """The six identities close the degree-5 kernel, and the kernel
    multiplicities are two ranks, of the 14 S_5-orbit sums and the 70
    S_4-orbit sums of the rows: no rref of the 1,680-row expansion
    matrix, nor of its transpose."""
    shapes = []
    eliminate = linalg.rref

    def recording(m):
        shapes.append((m.nrows, m.ncols))
        return eliminate(m)

    monkeypatch.setattr(linalg, "rref", recording)
    monkeypatch.setattr(identities, "rref", recording)
    six = [TEMPLATES[name] for name in KNOWN4 + ("conj4a", "conj4b")]
    assert dims(new_identities(six, 5)) == (1659, 1659, 0, [])
    assert shapes == [(14, 25), (70, 25)]


def per_round_dims(known, n):
    """The report of new_identities(known, n) and the per-irreducible
    dimension of R before each round and after the last: that of the
    consequences of ``known`` and the first k representatives, for
    k = 0, 1, ..., their number."""
    report = new_identities(known, n)
    _, caps = kernel_multiplicities(n)
    reps = report["representatives"]
    return report, [
        dimension(n, consequences_per_lambda(known + reps[:k], n, caps))
        for k in range(len(reps) + 1)]


def direct_spans(known, n, representatives):
    """Oracle: the pivot rows of consequence_span(known, n) plus the
    orbits of the first k representatives, for k = 0, 1, ..., their
    number."""
    _, index, maps = renaming_maps(n)
    red = SpanReducer()
    for v in consequence_span(known, n):
        red.insert(v)
    out = [dict(red.pivot_rows)]
    for poly in representatives:
        vec = poly_to_vec(poly, index)
        for m in maps:
            red.insert({m[i]: c for i, c in vec.items()})
        out.append(dict(red.pivot_rows))
    return out


def direct_dims(known, n, representatives):
    """Oracle: the rank of consequence_span(known, n) plus the orbits of
    the first k representatives, for k = 0, 1, ..., their number."""
    return [len(rows) for rows in direct_spans(known, n, representatives)]


@pytest.mark.parametrize("names,n", GAIN_CASES,
                         ids=case_ids(GAIN_CASES))
def test_per_irreducible_dimension_matches_the_direct_span(names, n):
    """Before each round and after the last, the per-irreducible dimension
    of R equals the rank of the direct consequence span plus the orbits
    of the representatives so far."""
    known = [TEMPLATES[name] for name in names]
    report, dims = per_round_dims(known, n)
    assert dims == direct_dims(known, n, report["representatives"])
    assert dims[0] == report["consequence_dim"]


def test_dropped_generator_breaks_the_per_irreducible_dimension(
        monkeypatch):
    """Per-irreducible spans that miss a module generator (here the first,
    hbar) read 91 where the direct span has 92, and the oracle of
    test_per_irreducible_dimension_matches_the_direct_span sees it."""
    grow_spans = identities.grow

    def drop_first_generator(n, vectors, caps):
        return grow_spans(n, vectors[1:], caps)

    monkeypatch.setattr(identities, "grow", drop_first_generator)
    known = [TEMPLATES[name] for name in KNOWN4]
    report, dims = per_round_dims(known, 4)
    want = direct_dims(known, 4, report["representatives"])
    assert report["consequence_dim"] == dims[0] == 91
    assert want[0] == 92


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


def test_criterion_makes_every_mutation_lie_admissible():
    """Criterion 11 for every algebra, not a sample: the Jacobiator of the
    commutator of x o y = (x p) y - (y q) x splits by the degrees of p
    and q into three parts, and each, polarized, is a T-ideal
    consequence of crit36 over the ordinary product (and is not 0)."""
    a, b, c, p, q = (TermPoly.var(n) for n in "abcpq")

    def circ(x, y):
        return mnode(mnode(x, p), y) - mnode(mnode(y, q), x)

    def comm(u, v):
        return circ(u, v) - circ(v, u)

    jacobiator = (comm(comm(a, b), c) + comm(comm(b, c), a)
                  + comm(comm(c, a), b))
    parts = {}
    for t, coeff in jacobiator.terms.items():
        degrees = term_vars(t)
        key = (degrees.get("p", 0), degrees.get("q", 0))
        parts[key] = parts.get(key, TermPoly.zero()) + TermPoly.term(t, coeff)
    assert {k: len(v.terms) for k, v in parts.items()} == \
        {(2, 0): 12, (1, 1): 24, (0, 2): 12}
    crit36 = [multilinearize(TEMPLATES["crit36"].body)]
    for part in map(multilinearize, parts.values()):
        assert tideal_membership(part, crit36, kind="m")
        assert not tideal_membership(part, [], kind="m")


def test_lie_admissibility_check_fails_for_a_wrong_criterion(monkeypatch):
    """verify.check_lie_admissibility compares terms, so against twice
    crit36 it fails and names the first Jacobiator part."""
    crit36 = TEMPLATES["crit36"]
    monkeypatch.setitem(verify.TEMPLATES, "crit36",
                        Template("crit36", crit36.slots, crit36.body.scale(2)))
    assert verify.check_lie_admissibility() == \
        (False, "Jacobiator part (2, 0) is not -crit36")


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
