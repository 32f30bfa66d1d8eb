"""One-shot verification suite: every headline computation of the package
re-run from scratch, each as a named check with a pass/fail/skip status.

``run_all(limit)`` executes the checks whose maximum degree fits within
``limit`` and returns a list of result dicts; checks above the limit are
reported as skipped, never as failed.  The CLI's verify-paper subcommand
and the acceptance test suite both drive this module.
"""

from __future__ import annotations

import importlib.resources
import itertools
import math
import random
import time
from fractions import Fraction

from . import findim, speciality
from .identities import (consequence_span, expansion_matrix, identity_kernel,
                         magmatic_basis, new_identities, tideal_membership)
from .linalg import Matrix, kernel_basis, rref
from .mutation import (check_relations, enumerate_B, expand,
                       is_mutation_element, verify_basis_B)
from .perm import Elt, commutator, multilinear_monomials
from .terms import TEMPLATES, TermPoly, bnode, mnode, multilinearize


def _v(name):
    return TermPoly.var(name)


def check_degree3_expansions():
    """The three canonical bracket expansions at low degree, rendered
    symbol for symbol."""
    p, q = Elt.gen("p"), Elt.gen("q")
    x1, x2, x3, x4 = (Elt.gen(f"x{i}") for i in range(1, 5))

    def com(a, b):
        return commutator(a, b)

    cases = [
        ("<<x1,x2>,x3>",
         expand(bnode(bnode(_v("x1"), _v("x2")), _v("x3"))),
         (p - q) * (p - q) * (x1 * x2 * x3) + p * q * (x1 * com(x2, x3))
         - q * q * (x2 * com(x1, x3))),
        ("<x1,<x2,x3>>",
         expand(bnode(_v("x1"), bnode(_v("x2"), _v("x3")))),
         (p - q) * (p - q) * (x1 * x2 * x3) + p * q * (x1 * com(x2, x3))
         + p * q * (x2 * com(x1, x3)) - q * q * (x2 * com(x1, x3))),
        ("<<x1,x2>,<x3,x4>>",
         expand(bnode(bnode(_v("x1"), _v("x2")),
                      bnode(_v("x3"), _v("x4")))),
         (p - q) * (p - q) * (p - q) * (x1 * x2 * x3 * x4)
         + (p - q) * p * q * (x1 * x2 * com(x3, x4))
         + (p - q) * p * q * (x1 * x3 * com(x2, x4))
         - (p - q) * q * q * (x2 * x3 * com(x1, x4))),
    ]
    for name, got, want in cases:
        if got != want or str(got) != str(want):
            return False, f"{name}: {got} != {want}"
    return True, "3 expansions match after canonical rendering"


def check_relations_suite():
    res = check_relations()
    return res["passed"], ("6 relations at (x1, x2, x3), so at every triple"
                           if res["passed"] else str(res["failures"][:2]))


def check_mutation_elements(max_degree=6, n_vars=6):
    cache = {}
    count = 0
    for b in enumerate_B(n_vars, max_degree):
        if b.family in ("B2", "B3"):
            count += 1
            if not is_mutation_element(b.value, _cache=cache):
                return False, f"{b.family}{b.data} rejected"
    return True, f"{count} spanning-set elements confirmed"


def check_basis_B(max_degree=5):
    expected = {3: 7, 4: 13, 5: 21}
    for n in range(3, max_degree + 1):
        closure = 5 if n == 5 else None
        rep = verify_basis_B(n, n, closure_degree=closure)
        ok = (rep["independent"] and rep["spans"]
              and rep["closed_under_bracket"]
              and rep["multilinear_dim"] == expected[n])
        if not ok:
            return False, f"n={n}: {rep}"
    return True, f"B verified for n=3..{max_degree}, dims 7/13/21"


def check_vanishing():
    T = TEMPLATES
    a, b, c, d = map(_v, "abcd")
    polys = [
        ("f", T["f"].body), ("ftilde", T["ftilde"].body),
        ("wa", T["wa"].body), ("flex", T["flex"].body),
        ("hbar", T["hbar"].body), ("ibar", T["ibar"].body),
        ("conj4a", T["conj4a"].body), ("conj4b", T["conj4b"].body),
        ("<circ,circ>", bnode(T["circ"].instantiate([a, b]),
                              T["circ"].instantiate([c, d]))),
        ("jordan", T["jordan"].body),
        ("jordan-linearized", multilinearize(T["jordan"].body)),
    ]
    for name, poly in polys:
        assignment = {v: Elt.gen(f"x{i + 1}")
                      for i, v in enumerate(sorted(poly.variables()))}
        val = expand(poly, assignment)
        if val:
            return False, f"{name} expands to {val}"
    # circ(a, b) = (p + q)[a, b]
    pq = Elt.gen("p") + Elt.gen("q")
    x, y = Elt.gen("x1"), Elt.gen("x2")
    circ = expand(T["circ"].instantiate(["x1", "x2"]))
    if circ != pq * commutator(x, y):
        return False, "circ != (p+q)[x,y]"
    return True, f"{len(polys)} identities expand to 0; circ = (p+q)[x,y]"


PAPER_MATRIX_3 = [
    [0, 0, 0, 0, 0, 0, 1, -1, -1, 1, 1, -1],
    [0, 0, 0, 0, 0, 0, -1, 1, 1, -1, -1, 1],
    [0, 0, 0, 0, 0, 0, -1, 1, 1, -1, -1, 1],
    [0, 0, 0, 0, 0, 0, 1, -1, -1, 1, 1, -1],
    [0, 0, 0, 0, 0, 0, 1, -1, -1, 1, 1, -1],
    [0, 0, 0, 0, 0, 0, -1, 1, 1, -1, -1, 1],
    [0, 0, 0, -1, -1, 1, 0, 0, 0, 1, 1, -1],
    [0, 0, -1, 1, 0, -1, 0, 0, 1, -1, 0, 1],
    [0, -1, 0, 0, 1, -1, 0, 1, 0, 0, -1, 1],
    [-1, 1, 0, 0, -1, 0, 1, -1, 0, 0, 1, 0],
    [-1, 0, 1, -1, 0, 0, 1, 0, -1, 1, 0, 0],
    [1, -1, -1, 0, 0, 0, -1, 1, 1, 0, 0, 0],
]


def permutation_matrix_deg3():
    """The 12 x 12 coefficient matrix of all variable permutations of f
    and wa over the degree-3 magmatic column order."""
    basis = magmatic_basis(3)
    index = {t: i for i, t in enumerate(basis)}
    names = ["x1", "x2", "x3"]
    rows = []
    for tname in ("f", "wa"):
        t = TEMPLATES[tname]
        for perm in itertools.permutations(names):
            poly = t.instantiate(list(perm))
            rows.append({index[m]: c for m, c in poly.terms.items()})
    return Matrix(rows, len(basis))


def check_degree3_theorem():
    mat = permutation_matrix_deg3()
    _, rank = rref(mat)
    if rank != 5:
        return False, f"permutation matrix rank {rank} != 5"
    # same row span as the literature's fixed matrix (ours lists the f
    # rows first; the span comparison is order-free)
    ref = Matrix([{j: Fraction(c) for j, c in enumerate(row) if c}
                  for row in PAPER_MATRIX_3], 12)
    if rref(ref) != rref(mat):
        return False, "row span differs from the reference 12x12 matrix"
    kern = identity_kernel(3)
    if len(kern) != 5:
        return False, f"kernel dim {len(kern)} != 5"
    cons = consequence_span([TEMPLATES["f"], TEMPLATES["wa"]], 3)
    if len(cons) != 5:
        return False, f"consequence dim {len(cons)} != 5"
    rep = new_identities([TEMPLATES["f"], TEMPLATES["wa"]], 3)
    if rep["new_dim"] != 0:
        return False, f"new_dim {rep['new_dim']} != 0"
    return True, "rank 5, kernel 5, consequences close it, nothing new"


def _prop35():
    source = importlib.resources.files("mutperm.data") / "prop35.alg"
    with source.open() as fh:
        return findim.load_algebra(fh)


def check_counterexample_algebra():
    a = _prop35()
    ok_f, _ = findim.satisfies(a, TEMPLATES["f"])
    if not ok_f:
        return False, "3-dim algebra fails f"
    ok_wa, witness = findim.satisfies(a, TEMPLATES["wa"])
    if ok_wa:
        return False, "3-dim algebra unexpectedly satisfies wa"
    val = findim.evaluate(
        a, TEMPLATES["wa"].instantiate(["u", "u", "w"]),
        {"u": a.basis(0), "w": a.basis(2)})
    if val != [Fraction(-1), Fraction(0), Fraction(0)]:
        return False, f"wa(e1,e1,e3) = {a.vec_str(val)} != -e1"
    # structural identity between the templates themselves
    T = TEMPLATES
    z, y, x = map(_v, "zyx")
    combo = (T["wa"].instantiate([z, y, x]) - T["wa"].instantiate([z, x, y])
             - T["f"].instantiate([z, y, x]))
    if T["ftilde"].instantiate([x, y, z]) != combo:
        return False, "ftilde != wa(z,y,x) - wa(z,x,y) - f(z,y,x)"
    return True, "satisfies f, fails wa at (e1,e1,e3) = -e1; ftilde decomposes"


def check_degree4_new_identities():
    T = TEMPLATES
    four = [T["f"], T["wa"], T["hbar"], T["ibar"]]
    rep = new_identities(four, 4)
    if rep["new_dim"] != 2:
        return False, f"new_dim {rep['new_dim']} != 2 (cons {rep['consequence_dim']})"
    rep6 = new_identities(four + [T["conj4a"], T["conj4b"]], 4)
    if rep6["new_dim"] != 0 or rep6["consequence_dim"] != rep6["kernel_dim"]:
        return False, f"six identities leave new_dim {rep6['new_dim']}"
    return True, (f"2 new generators at degree 4 "
                  f"(span {rep['consequence_dim']} of {rep['kernel_dim']}); "
                  f"all six close the kernel")


def check_degree5_closure():
    T = TEMPLATES
    six = [T["f"], T["wa"], T["hbar"], T["ibar"], T["conj4a"], T["conj4b"]]
    mat = expansion_matrix(5)
    _, rank = rref(mat)
    kdim = mat.nrows - rank
    cons = consequence_span(six, 5, cap=kdim)
    if len(cons) != kdim:
        return False, f"consequences span {len(cons)} of kernel {kdim}"
    return True, f"six identities span the full degree-5 kernel (dim {kdim})"


def check_cohn():
    req, target = speciality.paper_instance()
    rep = speciality.cohn_check(req, target)
    ok = (rep["in_perm_ideal"] and not rep["in_mutation_ideal"]
          and rep["system"].nrows == 12 and len(rep["unknowns"]) == 4
          and rep["verdict"] == "exceptional image certified")
    if not ok:
        return False, f"verdict {rep['verdict']!r}, {rep['system'].nrows} eqs"
    # the membership witness behind in_perm_ideal, as an exact identity
    f1, f2 = (expand(g) for g in req.generators)
    lhs = expand(target)
    rhs = ((Elt.gen("x1") * Elt.gen("p")) * f1
           - (Elt.gen("x4") * Elt.gen("q")) * f2)
    if lhs != rhs:
        return False, "perm-side membership identity fails"
    return True, "12-equation system inconsistent; exceptional image certified"


def criterion_satisfying_samples(rng, count):
    """Random algebras satisfying the Lie-admissibility criterion, built
    by change of basis from tables known to satisfy it."""
    zero2 = findim.FiniteAlgebra(2)
    bicomm = findim.FiniteAlgebra(2)
    bicomm.table[0][0][1] = Fraction(1)
    comm3 = findim.FiniteAlgebra(3)   # e1 idempotent, otherwise zero
    comm3.table[0][0][0] = Fraction(1)
    catalog = [bicomm, comm3, zero2]
    out = []
    while len(out) < count:
        base = catalog[len(out) % len(catalog)]
        s = [[Fraction(rng.randint(-2, 2)) for _ in range(base.dim)]
             for _ in range(base.dim)]
        try:
            out.append(findim.change_of_basis(base, s))
        except ValueError:
            continue
    return out


def check_lie_admissibility(samples=20, seed=11):
    rng = random.Random(seed)
    points = 0
    for a in criterion_satisfying_samples(rng, samples):
        ok, w = findim.lie_admissible_criterion(a)
        if not ok:
            return False, f"sample not criterion-satisfying: {w}"
        ok, w = findim.mutations_lie_admissible(a)
        if not ok:
            p, q, triple = w
            return False, f"jacobi fails at p={p}, q={q}, triple {triple}"
        points += math.comb(2 * a.dim + 2, 2)
    # the criterion identity is itself a consequence of bicommutativity
    a, b, c = map(_v, "abc")
    bicomm_ids = [mnode(mnode(a, b), c) - mnode(mnode(a, c), b),
                  mnode(a, mnode(b, c)) - mnode(b, mnode(a, c))]
    target = multilinearize(TEMPLATES["crit36"].body)
    if not tideal_membership(target, bicomm_ids, kind="m"):
        return False, "criterion does not follow from bicommutativity"
    return True, (f"{samples} algebras: every mutation Lie-admissible "
                  f"(proved on {points} lattice mutations, degree <= 2); "
                  f"criterion follows from bicommutativity")


def check_infrastructure(seed=3):
    for n in range(1, 7):
        if len(multilinear_monomials(n)) != n:
            return False, f"multilinear perm dim at n={n}"
    if len(magmatic_basis(3)) != 12 or len(magmatic_basis(4)) != 120:
        return False, "magmatic basis counts"
    rng = random.Random(seed)
    for trial in range(100):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [{j: Fraction(rng.randint(-3, 3))
                 for j in range(ncols) if rng.random() < 0.6}
                for _ in range(nrows)]
        m = Matrix(rows, ncols)
        ech, rank = rref(m)
        ech2, rank2 = rref(ech)
        if ech2 != ech or rank2 != rank:
            return False, f"rref not idempotent (trial {trial})"
        if rank + len(kernel_basis(m)) != ncols:
            return False, f"rank-nullity fails (trial {trial})"
    return True, "perm dims, magmatic counts, 100 random rref checks"


CHECKS = [
    ("degree3-expansions", 3, check_degree3_expansions),
    ("bracket-relations", 3, check_relations_suite),
    ("mutation-elements", 6, check_mutation_elements),
    ("basis-B", 5, check_basis_B),
    ("vanishing-identities", 4, check_vanishing),
    ("degree3-identities", 3, check_degree3_theorem),
    ("counterexample-algebra", 3, check_counterexample_algebra),
    ("degree4-new-identities", 4, check_degree4_new_identities),
    ("degree5-closure", 5, check_degree5_closure),
    ("cohn-certificate", 4, check_cohn),
    ("lie-admissibility", 5, check_lie_admissibility),
    ("infrastructure", 4, check_infrastructure),
]


def run_all(limit=6, names=None):
    """Run the verification checks; returns a list of result dicts."""
    results = []
    for name, min_degree, fn in CHECKS:
        if names is not None and name not in names:
            continue
        if min_degree > limit:
            results.append({"name": name, "status": "skipped",
                            "detail": f"needs degree {min_degree} > "
                                      f"limit {limit}", "seconds": 0.0})
            continue
        t0 = time.monotonic()
        try:
            ok, detail = fn()
        except Exception as exc:          # surfaced, never swallowed
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": name,
                        "status": "passed" if ok else "failed",
                        "detail": detail,
                        "seconds": round(time.monotonic() - t0, 3)})
    return results
