"""The two benchmark workloads: seeded inputs, timed units, oracles.

A workload is built from a seed (its set-up) and is a list of units.
A unit is one timed piece of work in one of the workload's two phases,
and ``unit.make(round_no)`` returns ``(work, check)``: ``work()`` is what
gets timed, ``check(answer, tally)`` compares its answer with an oracle
that does not call the code under test.  A pass runs every unit once.
No unit takes more than about 3 s, so that every unit runs several times
in a run and its fastest run can be taken (see run.py):

* paper-checks -- phase 1 (identities) the degree-4 new-identity
  reports, the degree-5 identity kernel and a degree-5 closure; phase 2
  (basis) verify_basis_B and membership queries, one cache per band of
  degrees;
* cli-requests -- one closed-loop client calling ``mutperm.cli.main``
  in-process, one request per command-line example of the README;
  phase 1 (symbolic) holds expand, identities and cohn, phase 2 (findim)
  the findim requests, which run no perm, mutation, linalg or identities
  code.

Library functions are always reached through their module
(``mutation.expand``, not a name imported here), so that the tracer's
wrappers see every call.  ``tiny=True`` selects the sizes the
benchmark's own tests use; they reach every oracle path.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import random
import re
from fractions import Fraction
from pathlib import Path

from mutperm import cli, findim, identities, linalg, mutation, perm, terms

HERE = Path(__file__).resolve().parent
PROP35 = Path(findim.__file__).resolve().parent / "data" / "prop35.alg"

Unit = collections.namedtuple("Unit", "key phase make")


class Tally:
    """Answers checked against an oracle, and the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def _fixed(work, check):
    """make() of a unit whose inputs are the same in every round."""
    return lambda round_no: (work, check)


def _rational(rng):
    """A random nonzero rational with small numerator and denominator."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _xs(n):
    return [f"x{i}" for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# paper-checks

KNOWN4 = ("f", "wa", "hbar", "ibar")
KNOWN6 = KNOWN4 + ("conj4a", "conj4b")

# (degree, known identities) -> (kernel, consequences, new generators):
# the counts the paper states.
REPORTS = {(3, ("f", "wa")): (5, 5, 0),
           (4, KNOWN4): (107, 92, 2),
           (4, KNOWN6): (107, 107, 0)}
# degree -> dimension of the identity kernel, as the paper states.
KERNELS = {4: 107, 5: 1659}
# (degree, identities) -> dimension of their consequence span.  At degree
# 4 the six close the kernel (paper); the degree-5 value was computed with
# the code this benchmark was written against.
CLOSURES = {(4, KNOWN6): 107, (5, ("f", "conj4b")): 1039}
# (variables, degree) -> dimension of the multilinear component, which
# is n + (n-1)^2 at degree n in n variables and empty below degree n.
BASES = {(3, 3): 7, (4, 4): 13, (5, 4): 0}


def _seeded(rng, names, reorder=True):
    """The named identities, each scaled by a random rational; with
    ``reorder``, also instantiated at a random permutation of its
    variables and shuffled."""
    polys = []
    for name in names:
        xs = _xs(terms.TEMPLATES[name].arity)
        if reorder:
            rng.shuffle(xs)
        polys.append(terms.TEMPLATES[name].instantiate(xs)
                     .scale(_rational(rng)))
    if reorder:
        rng.shuffle(polys)
    return polys


def _report_unit(degree, names, known):
    want = REPORTS[(degree, names)]

    def check(rep, tally):
        got = (rep["kernel_dim"], rep["consequence_dim"], rep["new_dim"])
        tally.check(got == want and len(rep["representatives"]) == got[2],
                    f"new_identities degree {degree} {names}: {got}")

    return Unit(f"report-{degree}-{len(names)}", "identities", _fixed(
        lambda: identities.new_identities(known, degree), check))


def _kernel_unit(n):
    def work():
        mat = identities.expansion_matrix(n)
        _, rank = linalg.rref(mat)
        return mat.nrows - rank

    def check(kdim, tally):
        tally.check(kdim == KERNELS[n], f"degree-{n} kernel: {kdim}")

    return Unit(f"kernel-{n}", "identities", _fixed(work, check))


def _closure_unit(n, names, known):
    def check(span, tally):
        tally.check(len(span) == CLOSURES[(n, names)],
                    f"degree-{n} closure of {names}: {len(span)}")

    return Unit(f"closure-{n}", "identities", _fixed(
        lambda: identities.consequence_span(known, n), check))


def _partitions(n, largest=None):
    """Partitions of n into at most five parts, largest part first."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            if len(rest) < 5:
                yield (k,) + rest


def _tree(rng, letters):
    if len(letters) == 1:
        return ("v", letters[0])
    k = rng.randint(1, len(letters) - 1)
    return ("b", _tree(rng, letters[:k]), _tree(rng, letters[k:]))


def _member(rng, degree, letters=None):
    poly = {}
    for _ in range(rng.randint(1, 3)):
        word = letters or [f"x{rng.randint(1, 5)}" for _ in range(degree)]
        rng.shuffle(word)
        t = _tree(rng, list(word))
        poly[t] = poly.get(t, 0) + _rational(rng)
    return mutation.expand(terms.TermPoly(poly))


def _non_member(rng, pattern):
    letters = [x for x, m in zip(rng.sample(_xs(5), len(pattern)), pattern)
               for _ in range(m)]
    degree = len(letters)
    params = [rng.choice("pq") for _ in range(degree - 1)]
    mono = (tuple(sorted(letters + params[:-1], key=perm.gkey)), params[-1])
    return (_member(rng, degree, letters)
            + perm.Elt.monomial(mono, _rational(rng)))


def _basis_unit(n, d):
    def check(rep, tally):
        tally.check(rep["independent"] and rep["spans"]
                    and rep["closed_under_bracket"]
                    and rep["multilinear_dim"] == BASES[(n, d)],
                    f"verify_basis_B({n}, {d}): {rep}")

    return Unit(f"basis-{n}-{d}", "basis", _fixed(
        lambda: mutation.verify_basis_B(n, d, closure_degree=d), check))


def _membership_unit(band, queries):
    def work():
        cache = {}
        return [mutation.is_mutation_element(e, _cache=cache)
                for e, _ in queries]

    def check(answers, tally):
        for (e, want), got in zip(queries, answers):
            tally.check(got is want, f"is_mutation_element({e}) = {got}")

    return Unit(f"membership-{'-'.join(map(str, band))}", "basis",
                _fixed(work, check))


class PaperChecks:
    """The paper's computations through the library API.

    Phase 1 (identities): ``new_identities`` at degree 4 with f, wa, hbar,
    ibar and with all six known identities; the degree-5 identity kernel
    (``expansion_matrix(5)`` and ``rref``); the degree-5 consequence span
    of f and conj4b.  For the reports the seed shuffles the known
    identities, instantiates each at a random permutation of its
    variables and scales it by a random rational; the answers do not
    depend on this, the order of span insertions does.  The closure's
    identities keep their order and variables and are only scaled, which
    the span reducer normalises away.

    Phase 2 (basis): ``verify_basis_B`` for (3,3), (4,4), (5,4), then
    membership queries.  Members are expansions of random bracket
    polynomials over x1..x5 (letters may repeat).  A non-member is a
    member plus a multiple of a correctly graded perm monomial whose tail
    is p or q: the bracket <u,v> = (up)v - (vq)u takes every tail from u
    or v, so no mutation element has a monomial with a parameter tail.
    """

    name = "paper-checks"
    phases = ("identities", "basis")
    expected_spans = {
        "identities.new_identities", "identities.expansion_matrix",
        "identities.consequence_span", "linalg.rref", "linalg.kernel_basis",
        "linalg.SpanReducer.insert", "linalg.SpanReducer.residue",
        "linalg.SpanReducer.contains", "terms.substitute",
        "mutation.verify_basis_B", "mutation.is_mutation_element",
        "mutation.expand", "mutation.bracket_monomials", "perm.bracket",
        "perm.Elt.mul"}

    def __init__(self, seed, tiny=False):
        rng = random.Random(seed)
        if tiny:
            reports, kernel, closure = [(3, ("f", "wa")), (4, KNOWN4)], 4, \
                (4, KNOWN6)
            bases, members, per_pattern, max_deg = [(3, 3)], 12, 1, 4
        else:
            reports, kernel, closure = [(4, KNOWN4), (4, KNOWN6)], 5, \
                (5, ("f", "conj4b"))
            bases, members, per_pattern, max_deg = list(BASES), 120, 2, 6
        self.units = [_report_unit(d, names, _seeded(rng, names))
                      for d, names in reports]
        self.units.append(_kernel_unit(kernel))
        self.units.append(_closure_unit(
            *closure, _seeded(rng, closure[1], reorder=False)))
        self.units += [_basis_unit(n, d) for n, d in bases]

        queries = []
        for _ in range(members):
            degree = rng.randint(3, max_deg)
            queries.append((degree, _member(rng, degree), True))
        # A non-member makes is_mutation_element expand every bracket
        # monomial of its multidegree, so its cost is set by the pattern of
        # letter multiplicities.  Every pattern of degree 3 to 5 gets the
        # same number of non-members; the seed picks the letters.
        queries += [(d, _non_member(rng, pattern), False)
                    for d in range(3, min(max_deg, 5) + 1)
                    for pattern in _partitions(d)
                    for _ in range(per_pattern)]
        rng.shuffle(queries)
        self.queries = [(e, want) for _, e, want in queries]
        # Every monomial of a query has the query's degree, and queries of
        # different degrees never share a cache entry; so one cache per
        # band of degrees does the same work as one shared cache, in units
        # small enough to run several times.
        for band in ((3, 4), (5,), (6,)):
            part = [(e, want) for d, e, want in queries if d in band]
            if part:
                self.units.append(_membership_unit(band, part))


# ---------------------------------------------------------------------------
# cli-requests

# One request per example of the README's command-line section (the same
# block is in PAPER.md), each sent once per round: nothing records how the
# tool is used, so every documented use weighs the same.  Left out are
# `identities --degree 4` (2 s, measured by paper-checks) and
# `verify-paper` (minutes).  The examples' algebra.alg is the bundled
# prop35.alg.  (request, phase)
REQUESTS = (("expand", "symbolic"), ("identities", "symbolic"),
            ("cohn", "symbolic"), ("findim-wa", "findim"),
            ("findim-criterion", "findim"), ("findim-jacobi", "findim"),
            ("findim-mutate", "findim"))

IDENTITIES_ARGV = ["identities", "--degree", "3", "--paper-order"]


def golden_requests():
    """The requests whose records are stored in golden_cli.json."""
    return [IDENTITIES_ARGV, ["cohn"]] + [
        ["findim", "prop35.alg", "--check", c]
        for c in ("wa", "criterion", "jacobi")]


def run_cli(argv):
    """Call the CLI in-process with --format record: (code, record)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--format", "record"] + argv)
    text = out.getvalue()
    return code, json.loads(text) if text else None


def _gen_order(g):
    if g == "p":
        return (1, 0)
    if g == "q":
        return (2, 0)
    return (0, int(g[1:]))


def parse_elt(text):
    """A rendered perm element as {(sorted prefix, tail): Fraction}."""
    if text == "0":
        return {}
    parts = re.split(r" ([+-]) ", text)
    sign = -1 if parts[0].startswith("-") else 1
    items = [(sign, parts[0].lstrip("-"))]
    items += [(1 if op == "+" else -1, t)
              for op, t in zip(parts[1::2], parts[2::2])]
    out = {}
    for s, t in items:
        words = t.split(" ")
        c = Fraction(1)
        if re.fullmatch(r"[0-9]+(/[0-9]+)?", words[0]):
            c, words = Fraction(words[0]), words[1:]
        out[(tuple(sorted(words[:-1], key=_gen_order)), words[-1])] = s * c
    return out


def bracket_value(tree):
    """Value of a bracket tree of variables (a name, or a pair of trees)
    in the free perm algebra, in the form parse_elt gives.

    <u,v> = (up)v - (vq)u, and as a perm algebra is associative and
    left-commutative, monomials multiply as (P, t)(Q, s) = (P + t + Q, s).
    """
    if isinstance(tree, str):
        return {((), tree): Fraction(1)}
    u, v = (bracket_value(t) for t in tree)
    out = collections.defaultdict(Fraction)
    for (pu, tu), cu in u.items():
        for (pv, tv), cv in v.items():
            out[(pu + (tu, "p") + pv, tv)] += cu * cv
            out[(pv + (tv, "q") + pu, tu)] -= cu * cv
    return {(tuple(sorted(prefix, key=_gen_order)), tail): c
            for (prefix, tail), c in out.items() if c}


def _mutation_table(doc, p, q):
    """Structure constants of (x p) y - (y q) x, from the file's entries."""
    dim = doc["dim"]
    table = {(i - 1, j - 1, k - 1): Fraction(c) for i, j, k, c in doc["table"]}

    def mul(x, y):
        out = [Fraction(0)] * dim
        for (i, j, k), c in table.items():
            out[k] += x[i] * y[j] * c
        return out

    def unit(i):
        return [Fraction(int(i == n)) for n in range(dim)]

    entries = set()
    for i in range(dim):
        for j in range(dim):
            left = mul(mul(unit(i), p), unit(j))
            right = mul(mul(unit(j), q), unit(i))
            for k in range(dim):
                c = left[k] - right[k]
                if c:
                    entries.add(f"{i + 1} {j + 1} {k + 1} {c}")
    return entries


class CliRequests:
    """Rounds of CLI requests, one of each kind in REQUESTS per round.

    The seed and the round number pick the variables and scale of the
    expand request and the vectors of the mutate request; the other
    requests are the documented ones.  ``expand`` is checked against
    bracket_value, ``findim --check mutate`` against a mutation table
    computed here, the other records against the paper's statements and
    against golden_cli.json, records of the same requests made with the
    code this benchmark was written against.  An expected "no" (exit code
    1) is a correct answer.
    """

    name = "cli-requests"
    phases = ("symbolic", "findim")
    expected_spans = {
        "cli.main", "terms.parse", "terms.render", "mutation.expand",
        "speciality.cohn_check", "linalg.solve", "linalg.rref",
        "identities.new_identities", "findim.satisfies", "findim.evaluate",
        "findim.FiniteAlgebra.mul", "findim.jacobi_test",
        "findim.mutation_algebra"}

    def __init__(self, seed, tiny=False):
        # one request of each kind is already the smallest run; ``tiny``
        # changes nothing
        self.seed = seed
        self.golden = json.loads((HERE / "golden_cli.json").read_text())
        self.prop35_doc = json.loads(PROP35.read_text())
        self.units = [Unit(kind, phase, self._maker(kind))
                      for kind, phase in REQUESTS]

    def _maker(self, kind):
        def make(round_no):
            rng = random.Random(f"{self.seed}:{kind}:{round_no}")
            argv, oracle = self._request(rng, kind)

            def check(answer, tally):
                code, rec = answer
                tally.check(code != 2 and rec is not None
                            and oracle(code, rec),
                            f"mutperm {' '.join(argv)} (exit code {code})")

            return (lambda: run_cli(argv)), check
        return make

    def _request(self, rng, kind):
        if kind == "expand":
            # the README's `expand "<<x1,x2>,x3>"`, renamed and scaled
            a, b, c = rng.sample(_xs(6), 3)
            scale = _rational(rng)
            want = {k: scale * v
                    for k, v in bracket_value(((a, b), c)).items()}
            return (["expand", "--", f"{scale}*(<<{a},{b}>,{c}>)"],
                    lambda code, rec: code == 0 and parse_elt(
                        rec["results"]["value"]) == want)
        if kind == "identities":
            return IDENTITIES_ARGV, self._golden(IDENTITIES_ARGV,
                                                 self._paper_deg3)
        if kind == "cohn":
            return ["cohn"], self._golden(["cohn"], self._paper_cohn)
        check = kind.split("-", 1)[1]
        if check == "mutate":
            p = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            q = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            want = _mutation_table(self.prop35_doc, p, q)
            return (["findim", str(PROP35), "--check", "mutate",
                     "--p=" + ",".join(map(str, p)),
                     "--q=" + ",".join(map(str, q))],
                    lambda code, rec: code == 0
                    and set(rec["results"]["table"]) == want)
        return (["findim", str(PROP35), "--check", check],
                self._golden(["findim", "prop35.alg", "--check", check],
                             self._paper_prop35))

    def _golden(self, key, paper):
        want = self.golden[" ".join(key)]
        return lambda code, rec: (code == want["code"]
                                  and rec["results"] == want["results"]
                                  and paper(code, rec))

    @staticmethod
    def _paper_deg3(code, rec):
        # the degree-3 kernel has dimension 5 and needs the two generators
        # f and wa
        r = rec["results"]
        return (r["kernel_dim"], r["consequence_dim"], r["new_dim"]) == (5, 0, 2)

    @staticmethod
    def _paper_cohn(code, rec):
        r = rec["results"]
        return (r["verdict"] == "exceptional image certified"
                and r["in_perm_ideal"] and not r["in_mutation_ideal"]
                and len(r["equations"]) == 12 and r["solution"] is None)

    @staticmethod
    def _paper_prop35(code, rec):
        # prop35 fails wa, with wa(e1,e1,e3) = -e1
        if rec["inputs"]["check"] != "wa":
            return True
        return code == 1 and rec["results"]["witness"] == [
            ["e1", "e1", "e3"], "-e1"]


WORKLOADS = {w.name: w for w in (PaperChecks, CliRequests)}
