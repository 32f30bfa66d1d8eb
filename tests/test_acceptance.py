"""End-to-end acceptance suite: one test per headline result, each with a
wall-clock budget.  Every test prints a single PASS/FAIL line so a plain
``pytest -s tests/test_acceptance.py`` reads as a checklist."""

import pytest

from mutperm.verify import run_all

BUDGETS = {
    "degree3-expansions": 1,
    "bracket-relations": 1,
    "mutation-elements": 1,
    "basis-B": 1,
    "vanishing-identities": 0.5,
    "degree3-identities": 1,
    "counterexample-algebra": 1,
    "degree4-new-identities": 0.25,
    "degree5-closure": 1.2,
    "cohn-certificate": 0.5,
    "lie-admissibility": 0.2,
    "infrastructure": 1,
}

DETAILS = {
    "degree3-expansions":
        "3 expansions match after canonical rendering",
    "bracket-relations":
        "6 relations at (x1, x2, x3), so at every triple",
    "mutation-elements":
        "10766 spanning-set elements confirmed",
    "basis-B":
        "B verified for n=3..5, dims 7/13/21",
    "vanishing-identities":
        "11 identities expand to 0; circ = (p+q)[x,y]",
    "degree3-identities":
        "rank 5, kernel 5, consequences close it, nothing new",
    "counterexample-algebra":
        "satisfies f, fails wa at (e1,e1,e3) = -e1; ftilde decomposes",
    "degree4-new-identities":
        "2 new generators at degree 4 (span 92 of 107); all six close the "
        "kernel",
    "degree5-closure":
        "six identities span the full degree-5 kernel (dim 1659)",
    "cohn-certificate":
        "12-equation system inconsistent; exceptional image certified",
    "lie-admissibility":
        "every algebra: every mutation Lie-admissible (Jacobiator parts "
        "(2,0)/(1,1)/(0,2), 12/24/12 terms, each equal -crit36 polarized); "
        "criterion follows from bicommutativity",
    "infrastructure":
        "perm dims, magmatic counts, 100 random rref checks",
}

CRITERIA = [
    ("degree3-expansions", "criterion 1: low-degree bracket expansions"),
    ("bracket-relations", "criterion 2: the six bracket relations"),
    ("mutation-elements", "criterion 3: spanning-set elements are mutation "
                          "elements up to degree 6"),
    ("basis-B", "criterion 4: B is an independent spanning bracket-closed "
                "set, dims 7/13/21"),
    ("vanishing-identities", "criterion 5: all named identities expand "
                             "to zero"),
    ("degree3-identities", "criterion 6: degree-3 identities all follow "
                           "from f and wa (rank 5)"),
    ("counterexample-algebra", "criterion 7: 3-dim algebra separates f "
                               "from wa"),
    ("degree4-new-identities", "criterion 8: exactly 2 new generator "
                               "identities at degree 4"),
    ("degree5-closure", "criterion 9: the six identities close the "
                        "degree-5 kernel"),
    ("cohn-certificate", "criterion 10: exceptional homomorphic image "
                         "certified"),
    ("lie-admissibility", "criterion 11: an algebra satisfies crit36 iff "
                          "every mutation is Lie-admissible"),
    ("infrastructure", "criterion 12: dimensions, counts and linear "
                       "algebra self-checks"),
]


def _run(name, label):
    (result,) = run_all(limit=6, names=[name])
    status = "PASS" if result["status"] == "passed" else "FAIL"
    print(f"{status} {label} [{result['seconds']}s] -- {result['detail']}")
    assert result["status"] == "passed", result["detail"]
    assert result["detail"] == DETAILS[name]
    assert result["seconds"] <= BUDGETS[name], \
        f"{name} exceeded {BUDGETS[name]}s budget ({result['seconds']}s)"


@pytest.mark.parametrize("name,label", CRITERIA,
                         ids=[n for n, _ in CRITERIA])
def test_acceptance(name, label):
    _run(name, label)
