import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mutperm
from mutperm import identities
from mutperm.cli import main
from mutperm.verify import _prop35
from mutperm.findim import dump_algebra
from mutperm.terms import parse, term_vars


@pytest.fixture
def prop35_file(tmp_path):
    path = tmp_path / "prop35.alg"
    path.write_text(dump_algebra(_prop35()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_bracket(capsys):
    code, out, _ = run(capsys, "expand", "<<x1,x2>,x3>")
    assert code == 0
    assert "x1 x2 p p x3" in out and "x2 x3 q q x1" in out


def test_expand_identity_is_zero(capsys):
    code, out, _ = run(capsys, "expand", "f(x1,x2,x3)")
    assert code == 0
    assert "value: 0" in out


def test_expand_single_variable(capsys):
    code, out, _ = run(capsys, "expand", "x1")
    assert code == 0 and "value: x1" in out


def test_expand_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "expand", "<x1,")
    assert code == 2 and "error:" in err


def test_identities_degree3(capsys):
    code, out, _ = run(capsys, "identities", "--degree", "3",
                       "--known", "f,wa")
    assert code == 0
    assert "kernel_dim: 5" in out and "new_dim: 0" in out


def test_identities_degree2_empty_kernel(capsys):
    code, out, _ = run(capsys, "identities", "--degree", "2")
    assert code == 0 and "kernel_dim: 0" in out


def test_identities_unknown_template(capsys):
    code, _, err = run(capsys, "identities", "--degree", "3",
                       "--known", "nosuch")
    assert code == 2 and "unknown template" in err


UNUSABLE = [
    ("jordan", "identity jordan is not multilinear; polarize it first"),
    ("f,crit36", "identity crit36 has product nodes; this scan uses brackets"),
]


@pytest.mark.parametrize("degree,known,reason", [
    pytest.param(degree, known, reason,
                 id=f"{known}-{reason}" if degree == "4" else f"6-{known}")
    for degree in ("4", "6") for known, reason in UNUSABLE])
def test_identities_unusable_known_identity_exits_2(capsys, monkeypatch,
                                                    degree, known, reason):
    """Refused before the expansion is built (degree 6 took seconds)."""
    def refuse(n):
        raise AssertionError(f"degree-{n} expansion built before the checks")

    monkeypatch.setattr(identities, "expansion_matrix", refuse)
    code, out, err = run(capsys, "identities", "--degree", degree,
                         "--known", known)
    assert code == 2 and out == ""
    assert err.strip().splitlines() == [f"error: {reason}"]


def test_identities_oversized_degree_exits_2(capsys):
    code, out, err = run(capsys, "identities", "--degree", "9")
    assert code == 2 and out == ""
    assert "518,918,400" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    huge = str(10**9)
    code, out, err = run(capsys, "identities", "--degree", huge)
    assert code == 2 and out == "" and "more than" in err


def test_identities_record_format_round_trips(capsys):
    code, out, _ = run(capsys, "--format", "record", "identities",
                       "--degree", "3", "--known", "f,wa")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "identities"
    assert doc["results"]["new_dim"] == 0


def test_identities_paper_order_matrix(capsys):
    code, out, _ = run(capsys, "identities", "--degree", "3",
                       "--known", "f,wa", "--paper-order")
    assert code == 0
    assert "permutation_matrix" in out
    assert "<x1,<x2,x3>>" in out


def test_consecutive_calls_share_no_state(capsys):
    """main builds its parser once; a flag or format given to one call
    must not carry over to the next."""
    code, out, _ = run(capsys, "identities", "--degree", "3",
                       "--paper-order")
    assert code == 0 and "permutation_matrix" in out
    code, out, _ = run(capsys, "identities", "--degree", "3")
    assert code == 0 and "permutation_matrix" not in out
    code, out, _ = run(capsys, "--format", "record", "expand", "<x1,x2>")
    assert code == 0 and json.loads(out)["command"] == "expand"
    code, out, _ = run(capsys, "expand", "<x1,x2>")
    assert code == 0 and out.startswith("# expand\n")


@pytest.mark.parametrize("degree", ["2", "4", "6"])
def test_identities_paper_order_outside_degree_3_exits_2(capsys, degree):
    """The matrix exists only at degree 3, so the flag is refused there
    before anything is built."""
    t0 = time.monotonic()
    code, out, err = run(capsys, "identities", "--degree", degree,
                         "--known", "f,wa", "--paper-order")
    assert time.monotonic() - t0 < 1
    assert code == 2 and out == ""
    assert "--paper-order" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_cohn_default(capsys):
    code, out, _ = run(capsys, "cohn")
    assert code == 0
    assert "exceptional image certified" in out
    assert out.count("lambda") > 4


def test_cohn_custom_generators_take_the_target_multidegree(capsys):
    code, out, err = run(capsys, "cohn", "--generators", "<<x1,x1>,x2>",
                         "--target", "<<<x1,x1>,x2>,x3>")
    assert code == 0 and not err
    assert "member of the mutation ideal" in out


def test_cohn_oversized_request_exits_2_before_enumerating(capsys):
    t0 = time.monotonic()
    code, out, err = run(capsys, "cohn", "--generators", "x1", "--target",
                         "<<<<<<x1,x2>,x3>,x4>,x5>,x6>,x7>")
    assert time.monotonic() - t0 < 1
    assert code == 2 and out == ""
    assert "46,080" in err and "30,240" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_findim_wa_fails_with_witness(capsys, prop35_file):
    code, out, _ = run(capsys, "findim", prop35_file, "--check", "wa")
    assert code == 1
    assert "verdict: no" in out and "e1" in out


def test_findim_f_passes(capsys, prop35_file):
    code, out, _ = run(capsys, "findim", prop35_file, "--check", "f")
    assert code == 0 and "verdict: yes" in out


def test_findim_mutate(capsys, prop35_file):
    code, out, _ = run(capsys, "findim", prop35_file, "--check", "mutate",
                       "--p", "1,0,0", "--q", "0,1,0")
    assert code == 0 and "table:" in out


def test_findim_template_check_on_the_mutation(capsys, prop35_file,
                                               tmp_path):
    from mutperm.findim import load_algebra, mutation_algebra

    p = q = "0,1,0"
    mutated = tmp_path / "mutated.alg"
    mutated.write_text(dump_algebra(mutation_algebra(
        load_algebra(prop35_file), [0, 1, 0], [0, 1, 0])))
    for check in ("f", "wa", "flex", "jordan"):
        code, out, _ = run(capsys, "--format", "record", "findim",
                           prop35_file, "--check", check, "--p", p,
                           "--q", q)
        rec = json.loads(out)
        assert rec["inputs"]["p"] == p and rec["inputs"]["q"] == q
        # a bracket identity of the mutation is an identity of its
        # product: the same verdict as the mutation algebra's own file
        code2, out2, _ = run(capsys, "--format", "record", "findim",
                             str(mutated), "--check", check)
        assert code == code2
        assert rec["results"]["verdict"] == \
            json.loads(out2)["results"]["verdict"]
    # wa fails on prop35 itself but holds on this mutation
    assert run(capsys, "findim", prop35_file, "--check", "wa")[0] == 1
    assert run(capsys, "findim", prop35_file, "--check", "wa", "--p", p,
               "--q", q)[0] == 0


@pytest.mark.parametrize("argv", [
    ("--check", "f", "--p", "1,0,0"),
    ("--check", "f", "--q", "0,1,0"),
    ("--check", "mutate", "--q", "0,1,0"),
    ("--check", "jacobi", "--p", "1,0,0", "--q", "0,1,0"),
    ("--check", "criterion", "--p", "1,0,0", "--q", "0,1,0"),
    ("--check", "f", "--p", "1,0", "--q", "0,1,0"),
    ("--check", "f", "--p", "1/0,0,0", "--q", "0,1,0"),
])
def test_findim_misused_p_q_exits_2(capsys, prop35_file, argv):
    code, out, err = run(capsys, "findim", prop35_file, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_findim_json_booleans_exit_2(capsys, tmp_path):
    path = tmp_path / "bools.alg"
    for doc, word in (({"dim": True, "table": [[True, True, True, "1"]]},
                       "'dim'"),
                      ({"dim": 1, "table": [[True, 1, 1, "1"]]}, "index i"),
                      ({"dim": 1, "table": [[1, 1, 1, True]]}, "bool"),
                      ([1, 2], "not an object"),
                      ({"dim": 2, "names": 5}, "'names'"),
                      ({"dim": 2, "table": 5}, "'table'"),
                      ({"dim": 1, "table": [[1, 1, 1, "1/0"]]}, "zero")):
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "findim", str(path), "--check", "f")
        assert code == 2 and out == "" and word in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_findim_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("{not json")
    code, _, err = run(capsys, "findim", str(bad), "--check", "f")
    assert code == 2 and "cannot load" in err


def _alg_file(tmp_path, table):
    path = tmp_path / "guarded.alg"
    path.write_text(json.dumps({"dim": 2, "names": ["e1", "e2"],
                                "table": table}))
    return str(path)


def test_findim_repeated_entry_exits_2(capsys, tmp_path):
    path = _alg_file(tmp_path, [[1, 2, 1, "1"], [2, 1, 1, "-1"],
                                [1, 2, 1, "3"]])
    code, out, err = run(capsys, "findim", path, "--check", "f")
    assert code == 2 and out == ""
    assert "repeats [1,2,1]" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_findim_float_coefficient_exits_2(capsys, tmp_path):
    path = _alg_file(tmp_path, [[1, 2, 1, 0.1]])
    code, out, err = run(capsys, "findim", path, "--check", "f")
    assert code == 2 and out == ""
    assert "float" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_findim_oversized_dim_exits_2(capsys, tmp_path):
    path = tmp_path / "huge.alg"
    path.write_text('{"dim": 2000, "table": []}')
    code, out, err = run(capsys, "findim", str(path), "--check", "f")
    assert code == 2 and out == ""
    assert "ceiling" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    # loadable, but crit36's value tables are too large at dim 10
    path.write_text('{"dim": 10, "table": []}')
    code, out, err = run(capsys, "findim", str(path), "--check", "criterion")
    assert code == 2 and out == "" and "coordinates" in err
    assert len(err.strip().splitlines()) == 1


def test_findim_unknown_check(capsys, prop35_file):
    code, _, err = run(capsys, "findim", prop35_file, "--check", "bogus")
    assert code == 2 and "unknown check" in err


def test_verify_paper_low_limit_skips(capsys):
    code, out, _ = run(capsys, "verify-paper", "--limit", "2")
    assert code == 0
    assert "skipped" in out and "failed" not in out.replace("0 failed", "")


def test_verify_paper_detects_corruption(capsys, monkeypatch):
    import mutperm.verify as verify

    def broken():
        return False, "deliberately corrupted"

    monkeypatch.setattr(
        verify, "CHECKS",
        [("degree3-expansions", 3, broken)] + verify.CHECKS[1:2])
    code, out, _ = run(capsys, "verify-paper", "--limit", "3")
    assert code == 1
    assert "degree3-expansions" in out and "failed" in out


def test_usage_error_exits_2(capsys):
    assert main(["identities"]) == 2   # missing --degree


def test_expand_deep_nesting_exits_2(capsys):
    expr = "<" * 1200 + "x1" + ",x2>" * 1200
    code, _, err = run(capsys, "expand", expr)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


# The degree-4 report for f, wa, hbar, ibar as the CLI records it: the
# kernel, the consequence span and the two new generators, rendered.
DEGREE4_RESULTS = {
    "kernel_dim": 107,
    "consequence_dim": 92,
    "new_dim": 2,
    "representatives": [
        ("<x1,<x3,<x2,x4>>> - <x1,<<x2,x3>,x4>> - <x2,<x3,<x4,x1>>> + "
         "<x2,<<x1,x3>,x4>> - <x3,<x1,<x2,x4>>> + <x3,<<x2,x4>,x1>>"),
        ("-2*<x1,<<x2,x3>,x4>> + 2*<x1,<<x3,x4>,x2>> - <x1,<<x4,x2>,x3>> + "
         "2*<x1,<<x4,x3>,x2>> + 2*<x2,<<x1,x3>,x4>> - <x2,<<x3,x4>,x1>> - "
         "<x2,<<x4,x1>,x3>> - 2*<x3,<<x1,x4>,x2>> + <x3,<<x2,x1>,x4>> + "
         "<x3,<<x2,x4>,x1>> + <x3,<<x4,x1>,x2>> - <x3,<<x4,x2>,x1>> - "
         "<x4,<x3,<x1,x2>>> + 2*<x4,<x3,<x2,x1>>> + <x4,<<x1,x2>,x3>> - "
         "2*<x4,<<x1,x3>,x2>> + <x4,<<x2,x1>,x3>> - <x4,<<x3,x2>,x1>> - "
         "<<x1,x2>,<x3,x4>>"),
    ],
}


def test_identities_degree4_record_is_pinned(capsys):
    code, out, _ = run(capsys, "--format", "record", "identities",
                       "--degree", "4", "--known", "f,wa,hbar,ibar")
    assert code == 0
    assert json.loads(out)["results"] == DEGREE4_RESULTS


def test_identities_degree5_closure_record_is_pinned(capsys):
    code, out, _ = run(capsys, "--format", "record", "identities",
                       "--degree", "5", "--known",
                       "f,wa,hbar,ibar,conj4a,conj4b")
    assert code == 0
    assert json.loads(out)["results"] == {
        "kernel_dim": 1659, "consequence_dim": 1659, "new_dim": 0,
        "representatives": []}


def _limit_memory():
    # about 1 GB of address space, so that a runaway request fails fast
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_child(*argv):
    """The CLI in a child process, with a time limit and a memory limit:
    a request that regresses to a hang fails the test in seconds."""
    src = str(Path(mutperm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "mutperm.cli", *argv],
                          capture_output=True, text=True, timeout=20,
                          env=dict(os.environ, PYTHONPATH=path),
                          preexec_fn=_limit_memory)


# sha256 of the sorted-key JSON of the results below
DEGREE5_GAP_DIGEST = (
    "2469c39499e8de480ae88048913d20ebc02681d44cd6ef58ba86288087b66334")


def test_identities_degree5_gap_record_is_pinned():
    """The degree-5 scan that leaves a gap of 86 answers in a child
    process under its time limit, with the same two generators."""
    r = run_child("--format", "record", "identities", "--degree", "5",
                  "--known", "f,wa,hbar,ibar")
    assert r.returncode == 0, r.stderr
    results = json.loads(r.stdout)["results"]
    assert (results["kernel_dim"], results["consequence_dim"],
            results["new_dim"]) == (1659, 1573, 2)
    assert [len(parse(p).terms)
            for p in results["representatives"]] == [13, 240]
    digest = hashlib.sha256(
        json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == DEGREE5_GAP_DIGEST


def _balanced(k):
    """A balanced bracket of k copies of (x1+x2+x3+x4): 4^k trees."""
    if k == 1:
        return "(x1+x2+x3+x4)"
    return f"<{_balanced(k // 2)},{_balanced(k - k // 2)}>"


SUM10 = "+".join(f"x{i}" for i in range(1, 11))


@pytest.mark.parametrize("argv", [
    ("expand", _balanced(8)),
    ("expand", f"crit36({SUM10},{SUM10},{SUM10},{SUM10})"),
    ("cohn", "--generators", "0", "--target", "<x1,x2>"),
    ("cohn", "--generators", "<x1,x2>-<x1,x2>", "--target", "<<x1,x2>,x3>"),
    ("cohn", "--target", "<<x2,x3>,<x1,x4>>+<x1,x2>"),
    ("identities", "--degree", "6"),
    ("identities", "--degree", "6", "--known",
     "f,wa,hbar,ibar,conj4a,conj4b"),
], ids=["balanced-8", "crit36-of-10-term-sums", "zero-generator",
        "cancelling-generator", "target-not-multihomogeneous",
        "identities-degree-6", "identities-degree-6-six-known"])
def test_hostile_request_exits_2_in_a_child(argv):
    r = run_child(*argv)
    assert r.returncode == 2 and r.stdout == ""
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


# m missing letters with multiplicities c_x give 2^m m!/prod c_x! words
@pytest.mark.parametrize("argv,words", [
    (("--generators", "<x2,x3>-<x3,x2>"), 2 ** 2 * math.factorial(2)),
    (("--generators", "<<x2,x3>,x4>", "<<x2,x3>,x1>", "--target",
      "<<x2,x3>,<x1,x4>>-<<x3,x2>,<x1,x4>>"), 2 * 2),
])
def test_cohn_reads_the_multidegree_of_one_term(argv, words):
    r = run_child("--format", "record", "cohn", *argv)
    assert r.returncode == 0, r.stderr
    got = json.loads(r.stdout)["results"]["unknown_words"]
    assert len(got) == words
    once = dict.fromkeys(["x1", "x2", "x3", "x4"], 1)
    assert all(term_vars(t) == once for w in got for t in parse(w).terms)
