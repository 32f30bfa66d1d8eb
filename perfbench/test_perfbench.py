"""Tests of the benchmark itself: tiny runs of every workload through every
oracle, the tracer's self-time arithmetic, wrapper installation and
removal, and the metric names against BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import reference
import run

run.import_program()

import mutperm  # noqa: E402
from mutperm import cli, identities, mutation, perm, terms  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import (WORKLOADS, CliRequests, PaperChecks,  # noqa: E402
                       Tally, Unit, bracket_value, parse_elt)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_a_nested_call():
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    inner1 = tracer.wrap("inner1", lambda: leaf())
    inner2 = tracer.wrap("inner2", lambda: None)

    def body():
        inner1()
        inner2()

    tracer.wrap("outer", body)()
    agg = tracer.agg
    # outer spans 0..10 with children inner1 (2..5) and inner2 (6..7)
    assert agg[("outer", None)] == {"calls": 1, "total_s": 10.0,
                                    "self_s": 6.0}
    assert agg[("inner1", "outer")] == {"calls": 1, "total_s": 3.0,
                                        "self_s": 2.0}
    assert agg[("leaf", "inner1")] == {"calls": 1, "total_s": 1.0,
                                       "self_s": 1.0}
    assert agg[("inner2", "outer")]["self_s"] == 1.0
    assert tracer.stack == []


def test_install_wraps_every_binding_and_restore_undoes_it():
    originals = (mutation.expand, perm.bracket, perm.Elt.__mul__,
                 terms.parse, cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        assert mutation.expand is not originals[0]
        # the same wrapper wherever the name is bound
        assert identities.expand is mutation.expand is mutperm.expand
        assert mutation.bracket is perm.bracket
        mutation.expand(terms.parse("<x1,x2>"))
    finally:
        tracer.restore()
    assert (mutation.expand, perm.bracket, perm.Elt.__mul__, terms.parse,
            cli.main) == originals
    assert identities.expand is originals[0]
    totals = tracer.by_name()
    assert totals["mutation.expand"]["calls"] == 1
    assert totals["mutation.expand"]["terms_out"] == 2
    assert totals["perm.bracket"]["calls"] == 1
    assert totals["terms.parse"]["calls"] == 1
    assert totals["perm.Elt.mul"]["mono_pairs"] > 0


def traced_pass(workload):
    tally = Tally()
    tracer = Tracer()
    tracer.install()
    try:
        samples, _ = run.measure(workload, tally, 0, tracer)
    finally:
        tracer.restore()
    return tally, samples, tracer.by_name()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_pass_is_correct_and_reaches_every_layer(name):
    cls = WORKLOADS[name]
    workload = cls(seed=3, tiny=True)
    tally, samples, totals = traced_pass(workload)
    assert tally.failed == 0, tally.messages
    assert tally.attempted >= len(workload.units)
    assert all(len(v) == 1 for v in samples.values())
    assert set(run.phase_seconds(workload, samples)) == set(cls.phases)
    assert {n for n in cls.expected_spans
            if not totals.get(n, {}).get("calls")} == set()


def test_paper_checks_records_no_findim_or_cli_calls():
    _, _, totals = traced_pass(PaperChecks(seed=3, tiny=True))
    assert not any(n.startswith(("findim.", "cli.")) for n in totals)


def test_rounds_repeat_units_that_fit_and_phases_take_the_scaled_mean():
    workload = CliRequests(seed=3, tiny=True)
    samples, refs = run.measure(workload, Tally(), 2.0)
    assert min(len(v) for v in samples.values()) >= 2
    # a reference run first, then one after each second of units
    assert 1 <= len(refs) <= 3
    scale = run.speed_scale(refs)
    assert scale == pytest.approx(
        reference.REFERENCE_SECONDS * len(refs) / sum(refs))
    phases = run.phase_seconds(workload, samples, scale)
    assert sum(phases.values()) == pytest.approx(
        scale * sum(sum(v) / len(v) for v in samples.values()))


def test_a_unit_that_raises_counts_as_a_wrong_answer():
    boom = Unit("boom", "p", lambda round_no: ((lambda: 1 / 0), None))
    workload = type("Boom", (), {"units": [boom], "phases": ("p",)})
    tally = Tally()
    samples, _ = run.measure(workload, tally, 0)
    assert (tally.attempted, tally.failed, len(samples["boom"])) == (1, 1, 1)
    assert "ZeroDivisionError" in tally.messages[0]


def test_membership_oracle_counts_a_wrong_answer():
    workload = PaperChecks(seed=4, tiny=True)
    assert {want for _, want in workload.queries} == {True, False}
    work, check = next(u for u in workload.units
                       if u.key.startswith("membership")).make(0)
    answers = work()
    tally = Tally()
    check([not answers[0]] + answers[1:], tally)
    assert (tally.attempted, tally.failed) == (len(answers), 1)


def test_cli_oracles_reject_wrong_records():
    workload = CliRequests(seed=5, tiny=True)
    wrong = (0, {"results": {"value": "x1 p x2", "kernel_dim": 4,
                             "verdict": "no", "table": ["1 1 1 99"]},
                 "inputs": {"check": "f"}})
    for unit in workload.units:
        _, check = unit.make(0)
        tally = Tally()
        check(wrong, tally)
        assert tally.failed == 1, unit.key
    # an expected "no" is a correct answer, and only with exit code 1
    unit = next(u for u in workload.units if u.key == "findim-wa")
    work, check = unit.make(0)
    code, rec = work()
    tally = Tally()
    check((code, rec), tally)
    check((0, rec), tally)
    assert (code, tally.failed) == (1, 1)


def test_rendered_elements_parse():
    assert parse_elt("0") == {}
    assert parse_elt("-3/2 x2 q x1 + x1 p x2") == {
        (("x2", "q"), "x1"): -1.5, (("x1", "p"), "x2"): 1}


def test_bracket_oracle_matches_the_readme():
    assert bracket_value(("x1", "x2")) == parse_elt("-x2 q x1 + x1 p x2")
    left = bracket_value((("x1", "x2"), "x3"))
    right = bracket_value(("x1", ("x2", "x3")))
    diff = {k: left.get(k, 0) - right.get(k, 0) for k in {*left, *right}}
    assert {k: c for k, c in diff.items() if c} == parse_elt(
        "x2 x3 p q x1 - x1 x2 p q x3")


def test_inputs_depend_only_on_the_seed():
    def answers(seed):
        unit = next(u for u in CliRequests(seed).units if u.key == "expand")
        return [unit.make(r)[0]()[1]["results"] for r in range(3)]

    assert answers(7) == answers(7)
    assert answers(7) != answers(8)
    a, b = PaperChecks(9, tiny=True), PaperChecks(9, tiny=True)
    assert [(e.terms, w) for e, w in a.queries] == [(e.terms, w)
                                                   for e, w in b.queries]


def test_metric_names_match_benchmark_json():
    per_layer = set(layer_metrics({})) | {"trace.overhead_ratio"}
    assert per_layer == {m["name"] for m in SPEC["per_layer"]}
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "wall_s", "phase1_s", "phase2_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-requests",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
