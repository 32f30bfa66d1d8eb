"""The benchmark's layer contract on warm runs: after one untraced pass
of a workload, one traced pass must still record a call of every layer
the workload names in ``expected_spans``, as ``perfbench/run.py --trace 1``
requires after its untraced passes.  A result cached across calls would
leave such a layer uncalled once warm, which perfbench's own tiny test,
tracing a cold first pass, does not see.

    python -m pytest tests/test_perfbench_contract.py -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402

run.import_program()

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_warm_traced_pass_reaches_every_expected_layer(name):
    cls = WORKLOADS[name]
    workload = cls(seed=3, tiny=True)
    tally = Tally()
    run.measure(workload, tally, 0)
    tracer = Tracer(coarse=run.COARSE_SPANS + tuple(f"phase.{p}"
                                                    for p in cls.phases))
    tracer.install()
    try:
        run.measure(workload, tally, 0, tracer)
    finally:
        tracer.restore()
    assert tally.failed == 0, tally.messages
    totals = tracer.by_name()
    assert sorted(n for n in cls.expected_spans
                  if not totals.get(n, {}).get("calls")) == []
