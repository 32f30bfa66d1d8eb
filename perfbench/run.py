"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the ``mutperm`` package is
imported from ``src/`` beside this directory, and without it the run
fails with no result.

A pass runs each of the workload's units once (see workloads.py).  With
``--trace 0`` the units run in rounds for S seconds: the first round runs
all of them, later rounds the ones that still fit.  Between units, after
every second of unit time, the fixed reference computation of
reference.py runs.  A phase's time is the sum over its units of each
unit's mean time, scaled by REFERENCE_SECONDS over the run's mean
reference time, so that the machine's changes of speed, which slow the
reference as much as the units, cancel out; ``wall_s`` is the sum of
both phases.  ``setup_s`` is the median over fresh processes of the time
from process start to the end of input generation, scaled the same way,
and ``peak_rss_mb`` the peak resident memory of this process.

With ``--trace 1`` the units run untraced for S/2 seconds, then once more
with every layer function wrapped (see spans.py).  The run fails if a
layer the workload should reach recorded no call.  It reports the
per-layer metrics of the traced pass and ``trace.overhead_ratio``, the
traced pass's scaled time over the untraced pass's, and writes the spans
to ``.perfbench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_SECONDS, reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 10
REFERENCE_EVERY = 1.0     # seconds of units between two reference runs
COARSE_SPANS = ("identities.consequence_span", "mutation.verify_basis_B",
                "cli.main")


def import_program():
    """Import mutperm from this checkout's src/, or exit."""
    sys.path.insert(0, str(SRC))
    try:
        import mutperm
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mutperm from {SRC}: {exc}")
    if SRC not in Path(mutperm.__file__).resolve().parents:
        sys.exit(f"perfbench: mutperm imported from {mutperm.__file__}, "
                 f"not from {SRC}")


def measure(workload, tally, budget, tracer=None):
    """Run rounds of the workload's units.

    Returns ``(samples, refs)``: unit key -> list of seconds, and the
    seconds of each reference run.  Round 0 runs every unit.  Each later
    round runs the units whose last run still fits before ``budget``
    seconds are up, until none fits.  The reference runs before the
    first unit and then before a unit once a second of units has run
    since its last run.  With a tracer, one round runs, traced.
    """
    samples, refs = {}, []
    start = time.perf_counter()
    since_ref = REFERENCE_EVERY
    round_no = 0
    while True:
        ran = False
        for unit in workload.units:
            took = samples.get(unit.key)
            if took and time.perf_counter() - start + took[-1] > budget:
                continue
            if since_ref >= REFERENCE_EVERY:
                refs.append(reference())
                since_ref = 0.0
            work, check = unit.make(round_no)
            if tracer is not None:
                tracer.enter(f"phase.{unit.phase}")
            t0 = time.perf_counter()
            try:
                answer, error = work(), None
            except Exception as exc:     # a wrong answer, counted below
                answer, error = None, exc
            finally:
                secs = time.perf_counter() - t0
                if tracer is not None:
                    tracer.exit()
            samples.setdefault(unit.key, []).append(secs)
            since_ref += secs
            if error is None:
                check(answer, tally)
            else:
                tally.check(False, f"{unit.key}: {type(error).__name__}: "
                                   f"{error}")
            ran = True
        round_no += 1
        if not ran or tracer is not None:
            return samples, refs


def speed_scale(refs):
    """Factor that scales a time measured next to ``refs`` to the
    machine speed at which the reference takes REFERENCE_SECONDS."""
    return REFERENCE_SECONDS / statistics.fmean(refs)


def phase_seconds(workload, samples, scale=1.0):
    """Seconds per phase of one pass, each unit at its mean time, times
    ``scale``."""
    out = dict.fromkeys(workload.phases, 0.0)
    for unit in workload.units:
        out[unit.phase] += statistics.fmean(samples[unit.key]) * scale
    return out


def setup_seconds(workload, seed, runs):
    """Times, in fresh processes, from starting the process to the end of
    the workload's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(runs):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, check=True, capture_output=True,
                              text=True, timeout=120)
        times.append(float(proc.stdout) - t0)
    return times


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_run(cls, workload, tally, args):
    # half the set-ups before the passes and half after, so that a slow
    # spell of the machine does not cover all of them
    setups = setup_seconds(cls.name, args.seed, SETUP_RUNS // 2)
    samples, refs = measure(workload, tally, args.seconds)
    setups += setup_seconds(cls.name, args.seed, SETUP_RUNS - len(setups))
    scale = speed_scale(refs)
    phases = phase_seconds(workload, samples, scale)
    one, two = cls.phases
    metrics = {
        "wall_s": (phases[one] + phases[two], "s"),
        "phase1_s": (phases[one], "s"),
        "phase2_s": (phases[two], "s"),
        "setup_s": (statistics.median(setups) * scale, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    runs = [len(v) for v in samples.values()]
    print(f"# {cls.name} seed {args.seed}: {len(runs)} units run "
          f"{min(runs)} to {max(runs)} times; phase1 is {one}, phase2 is "
          f"{two}; set-up is the median of {SETUP_RUNS} processes")
    print(f"# {len(refs)} reference runs, mean {statistics.fmean(refs):.4f} s"
          f"; times are scaled by {scale:.4f}; unscaled wall "
          f"{sum(phase_seconds(workload, samples).values()):.4f} s, set-up "
          f"{statistics.median(setups):.4f} s")
    if cls.name == "cli-requests":
        latencies = [s for v in samples.values() for s in v]
        cuts = statistics.quantiles(latencies, n=100)
        beyond = sum(1 for x in latencies if x > cuts[98])
        print(f"# request latency (unscaled) over {len(latencies)} "
              f"requests: p50 {cuts[49] * 1e3:.3f} ms, p99 "
              f"{cuts[98] * 1e3:.3f} ms ({beyond} beyond p99)")
    return metrics


def traced_run(cls, workload, tally, args):
    from spans import Tracer, layer_metrics

    samples, refs = measure(workload, tally, args.seconds / 2)
    untraced = phase_seconds(workload, samples, speed_scale(refs))
    tracer = Tracer(coarse=COARSE_SPANS + tuple(f"phase.{p}"
                                                for p in cls.phases))
    tracer.install()
    try:
        samples, refs = measure(workload, tally, 0, tracer)
    finally:
        tracer.restore()
    traced = phase_seconds(workload, samples, speed_scale(refs))
    totals = tracer.by_name()
    missing = sorted(n for n in cls.expected_spans
                     if not totals.get(n, {}).get("calls"))
    if missing:
        sys.exit(f"perfbench: no calls recorded for {', '.join(missing)}")
    metrics = layer_metrics(totals)
    metrics["trace.overhead_ratio"] = (
        sum(traced.values()) / sum(untraced.values()), "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"trace-{cls.name}-seed{args.seed}.json"
    out.write_text(json.dumps(tracer.dump(), indent=1))
    print(f"# {cls.name} seed {args.seed}: one traced pass; spans in "
          f"{out.relative_to(ROOT)}")
    return metrics


def main(argv=None):
    import_program()
    from workloads import WORKLOADS, Tally

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=56)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    cls = WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed)
        print(time.monotonic())
        return 0

    workload = cls(args.seed)
    tally = Tally()

    if args.trace:
        metrics = traced_run(cls, workload, tally, args)
    else:
        metrics = timed_run(cls, workload, tally, args)
    for message in tally.messages:
        print(f"perfbench: wrong answer: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
