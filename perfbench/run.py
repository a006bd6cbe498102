#!/usr/bin/env python3
"""The repository's benchmark: simulator speed and modelled I/O, per workload.

Run from the repository root::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload small_sessions --seed 7 --trace 1

One process, no worker pool, no threads.  A run warms up on a smoke-size
pass; with ``--trace 0`` it then measures peak memory in its own tracemalloc
pass.  It samples set-up time, then repeats passes (DDIO, then traditional
caching, on the same seeded inputs) for ``--seconds`` and at least once per
sub-seed.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it runs one more pass under cProfile and prints the per-layer
metrics.

Human-readable lines come first: every metric by name with its unit, the
sha256 digest of each method run's simulated outputs, and any failed output
check.  The spans and the full report are written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when an output check fails,
a digest does not repeat, or a method run raises.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import harness

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Set-up-only samples taken in addition to the set-up of every pass.
SETUP_SAMPLES = 9


def timed_passes(workload, seed, seconds, spans, smoke=False):
    """Passes for *seconds* of wall time, and at least one per sub-seed."""
    subs = harness.SUB_SEEDS[workload]
    passes = []
    start = time.perf_counter()
    while len(passes) < subs or time.perf_counter() - start < seconds:
        passes.append(harness.run_pass(workload, seed, spans,
                                       sub=len(passes) % subs, smoke=smoke))
    return passes


def digest_problems(passes, traced=None):
    """Sub-seeds whose digests differ between passes (and the traced pass)."""
    seen = {}
    problems = []
    for one in passes + ([traced] if traced is not None else []):
        expected = seen.setdefault(one.sub, one.digests)
        if one.digests != expected:
            problems.append(f"sub-seed {one.sub}: digest changed between "
                            f"passes of the same inputs")
    return problems


def run(workload, seed, seconds, trace, smoke=False):
    """One benchmark run; returns ``(correct, attempted, failed, metrics,
    report)`` where metrics map name -> (value, unit)."""
    spans = harness.Spans(run_id=f"{workload}-seed{seed}-trace{trace}")
    with spans.span("run"):
        with spans.span("warmup"):
            harness.run_pass(workload, seed, spans, smoke=True)
        if not trace:
            # Before the timed passes: the objects they keep alive make the
            # collector's full passes rarer, and the peak would then depend
            # on when uncollected cycles happened to pile up.
            peak = harness.peak_memory_mb(workload, seed, spans, smoke=smoke)
        samples = [harness.setup_only(workload, seed, spans, smoke=smoke)
                   for _ in range(SETUP_SAMPLES)]
        passes = timed_passes(workload, seed, seconds, spans, smoke=smoke)
        samples += [one.setup_s for one in passes]
        traced = None
        if trace:
            traced, self_s, counts = harness.traced_pass(workload, seed, spans,
                                                         smoke=smoke)
            untraced = statistics.median(
                one.run_s for one in passes if one.sub == 0)
            metrics = harness.per_layer(
                traced, untraced,
                statistics.median(one.create_file_s for one in passes),
                self_s, counts)
        else:
            metrics = harness.end_to_end(passes, samples, peak)
    with spans.span("report"):
        errors = sorted({error for one in passes for error in one.errors})
        if traced is not None:
            errors += traced.errors
        errors += digest_problems(passes, traced)
        attempted = sum(one.sessions for one in passes)
        failed = sum(one.failed for one in passes)
        correct = not errors and failed == 0
        first = {}
        for one in passes:
            first.setdefault(one.sub, one)
        report = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "passes": len(passes),
            "sub_seeds": harness.SUB_SEEDS[workload],
            "digests": {str(sub): one.digests for sub, one in first.items()},
            "errors": errors,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
    report["spans"] = spans.records
    return correct, attempted, failed, metrics, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: the same seed gives the same "
                             "inputs")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="wall seconds of passes to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a cProfile pass")
    parser.add_argument("--smoke", action="store_true",
                        help="smoke-size inputs (tests and quick checks)")
    args = parser.parse_args(argv)

    correct, attempted, failed, metrics, report = run(
        args.workload, args.seed, args.seconds, args.trace, smoke=args.smoke)

    print(f"{args.workload} seed {args.seed}: {report['passes']} passes over "
          f"{report['sub_seeds']} sub-seeds, {attempted} sessions, "
          f"{failed} failed")
    for sub, digests in report["digests"].items():
        for suffix, digest in digests.items():
            print(f"digest sub-seed {sub} {suffix}: {digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    for error in report["errors"]:
        print(f"CHECK FAILED: {error}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"report and spans: {path}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
