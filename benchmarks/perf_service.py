#!/usr/bin/env python
"""Benchmark of the service-style workload driver, tracked over time.

Runs the canonical service points — the default service-figure workload (32
mixed collectives over 16 random-layout 1 MB files, K=4) at saturation load,
DDIO vs traditional caching, plus a closed-loop point — and records both the
*simulated* sustained throughput (the model's result) and the *wall-clock*
cost of simulating it (the kernel's cost).  Appends to ``BENCH_service.json``
so both trajectories are visible across PRs.

Run from the repository root::

    python benchmarks/perf_service.py              # full run, appends a record
    python benchmarks/perf_service.py --smoke      # scaled-down CI smoke run

The headline check mirrors the service experiment's acceptance criterion:
disk-directed I/O must sustain higher throughput than traditional caching
under concurrent load (ddio_advantage > 1).
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.config import build_machine_config  # noqa: E402
from repro.experiments.service import (  # noqa: E402
    run_service_experiment,
    service_config,
)
from repro.workload import run_service  # noqa: E402

#: The canonical service points.  "smoke" variants are CI-sized.
CASES = {
    "poisson_saturation": dict(arrival="poisson", arrival_rate=8.0),
    "poisson_overload": dict(arrival="poisson", arrival_rate=16.0),
    "closed_loop_k4": dict(arrival="closed"),
}

SMOKE_OVERRIDES = dict(n_cps=4, n_iops=2, n_disks=2, n_requests=12,
                       n_files=8, file_size=128 * 1024, read_fraction=1.0,
                       arrival="closed", concurrency=4)

#: The 8-byte-record point: traditional caching's worst case (~100x costlier
#: to simulate than 8 KB records before the per-(CP, block) request batching
#: landed).  Tracked so BENCH_service.json shows the batching speedup:
#: the same point is also run with ``batch_requests=False`` (the one-event-
#: round-trip-per-record baseline) and the wall-clock ratio recorded.
EIGHT_BYTE_OVERRIDES = dict(n_cps=4, n_iops=2, n_disks=2, n_requests=4,
                            n_files=4, file_size=256 * 1024,
                            read_fraction=1.0, pattern_specs=("c",),
                            record_size=8, arrival="closed", concurrency=2,
                            layout="random")

EIGHT_BYTE_SMOKE_OVERRIDES = dict(EIGHT_BYTE_OVERRIDES, n_requests=2,
                                  file_size=64 * 1024)


def run_case(overrides, seed=3, trials=2):
    """Mean simulated throughput and total wall seconds per method."""
    out = {}
    for method in ("disk-directed", "traditional"):
        throughputs = []
        start = time.perf_counter()
        for trial in range(trials):
            config = service_config(method=method, seed=seed, **overrides)
            result = run_service_experiment(config, seed=seed + trial)
            if not result.conserves_bytes():
                raise AssertionError(
                    f"byte conservation violated for {method} {overrides}")
            throughputs.append(result.throughput_mb)
        wall = time.perf_counter() - start
        key = "ddio" if method == "disk-directed" else "tc"
        out[f"{key}_throughput_mb"] = round(
            sum(throughputs) / len(throughputs), 3)
        out[f"{key}_wall_s"] = round(wall, 3)
    out["ddio_advantage"] = round(
        out["ddio_throughput_mb"] / out["tc_throughput_mb"], 3)
    return out


def run_eight_byte_case(overrides, seed=3, trials=1):
    """The 8-byte-record point, batched vs the unbatched simulator baseline.

    Returns the usual per-method throughput/wall fields plus
    ``tc_unbatched_wall_s`` and ``batching_speedup`` (unbatched wall over
    batched wall for the traditional-caching runs — the acceptance criterion
    is >= 5x).
    """
    out = run_case(overrides, seed=seed, trials=trials)
    config = service_config(method="traditional", seed=seed, **overrides)
    start = time.perf_counter()
    for trial in range(trials):
        result = run_service(
            "traditional", config.workload,
            machine_config=build_machine_config(config), seed=seed + trial,
            disk_scheduler=config.disk_scheduler, batch_requests=False)
        if not result.conserves_bytes():
            raise AssertionError("byte conservation violated (unbatched)")
    out["tc_unbatched_wall_s"] = round(time.perf_counter() - start, 3)
    out["batching_speedup"] = round(
        out["tc_unbatched_wall_s"] / max(out["tc_wall_s"], 1e-9), 2)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: one scaled-down closed-loop point")
    parser.add_argument("--trials", type=int, default=2,
                        help="trials per data point (seeds seed..seed+t-1)")
    parser.add_argument("--seed", type=int, default=3, help="base trial seed")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_service.json",
                        help="trajectory file to append to")
    parser.add_argument("--label", type=str, default="",
                        help="free-form label recorded with this run")
    args = parser.parse_args(argv)

    cases = {"smoke_closed_loop": SMOKE_OVERRIDES} if args.smoke else CASES
    measurements = {}
    for name, overrides in cases.items():
        measurements[name] = run_case(overrides, seed=args.seed,
                                      trials=args.trials)
        point = measurements[name]
        print(f"  {name:22s} ddio {point['ddio_throughput_mb']:6.2f} MB/s "
              f"({point['ddio_wall_s']:.2f}s wall)  "
              f"tc {point['tc_throughput_mb']:6.2f} MB/s "
              f"({point['tc_wall_s']:.2f}s wall)  "
              f"advantage {point['ddio_advantage']:.2f}x")

    eight_byte = EIGHT_BYTE_SMOKE_OVERRIDES if args.smoke \
        else EIGHT_BYTE_OVERRIDES
    name = "eight_byte_records"
    measurements[name] = run_eight_byte_case(eight_byte, seed=args.seed,
                                             trials=1)
    point = measurements[name]
    print(f"  {name:22s} ddio {point['ddio_throughput_mb']:6.2f} MB/s "
          f"({point['ddio_wall_s']:.2f}s wall)  "
          f"tc {point['tc_throughput_mb']:6.2f} MB/s "
          f"({point['tc_wall_s']:.2f}s wall, unbatched "
          f"{point['tc_unbatched_wall_s']:.2f}s -> "
          f"{point['batching_speedup']:.1f}x)")

    record = {
        "label": args.label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "trials": args.trials,
        "smoke": args.smoke,
        "cases": measurements,
    }

    trajectory = {"schema": 1, "runs": []}
    if args.output.exists():
        try:
            existing = json.loads(args.output.read_text())
            if isinstance(existing.get("runs"), list):
                trajectory["runs"] = existing["runs"]
        except (json.JSONDecodeError, OSError):
            pass
    trajectory["runs"].append(record)
    args.output.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"wrote {args.output} ({len(trajectory['runs'])} run(s))")

    advantages = [point["ddio_advantage"] for point in measurements.values()]
    worst = min(advantages)
    status = "PASS" if worst > 1.0 else "BELOW TARGET"
    print(f"headline: DDIO advantage under concurrent load "
          f"{worst:.2f}x (worst case) [{status}]")
    return 0 if worst > 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
