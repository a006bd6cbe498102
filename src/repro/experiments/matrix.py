"""The bit-identical differential matrix (88 pinned trials).

PR 5 verified its kernel rework by diffing a 68-trial matrix of full result
objects across both experiment families — but that diff lived offline.  This
module makes the matrix a *committed artifact*: :func:`matrix_trials` is the
fixed trial list, :func:`result_digest` canonicalises one result dataclass to
a sha256, and ``tests/data/disk_matrix_digests.json`` pins every digest.  A
pinned regression test re-runs the matrix on every tier-1 run, so any change
that perturbs even one byte of any existing disk-path result — a refactor, a
new device backend, a "pure mechanics" optimisation — fails loudly with the
exact trials that moved.

The matrix spans both families at deliberately small scale (seconds, not
minutes): single-collective patterns x methods x layouts x record sizes x
drive/IOP schedulers x seeds, and service streams covering arrivals, record
mixes, heavy-tailed sizes, write-heavy mixes, streaming mode, the admission
policies, and every fault scenario class.  Digests are over the *entire*
``asdict(result)`` payload — counters, sketches, fault envelopes — not just
headline numbers, so "bit-identical" means exactly that.

Regenerate (only when a model change is intended and understood)::

    PYTHONPATH=src python -m repro.experiments.matrix --write

Check (what the pinned test does)::

    PYTHONPATH=src python -m repro.experiments.matrix
"""

import argparse
import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_trial
from repro.experiments.service import service_config

#: Where the pinned digests live (committed; read by the regression test).
DIGEST_PATH = (Path(__file__).resolve().parents[3]
               / "tests" / "data" / "disk_matrix_digests.json")

#: Small-scale shapes shared across the matrix: big enough to exercise
#: multi-disk striping and real queueing, small enough that the whole
#: matrix runs in seconds inside the tier-1 suite.
_SINGLE = dict(n_cps=4, n_iops=2, n_disks=2, file_size=128 * 1024,
               layout="random", record_size=8192)
_SERVICE = dict(n_cps=2, n_iops=2, n_disks=2, n_requests=6, n_files=3,
                file_size=128 * 1024, concurrency=2)

_METHODS = ("disk-directed", "traditional-caching")


def _single(label, **overrides):
    fields = dict(_SINGLE)
    fields.update(overrides)
    return ExperimentConfig(label=label, **fields)


def _service(label, **overrides):
    fields = dict(_SERVICE)
    fields.update(overrides)
    return service_config(label=label, **fields)


def matrix_trials():
    """The fixed trial list: ``[(key, config, seed), ...]`` — 88 entries.

    Keys are human-readable (``label#s<seed>``) and stable: they name trials
    in the pinned JSON so a digest mismatch points at the exact trial that
    moved, not an opaque hash.  Append-only by convention — removing or
    reordering entries would silently shrink the differential's coverage.
    """
    trials = []

    def add(config, seed=1):
        trials.append((f"{config.label}#s{seed}", config, seed))

    # -- single-collective family ------------------------------------------
    # Pattern coverage x both methods: ALL, 1-D, 2-D, reads and writes.
    for pattern in ("ra", "rb", "rc", "rnb", "rcc", "wb", "wc", "wcb"):
        for method in _METHODS:
            add(_single(f"{method}:{pattern}", method=method, pattern=pattern))
    # Extra pattern corners, disk-directed only (TC shares the code paths).
    for pattern in ("rn", "rbb", "rcn", "wn", "wcc", "wbc"):
        add(_single(f"disk-directed:{pattern}", pattern=pattern))
    for pattern in ("rn", "wn"):
        add(_single(f"traditional-caching:{pattern}",
                    method="traditional-caching", pattern=pattern))
    # Contiguous layout (the paper's best case) x both methods, read + write.
    for method in _METHODS:
        for pattern in ("rb", "wb"):
            add(_single(f"{method}:{pattern}:contig", method=method,
                        pattern=pattern, layout="contiguous"))
    # Small records stress the per-record protocol paths.
    for method in _METHODS:
        add(_single(f"{method}:rb:rs1024", method=method, pattern="rb",
                    record_size=1024))
    # Drive-queue and cross-collective IOP scheduling policies.
    for scheduler in ("sstf", "cscan", "shared-cscan", "shared-fcfs"):
        add(_single(f"disk-directed:rb:{scheduler}", pattern="rb",
                    disk_scheduler=scheduler))
    add(_single("traditional-caching:rb:shared-cscan",
                method="traditional-caching", pattern="rb",
                disk_scheduler="shared-cscan"))
    # A second seed on the core cells: placement + rotation re-draw.
    for method in _METHODS:
        add(_single(f"{method}:rb", method=method, pattern="rb"), seed=2)
    add(_single("disk-directed:wb", pattern="wb"), seed=2)

    # -- service family ----------------------------------------------------
    # Arrival processes x both methods.
    for method in _METHODS:
        add(_service(f"svc:{method}:poisson", method=method,
                     arrival="poisson", arrival_rate=8.0))
        add(_service(f"svc:{method}:closed", method=method,
                     arrival="closed", think_time=0.01))
    # Closed loop with exponential think times.
    for method in _METHODS:
        add(_service(f"svc:{method}:expthink", method=method,
                     arrival="closed", think_time=0.02,
                     exponential_think=True))
    # The paper's 8-byte worst case mixed into the stream.
    for method in _METHODS:
        add(_service(f"svc:{method}:mix8", method=method,
                     record_sizes=(8, 8192)))
    # Heavy-tailed per-file sizes.
    for method in _METHODS:
        add(_service(f"svc:{method}:pareto", method=method,
                     size_distribution="pareto"))
    add(_service("svc:disk-directed:lognormal",
                 size_distribution="lognormal"))
    # Cross-collective shared elevators.
    for method in _METHODS:
        add(_service(f"svc:{method}:shared", method=method,
                     disk_scheduler="shared-cscan"))
    # Write-heavy and read-only mixes.
    for method in _METHODS:
        add(_service(f"svc:{method}:writes", method=method,
                     read_fraction=0.0))
    add(_service("svc:disk-directed:reads", read_fraction=1.0))
    # Constant-memory streaming mode (sketch-only percentiles).
    for method in _METHODS:
        add(_service(f"svc:{method}:streaming", method=method,
                     streaming=True))
    # Admission policies + the adaptive-K controller.
    add(_service("svc:disk-directed:sjf", admission_policy="sjf"))
    add(_service("svc:traditional-caching:sjf",
                 method="traditional-caching", admission_policy="sjf"))
    add(_service("svc:disk-directed:edf", admission_policy="edf",
                 deadline_slack=2.0))
    add(_service("svc:disk-directed:priority", admission_policy="priority",
                 priority_levels=2))
    add(_service("svc:disk-directed:controller",
                 target_p99=2.0, interval=0.25))
    # Every fault scenario class (deterministic per-(seed, disk) plans).
    for method in _METHODS:
        add(_service(f"svc:{method}:transient", method=method,
                     transient_rate=0.05))
    add(_service("svc:disk-directed:badrange", bad_range_count=1))
    add(_service("svc:disk-directed:failstop", fail_stop_disk=0,
                 fail_stop_time=0.05, on_fault="degrade"))
    add(_service("svc:disk-directed:failslow", slow_factor=4.0,
                 slow_disk=0, slow_start=0.0,
                 slow_duration=1.0))
    # A second seed on the core service cells.
    for method in _METHODS:
        add(_service(f"svc:{method}:poisson", method=method,
                     arrival="poisson", arrival_rate=8.0), seed=2)

    # -- parity redundancy + end-to-end integrity (appended; the 68 trials
    # above pin the redundancy="none" path bit-identical) ------------------
    # Declustered parity on the healthy path (parity needs >= 3 drives).
    for method in _METHODS:
        add(_single(f"{method}:rb:parity", method=method, pattern="rb",
                    n_disks=4, redundancy="parity"))
    add(_single("disk-directed:wb:parity", pattern="wb", n_disks=4,
                redundancy="parity"))
    # Fail-stop under parity: degraded reads + the online rebuild stream.
    for method in _METHODS:
        add(_service(f"svc:{method}:parity-failstop", method=method,
                     n_disks=4, redundancy="parity",
                     rebuild_bandwidth=2.0 * 1024 * 1024,
                     fail_stop_disk=0, fail_stop_time=0.05))
    # Silent corruption over the whole drive (sectors >= capacity pins the
    # range to the full LBN span): undetected, detected, detected+repaired.
    add(_service("svc:disk-directed:silent", silent_range_count=1,
                 silent_range_sectors=10 ** 9))
    add(_service("svc:disk-directed:silent-chk", silent_range_count=1,
                 silent_range_sectors=10 ** 9, checksums=True,
                 on_fault="degrade"))
    add(_service("svc:disk-directed:silent-chk-parity", n_disks=4,
                 redundancy="parity", checksums=True, silent_range_count=1,
                 silent_range_sectors=10 ** 9))
    # One corrupt drive only: clean survivors, so parity repairs every
    # detected read instead of giving the stripe up.
    add(_service("svc:disk-directed:silent-disk0-repair", n_disks=4,
                 redundancy="parity", checksums=True, silent_range_count=1,
                 silent_range_sectors=10 ** 9, silent_disk=0))

    # -- flash, the degraded array and one-block sessions (appended; the
    # 77 trials above pin every disk-backed cell) ---------------------------
    # The ssd backend on a single collective.
    for method in _METHODS:
        add(_single(f"{method}:rb:ssd", method=method, pattern="rb",
                    device="ssd"))
    # Every layer at once under load: flash, parity, checksums, a fail-slow
    # drive, silent corruption and the adaptive-K controller with shedding.
    for method in _METHODS:
        add(_service(f"svc:{method}:ssd-degraded", method=method,
                     device="ssd", n_cps=4, n_disks=6, n_requests=40,
                     n_files=8, file_size=64 * 1024,
                     size_distribution="pareto", max_file_size=256 * 1024,
                     concurrency=4, arrival_rate=20.0,
                     redundancy="parity", checksums=True,
                     slow_factor=4.0, slow_disk=1,
                     slow_duration=1e9, silent_range_count=1,
                     silent_range_sectors=10 ** 9, silent_disk=2,
                     target_p99=1.0, interval=0.5,
                     shed=True, shed_age=1.0))
    # One 8 KB block per session on four disks: the per-session fast path,
    # where most drives hold no block of the file.
    for method in _METHODS:
        add(_service(f"svc:{method}:oneblock", method=method, n_iops=1,
                     n_disks=4, n_requests=40, n_files=16, file_size=8192,
                     layout="contiguous", pattern_specs=("b",),
                     arrival_rate=30.0, concurrency=4))

    # Two-phase I/O shares traditional caching's completion path: a read
    # and a write collective, and a concurrent mixed stream.
    for pattern in ("rb", "wb"):
        add(_single(f"two-phase:{pattern}", method="two-phase",
                    pattern=pattern))
    add(_service("svc:two-phase:mixed", method="two-phase", n_requests=12,
                 read_fraction=0.5))

    # A retained open-loop backlog deeper than the 64-handler spawn window
    # (driver.STREAM_SPAWN_WINDOW): its records must survive the cursor.
    for method in _METHODS:
        add(_service(f"svc:{method}:backlog", method=method,
                     n_requests=100, arrival_rate=10000.0))

    keys = [key for key, _, _ in trials]
    if len(set(keys)) != len(keys):
        raise AssertionError("matrix trial keys must be unique")
    return trials


def result_digest(result):
    """Canonical sha256 over a result dataclass's *entire* payload.

    Same canonical-JSON form as the result cache (sorted keys, no
    whitespace); the result type participates so two families cannot
    collide.  Any float that differs in its last bit changes the digest —
    that is the point.
    """
    payload = asdict(result)
    payload["result_type"] = type(result).__name__
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_matrix(progress=None):
    """Run every matrix trial; returns ``{key: digest}`` in trial order."""
    digests = {}
    trials = matrix_trials()
    for index, (key, config, seed) in enumerate(trials):
        digests[key] = result_digest(run_trial(config, seed=seed))
        if progress is not None:
            progress(index, len(trials), key)
    return digests


def load_pinned(path=DIGEST_PATH):
    """The committed digests, ``{key: digest}``."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compare(current, pinned):
    """Human-readable mismatch lines (empty list == bit-identical)."""
    lines = []
    for key in pinned:
        if key not in current:
            lines.append(f"missing trial: {key}")
        elif current[key] != pinned[key]:
            lines.append(f"digest moved: {key}")
    for key in current:
        if key not in pinned:
            lines.append(f"unpinned trial: {key}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the pinned digest file in place "
                             "(only when a model change is intended)")
    parser.add_argument("--path", default=str(DIGEST_PATH),
                        help="digest file to write/check")
    args = parser.parse_args(argv)

    def progress(index, total, key):
        print(f"[{index + 1:2d}/{total}] {key}")

    digests = run_matrix(progress=progress)
    path = Path(args.path)
    if args.write:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(digests, handle, indent=1, sort_keys=False)
            handle.write("\n")
        print(f"wrote {len(digests)} digests to {path}")
        return 0
    mismatches = compare(digests, load_pinned(path))
    if mismatches:
        for line in mismatches:
            print(line)
        return 1
    print(f"all {len(digests)} trial digests bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
