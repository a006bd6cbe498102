"""A streaming service run holds O(1) memory in its session count.

The constant-memory driver (``retain_requests=False``) folds each session
into sketches and totals as it completes, so its traced allocation peak
must not grow with the number of sessions.  Ten times the sessions may
cost a little more (sketch buckets, a longer calendar tail) but nothing
like the per-session records, response-time arrays or handler leaks an
O(n) regression brings back: those cost hundreds of bytes per session,
i.e. several times the whole 200-session peak at 2,000 sessions.

Same workload as the legacy ``benchmarks/perf_memory.py`` gate, at a scale
that fits tier-1 (~4 s for the pair on a 2-vCPU host).

What a run holds before its first session is gated here too: building the
``degraded_array`` benchmark's machine keeps state for the flash blocks and
file placements it touches, not for whole devices.
"""

import gc
import tracemalloc

from repro.machine import MachineConfig
from repro.workload import ServiceWorkload, run_service
from repro.workload.driver import build_service_machine

#: One 8 KB record per session, deep overload, a tiny machine: per-session
#: simulation cost is minimal, so driver-side growth is what the peak shows.
WORKLOAD = dict(arrival="poisson", arrival_rate=5000.0, concurrency=8,
                n_files=8, file_size=8 * 1024, layout="contiguous",
                read_fraction=0.7, pattern_specs=("b",), record_size=8192,
                seed=0)
MACHINE = MachineConfig(n_cps=2, n_iops=1, n_disks=2)

#: The 2,000-session peak may exceed the 200-session one by at most this
#: factor (measured: ~1.1-1.2x on a 2-vCPU x86-64 host, Python 3.11).
SHAPE_FACTOR = 2.0


def streaming_peak(sessions):
    """Traced allocation peak, bytes, of one streaming run."""
    workload = ServiceWorkload(n_requests=sessions, **WORKLOAD)
    gc.collect()
    tracemalloc.start()
    try:
        result = run_service("traditional", workload, machine_config=MACHINE,
                             retain_requests=False)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.conserves_bytes()
    assert result.aggregates["completed"] == sessions
    return peak


def test_streaming_peak_does_not_grow_with_sessions():
    streaming_peak(50)      # warm-up: imports, plan memos, first allocations
    small = streaming_peak(200)
    large = streaming_peak(2000)
    assert large <= SHAPE_FACTOR * small, (
        f"peak grew from {small / 1e3:.0f} KB (200 sessions) to "
        f"{large / 1e3:.0f} KB (2,000 sessions): the streaming driver is "
        f"no longer O(1)")


#: The ``degraded_array`` benchmark's machine and files: flash, parity,
#: checksums and 256 Pareto-sized random-layout files over 6 drives.
DEGRADED_ARRAY = ServiceWorkload(
    n_requests=80, arrival="poisson", arrival_rate=22.0, concurrency=4,
    n_files=256, file_size=64 * 1024, layout="random", read_fraction=0.5,
    pattern_specs=("b", "c"), record_size=8192, size_distribution="pareto",
    size_alpha=1.5, max_file_size=256 * 1024)

#: Traced bytes a degraded-array build may hold (measured: 1.78 MB on
#: x86-64, Python 3.11; 8.55 MB when every FTL built state for all its
#: erase blocks and every placement kept its generator).
BUILD_CEILING_MB = 3.5


def build_degraded_array():
    return build_service_machine(
        DEGRADED_ARRAY, machine_config=MachineConfig(
            n_cps=4, n_iops=2, n_disks=6),
        seed=7, device="ssd", redundancy="parity", checksums=True)


def test_a_degraded_array_build_holds_what_its_files_touch():
    build_degraded_array()  # warm-up: imports and first-use caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build_degraded_array()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(built[2]) == DEGRADED_ARRAY.n_files
    assert held <= BUILD_CEILING_MB * 2 ** 20, (
        f"the build holds {held / 2 ** 20:.2f} MB")
