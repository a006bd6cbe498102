"""Workloads, passes, output checks and layer attribution of the benchmark.

One *pass* runs a workload once under disk-directed I/O and then under
traditional caching, on the same seeded inputs.  A pass splits host time into
set-up (building machines, file systems, files, file-system objects and
drivers) and the run phase (``CollectiveFileSystem.transfer`` /
``ServiceDriver.run``), checks the simulated outputs, reads the public
counters the layers keep, and digests the simulated results.  Nothing here
hooks into ``src/``: set-up and run are timed around public calls, and the
per-layer split of host time comes from ``cProfile`` in a separate traced
pass (see :func:`attribute_profile`).

The benchmark's seed is turned into trial seeds here; ``repro`` only ever
sees a trial seed and the generated configs.  A run cycles through a fixed
number of *sub-seeds* per workload (:data:`SUB_SEEDS`) and pools the
simulated statistics over them, so the ``sim_*`` metrics of one ``--seed``
are exact and repeatable while resting on several independent trials.
"""

import cProfile
import gc
import hashlib
import json
import os
import pstats
import signal
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import make_filesystem  # noqa: E402
from repro.disk.faults import FaultConfig  # noqa: E402
from repro.experiments.config import MEGABYTE, ExperimentConfig  # noqa: E402
from repro.experiments.runner import build_machine_config  # noqa: E402
from repro.fs import FileSystem  # noqa: E402
from repro.machine import Machine, MachineConfig  # noqa: E402
from repro.patterns import make_pattern  # noqa: E402
from repro.workload import ServiceDriver, ServiceWorkload  # noqa: E402
from repro.workload.admission import ControllerConfig  # noqa: E402
from repro.workload.aggregate import QuantileSketch  # noqa: E402
from repro.workload.driver import build_service_machine  # noqa: E402

MB = float(2 ** 20)
KB = 1024

#: (suffix, method name) in the order every pass runs them.
METHODS = (("ddio", "disk-directed"), ("tc", "traditional"))

#: Wall-clock seconds one method run may take before the benchmark's own
#: watchdog (SIGALRM, outside the simulator's hot loop) counts it as failed.
WATCHDOG_S = 120


# -- workloads -----------------------------------------------------------------

def trial_seed(workload, seed, sub, index=0):
    """The trial seed ``repro`` receives: a pure function of the inputs."""
    text = f"{workload}:{seed}:{sub}:{index}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


PAPER_PATTERNS = ("rb", "rc", "rn", "rcc", "wb", "wc", "wn", "wcb")
PAPER_LAYOUTS = ("random", "contiguous")


def paper_grid(seed, sub=0, smoke=False):
    """One collective at a time on the Table 1 machine: 8 patterns x 2 layouts.

    Each entry is ``(label, trial seed, {suffix: ExperimentConfig})``; both
    methods run a (pattern, layout) cell with the same trial seed, so they see
    the same random-blocks placement and platter positions.
    """
    file_size = MEGABYTE if smoke else 10 * MEGABYTE
    cells = []
    for index, (layout, pattern) in enumerate(
            (layout, pattern) for layout in PAPER_LAYOUTS
            for pattern in PAPER_PATTERNS):
        configs = {suffix: ExperimentConfig(
            method=method, pattern=pattern, layout=layout, record_size=8192,
            file_size=file_size) for suffix, method in METHODS}
        cells.append((f"{pattern}/{layout}",
                      trial_seed("paper_grid", seed, sub, index), configs))
    return cells


def small_sessions(seed, sub=0, smoke=False):
    """Per-session overhead: one 8 KB record per session, far from saturation.

    32 one-block files (256 KB) are twice the 128 KB IOP cache, so traditional
    caching's median session still reaches a drive.
    """
    return {
        "seed": trial_seed("small_sessions", seed, sub),
        "workload": ServiceWorkload(
            n_requests=120 if smoke else 500, arrival="poisson",
            arrival_rate=30.0, concurrency=8, n_files=32, file_size=8 * KB,
            layout="contiguous", read_fraction=0.7, pattern_specs=("b",),
            record_size=8192),
        "machine": MachineConfig(n_cps=2, n_iops=1, n_disks=4),
        "build": {},
        "driver": {"retain_requests": False},
    }


def degraded_array(seed, sub=0, smoke=False):
    """Flash + parity + checksums + faults under the adaptive-K controller.

    22 sessions/s is past saturation, so the controller and its shedding hold
    the queue; at a lighter load the tail depends on a few giant Pareto
    sessions and moves by more than half between seeds.
    """
    return {
        "seed": trial_seed("degraded_array", seed, sub),
        "workload": ServiceWorkload(
            n_requests=80 if smoke else 1200, arrival="poisson",
            arrival_rate=22.0, concurrency=4, n_files=256,
            file_size=64 * KB, layout="random", read_fraction=0.5,
            pattern_specs=("b", "c"), record_size=8192,
            size_distribution="pareto", size_alpha=1.5,
            max_file_size=256 * KB),
        "machine": MachineConfig(n_cps=4, n_iops=2, n_disks=6),
        "build": {
            "device": "ssd", "redundancy": "parity", "checksums": True,
            "fault_config": FaultConfig(
                slow_factor=4.0, slow_disk=1, slow_start=0.0,
                slow_duration=1e9, silent_range_count=32,
                silent_range_sectors=2048, silent_disk=2),
        },
        "driver": {
            "retain_requests": False,
            "controller": ControllerConfig(
                target_p99=2.0, interval=0.25, shed=True, shed_age=1.0),
        },
    }


WORKLOADS = {
    "paper_grid": paper_grid,
    "small_sessions": small_sessions,
    "degraded_array": degraded_array,
}

#: Independent trials a run pools its simulated statistics over.  One pass
#: runs one sub-seed; a run makes at least this many passes.
SUB_SEEDS = {"paper_grid": 4, "small_sessions": 24, "degraded_array": 3}


# -- spans ---------------------------------------------------------------------

class Spans:
    """Benchmark-side spans: name, start, end, parent and run id, in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.records = []
        self._stack = []

    @contextmanager
    def span(self, name):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "run_id": self.run_id}
        self.records.append(record)
        self._stack.append(len(self.records) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def total(self, name, since=0):
        """Summed duration of spans called *name* recorded at or after *since*."""
        return sum(r["end"] - r["start"] for r in self.records[since:]
                   if r["name"] == name and r["end"] is not None)


@contextmanager
def _spanned_create_file(spans):
    """Time ``FileSystem.create_file`` as an ``fs.create_file`` span.

    The class attribute is swapped for the duration of set-up only and
    restored afterwards; the simulator's code is untouched.
    """
    original = FileSystem.create_file

    def create_file(self, *args, **kwargs):
        with spans.span("fs.create_file"):
            return original(self, *args, **kwargs)

    FileSystem.create_file = create_file
    try:
        yield
    finally:
        FileSystem.create_file = original


@contextmanager
def _watchdog(seconds):
    def expire(_signum, _frame):
        raise TimeoutError(f"method run exceeded {seconds}s of wall time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


#: ``TransferResult.counters`` keys folded per session in the traced pass,
#: mapped to their per-layer metric names.
SESSION_SPLIT = {
    "disk_service_time": "core.session.disk_service_s",
    "disk_queue_wait": "core.session.disk_queue_wait_s",
    "iop_queue_wait": "core.session.iop_queue_wait_s",
    "bus_busy_fraction": "core.session.bus_busy_fraction",
    "message_wire_bytes": "core.session.wire_bytes",
}


def _collect_sessions(implementation, sink):
    """Wrap one file-system instance's ``begin_transfer`` to fold sessions.

    Each session's ``TransferResult.counters`` are folded into *sink* when
    its ``done`` event fires; no session object is retained.
    """
    original = implementation.begin_transfer

    def begin_transfer(pattern, striped_file=None):
        session = original(pattern, striped_file)

        def fold(_event):
            counters = session.result.counters
            sink["sessions"] = sink.get("sessions", 0) + 1
            for key in SESSION_SPLIT:
                sink[key] = sink.get(key, 0.0) + counters.get(key, 0.0)

        session.done.callbacks.append(fold)
        return session

    implementation.begin_transfer = begin_transfer


# -- one method run ------------------------------------------------------------

class MethodRun:
    """Host time, simulated outputs, checks and counters of one method run."""

    def __init__(self, sessions=0):
        self.setup_s = 0.0
        self.run_s = 0.0
        #: host seconds of each run-phase call (one per collective on
        #: paper_grid, one driver run on the service workloads)
        self.segments = []
        self.sessions = sessions
        self.failed = 0
        self.errors = []
        #: everything simulated that the digest covers
        self.outputs = []
        #: poolable simulated totals (bytes, time, latency sample or sketch)
        self.sim = {}
        #: modelled per-layer counters read from public state
        self.model = {}
        self.events = 0
        #: folded per-session counters (traced pass only)
        self.session_split = {}

    @property
    def digest(self):
        blob = json.dumps(self.outputs, sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()


def _add(acc, key, amount):
    acc[key] = acc.get(key, 0) + amount


def _machine_model(machine, implementation, makespan, acc):
    """Accumulate modelled counters read from public state after a run."""
    for disk in machine.disks:
        stats = disk.stats
        _add(acc, "busy", stats.busy_time)
        _add(acc, "drive_time", makespan)
        _add(acc, "positioning", stats.seek_time + stats.rotation_time)
        _add(acc, "media", stats.seek_time + stats.rotation_time
             + stats.transfer_time)
        _add(acc, "queue_wait", stats.queue_wait_time)
        _add(acc, "disk_requests", stats.reads + stats.writes)
        _add(acc, "ra_hits", stats.cache_hits)
        _add(acc, "ra_lookups", stats.cache_hits + stats.cache_misses)
    acc["bus_busy_max"] = max(
        [acc.get("bus_busy_max", 0.0)]
        + [iop.bus.busy_fraction() for iop in machine.iops])
    flash = machine.total_flash_counters()
    if flash is not None:
        _add(acc, "flash_pages", flash["flash_pages_written"])
        _add(acc, "host_pages", flash["host_pages_written"])
    if machine.parity is not None:
        for key in ("reconstructed_bytes", "parity_overhead_bytes",
                    "degraded_reads"):
            _add(acc, key, machine.parity.counters[key])
    for key in ("cp_requests", "iop_messages", "retries", "scrub_errors",
                "bytes_moved"):
        counter = implementation.counters.get(key)
        _add(acc, key, counter.value if counter is not None else 0)
    for cache in getattr(implementation, "caches", ()):
        stats = cache.stats
        _add(acc, "cache_lookups", stats.lookups)
        _add(acc, "cache_hits", stats.hits)
        _add(acc, "prefetch_issued", stats.prefetches_issued)
        _add(acc, "prefetch_wasted", stats.prefetches_wasted)
        _add(acc, "evictions", stats.evictions)


@contextmanager
def _enabled(profile):
    """Enable *profile* (anything with enable/disable) around a block."""
    if profile is None:
        yield
        return
    profile.enable()
    try:
        yield
    finally:
        profile.disable()


def _build_cell(config, seed):
    """Set-up of one paper_grid collective: machine, file, file system."""
    machine_config = build_machine_config(config)
    machine = Machine(machine_config, seed=seed,
                      disk_scheduler=config.disk_scheduler,
                      device=config.device, redundancy=config.redundancy)
    filesystem = FileSystem(machine_config, layout_seed=seed,
                            redundancy=config.redundancy)
    striped = filesystem.create_file("experiment-file", config.file_size,
                                     layout=config.layout)
    return machine, make_filesystem(config.method, machine, striped)


def _build_service(spec, suffix):
    """Set-up of one service run: machine, files, file system, driver."""
    workload = spec["workload"]
    machine, implementation, files = build_service_machine(
        workload, machine_config=spec["machine"], seed=spec["seed"],
        method=dict(METHODS)[suffix], **spec["build"])
    driver = ServiceDriver(machine, implementation, files, workload,
                           **spec["driver"])
    return machine, implementation, driver


def _run_grid_method(suffix, cells, spans, profile, collect):
    """paper_grid under one method: one machine per collective."""
    out = MethodRun()
    latencies = []
    sim = {"bytes": 0, "time": 0.0, "requested": 0, "failed_bytes": 0}
    for label, seed, configs in cells:
        config = configs[suffix]
        with spans.span(f"setup.{suffix}") as setup, \
                _spanned_create_file(spans):
            machine, implementation = _build_cell(config, seed)
        out.setup_s += setup["end"] - setup["start"]
        if collect:
            _collect_sessions(implementation, out.session_split)
        events_before = machine.env._eid
        with spans.span(f"run.{suffix}") as run, _enabled(profile):
            pattern = make_pattern(config.pattern, config.file_size,
                                   config.record_size, config.n_cps)
            result = implementation.transfer(pattern)
        out.segments.append(run["end"] - run["start"])
        out.run_s += out.segments[-1]
        out.events += machine.env._eid - events_before
        out.sessions += 1
        counters = result.counters
        expected = pattern.total_transfer_bytes()
        if counters["bytes_moved"] + counters["failed_bytes"] \
                != result.bytes_transferred:
            out.errors.append(f"{label}: bytes not conserved")
            out.failed += 1
        elif counters["bytes_moved"] != expected:
            out.errors.append(f"{label}: moved {counters['bytes_moved']} "
                              f"of {expected} pattern bytes")
            out.failed += 1
        sim["bytes"] += counters["bytes_moved"]
        sim["time"] += result.elapsed
        sim["requested"] += result.bytes_transferred
        sim["failed_bytes"] += counters["failed_bytes"] \
            + counters["lost_bytes"]
        latencies.append(result.elapsed)
        out.outputs.append(asdict(result))
        _machine_model(machine, implementation, result.elapsed, out.model)
    sim.update(latencies=latencies, offered=out.sessions, refused=0,
               wait_mean_s=0.0, k_final=1, shed=0)
    out.sim = sim
    return out


def _run_service_method(suffix, spec, spans, profile, collect):
    """A service workload under one method: one machine, one driver run."""
    workload = spec["workload"]
    out = MethodRun(sessions=workload.n_requests)
    with spans.span(f"setup.{suffix}") as setup, _spanned_create_file(spans):
        machine, implementation, driver = _build_service(spec, suffix)
    out.setup_s = setup["end"] - setup["start"]
    if collect:
        _collect_sessions(implementation, out.session_split)
    events_before = machine.env._eid
    with spans.span(f"run.{suffix}") as run, _enabled(profile):
        result = driver.run(trial_seed=spec["seed"])
    out.run_s = run["end"] - run["start"]
    out.segments.append(out.run_s)
    out.events = machine.env._eid - events_before
    aggregates = result.aggregates
    refused = aggregates["shed"] + aggregates["dropped"]
    terminal = aggregates["completed"] + refused
    if not result.conserves_bytes():
        out.errors.append(
            "bytes not conserved (moved + failed + shed != requested)")
    if terminal != workload.n_requests:
        out.errors.append(f"{terminal} of {workload.n_requests} offered "
                          f"sessions are terminal")
    if out.errors:
        out.failed = out.sessions
    out.outputs = {
        "aggregates": aggregates,
        "response_sketch": result.response_sketch,
        "service_sketch": result.service_sketch,
        "controller": result.controller,
        "counters": result.counters,
        "max_in_flight": result.max_in_flight,
    }
    service_mean = QuantileSketch.from_dict(result.service_sketch).mean \
        if result.service_sketch else 0.0
    out.sim = {
        "bytes": aggregates["bytes_moved"],
        "time": result.elapsed,
        "requested": aggregates["bytes_requested"],
        "failed_bytes": aggregates["bytes_failed"] + aggregates["bytes_lost"],
        "sketch": result.response_sketch,
        "offered": workload.n_requests,
        "refused": refused,
        "wait_mean_s": result.mean_response_time - service_mean,
        "k_final": result.controller["k"] if result.controller
        else workload.concurrency,
        "shed": aggregates["shed"],
    }
    _machine_model(machine, implementation, machine.env.now, out.model)
    return out


def run_method(workload, suffix, inputs, spans, profile=None, collect=False):
    """Run one method of one pass; a raised error marks every session failed."""
    runner = _run_grid_method if workload == "paper_grid" \
        else _run_service_method
    try:
        with _watchdog(WATCHDOG_S):
            return runner(suffix, inputs, spans, profile, collect)
    except Exception as exc:  # noqa: BLE001 - reported as failed sessions
        out = MethodRun(sessions=len(inputs) if workload == "paper_grid"
                        else inputs["workload"].n_requests)
        out.failed = out.sessions
        out.errors.append(f"{type(exc).__name__}: {exc}")
        return out


# -- passes --------------------------------------------------------------------

class Pass:
    """One workload under both methods, on one sub-seed."""

    def __init__(self, sub, methods, create_file_s):
        self.sub = sub
        self.methods = methods
        self.create_file_s = create_file_s

    @property
    def setup_s(self):
        return sum(m.setup_s for m in self.methods.values())

    @property
    def run_s(self):
        return sum(m.run_s for m in self.methods.values())

    @property
    def sessions(self):
        return sum(m.sessions for m in self.methods.values())

    @property
    def failed(self):
        return sum(m.failed for m in self.methods.values())

    @property
    def errors(self):
        return [f"{suffix}: {error}" for suffix, m in self.methods.items()
                for error in m.errors]

    @property
    def digests(self):
        return {suffix: m.digest for suffix, m in self.methods.items()}


def run_pass(workload, seed, spans, sub=0, smoke=False, profiles=None,
             collect=False):
    """Run *workload* once under each method, DDIO first."""
    inputs = WORKLOADS[workload](seed, sub, smoke)
    since = len(spans.records)
    methods = {}
    with spans.span("pass"):
        for suffix, _method in METHODS:
            gc.collect()
            profile = profiles[suffix] if profiles is not None else None
            methods[suffix] = run_method(workload, suffix, inputs, spans,
                                         profile=profile, collect=collect)
    return Pass(sub, methods, spans.total("fs.create_file", since=since))


def setup_only(workload, seed, spans, smoke=False):
    """Host seconds to build everything a pass builds, and nothing else."""
    inputs = WORKLOADS[workload](seed, 0, smoke)
    gc.collect()
    with spans.span("setup_sample") as sample, _spanned_create_file(spans):
        for suffix, _method in METHODS:
            if workload == "paper_grid":
                for _label, cell_seed, configs in inputs:
                    _build_cell(configs[suffix], cell_seed)
            else:
                _build_service(inputs, suffix)
    return sample["end"] - sample["start"]


class _PeakProbe:
    """Stands in for a profiler: resets the tracemalloc peak when a run phase
    starts and records it when the phase ends, so set-up transients do not
    count while structures built in set-up and still alive do."""

    def __init__(self):
        self.peak = 0

    def enable(self):
        tracemalloc.reset_peak()

    def disable(self):
        self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])


def peak_memory_mb(workload, seed, spans, smoke=False):
    """tracemalloc peak of the run phases of one untimed pass, in MB."""
    inputs = WORKLOADS[workload](seed, 0, smoke)
    runner = _run_grid_method if workload == "paper_grid" \
        else _run_service_method
    probe = _PeakProbe()
    gc.collect()
    tracemalloc.start()
    try:
        with spans.span("memory_pass"):
            for suffix, _method in METHODS:
                runner(suffix, inputs, spans, probe, False)
    finally:
        tracemalloc.stop()
    return probe.peak / MB


# -- layer attribution ---------------------------------------------------------

SRC_PREFIX = str(REPO_ROOT / "src" / "repro") + os.sep

#: Modules of ``repro.core`` reported on their own; the rest count as base.
CORE_MODULES = ("ddio", "traditional", "iop_cache", "base")
#: Modules of ``repro.disk`` reported on their own; the rest are the drive.
DISK_MODULES = ("flash", "redundancy", "faults")

#: Every layer a self time is reported for, in report order.
LAYERS = ("sim", "patterns", "workload", "core.ddio", "core.traditional",
          "core.iop_cache", "core.base", "network", "machine", "disk",
          "disk.flash", "disk.redundancy", "disk.faults", "fs", "other")


def layer_of(filename):
    """The layer that owns *filename*, or None outside ``repro``."""
    if not filename.startswith(SRC_PREFIX):
        return None
    parts = filename[len(SRC_PREFIX):].split(os.sep)
    if len(parts) == 1:
        return "other"
    package, module = parts[0], parts[-1][:-3]
    if package == "core":
        return f"core.{module}" if module in CORE_MODULES else "core.base"
    if package == "disk":
        return f"disk.{module}" if module in DISK_MODULES else "disk"
    if package in LAYERS:
        return package
    return "other"


def attribute_profile(stats):
    """Self seconds per layer from a ``pstats.Stats``.

    Code outside ``repro`` (builtins, the standard library, numpy) is charged
    to the ``repro`` layer that called it, following pstats callers and
    splitting by the time spent under each caller; code with no ``repro``
    caller (the benchmark itself) is charged to ``other``.
    """
    table = stats.stats
    memo = {}

    def owners(func, visiting):
        """Layer -> share of *func*'s self time owed to that layer."""
        if func in memo:
            return memo[func]
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        callers = table[func][4] if func in table else {}
        weights = {caller: edge[2] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = dict.fromkeys(callers, 1.0)
            total = float(len(callers))
        result = {}
        for caller, weight in weights.items():
            if caller in visiting or caller not in table:
                owed = {"other": 1.0}
            else:
                owed = owners(caller, visiting | {func})
            for owner, part in owed.items():
                result[owner] = result.get(owner, 0.0) + part * weight / total
        result = result or {"other": 1.0}
        if not visiting:
            memo[func] = result
        return result

    self_s = dict.fromkeys(LAYERS, 0.0)
    for func, row in table.items():
        for owner, part in owners(func, frozenset()).items():
            self_s[owner] += row[2] * part
    return self_s


#: (module path suffix, function name) -> per-session call-count metric.
CALL_COUNTS = {
    (os.path.join("sim", "process.py"), "__init__"):
        "sim.processes_per_session",
    (os.path.join("sim", "process.py"), "_resume"):
        "sim.resumes_per_session",
    (os.path.join("patterns", "registry.py"), "make_pattern"):
        "patterns.make_pattern_per_session",
    (os.path.join("workload", "arrival.py"), "request_rng"):
        "workload.arrival.request_rng_per_session",
}
PATTERNS_DIR = os.sep + "patterns" + os.sep


def call_counts(stats):
    """Calls of the counted functions (every ``chunks_for_cp`` override too)."""
    counts = dict.fromkeys(CALL_COUNTS.values(), 0)
    counts["patterns.chunks_for_cp_per_session"] = 0
    for (filename, _line, funcname), row in stats.stats.items():
        if not filename.startswith(SRC_PREFIX):
            continue
        if funcname == "chunks_for_cp" and PATTERNS_DIR in filename:
            counts["patterns.chunks_for_cp_per_session"] += row[1]
        for (suffix, name), metric in CALL_COUNTS.items():
            if funcname == name and filename.endswith(suffix):
                counts[metric] += row[1]
    return counts


def traced_pass(workload, seed, spans, smoke=False):
    """One pass under cProfile (one profiler per method, run phase only)."""
    profiles = {suffix: cProfile.Profile() for suffix, _m in METHODS}
    traced = run_pass(workload, seed, spans, smoke=smoke, profiles=profiles,
                      collect=True)
    counts = {suffix: call_counts(pstats.Stats(profile))
              for suffix, profile in profiles.items()}
    combined = pstats.Stats(profiles["ddio"])
    combined.add(profiles["tc"])
    return traced, attribute_profile(combined), counts


# -- metrics -------------------------------------------------------------------

def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _quantile(values, fraction):
    """Nearest-rank quantile of a small exact sample."""
    ordered = sorted(values)
    return ordered[round(fraction * (len(ordered) - 1))]


def pooled_sim(passes):
    """Simulated totals per method, pooled over one pass per sub-seed."""
    first = {}
    for one in passes:
        first.setdefault(one.sub, one)
    pooled = {}
    for suffix, _method in METHODS:
        sims = [one.methods[suffix].sim for one in first.values()
                if one.methods[suffix].sim]
        total = {key: sum(sim[key] for sim in sims)
                 for key in ("bytes", "time", "requested", "failed_bytes",
                             "offered", "refused")}
        p50 = p99 = 0.0
        if sims and "latencies" in sims[0]:
            sample = [x for sim in sims for x in sim["latencies"]]
            p50, p99 = _quantile(sample, 0.5), _quantile(sample, 0.99)
        elif sims:
            sketch = QuantileSketch()
            for sim in sims:
                sketch.merge(QuantileSketch.from_dict(sim["sketch"]))
            p50, p99 = sketch.quantile(0.5), sketch.quantile(0.99)
        total.update(mb_s=_ratio(total["bytes"] / MB, total["time"]),
                     p50_s=p50, p99_s=p99)
        pooled[suffix] = total
    return pooled


def fastest_run_s(passes):
    """Host seconds of one pass, taking each segment at its fastest.

    A segment is one run-phase call of one method, matched by position
    across passes.  On a shared host, contention only ever slows a segment
    down, and it comes and goes within a second; the fastest of several
    short segments is the steadiest estimate of the simulator's own speed.
    """
    total = 0.0
    for suffix, _method in METHODS:
        runs = [one.methods[suffix].segments for one in passes]
        if not all(runs) or len({len(segments) for segments in runs}) != 1:
            return 0.0
        total += sum(min(times) for times in zip(*runs))
    return total


def end_to_end(passes, setup_samples, peak_mb):
    """The end-to-end metrics of one run (tracing off)."""
    pooled = pooled_sim(passes)
    attempted = sum(one.sessions for one in passes)
    failed = sum(one.failed for one in passes)
    offered_total = sum(p["offered"] for p in pooled.values())
    refused = sum(p["refused"] for p in pooled.values())
    requested = sum(p["requested"] for p in pooled.values())
    failed_bytes = sum(p["failed_bytes"] for p in pooled.values())
    metrics = {
        "host_sessions_per_s": (_ratio(passes[0].sessions,
                                       fastest_run_s(passes)), "sessions/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_mem_mb": (peak_mb, "MB"),
    }
    for suffix, _method in METHODS:
        metrics[f"sim_{suffix}_mb_s"] = (pooled[suffix]["mb_s"], "MB/s")
    for suffix, _method in METHODS:
        metrics[f"sim_{suffix}_p50_s"] = (pooled[suffix]["p50_s"], "s")
        metrics[f"sim_{suffix}_p99_s"] = (pooled[suffix]["p99_s"], "s")
    metrics["sim_served_fraction"] = (
        1.0 - _ratio(refused, offered_total), "ratio")
    metrics["sim_intact_byte_fraction"] = (
        1.0 - _ratio(failed_bytes, requested), "ratio")
    metrics["ok_fraction"] = (1.0 - _ratio(failed, attempted), "ratio")
    return metrics


def per_layer(traced, untraced_run_s, create_file_s, self_s, counts):
    """The per-layer metrics of one traced pass."""
    metrics = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
    for suffix, run in traced.methods.items():
        model, sim, sessions = run.model, run.sim, run.sessions
        per = {"sim.events_per_session": (_ratio(run.events, sessions),
                                          "count")}
        for metric, calls in counts[suffix].items():
            per[metric] = (_ratio(calls, sessions), "count")
        per["core.cp_requests_per_session"] = (
            _ratio(model.get("cp_requests", 0), sessions), "count")
        per["core.iop_messages_per_session"] = (
            _ratio(model.get("iop_messages", 0), sessions), "count")
        split = run.session_split
        for key, metric in SESSION_SPLIT.items():
            unit = {"message_wire_bytes": "bytes",
                    "bus_busy_fraction": "ratio"}.get(key, "s")
            per[metric] = (_ratio(split.get(key, 0.0),
                                  split.get("sessions", 0)), unit)
        per["workload.admission.wait_mean_s"] = (sim.get("wait_mean_s", 0.0),
                                                 "s")
        per["workload.admission.k_final"] = (sim.get("k_final", 0), "count")
        per["workload.admission.shed"] = (sim.get("shed", 0), "count")
        per["machine.bus_busy_fraction"] = (model.get("bus_busy_max", 0.0),
                                            "ratio")
        per["disk.utilization"] = (
            _ratio(model.get("busy", 0.0), model.get("drive_time", 0.0)),
            "ratio")
        per["disk.positioning_share"] = (
            _ratio(model.get("positioning", 0.0), model.get("media", 0.0)),
            "ratio")
        per["disk.queue_wait_mean_s"] = (
            _ratio(model.get("queue_wait", 0.0),
                   model.get("disk_requests", 0)), "s")
        per["disk.readahead_hit_rate"] = (
            _ratio(model.get("ra_hits", 0), model.get("ra_lookups", 0)),
            "ratio")
        per["disk.flash.pages_written"] = (model.get("flash_pages", 0),
                                           "count")
        per["disk.flash.write_amplification"] = (
            _ratio(model.get("flash_pages", 0), model.get("host_pages", 0)),
            "ratio")
        per["disk.redundancy.reconstructed_bytes"] = (
            model.get("reconstructed_bytes", 0), "bytes")
        per["disk.redundancy.parity_overhead_ratio"] = (
            _ratio(model.get("parity_overhead_bytes", 0),
                   model.get("bytes_moved", 0)), "ratio")
        per["disk.redundancy.degraded_reads"] = (
            model.get("degraded_reads", 0), "count")
        per["disk.faults.retries"] = (model.get("retries", 0), "count")
        per["disk.faults.scrub_errors"] = (model.get("scrub_errors", 0),
                                           "count")
        if suffix == "tc":
            per["core.iop_cache.hit_rate"] = (
                _ratio(model.get("cache_hits", 0),
                       model.get("cache_lookups", 0)), "ratio")
            per["core.iop_cache.prefetch_wasted_ratio"] = (
                _ratio(model.get("prefetch_wasted", 0),
                       model.get("prefetch_issued", 0)), "ratio")
            per["core.iop_cache.evictions"] = (model.get("evictions", 0),
                                               "count")
        for name, value in per.items():
            metrics[f"{name}.{suffix}"] = value
    metrics["fs.create_file_s"] = (create_file_s, "s")
    metrics["trace.overhead_ratio"] = (
        _ratio(traced.run_s, untraced_run_s), "ratio")
    return metrics
