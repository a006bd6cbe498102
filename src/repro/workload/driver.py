"""Service-style workload driver: a stream of concurrent collective requests.

The paper evaluates one collective transfer at a time; its claim — IOPs that
schedule the disk from global knowledge beat caching at the compute nodes —
matters most when *many* collectives contend for the same disks, as in
server-attached parallel file systems.  This driver models that scenario:

* several striped files are open concurrently (independent layouts);
* requests arrive via a closed loop or a Poisson open loop
  (:mod:`repro.workload.arrival`);
* a job scheduler admits at most ``concurrency`` collectives at a time;
* each admitted request runs as a re-entrant
  :class:`~repro.core.base.CollectiveSession` on a single shared
  file-system implementation (DDIO, traditional caching or two-phase).

The result records per-request response times and byte conservation, plus
whole-run throughput — the inputs for the ``service`` experiment family.

Invariants the driver guarantees (tests pin each one):

* **Plan determinism.**  The shape of request *i* — target file, pattern,
  record size, read/write mode, interarrival gap, think time — is a pure
  function of ``(trial_seed, i)`` via
  :func:`~repro.workload.arrival.request_rng`, and the size of file *j* is a
  pure function of ``(trial_seed, j)`` via
  :func:`~repro.workload.sizes.file_size_rng`.  Nothing depends on arrival
  order, admission order, completion order, the client population, or which
  process pool ran the trial; serial and parallel sweeps are therefore
  bit-identical.
* **Admission bound.**  At most ``concurrency`` sessions are ever in
  flight; ``max_in_flight`` reports the high-water mark actually reached.
* **Byte conservation.**  Every requested byte is accounted for: on a
  healthy machine each collective moves exactly the bytes its pattern
  requests, and under fault injection ``bytes_moved + bytes_failed ==
  bytes_requested`` per record (failed read blocks are explicitly counted,
  never silently dropped), whatever the interleaving with its neighbours.
* **Makespan convention.**  Throughput divides total bytes by (last
  completion − *first arrival*): an open-loop run's idle lead-in is not
  service time and must not deflate throughput.
* **Record slots.**  ``requests[i]`` always describes planned request *i*
  (records are slotted by index, not completion order), so percentile and
  per-request analyses line up across methods and schedulers.

Per-request ``counters`` inside each session's ``TransferResult`` are
per-session throughout (disk service time, bus share — see
``CollectiveFileSystem._snapshot_counters``), so concurrent requests do not
bleed into each other's metrics.
"""

import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core import make_filesystem
from repro.disk.faults import FaultPolicy
from repro.fs import FileSystem
from repro.fs.layout import layout_class
from repro.machine import Machine, MachineConfig
from repro.patterns import make_pattern
from repro.patterns.registry import parse_pattern_name
from repro.sim.events import AllOf
from repro.workload.admission import (
    DROPPED,
    AdaptiveConcurrencyController,
    AdmissionQueue,
    AdmissionTicket,
    ControllerConfig,
    FIFOPolicy,
    make_admission_policy,
)
from repro.workload.aggregate import QuantileSketch
from repro.workload.arrival import RequestStreams, make_arrival, session_qos
from repro.workload.checkpoint import (
    CheckpointError,
    IndexRanges,
    RunCheckpoint,
    run_fingerprint,
)
from repro.workload.sizes import check_size_distribution, sample_file_sizes

MEGABYTE = float(2 ** 20)

#: Default cap on a heavy-tailed file-size draw, as a multiple of the mean.
#: Bounds the simulation cost of one trial; see :mod:`repro.workload.sizes`.
DEFAULT_SIZE_CAP_FACTOR = 16


@dataclass(frozen=True)
class ServiceWorkload:
    """Description of one service-style request stream (machine shape excluded)."""

    #: total collective requests in the stream
    n_requests: int = 16
    #: "closed" (fixed client population) or "poisson" (open loop)
    arrival: str = "closed"
    #: offered load for poisson arrivals, requests/second
    arrival_rate: float = 50.0
    #: mean pause between a closed-loop client's completion and next request
    think_time: float = 0.0
    #: draw closed-loop think times from an exponential distribution
    exponential_think: bool = False
    #: K: collectives admitted concurrently (also the closed-loop population)
    concurrency: int = 2
    #: number of concurrently-open striped files requests are spread over
    n_files: int = 2
    #: size of each file, bytes
    file_size: int = 256 * 1024
    #: physical layout of every file ("contiguous" or "random")
    layout: str = "contiguous"
    #: how requests map to files: "random" (uniform choice; concurrent
    #: collectives may overlap on a file, which favours caching reuse) or
    #: "round-robin" (request i targets file i mod n_files — the
    #: independent-jobs scenario with disjoint working sets)
    file_assignment: str = "random"
    #: probability that a request is a read (writes otherwise)
    read_fraction: float = 0.5
    #: distribution specs (pattern names minus the r/w prefix) to draw from
    pattern_specs: tuple = ("b",)
    #: record size of every request's pattern (when ``record_sizes`` is empty)
    record_size: int = 8192
    #: record-size *mix*: each request draws its record size uniformly from
    #: this tuple (e.g. ``(8, 8192)`` mixes the paper's worst case in).
    #: Empty means every request uses ``record_size``.
    record_sizes: tuple = ()
    #: per-file size distribution: "fixed" (every file is ``file_size``
    #: bytes), "pareto" or "lognormal" (heavy-tailed, mean ``file_size``;
    #: see :mod:`repro.workload.sizes`)
    size_distribution: str = "fixed"
    #: Pareto tail index (must be > 1 for a finite mean); smaller is heavier
    size_alpha: float = 1.5
    #: lognormal shape parameter; larger is heavier
    size_sigma: float = 1.0
    #: cap on any single heavy-tailed size draw, bytes
    #: (0 means ``DEFAULT_SIZE_CAP_FACTOR * file_size``)
    max_file_size: int = 0
    #: static QoS classes sessions are stamped with (1: everyone equal; >1:
    #: class drawn uniformly per (seed, index) — see the priority admission
    #: policy in :mod:`repro.workload.admission`)
    priority_levels: int = 1
    #: mean deadline budget, seconds after arrival (0: no deadlines; >0:
    #: per-session slack drawn in [0.5, 1.5] x this — the EDF policy's input)
    deadline_slack: float = 0.0
    #: default trial seed (overridable per run)
    seed: int = 0

    def __post_init__(self):
        if self.n_requests < 1:
            raise ValueError(f"need at least one request, got {self.n_requests}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.n_files < 1:
            raise ValueError(f"need at least one file, got {self.n_files}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(
                f"read fraction must be in [0, 1], got {self.read_fraction}")
        if not self.pattern_specs:
            raise ValueError("need at least one pattern spec")
        for spec in self.pattern_specs:
            parse_pattern_name("r" + spec)
        layout_class(self.layout)
        self.make_arrival_process()
        if self.file_assignment not in ("random", "round-robin"):
            raise ValueError(
                f"file assignment must be 'random' or 'round-robin', "
                f"got {self.file_assignment!r}")
        if self.priority_levels < 1:
            raise ValueError(
                f"need at least one priority level, got {self.priority_levels}")
        if self.deadline_slack < 0:
            raise ValueError(
                f"deadline slack must be >= 0, got {self.deadline_slack}")
        if any(size < 1 for size in self.effective_record_sizes):
            raise ValueError(
                f"record sizes must be positive, got {self.record_sizes}")
        check_size_distribution(self.size_distribution,
                                alpha=self.size_alpha, sigma=self.size_sigma)
        if self.size_distribution == "fixed" \
                and self.file_size % self.size_granularity:
            raise ValueError(
                f"file size {self.file_size} is not a multiple of the record "
                f"granularity {self.size_granularity} "
                f"(lcm of {self.effective_record_sizes})")

    @property
    def effective_record_sizes(self):
        """The record-size mix requests draw from (never empty)."""
        return tuple(self.record_sizes) if self.record_sizes \
            else (self.record_size,)

    @property
    def size_granularity(self):
        """Every file size is a multiple of this: lcm of the record mix."""
        return math.lcm(*self.effective_record_sizes)

    def sample_sizes(self, trial_seed):
        """Per-file sizes for one trial (deterministic per (seed, file))."""
        cap = self.max_file_size if self.max_file_size \
            else DEFAULT_SIZE_CAP_FACTOR * self.file_size
        return sample_file_sizes(
            self.size_distribution, self.file_size, self.n_files, trial_seed,
            alpha=self.size_alpha, sigma=self.size_sigma,
            granularity=self.size_granularity, max_size=cap)

    def make_arrival_process(self):
        return make_arrival(self.arrival, arrival_rate=self.arrival_rate,
                            think_time=self.think_time,
                            exponential_think=self.exponential_think)


def percentile(values, fraction):
    """Linear-interpolation percentile (``fraction`` in [0, 1]) of *values*."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if not values:
        return 0.0
    return float(np.percentile(values, fraction * 100.0))


@dataclass
class ServiceResult:
    """Outcome of one service-driver run.

    Percentiles and fault totals are carried by *mergeable aggregates* —
    log-bucketed quantile sketches (:mod:`repro.workload.aggregate`) and
    scalar totals folded in as each session completes — so a result is O(1)
    in the request count.  ``requests`` additionally holds one plain
    dictionary per request (index, file, pattern, arrival / admitted /
    completed times, bytes requested and moved) when the driver runs with
    ``retain_requests=True``; streaming runs leave it empty.
    """

    method: str
    arrival: str
    n_requests: int
    concurrency: int
    n_cps: int
    n_iops: int
    n_disks: int
    seed: int
    start_time: float
    end_time: float
    total_bytes: int
    max_in_flight: int
    requests: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    #: size of each open file, bytes, in creation order (uniform unless the
    #: workload samples a heavy-tailed size distribution)
    file_sizes: list = field(default_factory=list)
    #: realised fault schedule: one :meth:`FaultPlan.describe` snapshot per
    #: faulted drive (empty on a healthy machine), so the result envelope
    #: pins exactly which faults a trial injected
    fault_plans: list = field(default_factory=list)
    #: serialised :class:`~repro.workload.aggregate.QuantileSketch` of
    #: arrival-to-completion response times (the percentile source)
    response_sketch: dict = field(default_factory=dict)
    #: serialised sketch of admission-to-completion service times
    service_sketch: dict = field(default_factory=dict)
    #: scalar fold totals: completed count, bytes requested/failed/lost,
    #: retries, degraded completions, drop/shed tallies, and the running
    #: conservation check
    aggregates: dict = field(default_factory=dict)
    #: the admission discipline that ordered the run (policy ``describe()``)
    admission: str = "fifo"
    #: final state of the adaptive-K controller (empty when none ran)
    controller: dict = field(default_factory=dict)
    #: per-priority-class response-time sketches, keyed by class as a string
    #: (empty unless the workload stamps more than one class)
    class_sketches: dict = field(default_factory=dict)

    # -- whole-run metrics -------------------------------------------------------
    @property
    def elapsed(self):
        """Makespan: simulated seconds from first arrival to last completion."""
        return self.end_time - self.start_time

    @property
    def throughput(self):
        """Bytes served per second over the makespan."""
        if self.elapsed <= 0:
            return 0.0
        return self.total_bytes / self.elapsed

    @property
    def throughput_mb(self):
        """Throughput in the paper's Mbytes/s."""
        return self.throughput / MEGABYTE

    # -- per-request metrics -----------------------------------------------------
    @property
    def response_times(self):
        """Arrival-to-completion time of every retained *completed* request,
        in request order (dropped/shed sessions never complete).  Empty for
        streaming runs — use the sketch instead."""
        return [record["completed_time"] - record["arrival_time"]
                for record in self.requests
                if record.get("admitted_time") is not None]

    @property
    def service_times(self):
        """Admission-to-completion time of every retained completed request,
        in request order.  Empty for streaming runs — use the sketch instead."""
        return [record["completed_time"] - record["admitted_time"]
                for record in self.requests
                if record.get("admitted_time") is not None]

    def _sketch(self, attribute):
        """Deserialise (and memoise) one of the two quantile sketches."""
        cache_name = f"_{attribute}_obj"
        sketch = getattr(self, cache_name, None)
        if sketch is None:
            data = getattr(self, attribute)
            sketch = QuantileSketch.from_dict(data) if data \
                else QuantileSketch()
            object.__setattr__(self, cache_name, sketch)
        return sketch

    def response_percentile(self, fraction):
        """Response-time percentile, e.g. ``response_percentile(0.99)``.

        Estimated from the mergeable quantile sketch — within the documented
        relative error bound (:func:`repro.workload.aggregate.
        relative_error_bound`) of the sorted-list answer, at O(1) memory in
        the request count.
        """
        return self._sketch("response_sketch").quantile(fraction)

    def service_percentile(self, fraction):
        """Admission-to-completion time percentile, from the sketch."""
        return self._sketch("service_sketch").quantile(fraction)

    @property
    def mean_response_time(self):
        return self._sketch("response_sketch").mean

    # -- fault accounting --------------------------------------------------------
    @property
    def failed_bytes(self):
        """Read bytes requested but never delivered (given up under faults)."""
        return self.aggregates.get("bytes_failed", 0)

    @property
    def lost_bytes(self):
        """Write bytes shipped over the wire but never made durable."""
        return self.aggregates.get("bytes_lost", 0)

    @property
    def total_retries(self):
        """Disk requests re-submitted by the retry policy, whole run."""
        return self.aggregates.get("retries", 0)

    @property
    def degraded_requests(self):
        """Number of requests that completed degraded (partial data)."""
        return self.aggregates.get("degraded", 0)

    # -- admission accounting ----------------------------------------------------
    @property
    def shed_bytes(self):
        """Bytes of sessions rejected at admission (deadline drops + load
        shedding) — requested work the server explicitly declined."""
        return self.aggregates.get("bytes_shed", 0)

    @property
    def dropped_requests(self):
        """Sessions dropped by the admission policy (unmeetable deadlines)."""
        return self.aggregates.get("dropped", 0)

    @property
    def shed_requests(self):
        """Sessions shed by the controller's SLO load shedder."""
        return self.aggregates.get("shed", 0)

    @property
    def goodput(self):
        """Useful bytes per second: delivered traffic minus write data the
        drive never made durable.  Failed read bytes never enter
        ``total_bytes``, so on a healthy machine goodput == throughput."""
        if self.elapsed <= 0:
            return 0.0
        return (self.total_bytes - self.lost_bytes) / self.elapsed

    @property
    def goodput_mb(self):
        """Goodput in the paper's Mbytes/s."""
        return self.goodput / MEGABYTE

    def conserves_bytes(self):
        """True when every requested byte is delivered or explicitly accounted.

        On a healthy FIFO machine this reduces to the original
        ``bytes_moved == bytes_requested`` invariant; under fault injection
        failed bytes join the left side, and under drop/shed admission the
        rejected sessions' bytes do too: ``bytes_moved + bytes_failed +
        bytes_shed == bytes_requested``.  The check is folded per session at
        its terminal event (so streaming runs keep it without retaining
        records).
        """
        aggregates = self.aggregates
        totals_balance = (
            aggregates.get("bytes_moved", 0)
            + aggregates.get("bytes_failed", 0)
            + aggregates.get("bytes_shed", 0)
            == aggregates.get("bytes_requested", 0))
        return bool(aggregates.get("conserved", False)) and totals_balance

    def summary(self):
        return (f"{self.method:12s} {self.arrival:8s} K={self.concurrency} "
                f"{self.n_requests:3d} reqs {self.throughput_mb:6.2f} MB/s "
                f"p50={self.response_percentile(0.5) * 1e3:7.2f} ms "
                f"p99={self.response_percentile(0.99) * 1e3:7.2f} ms")


#: Handler-spawn window of the open loop: how many arrived requests may
#: exist as live (pending-unadmitted) simulator processes at once.  The
#: window only has to exceed the number of admission slots that can free at
#: one simulated instant (at most ``concurrency``) for every admission to
#: grant the request that arrived first; it is generous because handlers
#: are small and the backlog itself stays implicit in the arrival cursor.
STREAM_SPAWN_WINDOW = 64

class ServiceDriver:
    """Streams a :class:`ServiceWorkload` through one machine.

    ``implementation`` is a re-entrant :class:`CollectiveFileSystem` bound to
    the machine; ``files`` are the concurrently-open striped files requests
    are spread over.  The driver owns the admission scheduler: a counting
    semaphore of ``workload.concurrency`` slots, acquired before
    ``begin_transfer`` and released at completion.

    Measurement is *streaming*: each session's response/service time and
    byte/fault counters are folded into mergeable aggregates
    (:mod:`repro.workload.aggregate`) the moment it completes, so driver-side
    memory is O(1) in the request count.  ``retain_requests=True`` (the
    default, for small runs) additionally keeps the per-request record list;
    it changes nothing else.  Every open-loop run bounds its live handlers by
    a spawn window driven from the (deterministic) arrival cursor.

    ``checkpoint_every``/``checkpoint_path`` write a
    :class:`~repro.workload.checkpoint.RunCheckpoint` of the fold state every
    N completions; ``resume_from`` (a checkpoint object or path) restores one
    — the resumed replay skips re-folding already-accounted sessions and
    reproduces the uninterrupted run's envelope exactly (see
    :mod:`repro.workload.checkpoint` for why that is sound).
    """

    #: Per-run pattern memo, ``(name, file size, record size) -> pattern``;
    #: :meth:`run` creates it, so a bare :meth:`plan_request` builds afresh.
    _patterns = None

    def __init__(self, machine, implementation, files, workload,
                 retain_requests=True, checkpoint_every=0,
                 checkpoint_path=None, resume_from=None,
                 admission_policy="fifo", controller=None):
        self.machine = machine
        self.env = machine.env
        self.implementation = implementation
        self.files = list(files)
        self.workload = workload
        self.retain_requests = retain_requests
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        if isinstance(resume_from, (str, os.PathLike)):
            resume_from = RunCheckpoint.load(resume_from)
        self._resume = resume_from
        self._streams = RequestStreams()
        self.admission_policy = make_admission_policy(admission_policy)
        if isinstance(controller, dict):
            controller = ControllerConfig(**controller)
        self._controller_config = controller
        self._controller = None
        self.admission = AdmissionQueue(machine.env,
                                        capacity=workload.concurrency,
                                        policy=self.admission_policy,
                                        name="service-admission")
        if controller is not None:
            max_k = controller.max_k if controller.max_k > 0 \
                else 4 * workload.concurrency
            self._controller = AdaptiveConcurrencyController(
                controller, self.admission, max_k=max_k)
        self._in_flight = 0
        self.max_in_flight = 0
        self._records = []
        self._reset_fold_state()

    def _reset_fold_state(self):
        self._response_sketch = QuantileSketch()
        self._service_sketch = QuantileSketch()
        self._class_sketches = {} if self.workload.priority_levels > 1 \
            else None
        self._folded = IndexRanges()
        self._totals = {
            "completed": 0,
            "bytes_requested": 0,
            "bytes_moved": 0,
            "bytes_failed": 0,
            "bytes_lost": 0,
            "bytes_shed": 0,
            "retries": 0,
            "degraded": 0,
            "dropped": 0,
            "shed": 0,
            "conserved": True,
            "first_arrival": None,
            "last_completion": None,
        }
        self._fingerprint = None
        self._completions = 0
        self._complete_event = None
        self._window = None
        self._window_pending = None
        self._window_waiter = None

    # -- request planning --------------------------------------------------------
    def plan_request(self, trial_seed, index):
        """The (deterministic) shape of request *index*: file, pattern, mode.

        Every draw comes from ``request_rng(trial_seed, index)`` (positioned
        by the driver's :class:`~repro.workload.arrival.RequestStreams`), so
        the plan is a pure function of (seed, index) — independent of
        arrival order, admission order and completion order.
        """
        rng = self._streams.rng(trial_seed, index)
        if self.workload.file_assignment == "round-robin":
            file_choice = index % len(self.files)
            rng.integers(len(self.files))  # keep the draw count identical
        else:
            file_choice = int(rng.integers(len(self.files)))
        striped_file = self.files[file_choice]
        spec = self.workload.pattern_specs[
            int(rng.integers(len(self.workload.pattern_specs)))]
        is_read = bool(rng.random() < self.workload.read_fraction)
        if spec == "a":
            is_read = True  # the ALL pattern only exists for reads
        # The record-size draw comes last, and only for a real mix, so plans
        # under single-record-size workloads are bit-identical to before the
        # mix existed (pinned by the determinism tests).
        record_sizes = self.workload.effective_record_sizes
        if len(record_sizes) > 1:
            record_size = record_sizes[int(rng.integers(len(record_sizes)))]
        else:
            record_size = record_sizes[0]
        pattern_name = ("r" if is_read else "w") + spec
        key = (pattern_name, striped_file.size_bytes, record_size)
        patterns = self._patterns
        pattern = patterns.get(key) if patterns is not None else None
        if pattern is None:
            pattern = make_pattern(pattern_name, striped_file.size_bytes,
                                   record_size, self.machine.config.n_cps)
            if patterns is not None:
                patterns[key] = pattern
        return striped_file, pattern

    # -- the run -----------------------------------------------------------------
    def run(self, trial_seed=None, watchdog=None):
        """Run the whole stream to completion; returns a :class:`ServiceResult`.

        *watchdog* (wall-clock seconds) is forwarded to
        :meth:`Environment.run`: a stream that stops making simulated
        progress for that long raises a diagnosable
        :class:`~repro.sim.errors.DeadlockError` instead of hanging —
        insurance when sweeping fault scenarios that might wedge a protocol.

        The run ends by closing the environment
        (:meth:`~repro.sim.engine.Environment.close`), so a machine serves
        one run; its statistics stay readable afterwards.
        """
        workload = self.workload
        seed = workload.seed if trial_seed is None else trial_seed
        arrival = workload.make_arrival_process()
        self._records = [None] * workload.n_requests if self.retain_requests \
            else None
        self._in_flight = 0
        self.max_in_flight = 0
        self._reset_fold_state()
        # Patterns are immutable plans: sessions with the same (pattern,
        # file size, record size) share one for the run.
        self._patterns = {}
        self._fingerprint = self.run_fingerprint(seed)
        if self._resume is not None:
            self._restore(self._resume)
        run_start = self.env.now
        if self._controller is not None:
            self.env.process(self._controller_loop())

        if arrival.closed_loop:
            streams = [
                self.env.process(self._closed_loop_client(seed, arrival, client))
                for client in range(min(workload.concurrency, workload.n_requests))
            ]
            done = AllOf(self.env, streams)
        else:
            # Bound live handlers by the spawn window; the backlog stays
            # implicit in the deterministic arrival cursor.
            self._window = self._spawn_window()
            self._window_pending = 0
            done = self._complete_event = self.env.event()
            self.env.process(self._open_loop(seed, arrival))
        self.env.run(done, watchdog=watchdog)

        totals = self._totals
        # Redundancy epilogue: let the background rebuild and any pending
        # parity write-behind finish (the makespan below is taken from the
        # last *request* completion, so foreground metrics are unaffected),
        # then publish the array's counters as aggregate keys.  All of this
        # is conditional on a parity machine, so redundancy-free results
        # keep their exact pre-redundancy shape.
        parity = getattr(self.machine, "parity", None)
        if parity is not None:
            if parity.rebuild is not None \
                    and not parity.rebuild.done.triggered:
                self.env.run(parity.rebuild.done, watchdog=watchdog)
            if parity._parity_pending:
                self.env.run(parity.drain_parity(), watchdog=watchdog)
            for key in ("reconstructed_bytes", "parity_overhead_bytes",
                        "degraded_reads", "degraded_writes", "rebuilt_rows",
                        "rebuild_seconds"):
                totals[key] = parity.counters[key]
        # The run is over: close every process still parked or pending (the
        # servers, an unfinished controller heartbeat) and drop the
        # calendar, so the finished machine holds no reference cycle and is
        # freed as soon as the caller lets go of it.
        self.env.close()
        # The makespan runs from the *first arrival* to the last completion:
        # an open-loop run's idle lead-in (the first interarrival gap) is not
        # service time and must not deflate throughput.
        first_arrival = totals["first_arrival"]
        end_time = totals["last_completion"]
        return ServiceResult(
            method=self.implementation.method_name,
            arrival=arrival.describe(),
            n_requests=workload.n_requests,
            concurrency=workload.concurrency,
            n_cps=self.machine.config.n_cps,
            n_iops=self.machine.config.n_iops,
            n_disks=self.machine.config.n_disks,
            seed=seed,
            start_time=run_start if first_arrival is None else first_arrival,
            end_time=run_start if end_time is None else end_time,
            total_bytes=totals["bytes_moved"],
            max_in_flight=self.max_in_flight,
            requests=list(self._records) if self._records is not None else [],
            counters={name: counter.value
                      for name, counter in self.implementation.counters.items()},
            file_sizes=[striped.size_bytes for striped in self.files],
            fault_plans=[plan.describe()
                         for plan in getattr(self.machine, "fault_plans", [])
                         if plan is not None],
            response_sketch=self._response_sketch.as_dict(),
            service_sketch=self._service_sketch.as_dict(),
            aggregates=dict(totals),
            admission=self.admission_policy.describe(),
            controller=self._controller.state()
            if self._controller is not None else {},
            class_sketches=self._serialised_class_sketches(),
        )

    def _serialised_class_sketches(self):
        if not self._class_sketches:
            return {}
        return {str(cls): sketch.as_dict()
                for cls, sketch in sorted(self._class_sketches.items())}

    def _spawn_window(self):
        """Live-handler bound for the open loop.

        FIFO admission only ever grants the earliest-index waiters, so a
        fixed window that exceeds the slots that can free at one instant is
        enough for every grant to find the request it would find with the
        whole backlog spawned.  A non-FIFO policy (or a shedding controller)
        must see the *whole* arrived backlog to pick (or drop) the right
        session, so the window opens to the full stream: memory becomes
        O(admission queue length) — the floor any online size/deadline-aware
        discipline needs — instead of O(1).
        """
        window = max(2 * self.workload.concurrency, STREAM_SPAWN_WINDOW)
        controller = self._controller
        if controller is not None:
            window = max(window, 2 * controller.max_k)
            if controller.config.shed:
                return self.workload.n_requests
        if not isinstance(self.admission_policy, FIFOPolicy):
            return self.workload.n_requests
        return window

    def _controller_loop(self):
        """The control-interval heartbeat of the adaptive-K controller.

        Stops when the stream completes, or after the controller's idle
        limit (so a wedged protocol run stays visible to the watchdog
        instead of ticking simulated time forever).
        """
        controller = self._controller
        interval = controller.config.interval
        while self._completions < self.workload.n_requests:
            yield self.env.timeout(interval)
            controller.tick(self.env.now)
            if controller.exhausted:
                return

    # -- checkpoint/restart ------------------------------------------------------
    def run_fingerprint(self, trial_seed):
        """The identity a checkpoint of this run carries (see
        :func:`repro.workload.checkpoint.run_fingerprint`)."""
        machine = self.machine
        return run_fingerprint(
            workload_dict=asdict(self.workload),
            method=self.implementation.method_name,
            machine_dict=asdict(machine.config),
            trial_seed=trial_seed,
            disk_scheduler=machine.disk_scheduler,
            shared_queue_workers=machine.shared_queue_workers,
            fault_description=[plan.describe()
                               for plan in getattr(machine, "fault_plans", [])
                               if plan is not None],
            admission=self.admission_policy.describe(),
            controller=self._controller_config.describe()
            if self._controller_config is not None else None,
        )

    def write_checkpoint(self, path=None):
        """Snapshot the fold state (atomic write); see :class:`RunCheckpoint`."""
        target = self.checkpoint_path if path is None else path
        if target is None:
            raise ValueError("no checkpoint path configured")
        RunCheckpoint(
            fingerprint=self._fingerprint,
            folded=self._folded,
            response_sketch=self._response_sketch.as_dict(),
            service_sketch=self._service_sketch.as_dict(),
            aggregates=dict(self._totals),
            max_in_flight=self.max_in_flight,
            class_sketches=self._serialised_class_sketches(),
            controller=self._controller.state()
            if self._controller is not None else None,
        ).save(target)

    def _restore(self, checkpoint):
        if checkpoint.fingerprint != self._fingerprint:
            raise CheckpointError(
                f"checkpoint fingerprint {checkpoint.fingerprint} does not "
                f"match this run ({self._fingerprint}): it belongs to a "
                f"different workload, machine, method or seed")
        self._folded = IndexRanges(checkpoint.folded.as_list())
        if checkpoint.response_sketch:
            self._response_sketch = QuantileSketch.from_dict(
                checkpoint.response_sketch)
        if checkpoint.service_sketch:
            self._service_sketch = QuantileSketch.from_dict(
                checkpoint.service_sketch)
        if checkpoint.class_sketches and self._class_sketches is not None:
            self._class_sketches = {
                int(cls): QuantileSketch.from_dict(data)
                for cls, data in checkpoint.class_sketches.items()}
        self._totals.update(checkpoint.aggregates)
        self.max_in_flight = max(self.max_in_flight, checkpoint.max_in_flight)
        # The controller's state is *not* restored: the resumed replay
        # re-runs the whole simulation deterministically (only re-folding is
        # skipped), so the controller re-derives every observation, K change
        # and shed decision exactly.  The checkpoint still carries the
        # snapshot so operators can inspect a run's control state offline.

    def _closed_loop_client(self, trial_seed, arrival, client_index):
        """One closed-loop client: its share of the stream, one at a time.

        Request indices are dealt round-robin over the client population, so
        request *i*'s plan stays a pure function of (seed, i) no matter how
        many clients run.
        """
        workload = self.workload
        first = True
        for index in range(client_index, workload.n_requests,
                           workload.concurrency):
            if not first:
                # Think time separates a completion from the client's *next*
                # request; the first request of each client is issued at once.
                think = arrival.think_time_for(trial_seed, index)
                if think > 0:
                    yield self.env.timeout(think)
            first = False
            yield from self._handle_request(trial_seed, index, self.env.now)

    def _open_loop(self, trial_seed, arrival):
        """The open loop: spawn request handlers from an arrival cursor.

        The cursor walks arrival times in index order (cumulative
        interarrival sums) but only keeps ``self._window`` handlers alive at
        once: the next handler is spawned when a handler is *admitted*
        (freeing a window slot) and its arrival time has been reached; it
        carries its planned arrival time, not its spawn time.  Because the
        window always holds the earliest-index pending requests and exceeds
        the number of admission slots that can free at one instant, every
        admission grant finds the request at the simulated time it would
        with one handler per arrival — the backlog beyond the window exists
        only as the not-yet-advanced cursor, at zero memory.
        """
        workload = self.workload
        clock = self.env.now
        for index in range(workload.n_requests):
            clock += arrival.interarrival(trial_seed, index)
            while self._window_pending >= self._window:
                self._window_waiter = self.env.event()
                yield self._window_waiter
            delay = clock - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._window_pending += 1
            self.env.process(self._handle_request(trial_seed, index, clock))
        # Completion of the last handler fires self._complete_event.

    def _note_admitted(self):
        """Open-loop bookkeeping: an admission frees a window slot."""
        if self._window_pending is None:
            return
        self._window_pending -= 1
        waiter = self._window_waiter
        if waiter is not None and self._window_pending < self._window:
            self._window_waiter = None
            waiter.succeed()

    def _note_completed(self):
        """Count a terminal session; the last one ends an open-loop run."""
        self._completions += 1
        if self._complete_event is not None \
                and self._completions == self.workload.n_requests:
            self._complete_event.succeed()

    def _fold_session(self, arrival_time, admitted_time, completed_time,
                      session, priority=0):
        """Fold one completed session into the mergeable aggregates."""
        counters = session.result.counters
        moved = session.bytes_moved
        requested = session.bytes_requested
        failed = counters.get("failed_bytes", 0)
        totals = self._totals
        totals["completed"] += 1
        totals["bytes_requested"] += requested
        totals["bytes_moved"] += moved
        totals["bytes_failed"] += failed
        totals["bytes_lost"] += counters.get("lost_bytes", 0)
        totals["retries"] += counters.get("retries", 0)
        totals["degraded"] += counters.get("degraded", 0)
        # Lazily-created session counters (checksum verification) surface as
        # lazily-created aggregate keys, so healthy results keep their shape.
        scrub = counters.get("scrub_errors", 0)
        if scrub:
            totals["scrub_errors"] = totals.get("scrub_errors", 0) + scrub
        if moved + failed != requested:
            totals["conserved"] = False
        if totals["first_arrival"] is None \
                or arrival_time < totals["first_arrival"]:
            totals["first_arrival"] = arrival_time
        if totals["last_completion"] is None \
                or completed_time > totals["last_completion"]:
            totals["last_completion"] = completed_time
        self._response_sketch.add(completed_time - arrival_time)
        self._service_sketch.add(completed_time - admitted_time)
        if self._class_sketches is not None:
            self._class_sketches.setdefault(priority, QuantileSketch()).add(
                completed_time - arrival_time)
        if self.checkpoint_every and self.checkpoint_path \
                and totals["completed"] % self.checkpoint_every == 0:
            self.write_checkpoint()

    def _fold_drop(self, arrival_time, ticket, outcome):
        """Fold one rejected session (deadline drop or load shed).

        Its bytes move to ``bytes_shed`` so conservation stays exact:
        ``bytes_moved + bytes_failed + bytes_shed == bytes_requested``.
        A rejected session still marks the first arrival (it was offered
        load) but never a completion.
        """
        totals = self._totals
        totals["bytes_requested"] += ticket.size_bytes
        totals["bytes_shed"] += ticket.size_bytes
        totals["dropped" if outcome == DROPPED else "shed"] += 1
        if totals["first_arrival"] is None \
                or arrival_time < totals["first_arrival"]:
            totals["first_arrival"] = arrival_time

    def _handle_request(self, trial_seed, index, arrival_time):
        """Admit, run and account one collective request.

        *arrival_time* is the request's planned arrival: an open-loop
        handler may be spawned after it when the window is full.
        """
        striped_file, pattern = self.plan_request(trial_seed, index)
        priority, slack = session_qos(trial_seed, index,
                                      self.workload.priority_levels,
                                      self.workload.deadline_slack,
                                      streams=self._streams)
        slot = self.admission.request(AdmissionTicket(
            index=index,
            arrival_time=arrival_time,
            enqueue_time=self.env.now,
            size_bytes=pattern.total_transfer_bytes(),
            priority=priority,
            deadline=None if slack is None else arrival_time + slack,
        ))
        yield slot
        if not slot.admitted:
            # Rejected at admission (deadline drop or load shed): the
            # session is terminal without ever running; account its bytes
            # as shed so conservation holds, free the open-loop window
            # slot, and count the completion so the run can finish.
            self._note_admitted()
            if index not in self._folded:
                self._folded.add(index)
                self._fold_drop(arrival_time, slot.ticket, slot.outcome)
            if self._records is not None:
                self._records[index] = {
                    "index": index,
                    "file": striped_file.name,
                    "pattern": pattern.name,
                    "mode": pattern.mode,
                    "arrival_time": arrival_time,
                    "admitted_time": None,
                    "completed_time": None,
                    "outcome": slot.outcome,
                    "record_size": pattern.record_size,
                    "bytes_requested": slot.ticket.size_bytes,
                    "bytes_moved": 0,
                    "bytes_shed": slot.ticket.size_bytes,
                }
            self._note_completed()
            return
        admitted_time = self.env.now
        self._in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self._in_flight)
        self._note_admitted()
        session = self.implementation.begin_transfer(pattern, striped_file)
        yield session.done
        self._in_flight -= 1
        self.admission.release(slot)
        completed_time = self.env.now
        if self._controller is not None:
            # The controller is part of the simulation (it drives K), so it
            # observes *every* completion — including ones a resumed replay
            # skips re-folding below.
            self._controller.observe(completed_time - arrival_time)
        if index not in self._folded:
            # Resumed replays skip sessions the checkpoint already folded;
            # their aggregate contribution was restored from the checkpoint.
            self._folded.add(index)
            self._fold_session(arrival_time, admitted_time, completed_time,
                               session, priority=priority)
        if self._records is not None:
            self._records[index] = {
                "index": index,
                "file": striped_file.name,
                "pattern": pattern.name,
                "mode": pattern.mode,
                "arrival_time": arrival_time,
                "admitted_time": admitted_time,
                "completed_time": completed_time,
                "record_size": pattern.record_size,
                "bytes_requested": session.bytes_requested,
                "bytes_moved": session.bytes_moved,
                # Fault accounting (all zero on a healthy machine),
                # snapshotted from the completed session's result so
                # concurrent requests cannot bleed into each other's tallies.
                "bytes_failed": session.result.counters.get("failed_bytes", 0),
                "bytes_lost": session.result.counters.get("lost_bytes", 0),
                "retries": session.result.counters.get("retries", 0),
                "degraded": session.result.counters.get("degraded", 0),
            }
        self._note_completed()


def build_service_machine(workload, machine_config=None, seed=None,
                          method="disk-directed", disk_scheduler="fcfs",
                          shared_queue_workers=2, fault_config=None,
                          on_fault="retry", device="disk", redundancy="none",
                          rebuild_bandwidth=0.0, **fs_kwargs):
    """Construct (machine, implementation, files) ready for a :class:`ServiceDriver`.

    The trial seed controls disk layout seeds, rotational positions and —
    when the workload samples a heavy-tailed size distribution — the per-file
    sizes, just as in the single-collective experiments.  ``disk_scheduler``
    is the machine-wide scheduling knob (``fcfs`` | ``sstf`` | ``cscan`` for
    the drive queue, ``shared-cscan`` etc. for cross-collective IOP
    scheduling — see :class:`repro.machine.Machine`);
    ``shared_queue_workers`` sizes each shared queue's worker pool (the
    per-drive buffer budget, the paper's double-buffering 2 by default).

    ``fault_config`` (a :class:`~repro.disk.faults.FaultConfig`) injects
    deterministic drive faults; when it actually enables anything the file
    system also gets a :class:`~repro.disk.faults.FaultPolicy` built from
    ``on_fault`` (``retry`` | ``degrade`` | ``abort``) unless the caller
    passes an explicit ``fault_policy``.  A disabled/None fault config adds
    neither, keeping healthy runs bit-identical to pre-fault builds.

    ``redundancy="parity"`` builds the declustered parity layer of
    :mod:`repro.disk.redundancy` (hot spare, degraded reads, background
    rebuild under ``rebuild_bandwidth``) and registers every file's extent
    map with it so rebuild knows which rows hold live data; the default
    ``"none"`` builds a byte-identical machine to the pre-redundancy tree.
    """
    config = machine_config if machine_config is not None else MachineConfig()
    trial_seed = workload.seed if seed is None else seed
    machine = Machine(config, seed=trial_seed, disk_scheduler=disk_scheduler,
                      shared_queue_workers=shared_queue_workers,
                      fault_config=fault_config, device=device,
                      redundancy=redundancy,
                      rebuild_bandwidth=rebuild_bandwidth)
    if fault_config is not None and fault_config.enabled:
        fs_kwargs.setdefault("fault_policy", FaultPolicy(on_fault=on_fault))
    filesystem = FileSystem(config, layout_seed=trial_seed,
                            redundancy=redundancy)
    sizes = workload.sample_sizes(trial_seed)
    files = [
        filesystem.create_file(f"svc-{index}", sizes[index],
                               layout=workload.layout)
        for index in range(workload.n_files)
    ]
    if machine.parity is not None:
        for striped in files:
            machine.parity.register_file(striped)
    implementation = make_filesystem(method, machine, **fs_kwargs)
    return machine, implementation, files


def run_service(method, workload, machine_config=None, seed=None,
                disk_scheduler="fcfs", shared_queue_workers=2,
                fault_config=None, on_fault="retry", watchdog=None,
                retain_requests=True, checkpoint_every=0,
                checkpoint_path=None, resume_from=None,
                admission_policy="fifo", admission_aging=0.0,
                edf_service_rate=0.0, controller=None,
                device="disk", redundancy="none",
                rebuild_bandwidth=0.0, **fs_kwargs):
    """Build a machine, drive *workload* through it, return the :class:`ServiceResult`.

    Extra keyword arguments are forwarded to the file-system implementation
    (e.g. ``batch_requests=False`` to run traditional caching with the
    per-record simulator batching disabled — the benchmark baseline).
    ``fault_config`` / ``on_fault`` inject deterministic drive faults and
    pick the client response (see :func:`build_service_machine`);
    ``watchdog`` bounds wall time without simulated progress.

    ``retain_requests=False`` runs the driver in constant-memory streaming
    mode: no per-request records, nothing else changes (percentiles come
    from the mergeable sketch either way).  ``checkpoint_every``/``checkpoint_path``
    write periodic fold-state checkpoints and ``resume_from`` restores one
    (see :mod:`repro.workload.checkpoint`).

    ``admission_policy`` names the admission discipline (``fifo`` | ``sjf``
    | ``priority`` | ``edf`` — see :mod:`repro.workload.admission`);
    ``admission_aging`` and ``edf_service_rate`` parameterise SJF's aging
    bound and EDF's meetability estimate.  ``controller`` (a
    :class:`~repro.workload.admission.ControllerConfig` or kwargs dict)
    enables the adaptive-K p99 controller.
    """
    machine, implementation, files = build_service_machine(
        workload, machine_config=machine_config, seed=seed, method=method,
        disk_scheduler=disk_scheduler,
        shared_queue_workers=shared_queue_workers,
        fault_config=fault_config, on_fault=on_fault, device=device,
        redundancy=redundancy, rebuild_bandwidth=rebuild_bandwidth,
        **fs_kwargs)
    driver = ServiceDriver(machine, implementation, files, workload,
                           retain_requests=retain_requests,
                           checkpoint_every=checkpoint_every,
                           checkpoint_path=checkpoint_path,
                           resume_from=resume_from,
                           admission_policy=make_admission_policy(
                               admission_policy,
                               aging_bound=admission_aging,
                               service_rate=edf_service_rate),
                           controller=controller)
    return driver.run(trial_seed=workload.seed if seed is None else seed,
                      watchdog=watchdog)
