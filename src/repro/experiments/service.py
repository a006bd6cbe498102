"""The ``service`` experiment family: concurrent collectives vs offered load.

The paper's figures each time one collective in isolation.  This family
drives the service-style workload of :mod:`repro.workload` — a stream of
mixed read/write collectives over several open files, K admitted at a time —
and plots sustained throughput and response-time percentiles against offered
load, DDIO vs traditional caching.  It is the north-star scenario: a parallel
file *server* under heavy concurrent traffic.

The family plugs into the generic sweep machinery of
:mod:`repro.experiments.runner` (serial/parallel sweeps, on-disk result
cache), so ``ddio-figures service --workers 4 --cache DIR`` works exactly
like the paper figures.
"""

from dataclasses import dataclass, fields, replace

from repro.core.base import filesystem_class
from repro.disk.faults import FaultConfig, FaultPolicy
from repro.disk.flash import matched_ssd_spec
from repro.experiments.config import MEGABYTE, build_machine_config
from repro.experiments.pipeline import service_figure_spec
from repro.experiments.runner import register_experiment_family
from repro.machine import MachineConfig
from repro.machine.machine import check_machine_options
from repro.workload.admission import ControllerConfig, make_admission_policy
from repro.workload.driver import ServiceResult, ServiceWorkload, run_service

KILOBYTE = 1024

#: Offered loads (requests/second) swept by the default service figure.
#: At the default scale (32 x 1 MB collectives, paper machine) the server
#: saturates around 8-9 requests/second, so the sweep spans under-load,
#: saturation and over-load.  The 16-file working set (16 MB) deliberately
#: exceeds the traditional IOP caches (4 MB aggregate) — a server under heavy
#: traffic from many jobs does not fit its working set in cache.
DEFAULT_LOADS = (4.0, 8.0, 16.0)

#: Methods compared by the default service figure.
SERVICE_METHODS = ("disk-directed", "traditional")

#: Wall-clock seconds without simulated progress before a fault-injected
#: trial is declared wedged (a diagnosable DeadlockError, not a hang).
FAULT_WATCHDOG = 120.0


#: The stream of the service figures: 32 mixed collectives over 16 random-
#: layout 1 MB files, Poisson arrivals at 8 requests/second, K=4 admitted.
SERVICE_WORKLOAD = ServiceWorkload(
    n_requests=32, arrival="poisson", arrival_rate=8.0, concurrency=4,
    n_files=16, file_size=MEGABYTE, layout="random", read_fraction=0.7,
    file_assignment="round-robin", pattern_specs=("b", "c"))


@dataclass(frozen=True)
class ServiceExperimentConfig:
    """One data point: a method driven by one service workload on one machine.

    Build one from flat keywords with :func:`service_config`.  The workload's
    ``seed`` is not used: the trial seed is.
    """

    method: str = "disk-directed"
    workload: ServiceWorkload = SERVICE_WORKLOAD
    #: injected drive faults (all defaults: a healthy machine, bit-identical
    #: to pre-fault builds; see repro.disk.faults and docs/faults.md)
    faults: FaultConfig = FaultConfig()
    #: the adaptive-K SLO controller (None: static K)
    controller: ControllerConfig | None = None
    n_cps: int = 16
    n_iops: int = 16
    n_disks: int = 16
    block_size: int = 8192
    #: machine-wide scheduling: ``fcfs`` is the paper's drive queue (each
    #: DDIO collective presorts for itself); ``shared-cscan`` merges all
    #: active collectives into one elevator per disk at the IOP.
    disk_scheduler: str = "fcfs"
    #: worker-pool size of each shared per-disk queue (the per-drive buffer
    #: budget; the paper's double-buffering 2).  Only meaningful with a
    #: ``shared-*`` scheduler.
    shared_queue_workers: int = 2
    #: storage backend: ``disk`` (the paper's HP 97560) or ``ssd`` (the
    #: bandwidth-matched flash model of :mod:`repro.disk.flash`).
    device: str = "disk"
    #: client response to errored requests: ``retry`` | ``degrade`` | ``abort``
    on_fault: str = "retry"
    # -- redundancy & integrity (defaults: none; docs/redundancy.md) ------
    #: ``none`` or ``parity`` (declustered RAID-5 layer: rotated parity,
    #: hot spare, degraded reads, background rebuild)
    redundancy: str = "none"
    #: rebuild bandwidth cap, bytes/s of reconstructed data (0: the module
    #: default, ~4 MB/s)
    rebuild_bandwidth: float = 0.0
    #: verify per-block checksums at the client on every read (end-to-end
    #: integrity; detects silent corruption, repaired via parity when on)
    checksums: bool = False
    #: run the driver in constant-memory streaming mode: no per-request
    #: record list, percentiles from the mergeable sketch only (they come
    #: from the sketch either way) — required for million-session points
    streaming: bool = False
    # -- admission control (defaults: FIFO; repro.workload.admission) -----
    #: admission discipline: ``fifo`` | ``sjf`` | ``priority`` | ``edf``
    admission_policy: str = "fifo"
    #: SJF aging bound, seconds (0: the policy default)
    admission_aging: float = 0.0
    #: EDF meetability estimate, bytes/s (0: deadline-passed only)
    edf_service_rate: float = 0.0
    seed: int = 0
    label: str = ""

    def __post_init__(self):
        # Fail at construction, not inside (or silently through) the run.
        check_machine_options(build_machine_config(self), self.disk_scheduler,
                              self.shared_queue_workers, self.faults,
                              self.device, self.redundancy,
                              self.rebuild_bandwidth)
        filesystem_class(self.method)
        FaultPolicy(on_fault=self.on_fault)
        make_admission_policy(self.admission_policy,
                              aging_bound=self.admission_aging,
                              service_rate=self.edf_service_rate)

    def describe(self):
        """Readable one-liner for logs and progress lines."""
        workload = self.workload
        return (f"{self.method} service "
                f"{workload.arrival}@{workload.arrival_rate:g}/s "
                f"K={workload.concurrency} {workload.n_requests} reqs x "
                f"{workload.file_size // KILOBYTE} KB files={workload.n_files} "
                f"cps={self.n_cps} iops={self.n_iops} disks={self.n_disks} "
                f"sched={self.disk_scheduler}")


#: Each field of ServiceExperimentConfig that holds a config -> its class.
_SUB_CONFIGS = {"workload": ServiceWorkload, "faults": FaultConfig,
                "controller": ControllerConfig}

_DEFAULTS = {field.name: field.default
             for field in fields(ServiceExperimentConfig)}

#: Field name -> the field of ServiceExperimentConfig whose config declares
#: it (None: the config's own field; ``seed`` is one).
_OWNERS = {**{field.name: holder for holder, cls in _SUB_CONFIGS.items()
              for field in fields(cls)}, **dict.fromkeys(_DEFAULTS)}


def service_config(**settings):
    """A :class:`ServiceExperimentConfig` from flat keywords.

    Each keyword goes to the dataclass that declares it: the config itself,
    or its workload, faults or controller under the sub-config's own field
    name (``arrival_rate=8.0``, ``slow_disk=0``, ``target_p99=2.0``).  Such
    keywords replace fields of the sub-config given whole (``faults=...``),
    else of the default one; any controller keyword turns the controller
    on.  An unknown name raises ``ValueError``.
    """
    grouped = {}
    for name, value in settings.items():
        if name not in _OWNERS:
            raise ValueError(f"no service config field is named {name!r}")
        grouped.setdefault(_OWNERS[name], {})[name] = value
    own = grouped.pop(None, {})
    for holder, values in grouped.items():
        base = own.get(holder, _DEFAULTS[holder])
        own[holder] = _SUB_CONFIGS[holder](**values) if base is None \
            else replace(base, **values)
    return ServiceExperimentConfig(**own)


def run_service_experiment(config, seed=None):
    """Run one service trial and return its :class:`ServiceResult`."""
    if not isinstance(config, ServiceExperimentConfig):
        raise TypeError(
            f"expected ServiceExperimentConfig, got {type(config).__name__}")
    # Healthy: no fault plans and no fault policy, bit-identical to
    # pre-fault builds.
    faults = config.faults if config.faults.enabled else None
    return run_service(
        config.method,
        config.workload,
        machine_config=build_machine_config(config),
        seed=config.seed if seed is None else seed,
        disk_scheduler=config.disk_scheduler,
        shared_queue_workers=config.shared_queue_workers,
        device=config.device,
        redundancy=config.redundancy,
        rebuild_bandwidth=config.rebuild_bandwidth,
        checksums=config.checksums,
        fault_config=faults,
        on_fault=config.on_fault,
        retain_requests=not config.streaming,
        admission_policy=config.admission_policy,
        admission_aging=config.admission_aging,
        edf_service_rate=config.edf_service_rate,
        controller=config.controller,
        # Insurance for fault sweeps: a scenario that wedges the protocol
        # raises a diagnosable DeadlockError instead of hanging the sweep.
        watchdog=FAULT_WATCHDOG if faults is not None else None,
    )


register_experiment_family(ServiceExperimentConfig, run_service_experiment,
                           ServiceResult)


# -- the shared grid builder and row helpers -------------------------------------

def _grid(points, overrides, fixed=None, **swept_by):
    """One :func:`service_config` per grid point.

    *points* holds the flat keywords each point sets (its label included), in
    sweep order; *fixed* holds the figure's defaults for everything else.
    *overrides* (the figure's extra keyword arguments) may replace any fixed
    default but no field a point sets, nor any field *swept_by* names: it
    maps each swept field to the figure parameter that sets it, which the
    :class:`ValueError` names.
    """
    per_point = {key for point in points for key in point}
    for key in overrides:
        if key in per_point or key in swept_by:
            hint = (f"; use its {swept_by[key]} argument"
                    if key in swept_by else "")
            raise ValueError(
                f"{key} is set per grid point by this figure{hint}")
    settings = {**(fixed or {}), **overrides}
    return [service_config(**settings, **point) for point in points]


def _mean(values):
    """The figures' average over trials: ``sum / len``, 0.0 when empty.

    Not :func:`statistics.fmean`, which rounds once at the end and so can
    differ in the last bit at three or more trials.
    """
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _by_load(column):
    """Series points of one row: ``column`` against its offered load."""
    return lambda row: [(row["load_req_s"], row[column])]


def _load_method_points(loads, methods):
    return [dict(method=method, arrival_rate=load, label=f"{method}@{load:g}")
            for load in loads for method in methods]


def _short(config):
    """Series name of a method: DDIO, or the method with TC for traditional."""
    if config.method.startswith("disk-directed"):
        return "DDIO"
    return config.method.replace("traditional", "TC")


def _stem(config):
    """Series name from the label, less its ``@load`` suffix."""
    return config.label.split("@", 1)[0]


def _percentile(results, q):
    return _mean(result.response_percentile(q) for result in results)


_THROUGHPUT = ("Sustained throughput (Mbytes/s) vs offered load (req/s)",
               "load", _by_load("throughput_mb"))
_P99_MS = ("99th-percentile response time (ms) vs offered load (req/s)",
           "load", _by_load("p99_ms"))


# -- the figure ------------------------------------------------------------------

def service_configs(loads=DEFAULT_LOADS, methods=SERVICE_METHODS, **overrides):
    """The config grid of the service figure: one point per (load, method)."""
    return _grid(_load_method_points(loads, methods), overrides,
                 method="methods", arrival_rate="loads")


def _service_header(sample, arguments):
    workload = sample.workload
    return (f"Service workload: {workload.n_requests} mixed collectives "
            f"({workload.read_fraction:.0%} reads) over {workload.n_files} "
            f"{workload.file_size // KILOBYTE} KB {workload.layout} files, "
            f"K={workload.concurrency} admitted, {workload.arrival} arrivals")


def _service_row(summary):
    config, results = summary.config, summary.results
    return {
        "method": config.method,
        "load_req_s": config.workload.arrival_rate,
        "throughput_mb": summary.mean_throughput_mb,
        "p50_ms": _percentile(results, 0.50) * 1e3,
        "p99_ms": _percentile(results, 0.99) * 1e3,
        "max_in_flight": max(result.max_in_flight for result in results),
        "trials": len(results),
    }


@service_figure_spec(
    name="service", configs=service_configs, header=_service_header,
    row=_service_row,
    columns=("method", "load_req_s", "throughput_mb", "p50_ms", "p99_ms",
             "max_in_flight", "trials"),
    series_name=_short,
    series=(_THROUGHPUT,
            ("Median response time (ms) vs offered load (req/s)", "load",
             _by_load("p50_ms")),
            _P99_MS))
def service_figure(loads=DEFAULT_LOADS, methods=SERVICE_METHODS, trials=1,
                   progress=None, workers=None, cache=None, **overrides):
    """Throughput and response-time percentiles vs offered load, per method.

    Returns ``(summaries, text)`` like every other figure generator.  Extra
    keyword arguments override fields of the config or of its sub-configs,
    by their own names (:func:`service_config`; e.g. ``n_cps=4,
    file_size=128*1024`` for a laptop-scale run, ``slow_disk=0``).
    """


# -- the scheduler-comparison figure ---------------------------------------------

#: Concurrency levels swept by the scheduler figure: the K>1 points are where
#: per-collective presorted streams interleave at the drive.
SCHEDULER_CONCURRENCIES = (1, 2, 4, 8)

#: The scheduling regimes compared: each DDIO collective presorting for
#: itself over a FCFS drive queue (the paper's single-collective design,
#: unchanged under concurrency) vs one shared elevator (CSCAN) or
#: shortest-seek queue (SSTF) per disk at the IOP merging all active
#: collectives.
SCHEDULER_CHOICES = ("fcfs", "shared-sstf", "shared-cscan")

#: Offered loads for the scheduler figure (requests/second).
SCHEDULER_LOADS = (8.0, 16.0)

#: Worker-pool sizes per shared queue swept by the scheduler figure: the
#: per-drive buffer budget (the paper's double-buffering is 2).
SCHEDULER_POOL_SIZES = (2,)


def service_scheduler_configs(loads=SCHEDULER_LOADS,
                              concurrencies=SCHEDULER_CONCURRENCIES,
                              schedulers=SCHEDULER_CHOICES,
                              pool_sizes=SCHEDULER_POOL_SIZES, **overrides):
    """The config grid: one point per (K, scheduler, pool size, load), DDIO only.

    Worker-pool size only matters under shared scheduling, so ``fcfs`` points
    are generated once — at the sweep's first pool size, keeping the baseline
    row consistent with the sweep it anchors — however many *pool_sizes* are
    swept; a pool sweep does not duplicate the baseline.
    """
    points = []
    for concurrency in concurrencies:
        for scheduler in schedulers:
            shared = scheduler.startswith("shared-")
            for pool in (pool_sizes if shared else pool_sizes[:1]):
                name = f"K={concurrency} {scheduler}"
                if shared and len(pool_sizes) > 1:
                    name += f" w={pool}"
                points += [dict(method="disk-directed",
                                concurrency=concurrency,
                                disk_scheduler=scheduler,
                                shared_queue_workers=pool, arrival_rate=load,
                                label=f"{name}@{load:g}") for load in loads]
    return _grid(points, overrides,
                 concurrency="concurrencies", disk_scheduler="schedulers",
                 shared_queue_workers="pool_sizes", arrival_rate="loads")


def _scheduler_header(sample, arguments):
    workload = sample.workload
    return (f"Cross-collective IOP scheduling (disk-directed I/O): "
            f"per-collective sort (fcfs drive queue) vs shared per-disk queues\n"
            f"{workload.n_requests} mixed collectives "
            f"({workload.read_fraction:.0%} reads) over {workload.n_files} "
            f"{workload.file_size // KILOBYTE} KB {workload.layout} files, "
            f"{workload.arrival} arrivals")


def _scheduler_row(summary):
    config = summary.config
    return {
        "K": config.workload.concurrency,
        "scheduler": config.disk_scheduler,
        "workers": config.shared_queue_workers,
        "load_req_s": config.workload.arrival_rate,
        "throughput_mb": summary.mean_throughput_mb,
        "p99_ms": _percentile(summary.results, 0.99) * 1e3,
        "trials": len(summary.results),
    }


@service_figure_spec(
    name="service-sched", configs=service_scheduler_configs,
    header=_scheduler_header, row=_scheduler_row,
    columns=("K", "scheduler", "workers", "load_req_s", "throughput_mb",
             "p99_ms", "trials"),
    series_name=_stem, series=(_THROUGHPUT, _P99_MS))
def service_scheduler_figure(loads=SCHEDULER_LOADS,
                             concurrencies=SCHEDULER_CONCURRENCIES,
                             schedulers=SCHEDULER_CHOICES,
                             pool_sizes=SCHEDULER_POOL_SIZES, trials=1,
                             progress=None, workers=None, cache=None,
                             **overrides):
    """Cross-collective IOP scheduling vs per-collective presort, K∈{1,2,4,8}.

    The K>1 pathology: every DDIO session presorts its own block list, so at
    concurrency K the drive sees K interleaved sorted streams — forfeiting
    the single-collective sort benefit the paper demonstrates.  The shared
    per-disk queue at the IOP merges the streams back into one sweep; this
    figure compares the CSCAN elevator against greedy SSTF (and, via
    *pool_sizes*, the per-drive worker-pool budget) at each K.  The regimes
    should coincide at K=1 and diverge in the shared policies' favour as K
    grows.

    Returns ``(summaries, text)`` like every other figure generator; extra
    keyword arguments override :class:`ServiceExperimentConfig` fields.
    """


# -- the overload figure ----------------------------------------------------------

#: Offered loads (requests/second) swept by the overload figure.  The default
#: service machine saturates around 8-9 req/s, so the sweep reaches ~4x
#: saturation — deep into the regime where an open loop's queue grows without
#: bound and response time is governed by the asymptote, not the mean.
OVERLOAD_LOADS = (4.0, 8.0, 16.0, 24.0, 32.0)

#: Methods compared by the overload figure.
OVERLOAD_METHODS = ("disk-directed", "traditional")

#: The server the overload, fault, rebuild and admission figures share: 32
#: disks over the default 16 IOPs, random layout, 32 requests, K=4.
OVERLOAD_SERVER = dict(n_disks=32, n_requests=32, concurrency=4,
                       layout="random")

#: The overload stream: Pareto (alpha=1.5) file sizes and a record mix that
#: includes the paper's 8-byte worst case.
OVERLOAD_STREAM = dict(size_distribution="pareto", size_alpha=1.5,
                       record_sizes=(8, 8192))


def service_overload_configs(loads=OVERLOAD_LOADS, methods=OVERLOAD_METHODS,
                             **overrides):
    """The config grid of the overload figure: one point per (load, method).

    Defaults describe the paper's worst case scaled to a server: Pareto
    (alpha=1.5) file sizes with mean 1 MB, a record-size mix that includes
    the 8-byte cyclic requests of Figure 3, random layout, and a larger
    machine (32 disks over 16 IOPs) so the overload comes from the request
    stream, not from an undersized back end.
    """
    return _grid(_load_method_points(loads, methods), overrides,
                 {**OVERLOAD_STREAM, **OVERLOAD_SERVER},
                 method="methods", arrival_rate="loads")


def _overload_header(sample, arguments):
    workload = sample.workload
    record_mix = ",".join(map(str, workload.effective_record_sizes))
    return (f"Overload study: {workload.arrival} arrivals to "
            f"~{max(arguments['loads']):g} req/s, "
            f"{workload.size_distribution} file sizes (mean "
            f"{workload.file_size // KILOBYTE} KB, "
            f"alpha={workload.size_alpha:g}), "
            f"record mix {{{record_mix}}} bytes, {workload.layout} layout, "
            f"{sample.n_cps} CPs / {sample.n_iops} IOPs / {sample.n_disks} "
            f"disks, K={workload.concurrency}")


def _overload_row(summary):
    config, results = summary.config, summary.results
    return {
        "method": config.method,
        "load_req_s": config.workload.arrival_rate,
        "throughput_mb": summary.mean_throughput_mb,
        "mean_rt_s": _mean(result.mean_response_time for result in results),
        "p99_rt_s": _percentile(results, 0.99),
        "max_in_flight": max(result.max_in_flight for result in results),
        "trials": len(results),
    }


@service_figure_spec(
    name="service-overload", configs=service_overload_configs,
    header=_overload_header, row=_overload_row,
    columns=("method", "load_req_s", "throughput_mb", "mean_rt_s",
             "p99_rt_s", "max_in_flight", "trials"),
    series_name=_short,
    series=(_THROUGHPUT,
            ("Mean response time (s) vs offered load (req/s) — the asymptote",
             "load", _by_load("mean_rt_s")),
            ("99th-percentile response time (s) vs offered load (req/s)",
             "load", _by_load("p99_rt_s"))))
def service_overload_figure(loads=OVERLOAD_LOADS, methods=OVERLOAD_METHODS,
                            trials=1, progress=None, workers=None, cache=None,
                            **overrides):
    """Response-time asymptotes under overload: heavy tails + 8-byte records.

    The paper's core claim is that disk-directed I/O stays near hardware
    limits even for its worst patterns while traditional caching collapses.
    The closed-loop service figure cannot show the collapse: offered load
    adapts to capacity.  This figure pushes an *open-loop* Poisson stream to
    ~4x saturation with heavy-tailed (Pareto) file sizes and a record mix
    that includes the 8-byte cyclic worst case, and plots sustained
    throughput plus mean/p99 response time against offered load.  Throughput
    should flatten at each method's capacity (DDIO's plateau higher) while
    response times diverge — and the DDIO:TC response-time gap should
    *widen* with load, because TC burns its IOP CPUs on per-record request
    handling precisely when there is no idle time left to hide it in.

    Returns ``(summaries, text)``; extra keyword arguments override
    :class:`ServiceExperimentConfig` fields (tests run it on a tiny machine).
    """


# -- the million-session figure ----------------------------------------------------

#: Offered loads (requests/second) for the sweep rows of the million-session
#: figure.  The headline machine (8 CPs / 8 IOPs / 128 disks, 8 KB sessions)
#: saturates near 95 req/s under DDIO and ~360 req/s under TC, so the sweep
#: straddles both saturation points.
MILLIONS_LOADS = (50.0, 100.0, 200.0, 400.0)

#: The deep-overload load of the headline rows: far beyond either method's
#: capacity, so the measured completion rate *is* the overload asymptote.
MILLIONS_HEADLINE_LOAD = 800.0

#: Methods compared by the million-session figure.
MILLIONS_METHODS = ("disk-directed", "traditional")

#: Sessions per sweep row (cheap) and per headline row (the million-session
#: asymptote measurement the figure exists for).
MILLIONS_SWEEP_REQUESTS = 50_000
MILLIONS_HEADLINE_REQUESTS = 1_000_000


def service_millions_configs(loads=MILLIONS_LOADS, methods=MILLIONS_METHODS,
                             headline_load=MILLIONS_HEADLINE_LOAD,
                             sweep_requests=MILLIONS_SWEEP_REQUESTS,
                             headline_requests=MILLIONS_HEADLINE_REQUESTS,
                             **overrides):
    """The config grid: (loads + headline_load) x methods, streaming driver.

    Defaults describe the smallest useful session — one 8 KB record against
    a 128-disk machine — because the point of this figure is *session count*,
    not bytes: a million independent arrivals through one simulated server.
    Every config runs with ``streaming=True`` (no per-request record list),
    which is what makes the million-session rows possible at all.
    """
    fixed = dict(
        n_cps=8,
        n_iops=8,
        n_disks=128,
        n_files=64,
        file_size=8 * KILOBYTE,
        layout="contiguous",
        pattern_specs=("b",),
        record_size=8192,
        concurrency=64,
        streaming=True,
    )
    points = [dict(method=method, arrival_rate=load,
                   n_requests=headline_requests if load == headline_load
                   else sweep_requests, label=f"{method}@{load:g}")
              for load in (*loads, headline_load) for method in methods]
    return _grid(points, overrides, fixed, method="methods",
                 arrival_rate="loads/headline_load",
                 n_requests="sweep_requests/headline_requests")


def _millions_header(sample, arguments):
    workload = sample.workload
    return (f"Million-session overload asymptote: {workload.arrival} arrivals "
            f"to {arguments['headline_load']:g} req/s, "
            f"{arguments['headline_requests']} sessions per headline row "
            f"({arguments['sweep_requests']} per sweep row), "
            f"{workload.file_size // KILOBYTE} KB sessions over "
            f"{workload.n_files} {workload.layout} files, {sample.n_cps} CPs / "
            f"{sample.n_iops} IOPs / {sample.n_disks} disks, "
            f"K={workload.concurrency}, streaming driver")


def _millions_row(summary):
    config, results = summary.config, summary.results
    return {
        "method": config.method,
        "load_req_s": config.workload.arrival_rate,
        "n_requests": config.workload.n_requests,
        "completion_rate_s": _mean(
            result.aggregates.get("completed", result.n_requests)
            / result.elapsed for result in results if result.elapsed > 0),
        "throughput_mb": summary.mean_throughput_mb,
        "p50_rt_s": _percentile(results, 0.50),
        "p99_rt_s": _percentile(results, 0.99),
        "max_in_flight": max(result.max_in_flight for result in results),
        "trials": len(results),
    }


@service_figure_spec(
    name="service-millions", configs=service_millions_configs,
    header=_millions_header, row=_millions_row,
    columns=("method", "load_req_s", "n_requests", "completion_rate_s",
             "throughput_mb", "p50_rt_s", "p99_rt_s", "max_in_flight",
             "trials"),
    series_name=_short,
    series=(("Completion rate (sessions/s) vs offered load (req/s) — the "
             "asymptote", "load", _by_load("completion_rate_s")),
            ("99th-percentile response time (s) vs offered load (req/s)",
             "load", _by_load("p99_rt_s"))),
    artifact=("arrival", "file_size", "record_size", "layout", "n_files",
              "n_cps", "n_iops", "n_disks", "concurrency", "streaming",
              "headline_load", "headline_requests", "sweep_requests",
              "trials", "seed"))
def service_millions_figure(loads=MILLIONS_LOADS, methods=MILLIONS_METHODS,
                            headline_load=MILLIONS_HEADLINE_LOAD,
                            sweep_requests=MILLIONS_SWEEP_REQUESTS,
                            headline_requests=MILLIONS_HEADLINE_REQUESTS,
                            trials=1, progress=None, workers=None, cache=None,
                            json_path=None, **overrides):
    """The overload asymptote, measured directly: a million 8 KB sessions.

    The overload figure extrapolates each method's asymptote from 32-request
    runs; this figure *measures* it.  An open-loop Poisson stream is pushed
    to ~8x DDIO saturation and run for a million sessions per headline row —
    only possible because the streaming driver folds every completed session
    into mergeable aggregates (constant memory in the session count) instead
    of retaining per-request records.  The sweep rows trace the approach to
    saturation; the headline rows pin the asymptote to three digits.

    At this scale the result inverts the paper's headline, honestly: an
    8 KB session is a single block per file, so DDIO's per-collective setup
    (presort, per-disk streams across 8 IOPs) is pure overhead and
    traditional caching's asymptote is the higher one.  DDIO's advantage is
    a *per-byte* one that grows with transfer size — which is exactly what
    the paper says, read from the other side.

    When *json_path* is given, the rows are also written as the
    ``docs/data/service_millions.json`` artifact quoted by the docs.

    Returns ``(summaries, text)``; extra keyword arguments override
    :class:`ServiceExperimentConfig` fields (tests shrink the run this way).
    """


# -- the fault-injection figure ----------------------------------------------------

#: The fault scenarios swept by the ``service-faults`` figure, in sweep
#: order: name -> FaultConfig field overrides.  The sweep
#: spans the taxonomy of repro.disk.faults — transient media errors at two
#: rates, one fail-slow drive, one fail-stop drive out of 32, and the
#: combined "sick disk" — always against the healthy baseline.
FAULT_SCENARIOS = (
    ("healthy", {}),
    ("transient-1pct", {"transient_rate": 0.01}),
    ("transient-5pct", {"transient_rate": 0.05}),
    ("fail-slow-4x", {"slow_disk": 0, "slow_factor": 4.0, "slow_start": 0.0,
                      "slow_duration": 3600.0}),
    ("fail-stop", {"fail_stop_disk": 0, "fail_stop_time": 1.0}),
    ("sick-disk", {"transient_rate": 0.01, "slow_disk": 0, "slow_factor": 4.0,
                   "slow_start": 0.0, "slow_duration": 3600.0,
                   "fail_stop_disk": 0, "fail_stop_time": 2.0}),
)

#: Methods compared by the fault figure.
FAULT_METHODS = ("disk-directed", "traditional")

#: Offered load for the fault figure (requests/second): near saturation, so
#: retry storms and a lost drive bite while the healthy baseline still keeps
#: up — degradation, not overload, is what the figure isolates.
FAULT_LOAD = 8.0


def service_faults_configs(scenarios=FAULT_SCENARIOS, methods=FAULT_METHODS,
                           load=FAULT_LOAD, device="disk", **overrides):
    """The config grid of the fault figure: one point per (scenario, method).

    Defaults mirror the overload machine (32 disks over 16 IOPs, random
    layout) so "one fail-stop drive" means losing 1/32 of the spindles, but
    with fixed file sizes and a single near-saturation load so every delta
    against the healthy row is attributable to the injected faults.
    *device* swaps the storage backend (``disk`` / ``ssd``) so the same
    fault taxonomy can be priced on flash.  *load* is the default
    ``arrival_rate``, which an override may replace (tests shrink the run
    this way).
    """
    fixed = dict(OVERLOAD_SERVER, device=device, arrival_rate=load)
    points = [dict(method=method, label=f"{scenario}:{method}", **faults)
              for scenario, faults in scenarios for method in methods]
    swept = {field: "scenarios" for _, faults in scenarios for field in faults}
    return _grid(points, overrides, fixed, method="methods", **swept)


def _faults_header(sample, arguments):
    workload = sample.workload
    return (f"Fault injection on {sample.device}: "
            f"{len(arguments['scenarios'])} scenarios x DDIO/TC under "
            f"bounded retry (on_fault={sample.on_fault!r}), "
            f"{workload.arrival}@{workload.arrival_rate:g} req/s, "
            f"{workload.n_requests} mixed "
            f"collectives over {workload.n_files} {workload.layout} files, "
            f"{sample.n_cps} CPs / {sample.n_iops} IOPs / {sample.n_disks} "
            f"disks")


def _faults_row(summary):
    config, results = summary.config, summary.results
    return {
        "scenario": config.label.split(":", 1)[0],
        "method": config.method,
        "goodput_mb": _mean(result.goodput_mb for result in results),
        "p99_ms": _percentile(results, 0.99) * 1e3,
        "failed_mb": _mean(result.failed_bytes / MEGABYTE
                           for result in results),
        "lost_mb": _mean(result.lost_bytes / MEGABYTE for result in results),
        "retries": _mean(result.total_retries for result in results),
        "degraded": _mean(result.degraded_requests for result in results),
        "trials": len(results),
    }


def _faults_derived(sample, call):
    return {"scenarios": [name for name, _ in call["scenarios"]],
            "load_req_s": sample.workload.arrival_rate}


@service_figure_spec(
    name="service-faults", configs=service_faults_configs,
    header=_faults_header, row=_faults_row,
    columns=("scenario", "method", "goodput_mb", "p99_ms", "failed_mb",
             "lost_mb", "retries", "degraded", "trials"),
    series_name=_short,
    series=(("Goodput (Mbytes/s) per fault scenario", "scenario",
             lambda row: [(row["scenario"], row["goodput_mb"])]),
            ("99th-percentile response time (ms) per fault scenario",
             "scenario", lambda row: [(row["scenario"], row["p99_ms"])])),
    artifact=("device", "scenarios", "methods", "load_req_s", "on_fault",
              "n_requests", "concurrency", "layout", "n_cps", "n_iops",
              "n_disks", "trials", "seed"),
    derived=_faults_derived)
def service_faults_figure(scenarios=FAULT_SCENARIOS, methods=FAULT_METHODS,
                          load=FAULT_LOAD, trials=1, progress=None,
                          workers=None, cache=None, json_path=None,
                          device="disk", **overrides):
    """Goodput and p99 under injected disk faults, DDIO vs TC.

    The robustness question the paper never asks: disk-directed I/O wins by
    giving the disks a long presorted stream — what happens when a drive in
    that stream errors, limps, or dies?  Each scenario is run for both
    methods under the bounded-retry policy; the table reports *goodput*
    (delivered-and-durable bytes/s — failed blocks are explicitly given up,
    never silently dropped), tail latency, undelivered data, retry volume
    and how many requests completed degraded.  Byte conservation
    (``delivered + failed == requested``) is asserted per trial.

    *device* re-runs the whole sweep on another storage backend (``ssd``
    prices the same fault taxonomy on flash: no positioning to recover, so
    fail-stop costs capacity, not schedule); when *json_path* is given the
    rows are written as a JSON artifact (``docs/data/service_faults_ssd.
    json`` is the flash run quoted by ``docs/faults.md``).  Returns
    ``(summaries, text)``; extra keyword arguments override
    :class:`ServiceExperimentConfig` fields (tests run a tiny machine).
    """


# -- the rebuild figure ------------------------------------------------------------

#: Storage backends swept by the ``service-rebuild`` figure.
REBUILD_DEVICES = ("disk", "ssd")

#: When the victim drive fail-stops (simulated seconds): late enough that
#: the healthy phase has a measured goodput, early enough that most of the
#: run exercises degraded reads and the rebuild stream.
REBUILD_KILL_TIME = 1.0

#: Background rebuild bandwidth cap, bytes/second of reconstructed data.
#: Deliberately a small fraction of a drive's ~2.2 Mbytes/s so the degraded
#: window is wide and the foreground-vs-rebuild contention is visible.
REBUILD_BANDWIDTH = 512 * 1024

#: The phases of the drive-loss timeline, in order.
REBUILD_PHASES = ("healthy", "degraded", "rebuilt")


def service_rebuild_configs(methods=FAULT_METHODS, devices=REBUILD_DEVICES,
                            load=FAULT_LOAD, **overrides):
    """The ``service-rebuild`` grid: one point per (device, method).

    Every cell runs ``redundancy="parity"`` with one drive killed at
    :data:`REBUILD_KILL_TIME` and the spare rebuilding at
    :data:`REBUILD_BANDWIDTH`; the machine otherwise mirrors the fault
    figure (32 drives, random layout, near-saturation load).
    """
    fixed = dict(
        OVERLOAD_SERVER,
        redundancy="parity",
        rebuild_bandwidth=float(REBUILD_BANDWIDTH),
        fail_stop_disk=0,
        fail_stop_time=REBUILD_KILL_TIME,
        arrival_rate=load,
    )
    points = [dict(method=method, device=device, label=f"{device}:{method}")
              for device in devices for method in methods]
    return _grid(points, overrides, fixed, method="methods",
                 device="devices")


def _phase_goodputs(result, kill_time):
    """Goodput (Mbytes/s) in the healthy / degraded / rebuilt phases.

    Buckets the retained request records by completion time against the
    kill instant and the rebuild-completion instant (``kill_time +
    rebuild_seconds`` from the parity counters).  A phase with no time span
    inside the run reports 0.0.
    """
    rebuild_end = kill_time + result.aggregates.get("rebuild_seconds", 0.0)
    spans = {
        "healthy": (result.start_time, kill_time),
        "degraded": (kill_time, rebuild_end),
        "rebuilt": (rebuild_end, result.end_time),
    }
    goodputs = {}
    for phase, (begin, end) in spans.items():
        width = end - begin
        if width <= 0:
            goodputs[phase] = 0.0
            continue
        moved = sum(record["bytes_moved"] for record in result.requests
                    if record.get("completed_time") is not None
                    and begin <= record["completed_time"] < end)
        goodputs[phase] = moved / width / MEGABYTE
    return goodputs


def _rebuild_header(sample, arguments):
    workload, faults = sample.workload, sample.faults
    return (f"Declustered parity under fail-stop: drive "
            f"{faults.fail_stop_disk} of {sample.n_disks} killed at "
            f"t={faults.fail_stop_time:g}s, rebuild capped at "
            f"{sample.rebuild_bandwidth / MEGABYTE:.2f} Mbytes/s, "
            f"{workload.arrival}@{workload.arrival_rate:g} req/s, "
            f"{workload.n_requests} mixed collectives over {workload.n_files} "
            f"{workload.layout} files, {sample.n_cps} CPs / {sample.n_iops} IOPs")


def _rebuild_row(summary):
    config, results = summary.config, summary.results
    phases = [_phase_goodputs(result, config.faults.fail_stop_time)
              for result in results]

    def aggregate(key, scale=1):
        return _mean(result.aggregates.get(key, 0) / scale
                     for result in results)

    return {
        "device": config.device,
        "method": config.method,
        **{f"{phase}_mb": _mean(goodputs[phase] for goodputs in phases)
           for phase in REBUILD_PHASES},
        "p99_ms": _percentile(results, 0.99) * 1e3,
        "reconstructed_mb": aggregate("reconstructed_bytes", MEGABYTE),
        "parity_overhead_mb": aggregate("parity_overhead_bytes", MEGABYTE),
        "rebuild_s": aggregate("rebuild_seconds"),
        "rebuilt_rows": aggregate("rebuilt_rows"),
        "failed_mb": 0.0,
        "trials": len(results),
    }


@service_figure_spec(
    name="service-rebuild", configs=service_rebuild_configs,
    header=_rebuild_header, row=_rebuild_row,
    columns=("device", "method", "healthy_mb", "degraded_mb", "rebuilt_mb",
             "p99_ms", "reconstructed_mb", "parity_overhead_mb", "rebuild_s",
             "rebuilt_rows", "failed_mb", "trials"),
    series_name=lambda config: f"{config.device}:{_short(config)}",
    series=(("Goodput (Mbytes/s) per phase of the drive-loss timeline",
             "phase", lambda row: [(phase, row[f"{phase}_mb"])
                                   for phase in REBUILD_PHASES]),),
    footer="failed_mb is asserted zero: parity degrades goodput, never data.",
    lossless=True,
    artifact=("devices", "methods", "load_req_s", "redundancy",
              "rebuild_bandwidth", "fail_stop_disk", "fail_stop_time",
              "n_requests", "concurrency", "layout", "n_cps", "n_iops",
              "n_disks", "trials", "seed"),
    derived=lambda sample, call: {"load_req_s": sample.workload.arrival_rate})
def service_rebuild_figure(methods=FAULT_METHODS, devices=REBUILD_DEVICES,
                           load=FAULT_LOAD, trials=1, progress=None,
                           workers=None, cache=None, json_path=None,
                           **overrides):
    """Goodput timeline through kill-drive -> degraded service -> rebuilt.

    The redundancy question: with declustered parity, losing a drive
    mid-run must cost *throughput*, never *data*.  Each cell kills one of
    32 drives under near-saturation service load and reports goodput in
    three phases — before the kill, while reads on the dead drive are
    reconstructed from survivors (with the rebuild stream competing for
    the same spindles), and after the hot spare holds every rebuilt row —
    plus the reconstruction volume, the parity write overhead, and the
    rebuild duration.  Two invariants are asserted per trial: byte
    conservation, and **zero failed bytes** — under parity the fail-stop
    that made the fault figure give up data loses none.

    When *json_path* is given the rows are written as the
    ``docs/data/service_rebuild.json`` artifact quoted by
    ``docs/redundancy.md``.  Returns ``(summaries, text)``; extra keyword
    arguments override :class:`ServiceExperimentConfig` fields (tests
    shrink the run).
    """


# -- the admission figure ----------------------------------------------------------

#: Offered loads for the admission figure (requests/second): saturation and
#: the 4x-saturation overload point where FIFO's tail collapses.
ADMISSION_LOADS = (8.0, 32.0)

#: The admission disciplines compared, in sweep order.  ``controller`` is
#: FIFO ordering plus the adaptive-K SLO controller with load shedding —
#: the row that must hold the p99 target no static K can.
ADMISSION_ROWS = ("fifo", "sjf", "priority", "edf", "controller")

#: The controller row's SLO: p99 response-time target, seconds.  At 4x
#: saturation the FIFO/static-K p99 sits well above this (the point of the
#: figure); shedding at ``ADMISSION_SHED_AGE`` leaves service-time headroom
#: under the target.
ADMISSION_TARGET_P99 = 2.0
ADMISSION_SHED_AGE = 1.0
ADMISSION_CONTROL_INTERVAL = 0.25

#: The controller row's admission fields; the other rows set only
#: ``admission_policy``.
ADMISSION_CONTROLLER = dict(
    admission_policy="fifo",
    target_p99=ADMISSION_TARGET_P99,
    interval=ADMISSION_CONTROL_INTERVAL,
    shed=True,
    shed_age=ADMISSION_SHED_AGE,
)

#: Mean deadline budget (seconds after arrival) stamped on every session of
#: the admission figure; the EDF row drops sessions whose deadline has
#: already passed at grant time.
ADMISSION_DEADLINE_SLACK = 2.0


def service_admission_configs(loads=ADMISSION_LOADS, rows=ADMISSION_ROWS,
                              **overrides):
    """The config grid of the admission figure: one point per (load, row).

    Every row runs the *same* workload — the overload machine (Pareto sizes,
    8-byte record mix, 32 disks, K=4) with two priority classes and ~2 s
    deadlines stamped on every session — so the only difference between rows
    is the admission discipline.  Disciplines that ignore a stamp (FIFO/SJF
    ignore both, priority ignores deadlines, EDF ignores classes) still run
    the identical request stream, keeping every column comparable.
    """
    fixed = {
        **OVERLOAD_STREAM,
        **OVERLOAD_SERVER,
        "n_requests": 64,
        "priority_levels": 2,
        "deadline_slack": ADMISSION_DEADLINE_SLACK,
    }
    points = [dict(ADMISSION_CONTROLLER if row == "controller"
                   else dict(admission_policy=row), method="disk-directed",
                   arrival_rate=load, label=f"{row}@{load:g}")
              for load in loads for row in rows]
    return _grid(points, overrides, fixed, arrival_rate="loads",
                 **dict.fromkeys(ADMISSION_CONTROLLER, "rows"))


def _admission_header(sample, arguments):
    workload = sample.workload
    return (f"Admission control under overload (disk-directed I/O): "
            f"{workload.arrival} arrivals to {max(arguments['loads']):g} "
            f"req/s, {workload.size_distribution} file sizes (mean "
            f"{workload.file_size // KILOBYTE} KB, "
            f"alpha={workload.size_alpha:g}), {workload.n_requests} sessions, "
            f"{workload.priority_levels} priority classes, "
            f"~{workload.deadline_slack:g} s deadlines, "
            f"K={workload.concurrency} static, {sample.n_cps} CPs / "
            f"{sample.n_iops} IOPs / {sample.n_disks} disks")


def _class_p99(result, class_key):
    """p99 of one priority class's response sketch (0.0 when absent)."""
    from repro.workload.aggregate import QuantileSketch

    data = result.class_sketches.get(class_key)
    if not data:
        return 0.0
    return QuantileSketch.from_dict(data).quantile(0.99)


def _admission_row(summary):
    config, results = summary.config, summary.results
    p99 = _percentile(results, 0.99)
    row = {
        "policy": _stem(config),
        "load_req_s": config.workload.arrival_rate,
        "goodput_mb": _mean(result.goodput_mb for result in results),
        "p50_s": _percentile(results, 0.50),
        "p99_s": p99,
        "urgent_p99_s": _mean(_class_p99(result, "0") for result in results),
        "dropped": _mean(result.dropped_requests for result in results),
        "shed": _mean(result.shed_requests for result in results),
        "shed_mb": _mean(result.shed_bytes / MEGABYTE for result in results),
        "trials": len(results),
    }
    if config.controller is not None:
        target = config.controller.target_p99
        row["slo_target_s"] = target
        row["slo_met"] = p99 <= target
    return row


@service_figure_spec(
    name="service-admission", configs=service_admission_configs,
    header=_admission_header, row=_admission_row,
    columns=("policy", "load_req_s", "goodput_mb", "p50_s", "p99_s",
             "urgent_p99_s", "dropped", "shed", "shed_mb", "trials"),
    series_name=_stem,
    series=(("99th-percentile response time (s) vs offered load (req/s)",
             "load", _by_load("p99_s")),
            ("Goodput (Mbytes/s) vs offered load (req/s)", "load",
             _by_load("goodput_mb"))),
    artifact=("arrival", "loads", "n_requests", "concurrency",
              "size_distribution", "size_alpha", "file_size", "record_sizes",
              "layout", "n_cps", "n_iops", "n_disks", "priority_levels",
              "deadline_slack", "target_p99", "shed_age", "interval",
              "trials", "seed"),
    derived=lambda sample, call: ADMISSION_CONTROLLER)
def service_admission_figure(loads=ADMISSION_LOADS, rows=ADMISSION_ROWS,
                             trials=1, progress=None, workers=None,
                             cache=None, json_path=None, **overrides):
    """Which admission discipline protects the tail at 4x saturation?

    The overload figure shows FIFO admission destroying p99 under a Pareto
    stream: one giant session at the head of the K-slot queue stalls every
    small session behind it.  The driver knows each session's size, class
    and deadline *at admission time*, so this figure sweeps the disciplines
    of :mod:`repro.workload.admission` over the same overload workload and
    reports, per row: goodput (the disciplines that drop work must stay
    honest about it — ``shed_mb`` and conservation are in the table), p50
    and p99 response time of completed sessions, the urgent class's p99
    (what the priority discipline exists to protect), and drop/shed counts.
    The ``controller`` row adds the adaptive-K SLO controller with load
    shedding; ``slo_met`` records whether the measured p99 held the target
    that the FIFO/static-K row demonstrably misses at 4x saturation.

    Byte conservation (``moved + failed + shed == requested``) is asserted
    for every trial.  When *json_path* is given the rows are also written
    as the ``docs/data/service_admission.json`` artifact quoted by the
    docs.  Returns ``(summaries, text)``; extra keyword arguments override
    :class:`ServiceExperimentConfig` fields (tests shrink the run).
    """


# -- the flash figure ------------------------------------------------------------

#: Storage backends compared by the ``ddio-flash`` figure.
FLASH_DEVICES = ("disk", "ssd")

#: FTL-probe shape: small enough that random overwrites actually exhaust the
#: free-block pool and force garbage collection (the full-size device never
#: GCs at experiment scale — its overprovisioned blocks cover every run).
FLASH_PROBE_BLOCKS = 64
FLASH_PROBE_PAGES_PER_BLOCK = 32
FLASH_PROBE_OVERWRITES = 8192


def flash_ftl_probe(policies=("greedy", "cost-benefit"),
                    n_blocks=FLASH_PROBE_BLOCKS,
                    pages_per_block=FLASH_PROBE_PAGES_PER_BLOCK,
                    n_overwrites=FLASH_PROBE_OVERWRITES, seed=0):
    """Write-amplification of each GC policy under random overwrites.

    Sequentially fills a small FTL once (write amplification exactly 1 —
    the pinned property), then overwrites uniformly-random logical pages
    until GC has done real work, and reports WA and erase counts per
    policy.  Deterministic given *seed*; this is the flash-specific half of
    the ``ddio-flash`` artifact (the service rows never trigger GC because
    the full-size device is heavily overprovisioned at experiment scale).
    """
    import numpy as np

    from repro.disk.flash import FlashTranslationLayer

    logical_pages = int(n_blocks * pages_per_block * 0.9)
    rows = []
    for policy in policies:
        ftl = FlashTranslationLayer(logical_pages, pages_per_block, n_blocks,
                                    gc_policy=policy)
        for lpn in range(logical_pages):
            ftl.write(lpn)
        fill_wa = ftl.write_amplification
        rng = np.random.default_rng(seed)
        for lpn in rng.integers(0, logical_pages, size=n_overwrites):
            ftl.write(int(lpn))
        rows.append({
            "gc_policy": policy,
            "sequential_fill_wa": fill_wa,
            "random_overwrite_wa": ftl.write_amplification,
            "erases": ftl.erases,
            "relocated_pages": ftl.relocated_pages,
            "host_pages_written": ftl.host_pages_written,
        })
    return rows


def service_flash_configs(loads=DEFAULT_LOADS, methods=SERVICE_METHODS,
                          devices=FLASH_DEVICES, **overrides):
    """The ``ddio-flash`` grid: one point per (device, method, load)."""
    points = [dict(method=method, arrival_rate=load, device=device,
                   label=f"{device}:{method}@{load:g}")
              for device in devices for load in loads for method in methods]
    return _grid(points, overrides, method="methods", arrival_rate="loads",
                 device="devices")


def _flash_header(sample, arguments):
    disk_spec = MachineConfig().disk_spec
    workload = sample.workload
    return (f"Disk-directed I/O vs traditional caching, disk vs flash at equal "
            f"sequential bandwidth "
            f"({disk_spec.sustained_transfer_rate / MEGABYTE:.2f} Mbytes/s per "
            f"device): {workload.arrival} arrivals, {workload.n_requests} mixed "
            f"collectives over {workload.n_files} files, "
            f"K={workload.concurrency}, {sample.n_cps} CPs / {sample.n_iops} "
            f"IOPs / {sample.n_disks} drives")


def _flash_row(summary):
    config, results = summary.config, summary.results
    return {
        "device": config.device,
        "method": config.method,
        "load_req_s": config.workload.arrival_rate,
        "goodput_mb": _mean(result.goodput_mb for result in results),
        "p50_s": _percentile(results, 0.50),
        "p99_s": _percentile(results, 0.99),
        "trials": len(results),
    }


def _flash_ratios(rows, arguments):
    """The DDIO advantage per (device, load): the figure's answer."""
    methods = arguments["methods"]
    goodput = {(row["device"], row["method"], row["load_req_s"]):
               row["goodput_mb"] for row in rows}
    ratios = []
    for device in arguments["devices"]:
        for load in arguments["loads"]:
            ddio = goodput.get((device, methods[0], load))
            tc = goodput.get((device, methods[1], load))
            if ddio is None or tc is None:
                continue
            ratios.append({
                "device": device,
                "load_req_s": load,
                "ddio_vs_tc": ddio / tc if tc else float("inf"),
            })
    return {"ratios": ratios}


def _flash_derived(sample, call):
    disk_spec = MachineConfig().disk_spec
    ssd_spec = matched_ssd_spec(disk_spec)
    return {
        "disk_sequential_mb": round(
            disk_spec.sustained_transfer_rate / MEGABYTE, 4),
        "ssd_sequential_mb": round(
            ssd_spec.sequential_read_rate / MEGABYTE, 4),
        "ssd_channels": ssd_spec.channels,
        "ssd_ncq_depth": ssd_spec.ncq_depth,
    }


@service_figure_spec(
    name="ddio-flash", configs=service_flash_configs, header=_flash_header,
    row=_flash_row,
    columns=("device", "method", "load_req_s", "goodput_mb", "p50_s",
             "p99_s", "trials"),
    series_name=_stem,
    series=(("Goodput (Mbytes/s) vs offered load (req/s)", "load",
             _by_load("goodput_mb")),),
    tables=(("ratios", "DDIO:TC throughput ratio per device "
             "(does the advantage survive without seeks?)",
             ("device", "load_req_s", "ddio_vs_tc")),),
    extras=_flash_ratios,
    artifact=("arrival", "loads", "devices", "methods", "n_requests",
              "concurrency", "file_size", "layout", "n_cps", "n_iops",
              "n_disks", "disk_sequential_mb", "ssd_sequential_mb",
              "ssd_channels", "ssd_ncq_depth", "trials", "seed"),
    derived=_flash_derived,
    probes=(("ftl_probe", flash_ftl_probe),))
def service_flash_figure(loads=DEFAULT_LOADS, methods=SERVICE_METHODS,
                         devices=FLASH_DEVICES, trials=1, progress=None,
                         workers=None, cache=None, json_path=None,
                         **overrides):
    """Does disk-directed I/O's advantage survive when seeks are free?

    The paper's claim rests on positioning costs: the IOP wins by scheduling
    around them.  This figure re-asks the question on a flash SSD whose
    *sequential* bandwidth exactly matches the HP 97560's (see
    :func:`repro.disk.flash.matched_ssd_spec`) but whose costs are page
    reads/programs — no seeks, no rotation, parallelism inside the device.
    The service workload runs identically on both backends, DDIO vs
    traditional caching at each offered load; the DDIO:TC throughput ratio
    per device is the headline number.

    Byte conservation is asserted for every trial.  When *json_path* is
    given the rows — plus a small deterministic FTL probe reporting GC
    write amplification per policy (:func:`flash_ftl_probe`) — are written
    as the ``docs/data/service_flash.json`` artifact quoted by
    ``docs/flash.md``.  Returns ``(summaries, text)``; extra keyword
    arguments override :class:`ServiceExperimentConfig` fields (tests
    shrink the run).
    """
