"""Service-style workloads: streams of concurrent collective requests.

* :mod:`repro.workload.arrival` — closed-loop and Poisson open-loop arrival
  processes with per-(seed, request) deterministic randomness.
* :mod:`repro.workload.sizes` — heavy-tailed (Pareto/lognormal) per-file size
  sampling with per-(seed, file) deterministic randomness.
* :mod:`repro.workload.driver` — the :class:`ServiceDriver`: multiple open
  files, a K-slot admission scheduler, streaming per-session accounting
  (constant memory in the session count).
* :mod:`repro.workload.admission` — pluggable admission disciplines (FIFO,
  size-aware SJF with aging, static priorities, EDF with deadline drop) and
  the adaptive-K p99-target controller.
* :mod:`repro.workload.aggregate` — the mergeable quantile sketch and
  running stats the driver folds each completed session into.
* :mod:`repro.workload.checkpoint` — checkpoint/restart of the fold state
  for long (million-session) runs.

See ``docs/workloads.md`` for how this maps onto (and extends) the paper's
single-collective experiments.
"""

from repro.workload.admission import (
    ADMISSION_POLICIES,
    ADMITTED,
    DROPPED,
    SHED,
    AdaptiveConcurrencyController,
    AdmissionPolicy,
    AdmissionQueue,
    AdmissionTicket,
    ControllerConfig,
    EDFPolicy,
    FIFOPolicy,
    PriorityPolicy,
    SJFPolicy,
    make_admission_policy,
)
from repro.workload.aggregate import (
    DEFAULT_PRECISION,
    QuantileSketch,
    RunningStats,
    relative_error_bound,
)
from repro.workload.arrival import (
    ArrivalProcess,
    ClosedLoopArrivals,
    PoissonArrivals,
    RequestStreams,
    make_arrival,
    request_rng,
    session_qos,
)
from repro.workload.checkpoint import (
    CheckpointError,
    IndexRanges,
    RunCheckpoint,
    run_fingerprint,
)
from repro.workload.driver import (
    ServiceDriver,
    ServiceResult,
    ServiceWorkload,
    build_service_machine,
    percentile,
    run_service,
)
from repro.workload.sizes import (
    SIZE_DISTRIBUTIONS,
    file_size_rng,
    sample_file_size,
    sample_file_sizes,
)

__all__ = [
    "ADMISSION_POLICIES",
    "ADMITTED",
    "AdaptiveConcurrencyController",
    "AdmissionPolicy",
    "AdmissionQueue",
    "AdmissionTicket",
    "ArrivalProcess",
    "CheckpointError",
    "ClosedLoopArrivals",
    "ControllerConfig",
    "DEFAULT_PRECISION",
    "DROPPED",
    "EDFPolicy",
    "FIFOPolicy",
    "IndexRanges",
    "PoissonArrivals",
    "PriorityPolicy",
    "QuantileSketch",
    "RequestStreams",
    "RunCheckpoint",
    "RunningStats",
    "SHED",
    "SIZE_DISTRIBUTIONS",
    "SJFPolicy",
    "ServiceDriver",
    "ServiceResult",
    "ServiceWorkload",
    "build_service_machine",
    "file_size_rng",
    "make_admission_policy",
    "make_arrival",
    "percentile",
    "relative_error_bound",
    "request_rng",
    "run_fingerprint",
    "run_service",
    "sample_file_size",
    "sample_file_sizes",
    "session_qos",
]
