"""Deterministic disk fault models: transient errors, bad sectors, fail-slow,
fail-stop.

A :class:`FaultConfig` describes a fault scenario for a whole machine; at
machine-build time each drive gets its own :class:`FaultPlan`, seeded from
``(seed, disk_index)`` via the same :mod:`~repro.sim.rng` discipline as disk
layout and rotation, so the fault schedule is a pure function of the trial
seed — two runs with the same seed see the same bad sectors and the same
per-request transient draws, and the plan's :meth:`FaultPlan.describe`
snapshot is recorded in the result envelope.

Fault taxonomy (the ``error`` string on a failed :class:`~repro.disk.drive.
DiskRequest`):

* :data:`TRANSIENT` — per-request media error with probability
  ``transient_rate``; the same transfer usually succeeds when retried.
* :data:`BAD_SECTOR` — the request overlaps a latent bad LBN range; retries
  hit the same range and keep failing (permanent).
* :data:`FAIL_STOP` — the drive died at ``fail_stop_time``; every request at
  or after that instant fails immediately (permanent).

Fail-slow is not an error at all: requests complete normally but mechanical
work on the sick drive is stretched by ``slow_factor`` inside the episode
window, which is exactly the failure mode retry deadlines are for.

Silent corruption is not an error either — that is the whole point.  A read
overlapping one of the drive's ``silent_ranges`` completes with
``status == "ok"`` and flipped payload bytes, marked only by the
``corrupt`` flag on the request (the simulation's stand-in for a wrong
checksum over the returned data).  A client that verifies checksums
(``checksums=True`` on the collective file system) detects every such read;
a client that does not delivers the corrupt bytes silently.  Detection is
what checksums buy; *repair* additionally needs parity
(:mod:`repro.disk.redundancy`).

Client-side policy lives in :class:`FaultPolicy` (bounded exponential-backoff
retry with a deadline, or degrade/abort); :class:`BlockFault` is the marker
the TC cache delivers to readers instead of data when a block is
permanently unavailable.
"""

import zlib
from dataclasses import dataclass

import numpy as np

#: Error kinds carried in :attr:`repro.disk.drive.DiskRequest.error`.
TRANSIENT = "transient"
BAD_SECTOR = "bad-sector"
FAIL_STOP = "fail-stop"

#: Errors a retry can never fix.
PERMANENT_ERRORS = frozenset({BAD_SECTOR, FAIL_STOP})

#: Domain tag mixed into the fault seed stream so fault draws can never
#: collide with layout/rotation streams derived from the same trial seed
#: (stable across processes, unlike ``hash()``).
_FAULT_DOMAIN = zlib.crc32(b"disk-faults")


#: :class:`FaultConfig` fields that name one drive index (-1: none).
DRIVE_FIELDS = ("slow_disk", "fail_stop_disk", "silent_disk")


@dataclass(frozen=True)
class FaultConfig:
    """A machine-level fault scenario (all rates zero == healthy machine).

    ``transient_rate`` applies to every drive; bad ranges are drawn
    independently per drive; fail-slow and fail-stop each target a single
    drive index (``-1`` disables them).
    """

    #: Per-request probability of a retryable media error (every drive).
    transient_rate: float = 0.0
    #: Number of latent bad LBN ranges per drive.
    bad_range_count: int = 0
    #: Length of each bad range, in sectors.
    bad_range_sectors: int = 64
    #: Service-time multiplier for the fail-slow drive inside its episode.
    slow_factor: float = 1.0
    #: Index of the fail-slow drive (-1: none).
    slow_disk: int = -1
    #: Fail-slow episode window [start, start + duration) in simulated seconds.
    slow_start: float = 0.0
    slow_duration: float = 0.0
    #: Index of the drive that fail-stops (-1: none).
    fail_stop_disk: int = -1
    #: Instant the fail-stop drive dies.
    fail_stop_time: float = 0.0
    #: Number of silently-corrupting LBN ranges per drive: reads overlapping
    #: one complete with ``status == "ok"`` but flipped payload bytes
    #: (``DiskRequest.corrupt``) — no error status, so only client-side
    #: checksums can see them.
    silent_range_count: int = 0
    #: Length of each silently-corrupting range, in sectors.
    silent_range_sectors: int = 64
    #: Restrict silent ranges to one drive index (-1: every drive draws its
    #: own) — the single-bad-drive case parity can fully repair.
    silent_disk: int = -1

    def __post_init__(self):
        # Fail at construction: an invalid knob would otherwise run to
        # completion as a healthy (or nonsensical) machine labelled faulty.
        if not 0.0 <= self.transient_rate <= 1.0:
            raise ValueError(
                f"transient_rate must be a probability in [0, 1], "
                f"got {self.transient_rate}")
        if self.slow_factor <= 0.0:
            raise ValueError(
                f"slow_factor must be > 0, got {self.slow_factor}")
        for name in ("bad_range_count", "silent_range_count",
                     "slow_duration"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("bad_range_sectors", "silent_range_sectors"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        for name in DRIVE_FIELDS:
            if getattr(self, name) < -1:
                raise ValueError(
                    f"{name} must be a drive index or -1 (none), "
                    f"got {getattr(self, name)}")

    @property
    def enabled(self):
        """Whether this scenario injects anything at all."""
        return (self.transient_rate > 0.0 or self.bad_range_count > 0
                or (self.slow_disk >= 0 and self.slow_factor != 1.0)
                or self.fail_stop_disk >= 0
                or self.silent_range_count > 0)


def check_fault_drives(config, n_disks):
    """Raise ``ValueError`` unless every drive *config* targets exists.

    *config* is a :class:`FaultConfig` or None; each of its
    :data:`DRIVE_FIELDS` must be -1 (none) or an index below *n_disks*.
    """
    if config is None:
        return
    for name in DRIVE_FIELDS:
        index = getattr(config, name)
        if index >= n_disks:
            raise ValueError(
                f"{name}={index} names no drive of {n_disks} "
                f"(indices 0..{n_disks - 1}, or -1 for none)")


class FaultPlan:
    """One drive's realised fault schedule, derived from ``(seed, disk)``.

    Attaching a plan to a :class:`~repro.disk.drive.Disk` disables the fused
    read fast path (errors and fail-slow stretching must take the unfused
    reference sequence, mirroring the destage-quiescence gate), so a drive
    with no plan is bit-identical to a drive built before this module
    existed.
    """

    __slots__ = ("seed", "disk_index", "transient_rate", "bad_ranges",
                 "slow_factor", "slow_start", "slow_end", "fail_stop_time",
                 "silent_ranges", "_rng")

    def __init__(self, config, seed, disk_index, total_sectors):
        self.seed = seed
        self.disk_index = disk_index
        self.transient_rate = float(config.transient_rate)
        self._rng = np.random.default_rng(
            np.random.SeedSequence([seed, disk_index, _FAULT_DOMAIN]))
        ranges = []
        if config.bad_range_count > 0:
            length = max(1, int(config.bad_range_sectors))
            highest = max(1, total_sectors - length)
            for start in sorted(self._rng.integers(
                    0, highest, size=config.bad_range_count)):
                start = int(start)
                ranges.append((start, min(start + length, total_sectors)))
        self.bad_ranges = tuple(ranges)
        # Silent ranges are drawn *after* bad ranges, and only when the count
        # is positive, so every pre-existing scenario's draw stream — bad
        # ranges and per-request transients — is byte-identical to plans
        # built before silent corruption existed.
        silent = []
        silent_count = config.silent_range_count
        if silent_count > 0 and config.silent_disk >= 0 \
                and config.silent_disk != disk_index:
            silent_count = 0
        if silent_count > 0:
            length = max(1, int(config.silent_range_sectors))
            highest = max(1, total_sectors - length)
            for start in sorted(self._rng.integers(
                    0, highest, size=silent_count)):
                start = int(start)
                silent.append((start, min(start + length, total_sectors)))
        self.silent_ranges = tuple(silent)
        if config.slow_disk == disk_index and config.slow_factor != 1.0:
            self.slow_factor = float(config.slow_factor)
            self.slow_start = float(config.slow_start)
            self.slow_end = float(config.slow_start) + float(config.slow_duration)
        else:
            self.slow_factor = 1.0
            self.slow_start = 0.0
            self.slow_end = 0.0
        self.fail_stop_time = float(config.fail_stop_time) \
            if config.fail_stop_disk == disk_index else None

    def failed_at(self, now):
        """Whether the drive has fail-stopped by simulated time *now*."""
        return self.fail_stop_time is not None and now >= self.fail_stop_time

    def media_error(self, request):
        """The error this request hits at the media, or None.

        The transient draw is taken for *every* request while the rate is
        positive — even ones that land on a bad range — so the draw stream
        depends only on the (deterministic) request order, never on which
        branch an earlier request took.
        """
        transient = (self.transient_rate > 0.0
                     and self._rng.random() < self.transient_rate)
        end = request.lbn + request.n_sectors
        for lo, hi in self.bad_ranges:
            if request.lbn < hi and lo < end:
                return BAD_SECTOR
        return TRANSIENT if transient else None

    def slow_multiplier(self, now):
        """Mechanical-time stretch factor at simulated time *now*."""
        if self.slow_factor != 1.0 and self.slow_start <= now < self.slow_end:
            return self.slow_factor
        return 1.0

    def silently_corrupts(self, request):
        """Whether this read returns flipped bytes without an error status.

        Pure overlap test — no RNG draw, so plans with silent ranges perturb
        nothing about the transient draw stream.
        """
        if not self.silent_ranges:
            return False
        end = request.lbn + request.n_sectors
        for lo, hi in self.silent_ranges:
            if request.lbn < hi and lo < end:
                return True
        return False

    def describe(self):
        """JSON-serialisable snapshot for the result envelope.

        The ``silent_ranges`` key appears only when the plan has any: result
        envelopes of pre-existing scenarios must stay byte-identical (the
        pinned digest matrix hashes them).
        """
        description = {
            "disk": self.disk_index,
            "seed": self.seed,
            "transient_rate": self.transient_rate,
            "bad_ranges": [list(r) for r in self.bad_ranges],
            "slow_factor": self.slow_factor,
            "slow_window": [self.slow_start, self.slow_end],
            "fail_stop_time": self.fail_stop_time,
        }
        if self.silent_ranges:
            description["silent_ranges"] = [list(r) for r in self.silent_ranges]
        return description


def build_fault_plan(config, seed, disk_index, total_sectors):
    """The :class:`FaultPlan` for one drive, or None when nothing targets it.

    Returning None (rather than an all-zero plan) is load-bearing: a drive
    without a plan keeps its fused read fast path and takes no per-request
    draws, so a zero-fault run is bit-identical to one built before fault
    injection existed.
    """
    if config is None or not config.enabled:
        return None
    plan = FaultPlan(config, seed, disk_index, total_sectors)
    if (plan.transient_rate <= 0.0 and not plan.bad_ranges
            and plan.slow_factor == 1.0 and plan.fail_stop_time is None
            and not plan.silent_ranges):
        return None
    return plan


@dataclass(frozen=True)
class FaultPolicy:
    """How failure-aware clients respond to an errored request.

    ``on_fault`` selects the strategy:

    * ``"retry"`` — retry :data:`TRANSIENT` errors with exponential backoff
      (``backoff_base * 2**attempt``), bounded by both ``max_attempts`` and a
      wall deadline measured from the first failure; exhaustion degrades.
    * ``"degrade"`` — no retries: every error immediately degrades the
      session (partial delivery, accounted in the session counters).
    * ``"abort"`` — raise :class:`FaultAbort`, failing the whole run.

    Permanent errors (:data:`BAD_SECTOR`, :data:`FAIL_STOP`) are never
    retried under any strategy.
    """

    on_fault: str = "retry"
    #: Total service attempts per block (first try + retries).
    max_attempts: int = 4
    #: Backoff before retry *n* (0-based) is ``backoff_base * 2**n`` seconds.
    backoff_base: float = 0.002
    #: Give up retrying once ``now - first_failure > deadline`` seconds.
    deadline: float = 0.25

    def __post_init__(self):
        if self.on_fault not in ("retry", "degrade", "abort"):
            raise ValueError(f"on_fault must be retry|degrade|abort, "
                             f"got {self.on_fault!r}")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")


class FaultAbort(Exception):
    """Raised (under ``on_fault='abort'``) when a request fails permanently."""


def retry_fragment(env, policy, attempt, on_retry=None, first=None):
    """Process fragment: run *attempt* under *policy*; returns the request.

    *attempt* is a no-argument callable that submits a fresh disk request
    and returns its completion event — every retry is a brand-new request.
    Transient errors are retried with exponential backoff
    (``backoff_base * 2**n`` before retry *n*), bounded by BOTH
    ``max_attempts`` and the deadline measured from the first failure;
    permanent errors are never retried.  The returned request may still be
    errored (the caller degrades); ``on_fault="abort"`` raises
    :class:`FaultAbort` instead.  *on_retry* is called once per retry (for
    session accounting).  *first*, when given, is the completed request of
    a first attempt the caller already waited for itself (the hot paths do,
    so a successful request never passes through this generator).
    """
    request = (yield attempt()) if first is None else first
    if request.status == "ok" or policy is None:
        return request
    if policy.on_fault == "retry":
        first_failure = env.now
        tries = 1
        while (request.error not in PERMANENT_ERRORS
               and tries < policy.max_attempts):
            backoff = policy.backoff_base * (2 ** (tries - 1))
            if env.now + backoff > first_failure + policy.deadline:
                break
            yield env.timeout(backoff)
            if on_retry is not None:
                on_retry()
            tries += 1
            request = yield attempt()
            if request.status == "ok":
                return request
    if policy.on_fault == "abort":
        raise FaultAbort(
            f"disk request for lbn {request.lbn} failed ({request.error}) "
            f"under on_fault='abort'")
    return request


class BlockFault:
    """Delivered by the TC cache in place of data for an unreadable block."""

    __slots__ = ("block", "error")

    def __init__(self, block, error):
        self.block = block
        self.error = error

    def __repr__(self):
        return f"<BlockFault block={self.block} error={self.error}>"
