"""The simulated disk drive: request queue, mechanics, cache and SCSI transfer.

:class:`BlockDevice` is the request front end every drive model shares (the
disk here, the flash :class:`~repro.disk.flash.SSD`).  Clients call
:meth:`~BlockDevice.read` / :meth:`~BlockDevice.write` (or
:meth:`~BlockDevice.submit`), receive an event, and yield it.  A
:class:`Disk`'s service loop picks queued requests according to its
scheduling policy, charges controller overhead, mechanical positioning (or a
read-ahead cache hit), media transfer, and the SCSI-bus transfer to the I/O
processor.

Writes go through the drive's write buffer when enabled: the request completes
once the data has crossed the bus and fits in the buffer, and a background
destage process pushes it to the media.  :meth:`~BlockDevice.flush` waits for the
buffer to drain — experiment harnesses call it so that reported transfer times
include all write-behind, as the paper's do.
"""

from collections import deque
from dataclasses import dataclass, field

from repro.disk.cache import ReadAheadCache
from repro.disk.faults import FAIL_STOP
from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import DiskMechanics
from repro.disk.scheduler import make_scheduler
from repro.sim.events import Event
from repro.sim.stats import Counter


READ = "read"
WRITE = "write"


@dataclass(slots=True)
class DiskRequest:
    """A single request for a contiguous run of sectors."""

    op: str
    lbn: int
    n_sectors: int
    completion: Event = None
    submit_time: float = 0.0
    tag: object = None
    #: id of the :class:`~repro.core.base.CollectiveSession` this request
    #: belongs to (None for untagged traffic); the drive attributes its
    #: service time, byte counts and bus occupancy to this session.
    session_id: object = None
    #: optional event fired when a write's data reaches the media (for reads
    #: it fires together with ``completion``); clients that must drain their
    #: own write-behind without waiting on other clients' traffic use this.
    media_completion: Event = None
    #: "ok", or "error" when the drive could not serve the request.  The
    #: completion event still *succeeds* (with the request as its value) so
    #: every existing ``request = yield disk.read(...)`` call site keeps
    #: working; failure-aware clients check this field.
    status: str = "ok"
    #: Error kind when ``status == "error"`` (one of the
    #: :mod:`repro.disk.faults` constants).
    error: str = None
    #: True when a read returned flipped payload bytes *without* an error
    #: status (the drive's silent-corruption ranges, see
    #: :mod:`repro.disk.faults`).  The device never acts on this flag — it
    #: models a wrong checksum over the returned data, visible only to
    #: clients that verify checksums.
    corrupt: bool = False

    @property
    def n_bytes(self):
        """Size of the request in bytes (sector-granular)."""
        return self.n_sectors * 512


@dataclass
class DiskStats:
    """Aggregate statistics for one drive."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_time: float = 0.0
    seek_time: float = 0.0
    rotation_time: float = 0.0
    transfer_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    queue_wait_time: float = 0.0
    extra: Counter = field(default_factory=lambda: Counter("extra"))
    #: error kind -> count of requests failed by the fault plan (plus
    #: ``"lost_destage"`` for buffered writes dropped by a fail-stop).
    faults: dict = field(default_factory=dict)


@dataclass
class SessionDiskStats:
    """One session's share of a drive's work.

    ``service_time`` is drive busy time spent on this session's requests
    (controller, positioning, media and bus transfer).  Background destage of
    buffered writes is *not* attributed — it belongs to the drive, not to any
    one session — so write-heavy sessions see the bus-and-accept cost here
    and the destage cost only through queueing delays.
    """

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    service_time: float = 0.0
    queue_wait_time: float = 0.0


class BusPort:
    """The drive's attachment to a shared SCSI bus.

    ``resource`` is the shared :class:`~repro.sim.resources.Resource` (one per
    I/O bus); ``bandwidth`` is the bus's peak byte rate and ``overhead`` the
    per-transfer arbitration/command cost.
    """

    def __init__(self, resource, bandwidth, overhead=0.0):
        self.resource = resource
        self.bandwidth = bandwidth
        self.overhead = overhead

    def transfer_time(self, n_bytes):
        """Bus occupancy for a transfer of *n_bytes*."""
        return self.overhead + n_bytes / self.bandwidth

    def transfer(self, env, n_bytes, session_id=None):
        """Process fragment: hold the bus for the duration of the transfer.

        *session_id* attributes the occupancy to one collective session
        (ports that track per-session bus share override this).
        """
        yield from self.resource.acquire(self.transfer_time(n_bytes))

    def transfer_event(self, env, n_bytes, session_id=None):
        """Uncontended fast path for :meth:`transfer`: one event, or ``None``.

        When the bus is free, the whole hold is a single yieldable event
        (see :meth:`~repro.sim.resources.Resource.acquire_event`); a busy
        bus returns ``None`` and the caller falls back to the
        :meth:`transfer` process fragment, preserving FIFO arbitration.
        """
        return self.resource.acquire_event(self.transfer_time(n_bytes))


class BlockDevice:
    """The request front end every drive model shares.

    Clients call :meth:`read` / :meth:`write` / :meth:`write_tracked` (or
    :meth:`submit`), receive an event, and yield it; :meth:`flush` waits
    for write-behind to drain.  A subclass supplies the media model: a
    ``geometry`` with ``total_sectors``, the worker process(es) that serve
    :attr:`_queue` (started by :meth:`_start_workers`), a ``_destage_round``
    for write-behind, and ``head_lbn_estimate`` for scheduling policies.
    The completion plumbing (:meth:`_complete`, :meth:`_fail_request`,
    :meth:`_signal_media`, flush release) is written once here, so every
    device reports errors, session counters and media completion the same
    way.

    Worker and destage processes are *parked servers*: each round serves
    until its queue is empty and returns the event that wakes the next
    round, and the waker (:meth:`_kick`, :meth:`_kick_destage`) succeeds
    that event with the device itself.  A parked process therefore holds
    only its wake event, never the device, so an idle device is no
    reference cycle and a dropped machine is freed by reference counting.
    """

    #: container type of the submission queue (a list lets a scheduler
    #: pick any entry by index)
    _queue_type = list

    def __init__(self, env, spec, bus_port, name, fault_plan, geometry,
                 write_buffer_capacity):
        self.env = env
        self.spec = spec
        self.name = name
        self.bus_port = bus_port
        #: Optional :class:`~repro.disk.faults.FaultPlan`; None means this
        #: drive is bit-identical to the pre-fault model (on a :class:`Disk`
        #: a plan also disables the fused read fast path).
        self.fault_plan = fault_plan
        self.geometry = geometry
        self.stats = DiskStats()
        #: per-session attribution (session id -> :class:`SessionDiskStats`);
        #: entries are created lazily for tagged requests and dropped by
        #: :meth:`release_session` once a collective's result is snapshotted.
        self.session_stats = {}

        self.write_buffer_capacity = write_buffer_capacity
        self._write_buffer = deque()          # destage queue of DiskRequest
        self._buffer_waiters = deque()        # requests waiting for buffer space
        self._writes_outstanding = 0     # buffered or in-destage writes
        self._flush_waiters = []

        self._queue = self._queue_type()
        self._work = None
        self._destage_work = None
        self._start_workers()
        if spec.write_cache_enabled:
            self._destage_process = env.process(self._destage_loop(self))
        else:
            self._destage_process = None

    # -- public API -------------------------------------------------------------
    def read(self, lbn, n_sectors, tag=None, session_id=None):
        """Submit a read; returns an event fired when data is at the IOP."""
        return self.submit(DiskRequest(op=READ, lbn=lbn, n_sectors=n_sectors,
                                       tag=tag, session_id=session_id))

    def write(self, lbn, n_sectors, tag=None, session_id=None):
        """Submit a write; returns an event fired when the drive accepts the data."""
        return self.submit(DiskRequest(op=WRITE, lbn=lbn, n_sectors=n_sectors,
                                       tag=tag, session_id=session_id))

    def write_tracked(self, lbn, n_sectors, tag=None, session_id=None):
        """Submit a write; returns ``(accepted, on_media)`` events.

        ``accepted`` fires when the drive takes the data (write-cache
        semantics, same as :meth:`write`); ``on_media`` fires when *this*
        write's destage finishes.  Unlike :meth:`flush`, waiting on
        ``on_media`` does not couple the caller to other clients' pending
        writes — which matters when several collectives share the drive.
        """
        request = DiskRequest(op=WRITE, lbn=lbn, n_sectors=n_sectors, tag=tag,
                              session_id=session_id)
        on_media = request.media_completion = Event(self.env)
        accepted = self.submit(request)
        return accepted, on_media

    def submit(self, request):
        """Queue *request*; returns its completion event."""
        if request.lbn < 0 or request.lbn + request.n_sectors > self.geometry.total_sectors:
            raise ValueError(
                f"request [{request.lbn}, {request.lbn + request.n_sectors}) outside "
                f"{self.name} of {self.geometry.total_sectors} sectors")
        if request.n_sectors <= 0:
            raise ValueError("request must cover at least one sector")
        request.completion = Event(self.env)
        request.submit_time = self.env.now
        self._queue.append(request)
        self._kick()
        return request.completion

    def flush(self):
        """Event that fires once all buffered writes have reached the media."""
        event = Event(self.env)
        if self._writes_outstanding == 0 and not self._has_pending_writes():
            event.succeed()
        else:
            self._flush_waiters.append(event)
        return event

    @property
    def queue_depth(self):
        """Number of requests waiting for service (excluding buffered writes)."""
        return len(self._queue)

    def session(self, session_id):
        """This drive's :class:`SessionDiskStats` for *session_id* (lazily created)."""
        stats = self.session_stats.get(session_id)
        if stats is None:
            stats = self.session_stats[session_id] = SessionDiskStats()
        return stats

    def release_session(self, session_id):
        """Drop per-session accounting once the session's result is final."""
        self.session_stats.pop(session_id, None)

    # -- parked servers ---------------------------------------------------------
    @staticmethod
    def _destage_loop(device):
        """The destage process: rounds of ``_destage_round``, parked between.

        *device* is held only until the first round; after that the process
        frame holds just the wake event it is parked on, whose value hands
        the device back (see :meth:`_kick_destage`).
        """
        wake = yield from device._destage_round()
        del device
        while True:
            wake = yield from (yield wake)._destage_round()

    def _kick(self):
        if self._work is not None and not self._work.triggered:
            self._work.succeed(self)
            self._work = None

    def _kick_destage(self):
        if self._destage_work is not None and not self._destage_work.triggered:
            self._destage_work.succeed(self)
            self._destage_work = None

    # -- completion plumbing ----------------------------------------------------
    def _has_pending_writes(self):
        return any(request.op == WRITE for request in self._queue)

    def _account_write(self, request):
        self.stats.writes += 1
        self.stats.bytes_written += request.n_bytes
        if request.session_id is not None:
            session = self.session(request.session_id)
            session.writes += 1
            session.bytes_written += request.n_bytes

    def _lost_at_destage(self, request):
        """True, with *request* marked lost, if the drive is dead at destage.

        The drive died with this write still buffered: the data is lost at
        the device.  The caller still signals media completion (with the
        request marked errored) so flush waiters never hang.
        """
        plan = self.fault_plan
        if plan is None or not plan.failed_at(self.env.now):
            return False
        request.status = "error"
        request.error = FAIL_STOP
        self.stats.faults["lost_destage"] = \
            self.stats.faults.get("lost_destage", 0) + 1
        return True

    def _fail_request(self, request, error):
        """Complete *request* with an error status.

        The completion event *succeeds* (carrying the errored request) so
        non-fault-aware call sites keep working; ``media_completion`` fires
        too, keeping ``write_tracked``/``flush`` waiters live under faults.
        """
        request.status = "error"
        request.error = error
        self.stats.faults[error] = self.stats.faults.get(error, 0) + 1
        self._complete(request)
        self._signal_media(request)

    def _complete(self, request):
        # The event is detached before it fires: it carries the request as
        # its value, so a request still holding it would be a reference
        # cycle, freed only by a full collection.
        completion, request.completion = request.completion, None
        completion.succeed(request)

    def _signal_media(self, request):
        media, request.media_completion = request.media_completion, None
        if media is not None and not media.triggered:
            media.succeed(request)

    def _maybe_release_flush_waiters(self):
        if self._writes_outstanding == 0 and not self._has_pending_writes():
            waiters, self._flush_waiters = self._flush_waiters, []
            for waiter in waiters:
                waiter.succeed()


class Disk(BlockDevice):
    """A single simulated drive attached to a SCSI bus on one IOP."""

    def __init__(self, env, spec, bus_port, name="disk", scheduler="fcfs",
                 initial_angle_fraction=0.0, write_buffer_blocks=None,
                 fault_plan=None):
        geometry = DiskGeometry(spec)
        self.mechanics = DiskMechanics(
            spec, geometry, initial_angle_fraction=initial_angle_fraction)
        self.readahead = ReadAheadCache(spec)
        self.scheduler = make_scheduler(scheduler) if isinstance(scheduler, str) \
            else scheduler
        #: Delay fusion defers the serve loop's arm update to a single fused
        #: timeout; these reproduce the unfused timeline for *observers*
        #: (the shared queue's policy reads :attr:`head_lbn_estimate` while
        #: a request is mid-service): before ``_cylinder_update_time`` the
        #: arm still reports the pre-request cylinder.
        self._cylinder_update_time = 0.0
        self._cylinder_before = 0
        if write_buffer_blocks is None:
            write_buffer_blocks = max(1, spec.cache_size // 8192)
        super().__init__(env, spec, bus_port, name, fault_plan, geometry,
                         write_buffer_blocks)

    @property
    def current_cylinder(self):
        """Cylinder the heads are currently positioned over."""
        if self.env._now < self._cylinder_update_time:
            return self._cylinder_before
        return self.mechanics.current_cylinder

    @property
    def head_lbn_estimate(self):
        """Approximate head position as an LBN, for scheduling policies."""
        return self._current_lbn_estimate()

    # -- service loop ---------------------------------------------------------------
    def _start_workers(self):
        self._serve_process = self.env.process(self._serve_loop(self))

    @staticmethod
    def _serve_loop(disk):
        """The serve process: rounds of :meth:`_serve_round`, parked between."""
        wake = yield from disk._serve_round()
        del disk
        while True:
            wake = yield from (yield wake)._serve_round()

    def _serve_round(self):
        """Serve queued requests until none is left; returns the wake event."""
        while self._queue:
            index = self.scheduler.select(self._queue, self._current_lbn_estimate())
            request = self._queue.pop(index)
            wait = self.env.now - request.submit_time
            self.stats.queue_wait_time += wait
            start = self.env.now
            if request.op == READ:
                yield from self._service_read(request)
            else:
                yield from self._service_write(request)
            busy = self.env.now - start
            self.stats.busy_time += busy
            if request.session_id is not None:
                session = self.session(request.session_id)
                session.queue_wait_time += wait
                session.service_time += busy
        self._work = work = Event(self.env)
        return work

    def _current_lbn_estimate(self):
        # Approximate the head position by the first sector of the current cylinder;
        # schedulers only need relative ordering.
        cylinder = self._cylinder_before \
            if self.env._now < self._cylinder_update_time \
            else self.mechanics.current_cylinder
        return cylinder * self.spec.sectors_per_track * self.spec.heads

    def _set_cylinder(self, cylinder, visible_at):
        """Move the arm; the move becomes *observable* at ``visible_at``.

        The fused service path updates mechanics state at service start, but
        the unfused timeline moved the arm mid-service (after the controller
        overhead, or at read-ahead data-ready time).  Deferring visibility
        keeps :attr:`head_lbn_estimate` — read concurrently by the shared
        queue's scheduling policy — bit-identical to the unfused simulator.
        """
        mechanics = self.mechanics
        self._cylinder_before = mechanics.current_cylinder
        self._cylinder_update_time = visible_at
        mechanics.current_cylinder = cylinder

    # -- read path ---------------------------------------------------------------
    def _service_read(self, request):
        env = self.env
        spec = self.spec
        geometry = self.geometry

        session = self.session(request.session_id) \
            if request.session_id is not None else None
        # Delay fusion: controller overhead, any read-ahead wait, and the
        # mechanical positioning + media transfer are charged as ONE fused
        # timeout instead of two.  Every model decision is computed against
        # the instant the unfused timeline would have made it (the cache
        # lookup and positioning take the time as an explicit argument), and
        # the fused timeout lands on the exact end time via ``event_at``, so
        # simulated results are bit-identical.
        #
        # Fusion is only sound while the destage loop is provably idle: with
        # write-behind in flight, a background ``_write_to_media`` could
        # invalidate the read-ahead cache or move the arm *inside* the
        # controller window, and the unfused timeline would observe that.
        # ``_writes_outstanding == 0`` guarantees quiescence for the whole
        # service (no new write can be accepted while this read is served);
        # otherwise fall back to the unfused reference sequence.  A fault
        # plan disables fusion the same way: errors and fail-slow stretching
        # are decided mid-service on the unfused timeline.
        plan = self.fault_plan
        fused = self._writes_outstanding == 0 and plan is None
        if fused:
            lookup_time = env._now + spec.controller_overhead
        else:
            yield env.timeout(spec.controller_overhead)
            lookup_time = env._now
        end_lbn = request.lbn + request.n_sectors
        end_cylinder = geometry.cylinder_of(
            min(end_lbn, geometry.total_sectors - 1))
        if plan is not None:
            if plan.failed_at(env.now):
                # Dead drive: fail immediately after the controller window.
                self._fail_request(request, FAIL_STOP)
                return
            error = plan.media_error(request)
            if error is not None:
                # The drive attempts the transfer and reports the error:
                # charge positioning + (possibly stretched) media time, but
                # ship no data across the bus and start no read-ahead.
                self.stats.cache_misses += 1
                if session is not None:
                    session.cache_misses += 1
                self.readahead.invalidate()
                positioning = self.mechanics.positioning_time(
                    lookup_time, request.lbn)
                transfer = self.mechanics.media.transfer_time(
                    request.lbn, request.n_sectors)
                self.stats.seek_time += positioning
                self.stats.transfer_time += transfer
                self.mechanics.current_cylinder = end_cylinder
                yield env.timeout((positioning + transfer)
                                  * plan.slow_multiplier(lookup_time))
                self._fail_request(request, error)
                return
        hit, ready_time = self.readahead.lookup(lookup_time, request.lbn,
                                                request.n_sectors)
        if hit:
            self.stats.cache_hits += 1
            if session is not None:
                session.cache_hits += 1
            if fused:
                if ready_time > lookup_time:
                    service_end = lookup_time + (ready_time - lookup_time)
                else:
                    service_end = lookup_time
                self.readahead.extend_after_hit(service_end, end_lbn,
                                                geometry.total_sectors)
                # Track arm position so later schedulers see a sensible cylinder.
                self._set_cylinder(end_cylinder, visible_at=service_end)
                yield env.event_at(service_end)
            else:
                if ready_time > env.now:
                    yield env.timeout(ready_time - env.now)
                self.readahead.extend_after_hit(env.now, end_lbn,
                                                geometry.total_sectors)
                self.mechanics.current_cylinder = end_cylinder
        else:
            self.stats.cache_misses += 1
            if session is not None:
                session.cache_misses += 1
            self.readahead.invalidate()
            positioning = self.mechanics.positioning_time(lookup_time, request.lbn)
            transfer = self.mechanics.media.transfer_time(request.lbn, request.n_sectors)
            self.stats.seek_time += positioning
            self.stats.transfer_time += transfer
            if fused:
                self._set_cylinder(end_cylinder, visible_at=lookup_time)
                yield env.event_at(lookup_time + (positioning + transfer))
            else:
                self.mechanics.current_cylinder = end_cylinder
                delay = positioning + transfer
                if plan is not None:
                    delay *= plan.slow_multiplier(lookup_time)
                yield env.timeout(delay)
            # Media keeps streaming into the cache after the request completes.
            self.readahead.start_readahead(env.now, end_lbn, geometry.total_sectors)

        # Ship the data across the SCSI bus to the IOP.
        bus_hold = self.bus_port.transfer_event(env, request.n_bytes,
                                                session_id=request.session_id)
        if bus_hold is None:
            yield from self.bus_port.transfer(env, request.n_bytes,
                                              session_id=request.session_id)
        else:
            yield bus_hold
        self.stats.reads += 1
        self.stats.bytes_read += request.n_bytes
        if session is not None:
            session.reads += 1
            session.bytes_read += request.n_bytes
        # Silent corruption: the read *succeeds* — same timing, same status —
        # but the payload is marked corrupt for checksum-verifying clients.
        # (plan is None on the fused path, so this costs nothing there.)
        if plan is not None and plan.silently_corrupts(request):
            request.corrupt = True
            self.stats.faults["silent_corruption"] = \
                self.stats.faults.get("silent_corruption", 0) + 1
        self._complete(request)
        self._signal_media(request)

    # -- write path ---------------------------------------------------------------
    def _service_write(self, request):
        env = self.env
        plan = self.fault_plan
        # No fusion here: the controller overhead is followed by a *shared*
        # bus acquisition, and folding the overhead into the bus hold would
        # change the arbitration window other contenders see.
        yield env.timeout(self.spec.controller_overhead)
        if plan is not None and plan.failed_at(env.now):
            # Dead drive: refuse the data before it crosses the bus.
            self._fail_request(request, FAIL_STOP)
            return
        # Data moves from IOP memory across the bus into the drive first.
        bus_hold = self.bus_port.transfer_event(env, request.n_bytes,
                                                session_id=request.session_id)
        if bus_hold is None:
            yield from self.bus_port.transfer(env, request.n_bytes,
                                              session_id=request.session_id)
        else:
            yield bus_hold
        if plan is not None:
            error = plan.media_error(request)
            if error is not None:
                # The drive took the data but reports a write error before
                # buffering it; the client may retry with a fresh request.
                self._fail_request(request, error)
                return

        if self.spec.write_cache_enabled:
            # Wait for buffer space, then complete; destage happens in background.
            while len(self._write_buffer) >= self.write_buffer_capacity:
                waiter = Event(env)
                self._buffer_waiters.append(waiter)
                yield waiter
            self._write_buffer.append(request)
            self._writes_outstanding += 1
            self._kick_destage()
            self._account_write(request)
            self._complete(request)
        else:
            yield from self._write_to_media(request)
            self._account_write(request)
            self._complete(request)
            self._signal_media(request)
            self._maybe_release_flush_waiters()

    def _destage_round(self):
        """Destage buffered writes until none is left; returns the wake event."""
        while self._write_buffer:
            request = self._write_buffer.popleft()
            if self._buffer_waiters:
                self._buffer_waiters.popleft().succeed()
            yield from self._write_to_media(request)
            self._writes_outstanding -= 1
            self._signal_media(request)
            self._maybe_release_flush_waiters()
        self._destage_work = work = Event(self.env)
        return work

    def _write_to_media(self, request):
        if self._lost_at_destage(request):
            return
        env = self.env
        plan = self.fault_plan
        # A write that continues exactly where the previous media operation
        # ended streams at media rate; anything else pays seek + rotation.
        positioning = self.mechanics.positioning_time(env.now, request.lbn)
        transfer = self.mechanics.media.transfer_time(request.lbn, request.n_sectors)
        self.stats.seek_time += positioning
        self.stats.transfer_time += transfer
        end_lbn = request.lbn + request.n_sectors
        self.mechanics.current_cylinder = self.geometry.cylinder_of(
            min(end_lbn, self.geometry.total_sectors - 1))
        # Writing invalidates any read-ahead state (conservative).
        self.readahead.invalidate()
        delay = positioning + transfer
        if plan is not None:
            delay *= plan.slow_multiplier(env.now)
        yield env.timeout(delay)
