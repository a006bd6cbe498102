"""Shared plumbing for the collective-I/O implementations.

The central abstraction is the :class:`CollectiveSession`: one in-flight
collective operation (a pattern applied to one striped file).  A
:class:`CollectiveFileSystem` is bound to a machine and can run *many*
sessions concurrently — :meth:`~CollectiveFileSystem.begin_transfer` starts a
session without blocking, and the service-style workload driver
(:mod:`repro.workload`) streams dozens of them through one machine.  The
original single-collective interface, :meth:`~CollectiveFileSystem.transfer`,
remains and simply runs one session to completion.
"""

from functools import partial
from itertools import count

from repro.core.result import TransferResult
from repro.disk.faults import retry_fragment
from repro.sim.events import Event
from repro.sim.stats import Counter

#: Counter names tracked both per session and for the file system's lifetime.
#: ``bytes_moved`` counts CP<->IOP traffic only; without faults it equals the
#: pattern's requested bytes, and under fault injection the conservation
#: invariant becomes ``bytes_moved + failed_bytes == bytes_requested`` (every
#: requested byte is either delivered or explicitly accounted as failed).
#: CP-to-CP redistribution (two-phase I/O's permute phase) is tallied
#: separately in ``permute_bytes``.  The fault counters: ``retries`` is the
#: number of re-submitted disk requests; ``failed_blocks`` counts blocks
#: given up on; ``failed_bytes`` is requested-but-undelivered read traffic;
#: ``lost_bytes`` is write traffic the CPs shipped but the drive never made
#: durable (it still counts in ``bytes_moved`` — the wire work happened — so
#: it sits outside the conservation sum); ``degraded`` is 0 or 1 per session
#: (its file-system lifetime twin therefore counts degraded sessions).
SESSION_COUNTERS = ("cp_requests", "iop_messages", "bytes_moved",
                    "permute_bytes", "retries", "failed_blocks",
                    "failed_bytes", "lost_bytes", "degraded")

_session_ids = count()
_fs_ids = count()


class CollectiveSession:
    """One in-flight collective operation: a pattern applied to one file.

    Sessions are created by :meth:`CollectiveFileSystem.begin_transfer`; the
    implementation's processes carry the session instead of bare patterns so
    several collectives can be in flight on the same machine without their
    messages, buffers or statistics crossing wires.  ``done`` fires with the
    session's :class:`TransferResult` when the operation — including any
    write-behind — is complete.
    """

    __slots__ = ("session_id", "fs", "pattern", "file", "env", "start_time",
                 "end_time", "done", "counters", "result")

    def __init__(self, fs, pattern, striped_file):
        self.session_id = next(_session_ids)
        self.fs = fs
        self.pattern = pattern
        self.file = striped_file
        self.env = fs.env
        self.start_time = None
        self.end_time = None
        self.done = Event(fs.env)
        #: name -> int; the result snapshot copies it as is.
        self.counters = dict.fromkeys(SESSION_COUNTERS, 0)
        self.result = None

    @property
    def in_flight(self):
        """True while the collective has started but not yet completed."""
        return self.start_time is not None and self.end_time is None

    @property
    def elapsed(self):
        """Simulated seconds from start to completion (None while in flight)."""
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def bytes_moved(self):
        """Bytes actually moved between CPs and IOPs for this collective."""
        return self.counters["bytes_moved"]

    @property
    def bytes_requested(self):
        """Bytes the pattern asks the I/O system to move."""
        return self.pattern.total_transfer_bytes()

    def count(self, name, amount=1):
        """Increment a session counter (and its file-system lifetime twin).

        Counters outside :data:`SESSION_COUNTERS` (e.g. ``scrub_errors``
        from checksum verification) are created lazily on first use, so
        result snapshots only grow keys on runs that actually exercise the
        corresponding machinery.
        """
        counters = self.counters
        counters[name] = counters.get(name, 0) + amount
        fs_counter = self.fs.counters.get(name)
        if fs_counter is None:
            fs_counter = self.fs.counters[name] = Counter(name)
        fs_counter.add(amount)

    def __repr__(self):
        state = "in-flight" if self.in_flight else \
            ("done" if self.result is not None else "new")
        return (f"<CollectiveSession #{self.session_id} {self.pattern.name} "
                f"on {self.file.name!r} [{state}]>")


class CollectiveFileSystem:
    """Base class: a file-system implementation bound to one machine.

    Subclasses implement :meth:`_start_transfer`, which kicks off all the
    simulation processes for one :class:`CollectiveSession` and returns an
    event that fires when the operation — including any write-behind — is
    complete.  Implementations must be *re-entrant*: any state specific to one
    collective (buffer pools, completion tallies, reply routing) belongs on
    the session or in per-session mailbox tags, never on ``self``.

    ``striped_file`` is the default target file; re-entrant callers may
    instead pass a file per transfer, so one instance can serve a whole
    multi-file workload.
    """

    method_name = "abstract"

    def __init__(self, machine, striped_file=None, fault_policy=None,
                 checksums=False):
        self.machine = machine
        self.env = machine.env
        self.config = machine.config
        self.costs = machine.config.costs
        self.file = striped_file
        #: Optional :class:`~repro.disk.faults.FaultPolicy` governing how
        #: this file system reacts to errored disk requests (None: errors
        #: degrade immediately, which only matters when the machine injects
        #: faults — a healthy machine never produces an errored request).
        self.fault_policy = fault_policy
        #: End-to-end integrity: verify per-block checksums at the client
        #: on every read.  Off by default — without it, silently-corrupted
        #: payloads (``DiskRequest.corrupt``) are delivered as if clean; see
        #: :meth:`_verify_read`.
        self.checksums = checksums
        #: Distinguishes this instance's mailbox traffic from any other
        #: instance sharing the machine (e.g. a DDIO and a TC file system
        #: being compared on the same simulated hardware).
        self.fs_id = next(_fs_ids)
        #: Lifetime totals across every session this instance has run.
        self.counters = {name: Counter(name) for name in SESSION_COUNTERS}
        #: Sessions currently in flight (session_id -> session).
        self.active_sessions = {}

    # -- public API -------------------------------------------------------------
    def transfer(self, pattern, striped_file=None):
        """Run one collective read or write and return its :class:`TransferResult`.

        The simulation clock is *not* reset between calls, so several
        transfers can be issued back to back on the same machine (an
        out-of-core application alternating reads and writes, for example).
        """
        session = self.begin_transfer(pattern, striped_file)
        self.env.run(session.done)
        return session.result

    def begin_transfer(self, pattern, striped_file=None):
        """Start a collective without blocking; returns its :class:`CollectiveSession`.

        The caller decides when to advance the simulation (``env.run``) and
        may start further collectives first — that is how the workload driver
        models a server handling concurrent requests.  ``session.done`` fires
        with the :class:`TransferResult` once the collective completes.
        """
        target = striped_file if striped_file is not None else self.file
        if target is None:
            raise ValueError(
                "no target file: pass striped_file to begin_transfer() or "
                "bind a default file at construction")
        self._validate_pattern(pattern, target)
        session = CollectiveSession(self, pattern, target)
        session.start_time = self.env.now
        self.active_sessions[session.session_id] = session
        self._start_transfer(session).callbacks.append(
            partial(self._complete, session))
        return session

    def _complete(self, session, done):
        """Callback on the event :meth:`_start_transfer` returned.

        A failed *done* is left undefused, so the engine raises its
        exception out of ``env.run`` just as a failed waiter process would.
        """
        if not done.ok:
            return
        session.end_time = self.env.now
        session.result = TransferResult(
            method=self.method_name,
            pattern_name=session.pattern.name,
            layout_name=session.file.layout.name,
            file_size=session.file.size_bytes,
            record_size=session.pattern.record_size,
            n_cps=self.config.n_cps,
            n_iops=self.config.n_iops,
            n_disks=self.config.n_disks,
            start_time=session.start_time,
            end_time=session.end_time,
            bytes_transferred=session.bytes_requested,
            counters=self._snapshot_counters(session),
        )
        del self.active_sessions[session.session_id]
        # The per-session disk/bus tallies are folded into the result above;
        # drop them so a long request stream does not accumulate one
        # accounting entry per collective on every drive and bus.
        self.machine.release_session(session.session_id)
        session.done.succeed(session.result)

    # -- to be provided by subclasses ------------------------------------------------
    def _start_transfer(self, session):
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------------------
    def _validate_pattern(self, pattern, striped_file):
        if pattern.file_size != striped_file.size_bytes:
            raise ValueError(
                f"pattern is for a {pattern.file_size}-byte file but the file is "
                f"{striped_file.size_bytes} bytes")
        if pattern.n_cps != self.config.n_cps:
            raise ValueError(
                f"pattern is for {pattern.n_cps} CPs but the machine has "
                f"{self.config.n_cps}")

    def _snapshot_counters(self, session):
        # Every key is scoped to THIS session: the protocol counters come
        # from the session object, and the disk stats / bus share come from
        # request tagging (session ids threaded through Disk, SharedDiskQueue
        # and the SCSI bus ports).  ``bus_busy_fraction`` is the busiest
        # single bus's occupancy on this session's transfers divided by the
        # session's elapsed time.  Concurrent collectives therefore no
        # longer bleed into each other's results; reads coalesced by the
        # traditional-caching block cache are attributed to the session
        # whose miss issued the fetch.
        snapshot = dict(session.counters)
        snapshot.update(self.machine.session_disk_stats(session.session_id))
        snapshot["message_wire_bytes"] = \
            self.machine.network.session_message_wire_bytes(session.session_id)
        elapsed = session.elapsed
        busy = self.machine.session_bus_busy_seconds(session.session_id)
        snapshot["bus_busy_fraction"] = \
            min(1.0, busy / elapsed) if elapsed else 0.0
        return snapshot

    # -- common cost fragments --------------------------------------------------------
    def _charge_cpu(self, node, seconds):
        """Process fragment: occupy *node*'s CPU for *seconds*.

        The uncontended case (one event, no inner generator) goes through
        :meth:`~repro.sim.resources.Resource.acquire_event`; a busy CPU falls
        back to the queueing :meth:`~repro.sim.resources.Resource.acquire`.
        The hottest per-piece paths inline this same pattern directly rather
        than delegating here.
        """
        if seconds > 0:
            event = node.cpu.acquire_event(seconds)
            if event is None:
                yield from node.cpu.acquire(seconds)
            else:
                yield event

    def _send(self, session, src_node, dst_node, data_bytes, header_bytes=32):
        """Process fragment: move a message's bytes across the interconnect."""
        yield from self.machine.network.transfer(
            src_node.node_id, dst_node.node_id, header_bytes + data_bytes)
        session.count("bytes_moved", data_bytes)

    # -- failure handling -------------------------------------------------------------
    def _fault_retry(self, session, attempt, failed):
        """Process fragment: bounded retry after *failed*; returns the request.

        The caller yields the first ``attempt()`` itself and comes here only
        when its request *failed*.  Delegates to
        :func:`repro.disk.faults.retry_fragment` (each retry submits a
        brand-new request — drives do not keep errored requests), counting
        each retry against *session*.  The returned request may still carry
        ``status == "error"`` — the caller decides how to degrade; under
        ``on_fault="abort"`` a terminal failure raises
        :class:`~repro.disk.faults.FaultAbort` instead.
        """
        on_retry = (lambda: session.count("retries")) \
            if session is not None else None
        request = yield from retry_fragment(
            self.env, self.fault_policy, attempt, on_retry, first=failed)
        return request

    def _verify_read(self, session, disk, request):
        """Process fragment: client-side checksum check of a completed read.

        With ``checksums`` off (the default) this is free and returns the
        request untouched — a corrupt payload is delivered as if clean,
        which is exactly the invisibility the knob exists to close.  With
        them on, a ``corrupt`` payload is always detected (counted as
        ``scrub_errors``) and, when the handle is a parity wrapper, repaired
        in place via :meth:`~repro.disk.redundancy.ParityDisk.repair`;
        without redundancy (or if reconstruction fails) the request is
        downgraded to ``status="error"`` / ``error="checksum"`` and the
        caller's ordinary read-failure accounting takes over.
        """
        if not self.checksums or request.status != "ok" \
                or not request.corrupt:
            return request
            yield  # pragma: no cover - makes this a generator even when skipped
        session.count("scrub_errors")
        repair = getattr(disk, "repair", None)
        if repair is not None:
            repaired = yield repair(request.lbn, request.n_sectors,
                                    session_id=request.session_id)
            if repaired.status == "ok":
                return repaired
        request.status = "error"
        request.error = "checksum"
        return request

    def _record_read_failure(self, session, n_bytes):
        """Account one block's worth of undeliverable read data."""
        session.count("failed_blocks")
        session.count("failed_bytes", n_bytes)
        self._mark_degraded(session)

    def _record_write_loss(self, session, n_bytes):
        """Account one accepted-but-never-durable block of write data."""
        session.count("failed_blocks")
        session.count("lost_bytes", n_bytes)
        self._mark_degraded(session)

    def _mark_degraded(self, session):
        if session.counters["degraded"] == 0:
            session.count("degraded")


def filesystem_class(method):
    """``(class, default keyword arguments)`` of collective-I/O *method*.

    *method* is one of ``traditional`` (aliases ``tc``, ``caching``),
    ``disk-directed`` (aliases ``ddio``, ``ddio-sort``), ``ddio-nosort``, or
    ``two-phase`` (alias ``2p``); any other name raises ``ValueError``.
    """
    # Imported here to avoid an import cycle (the implementations subclass us).
    from repro.core.ddio import DiskDirectedFS
    from repro.core.traditional import TraditionalCachingFS
    from repro.core.twophase import TwoPhaseFS

    key = method.lower()
    if key in ("traditional", "tc", "caching", "traditional-caching"):
        return TraditionalCachingFS, {}
    if key in ("disk-directed", "ddio", "ddio-sort", "disk-directed-sorted"):
        return DiskDirectedFS, {"presort": True}
    if key in ("ddio-nosort", "disk-directed-nosort", "disk-directed-unsorted"):
        return DiskDirectedFS, {"presort": False}
    if key in ("two-phase", "2p", "twophase"):
        return TwoPhaseFS, {}
    raise ValueError(f"unknown collective-I/O method {method!r}")


def make_filesystem(method, machine, striped_file=None, **kwargs):
    """Factory used by the experiment harness and examples."""
    implementation, defaults = filesystem_class(method)
    return implementation(machine, striped_file, **{**defaults, **kwargs})
