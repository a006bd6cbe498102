"""Declustered RAID-5-style parity behind the machine's ``redundancy`` axis.

The paper's array has no redundancy: a fail-stop drive (PR 6) converts every
block it held into ``failed_bytes``.  This module adds the classic remedy at
the layer the paper argues should be smart — the I/O processor.  Parity is
*declustered* by rotating the parity column across drives: physical block
row ``r`` stores its parity on drive ``r % D`` and data on the other ``D-1``
drives, so reconstruction load spreads over every survivor instead of
hammering a dedicated parity drive.

Three cooperating pieces:

* :class:`ParityArray` — shared geometry, counters, the hot spare, and the
  background parity-update machinery.  One per machine when
  ``redundancy="parity"``.
* :class:`ParityDisk` — a per-drive wrapper installed as the machine's disk
  *handle*, duck-compatible with :class:`~repro.disk.drive.Disk` /
  :class:`~repro.disk.flash.SSD` / :class:`~repro.disk.shared_queue.SharedDiskQueue`
  the same way the device axis is.  Reads on a failed drive transparently
  reconstruct from the surviving stripe members (fan-out reads plus XOR time
  charged on the owning IOP's CPU); writes trigger read-modify-write or
  full-stripe parity updates; writes to a dead drive degrade to parity-only
  logging so no byte is ever *lost* — only slower.
* :class:`RebuildProcess` — streams the dead drive's used extent onto the
  hot spare under a bandwidth cap, reading through the *foreground* handles
  (shared IOP queues included) so rebuild traffic and collective traffic
  contend exactly where they would in a real IOP.

Cost honesty.  Every reconstruction fans out real reads to the survivors'
drives (positioning + transfer + bus, concurrently) and then charges
``(inputs × bytes) / memory_copy_bandwidth`` of XOR time on the IOP that owns
the rebuilt drive.  A parity update for ``m`` dirty data columns of a
``D-1``-column stripe pre-reads ``min(m + 1, D-1-m)`` blocks — old-data+old-
parity read-modify-write or reconstruct-write, whichever is cheaper — and
zero blocks for a full stripe, then writes the parity block.  Updates are
coalesced per row over a short window (write-behind), so the small-write
penalty lands where it does in real arrays: on drive occupancy, not on the
foreground write's acceptance latency.

Transient errors are *not* absorbed here: the client's retry policy owns
them.  Only permanent errors (bad sector, fail-stop) trigger reconstruction,
plus explicit :meth:`ParityDisk.repair` calls from checksum-verifying
clients that caught silent corruption.
"""

from repro.disk.drive import READ, WRITE, DiskRequest
from repro.disk.faults import FAIL_STOP, PERMANENT_ERRORS
from repro.sim.events import AllOf, Event, chain

#: The redundancy schemes the ``redundancy=`` axis selects between.
REDUNDANCY_MODES = ("none", "parity")

#: Default rebuild bandwidth cap, bytes/second of reconstructed data.  Low
#: enough that rebuild visibly coexists with foreground load instead of
#: finishing instantly at simulation scale.
DEFAULT_REBUILD_BANDWIDTH = 4 * 1024 * 1024

#: Seconds a dirty stripe row waits for more columns before its parity
#: update is issued — the write-behind coalescing window that lets a burst
#: of same-row writes become one full-stripe update.
PARITY_COALESCE_WINDOW = 0.002

#: Session tag carried by rebuild traffic through the shared disk queues.
REBUILD_SESSION = "rebuild"


def _synthetic(op, lbn, n_sectors, tag, session_id, status="ok", error=None):
    """A completed request standing in for data served by reconstruction."""
    request = DiskRequest(op=op, lbn=lbn, n_sectors=n_sectors, tag=tag,
                          session_id=session_id)
    request.status = status
    request.error = error
    return request


def check_parity_width(n_disks):
    """Raise ``ValueError`` unless *n_disks* drives can hold a parity array."""
    if n_disks < 3:
        raise ValueError(
            "parity needs at least 3 drives "
            f"(got {n_disks}): one parity column per row "
            "plus at least two data columns")


class ParityArray:
    """Shared state of one machine's declustered parity array.

    Owns the stripe geometry, the per-drive used-row map (registered from
    file extents, plus rows discovered from traffic), the hot spare, the
    background parity-update processes and the redundancy counters.  The
    per-drive :class:`ParityDisk` handles delegate all cross-drive work
    here.
    """

    def __init__(self, machine, rebuild_bandwidth=0.0):
        check_parity_width(machine.config.n_disks)
        self.machine = machine
        self.env = machine.env
        self.n_disks = machine.config.n_disks
        self.sectors_per_block = machine.config.sectors_per_block
        self.block_bytes = machine.config.block_size
        self.memory_copy_bandwidth = machine.config.costs.memory_copy_bandwidth
        #: raw drives and pre-wrap foreground handles (queue or raw drive),
        #: captured before the machine swaps ParityDisk wrappers in
        self.raw_disks = list(machine.disks)
        self.handles = list(machine.disk_handles)
        self.spare = machine.spare_disks[0] if machine.spare_disks else None
        self.rebuild_bandwidth = rebuild_bandwidth if rebuild_bandwidth > 0 \
            else DEFAULT_REBUILD_BANDWIDTH
        self.counters = {
            "reconstructed_bytes": 0,
            "parity_overhead_bytes": 0,
            "degraded_reads": 0,
            "degraded_writes": 0,
            "parity_updates": 0,
            "full_stripe_updates": 0,
            "scrub_repairs": 0,
            "rebuilt_rows": 0,
            "rebuild_seconds": 0.0,
        }
        #: per-drive sets of physical block rows holding live data or parity,
        #: the extent map rebuild walks; populated by :meth:`register_file`
        #: and lazily by degraded traffic
        self.used_rows = [set() for _ in range(self.n_disks)]
        self._rebuilt_rows = set()
        self._parity_pending = {}   # row -> set of dirty data column indices
        self.rebuild = None

    # -- geometry ---------------------------------------------------------------
    def parity_disk_of_row(self, row):
        """The drive holding row *row*'s parity block (rotated: ``r % D``)."""
        return row % self.n_disks

    def row_of_lbn(self, lbn):
        """The physical block row an LBN falls in."""
        return lbn // self.sectors_per_block

    def is_rebuilt(self, row):
        """True once *row*'s lost block has been reconstructed on the spare."""
        return row in self._rebuilt_rows

    def failed(self, disk_index, now):
        """True when drive *disk_index* has fail-stopped by *now*."""
        plan = self.machine.fault_plans[disk_index]
        return plan is not None and plan.failed_at(now)

    def note_used_row(self, disk_index, row):
        """Record that *row* on *disk_index* holds live data (rebuild target)."""
        self.used_rows[disk_index].add(row)

    def register_file(self, striped_file):
        """Register every block of *striped_file* (and its parity) as live.

        Walks the file's extent map once: each data block marks its own
        (drive, row), and the row's rotated parity block marks the parity
        drive.  This is what :class:`RebuildProcess` reconstructs.
        """
        spb = self.sectors_per_block
        for block in range(striped_file.n_blocks):
            location = striped_file.location(block)
            if location.disk_index >= self.n_disks:
                continue
            row = location.lbn // spb
            self.used_rows[location.disk_index].add(row)
            self.used_rows[self.parity_disk_of_row(row)].add(row)

    # -- shared cost helpers ----------------------------------------------------
    def charge_xor(self, disk_index, n_bytes):
        """Process fragment: XOR time on the IOP owning *disk_index*."""
        iop = self.machine.iop_for_disk(disk_index)
        yield from iop.compute(n_bytes / self.memory_copy_bandwidth)

    def _survivors(self, disk_index, now):
        """All live drives other than *disk_index*, or None if another died."""
        others = []
        for other in range(self.n_disks):
            if other == disk_index:
                continue
            if self.failed(other, now):
                return None
            others.append(other)
        return others

    def reconstruct(self, disk_index, lbn, n_sectors, tag=None,
                    session_id=None, through_handles=False):
        """Process fragment: rebuild *disk_index*'s sectors from survivors.

        Fans out one read per surviving stripe member at the same physical
        offset (rotated parity means the stripe lives at identical LBNs on
        every drive), waits for all of them, charges the XOR on the owning
        IOP, and returns a synthetic ok request — or None when a second
        failure (or an errored survivor read) makes the stripe unreadable.

        ``through_handles`` routes the fan-out through the foreground
        handles (shared IOP queues) instead of the raw drives: rebuild uses
        it so its reads contend with collective traffic; the degraded
        foreground path reads the raw drives directly, modelling the
        array's own priority path.
        """
        survivors = self._survivors(disk_index, self.env.now)
        if survivors is None:
            return None
        sources = self.handles if through_handles else self.raw_disks
        events = [
            sources[other].read(lbn, n_sectors, tag="parity-reconstruct",
                                session_id=session_id)
            for other in survivors
        ]
        yield AllOf(self.env, events)
        corrupt = False
        for event in events:
            request = event._value
            if request is not None:
                if request.status != "ok":
                    return None
                corrupt = corrupt or request.corrupt
        n_bytes = n_sectors * 512
        yield from self.charge_xor(disk_index, n_bytes * len(survivors))
        self.counters["reconstructed_bytes"] += n_bytes
        result = _synthetic(READ, lbn, n_sectors, tag, session_id)
        # Garbage in, garbage out: XOR over a silently-corrupt survivor
        # yields a silently-corrupt reconstruction, which only a
        # checksum-verifying client can tell apart from good data.
        result.corrupt = corrupt
        return result

    # -- background parity updates ---------------------------------------------
    def note_write(self, disk_index, lbn, n_sectors):
        """Mark the written row(s) parity-dirty and arm a coalesced update."""
        spb = self.sectors_per_block
        first = lbn // spb
        last = (lbn + max(1, n_sectors) - 1) // spb
        for row in range(first, last + 1):
            self.note_used_row(disk_index, row)
            self.note_used_row(self.parity_disk_of_row(row), row)
            pending = self._parity_pending.get(row)
            if pending is None:
                self._parity_pending[row] = {disk_index}
                self.env.process(self._parity_flush(row))
            else:
                pending.add(disk_index)

    def _parity_flush(self, row):
        """Coalesced parity update for one dirty row (background process)."""
        yield self.env.timeout(PARITY_COALESCE_WINDOW)
        columns = self._parity_pending.pop(row, None)
        if not columns:
            return
        now = self.env.now
        parity = self.parity_disk_of_row(row)
        columns.discard(parity)
        data_columns = self.n_disks - 1
        m = len(columns)
        spb = self.sectors_per_block
        lbn = row * spb
        self.counters["parity_updates"] += 1
        # Choose the cheaper pre-read set: read-modify-write (old data of
        # the written columns + old parity) or reconstruct-write (the
        # untouched data columns).  A full stripe needs no pre-reads.  Dead
        # sources force the other mode; with a single failure one of the
        # two is always all-live.
        if m >= data_columns:
            sources = []
            self.counters["full_stripe_updates"] += 1
        else:
            rmw = sorted(columns) + [parity]
            reconstruct = [d for d in range(self.n_disks)
                           if d != parity and d not in columns]
            candidates = sorted((rmw, reconstruct), key=len)
            sources = None
            for candidate in candidates:
                if not any(self.failed(d, now) for d in candidate):
                    sources = candidate
                    break
            if sources is None:    # >= 2 failures: best effort, no pre-reads
                sources = []
        if sources:
            events = [self.raw_disks[d].read(lbn, spb, tag="parity-preread")
                      for d in sources]
            yield AllOf(self.env, events)
            self.counters["parity_overhead_bytes"] += \
                len(sources) * self.block_bytes
        yield from self.charge_xor(
            parity, (len(sources) + m) * self.block_bytes)
        # Land the new parity block: on the parity drive when alive, on the
        # spare once rebuild has recreated this row there, else nowhere
        # (the row's protection returns when rebuild reaches it).
        target = None
        if not self.failed(parity, self.env.now):
            target = self.raw_disks[parity]
        elif self.is_rebuilt(row) and self.spare is not None:
            target = self.spare
        if target is not None:
            yield target.write(lbn, spb, tag="parity-update")
            self.counters["parity_overhead_bytes"] += self.block_bytes

    def drain_parity(self):
        """Event succeeding once no parity update is pending (for drains)."""
        done = Event(self.env)

        def _wait():
            while self._parity_pending:
                yield self.env.timeout(PARITY_COALESCE_WINDOW)
            done.succeed()
        self.env.process(_wait())
        return done

    # -- degraded writes --------------------------------------------------------
    def degraded_write(self, disk_index, lbn, n_sectors, tag=None,
                       session_id=None):
        """Process fragment: log a dead-drive write into the row's parity.

        Reconstruct-write, synchronously: read the row's untouched live data
        columns, XOR with the incoming data, write the new parity block.
        The lost column's contents are then recoverable, so the write
        *succeeds* — degraded, not lost.  Returns the synthetic request
        (errored only if the stripe has a second failure).
        """
        now = self.env.now
        row = self.row_of_lbn(lbn)
        parity = self.parity_disk_of_row(row)
        spb = self.sectors_per_block
        row_lbn = row * spb
        self.note_used_row(disk_index, row)
        self.note_used_row(parity, row)
        others = [d for d in range(self.n_disks)
                  if d not in (disk_index, parity)]
        if any(self.failed(d, now) for d in others):
            return _synthetic(WRITE, lbn, n_sectors, tag, session_id,
                              status="error", error=FAIL_STOP)
        events = [self.raw_disks[d].read(row_lbn, spb, tag="parity-preread")
                  for d in others]
        if events:
            yield AllOf(self.env, events)
            self.counters["parity_overhead_bytes"] += \
                len(events) * self.block_bytes
        yield from self.charge_xor(
            parity, (len(events) + 1) * self.block_bytes)
        parity_target = None
        if not self.failed(parity, self.env.now):
            parity_target = self.raw_disks[parity]
        elif self.is_rebuilt(row) and self.spare is not None:
            parity_target = self.spare
        if parity_target is not None:
            yield parity_target.write(row_lbn, spb, tag="parity-update")
            self.counters["parity_overhead_bytes"] += self.block_bytes
        self.counters["degraded_writes"] += 1
        return _synthetic(WRITE, lbn, n_sectors, tag, session_id)

    # -- rebuild ----------------------------------------------------------------
    def arm_rebuild(self):
        """Start the background rebuild for the first fail-stop drive, if any.

        Called by the machine once fault plans exist.  Only drives with a
        *scheduled* fail-stop rebuild (transients and bad sectors do not
        evacuate a drive); the first such drive gets the (single) spare.
        """
        if self.spare is None:
            return None
        for disk_index, plan in enumerate(self.machine.fault_plans):
            if plan is not None and plan.fail_stop_time is not None:
                self.rebuild = RebuildProcess(
                    self, disk_index, plan.fail_stop_time,
                    self.rebuild_bandwidth)
                return self.rebuild
        return None


class ParityDisk:
    """Parity-aware stand-in for one drive's request handle.

    Installed in ``machine.disk_handles`` (and the owning IOP's handle list)
    when ``redundancy="parity"``; exposes the same ``read`` / ``write`` /
    ``write_tracked`` / ``flush`` / ``submit`` surface as the raw drive and
    the shared queue, so protocol code above is redundancy-agnostic.
    """

    def __init__(self, array, index, target, raw):
        self.array = array
        self.index = index
        #: where primary I/O goes: the shared IOP queue, or the raw drive
        self.target = target
        #: the raw device (for stats, head position, direct-twin routing)
        self.raw = raw
        self._direct = None

    # -- passthroughs ------------------------------------------------------------
    @property
    def disk(self):
        """A parity-aware *direct* twin, standing in for ``queue.disk``.

        Disk-directed I/O's shared-queue jobs bypass the queue and talk to
        ``queue.disk``; handing back a twin targeting the raw drive keeps
        those reads/writes inside the parity path without re-queueing.
        """
        if self.target is self.raw:
            return self
        if self._direct is None:
            self._direct = ParityDisk(self.array, self.index, self.raw,
                                      self.raw)
        return self._direct

    @property
    def stats(self):
        return self.raw.stats

    @property
    def session_stats(self):
        return self.raw.session_stats

    @property
    def head_lbn_estimate(self):
        return self.raw.head_lbn_estimate

    def session(self, session_id):
        return self.raw.session(session_id)

    def release_session(self, session_id):
        self.target.release_session(session_id)

    def submit(self, *args, **kwargs):
        """Forward job submission to the shared queue (shared mode only)."""
        return self.target.submit(*args, **kwargs)

    def flush(self):
        return self.target.flush()

    # -- reads -------------------------------------------------------------------
    def read(self, lbn, n_sectors, tag=None, session_id=None):
        done = Event(self.array.env)
        self.array.env.process(
            self._read_process(lbn, n_sectors, tag, session_id, done))
        return done

    def _read_process(self, lbn, n_sectors, tag, session_id, done):
        array = self.array
        env = array.env
        if array.failed(self.index, env.now):
            row = array.row_of_lbn(lbn)
            if array.is_rebuilt(row) and array.spare is not None:
                request = yield array.spare.read(lbn, n_sectors, tag=tag,
                                                 session_id=session_id)
                done.succeed(request)
                return
            array.note_used_row(self.index, row)
            request = yield from array.reconstruct(
                self.index, lbn, n_sectors, tag=tag, session_id=session_id)
            if request is None:
                request = _synthetic(READ, lbn, n_sectors, tag, session_id,
                                     status="error", error=FAIL_STOP)
            else:
                array.counters["degraded_reads"] += 1
            done.succeed(request)
            return
        request = yield self.target.read(lbn, n_sectors, tag=tag,
                                         session_id=session_id)
        if request.status != "ok" and request.error in PERMANENT_ERRORS:
            repaired = yield from array.reconstruct(
                self.index, lbn, n_sectors, tag=tag, session_id=session_id)
            if repaired is not None:
                array.counters["degraded_reads"] += 1
                request = repaired
        done.succeed(request)

    def repair(self, lbn, n_sectors, session_id=None):
        """Re-deliver sectors by reconstruction, bypassing a corrupt copy.

        Called by checksum-verifying clients when a read came back
        ``corrupt``; the corrupt drive's column is excluded and rebuilt
        from the row's other members.  The event's request is errored with
        ``error="checksum"`` when the stripe cannot be reconstructed.
        """
        done = Event(self.array.env)
        self.array.env.process(
            self._repair_process(lbn, n_sectors, session_id, done))
        return done

    def _repair_process(self, lbn, n_sectors, session_id, done):
        array = self.array
        request = yield from array.reconstruct(
            self.index, lbn, n_sectors, session_id=session_id)
        if request is None or request.corrupt:
            request = _synthetic(READ, lbn, n_sectors, None, session_id,
                                 status="error", error="checksum")
        else:
            array.counters["scrub_repairs"] += 1
        done.succeed(request)

    # -- writes ------------------------------------------------------------------
    def write(self, lbn, n_sectors, tag=None, session_id=None):
        done = Event(self.array.env)
        self.array.env.process(
            self._write_process(lbn, n_sectors, tag, session_id, done, None))
        return done

    def write_tracked(self, lbn, n_sectors, tag=None, session_id=None):
        env = self.array.env
        done = Event(env)
        media = Event(env)
        env.process(
            self._write_process(lbn, n_sectors, tag, session_id, done, media))
        return done, media

    def _write_process(self, lbn, n_sectors, tag, session_id, done, media):
        array = self.array
        env = array.env
        if array.failed(self.index, env.now):
            row = array.row_of_lbn(lbn)
            if array.is_rebuilt(row) and array.spare is not None:
                accepted, on_media = array.spare.write_tracked(
                    lbn, n_sectors, tag=tag, session_id=session_id)
                request = yield accepted
                if request.status == "ok":
                    array.note_write(self.index, lbn, n_sectors)
                done.succeed(request)
                if media is not None:
                    chain(on_media, media)
                return
            request = yield from array.degraded_write(
                self.index, lbn, n_sectors, tag=tag, session_id=session_id)
            done.succeed(request)
            if media is not None:
                media.succeed(request)
            return
        accepted, on_media = self.target.write_tracked(
            lbn, n_sectors, tag=tag, session_id=session_id)
        request = yield accepted
        if request.status == "ok":
            array.note_write(self.index, lbn, n_sectors)
            done.succeed(request)
            if media is not None:
                chain(on_media, media)
            return
        if request.error in PERMANENT_ERRORS:
            request = yield from array.degraded_write(
                self.index, lbn, n_sectors, tag=tag, session_id=session_id)
        done.succeed(request)
        if media is not None:
            media.succeed(request)


class RebuildProcess:
    """Streams a dead drive's used extent onto the hot spare.

    Starts at the drive's scheduled fail-stop instant and walks its
    registered rows in LBN order: each row is reconstructed from the
    survivors *through the foreground handles* (so rebuild reads sit in the
    shared IOP queues next to collective traffic, tagged
    ``session_id="rebuild"``), then written to the spare.  A token-paced
    bandwidth cap throttles how fast reconstructed bytes may land, keeping
    rebuild from starving foreground service.  ``done`` fires when every
    known row is rebuilt.
    """

    def __init__(self, array, disk_index, start_time, bandwidth):
        self.array = array
        self.disk_index = disk_index
        self.start_time = start_time
        self.bandwidth = bandwidth
        self.rows_done = 0
        self.finished_at = None
        self.done = Event(array.env)
        array.env.process(self._run())

    def _run(self):
        array = self.array
        env = array.env
        if env.now < self.start_time:
            yield env.event_at(self.start_time)
        started = env.now
        spb = array.sectors_per_block
        row_seconds = array.block_bytes / self.bandwidth
        next_slot = started
        while True:
            remaining = sorted(
                array.used_rows[self.disk_index] - array._rebuilt_rows)
            if not remaining:
                break
            for row in remaining:
                if env.now < next_slot:
                    yield env.timeout(next_slot - env.now)
                request = yield from array.reconstruct(
                    self.disk_index, row * spb, spb,
                    session_id=REBUILD_SESSION, through_handles=True)
                if request is not None and array.spare is not None:
                    yield array.spare.write(row * spb, spb, tag="rebuild",
                                            session_id=REBUILD_SESSION)
                    array._rebuilt_rows.add(row)
                    array.counters["rebuilt_rows"] += 1
                    self.rows_done += 1
                else:
                    # unreconstructable (second failure): give up on the row
                    array._rebuilt_rows.add(row)
                next_slot = max(next_slot, started) + row_seconds
        self.finished_at = env.now
        array.counters["rebuild_seconds"] = env.now - started
        for disk in set(array.raw_disks) | ({array.spare} if array.spare else set()):
            disk.release_session(REBUILD_SESSION)
        for handle in array.handles:
            if handle not in array.raw_disks:
                handle.release_session(REBUILD_SESSION)
        if not self.done.triggered:
            self.done.succeed(self.rows_done)
