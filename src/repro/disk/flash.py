"""The simulated flash SSD: FTL, erase-block GC, write cache and an NCQ queue.

The paper's core claim rests on *positioning costs* — disk-directed I/O wins
because the IOP can schedule around seeks and rotation.  This module builds
the device on which that question gets re-asked: a flash SSD with no moving
parts, where parallelism lives *inside* the device (channels + a native
command queue) and the cost structure is page programs, block erases and
garbage collection instead of seeks.

An :class:`SSD` subclasses :class:`~repro.disk.drive.BlockDevice`, the
front end it shares with :class:`~repro.disk.drive.Disk` — the same
``read`` / ``write`` / ``write_tracked`` / ``submit`` / ``flush`` surface,
the same :class:`~repro.disk.drive.DiskStats` /
:class:`~repro.disk.drive.SessionDiskStats` counters, the same
:class:`~repro.disk.faults.FaultPlan` hooks — so
:class:`~repro.machine.machine.Machine`, the shared per-drive IOP queues and
every file-system implementation run on either device unchanged
(``Machine(config, device="ssd")``).

Component split (after the FTL-SIM exemplar in SNIPPETS.md):

* :class:`FlashTranslationLayer` — a page-level logical-to-physical map over
  erase blocks, with greedy or cost-benefit garbage collection and
  write-amplification accounting.  Pure data structure, no simulation time;
  the Hypothesis property tests drive it directly.
* a volatile write cache — writes complete once the data crosses the bus and
  fits in the cache; a background destage process programs pages through the
  FTL (mirroring the disk's write-behind buffer, including lost-destage
  accounting under fail-stop).
* an NCQ-style internal queue — ``ncq_depth`` worker processes pull from one
  submission queue, so up to that many requests are in service at once; per
  ``lpn % channels`` striping turns concurrent requests into channel-level
  parallelism.  There is no seek-order to optimise (the FTL virtualises
  addresses), which is exactly the experimental point: an ``SSD`` has no
  drive-queue scheduling policy.

Timing model: a read costs controller overhead + one flash-page read per
page (channel-parallel within a request) + the SCSI transfer; a destaged
write costs one page program per page plus whatever GC work (relocation
reads/programs, block erases) the FTL reports for that program.  Reads never
consult the mapping for *timing* — a page lookup is controller-SRAM work —
so reading data that was never explicitly written (pre-existing simulated
files) is charged like any other flash read.
"""

import math
from collections import deque
from dataclasses import dataclass, field

from repro.disk.drive import READ, BlockDevice
from repro.disk.faults import FAIL_STOP
from repro.disk.specs import HP97560_SPEC
from repro.sim.events import Event
from repro.sim.resources import Resource


@dataclass(frozen=True)
class SSDSpec:
    """Full description of a flash solid-state drive model."""

    name: str = "flash-ssd"
    #: logical geometry: sector-addressed exactly like a disk, so file-system
    #: layouts and experiment configs carry over unchanged
    total_sectors: int = HP97560_SPEC.total_sectors
    sector_size: int = 512
    #: flash geometry
    page_size: int = 4096
    pages_per_block: int = 64
    #: physical capacity headroom beyond the logical space, as a fraction —
    #: the GC's working room (a device with none could never reclaim)
    overprovision: float = 0.07
    #: independent flash channels (per-page stripe: ``lpn % channels``)
    channels: int = 4
    #: native command queue depth: requests in service at once
    ncq_depth: int = 8
    #: per-page flash operation times, seconds
    read_page_time: float = 1.8e-3
    program_page_time: float = 1.8e-3
    erase_block_time: float = 2.0e-3
    #: per-command controller overhead (command decode, map lookup)
    controller_overhead: float = 0.1e-3
    #: volatile write-cache capacity, pages
    write_cache_pages: int = 64
    write_cache_enabled: bool = True
    #: garbage collection: victim policy and free-block watermarks
    gc_policy: str = "greedy"
    gc_low_water: int = 2
    gc_high_water: int = 4

    # -- derived quantities ----------------------------------------------------
    @property
    def sectors_per_page(self):
        """Sectors per flash page."""
        return self.page_size // self.sector_size

    @property
    def logical_pages(self):
        """Logical pages covering the sector address space."""
        return -(-self.total_sectors // self.sectors_per_page)

    @property
    def physical_blocks(self):
        """Erase blocks on the device (logical space + overprovision)."""
        pages = math.ceil(self.logical_pages * (1.0 + self.overprovision))
        return -(-pages // self.pages_per_block)

    @property
    def physical_pages(self):
        """Total programmable pages."""
        return self.physical_blocks * self.pages_per_block

    @property
    def capacity_bytes(self):
        """Logical (formatted) capacity in bytes."""
        return self.total_sectors * self.sector_size

    @property
    def sequential_read_rate(self):
        """Peak sequential read bandwidth, bytes/s (all channels streaming)."""
        return self.channels * self.page_size / self.read_page_time

    @property
    def sequential_write_rate(self):
        """Peak sequential write bandwidth, bytes/s (no GC, cache enabled)."""
        return self.channels * self.page_size / self.program_page_time


def matched_ssd_spec(disk_spec=HP97560_SPEC, **overrides):
    """An :class:`SSDSpec` whose sequential bandwidth equals *disk_spec*'s.

    The headline flash experiment holds sequential bandwidth constant across
    media — the page times are chosen so that all channels streaming together
    move bytes exactly at the disk's sustained (track-switch-inclusive)
    sequential rate, in both directions.  What *differs* is everything else:
    no positioning costs, device-internal parallelism, GC.  Field overrides
    are applied before the page times are derived from ``channels`` and
    ``page_size``, so e.g. ``matched_ssd_spec(channels=8)`` stays matched.
    """
    fields = dict(
        name=f"flash-ssd (matched to {disk_spec.name})",
        total_sectors=disk_spec.total_sectors,
        sector_size=disk_spec.sector_size,
    )
    fields.update(overrides)
    probe = SSDSpec(**fields)
    rate = disk_spec.sustained_transfer_rate
    page_time = probe.channels * probe.page_size / rate
    fields.setdefault("read_page_time", page_time)
    fields.setdefault("program_page_time", page_time)
    return SSDSpec(**fields)


# -- the flash translation layer -----------------------------------------------

@dataclass(slots=True)
class GCReport:
    """Garbage-collection work performed inside one FTL call."""

    relocated: int = 0
    erases: int = 0

    def merge(self, other):
        self.relocated += other.relocated
        self.erases += other.erases


class FlashTranslationLayer:
    """Page-level logical-to-physical map over erase blocks, with GC.

    Pure bookkeeping — no simulated time.  The device charges time for the
    work each call *reports* (page programs, GC relocations, erases).

    Invariants the property tests pin:

    * every logical page maps to at most one live physical page, through any
      interleaving of writes, trims and collections;
    * GC conserves live data byte-for-byte (an optional per-write *payload*
      rides along through relocations);
    * write amplification is >= 1 always, and exactly 1 under pure-sequential
      fill (a single pass over the logical space never triggers GC, because
      the overprovisioned blocks cover it).

    ``gc_policy`` is ``greedy`` (min live pages) or ``cost-benefit``
    (max ``(1 - u) / (1 + u) * age``, the classic LFS formulation — prefers
    cold blocks even when a slightly emptier hot one exists).  Victim choice
    is deterministic: candidates are scanned in block order, ties keep the
    lowest block id.
    """

    def __init__(self, n_logical_pages, pages_per_block, n_blocks,
                 gc_policy="greedy", gc_low_water=2, gc_high_water=4):
        if n_blocks * pages_per_block <= n_logical_pages:
            raise ValueError(
                f"{n_blocks} blocks x {pages_per_block} pages cannot "
                f"overprovision {n_logical_pages} logical pages")
        if gc_policy not in ("greedy", "cost-benefit"):
            raise ValueError(f"unknown GC policy {gc_policy!r}")
        # Relocation mid-collection allocates into the active block and may
        # open a fresh one before the victim is erased, so the trigger must
        # leave at least one spare free block of slack.
        if gc_low_water < 2:
            raise ValueError(f"gc_low_water must be >= 2, got {gc_low_water}")
        if gc_high_water <= gc_low_water:
            raise ValueError("gc_high_water must exceed gc_low_water")
        self.n_logical_pages = n_logical_pages
        self.pages_per_block = pages_per_block
        self.n_blocks = n_blocks
        self.gc_policy = gc_policy
        self.gc_low_water = gc_low_water
        self.gc_high_water = gc_high_water

        self._map = {}                      # lpn -> live ppn
        # block -> {offset: lpn}, only for blocks opened and not yet erased
        self._block_live = {}
        self._payload = {}                  # ppn -> caller data (optional)
        self._valid = [0] * n_blocks
        self._sealed_at = [0] * n_blocks    # logical timestamp at seal
        self._sealed = set()
        # Free pool: blocks [_unused, n_blocks) were never opened; _erased
        # holds reclaimed blocks in erase order.  Never-used blocks go out
        # first, lowest id first, then erased ones oldest first.
        self._unused = 0
        self._erased = deque()
        self._active = None
        self._next_offset = 0
        self._tick = 0

        #: wear: erases per block (cost-benefit age uses seal time, not wear)
        self.erase_counts = [0] * n_blocks
        self.host_pages_written = 0
        self.relocated_pages = 0
        self.erases = 0
        self.trims = 0

    # -- public operations -----------------------------------------------------
    def write(self, lpn, payload=None):
        """Map *lpn* to a freshly-programmed page; returns ``(ppn, GCReport)``.

        The report covers GC work this write forced (possibly none); the
        device charges one page program plus the reported relocations and
        erases.  *payload* optionally rides along (the property tests use it
        to check byte conservation through GC; the device passes None).
        """
        if not 0 <= lpn < self.n_logical_pages:
            raise ValueError(
                f"logical page {lpn} outside device of "
                f"{self.n_logical_pages} pages")
        self._tick += 1
        report = self._ensure_free_blocks()
        old = self._map.get(lpn)
        if old is not None:
            self._invalidate(old)
        ppn = self._allocate_page()
        self._map[lpn] = ppn
        self._block_live[ppn // self.pages_per_block][
            ppn % self.pages_per_block] = lpn
        self._valid[ppn // self.pages_per_block] += 1
        if payload is not None:
            self._payload[ppn] = payload
        self.host_pages_written += 1
        return ppn, report

    def trim(self, lpn):
        """Drop *lpn*'s mapping (its physical page becomes reclaimable)."""
        old = self._map.pop(lpn, None)
        if old is not None:
            self._invalidate(old)
            self.trims += 1

    def read(self, lpn):
        """The live physical page of *lpn*, or None when unmapped."""
        return self._map.get(lpn)

    def read_payload(self, lpn):
        """The payload written at *lpn* (surviving GC), or None."""
        ppn = self._map.get(lpn)
        return None if ppn is None else self._payload.get(ppn)

    # -- accounting ------------------------------------------------------------
    @property
    def live_pages(self):
        """Logical pages currently mapped."""
        return len(self._map)

    @property
    def free_blocks(self):
        """Erase blocks ready for allocation."""
        return self.n_blocks - self._unused + len(self._erased)

    @property
    def flash_pages_written(self):
        """Physical page programs: host writes plus GC relocations."""
        return self.host_pages_written + self.relocated_pages

    @property
    def write_amplification(self):
        """Flash programs per host program (1.0 before any host write)."""
        if self.host_pages_written == 0:
            return 1.0
        return self.flash_pages_written / self.host_pages_written

    def counters(self):
        """JSON-friendly snapshot of the FTL's work counters."""
        return {
            "host_pages_written": self.host_pages_written,
            "flash_pages_written": self.flash_pages_written,
            "relocated_pages": self.relocated_pages,
            "erases": self.erases,
            "trims": self.trims,
            "live_pages": self.live_pages,
            "free_blocks": self.free_blocks,
            "write_amplification": self.write_amplification,
        }

    def check_consistency(self):
        """Raise AssertionError unless every internal invariant holds.

        Used by the property tests after arbitrary op interleavings: the
        map and the per-block live tables must be inverse bijections, valid
        counts must match, and free blocks must be empty.
        """
        seen = {}
        for block in range(self.n_blocks):
            live = self._block_live.get(block, {})
            if len(live) != self._valid[block]:
                raise AssertionError(
                    f"block {block}: valid count {self._valid[block]} != "
                    f"{len(live)} live entries")
            for offset, lpn in live.items():
                ppn = block * self.pages_per_block + offset
                if lpn in seen:
                    raise AssertionError(
                        f"logical page {lpn} live at both {seen[lpn]} "
                        f"and {ppn}")
                seen[lpn] = ppn
                if self._map.get(lpn) != ppn:
                    raise AssertionError(
                        f"logical page {lpn} live at {ppn} but mapped "
                        f"to {self._map.get(lpn)}")
        if seen.keys() != self._map.keys():
            raise AssertionError("map and block tables disagree on live pages")
        free = list(range(self._unused, self.n_blocks)) + list(self._erased)
        if len(set(free)) != len(free):
            raise AssertionError("a block is in the free pool twice")
        for block in free:
            if self._valid[block] or block in self._block_live:
                raise AssertionError(f"free block {block} is not empty")

    # -- allocation and collection ----------------------------------------------
    def _allocate_page(self):
        if self._active is None:
            if self._unused < self.n_blocks:
                self._active = self._unused
                self._unused += 1
            elif self._erased:
                self._active = self._erased.popleft()
            else:
                raise RuntimeError("flash device out of free blocks")
            self._block_live[self._active] = {}
            self._next_offset = 0
        ppn = self._active * self.pages_per_block + self._next_offset
        self._next_offset += 1
        if self._next_offset == self.pages_per_block:
            self._sealed.add(self._active)
            self._sealed_at[self._active] = self._tick
            self._active = None
        return ppn

    def _invalidate(self, ppn):
        block, offset = divmod(ppn, self.pages_per_block)
        del self._block_live[block][offset]
        self._valid[block] -= 1
        self._payload.pop(ppn, None)

    def _ensure_free_blocks(self):
        report = GCReport()
        if self.free_blocks > self.gc_low_water:
            return report
        while self.free_blocks < self.gc_high_water:
            victim = self._choose_victim()
            if victim is None:
                break
            self._collect(victim, report)
        return report

    def _choose_victim(self):
        best = None
        best_score = None
        full = self.pages_per_block
        for block in sorted(self._sealed):
            valid = self._valid[block]
            if valid == full:
                continue        # nothing to reclaim; moving it gains nothing
            if self.gc_policy == "greedy":
                score = -valid  # fewest live pages wins
            else:
                utilisation = valid / full
                age = self._tick - self._sealed_at[block]
                score = (1.0 - utilisation) / (1.0 + utilisation) * age
            if best_score is None or score > best_score:
                best = block
                best_score = score
        return best

    def _collect(self, victim, report):
        self._sealed.discard(victim)
        live = self._block_live.pop(victim)
        for offset in sorted(live):
            lpn = live[offset]
            old_ppn = victim * self.pages_per_block + offset
            ppn = self._allocate_page()
            self._map[lpn] = ppn
            self._block_live[ppn // self.pages_per_block][
                ppn % self.pages_per_block] = lpn
            self._valid[ppn // self.pages_per_block] += 1
            payload = self._payload.pop(old_ppn, None)
            if payload is not None:
                self._payload[ppn] = payload
            report.relocated += 1
            self.relocated_pages += 1
        self._valid[victim] = 0
        self.erase_counts[victim] += 1
        self.erases += 1
        report.erases += 1
        self._erased.append(victim)


# -- the device ----------------------------------------------------------------

class FlashAddressSpace:
    """Sector-to-page address arithmetic (the SSD's ``geometry``)."""

    def __init__(self, spec):
        self.spec = spec
        self.total_sectors = spec.total_sectors
        self.sectors_per_page = spec.sectors_per_page

    def page_of(self, lbn):
        """Logical page containing sector *lbn*."""
        return lbn // self.sectors_per_page

    def page_span(self, lbn, n_sectors):
        """The logical pages a sector run touches, as a ``range``."""
        first = lbn // self.sectors_per_page
        last = (lbn + n_sectors - 1) // self.sectors_per_page
        return range(first, last + 1)


class SSD(BlockDevice):
    """A simulated flash drive attached to a SCSI bus on one IOP.

    Shares :class:`~repro.disk.drive.Disk`'s request, stat and fault front
    end (:class:`~repro.disk.drive.BlockDevice`).  Parallelism is internal:
    ``spec.ncq_depth`` worker processes serve the submission queue
    concurrently, and each request's pages stripe over ``spec.channels``
    single-occupancy channel resources.  There is no drive-queue scheduling
    policy — the FTL virtualises addresses, so request order buys nothing.
    """

    _queue_type = deque                  # NCQ submission queue (FIFO)

    def __init__(self, env, spec=None, bus_port=None, name="ssd",
                 write_buffer_pages=None, fault_plan=None):
        spec = spec if spec is not None else matched_ssd_spec()
        self.ftl = FlashTranslationLayer(
            spec.logical_pages, spec.pages_per_block,
            spec.physical_blocks, gc_policy=spec.gc_policy,
            gc_low_water=spec.gc_low_water,
            gc_high_water=spec.gc_high_water)
        self._channels = [Resource(env, capacity=1, name=f"{name}.ch{index}")
                          for index in range(spec.channels)]
        self._buffered_pages = 0
        self._cached_lpns = {}                # lpn -> pending-destage count
        self._last_lbn = 0
        if write_buffer_pages is None:
            write_buffer_pages = spec.write_cache_pages
        super().__init__(env, spec, bus_port, name, fault_plan,
                         FlashAddressSpace(spec), write_buffer_pages)

    @property
    def head_lbn_estimate(self):
        """End of the last serviced request (for scheduling policies).

        Flash has no head, but shared-queue policies expect a position to
        sort against; the last serviced LBN is deterministic and harmless
        (sorting buys nothing on flash either way).
        """
        return self._last_lbn

    def flash_counters(self):
        """FTL work counters plus device-level cache stats (JSON-friendly)."""
        counters = self.ftl.counters()
        counters["cache_hits"] = self.stats.cache_hits
        counters["cache_misses"] = self.stats.cache_misses
        return counters

    # -- the NCQ worker pool -----------------------------------------------------
    def _start_workers(self):
        self._workers = [self.env.process(self._ncq_worker(self))
                         for _ in range(self.spec.ncq_depth)]

    @staticmethod
    def _ncq_worker(ssd):
        """One NCQ worker: rounds of :meth:`_ncq_round`, parked between.

        The workers park on one shared wake event; see
        :class:`~repro.disk.drive.BlockDevice` for why a parked worker
        holds only that event.
        """
        wake = yield from ssd._ncq_round()
        del ssd
        while True:
            wake = yield from (yield wake)._ncq_round()

    def _ncq_round(self):
        """Serve queued requests until none is left; returns the wake event."""
        while self._queue:
            request = self._queue.popleft()
            wait = self.env.now - request.submit_time
            self.stats.queue_wait_time += wait
            start = self.env.now
            if request.op == READ:
                yield from self._service_read(request)
            else:
                yield from self._service_write(request)
            # With ncq_depth workers, per-request service spans overlap;
            # busy_time is total service seconds, not wall occupancy.
            busy = self.env.now - start
            self.stats.busy_time += busy
            if request.session_id is not None:
                session = self.session(request.session_id)
                session.queue_wait_time += wait
                session.service_time += busy
        work = self._work
        if work is None or work.triggered:
            work = self._work = Event(self.env)
        return work

    # -- channel holds -----------------------------------------------------------
    def _hold_channel(self, channel, hold):
        event = channel.acquire_event(hold)
        if event is not None:
            yield event
        else:
            yield from channel.acquire(hold)

    def _parallel_holds(self, per_channel):
        """Hold several channels concurrently; resumes when all are done.

        *per_channel* maps channel index -> hold seconds.  The common case
        (all pages on one channel) stays a plain inline hold; multi-channel
        requests fan out into child processes joined on one event — this is
        what lets a single large request use the device's full bandwidth.
        """
        if len(per_channel) == 1:
            (index, hold), = per_channel.items()
            yield from self._hold_channel(self._channels[index], hold)
            return
        done = Event(self.env)
        remaining = len(per_channel)

        def child(channel, hold):
            nonlocal remaining
            yield from self._hold_channel(channel, hold)
            remaining -= 1
            if remaining == 0:
                done.succeed()

        for index in sorted(per_channel):
            self.env.process(child(self._channels[index], per_channel[index]))
        yield done

    def _channel_times(self, pages, per_page_time):
        """Fold a page list into per-channel hold times (lpn stripe)."""
        per_channel = {}
        n_channels = self.spec.channels
        for lpn in pages:
            index = lpn % n_channels
            per_channel[index] = per_channel.get(index, 0.0) + per_page_time
        return per_channel

    # -- read path ---------------------------------------------------------------
    def _service_read(self, request):
        env = self.env
        spec = self.spec
        plan = self.fault_plan
        session = self.session(request.session_id) \
            if request.session_id is not None else None
        yield env.timeout(spec.controller_overhead)
        pages = self.geometry.page_span(request.lbn, request.n_sectors)
        if plan is not None:
            if plan.failed_at(env.now):
                self._fail_request(request, FAIL_STOP)
                return
            error = plan.media_error(request)
            if error is not None:
                # The device attempts the flash reads and reports the error:
                # charge (possibly stretched) flash time, ship no data.
                self.stats.cache_misses += 1
                if session is not None:
                    session.cache_misses += 1
                slow = plan.slow_multiplier(env.now)
                per_channel = self._channel_times(
                    pages, spec.read_page_time * slow)
                self.stats.transfer_time += sum(per_channel.values())
                yield from self._parallel_holds(per_channel)
                self._fail_request(request, error)
                return
        if all(lpn in self._cached_lpns for lpn in pages):
            # Read hit in the volatile write cache: no flash operation.
            self.stats.cache_hits += 1
            if session is not None:
                session.cache_hits += 1
        else:
            self.stats.cache_misses += 1
            if session is not None:
                session.cache_misses += 1
            slow = plan.slow_multiplier(env.now) if plan is not None else 1.0
            per_channel = self._channel_times(
                pages, spec.read_page_time * slow)
            self.stats.transfer_time += sum(per_channel.values())
            yield from self._parallel_holds(per_channel)
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
        self._last_lbn = request.lbn + request.n_sectors
        # Silent corruption: the read succeeds with flipped payload bytes;
        # only checksum-verifying clients can tell (same model as Disk).
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
        yield env.timeout(self.spec.controller_overhead)
        if plan is not None and plan.failed_at(env.now):
            # Dead device: refuse the data before it crosses the bus.
            self._fail_request(request, FAIL_STOP)
            return
        # Data moves from IOP memory across the bus into the device first.
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
                self._fail_request(request, error)
                return
        pages = self.geometry.page_span(request.lbn, request.n_sectors)
        if self.spec.write_cache_enabled:
            # Wait for cache space (page-granular), then complete; the
            # destage loop programs the pages in the background.  A request
            # larger than the whole cache proceeds alone into an empty
            # cache, so it can never deadlock.
            n_pages = len(pages)
            while self._buffered_pages \
                    and self._buffered_pages + n_pages \
                    > self.write_buffer_capacity:
                waiter = Event(env)
                self._buffer_waiters.append(waiter)
                yield waiter
            self._buffered_pages += n_pages
            for lpn in pages:
                self._cached_lpns[lpn] = self._cached_lpns.get(lpn, 0) + 1
            self._write_buffer.append(request)
            self._writes_outstanding += 1
            self._kick_destage()
            self._account_write(request)
            self._complete(request)
        else:
            yield from self._program_pages(request)
            self._account_write(request)
            self._complete(request)
            self._signal_media(request)
            self._maybe_release_flush_waiters()

    def _destage_round(self):
        """Destage cached writes until none is left; returns the wake event."""
        while self._write_buffer:
            request = self._write_buffer.popleft()
            yield from self._program_pages(request)
            self._release_cached(request)
            self._writes_outstanding -= 1
            # A destage frees several pages at once; wake every waiter and
            # let each re-check (they re-queue in deterministic FIFO order).
            waiters, self._buffer_waiters = self._buffer_waiters, deque()
            for waiter in waiters:
                waiter.succeed()
            self._signal_media(request)
            self._maybe_release_flush_waiters()
        self._destage_work = work = Event(self.env)
        return work

    def _release_cached(self, request):
        pages = self.geometry.page_span(request.lbn, request.n_sectors)
        self._buffered_pages -= len(pages)
        for lpn in pages:
            count = self._cached_lpns.get(lpn, 0) - 1
            if count <= 0:
                self._cached_lpns.pop(lpn, None)
            else:
                self._cached_lpns[lpn] = count

    def _program_pages(self, request):
        """Program a write's pages through the FTL, charging GC work.

        GC relocation reads/programs and block erases are charged on the
        target page's channel — a simplification (real GC spreads over
        channels), deterministic and conservative for the victim channel.
        """
        if self._lost_at_destage(request):
            return
        env = self.env
        plan = self.fault_plan
        spec = self.spec
        slow = plan.slow_multiplier(env.now) if plan is not None else 1.0
        per_channel = {}
        for lpn in self.geometry.page_span(request.lbn, request.n_sectors):
            ppn, gc = self.ftl.write(lpn)
            hold = spec.program_page_time \
                + gc.relocated * (spec.read_page_time
                                  + spec.program_page_time) \
                + gc.erases * spec.erase_block_time
            index = lpn % spec.channels
            per_channel[index] = per_channel.get(index, 0.0) + hold * slow
        self.stats.transfer_time += sum(per_channel.values())
        self._last_lbn = request.lbn + request.n_sectors
        yield from self._parallel_holds(per_channel)
