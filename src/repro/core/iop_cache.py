"""The per-IOP block cache used by traditional caching.

The cache follows the paper's description of the baseline system: LRU
replacement, one-block-ahead prefetch after each read request, and
write-behind that flushes a buffer once all of its bytes have been written.
It must also cope with many concurrent requesters: a block being fetched has
a ready-event that later requesters simply wait on, and eviction of a dirty
buffer forces its write-back first.

Buffers are keyed per (file, block), so one cache can serve requests against
several concurrently-open files — block 5 of one file and block 5 of another
are distinct buffers.  Every public method takes an optional ``file``
argument; omitting it uses the file bound at construction, preserving the
original single-file interface.

Per-session accounting: reads, prefetches and writes carry an optional
``session_id``.  Disk fetches are attributed to the session whose miss
issued them (later sessions coalescing onto the same fetch ride free), and
each buffer remembers *which* sessions' bytes it holds
(``dirty_by_session``), so :meth:`IOPCache.flush_session` can drain exactly
one collective's write-behind — to the media, via tracked writes — without
waiting on any other session's dirty volume.
"""

from dataclasses import dataclass, field
from itertools import count

from repro.disk.faults import BlockFault, retry_fragment
from repro.sim.events import Event, chain


#: entry states
EMPTY = "empty"
FETCHING = "fetching"
VALID = "valid"


@dataclass
class IOPCacheStats:
    """Counters for one IOP cache."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    prefetches_issued: int = 0
    prefetches_used: int = 0
    prefetches_wasted: int = 0
    evictions: int = 0
    writebacks: int = 0
    full_flushes: int = 0

    def hit_rate(self):
        """Fraction of lookups that found the block already cached or in flight."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


@dataclass
class _CacheEntry:
    block: int
    file: object = None
    state: str = EMPTY
    ready: Event = None
    dirty_bytes: int = 0
    written_bytes: int = 0
    last_use: int = 0
    flushing: bool = False
    flush_event: Event = None
    was_prefetch: bool = False
    touched_after_prefetch: bool = False
    pins: int = 0
    #: session id -> bytes of this buffer's dirty data that session wrote;
    #: cleared when a write-back is registered (the sessions then wait on
    #: the write-back's media event instead).
    dirty_by_session: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


class IOPCache:
    """An LRU cache of file blocks for one I/O processor."""

    def __init__(self, env, iop, striped_file, disk_lookup, capacity_blocks,
                 sectors_per_block, stats=None, fault_policy=None,
                 session_lookup=None, checksums=False):
        """
        ``disk_lookup`` maps a global disk index to that IOP's local
        :class:`~repro.disk.drive.Disk` object.  ``striped_file`` is the
        default file for block arguments; it may be ``None`` when every call
        passes an explicit ``file``.

        ``fault_policy`` (a :class:`~repro.disk.faults.FaultPolicy`) governs
        fetch/write-back retries on a fault-injecting machine;
        ``session_lookup`` maps a session id to its live
        :class:`~repro.core.base.CollectiveSession` so retries and lost
        write-back bytes are counted against the owning session (either may
        be None on a healthy machine).
        """
        if capacity_blocks < 1:
            raise ValueError(f"cache needs at least one block, got {capacity_blocks}")
        self.env = env
        self.iop = iop
        self.file = striped_file
        self.disk_lookup = disk_lookup
        self.capacity = capacity_blocks
        self.sectors_per_block = sectors_per_block
        self.fault_policy = fault_policy
        self.session_lookup = session_lookup
        #: Verify per-block checksums on every fetch (end-to-end integrity);
        #: a corrupt payload is then never cached — it is parity-repaired
        #: through the handle's ``repair`` method when the machine has
        #: redundancy, or surfaced as a :class:`BlockFault` otherwise.
        self.checksums = checksums
        self.stats = stats if stats is not None else IOPCacheStats()
        self._entries = {}
        #: misses that have been accepted but whose buffer/disk work has not
        #: finished yet, registered synchronously so concurrent requests for
        #: the same block coalesce onto one disk read.
        self._inflight = {}
        #: session id -> media-completion events of write-backs carrying that
        #: session's bytes; consumed (and dropped) by :meth:`flush_session`.
        self._session_media = {}
        self._use_clock = count()
        self._space_waiters = []

    # -- keys ----------------------------------------------------------------------
    def _file_of(self, file):
        target = file if file is not None else self.file
        if target is None:
            raise ValueError("no file bound to this cache: pass file= explicitly")
        return target

    def _key(self, block, file):
        return (id(file), block)

    # -- queries --------------------------------------------------------------------
    def __contains__(self, block):
        if self.file is None:
            return False  # no default file bound; use contains(block, file)
        return self._key(block, self.file) in self._entries

    def contains(self, block, file=None):
        """Whether (*file*, *block*) currently has a buffer."""
        return self._key(block, self._file_of(file)) in self._entries

    def __len__(self):
        return len(self._entries)

    @property
    def dirty_blocks(self):
        """Blocks (across all files) with bytes not yet written to disk."""
        return [entry.block for entry in self._entries.values()
                if entry.dirty_bytes > 0]

    def _dirty_entries(self):
        # A write-back in flight zeroed dirty_bytes at registration but the
        # data is not on disk yet; flush_all must still wait for it.
        return [entry for entry in self._entries.values()
                if entry.dirty_bytes > 0 or entry.flushing]

    # -- read path --------------------------------------------------------------------
    def acquire_for_read(self, block, prefetch=False, file=None, session_id=None):
        """Event that fires when *block*'s data is in the cache.

        A miss allocates a buffer (evicting if needed) and issues the disk
        read, attributed to *session_id* (the session whose request missed;
        sessions that later coalesce onto the same fetch are not charged).
        ``prefetch=True`` marks the fetch as speculative for the
        prefetch-accuracy statistics.
        """
        striped_file = self._file_of(file)
        key = self._key(block, striped_file)
        self.stats.lookups += 1
        if key in self._inflight:
            self.stats.hits += 1
            return self._inflight[key]
        entry = self._entries.get(key)
        if entry is not None and entry.state in (FETCHING, VALID):
            self.stats.hits += 1
            self._touch(entry)
            if entry.was_prefetch and not entry.touched_after_prefetch and not prefetch:
                entry.touched_after_prefetch = True
                self.stats.prefetches_used += 1
            if entry.state == VALID:
                ready = Event(self.env)
                ready.succeed()
                return ready
            return entry.ready
        self.stats.misses += 1
        ready = Event(self.env)
        self._inflight[key] = ready
        self.env.process(
            self._fetch(block, striped_file, ready, prefetch,
                        session_id=session_id))
        return ready

    def try_prefetch(self, block, file=None):
        """Prefetch *block* if it is absent and a buffer is free without eviction.

        The paper's cache prefetches one block ahead after every read request;
        we skip the prefetch rather than evict for it, which is both safer
        (no deadlock on a full cache) and kind to the workload.  The
        speculative read is deliberately *not* attributed to any session:
        like write-buffer destage it is the IOP's own background work, and
        an attributed prefetch could land at the drive after its triggering
        session completed and its accounting was released.
        """
        striped_file = self._file_of(file)
        if block < 0 or block >= striped_file.n_blocks:
            return False
        key = self._key(block, striped_file)
        if key in self._entries or key in self._inflight:
            return False
        if len(self._entries) >= self.capacity:
            return False
        self.stats.prefetches_issued += 1
        ready = Event(self.env)
        self._inflight[key] = ready
        self.env.process(self._fetch(block, striped_file, ready,
                                     was_prefetch=True))
        return True

    def _fetch(self, block, striped_file, ready, was_prefetch=False,
               session_id=None):
        entry = yield from self._allocate(block, striped_file)
        entry.state = FETCHING
        entry.ready = ready
        entry.was_prefetch = was_prefetch
        location = striped_file.location(block)
        disk = self.disk_lookup(location.disk_index)
        def attempt():
            return disk.read(location.lbn, self.sectors_per_block,
                             session_id=session_id)
        request = yield attempt()
        if request.status != "ok":
            request = yield from retry_fragment(
                self.env, self.fault_policy, attempt,
                self._count_retry(session_id), first=request)
        if self.checksums and request.status == "ok" and request.corrupt:
            # End-to-end integrity: the checksum over the fetched payload
            # does not match.  Count the detection, then reconstruct from
            # parity when the handle supports it; without redundancy the
            # fetch degrades to a BlockFault below — never a poisoned
            # VALID entry serving corrupt hits.
            self._count_scrub(session_id)
            repair = getattr(disk, "repair", None)
            if repair is not None:
                request = yield repair(location.lbn, self.sectors_per_block,
                                       session_id=session_id)
            else:
                request.status = "error"
                request.error = "checksum"
        if request.status != "ok":
            # Permanently unreadable: drop the buffer rather than leave a
            # poisoned VALID entry serving garbage hits.  A FETCHING entry
            # is never picked as an eviction victim, so nobody else owns
            # it.  Every waiter coalesced onto this fetch receives a
            # BlockFault instead of data and accounts its own failure.
            key = self._key(block, striped_file)
            self._entries.pop(key, None)
            self._inflight.pop(key, None)
            if not ready.triggered:
                ready.succeed(BlockFault(block, request.error))
            self._notify_space()
            return
        entry.state = VALID
        self._inflight.pop(self._key(block, striped_file), None)
        if not ready.triggered:
            ready.succeed()
        self._notify_space()

    # -- write path --------------------------------------------------------------------
    def acquire_for_write(self, block, file=None):
        """Event firing when a buffer for *block* is available to receive data.

        Traditional caching does not read-modify-write: partial writes simply
        accumulate in the buffer (the paper flushes once *n* bytes have been
        written to an *n*-byte buffer).
        """
        striped_file = self._file_of(file)
        key = self._key(block, striped_file)
        self.stats.lookups += 1
        if key in self._inflight:
            self.stats.hits += 1
            return self._inflight[key]
        entry = self._entries.get(key)
        ready = Event(self.env)
        if entry is not None:
            self.stats.hits += 1
            self._touch(entry)
            ready.succeed()
            return ready
        self.stats.misses += 1
        self._inflight[key] = ready
        self.env.process(self._allocate_for_write(block, striped_file, ready))
        return ready

    def _allocate_for_write(self, block, striped_file, ready):
        entry = yield from self._allocate(block, striped_file)
        entry.state = VALID
        self._inflight.pop(self._key(block, striped_file), None)
        if not ready.triggered:
            ready.succeed()

    def pin(self, block, file=None):
        """Protect (*file*, *block*) from eviction; False if it is not resident.

        A write handler pins the buffer between allocation and
        :meth:`record_write`, closing the window where cache pressure could
        evict the buffer and silently drop the written bytes.
        """
        entry = self._entries.get(self._key(block, self._file_of(file)))
        if entry is None:
            return False
        entry.pins += 1
        return True

    def unpin(self, block, file=None):
        """Release one pin on (*file*, *block*)."""
        entry = self._entries.get(self._key(block, self._file_of(file)))
        if entry is None or entry.pins <= 0:
            return
        entry.pins -= 1
        if entry.pins == 0:
            # An allocation may be waiting for an evictable victim.
            self._notify_space()

    def record_write(self, block, n_bytes, block_size, file=None, session_id=None):
        """Account *n_bytes* written into *block*'s buffer; True when it is full.

        *session_id* marks whose bytes now sit in the buffer, so
        :meth:`flush_session` can later drain exactly that session's
        write-behind.  If the buffer was evicted (written back) between
        allocation and this call — possible under extreme cache pressure —
        the bytes are simply treated as already flushed and False is
        returned.
        """
        entry = self._entries.get(self._key(block, self._file_of(file)))
        if entry is None:
            self.stats.extra_lost_buffers = getattr(self.stats, "extra_lost_buffers", 0) + 1
            return False
        entry.dirty_bytes = min(block_size, entry.dirty_bytes + n_bytes)
        entry.written_bytes += n_bytes
        if session_id is not None:
            entry.dirty_by_session[session_id] = \
                entry.dirty_by_session.get(session_id, 0) + n_bytes
        self._touch(entry)
        return entry.written_bytes >= block_size

    def flush_block(self, block, file=None):
        """Event firing when *block*'s dirty data has reached its disk."""
        entry = self._entries.get(self._key(block, self._file_of(file)))
        return self._flush_entry(entry)

    def _register_writeback(self, entry):
        """Synchronously book a write-back for *entry*; returns its events.

        Creates the (accepted, media) placeholder pair, files the media
        event under every session whose bytes the buffer holds (so
        :meth:`flush_session` finds it even though the disk request is
        issued later, inside the write-back process), and returns
        ``(done, media, owner)`` where *owner* is the session the disk
        write is attributed to (the buffer's first writer — an
        approximation when several sessions share one block).

        The write-back *owns* the buffer's dirty bytes from this moment:
        ``dirty_bytes`` and ``dirty_by_session`` are reset here, so bytes
        recorded while the disk write is in flight accumulate from zero and
        stay dirty for a follow-up write-back instead of being wiped when
        this one lands.
        """
        done = Event(self.env)
        media = Event(self.env)
        owner = next(iter(entry.dirty_by_session), None)
        for session_id in entry.dirty_by_session:
            self._session_media.setdefault(session_id, []).append(media)
        entry.dirty_by_session = {}
        entry.dirty_bytes = 0
        return done, media, owner

    def _flush_entry(self, entry):
        if entry is not None and entry.flushing and entry.flush_event is not None:
            # A write-back is already under way; wait for that one.
            return entry.flush_event
        if entry is None or entry.dirty_bytes == 0:
            done = Event(self.env)
            done.succeed()
            return done
        # Mark the write-back as in flight *before* the process gets a chance
        # to run, so a concurrent flush_all() waits for it instead of issuing
        # a duplicate disk write.
        done, media, owner = self._register_writeback(entry)
        entry.flushing = True
        entry.flush_event = done
        self.env.process(self._writeback(entry, done, media, owner))
        return done

    def flush_all(self):
        """Event firing when every dirty block (of every file) is written back.

        "Written back" means accepted by the drive (write-cache semantics);
        pair with ``Disk.flush`` to wait for the media, or use
        :meth:`flush_session` for a per-collective media-level drain.
        """
        events = [self._flush_entry(entry) for entry in self._dirty_entries()]
        done = Event(self.env)
        if not events:
            done.succeed()
            return done
        gate = self.env.all_of(events)

        def _finish(_event):
            if not done.triggered:
                done.succeed()
        gate.callbacks.append(_finish)
        return done

    def flush_session(self, session_id):
        """Event firing when every byte *session_id* wrote has reached the media.

        Triggers write-backs for the buffers still holding this session's
        dirty bytes and waits for the media completion of every write-back
        that ever carried them (including full-buffer flushes issued
        mid-run).  Repeats until clean: bytes this session recorded while
        one of its buffers was already being written back stay dirty and
        are picked up by a follow-up write-back on the next pass.  Other
        sessions' dirty volume is *not* waited on — one collective's
        completion is decoupled from its neighbours' write-behind.
        """
        done = Event(self.env)
        self.env.process(self._flush_session_process(session_id, done))
        return done

    def _flush_session_process(self, session_id, done):
        while True:
            flushes = [self._flush_entry(entry)
                       for entry in list(self._entries.values())
                       if session_id in entry.dirty_by_session]
            media = self._session_media.pop(session_id, [])
            if not flushes and not media:
                break
            for event in flushes + media:
                yield event
            # Re-check: an in-flight write-back we waited on may have left
            # this session's late-arriving bytes dirty.
        if not done.triggered:
            done.succeed()

    def _writeback(self, entry, done, media, owner=None):
        entry.flushing = True
        entry.flush_event = done
        self.stats.writebacks += 1
        location = entry.file.location(entry.block)
        disk = self.disk_lookup(location.disk_index)
        if self.fault_policy is None:
            # Healthy path, kept verbatim: the media placeholder is chained
            # before the first yield so the unfaulted event sequence is
            # bit-identical to the pre-fault implementation.
            accepted, on_media = disk.write_tracked(
                location.lbn, self.sectors_per_block, session_id=owner)
            chain(on_media, media)
            yield accepted
        else:
            media_box = []

            def attempt():
                accepted, on_media = disk.write_tracked(
                    location.lbn, self.sectors_per_block, session_id=owner)
                media_box.append(on_media)
                return accepted
            request = yield from retry_fragment(
                self.env, self.fault_policy, attempt,
                self._count_retry(owner))
            if request.status == "ok":
                # Only the successful attempt's media event stands for this
                # write-back; earlier failed attempts already fired theirs.
                chain(media_box[-1], media)
            else:
                # The data is lost at the drive.  Fire the placeholder
                # anyway (carrying the errored request) so flush_session /
                # flush_all never hang on a dead drive, and account the
                # loss to the buffer's owning session.
                self._record_write_loss(owner)
                if not media.triggered:
                    media.succeed(request)
        # dirty_bytes is NOT reset here: _register_writeback took ownership
        # of the bytes this write covers, so whatever is dirty now arrived
        # while the write was in flight and waits for the next write-back.
        entry.flushing = False
        entry.flush_event = None
        if not done.triggered:
            done.succeed()
        self._notify_space()

    # -- fault accounting -------------------------------------------------------------
    def _count_retry(self, session_id):
        """A per-retry callback charging *session_id*, or None."""
        if self.session_lookup is None or session_id is None:
            return None
        def on_retry():
            session = self.session_lookup(session_id)
            if session is not None:
                session.count("retries")
        return on_retry

    def _count_scrub(self, session_id):
        """Count one checksum-detected corrupt fetch against its session."""
        if self.session_lookup is None or session_id is None:
            return
        session = self.session_lookup(session_id)
        if session is not None:
            session.count("scrub_errors")

    def _record_write_loss(self, session_id):
        """Account one lost write-back buffer against its owning session."""
        if self.session_lookup is None or session_id is None:
            return
        session = self.session_lookup(session_id)
        if session is None:
            return
        session.count("failed_blocks")
        session.count("lost_bytes", self.sectors_per_block * 512)
        if session.counters["degraded"] == 0:
            session.count("degraded")

    # -- allocation / eviction -------------------------------------------------------
    def _allocate(self, block, striped_file):
        """Process fragment returning a resident entry for *block* (evicting if needed)."""
        key = self._key(block, striped_file)
        while True:
            existing = self._entries.get(key)
            if existing is not None:
                self._touch(existing)
                return existing
            if len(self._entries) < self.capacity:
                entry = _CacheEntry(block=block, file=striped_file)
                self._touch(entry)
                self._entries[key] = entry
                return entry
            victim = self._pick_victim()
            if victim is None:
                waiter = Event(self.env)
                self._space_waiters.append(waiter)
                yield waiter
                continue
            if victim.dirty_bytes > 0:
                done, media, owner = self._register_writeback(victim)
                yield from self._writeback(victim, done, media, owner)
            victim_key = self._key(victim.block, victim.file)
            # Re-check pins too: a writer may have pinned the victim while
            # its writeback was in flight, and evicting it now would drop the
            # bytes that writer is about to record.
            if victim_key in self._entries and victim.state != FETCHING \
                    and victim.dirty_bytes == 0 and victim.pins == 0:
                if victim.was_prefetch and not victim.touched_after_prefetch:
                    self.stats.prefetches_wasted += 1
                del self._entries[victim_key]
                self.stats.evictions += 1
            # Loop: re-check capacity (another process may have raced us).

    def _pick_victim(self):
        candidates = [entry for entry in self._entries.values()
                      if entry.state == VALID and not entry.flushing and entry.pins == 0]
        if not candidates:
            return None
        return min(candidates, key=lambda entry: entry.last_use)

    def _touch(self, entry):
        entry.last_use = next(self._use_clock)

    def _notify_space(self):
        waiters, self._space_waiters = self._space_waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()
