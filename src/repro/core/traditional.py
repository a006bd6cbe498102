"""Traditional caching: the baseline parallel file system (Figure 1a).

Modelled on Intel CFS-style systems: there is no collective interface.  Each
compute processor walks its own chunk list and issues one request per
contiguous piece of each file block, keeping at most one request outstanding
per disk.  Each I/O processor dispatches every incoming request to a fresh
handler thread which consults the IOP's LRU block cache, performs the disk
I/O on a miss, prefetches one block ahead on reads, accumulates writes in the
cache and flushes buffers once they fill (write-behind).  The reply carries
the data and is deposited straight into the user's buffer by DMA.

Because the IOP software never had a collective interface to begin with, it
is naturally re-entrant: requests from several concurrent collectives (and
several files — cache buffers are keyed per file) interleave freely in the
dispatcher, contending for the cache, the CPU and the disks.
"""

from dataclasses import dataclass

from repro.core.base import CollectiveFileSystem
from repro.core.iop_cache import IOPCache
from repro.disk.faults import BlockFault
from repro.network.message import HEADER_BYTES, Message, MessageKind
from repro.sim.events import AllOf, Event


@dataclass(slots=True)
class _Request:
    """What a CP asks an IOP to do with one piece of one block.

    ``n_requests`` > 1 means this object stands for a *batch* of modeled
    requests: that many back-to-back single-piece requests from one CP to the
    same file block, simulated as one exchange.  ``length`` is then the total
    bytes across the batch and every per-request software cost (CP request
    build, message send/receive, thread dispatch, cache lookup, reply) is
    charged ``n_requests`` times — in one simulator event each.
    """

    kind: str                 # "read" or "write"
    block: int
    offset_in_block: int
    length: int
    cp_index: int
    disk_index: int
    session: object = None    # the CollectiveSession this request belongs to
    reply_event: Event = None
    n_requests: int = 1

    @property
    def file(self):
        """The striped file this request targets."""
        return self.session.file


class TraditionalCachingFS(CollectiveFileSystem):
    """The paper's baseline: per-chunk requests against caching IOPs."""

    method_name = "traditional"

    #: base mailbox tag under which IOPs receive file-system requests
    REQUEST_TAG = "tc-request"

    def __init__(self, machine, striped_file=None, cache_blocks_per_cp_per_disk=2,
                 prefetch_blocks=1, outstanding_per_disk=1, batch_requests=True,
                 fault_policy=None, checksums=False):
        super().__init__(machine, striped_file, fault_policy=fault_policy,
                         checksums=checksums)
        if outstanding_per_disk < 1:
            raise ValueError("need at least one outstanding request per disk")
        self.prefetch_blocks = prefetch_blocks
        self.outstanding_per_disk = outstanding_per_disk
        #: Simulator batching of per-record request streams (see
        #: :meth:`_cp_worker`).  ``False`` restores one simulation event
        #: round-trip per modeled request — the reference behaviour the
        #: batched path is regression-tested against, and the baseline
        #: ``benchmarks/perf_service.py`` measures its speedup over.
        self.batch_requests = batch_requests
        self.cache_blocks_per_cp_per_disk = cache_blocks_per_cp_per_disk
        self.request_tag = (self.REQUEST_TAG, self.fs_id)
        self.caches = []
        for iop in machine.iops:
            local_disks = len(iop.disks)
            capacity = max(2, cache_blocks_per_cp_per_disk
                           * machine.config.n_cps * max(1, local_disks))
            cache = IOPCache(
                env=self.env,
                iop=iop,
                striped_file=striped_file,
                # Route fetches and write-backs through the machine's disk
                # handles: the raw drive normally, or its SharedDiskQueue
                # when cross-collective IOP scheduling is configured —
                # replacing TC's FIFO pass-through to the drive queue.
                disk_lookup=iop.local_disk_handle,
                capacity_blocks=capacity,
                sectors_per_block=machine.config.sectors_per_block,
                fault_policy=fault_policy,
                # Retries and lost write-backs are charged to the session
                # whose id is on the disk request; the lookup returns None
                # once the session has completed and been released.
                session_lookup=self.active_sessions.get,
                checksums=checksums,
            )
            self.caches.append(cache)
            self.env.process(
                self._iop_dispatcher(iop.mailbox.store(self.request_tag)))

    # -- transfer orchestration ---------------------------------------------------------
    def _start_transfer(self, session):
        pattern = session.pattern
        cp_processes = []
        for cp_index in range(self.config.n_cps):
            if pattern.bytes_for_cp(cp_index) == 0:
                continue
            cp_processes.append(self.env.process(self._cp_worker(cp_index, session)))
        if pattern.is_read:
            return AllOf(self.env, cp_processes)
        return self.env.process(self._finish(cp_processes, session))

    def _finish(self, cp_processes, session):
        if cp_processes:
            yield AllOf(self.env, cp_processes)
        if session.pattern.is_write:
            # Write-behind: drain THIS session's dirty buffers to the media
            # (per-session dirty tracking in the IOP caches), so the reported
            # time includes all of its outstanding writes — as in the paper's
            # methodology — without coupling the collective to other
            # sessions' traffic.  A machine-wide cache + disk flush here
            # would make one collective's completion wait on every
            # concurrent collective's dirty volume.
            yield AllOf(self.env, [cache.flush_session(session.session_id)
                                   for cache in self.caches])

    # -- compute-processor side -----------------------------------------------------------
    def _cp_worker(self, cp_index, session):
        """One CP's request loop: ReadCP/WriteCP once per contiguous chunk.

        Mirrors Figure 1a: within one chunk the CP keeps up to one request
        outstanding per disk, and it waits for all of a chunk's requests
        before starting the next chunk (there is no CP-side buffering).  For
        single-block chunks this collapses to one outstanding request per CP —
        the behaviour the paper's sensitivity analysis calls out for ``rc``.

        Simulator batching (``batch_requests``): when records are smaller
        than a file block, the chunk walk degenerates into thousands of
        single-piece chunks per block (the paper's 8-byte cyclic worst case),
        each a full simulated round-trip.  Consecutive single-block chunks
        that land in the *same* block are coalesced into one batched
        :class:`_Request` whose every per-request CPU, header and DMA-setup
        cost is charged ``n_requests`` times but in single simulator events —
        the same substitution disk-directed I/O makes for per-piece Memput
        messages.  The modeled protocol is unchanged: the IOP still sees (and
        charges for) every request; the drive still sees one fetch per block.
        """
        cp_node = self.machine.cps[cp_index]
        if not self.batch_requests:
            for offset, length in session.pattern.chunks_for_cp(cp_index):
                yield from self._issue_byte_range(cp_node, cp_index, session,
                                                  offset, length)
            return
        block_size = session.file.block_size
        # [block, first offset-in-block, total bytes, n requests] — mutated
        # in place: this loop visits every chunk (one per record in the
        # 8-byte cyclic worst case), so no per-chunk tuple rebuilds.
        batch = None
        for offset, length in session.pattern.chunks_for_cp(cp_index):
            block = offset // block_size
            if (offset + length - 1) // block_size != block:
                # Multi-block chunk: flush the batch, take the general path
                # (its own per-disk outstanding-request window applies).
                if batch is not None:
                    yield from self._issue_batched(cp_node, cp_index, session,
                                                   *batch)
                    batch = None
                yield from self._issue_byte_range(cp_node, cp_index, session,
                                                  offset, length)
            elif batch is not None and batch[0] == block:
                batch[2] += length
                batch[3] += 1
            else:
                if batch is not None:
                    yield from self._issue_batched(cp_node, cp_index, session,
                                                   *batch)
                batch = [block, offset % block_size, length, 1]
        if batch is not None:
            yield from self._issue_batched(cp_node, cp_index, session, *batch)

    def _issue_batched(self, cp_node, cp_index, session, block, offset_in_block,
                       length, n_requests):
        """Issue *n_requests* same-block requests as one simulated exchange.

        The unbatched model serialises these (one outstanding request per
        disk, all to the same disk), so a single blocking exchange preserves
        the pacing; only the per-request event round-trips are collapsed.
        """
        striped_file = session.file
        request = _Request(
            kind="write" if session.pattern.is_write else "read",
            block=block,
            offset_in_block=offset_in_block,
            length=length,
            cp_index=cp_index,
            disk_index=striped_file.disk_of_block(block),
            session=session,
            n_requests=n_requests,
        )
        session.count("cp_requests", n_requests)
        yield self.env.process(self._cp_issue_request(cp_node, request))

    def _issue_byte_range(self, cp_node, cp_index, session, offset, length):
        """One ReadCP/WriteCP call: issue per-block requests, then wait for all.

        Shared by traditional caching's chunk loop and two-phase I/O's
        conforming-distribution phase: at most ``outstanding_per_disk``
        requests in flight per disk, then wait for the stragglers.
        """
        striped_file = session.file
        outstanding = {}
        for block, offset_in_block, piece in striped_file.block_pieces(offset, length):
            disk_index = striped_file.disk_of_block(block)
            waiting = outstanding.get(disk_index)
            if waiting is not None and len(waiting) >= self.outstanding_per_disk:
                yield waiting.pop(0)
            request = _Request(
                kind="write" if session.pattern.is_write else "read",
                block=block,
                offset_in_block=offset_in_block,
                length=piece,
                cp_index=cp_index,
                disk_index=disk_index,
                session=session,
            )
            event = self.env.process(self._cp_issue_request(cp_node, request))
            outstanding.setdefault(disk_index, []).append(event)
            session.count("cp_requests")
        remaining = [event for events in outstanding.values() for event in events]
        if remaining:
            yield AllOf(self.env, remaining)

    def _cp_issue_request(self, cp_node, request):
        """Send one request (or batch) to the owning IOP and wait for its reply."""
        costs = self.costs
        iop = self.machine.iop_for_disk(request.disk_index)
        request.reply_event = Event(self.env)
        # CP software: build the request, find the disk, enter the message
        # system — once per modeled request, in one event for a batch.  The
        # CPU charge is inlined on the uncontended fast path (this runs once
        # per modeled exchange, the hottest CP-side loop).
        cpu_time = request.n_requests \
            * (costs.cp_request_overhead + costs.message_overhead)
        if cpu_time > 0:
            charge = cp_node.cpu.acquire_event(cpu_time)
            if charge is None:
                yield from cp_node.cpu.acquire(cpu_time)
            else:
                yield charge
        data_bytes = request.length if request.kind == "write" else 0
        message = Message(
            kind=MessageKind.WRITE_REQUEST if request.kind == "write"
            else MessageKind.READ_REQUEST,
            src=cp_node.node_id,
            dst=iop.node_id,
            data_bytes=data_bytes,
            payload=request,
            session_id=request.session.session_id,
            n_messages=request.n_requests,
        )
        yield from self.machine.network.send(
            message, iop.mailbox, tag=self.request_tag)
        # The reply is DMA'd into the user buffer; the CP just waits for it.
        yield request.reply_event

    # -- I/O-processor side -----------------------------------------------------------------
    @staticmethod
    def _iop_dispatcher(requests):
        """Receive requests from *requests* and dispatch each one.

        Parked, the dispatcher holds only its request store: the file
        system comes with each request (``request.session.fs``), so an idle
        dispatcher is no reference path back to the machine.
        """
        while True:
            message = yield requests.get()
            yield from message.payload.session.fs._dispatch(message)
            del message

    def _dispatch(self, message):
        """Charge the receive and hand the request to a fresh handler thread."""
        costs = self.costs
        iop = self.machine.node(message.dst)
        request = message.payload
        request.session.count("iop_messages", request.n_requests)
        cpu_time = request.n_requests \
            * (costs.message_overhead + costs.thread_dispatch_overhead)
        if cpu_time > 0:
            charge = iop.cpu.acquire_event(cpu_time)
            if charge is None:
                yield from iop.cpu.acquire(cpu_time)
            else:
                yield charge
        handler = self._handle_read if request.kind == "read" \
            else self._handle_write
        self.env.process(handler(iop, self.caches[iop.iop_index], request))

    def _handle_read(self, iop, cache, request):
        costs = self.costs
        striped_file = request.file
        session_id = request.session.session_id
        cpu_time = request.n_requests * costs.cache_lookup_overhead
        if cpu_time > 0:
            charge = iop.cpu.acquire_event(cpu_time)
            if charge is None:
                yield from iop.cpu.acquire(cpu_time)
            else:
                yield charge
        value = yield cache.acquire_for_read(request.block, file=striped_file,
                                             session_id=session_id)
        if isinstance(value, BlockFault):
            # The block is permanently unreadable (cache fetch exhausted its
            # retries): reply with an error — header only, no data, no
            # prefetch — and account the undelivered bytes so conservation
            # (moved + failed == requested) holds for the session.
            self._record_read_failure(request.session, request.length)
            yield from self._charge_cpu(
                iop, request.n_requests * costs.message_overhead)
            cp_node = self.machine.cps[request.cp_index]
            yield from self.machine.network.transfer(
                iop.node_id, cp_node.node_id,
                request.n_requests * HEADER_BYTES,
                count=request.n_requests)
            request.reply_event.succeed()
            return
        # One-block-ahead prefetch: the next block of this file on this disk.
        # Prefetches are the IOP's speculation, not the session's work: they
        # stay untagged so one can land at the drive after its trigger
        # session completed without resurrecting released accounting.
        if self.prefetch_blocks > 0:
            for ahead in range(1, self.prefetch_blocks + 1):
                next_block = request.block + ahead * striped_file.n_disks
                if next_block < striped_file.n_blocks:
                    cache.try_prefetch(next_block, file=striped_file)
        # Reply with the data (deposited into the user's buffer by DMA) —
        # one modeled reply per modeled request.
        cpu_time = request.n_requests * costs.message_overhead
        if cpu_time > 0:
            charge = iop.cpu.acquire_event(cpu_time)
            if charge is None:
                yield from iop.cpu.acquire(cpu_time)
            else:
                yield charge
        cp_node = self.machine.cps[request.cp_index]
        yield from self.machine.network.transfer(
            iop.node_id, cp_node.node_id,
            request.n_requests * HEADER_BYTES + request.length,
            count=request.n_requests)
        request.session.count("bytes_moved", request.length)
        request.reply_event.succeed()

    def _handle_write(self, iop, cache, request):
        costs = self.costs
        striped_file = request.file
        yield from self._charge_cpu(
            iop, request.n_requests * costs.cache_lookup_overhead)
        # Acquire and pin the buffer: under concurrent collectives the cache
        # can thrash, and an unpinned buffer could be evicted between
        # allocation and the copy — silently dropping the written bytes.
        while True:
            yield cache.acquire_for_write(request.block, file=striped_file)
            if cache.pin(request.block, file=striped_file):
                break
        # The single memory-memory copy of the design: thread buffer -> cache.
        copy_time = request.length / costs.memory_copy_bandwidth
        yield from self._charge_cpu(iop, copy_time)
        # The data crossed the wire in the request message; account it here,
        # where the IOP has accepted it into the cache.
        request.session.count("bytes_moved", request.length)
        full = cache.record_write(request.block, request.length,
                                  striped_file.block_size, file=striped_file,
                                  session_id=request.session.session_id)
        if full:
            cache.flush_block(request.block, file=striped_file)
        cache.unpin(request.block, file=striped_file)
        # Acknowledge so the CP can reuse its outstanding-request slot.
        yield from self._charge_cpu(
            iop, request.n_requests * costs.message_overhead)
        cp_node = self.machine.cps[request.cp_index]
        yield from self.machine.network.transfer(
            iop.node_id, cp_node.node_id,
            request.n_requests * HEADER_BYTES,
            count=request.n_requests)
        request.reply_event.succeed()
