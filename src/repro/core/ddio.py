"""Disk-directed I/O (Figure 1c): the paper's contribution.

The compute processors synchronise at a barrier, then one of them multicasts
a single collective request to every I/O processor.  Each IOP independently
determines which blocks of the file live on its disks, optionally presorts
each disk's block list by physical location, and runs two buffer threads per
disk.  Each buffer thread repeatedly takes the next block from the disk's
list, reads it (or gathers it from the CPs with Memget for writes), and moves
the per-CP pieces directly between IOP buffer and CP memory with Memput /
Memget remote-memory operations.  When an IOP finishes all of its blocks it
notifies the requesting CP; a final barrier ends the collective operation.

Concurrency: the IOP server loop accepts a new collective request as soon as
the previous one's handler is spawned, so several collectives (tagged by
session id, each with its own per-disk buffer pool) can be in flight at one
IOP at a time.  They contend for the IOP CPU, the SCSI bus and the disk
queues — exactly the contention a service-style workload is about.

Cross-collective scheduling: when the machine is built with
``disk_scheduler="shared-cscan"`` (or another ``shared-`` policy), the IOP
does not run per-session buffer threads over per-session presorted lists.
Instead it submits every block of every active collective into the drive's
:class:`~repro.disk.shared_queue.SharedDiskQueue`, whose worker pool services
the merged queue in elevator order.  With one collective the behaviour
matches the presorted list; with several, the IOP keeps the single-sweep
order the paper's presort buys at K=1 — per-session sorted streams would
otherwise interleave at the drive and thrash the arm (see
``docs/scheduling.md``).

Fidelity note: every Memput/Memget between an IOP and one CP for one block is
simulated as a single event charged ``setup + n_pieces * per_piece`` CPU time
plus the wire time of the actual bytes.  This matches the cost of the paper's
per-piece messages without creating one simulation event per 8-byte record
(see DESIGN.md, substitution table).
"""

from repro.core.base import CollectiveFileSystem
from repro.disk.drive import READ, WRITE
from repro.network.message import HEADER_BYTES, Message, MessageKind
from repro.sim.events import AllOf
from repro.sim.sync import Barrier


class DiskDirectedFS(CollectiveFileSystem):
    """Disk-directed collective I/O."""

    method_name = "disk-directed"

    #: base mailbox tag for collective requests arriving at IOPs
    REQUEST_TAG = "ddio-request"
    #: base mailbox tag for completion notifications arriving at the proxy CP
    DONE_TAG = "ddio-done"

    def __init__(self, machine, striped_file=None, presort=True, buffers_per_disk=2,
                 fault_policy=None, checksums=False):
        super().__init__(machine, striped_file, fault_policy=fault_policy,
                         checksums=checksums)
        if buffers_per_disk < 1:
            raise ValueError("need at least one buffer per disk")
        self.presort = presort
        self.buffers_per_disk = buffers_per_disk
        #: cross-collective IOP scheduling: block lists are merged into each
        #: drive's SharedDiskQueue instead of running per-session buffer
        #: threads.  The queue's worker pool plays the buffer-thread role
        #: for every collective, so ``buffers_per_disk`` does not apply —
        #: size the pool with ``Machine(shared_queue_workers=...)``.
        self.use_shared_queues = machine.iop_scheduling is not None
        self.method_name = "disk-directed" if presort else "disk-directed-nosort"
        #: Requests for this instance only; lets several file-system
        #: instances coexist on one machine without stealing each other's mail.
        self.request_tag = (self.REQUEST_TAG, self.fs_id)
        self.env.process(self._iop_server_loop_all())

    def _done_tag(self, session):
        """Completion notifications are routed per collective."""
        return (self.DONE_TAG, session.session_id)

    # -- transfer orchestration ---------------------------------------------------------
    def _start_transfer(self, session):
        barrier = Barrier(self.env, self.config.n_cps,
                          name=f"ddio-barrier-{session.session_id}")
        return AllOf(self.env, [
            self.env.process(self._cp_worker(cp_index, session, barrier))
            for cp_index in range(self.config.n_cps)
        ])

    # -- compute-processor side -----------------------------------------------------------
    def _cp_worker(self, cp_index, session, barrier):
        """All CPs arrange their buffers, barrier, and CP 0 drives the request."""
        cp_node = self.machine.cps[cp_index]
        # "Arrange for incoming data to be stored at the destination address":
        # a little local setup before the barrier.
        yield from self._charge_cpu(cp_node, self.costs.cp_request_overhead)
        yield barrier.wait()
        if cp_index == 0:
            yield from self._multicast_request(cp_node, session)
            yield from self._await_completions(cp_node, session)
        # Final barrier: everybody waits until the I/O is complete.
        yield barrier.wait()

    def _multicast_request(self, cp_node, session):
        """CP 0 sends the collective request to every IOP."""
        for iop in self.machine.iops:
            yield from self._charge_cpu(cp_node, self.costs.message_overhead)
            message = Message(
                kind=MessageKind.COLLECTIVE_REQUEST,
                src=cp_node.node_id,
                dst=iop.node_id,
                data_bytes=0,
                payload=session,
                session_id=session.session_id,
            )
            yield from self.machine.network.send(
                message, iop.mailbox, tag=self.request_tag)
            session.count("cp_requests")

    def _await_completions(self, cp_node, session):
        done_tag = self._done_tag(session)
        for _ in range(self.config.n_iops):
            yield cp_node.mailbox.receive(done_tag)
        # The tag is per-session and now fully drained; drop its queue so a
        # long request stream does not leak one dead Store per collective.
        cp_node.mailbox.discard(done_tag)

    # -- I/O-processor side -----------------------------------------------------------------
    def _iop_server_loop_all(self):
        """Start a permanent server loop on every IOP (lazily, at construction)."""
        for iop in self.machine.iops:
            self.env.process(
                self._iop_server(iop.mailbox.store(self.request_tag)))
        return
        yield  # pragma: no cover - keeps this a generator for env.process symmetry

    @staticmethod
    def _iop_server(requests):
        """One IOP's server: accept each collective request from *requests*.

        Parked, the server holds only its request store: the file system
        comes with each message (``session.fs``), so an idle server is no
        reference path back to the machine.
        """
        while True:
            message = yield requests.get()
            yield from message.payload.fs._accept_collective(message)
            del message

    def _accept_collective(self, message):
        iop = self.machine.node(message.dst)
        session = message.payload
        session.count("iop_messages")
        yield from self._charge_cpu(
            iop, self.costs.message_overhead + self.costs.collective_request_overhead)
        # Spawn without waiting: the server immediately listens for the
        # next collective, multiplexing several in-flight sessions.
        self.env.process(self._serve_collective(iop, message))

    def _serve_collective(self, iop, message):
        session = message.payload
        striped_file = session.file
        requesting_cp = self.machine.node(message.src)

        # Determine the local block list of each local disk, with physical
        # addresses, and charge the (small) per-block computation cost.
        # Under cross-collective IOP scheduling the per-session list sort is
        # pointless (the shared queue orders dispatch), but the ordering
        # WORK does not vanish — it moves into the elevator's per-dispatch
        # selection — so the per-block sorting cost is charged either way,
        # keeping the fcfs-vs-shared comparison CPU-fair.
        sort_lists = self.presort and not self.use_shared_queues
        disk_work = []
        total_blocks = 0
        for local_position, handle in enumerate(iop.disk_handles):
            global_index = iop.disk_indices[local_position]
            blocks = striped_file.blocks_on_disk(global_index)
            entries = [(block, striped_file.location(block).lbn) for block in blocks]
            if sort_lists:
                entries.sort(key=lambda entry: entry[1])
            disk_work.append((handle, entries))
            total_blocks += len(entries)
        setup_cost = total_blocks * self.costs.ddio_block_overhead
        if self.presort:
            setup_cost += total_blocks * self.costs.presort_per_block_overhead
        yield from self._charge_cpu(iop, setup_cost)

        write_behind = []   # media-completion events of this collective's writes
        if self.use_shared_queues:
            # Merge this collective's whole block list into each drive's
            # shared queue; its worker pool is the buffer-thread pool for
            # every active collective, so the elevator sees all sessions.
            block_jobs = []
            for queue, entries in disk_work:
                for block, lbn in entries:
                    block_jobs.append(queue.submit(
                        lbn,
                        self._shared_block_job(
                            iop, queue.disk, block, lbn, session, write_behind),
                        session_id=session.session_id,
                        op=READ if session.pattern.is_read else WRITE,
                    ))
            if block_jobs:
                yield AllOf(self.env, block_jobs)
        else:
            # A buffer pool per collective: two buffer threads per disk
            # stream blocks between disk and CPs for this session only.  A
            # thread beyond the disk's block count would find the list
            # already drained and exit without an event, so none is made;
            # a lone thread (a one-block collective) runs inline.
            threads = []
            for disk, entries in disk_work:
                shared = {"entries": entries, "next": 0}
                for _buffer in range(min(self.buffers_per_disk,
                                         len(entries))):
                    threads.append(self._buffer_thread(
                        iop, disk, shared, session, write_behind))
            if len(threads) == 1:
                yield from threads[0]
            elif threads:
                yield AllOf(self.env, [self.env.process(thread)
                                       for thread in threads])
        if write_behind:
            # Drain this collective's write-behind only.  Waiting on a whole-
            # disk flush here would couple concurrent collectives: a session
            # could not complete while another kept the drive's buffer busy.
            yield AllOf(self.env, write_behind)

        # Tell the requesting CP this IOP is done with this collective.
        yield from self._charge_cpu(iop, self.costs.message_overhead)
        done = Message(
            kind=MessageKind.COLLECTIVE_DONE,
            src=iop.node_id,
            dst=requesting_cp.node_id,
            data_bytes=0,
            session_id=session.session_id,
        )
        yield from self.machine.network.send(
            done, requesting_cp.mailbox, tag=self._done_tag(session))

    def _shared_block_job(self, iop, disk, block, lbn, session, write_behind):
        """Job moving one block, run by the shared queue's worker pool.

        The returned generator function executes at the block's turn in the
        merged elevator order; the disk request goes straight to the drive
        (the worker slot *is* the scheduling grant — re-queueing it would
        deadlock).
        """
        def job():
            yield from self._move_block(
                iop, disk, block, lbn, session, write_behind)
        return job

    def _buffer_thread(self, iop, disk, shared, session, write_behind):
        """One of the (two) per-disk buffer threads: move blocks until none remain."""
        while True:
            position = shared["next"]
            if position >= len(shared["entries"]):
                return
            shared["next"] = position + 1
            block, lbn = shared["entries"][position]
            yield from self._move_block(
                iop, disk, block, lbn, session, write_behind)

    def _move_block(self, iop, disk, block, lbn, session, write_behind):
        """Move one block between *disk* and the CPs for *session*.

        The fault path: each disk request is wrapped in
        :meth:`~repro.core.base.CollectiveFileSystem._fault_retry` (each
        retry submits a brand-new request).  A read that still fails after
        retries delivers nothing for this block — the session degrades and
        the undelivered bytes are accounted so conservation
        (``bytes_moved + failed_bytes == requested``) holds.  A write that
        fails is data the CPs already shipped: it counts as ``lost_bytes``
        (moved but never durable), and only the *successful* attempt's
        media-completion event joins ``write_behind``.
        """
        pattern = session.pattern
        sectors_per_block = self.config.sectors_per_block
        pieces = pattern.pieces_in_block(block, session.file.block_size)
        if pattern.is_read:
            def attempt():
                return disk.read(lbn, sectors_per_block, tag=block,
                                 session_id=session.session_id)
            request = yield attempt()
            if request.status != "ok":
                request = yield from self._fault_retry(
                    session, attempt, request)
            # End-to-end integrity: with checksums on, a corrupt payload is
            # caught here (and parity-repaired when the machine has
            # redundancy); otherwise it falls through as a failed read.
            if self.checksums:
                request = yield from self._verify_read(session, disk, request)
            if request.status != "ok":
                self._record_read_failure(
                    session, sum(piece.n_bytes for piece in pieces))
                return
            yield from self._deliver_to_cps(iop, pieces, session)
        else:
            yield from self._gather_from_cps(iop, pieces, session)
            media_box = []

            def attempt():
                accepted, on_media = disk.write_tracked(
                    lbn, sectors_per_block, tag=block,
                    session_id=session.session_id)
                media_box.append(on_media)
                return accepted
            request = yield attempt()
            if request.status != "ok":
                request = yield from self._fault_retry(
                    session, attempt, request)
            if request.status != "ok":
                self._record_write_loss(
                    session, sum(piece.n_bytes for piece in pieces))
                return
            write_behind.append(media_box[-1])

    # -- remote-memory operations ----------------------------------------------------------
    def _deliver_to_cps(self, iop, pieces, session):
        """Memput the per-CP pieces of one block, concurrently to all CPs.

        Single-piece blocks run the Memput inline (``yield from``) instead
        of spawning a Process + AllOf.  That issues the same charges at the
        same instants: spawning would only defer the child's first step by
        one same-instant ring hop and resume the parent one hop after the
        child finishes, nothing else in this session can run in between (the
        block's data dependency serialises them), and cross-session
        interleavings only shift *which* same-instant ring slot the charge
        occupies — the acquire/transfer times are identical.
        """
        if len(pieces) == 1:
            yield from self._memput(iop, pieces[0], session)
            return
        transfers = [self.env.process(self._memput(iop, piece, session))
                     for piece in pieces]
        if transfers:
            yield AllOf(self.env, transfers)

    def _gather_from_cps(self, iop, pieces, session):
        """Memget the per-CP pieces of one block, concurrently from all CPs.

        Single-piece blocks inline the Memget; see :meth:`_deliver_to_cps`
        for the same-instant equivalence argument.
        """
        if len(pieces) == 1:
            yield from self._memget(iop, pieces[0], session)
            return
        transfers = [self.env.process(self._memget(iop, piece, session))
                     for piece in pieces]
        if transfers:
            yield AllOf(self.env, transfers)

    def _memput(self, iop, piece, session):
        """Move one CP's share of a block from IOP memory into CP memory.

        This is the per-piece hot path (one call per CP per block): the CPU
        charge is inlined on the uncontended-acquire fast path instead of
        delegating through ``_charge_cpu``'s generator.
        """
        costs = self.costs
        cp_node = self.machine.cps[piece.cp]
        cpu_time = costs.memput_setup_overhead + piece.n_pieces * costs.per_piece_overhead
        if cpu_time > 0:
            charge = iop.cpu.acquire_event(cpu_time)
            if charge is None:
                yield from iop.cpu.acquire(cpu_time)
            else:
                yield charge
        yield from self.machine.network.transfer(
            iop.node_id, cp_node.node_id, HEADER_BYTES + piece.n_bytes)
        session.count("bytes_moved", piece.n_bytes)

    def _memget(self, iop, piece, session):
        """Ask one CP for its share of a block and receive the data (DMA round trip)."""
        costs = self.costs
        cp_node = self.machine.cps[piece.cp]
        cpu_time = costs.memput_setup_overhead + piece.n_pieces * costs.per_piece_overhead
        if cpu_time > 0:
            charge = iop.cpu.acquire_event(cpu_time)
            if charge is None:
                yield from iop.cpu.acquire(cpu_time)
            else:
                yield charge
        # Memget request (header only) ...
        yield from self.machine.network.transfer(
            iop.node_id, cp_node.node_id, HEADER_BYTES)
        # ... and the CP's DMA engine replies with the data.
        yield from self.machine.network.transfer(
            cp_node.node_id, iop.node_id, HEADER_BYTES + piece.n_bytes)
        session.count("bytes_moved", piece.n_bytes)
