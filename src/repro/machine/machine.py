"""Builds the whole simulated machine from a :class:`MachineConfig`."""

from repro.disk.drive import Disk
from repro.disk.faults import build_fault_plan, check_fault_drives
from repro.disk.flash import SSD, matched_ssd_spec
from repro.disk.redundancy import (REDUNDANCY_MODES, ParityArray,
                                   ParityDisk, check_parity_width,
                                   check_rebuild_bandwidth)
from repro.disk.scheduler import make_scheduler
from repro.disk.shared_queue import SharedDiskQueue, check_workers
from repro.machine.bus import ScsiBus
from repro.machine.node import ComputeNode, IONode
from repro.network.network import Network
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams

#: ``disk_scheduler=`` prefix selecting cross-collective IOP scheduling:
#: ``shared-cscan`` (or ``shared-sstf`` / ``shared-fcfs``) builds one
#: :class:`~repro.disk.shared_queue.SharedDiskQueue` per drive, ordered by
#: the named policy, and leaves the drive's own queue FCFS.
SHARED_PREFIX = "shared-"

#: The storage backends the ``device=`` axis selects between.
DEVICES = ("disk", "ssd")


def check_machine_options(config, disk_scheduler="fcfs",
                          shared_queue_workers=2, fault_config=None,
                          device="disk", redundancy="none",
                          rebuild_bandwidth=0.0):
    """Raise ``ValueError`` unless :class:`Machine` accepts these arguments.

    Experiment configs run it when they are built, so a bad option fails
    there instead of inside a sweep.
    """
    if device not in DEVICES:
        raise ValueError(f"unknown device {device!r} (choose from {DEVICES})")
    if redundancy not in REDUNDANCY_MODES:
        raise ValueError(f"unknown redundancy {redundancy!r} "
                         f"(choose from {REDUNDANCY_MODES})")
    if redundancy == "parity":
        check_parity_width(config.n_disks)
    if isinstance(disk_scheduler, str):  # else a policy object
        make_scheduler(disk_scheduler.removeprefix(SHARED_PREFIX))
        if disk_scheduler.startswith(SHARED_PREFIX):
            check_workers(shared_queue_workers)
    check_fault_drives(fault_config, config.n_disks)
    check_rebuild_bandwidth(rebuild_bandwidth)


class Machine:
    """The complete simulated multiprocessor.

    Construction wires together the environment, the interconnect, the CP and
    IOP nodes, one SCSI bus per IOP, and the drives (dealt round-robin across
    IOPs, as the paper's block-by-block declustering assumes).

    ``disk_scheduler`` is the machine-wide scheduling knob.  A bare policy
    name (``fcfs``, ``sstf``, ``cscan``) — or a policy object, which is
    handed to the drives unchanged — configures each *drive's* internal
    queue, as in the paper's sensitivity runs.  A ``shared-``-prefixed name
    instead schedules at the *IOP*: every drive gets a
    :class:`~repro.disk.shared_queue.SharedDiskQueue` that merges requests
    from all active collective sessions into one sorted stream (the drive
    itself stays FCFS).  ``shared_queue_workers`` sizes each shared queue's
    worker pool — the machine-wide buffer budget per drive (the paper's
    double-buffering: 2); under shared scheduling this pool replaces DDIO's
    per-collective ``buffers_per_disk`` threads.  File-system
    implementations reach whichever is configured through
    :meth:`disk_handle` / ``IONode.local_disk_handle``.

    ``device`` selects the storage backend: ``"disk"`` (the paper's HP 97560
    model) or ``"ssd"`` (the flash model of :mod:`repro.disk.flash`, by
    default bandwidth-matched to ``config.disk_spec``).  Both expose the
    same request/stats/fault surface, so everything above this layer is
    device-agnostic; an SSD ignores the drive-queue policy (the FTL
    virtualises addresses) but shared IOP queues still apply.
    """

    def __init__(self, config, seed=0, env=None, disk_scheduler="fcfs",
                 shared_queue_workers=2, fault_config=None, device="disk",
                 ssd_spec=None, redundancy="none", rebuild_bandwidth=0.0):
        check_machine_options(config, disk_scheduler, shared_queue_workers,
                              fault_config, device, redundancy,
                              rebuild_bandwidth)
        self.config = config
        self.seed = seed
        self.device = device
        self.redundancy = redundancy
        self.disk_scheduler = disk_scheduler
        self.shared_queue_workers = shared_queue_workers
        self.fault_config = fault_config
        #: the flash drive model when ``device="ssd"``: an explicit
        #: :class:`~repro.disk.flash.SSDSpec`, or (by default) one matched to
        #: ``config.disk_spec``'s sequential bandwidth and sector count —
        #: so file-system layouts and experiment scales carry over unchanged
        self.ssd_spec = None
        if device == "ssd":
            self.ssd_spec = ssd_spec if ssd_spec is not None \
                else matched_ssd_spec(config.disk_spec)
        if isinstance(disk_scheduler, str) \
                and disk_scheduler.startswith(SHARED_PREFIX):
            self.iop_scheduling = disk_scheduler[len(SHARED_PREFIX):]
            drive_scheduler = "fcfs"
        else:
            self.iop_scheduling = None
            drive_scheduler = disk_scheduler
        self.env = env if env is not None else Environment()
        self.random = RandomStreams(seed)
        self.network = Network(
            self.env,
            n_nodes=config.n_nodes,
            bandwidth=config.interconnect_bandwidth,
            router_latency=config.router_latency,
            dimensions=config.torus_dimensions,
            dma_setup_time=config.costs.dma_setup_time,
        )

        self.cps = [ComputeNode(self.env, config.cp_node_id(index), index)
                    for index in range(config.n_cps)]
        self.iops = [IONode(self.env, config.iop_node_id(index), index)
                     for index in range(config.n_iops)]

        rotation_rng = self.random.stream("rotation")
        self.disks = []
        self.shared_queues = []   # SharedDiskQueue per disk, or None
        self.disk_handles = []    # what protocols talk to: queue or raw disk
        for iop in self.iops:
            bus = ScsiBus(
                self.env,
                bandwidth=config.bus_bandwidth,
                transfer_overhead=config.costs.bus_transfer_overhead,
                name=f"{iop.name}.scsi",
            )
            iop.attach_bus(bus)
        #: Realised per-drive :class:`~repro.disk.faults.FaultPlan`s (parallel
        #: to :attr:`disks`; all None on a healthy machine).  Seeded per
        #: ``(seed, disk_index)``, so the schedule is reproducible from the
        #: trial seed alone and is recorded in result envelopes.
        self.fault_plans = []
        for disk_index in range(config.n_disks):
            iop = self.iops[config.iop_of_disk(disk_index)]
            fault_plan = build_fault_plan(
                fault_config, seed, disk_index,
                total_sectors=config.disk_spec.total_sectors)
            # The rotation draw is consumed for every drive index regardless
            # of device, so per-index rng streams stay aligned across the
            # device axis (flash has no platter; the draw is discarded).
            angle = float(rotation_rng.random())
            if device == "ssd":
                disk = SSD(
                    self.env,
                    spec=self.ssd_spec,
                    bus_port=iop.bus.port(),
                    name=f"ssd{disk_index}",
                    fault_plan=fault_plan,
                )
            else:
                disk = Disk(
                    self.env,
                    spec=config.disk_spec,
                    bus_port=iop.bus.port(),
                    name=f"disk{disk_index}",
                    scheduler=drive_scheduler,
                    initial_angle_fraction=angle,
                    fault_plan=fault_plan,
                )
            self.fault_plans.append(fault_plan)
            if self.iop_scheduling is not None:
                queue = SharedDiskQueue(self.env, disk,
                                        policy=self.iop_scheduling,
                                        workers=shared_queue_workers)
                handle = queue
            else:
                queue = None
                handle = disk
            iop.attach_disk(disk, disk_index, handle=handle)
            self.disks.append(disk)
            self.shared_queues.append(queue)
            self.disk_handles.append(handle)
        #: the hot spare(s) and the parity layer under
        #: ``redundancy="parity"``; empty/None otherwise — and nothing else
        #: runs, so a redundancy-free machine is built byte-identically to
        #: one from before this axis existed (no extra rng draws, no handle
        #: wrappers, no spare hardware).
        self.spare_disks = []
        self.parity = None
        if redundancy == "parity":
            self._build_parity(rebuild_bandwidth)

    def _build_parity(self, rebuild_bandwidth):
        """Build the spare, the parity array, and the per-drive wrappers.

        The spare hangs off the bus of the IOP owning the drive scheduled
        to fail-stop (rebuild writes then contend with that IOP's recovery
        traffic), or IOP 0 when nothing is scheduled to die.  Its platter
        angle comes from a *separate* rng stream so foreground rotation
        draws — and therefore every ``redundancy="none"`` result — stay
        untouched.
        """
        spare_iop = self.iops[0]
        for disk_index, plan in enumerate(self.fault_plans):
            if plan is not None and plan.fail_stop_time is not None:
                spare_iop = self.iop_for_disk(disk_index)
                break
        angle = float(self.random.stream("spare-rotation").random())
        if self.device == "ssd":
            spare = SSD(self.env, spec=self.ssd_spec,
                        bus_port=spare_iop.bus.port(), name="spare0")
        else:
            spare = Disk(self.env, spec=self.config.disk_spec,
                         bus_port=spare_iop.bus.port(), name="spare0",
                         initial_angle_fraction=angle)
        self.spare_disks.append(spare)
        self.parity = ParityArray(self, rebuild_bandwidth=rebuild_bandwidth)
        for disk_index, disk in enumerate(self.disks):
            wrapper = ParityDisk(self.parity, disk_index,
                                 self.disk_handles[disk_index], disk)
            self.disk_handles[disk_index] = wrapper
            iop = self.iop_for_disk(disk_index)
            iop.disk_handles[iop.disk_indices.index(disk_index)] = wrapper
        self.parity.arm_rebuild()

    # -- lookups -----------------------------------------------------------------
    def node(self, node_id):
        """The node object (CP or IOP) with interconnect id *node_id*."""
        if node_id < self.config.n_cps:
            return self.cps[node_id]
        return self.iops[node_id - self.config.n_cps]

    def disk(self, disk_index):
        """The drive with global index *disk_index*."""
        return self.disks[disk_index]

    def iop_for_disk(self, disk_index):
        """The IOP node serving global disk *disk_index*."""
        return self.iops[self.config.iop_of_disk(disk_index)]

    def disk_handle(self, disk_index):
        """What IOP software should submit requests to for *disk_index*.

        The drive's :class:`~repro.disk.shared_queue.SharedDiskQueue` when
        cross-collective IOP scheduling is configured, the raw
        :class:`~repro.disk.drive.Disk` otherwise; both expose the same
        ``read`` / ``write`` / ``write_tracked`` / ``flush`` interface.
        """
        return self.disk_handles[disk_index]

    # -- convenience ----------------------------------------------------------------
    def run(self, until=None):
        """Advance the simulation (delegates to the environment)."""
        return self.env.run(until)

    @property
    def now(self):
        """Current simulated time."""
        return self.env.now

    def total_disk_stats(self):
        """Aggregate read/write counters across all drives."""
        totals = {
            "reads": 0,
            "writes": 0,
            "bytes_read": 0,
            "bytes_written": 0,
            "cache_hits": 0,
            "cache_misses": 0,
        }
        for disk in self.disks:
            totals["reads"] += disk.stats.reads
            totals["writes"] += disk.stats.writes
            totals["bytes_read"] += disk.stats.bytes_read
            totals["bytes_written"] += disk.stats.bytes_written
            totals["cache_hits"] += disk.stats.cache_hits
            totals["cache_misses"] += disk.stats.cache_misses
        return totals

    def total_flash_counters(self):
        """Aggregate FTL work counters across all drives (``device="ssd"``).

        Returns None on a disk machine.  ``write_amplification`` is the
        machine-wide ratio (total flash programs / total host programs),
        not a mean of per-drive ratios.
        """
        if self.device != "ssd":
            return None
        totals = {"host_pages_written": 0, "flash_pages_written": 0,
                  "relocated_pages": 0, "erases": 0, "trims": 0}
        for disk in self.disks:
            counters = disk.ftl.counters()
            for key in totals:
                totals[key] += counters[key]
        host = totals["host_pages_written"]
        totals["write_amplification"] = \
            totals["flash_pages_written"] / host if host else 1.0
        return totals

    def session_disk_stats(self, session_id):
        """One session's disk work, aggregated across all drives.

        Same count keys as :meth:`total_disk_stats` plus
        ``disk_service_time`` (drive busy seconds spent on this session's
        requests), ``disk_queue_wait`` (seconds its requests waited in
        drive queues) and ``iop_queue_wait`` (seconds its jobs waited in
        the shared per-disk IOP queues; 0.0 when cross-collective
        scheduling is off) — scoped to *session_id*'s tagged requests only.
        Under shared scheduling the drive queues stay shallow, so compare
        queueing across regimes with ``disk_queue_wait + iop_queue_wait``,
        keeping in mind that DDIO submits whole block lists up front in
        shared mode (its IOP-queue wait starts at plan time, not at
        buffer-availability time as per-collective buffer threads do).
        """
        totals = {
            "reads": 0,
            "writes": 0,
            "bytes_read": 0,
            "bytes_written": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "disk_service_time": 0.0,
            "disk_queue_wait": 0.0,
            "iop_queue_wait": 0.0,
        }
        for queue in self.shared_queues:
            if queue is not None:
                totals["iop_queue_wait"] += queue.session_wait_seconds(session_id)
        for disk in self.disks:
            stats = disk.session_stats.get(session_id)
            if stats is None:
                continue
            totals["reads"] += stats.reads
            totals["writes"] += stats.writes
            totals["bytes_read"] += stats.bytes_read
            totals["bytes_written"] += stats.bytes_written
            totals["cache_hits"] += stats.cache_hits
            totals["cache_misses"] += stats.cache_misses
            totals["disk_service_time"] += stats.service_time
            totals["disk_queue_wait"] += stats.queue_wait_time
        return totals

    def session_bus_busy_seconds(self, session_id):
        """Busiest single bus's occupancy on behalf of *session_id*."""
        return max((iop.bus.session_busy_seconds(session_id)
                    for iop in self.iops), default=0.0)

    def release_session(self, session_id):
        """Drop all per-session accounting for a completed collective."""
        for disk in self.disks:
            disk.release_session(session_id)
        for spare in self.spare_disks:
            spare.release_session(session_id)
        for iop in self.iops:
            iop.bus.release_session(session_id)
        for queue in self.shared_queues:
            if queue is not None:
                queue.release_session(session_id)
        self.network.release_session(session_id)
