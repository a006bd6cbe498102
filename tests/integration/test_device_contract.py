"""The device contract: every device-facing behavior, on disk AND flash.

The flash SSD and the HP 97560 disk share one front end, ``BlockDevice`` —
same request, counter, session and fault surface — and
``Machine(device=...)`` switches between them.  The front end is written
once (neither subclass redefines it), and the device-facing integration
behaviors (conservation, session-scoped counters, shared-queue merge and
late-join, fault-plan determinism, end-to-end transfers) run over
``device in {disk, ssd}``.
"""

import pytest

from repro import FileSystem, Machine, MachineConfig, make_filesystem, \
    make_pattern
from repro.disk import SSD, Disk, HP97560_SPEC, SSDSpec, SharedDiskQueue
from repro.disk.drive import BlockDevice, BusPort
from repro.disk.faults import FAIL_STOP, FaultConfig, build_fault_plan
from repro.sim import Environment, Resource
from repro.sim.events import AllOf

from tests.conftest import run_transfer

KILOBYTE = 1024
SECTORS_PER_BLOCK = 16
DEVICES = ("disk", "ssd")

#: small flash geometry for direct-device tests (GC-capable at test scale)
TINY_SSD = SSDSpec(total_sectors=HP97560_SPEC.total_sectors,
                   channels=2, ncq_depth=2)


def make_device(env, device, **kwargs):
    """A bare device of either kind on its own SCSI bus."""
    bus = Resource(env, capacity=1)
    port = BusPort(bus, bandwidth=10e6, overhead=0.1e-3)
    if device == "disk":
        return Disk(env, HP97560_SPEC, port, **kwargs)
    return SSD(env, spec=TINY_SSD, bus_port=port, **kwargs)


#: The front end ``BlockDevice`` owns; no device model may redefine it.
FRONT_END = ("read", "write", "write_tracked", "submit", "flush",
             "queue_depth", "session", "release_session", "_kick",
             "_kick_destage", "_has_pending_writes", "_account_write",
             "_fail_request", "_complete", "_signal_media",
             "_maybe_release_flush_waiters", "_lost_at_destage")


# -- the contract surface itself -----------------------------------------------

class TestContractSurface:
    @pytest.mark.parametrize("cls", [Disk, SSD])
    def test_front_end_is_written_once(self, cls):
        assert issubclass(cls, BlockDevice)
        assert set(FRONT_END).issubset(vars(BlockDevice))
        assert not set(FRONT_END) & set(vars(cls))

    @pytest.mark.parametrize("device", DEVICES)
    def test_device_exposes_the_full_disk_api(self, device):
        env = Environment()
        dev = make_device(env, device)
        for name in ("read", "write", "write_tracked", "submit", "flush",
                     "session", "release_session"):
            assert callable(getattr(dev, name))
        assert hasattr(dev, "queue_depth")
        assert hasattr(dev, "head_lbn_estimate")
        assert hasattr(dev, "stats") and hasattr(dev, "session_stats")
        assert dev.geometry.total_sectors == HP97560_SPEC.total_sectors

    @pytest.mark.parametrize("device", DEVICES)
    def test_out_of_range_requests_rejected(self, device):
        env = Environment()
        dev = make_device(env, device)
        with pytest.raises(ValueError):
            dev.read(-1, 4)
        with pytest.raises(ValueError):
            dev.read(dev.geometry.total_sectors, 4)


# -- conservation and counters through full transfers -------------------------

class TestConservation:
    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("method", ["disk-directed", "traditional"])
    def test_reads_move_every_byte(self, method, device):
        result, machine, _fs = run_transfer(
            method, "rb", file_size=128 * KILOBYTE, device=device)
        stats = machine.total_disk_stats()
        assert stats["bytes_read"] >= 128 * KILOBYTE
        assert result.throughput_mb > 0

    @pytest.mark.parametrize("device", DEVICES)
    def test_ddio_reads_each_block_exactly_once(self, device):
        _result, machine, _fs = run_transfer(
            "disk-directed", "rcb", record_size=1024,
            file_size=128 * KILOBYTE, device=device)
        assert machine.total_disk_stats()["reads"] == 128 // 8

    @pytest.mark.parametrize("device", DEVICES)
    def test_writes_reach_the_media(self, device):
        _result, machine, _fs = run_transfer(
            "traditional", "wc", record_size=1024,
            file_size=128 * KILOBYTE, device=device)
        assert machine.total_disk_stats()["bytes_written"] == 128 * KILOBYTE

    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("layout", ["contiguous", "random"])
    def test_both_layouts_complete(self, layout, device):
        result, _machine, _fs = run_transfer(
            "disk-directed", "rb", layout=layout, device=device)
        assert result.throughput_mb > 0


class TestSessionScopedCounters:
    @pytest.mark.parametrize("device", DEVICES)
    def test_transfer_work_lands_in_session_counters(self, device):
        # The result's counters are the session-scoped snapshot taken at
        # transfer end (sessions are released afterwards), on either device.
        result, _machine, _fs = run_transfer(
            "disk-directed", "rb", file_size=128 * KILOBYTE, device=device)
        assert result.counters["bytes_read"] == 128 * KILOBYTE
        assert result.counters["disk_service_time"] > 0
        assert result.counters["reads"] == 128 // 8

    @pytest.mark.parametrize("device", DEVICES)
    def test_unknown_session_reads_zero(self, device):
        config = MachineConfig(n_cps=2, n_iops=1, n_disks=1)
        machine = Machine(config, seed=1, device=device)
        scoped = machine.session_disk_stats("nobody")
        assert scoped["bytes_read"] == 0
        assert scoped["iop_queue_wait"] == 0.0


# -- determinism ---------------------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("device", DEVICES)
    def test_identical_runs_are_bit_identical(self, device):
        first, _m, _f = run_transfer("traditional", "rcb", layout="random",
                                     seed=9, device=device)
        second, _m, _f = run_transfer("traditional", "rcb", layout="random",
                                      seed=9, device=device)
        assert first.elapsed == second.elapsed
        assert first.counters["cp_requests"] == second.counters["cp_requests"]

    def test_devices_are_actually_different_models(self):
        disk, _m, _f = run_transfer("disk-directed", "rb", seed=3,
                                    device="disk")
        ssd, _m, _f = run_transfer("disk-directed", "rb", seed=3,
                                   device="ssd")
        assert disk.elapsed != ssd.elapsed

    @pytest.mark.parametrize("device", DEVICES)
    def test_fault_plan_runs_are_bit_identical(self, device):
        def timed():
            env = Environment()
            plan = build_fault_plan(
                FaultConfig(transient_rate=0.4, bad_range_count=2), 1, 0,
                HP97560_SPEC.total_sectors)
            dev = make_device(env, device, fault_plan=plan)
            outcomes = []

            def client(env):
                for lbn in (0, 4096, 8192, 12288):
                    request = yield dev.read(lbn, SECTORS_PER_BLOCK)
                    outcomes.append(request.status)

            env.run(env.process(client(env)))
            return env.now, outcomes, dict(dev.stats.faults)

        assert timed() == timed()

    @pytest.mark.parametrize("device", DEVICES)
    def test_fail_stop_kills_both_devices_identically(self, device):
        env = Environment()
        plan = build_fault_plan(
            FaultConfig(fail_stop_disk=0, fail_stop_time=0.0), 1, 0,
            HP97560_SPEC.total_sectors)
        dev = make_device(env, device, fault_plan=plan)
        box = []

        def client(env):
            request = yield dev.read(0, SECTORS_PER_BLOCK)
            box.append(request)

        env.run(env.process(client(env)))
        assert box[0].status == "error"
        assert box[0].error == FAIL_STOP
        assert dev.stats.faults[FAIL_STOP] == 1


# -- the shared per-drive IOP queue over either device -------------------------

class TestSharedQueueOverEitherDevice:
    def _make_queue(self, env, device, policy="cscan", workers=1):
        dev = make_device(env, device)
        return dev, SharedDiskQueue(env, dev, policy=policy, workers=workers)

    @pytest.mark.parametrize("device", DEVICES)
    def test_cscan_merges_sessions_into_one_sweep(self, device):
        env = Environment()
        _dev, queue = self._make_queue(env, device)
        order = []

        def job(label, lbn):
            def run():
                yield queue.disk.read(lbn, SECTORS_PER_BLOCK)
                order.append(label)
            return run

        submissions = [("a0", "A", 8000), ("b0", "B", 1000),
                       ("a1", "A", 4000), ("b1", "B", 9000)]
        events = [queue.submit(lbn, job(label, lbn), session_id=session)
                  for label, session, lbn in submissions]
        env.run(AllOf(env, events))
        # Single worker, everything pending at the first wake (position 0):
        # one ascending sweep across both sessions, on either device.
        assert order == ["b0", "a1", "a0", "b1"]

    @pytest.mark.parametrize("device", DEVICES)
    def test_late_arrival_joins_the_sweep(self, device):
        env = Environment()
        _dev, queue = self._make_queue(env, device)
        order = []

        def job(label, lbn):
            def run():
                yield queue.disk.read(lbn, SECTORS_PER_BLOCK)
                order.append(label)
            return run

        first = [queue.submit(lbn, job(f"a{lbn}", lbn))
                 for lbn in (2000, 40000, 80000)]

        def late_submitter():
            yield env.timeout(0.005)
            yield queue.submit(41000, job("late", 41000))

        late = env.process(late_submitter())
        env.run(AllOf(env, first + [late]))
        assert order.index("late") < order.index("a80000")

    @pytest.mark.parametrize("device", DEVICES)
    def test_queue_tags_sessions_through_to_the_device(self, device):
        env = Environment()
        dev, queue = self._make_queue(env, device)
        env.run(queue.read(100, SECTORS_PER_BLOCK, session_id=7))
        assert dev.session_stats[7].reads == 1
        assert dev.session_stats[7].bytes_read == SECTORS_PER_BLOCK * 512

    @pytest.mark.parametrize("device", DEVICES)
    def test_flush_drains_buffered_writes(self, device):
        env = Environment()
        dev, queue = self._make_queue(env, device)
        for i in range(4):
            queue.write(1000 * i, SECTORS_PER_BLOCK)
        env.run(queue.flush())
        assert dev.stats.writes == 4
        assert dev.stats.bytes_written == 4 * SECTORS_PER_BLOCK * 512

    @pytest.mark.parametrize("device", DEVICES)
    def test_shared_scheduler_machine_transfers(self, device):
        config = MachineConfig(n_cps=2, n_iops=1, n_disks=1)
        machine = Machine(config, seed=1, disk_scheduler="shared-cscan",
                          device=device)
        striped = FileSystem(config, layout_seed=1).create_file(
            "f", 64 * KILOBYTE)
        fs = make_filesystem("ddio", machine, striped)
        result = fs.transfer(make_pattern("rb", striped.size_bytes, 8192, 2))
        assert result.throughput_mb > 0
        assert machine.total_disk_stats()["bytes_read"] == 64 * KILOBYTE


# -- the machine-level device axis ---------------------------------------------

class TestMachineDeviceAxis:
    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError):
            Machine(MachineConfig(n_cps=2, n_iops=1, n_disks=1),
                    device="mram")

    def test_disk_machine_has_no_flash_counters(self):
        machine = Machine(MachineConfig(n_cps=2, n_iops=1, n_disks=1))
        assert machine.device == "disk"
        assert machine.total_flash_counters() is None

    def test_ssd_machine_aggregates_flash_counters(self):
        _result, machine, _fs = run_transfer(
            "traditional", "wc", file_size=128 * KILOBYTE, device="ssd")
        counters = machine.total_flash_counters()
        assert counters["host_pages_written"] >= 128 * KILOBYTE // 4096
        assert counters["write_amplification"] >= 1.0

    def test_every_drive_is_the_requested_kind(self):
        config = MachineConfig(n_cps=2, n_iops=2, n_disks=4)
        assert all(isinstance(disk, SSD)
                   for disk in Machine(config, device="ssd").disks)
        assert all(isinstance(disk, Disk)
                   for disk in Machine(config, device="disk").disks)

    def test_ssd_spec_override_reaches_the_drives(self):
        spec = SSDSpec(channels=2, ncq_depth=2)
        machine = Machine(MachineConfig(n_cps=2, n_iops=1, n_disks=1),
                          device="ssd", ssd_spec=spec)
        assert machine.disks[0].spec.channels == 2

    @pytest.mark.parametrize("method", ["disk-directed", "traditional",
                                        "two-phase"])
    def test_every_method_runs_on_flash(self, method):
        result, _machine, _fs = run_transfer(method, "rb", device="ssd")
        assert result.throughput_mb > 0
