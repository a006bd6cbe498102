"""Tests for the deterministic disk fault models (repro.disk.faults)."""

import pytest

from repro.disk import Disk, HP97560_SPEC
from repro.disk.drive import BusPort, DiskRequest
from repro.disk.faults import (
    BAD_SECTOR,
    DRIVE_FIELDS,
    FAIL_STOP,
    PERMANENT_ERRORS,
    TRANSIENT,
    FaultConfig,
    FaultPlan,
    FaultPolicy,
    build_fault_plan,
    check_fault_drives,
)
from repro.machine import MachineConfig
from repro.sim import Environment, Resource
from repro.workload import ServiceWorkload, run_service

SECTORS_PER_BLOCK = 16
TOTAL_SECTORS = HP97560_SPEC.total_sectors


def make_disk(env, **kwargs):
    bus = Resource(env, capacity=1)
    port = BusPort(bus, bandwidth=10e6, overhead=0.1e-3)
    return Disk(env, HP97560_SPEC, port, **kwargs)


def one_request(env, disk, lbn=0, op="read"):
    """Issue one request and return the completed DiskRequest."""
    box = []

    def client(env):
        if op == "read":
            request = yield disk.read(lbn, SECTORS_PER_BLOCK)
        else:
            request = yield disk.write(lbn, SECTORS_PER_BLOCK)
            yield disk.flush()
        box.append(request)

    env.run(env.process(client(env)))
    return box[0]


class TestFaultConfig:
    def test_defaults_are_disabled(self):
        assert not FaultConfig().enabled

    def test_each_knob_enables(self):
        assert FaultConfig(transient_rate=0.01).enabled
        assert FaultConfig(bad_range_count=1).enabled
        assert FaultConfig(slow_disk=0, slow_factor=4.0).enabled
        assert FaultConfig(fail_stop_disk=0).enabled

    def test_slow_factor_one_does_not_enable(self):
        assert not FaultConfig(slow_disk=0, slow_factor=1.0).enabled


class TestBuildFaultPlan:
    def test_disabled_config_builds_no_plan(self):
        assert build_fault_plan(None, 1, 0, TOTAL_SECTORS) is None
        assert build_fault_plan(FaultConfig(), 1, 0, TOTAL_SECTORS) is None

    def test_untargeted_drive_gets_no_plan(self):
        """Fail-stop on drive 3 must leave drive 0 planless (bit-identity)."""
        config = FaultConfig(fail_stop_disk=3, fail_stop_time=1.0)
        assert build_fault_plan(config, 1, 0, TOTAL_SECTORS) is None
        assert build_fault_plan(config, 1, 3, TOTAL_SECTORS) is not None

    def test_transient_rate_targets_every_drive(self):
        config = FaultConfig(transient_rate=0.01)
        for disk_index in range(4):
            assert build_fault_plan(config, 1, disk_index, TOTAL_SECTORS) \
                is not None


class TestFaultPlanDeterminism:
    def test_same_seed_same_schedule(self):
        config = FaultConfig(transient_rate=0.3, bad_range_count=2,
                             fail_stop_disk=0, fail_stop_time=2.0)
        plan_a = FaultPlan(config, seed=7, disk_index=0,
                           total_sectors=TOTAL_SECTORS)
        plan_b = FaultPlan(config, seed=7, disk_index=0,
                           total_sectors=TOTAL_SECTORS)
        assert plan_a.describe() == plan_b.describe()
        request = DiskRequest(op="read", lbn=10 ** 6, n_sectors=16)
        draws_a = [plan_a.media_error(request) for _ in range(64)]
        draws_b = [plan_b.media_error(request) for _ in range(64)]
        assert draws_a == draws_b

    def test_different_seeds_differ(self):
        config = FaultConfig(bad_range_count=4)
        plan_a = FaultPlan(config, seed=1, disk_index=0,
                           total_sectors=TOTAL_SECTORS)
        plan_b = FaultPlan(config, seed=2, disk_index=0,
                           total_sectors=TOTAL_SECTORS)
        assert plan_a.bad_ranges != plan_b.bad_ranges

    def test_different_drives_draw_different_ranges(self):
        config = FaultConfig(bad_range_count=4)
        plan_a = FaultPlan(config, seed=1, disk_index=0,
                           total_sectors=TOTAL_SECTORS)
        plan_b = FaultPlan(config, seed=1, disk_index=1,
                           total_sectors=TOTAL_SECTORS)
        assert plan_a.bad_ranges != plan_b.bad_ranges

    def test_bad_ranges_sorted_and_in_bounds(self):
        config = FaultConfig(bad_range_count=8, bad_range_sectors=64)
        plan = FaultPlan(config, seed=3, disk_index=0,
                         total_sectors=TOTAL_SECTORS)
        assert list(plan.bad_ranges) == sorted(plan.bad_ranges)
        for lo, hi in plan.bad_ranges:
            assert 0 <= lo < hi <= TOTAL_SECTORS

    def test_describe_is_json_friendly(self):
        import json

        config = FaultConfig(transient_rate=0.01, bad_range_count=1,
                             slow_disk=0, slow_factor=4.0, slow_duration=1.0,
                             fail_stop_disk=0, fail_stop_time=2.0)
        plan = FaultPlan(config, seed=5, disk_index=0,
                         total_sectors=TOTAL_SECTORS)
        round_tripped = json.loads(json.dumps(plan.describe()))
        assert round_tripped["disk"] == 0
        assert round_tripped["fail_stop_time"] == 2.0


class TestMediaErrors:
    def test_certain_transient_fails_every_read(self):
        env = Environment()
        plan = build_fault_plan(FaultConfig(transient_rate=1.0), 1, 0,
                                TOTAL_SECTORS)
        disk = make_disk(env, fault_plan=plan)
        request = one_request(env, disk)
        assert request.status == "error"
        assert request.error == TRANSIENT
        assert disk.stats.faults[TRANSIENT] >= 1

    def test_zero_rate_never_fails(self):
        env = Environment()
        disk = make_disk(env)
        request = one_request(env, disk)
        assert request.status == "ok"
        assert request.error is None

    def test_bad_range_dominates_transient(self):
        config = FaultConfig(transient_rate=1.0, bad_range_count=1)
        plan = FaultPlan(config, seed=1, disk_index=0,
                         total_sectors=TOTAL_SECTORS)
        lo, _hi = plan.bad_ranges[0]
        request = DiskRequest(op="read", lbn=lo, n_sectors=16)
        assert plan.media_error(request) == BAD_SECTOR

    def test_read_off_the_bad_range_succeeds(self):
        env = Environment()
        plan = build_fault_plan(FaultConfig(bad_range_count=1), 1, 0,
                                TOTAL_SECTORS)
        lo, hi = plan.bad_ranges[0]
        clear_lbn = 0 if hi + SECTORS_PER_BLOCK < lo or lo > SECTORS_PER_BLOCK \
            else hi + 1
        disk = make_disk(env, fault_plan=plan)
        request = one_request(env, disk, lbn=clear_lbn)
        assert request.status == "ok"

    def test_bad_range_read_fails_permanently(self):
        env = Environment()
        plan = build_fault_plan(FaultConfig(bad_range_count=1), 1, 0,
                                TOTAL_SECTORS)
        lo, _hi = plan.bad_ranges[0]
        disk = make_disk(env, fault_plan=plan)
        request = one_request(env, disk, lbn=lo)
        assert request.status == "error"
        assert request.error == BAD_SECTOR
        assert BAD_SECTOR in PERMANENT_ERRORS


class TestFailStop:
    def test_requests_fail_after_stop_time(self):
        env = Environment()
        plan = build_fault_plan(
            FaultConfig(fail_stop_disk=0, fail_stop_time=0.0), 1, 0,
            TOTAL_SECTORS)
        disk = make_disk(env, fault_plan=plan)
        request = one_request(env, disk)
        assert request.status == "error"
        assert request.error == FAIL_STOP

    def test_requests_succeed_before_stop_time(self):
        env = Environment()
        plan = build_fault_plan(
            FaultConfig(fail_stop_disk=0, fail_stop_time=100.0), 1, 0,
            TOTAL_SECTORS)
        disk = make_disk(env, fault_plan=plan)
        request = one_request(env, disk)
        assert request.status == "ok"

    def test_failed_write_is_refused_quickly(self):
        """A dead drive refuses writes before the data crosses the bus."""
        env = Environment()
        plan = build_fault_plan(
            FaultConfig(fail_stop_disk=0, fail_stop_time=0.0), 1, 0,
            TOTAL_SECTORS)
        disk = make_disk(env, fault_plan=plan)
        request = one_request(env, disk, op="write")
        assert request.status == "error"
        assert request.error == FAIL_STOP


class TestFailSlow:
    def test_reads_inside_episode_are_slower(self):
        def timed_read(plan):
            env = Environment()
            disk = make_disk(env, fault_plan=plan)
            one_request(env, disk, lbn=512 * SECTORS_PER_BLOCK)
            return env.now

        slow_plan = build_fault_plan(
            FaultConfig(slow_disk=0, slow_factor=8.0, slow_start=0.0,
                        slow_duration=100.0), 1, 0, TOTAL_SECTORS)
        # Same drive with the episode already over: nominal timing.
        past_plan = build_fault_plan(
            FaultConfig(slow_disk=0, slow_factor=8.0, slow_start=-2.0,
                        slow_duration=1.0), 1, 0, TOTAL_SECTORS)
        assert timed_read(slow_plan) > 2.0 * timed_read(past_plan)

    def test_multiplier_outside_window_is_one(self):
        plan = build_fault_plan(
            FaultConfig(slow_disk=0, slow_factor=4.0, slow_start=1.0,
                        slow_duration=1.0), 1, 0, TOTAL_SECTORS)
        assert plan.slow_multiplier(0.5) == 1.0
        assert plan.slow_multiplier(1.5) == 4.0
        assert plan.slow_multiplier(2.5) == 1.0


class TestFaultPolicy:
    def test_valid_strategies(self):
        for strategy in ("retry", "degrade", "abort"):
            assert FaultPolicy(on_fault=strategy).on_fault == strategy

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            FaultPolicy(on_fault="panic")

    def test_nonpositive_attempts_rejected(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_attempts=0)


class TestPlanDisablesFusion:
    def test_planless_drive_timing_unchanged_by_module(self):
        """A drive without a plan is bit-identical to one never offered one."""
        def timed(plan):
            env = Environment()
            disk = make_disk(env, fault_plan=plan)
            for lbn in (0, 64, 128):
                one_request(env, disk, lbn=lbn)
            return env.now

        assert timed(None) == timed(
            build_fault_plan(FaultConfig(), 1, 0, TOTAL_SECTORS))

    def test_healthy_drive_with_plan_still_delivers(self):
        """A plan that never fires (tiny rate, lucky seed) changes nothing
        about delivery: the request completes ok via the unfused path."""
        env = Environment()
        plan = build_fault_plan(FaultConfig(transient_rate=1e-12), 1, 0,
                                TOTAL_SECTORS)
        disk = make_disk(env, fault_plan=plan)
        request = one_request(env, disk)
        assert request.status == "ok"


class TestFaultConfigValidation:
    """Invalid fault knobs fail at construction, not as a mislabelled run."""

    #: the issue's tiny machine: four drives, indices 0..3
    MACHINE = MachineConfig(n_cps=2, n_iops=1, n_disks=4)

    @pytest.mark.parametrize("field, value", [
        ("transient_rate", 2.0),
        ("transient_rate", -0.1),
        ("slow_factor", 0.0),
        ("bad_range_count", -1),
        ("bad_range_sectors", 0),
        ("slow_duration", -1.0),
        ("silent_range_count", -1),
        ("silent_range_sectors", 0),
        ("slow_disk", -2),
        ("fail_stop_disk", -2),
        ("silent_disk", -2),
    ])
    def test_out_of_range_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FaultConfig(**{field: value})

    def test_boundary_values_accepted(self):
        FaultConfig(transient_rate=1.0, slow_factor=0.5, bad_range_sectors=1,
                    silent_range_sectors=1, slow_disk=-1, fail_stop_disk=0)

    @pytest.mark.parametrize("field", DRIVE_FIELDS)
    def test_drive_index_checked_against_drive_count(self, field):
        config = FaultConfig(**{field: 4})
        with pytest.raises(ValueError, match=field):
            check_fault_drives(config, 4)
        check_fault_drives(config, 5)
        check_fault_drives(None, 0)

    @pytest.mark.parametrize("field", DRIVE_FIELDS)
    def test_run_service_rejects_a_missing_drive(self, field):
        workload = ServiceWorkload(n_requests=2, n_files=1,
                                   file_size=64 * 1024, seed=1)
        with pytest.raises(ValueError, match=field):
            run_service("traditional", workload, machine_config=self.MACHINE,
                        fault_config=FaultConfig(**{field: 9}))

    def test_run_service_rejects_negative_rebuild_bandwidth(self):
        workload = ServiceWorkload(n_requests=2, n_files=1,
                                   file_size=64 * 1024, seed=1)
        with pytest.raises(ValueError, match="rebuild_bandwidth"):
            run_service("traditional", workload, machine_config=self.MACHINE,
                        redundancy="parity", rebuild_bandwidth=-1.0)
