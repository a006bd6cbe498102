"""Unit tests for the simulated SSD device (repro.disk.flash.SSD)."""

import pytest

from repro.disk import SSD, SSDSpec, matched_ssd_spec
from repro.disk.drive import BusPort, DiskRequest
from repro.disk.faults import FAIL_STOP, TRANSIENT, FaultConfig, \
    build_fault_plan
from repro.sim import Environment, Resource
from repro.sim.events import AllOf

SECTORS_PER_BLOCK = 16    # one 8 KB file-system block = two 4 KB flash pages

#: A small device (64 logical pages over 9 erase blocks) whose GC actually
#: runs at test scale; long page times keep cached-read windows open.
TINY_SPEC = SSDSpec(total_sectors=512, pages_per_block=8, channels=2,
                    ncq_depth=2, write_cache_pages=8)


def make_ssd(env, spec=TINY_SPEC, **kwargs):
    bus = Resource(env, capacity=1)
    port = BusPort(bus, bandwidth=10e6, overhead=0.1e-3)
    return SSD(env, spec=spec, bus_port=port, **kwargs)


def one_request(env, ssd, lbn=0, op="read", n_sectors=SECTORS_PER_BLOCK):
    box = []

    def client(env):
        if op == "read":
            request = yield ssd.read(lbn, n_sectors)
        else:
            request = yield ssd.write(lbn, n_sectors)
            yield ssd.flush()
        box.append(request)

    env.run(env.process(client(env)))
    return box[0]


class TestConstruction:
    def test_default_spec_is_bandwidth_matched(self):
        env = Environment()
        ssd = make_ssd(env, spec=None)
        assert ssd.spec.sequential_read_rate == pytest.approx(
            matched_ssd_spec().sequential_read_rate)

    def test_geometry_quacks_like_a_disk_geometry(self):
        env = Environment()
        ssd = make_ssd(env)
        assert ssd.geometry.total_sectors == TINY_SPEC.total_sectors
        assert ssd.geometry.page_of(0) == 0
        assert ssd.geometry.page_of(8) == 1
        assert list(ssd.geometry.page_span(0, 16)) == [0, 1]
        assert list(ssd.geometry.page_span(7, 2)) == [0, 1]


class TestSubmitValidation:
    def test_rejects_negative_lbn(self):
        env = Environment()
        ssd = make_ssd(env)
        with pytest.raises(ValueError):
            ssd.read(-1, 4)

    def test_rejects_reads_past_the_end(self):
        env = Environment()
        ssd = make_ssd(env)
        with pytest.raises(ValueError):
            ssd.read(TINY_SPEC.total_sectors - 2, 4)

    def test_rejects_empty_requests(self):
        env = Environment()
        ssd = make_ssd(env)
        with pytest.raises(ValueError):
            ssd.read(0, 0)


class TestReadPath:
    def test_read_completes_and_counts(self):
        env = Environment()
        ssd = make_ssd(env)
        request = one_request(env, ssd)
        assert request.status == "ok"
        assert ssd.stats.reads == 1
        assert ssd.stats.bytes_read == SECTORS_PER_BLOCK * 512
        assert ssd.stats.cache_misses == 1
        assert env.now > 0

    def test_head_estimate_tracks_the_last_request(self):
        env = Environment()
        ssd = make_ssd(env)
        assert ssd.head_lbn_estimate == 0
        one_request(env, ssd, lbn=64)
        assert ssd.head_lbn_estimate == 64 + SECTORS_PER_BLOCK

    def test_two_channel_read_beats_two_sequential_single_reads(self):
        # Pages stripe lpn % channels: a two-page read uses both channels
        # in parallel, so it finishes in less than twice the one-page time.
        def timed(n_sectors):
            env = Environment()
            ssd = make_ssd(env)
            one_request(env, ssd, n_sectors=n_sectors)
            return env.now

        two_pages = timed(16)
        one_page = timed(8)
        assert two_pages < 2 * one_page

    def test_same_channel_pages_serialize(self):
        # Pages 0 and 2 both live on channel 0 (lpn % 2): their flash
        # reads cannot overlap.
        env = Environment()
        ssd = make_ssd(env)
        box = []

        def client(env):
            request = yield ssd.read(0, 24)   # pages 0,1,2
            box.append(request)

        env.run(env.process(client(env)))
        assert env.now >= 2 * TINY_SPEC.read_page_time
        assert box[0].status == "ok"

    def test_ncq_overlaps_independent_requests(self):
        def timed(concurrent):
            env = Environment()
            ssd = make_ssd(env)
            if concurrent:
                events = [ssd.read(0, 8), ssd.read(8, 8)]
                env.run(AllOf(env, events))
            else:
                one_request(env, ssd, lbn=0, n_sectors=8)
                first = env.now
                one_request(env, ssd, lbn=8, n_sectors=8)
                return env.now
            return env.now

        assert timed(concurrent=True) < timed(concurrent=False)


class TestWritePath:
    def test_cached_write_completes_before_media(self):
        env = Environment()
        ssd = make_ssd(env)
        times = {}

        def client(env):
            accepted, on_media = ssd.write_tracked(0, SECTORS_PER_BLOCK)
            yield accepted
            times["accepted"] = env.now
            yield on_media
            times["media"] = env.now

        env.run(env.process(client(env)))
        assert times["media"] > times["accepted"]
        assert ssd.stats.writes == 1
        assert ssd.stats.bytes_written == SECTORS_PER_BLOCK * 512
        assert ssd.ftl.host_pages_written == 2

    def test_flush_waits_for_destage(self):
        env = Environment()
        ssd = make_ssd(env)

        def client(env):
            yield ssd.write(0, SECTORS_PER_BLOCK)
            accepted_at = env.now
            yield ssd.flush()
            assert env.now > accepted_at

        env.run(env.process(client(env)))
        assert ssd.ftl.host_pages_written == 2

    def test_flush_with_nothing_buffered_is_immediate(self):
        env = Environment()
        ssd = make_ssd(env)
        flushed = ssd.flush()
        assert flushed.triggered

    def test_disabled_cache_programs_inline(self):
        spec = SSDSpec(total_sectors=512, pages_per_block=8, channels=2,
                       ncq_depth=2, write_cache_enabled=False)
        env = Environment()
        ssd = make_ssd(env, spec=spec)
        times = {}

        def client(env):
            accepted, on_media = ssd.write_tracked(0, SECTORS_PER_BLOCK)
            yield accepted
            times["accepted"] = env.now
            yield on_media
            times["media"] = env.now

        env.run(env.process(client(env)))
        # Write-through: acceptance IS media (programs happened inline).
        assert times["media"] == times["accepted"]
        assert env.now >= spec.program_page_time

    def test_write_larger_than_the_cache_does_not_deadlock(self):
        # 16 pages into an 8-page cache: the oversized request proceeds
        # alone into an empty cache instead of waiting forever.
        env = Environment()
        ssd = make_ssd(env)     # write_cache_pages=8
        request = one_request(env, ssd, op="write", n_sectors=128)
        assert request.status == "ok"
        assert ssd.ftl.host_pages_written == 16

    def test_cache_backpressure_preserves_all_writes(self):
        env = Environment()
        ssd = make_ssd(env)
        events = [ssd.write(16 * i, 16) for i in range(12)]

        def client(env):
            yield AllOf(env, events)
            yield ssd.flush()

        env.run(env.process(client(env)))
        assert ssd.stats.writes == 12
        assert ssd.ftl.host_pages_written == 24


class TestWriteCacheReadHits:
    def test_read_of_buffered_pages_hits_the_cache(self):
        env = Environment()
        ssd = make_ssd(env)

        def client(env):
            yield ssd.write(0, SECTORS_PER_BLOCK)
            # Destage needs a flash program (milliseconds); this read
            # arrives while the pages are still buffered.
            yield ssd.read(0, SECTORS_PER_BLOCK)

        env.run(env.process(client(env)))
        assert ssd.stats.cache_hits == 1

    def test_read_after_flush_misses(self):
        env = Environment()
        ssd = make_ssd(env)

        def client(env):
            yield ssd.write(0, SECTORS_PER_BLOCK)
            yield ssd.flush()
            yield ssd.read(0, SECTORS_PER_BLOCK)

        env.run(env.process(client(env)))
        assert ssd.stats.cache_hits == 0
        assert ssd.stats.cache_misses == 1


class TestGarbageCollectionOnDevice:
    def test_hot_overwrites_trigger_gc_and_charge_time(self):
        env = Environment()
        ssd = make_ssd(env)

        def client(env):
            yield ssd.write(0, 512)          # fill all 64 logical pages
            yield ssd.flush()
            for _round in range(6):
                yield ssd.write(0, 64)       # hot 8-page region
                yield ssd.flush()

        env.run(env.process(client(env)))
        counters = ssd.flash_counters()
        assert counters["erases"] > 0
        assert counters["write_amplification"] >= 1.0
        assert counters["flash_pages_written"] \
            == counters["host_pages_written"] + counters["relocated_pages"]

    def test_flash_counters_include_cache_stats(self):
        env = Environment()
        ssd = make_ssd(env)
        one_request(env, ssd)
        counters = ssd.flash_counters()
        assert counters["cache_misses"] == 1
        assert counters["cache_hits"] == 0


class TestSessionAccounting:
    def test_session_counters_are_scoped(self):
        env = Environment()
        ssd = make_ssd(env)
        box = []

        def client(env):
            yield ssd.read(0, SECTORS_PER_BLOCK, session_id="a")
            yield ssd.read(16, SECTORS_PER_BLOCK, session_id="b")
            yield ssd.read(32, SECTORS_PER_BLOCK, session_id="a")
            box.append(env.now)

        env.run(env.process(client(env)))
        assert ssd.session_stats["a"].reads == 2
        assert ssd.session_stats["b"].reads == 1
        assert ssd.session_stats["a"].bytes_read == 2 * SECTORS_PER_BLOCK * 512
        assert ssd.session_stats["a"].service_time > 0

    def test_release_session_drops_the_stats(self):
        env = Environment()
        ssd = make_ssd(env)
        one_request(env, ssd)   # untagged: no session entry
        ssd.session("s").reads = 3
        ssd.release_session("s")
        assert "s" not in ssd.session_stats
        ssd.release_session("never-seen")   # idempotent

    def test_queue_wait_is_accounted(self):
        env = Environment()
        spec = SSDSpec(total_sectors=512, pages_per_block=8, channels=1,
                       ncq_depth=1)
        ssd = make_ssd(env, spec=spec)
        events = [ssd.read(8 * i, 8, session_id="s") for i in range(4)]
        env.run(AllOf(env, events))
        assert ssd.stats.queue_wait_time > 0
        assert ssd.session_stats["s"].queue_wait_time > 0


class TestFaults:
    def test_fail_stop_refuses_reads(self):
        env = Environment()
        plan = build_fault_plan(
            FaultConfig(fail_stop_disk=0, fail_stop_time=0.0), 1, 0,
            TINY_SPEC.total_sectors)
        ssd = make_ssd(env, fault_plan=plan)
        request = one_request(env, ssd)
        assert request.status == "error"
        assert request.error == FAIL_STOP
        assert ssd.stats.faults[FAIL_STOP] == 1

    def test_fail_stop_refuses_writes_before_the_bus(self):
        env = Environment()
        plan = build_fault_plan(
            FaultConfig(fail_stop_disk=0, fail_stop_time=0.0), 1, 0,
            TINY_SPEC.total_sectors)
        ssd = make_ssd(env, fault_plan=plan)
        box = []

        def client(env):
            request = yield ssd.write(0, SECTORS_PER_BLOCK)
            box.append(request)

        env.run(env.process(client(env)))
        assert box[0].status == "error"
        assert ssd.stats.writes == 0            # never accepted
        assert ssd.ftl.host_pages_written == 0  # never programmed

    def test_certain_transient_fails_reads_with_time_charged(self):
        env = Environment()
        plan = build_fault_plan(FaultConfig(transient_rate=1.0), 1, 0,
                                TINY_SPEC.total_sectors)
        ssd = make_ssd(env, fault_plan=plan)
        request = one_request(env, ssd)
        assert request.status == "error"
        assert request.error == TRANSIENT
        # The device attempted the flash reads before reporting the error.
        assert env.now >= TINY_SPEC.read_page_time

    def test_fail_stop_mid_destage_counts_lost_writes(self):
        # The write is accepted (cache) before the stop time, but the
        # device dies before the destage programs it: data lost, counted.
        env = Environment()
        plan = build_fault_plan(
            FaultConfig(fail_stop_disk=0, fail_stop_time=0.5e-3), 1, 0,
            TINY_SPEC.total_sectors)
        ssd = make_ssd(env, fault_plan=plan)
        box = []

        def client(env):
            request = yield ssd.write(0, SECTORS_PER_BLOCK)
            box.append(request)
            yield ssd.flush()

        env.run(env.process(client(env)))
        assert box[0] is not None
        assert ssd.stats.faults.get("lost_destage", 0) == 1
        assert ssd.ftl.host_pages_written == 0

    def test_slow_episode_stretches_reads(self):
        def timed(plan):
            env = Environment()
            ssd = make_ssd(env, fault_plan=plan)
            one_request(env, ssd)
            return env.now

        slow = build_fault_plan(
            FaultConfig(slow_disk=0, slow_factor=8.0, slow_start=0.0,
                        slow_duration=100.0), 1, 0, TINY_SPEC.total_sectors)
        past = build_fault_plan(
            FaultConfig(slow_disk=0, slow_factor=8.0, slow_start=-2.0,
                        slow_duration=1.0), 1, 0, TINY_SPEC.total_sectors)
        assert timed(slow) > 2.0 * timed(past)

    def test_planless_timing_unchanged_by_a_disabled_plan(self):
        def timed(plan):
            env = Environment()
            ssd = make_ssd(env, fault_plan=plan)
            for lbn in (0, 64, 128):
                one_request(env, ssd, lbn=lbn)
            return env.now

        assert timed(None) == timed(
            build_fault_plan(FaultConfig(), 1, 0, TINY_SPEC.total_sectors))

    def test_same_plan_same_seed_is_deterministic(self):
        def timed():
            env = Environment()
            plan = build_fault_plan(
                FaultConfig(transient_rate=0.3), 1, 0,
                TINY_SPEC.total_sectors)
            ssd = make_ssd(env, fault_plan=plan)
            for lbn in (0, 64, 128, 192):
                one_request(env, ssd, lbn=lbn)
            return env.now, dict(ssd.stats.faults)

        assert timed() == timed()


class TestWriteTrackedContract:
    def test_media_event_fires_after_accept(self):
        env = Environment()
        ssd = make_ssd(env)
        accepted, on_media = ssd.write_tracked(0, SECTORS_PER_BLOCK)
        env.run(on_media)
        assert on_media.triggered
        assert accepted.triggered

    def test_submit_accepts_a_prebuilt_request(self):
        env = Environment()
        ssd = make_ssd(env)
        request = DiskRequest(op="read", lbn=0, n_sectors=SECTORS_PER_BLOCK,
                              tag="t", session_id="s")
        completion = ssd.submit(request)
        env.run(completion)
        assert request.status == "ok"
        assert ssd.session_stats["s"].reads == 1
