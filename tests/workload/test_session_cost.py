"""Per-session simulator cost of a stream of one-block sessions.

At service scale the host cost of a session is mostly bookkeeping: the
processes and events spawned to move one 8 KB block.  These tests pin that
cost exactly for both methods on a small, fixed stream (one block per
session, four disks behind one IOP), so a change that spawns a process or
schedules an event that does no work shows up here — and they pin the
pattern memo that lets sessions of the same shape share one plan, and the
collection that frees an earlier run's machine.
"""

import dataclasses
import inspect
from collections import Counter

import numpy as np
import pytest

from repro.core import make_filesystem
from repro.core.ddio import DiskDirectedFS
from repro.fs import FileSystem
from repro.machine import Machine, MachineConfig
from repro.patterns import PATTERN_NAMES, make_pattern
from repro.patterns.pattern import _CHUNK_BATCH_RECORDS
from repro.sim.process import Process
from repro.workload import ServiceDriver, ServiceWorkload
from repro.workload import driver as driver_module
from repro.workload.driver import build_service_machine

BLOCK = 8192
N_SESSIONS = 40
MACHINE = MachineConfig(n_cps=2, n_iops=1, n_disks=4)


def one_block_stream():
    return ServiceWorkload(
        n_requests=N_SESSIONS, arrival="poisson", arrival_rate=30.0,
        concurrency=4, n_files=16, file_size=BLOCK, layout="contiguous",
        read_fraction=0.7, pattern_specs=("b",), record_size=BLOCK)


@pytest.fixture
def spawned(monkeypatch):
    """Counts Process constructions by generator name."""
    names = Counter()
    original = Process.__init__

    def counting_init(self, env, generator):
        names[generator.__name__] += 1
        original(self, env, generator)

    monkeypatch.setattr(Process, "__init__", counting_init)
    return names


def run_stream(method, spawned):
    """Run the stream; returns (processes by name, events) of the run phase."""
    workload = one_block_stream()
    machine, implementation, files = build_service_machine(
        workload, machine_config=MACHINE, seed=3, method=method)
    driver = ServiceDriver(machine, implementation, files, workload,
                           retain_requests=False)
    spawned.clear()
    events_before = machine.env._eid
    result = driver.run()
    assert result.aggregates["completed"] == N_SESSIONS
    assert result.aggregates["conserved"]
    return dict(spawned), machine.env._eid - events_before


class TestPerSessionCost:
    def test_disk_directed(self, spawned):
        processes, events = run_stream("disk-directed", spawned)
        # Per session: the driver's handler, one worker per CP and the IOP's
        # collective handler, which moves the one block itself (the only
        # disk holding it gets one buffer thread, run inline).  The stream
        # generator and the IOP server loop are spawned once per run.
        assert processes == {
            "_open_loop_streaming": 1,
            "_iop_server": 1,
            "_handle_request": N_SESSIONS,
            "_cp_worker": MACHINE.n_cps * N_SESSIONS,
            "_serve_collective": N_SESSIONS,
        }
        assert sum(processes.values()) == 2 + 4 * N_SESSIONS
        assert events == 1677

    def test_traditional_caching(self, spawned):
        processes, events = run_stream("traditional", spawned)
        # Per session: the driver's handler, the one CP that owns the
        # record, its request exchange and the IOP's read or write handler
        # (29 + 11 == N_SESSIONS); each write adds its write-behind drain.
        # The cache's fetches and write-backs are modelled I/O.
        assert processes == {
            "_open_loop_streaming": 1,
            "_handle_request": N_SESSIONS,
            "_cp_worker": N_SESSIONS,
            "_cp_issue_request": N_SESSIONS,
            "_handle_read": 29,
            "_handle_write": 11,
            "_finish": 11,
            "_fetch": 11,
            "_allocate_for_write": 3,
            "_writeback": 11,
            "_flush_session_process": 11,
        }
        assert events == 1309


class TestBufferThreads:
    @pytest.mark.parametrize("n_blocks,threads,processes",
                             [(1, 1, 0), (3, 3, 3), (16, 8, 8)])
    def test_one_thread_per_block_up_to_the_buffer_budget(
            self, monkeypatch, spawned, n_blocks, threads, processes):
        """Two buffers per disk, no thread for a disk without blocks, and a
        lone thread runs inline instead of as a process."""
        made = []
        buffer_thread = DiskDirectedFS._buffer_thread

        def counting_buffer_thread(self, *args):
            made.append(args[1])
            return buffer_thread(self, *args)

        monkeypatch.setattr(DiskDirectedFS, "_buffer_thread",
                            counting_buffer_thread)
        machine = Machine(MACHINE, seed=1)
        striped = FileSystem(MACHINE, layout_seed=1).create_file(
            "f", n_blocks * BLOCK, layout="contiguous")
        implementation = make_filesystem("disk-directed", machine, striped)
        spawned.clear()
        implementation.transfer(
            make_pattern("rb", n_blocks * BLOCK, BLOCK, MACHINE.n_cps))
        assert len(made) == threads
        assert len(set(map(id, made))) == min(n_blocks, MACHINE.n_disks)
        assert spawned["_buffer_thread"] == processes


def pattern_plan(pattern, block_size=BLOCK):
    n_blocks = -(-pattern.file_size // block_size)
    return (
        [list(pattern.chunks_for_cp(cp)) for cp in range(pattern.n_cps)],
        [pattern.pieces_in_block(block, block_size)
         for block in range(n_blocks)],
        [pattern.bytes_for_cp(cp) for cp in range(pattern.n_cps)],
        pattern.total_transfer_bytes(),
    )


class TestPatternMemo:
    @pytest.mark.parametrize("name", PATTERN_NAMES)
    @pytest.mark.parametrize("record_size", [8, 1024, BLOCK])
    def test_memoised_pattern_matches_a_fresh_one(self, name, record_size):
        memoised = make_pattern(name, 8 * BLOCK, record_size, 4)
        first = pattern_plan(memoised)
        assert pattern_plan(memoised) == first
        assert pattern_plan(make_pattern(name, 8 * BLOCK, record_size, 4)) \
            == first

    def test_small_pattern_caches_its_chunks(self):
        pattern = make_pattern("rc", 8 * BLOCK, 8, 4)
        assert pattern.n_records <= _CHUNK_BATCH_RECORDS
        assert pattern.chunks_for_cp(1) is pattern.chunks_for_cp(1)

    def test_pattern_over_one_batch_is_not_cached(self):
        n_records = _CHUNK_BATCH_RECORDS + 8
        pattern = make_pattern("rc", n_records * 8, 8, 4)
        chunks = pattern.chunks_for_cp(1)
        assert inspect.isgenerator(chunks)
        assert list(chunks) == list(pattern.chunks_for_cp(1))
        assert pattern._chunks == {}

    def test_driver_shares_one_pattern_per_shape_within_a_run(self):
        workload = one_block_stream()
        machine, implementation, files = build_service_machine(
            workload, machine_config=MACHINE, seed=3)
        driver = ServiceDriver(machine, implementation, files, workload,
                               retain_requests=False)
        # Outside a run every plan is built afresh.
        assert driver.plan_request(3, 0)[1] \
            is not driver.plan_request(3, 0)[1]
        driver.run(trial_seed=3)
        # One-block files, one spec: at most a read and a write plan.
        assert 1 <= len(driver._patterns) <= 2
        _file, pattern = driver.plan_request(3, 0)
        assert pattern is driver._patterns[
            (pattern.name, pattern.file_size, pattern.record_size)]


def run_one_block_stream():
    workload = one_block_stream()
    machine, implementation, files = build_service_machine(
        workload, machine_config=MACHINE, seed=3)
    ServiceDriver(machine, implementation, files, workload).run()
    return machine


class TestFreeFinishedMachine:
    @pytest.fixture
    def collections(self, monkeypatch):
        collect = driver_module.gc.collect
        calls = []
        monkeypatch.setattr(driver_module, "_last_run", None)
        monkeypatch.setattr(driver_module.gc, "collect",
                            lambda: calls.append(collect()))
        return calls

    def test_building_after_a_long_run_frees_its_machine(
            self, monkeypatch, collections):
        monkeypatch.setattr(driver_module, "FREE_MACHINE_AFTER_RUN_S", 0.0)
        machine = run_one_block_stream()
        assert collections == []        # no run before it
        build_service_machine(one_block_stream(), machine_config=MACHINE)
        assert len(collections) == 1    # *machine* was still in memory
        build_service_machine(one_block_stream(), machine_config=MACHINE)
        assert len(collections) == 1    # one collection per finished run
        assert machine is not None

    def test_short_runs_and_freed_machines_cost_nothing(
            self, monkeypatch, collections):
        run_one_block_stream()          # far below one host second
        build_service_machine(one_block_stream(), machine_config=MACHINE)
        assert collections == []
        monkeypatch.setattr(driver_module, "FREE_MACHINE_AFTER_RUN_S", 0.0)
        run_one_block_stream()
        driver_module.gc.collect()      # the caller freed the machine
        assert driver_module._last_run[0]() is None
        build_service_machine(one_block_stream(), machine_config=MACHINE)
        assert len(collections) == 1    # only the caller's own collection


@pytest.fixture
def seed_sequences(monkeypatch):
    """Records every ``np.random.SeedSequence`` constructed."""
    built = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    return built


class TestRequestStreamCost:
    """The request path builds no generator per session."""

    @staticmethod
    def run_streaming(n_requests):
        workload = dataclasses.replace(one_block_stream(),
                                       n_requests=n_requests)
        machine, implementation, files = build_service_machine(
            workload, machine_config=MACHINE, seed=3, method="disk-directed")
        result = ServiceDriver(machine, implementation, files, workload,
                               retain_requests=False).run()
        assert result.aggregates["completed"] == n_requests

    def test_seed_sequences_do_not_grow_with_the_stream(self, seed_sequences):
        self.run_streaming(100)
        short = len(seed_sequences)
        seed_sequences.clear()
        self.run_streaming(500)
        assert len(seed_sequences) == short
