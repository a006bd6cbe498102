"""Tests for ``Environment.close()``: ending a simulation for good."""

import gc
import weakref

import pytest

from repro.sim import Environment, SimulationError


class TestClose:
    def test_detaches_waits_and_runs_finally_blocks(self, env):
        log = []
        gate = env.event()

        def waiter(env):
            try:
                yield gate
                log.append("resumed")
            finally:
                log.append("finally")

        process = env.process(waiter(env))
        env.run()
        assert process.is_alive
        assert gate.callbacks == [process._resume]
        env.close()
        assert log == ["finally"]
        assert gate.callbacks == []
        assert process._waiting_on is None

    def test_closes_processes_started_by_finally_blocks(self, env):
        def late(env):
            yield env.event()

        def waiter(env):
            try:
                yield env.event()
            finally:
                env.process(late(env))

        env.process(waiter(env))
        env.run()
        env.close()
        assert not any(process.is_alive for process in env._processes)

    def test_detaches_composite_waits_from_their_children(self, env):
        children = [env.event(), env.event()]
        inner = env.all_of([children[1]])

        def waiter(env):
            yield env.all_of([children[0], inner])

        env.process(waiter(env))
        env.run()
        assert all(child.callbacks for child in children)
        env.close()
        assert [child.callbacks for child in children] == [[], []]

    def test_empties_both_calendar_tiers(self, env):
        now_event = env.event().succeed()       # the same-instant ring
        later = env.timeout(5.0)                # the future heap
        fired = []
        now_event.callbacks.append(fired.append)
        later.callbacks.append(fired.append)
        assert env._ring and env._heap
        env.close()
        assert not env._ring and not env._heap
        assert env.peek() == float("inf")
        assert now_event.processed and later.processed
        env.run()
        assert fired == []

    def test_closed_processes_are_finished_and_not_deadlocked(self, env):
        def stuck(env):
            yield env.event()

        process = env.process(stuck(env))
        env.run()
        assert "stuck" in str(env._deadlock("probe"))
        env.close()
        assert not process.is_alive
        assert process.processed
        assert "no registered processes are alive" \
            in str(env._deadlock("probe"))

    def test_waiters_on_a_closed_process_are_not_resumed(self, env):
        log = []

        def child(env):
            yield env.event()

        def parent(env, child_process):
            yield child_process
            log.append("parent resumed")

        child_process = env.process(child(env))
        env.process(parent(env, child_process))
        env.run()
        env.close()
        env.run()
        assert log == []

    def test_noop_without_anything_live(self, env):
        def finished(env):
            yield env.timeout(1.0)

        env.process(finished(env))
        env.run()
        state = (env.now, env._eid, list(env._ring), list(env._heap))
        env.close()
        assert (env.now, env._eid, list(env._ring), list(env._heap)) == state
        Environment().close()

    def test_refuses_to_close_from_inside_a_process(self, env):
        def closer(env):
            env.close()
            yield env.timeout(1.0)

        env.process(closer(env))
        with pytest.raises(SimulationError, match="inside a process"):
            env.run()

    def test_frees_a_parked_model_by_reference_counting(self):
        class Server:
            def __init__(self, env):
                self.wake = env.event()
                self.process = env.process(self.loop())

            def loop(self):
                yield self.wake      # the frame holds self: a cycle

        env = Environment()
        server = Server(env)
        env.run()
        ref = weakref.ref(server)
        gc.collect()
        gc.disable()
        try:
            env.close()
            del server, env
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()
