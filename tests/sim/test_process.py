"""Tests for generator-based processes."""

import pytest

from repro.sim import Environment, Interrupt, Process, StopProcess


class TestProcessBasics:
    def test_requires_generator(self, env):
        with pytest.raises(TypeError):
            Process(env, lambda: None)

    def test_process_returns_generator_value(self, env):
        def worker(env):
            yield env.timeout(1.0)
            return 99

        proc = env.process(worker(env))
        assert env.run(proc) == 99

    def test_process_is_alive_until_done(self, env):
        def worker(env):
            yield env.timeout(5.0)

        proc = env.process(worker(env))
        env.run(until=1.0)
        assert proc.is_alive
        env.run()
        assert not proc.is_alive

    def test_processes_can_wait_for_each_other(self, env):
        log = []

        def child(env):
            yield env.timeout(2.0)
            log.append(("child", env.now))
            return "child-result"

        def parent(env):
            value = yield env.process(child(env))
            log.append(("parent", env.now, value))

        env.process(parent(env))
        env.run()
        assert log == [("child", 2.0), ("parent", 2.0, "child-result")]

    def test_stop_process_exception_finishes_early(self, env):
        def worker(env):
            yield env.timeout(1.0)
            raise StopProcess("early exit")
            yield env.timeout(100.0)  # pragma: no cover

        proc = env.process(worker(env))
        assert env.run(proc) == "early exit"
        assert env.now == 1.0

    def test_exception_propagates_to_waiter(self, env):
        def child(env):
            yield env.timeout(1.0)
            raise ValueError("child failed")

        def parent(env):
            try:
                yield env.process(child(env))
            except ValueError as error:
                return f"caught: {error}"

        proc = env.process(parent(env))
        assert env.run(proc) == "caught: child failed"

    def test_unwaited_failure_surfaces_at_run(self, env):
        def worker(env):
            yield env.timeout(1.0)
            raise RuntimeError("nobody is watching")

        env.process(worker(env))
        with pytest.raises(RuntimeError):
            env.run()

    def test_yielding_non_event_is_an_error(self, env):
        def worker(env):
            yield 42

        env.process(worker(env))
        with pytest.raises(TypeError):
            env.run()

    def test_generator_that_handles_non_event_error_keeps_running(self, env):
        def worker(env):
            try:
                yield 42
            except TypeError:
                yield env.timeout(1.0)
            return "recovered"

        proc = env.process(worker(env))
        assert env.run(proc) == "recovered"
        assert env.now == 1.0

    def test_generator_that_keeps_yielding_non_events_is_not_recursed(self, env):
        def worker(env):
            for _ in range(5000):
                try:
                    yield "still not an event"
                except TypeError:
                    pass
            yield env.timeout(1.0)
            return "done"

        proc = env.process(worker(env))
        assert env.run(proc) == "done"

    def test_non_event_error_fails_the_process_for_its_waiter(self, env):
        def child(env):
            yield "not an event"

        def parent(env):
            try:
                yield env.process(child(env))
            except TypeError as error:
                return str(error)

        proc = env.process(parent(env))
        env.run()
        assert "not an Event" in proc.value

    def test_name_reflects_generator(self, env):
        def my_worker(env):
            yield env.timeout(1.0)

        proc = env.process(my_worker(env))
        assert proc.name == "my_worker"
        env.run()

    def test_immediate_return_process(self, env):
        def worker(env):
            return "instant"
            yield  # pragma: no cover

        proc = env.process(worker(env))
        assert env.run(proc) == "instant"

    def test_yield_already_processed_event(self, env):
        early = env.timeout(1.0)
        env.run(until=2.0)

        def worker(env):
            value = yield early
            return (env.now, value)

        proc = env.process(worker(env))
        assert env.run(proc) == (2.0, None)

    def test_active_process_restored_when_base_exception_escapes(self, env):
        def interrupted(env):
            yield env.timeout(1.0)
            raise KeyboardInterrupt

        env.process(interrupted(env))
        with pytest.raises(KeyboardInterrupt):
            env.run()
        assert env.active_process is None


class TestInterrupt:
    def test_interrupt_wakes_process(self, env):
        log = []

        def sleeper(env):
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                log.append((env.now, interrupt.cause))

        def interrupter(env, victim):
            yield env.timeout(3.0)
            victim.interrupt("wake up")

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        assert log == [(3.0, "wake up")]

    def test_interrupted_process_can_continue(self, env):
        log = []

        def sleeper(env):
            try:
                yield env.timeout(100.0)
            except Interrupt:
                pass
            yield env.timeout(1.0)
            log.append(env.now)

        def interrupter(env, victim):
            yield env.timeout(2.0)
            victim.interrupt()

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        assert log == [3.0]

    def test_unhandled_interrupt_fails_process(self, env):
        def sleeper(env):
            yield env.timeout(100.0)

        def interrupter(env, victim):
            yield env.timeout(1.0)
            victim.interrupt("unhandled")

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        with pytest.raises(Interrupt):
            env.run()

    def test_interrupting_finished_process_is_an_error(self, env):
        def quick(env):
            yield env.timeout(1.0)

        proc = env.process(quick(env))
        env.run()
        from repro.sim import SimulationError
        with pytest.raises(SimulationError):
            proc.interrupt()
