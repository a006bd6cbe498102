"""The admission layer: policy orderings, drops, aging and the controller.

Three layers of pinning, per the determinism contract of
``repro.workload.admission``:

* **Queue mechanics** — the :class:`AdmissionQueue` grant order under each
  policy matches an independent pure-Python expression of the same spec
  (property-tested with hypothesis when installed), FIFO matches the
  counting-semaphore :class:`Resource` it replaces grant-for-grant, and EDF
  drops exactly the sessions whose deadlines are unmeetable at grant time.
* **Starvation** — the size-aware policy's aging bound really does bound the
  admission wait of a Pareto-tail giant under sustained overload; pure SJF
  (the bound disabled) demonstrably starves it longer.
* **Controller** — AIMD K adaptation, the min-samples gate, load shedding
  and the serialisable state snapshot.
"""

import math

import pytest

from repro.machine import MachineConfig
from repro.sim import Environment, Resource
from repro.workload import ServiceWorkload, run_service
from repro.workload.admission import (
    ADMITTED,
    DEFAULT_AGING_BOUND,
    DROPPED,
    SHED,
    AdaptiveConcurrencyController,
    AdmissionQueue,
    AdmissionTicket,
    ControllerConfig,
    EDFPolicy,
    FIFOPolicy,
    PriorityPolicy,
    SJFPolicy,
    make_admission_policy,
)

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised in minimal CI images
    HAVE_HYPOTHESIS = False

KILOBYTE = 1024


def ticket(index, size=KILOBYTE, priority=0, deadline=None, enqueue=0.0,
           arrival=None):
    return AdmissionTicket(index=index,
                           arrival_time=enqueue if arrival is None
                           else arrival,
                           enqueue_time=enqueue, size_bytes=size,
                           priority=priority, deadline=deadline)


def drain_schedule(policy, tickets):
    """Feed *tickets* through a 1-slot queue; return (admit order, drops).

    A blocker holds the single slot while every ticket enqueues, then the
    slot is released repeatedly — each release hands it to the policy's next
    choice (dropping unmeetable sessions on the way), so the recovered admit
    order is exactly the policy's total order over the backlog.  Time never
    advances: everything happens at now == 0.
    """
    env = Environment()
    queue = AdmissionQueue(env, capacity=1, policy=policy)
    blocker = queue.request(ticket(-1))
    assert blocker.admitted
    grants = [queue.request(t) for t in tickets]
    admitted = []
    queue.release(blocker)
    while queue.count:
        current = queue._users[0]
        admitted.append(current.ticket.index)
        queue.release(current)
    dropped = {grant.ticket.index for grant in grants
               if grant.outcome == DROPPED}
    assert all(grant.outcome in (ADMITTED, DROPPED) for grant in grants)
    return admitted, dropped


def reference_schedule(policy_name, tickets, now=0.0):
    """An independent pure-Python model of each policy's total order."""
    if policy_name == "fifo":
        return [t.index for t in tickets], set()
    if policy_name == "sjf":
        return [t.index for t in
                sorted(tickets, key=lambda t: (t.size_bytes, t.index))], set()
    if policy_name == "priority":
        order = sorted(range(len(tickets)),
                       key=lambda i: (tickets[i].priority, i))
        return [tickets[i].index for i in order], set()
    if policy_name == "edf":
        waiting = list(tickets)
        admitted, dropped = [], set()
        while waiting:
            head = min(waiting, key=lambda t: (
                math.inf if t.deadline is None else t.deadline, t.index))
            waiting.remove(head)
            if head.deadline is not None and now > head.deadline:
                dropped.add(head.index)
            else:
                admitted.append(head.index)
        return admitted, dropped
    raise AssertionError(policy_name)


def make_tickets(rows):
    """rows: (size, priority, deadline) triples -> distinct-index tickets."""
    return [ticket(index, size=size, priority=priority, deadline=deadline)
            for index, (size, priority, deadline) in enumerate(rows)]


POLICIES = {
    "fifo": FIFOPolicy,
    "sjf": lambda: SJFPolicy(aging_bound=math.inf),
    "priority": PriorityPolicy,
    "edf": EDFPolicy,
}

EXAMPLE_ROWS = [
    (8192, 1, None),
    (512, 0, 3.0),
    (65536, 2, -1.0),
    (512, 1, 0.5),
    (4096, 0, None),
    (1024, 2, -0.5),
]


class TestPolicyOrderings:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_example_matches_reference(self, name):
        tickets = make_tickets(EXAMPLE_ROWS)
        admitted, dropped = drain_schedule(POLICIES[name](), tickets)
        expect_admitted, expect_dropped = reference_schedule(name, tickets)
        assert admitted == expect_admitted
        assert dropped == expect_dropped

    if HAVE_HYPOTHESIS:
        @given(rows=st.lists(
            st.tuples(st.integers(min_value=1, max_value=2 ** 20),
                      st.integers(min_value=0, max_value=3),
                      st.one_of(st.none(),
                                st.floats(min_value=-5.0, max_value=5.0,
                                          allow_nan=False))),
            min_size=1, max_size=24),
            name=st.sampled_from(sorted(POLICIES)))
        @settings(max_examples=120, deadline=None)
        def test_property_matches_reference(self, rows, name):
            tickets = make_tickets(rows)
            admitted, dropped = drain_schedule(POLICIES[name](), tickets)
            expect_admitted, expect_dropped = reference_schedule(name, tickets)
            assert admitted == expect_admitted
            assert dropped == expect_dropped

    def test_edf_drops_exactly_the_unmeetable(self):
        # At grant time now == 0: deadlines < 0 are unmeetable, everything
        # else (including no-deadline sessions) must be admitted.
        tickets = make_tickets([(1, 0, -2.0), (1, 0, 1.0), (1, 0, None),
                                (1, 0, -0.001), (1, 0, 0.0)])
        admitted, dropped = drain_schedule(EDFPolicy(), tickets)
        assert dropped == {0, 3}
        assert set(admitted) == {1, 2, 4}

    def test_edf_service_rate_tightens_meetability(self):
        # With a rate estimate, a session whose transfer cannot finish by
        # its deadline is dropped even though the deadline has not passed.
        policy = EDFPolicy(service_rate=1000.0)
        assert policy.unmeetable(ticket(0, size=2000, deadline=1.0), now=0.0)
        assert not policy.unmeetable(ticket(0, size=500, deadline=1.0),
                                     now=0.0)
        assert not policy.unmeetable(ticket(0, size=10 ** 9, deadline=None),
                                     now=0.0)

    def test_edf_checks_meetability_at_grant_time(self):
        # The drop decision happens when the slot frees, not at enqueue: a
        # deadline that was meetable at arrival but expires while queued
        # must be dropped at its grant instant.
        env = Environment()
        queue = AdmissionQueue(env, capacity=1, policy=EDFPolicy())
        blocker = queue.request(ticket(-1))
        grant = queue.request(ticket(0, deadline=1.0))
        done = []

        def holder(env):
            yield env.timeout(2.0)   # past the waiter's deadline
            queue.release(blocker)
            done.append(env.now)

        env.process(holder(env))
        env.run()
        assert done and grant.outcome == DROPPED
        assert queue.dropped == 1


class TestFIFOQueueMatchesResource:
    """The new queue's grant mechanics, pinned against the Resource spec."""

    @staticmethod
    def _sequence(make, request, release):
        """Drive one K=2 scenario; return the observable grant sequence."""
        handle = make()
        events = []
        grants = [request(handle, index) for index in range(5)]
        events.append([bool(grant.triggered) for grant in grants])
        release(handle, grants[0])
        events.append([bool(grant.triggered) for grant in grants])
        release(handle, grants[1])
        release(handle, grants[2])
        events.append([bool(grant.triggered) for grant in grants])
        return events

    def test_grant_sequence_identical(self):
        resource_events = self._sequence(
            lambda: Resource(Environment(), capacity=2),
            lambda resource, index: resource.request(),
            lambda resource, grant: resource.release(grant))
        queue_events = self._sequence(
            lambda: AdmissionQueue(Environment(), capacity=2,
                                   policy=FIFOPolicy()),
            lambda queue, index: queue.request(ticket(index)),
            lambda queue, grant: queue.release(grant))
        assert queue_events == resource_events

    def test_immediate_grant_is_synchronous(self):
        env = Environment()
        queue = AdmissionQueue(env, capacity=1)
        grant = queue.request(ticket(0))
        assert grant.triggered and grant.admitted
        assert queue.count == 1 and queue.queue_length == 0

    def test_release_of_unknown_grant_raises(self):
        env = Environment()
        queue = AdmissionQueue(env, capacity=1)
        queue.request(ticket(0))
        other = AdmissionQueue(env, capacity=1).request(ticket(1))
        with pytest.raises(ValueError):
            queue.release(other)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(Environment(), capacity=0)


class TestQueueControls:
    def test_set_capacity_growth_admits_now(self):
        env = Environment()
        queue = AdmissionQueue(env, capacity=1)
        first = queue.request(ticket(0))
        second = queue.request(ticket(1))
        assert first.admitted and not second.triggered
        queue.set_capacity(3)
        assert second.admitted
        queue.set_capacity(1)          # shrink drains naturally
        assert queue.count == 2        # slots are never revoked
        with pytest.raises(ValueError):
            queue.set_capacity(0)

    def test_shed_older_than_drops_by_arrival_age(self):
        env = Environment()
        queue = AdmissionQueue(env, capacity=1)
        queue.request(ticket(0))
        old = queue.request(ticket(1, enqueue=0.0, arrival=0.0))
        fresh = queue.request(ticket(2, enqueue=0.0, arrival=4.0))

        def clock(env):
            yield env.timeout(5.0)

        env.process(clock(env))
        env.run()
        shed = queue.shed_older_than(3.0, now=env.now)
        assert shed == 1 and queue.shed == 1
        assert old.outcome == SHED and not fresh.triggered
        assert queue.queue_length == 1


class TestAgingBoundsStarvation:
    """Satellite: SJF must not starve large sessions indefinitely."""

    # Seed 0 draws one 272 KB giant into a 24 KB-median stream, arriving at
    # index 8 — after the overload backlog has formed, so pure SJF keeps
    # jumping smaller jobs ahead of it.
    WORKLOAD = dict(n_requests=36, arrival="poisson", arrival_rate=400.0,
                    concurrency=2, n_files=6, file_size=64 * KILOBYTE,
                    layout="random", pattern_specs=("b",), record_size=8192,
                    size_distribution="pareto", size_alpha=1.1, seed=0)
    MACHINE = dict(n_cps=2, n_iops=2, n_disks=4)

    @staticmethod
    def _waits(result):
        records = [record for record in result.requests
                   if record.get("admitted_time") is not None]
        giant = max(records, key=lambda record: record["bytes_requested"])
        max_wait = max(record["admitted_time"] - record["arrival_time"]
                       for record in records)
        max_service = max(record["completed_time"] - record["admitted_time"]
                          for record in records)
        return (giant["admitted_time"] - giant["arrival_time"],
                max_wait, max_service)

    def test_aging_bounds_giant_wait_under_pareto_overload(self):
        bound = 0.4
        workload = ServiceWorkload(**self.WORKLOAD)
        machine = MachineConfig(**self.MACHINE)
        aged = run_service("disk-directed", workload, machine_config=machine,
                           admission_policy="sjf", admission_aging=bound)
        pure = run_service("disk-directed", workload, machine_config=machine,
                           admission_policy=SJFPolicy(
                               aging_bound=math.inf))
        aged_giant, aged_max, aged_service = self._waits(aged)
        pure_giant, pure_max, _ = self._waits(pure)
        # Pure SJF starves the giant behind every smaller job (its wait is
        # several times the aging bound); once overdue under the bounded
        # policy it jumps the size order and is admitted within one service
        # completion of aging out.
        assert pure_giant > 2 * aged_giant
        assert aged_giant <= bound + aged_service + 1e-9
        assert aged_max < pure_max
        assert aged.conserves_bytes() and pure.conserves_bytes()

    def test_default_bound_applies_when_unset(self):
        policy = make_admission_policy("sjf")
        assert policy.aging_bound == DEFAULT_AGING_BOUND
        assert make_admission_policy("sjf", aging_bound=2.5).aging_bound == 2.5

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError):
            SJFPolicy(aging_bound=0.0)


class TestMakeAdmissionPolicy:
    def test_names_and_instances(self):
        assert isinstance(make_admission_policy("fifo"), FIFOPolicy)
        assert isinstance(make_admission_policy("priority"), PriorityPolicy)
        edf = make_admission_policy("edf", service_rate=100.0)
        assert isinstance(edf, EDFPolicy) and edf.service_rate == 100.0
        original = SJFPolicy(aging_bound=1.0)
        assert make_admission_policy(original) is original

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown admission policy"):
            make_admission_policy("lifo")

    def test_describe_is_stable_identity(self):
        assert make_admission_policy("fifo").describe() == "fifo"
        assert SJFPolicy(aging_bound=30.0).describe() == "sjf(aging=30)"
        assert EDFPolicy(service_rate=8.0).describe() == "edf(rate=8)"


class TestController:
    def _controller(self, capacity=4, max_k=16, **config):
        config.setdefault("target_p99", 1.0)
        env = Environment()
        queue = AdmissionQueue(env, capacity=capacity)
        controller = AdaptiveConcurrencyController(
            ControllerConfig(**config), queue, max_k=max_k)
        return env, queue, controller

    def test_backs_off_multiplicatively_over_target(self):
        env, queue, controller = self._controller(capacity=8)
        for _ in range(6):
            controller.observe(5.0)     # way over the 1.0 s target
        controller.tick(now=0.5)
        assert controller.k == 4 and queue.capacity == 4
        assert controller.k_changes == 1 and controller.k_min_seen == 4

    def test_grows_additively_under_headroom(self):
        env, queue, controller = self._controller(capacity=4)
        for _ in range(6):
            controller.observe(0.1)     # well under headroom * target
        controller.tick(now=0.5)
        assert controller.k == 5 and queue.capacity == 5
        assert controller.k_max_seen == 5

    def test_holds_inside_the_deadband(self):
        env, queue, controller = self._controller(capacity=4, headroom=0.7)
        for _ in range(6):
            controller.observe(0.9)     # between headroom and target
        controller.tick(now=0.5)
        assert controller.k == 4 and controller.k_changes == 0

    def test_min_samples_gates_action(self):
        env, queue, controller = self._controller(capacity=8, min_samples=5)
        for _ in range(4):
            controller.observe(5.0)
        controller.tick(now=0.5)
        assert controller.k == 8 and controller.last_p99 is None

    def test_respects_bounds(self):
        env, queue, controller = self._controller(capacity=1, max_k=2)
        for _ in range(6):
            controller.observe(5.0)
        controller.tick(now=0.5)
        assert controller.k == 1        # min_k floor
        for _ in range(6):
            controller.observe(0.01)
        controller.tick(now=1.0)
        for _ in range(6):
            controller.observe(0.01)
        controller.tick(now=1.5)
        assert controller.k == 2        # max_k ceiling

    def test_shed_mode_drops_overdue_waiters(self):
        env, queue, controller = self._controller(
            capacity=1, shed=True, shed_age=1.0)
        queue.request(ticket(0))
        waiter = queue.request(ticket(1, arrival=0.0))

        def clock(env):
            yield env.timeout(2.0)

        env.process(clock(env))
        env.run()
        controller.tick(now=env.now)
        assert waiter.outcome == SHED and controller.shed_total == 1

    def test_exhausted_after_idle_limit(self):
        env, queue, controller = self._controller(idle_limit=3)
        for _ in range(3):
            controller.tick(now=0.0)
        assert controller.exhausted
        controller.observe(0.5)
        controller.tick(now=0.0)
        assert not controller.exhausted

    def test_state_snapshot_is_serialisable(self):
        import json

        env, queue, controller = self._controller(capacity=8)
        for _ in range(6):
            controller.observe(5.0)
        controller.tick(now=0.5)
        state = controller.state()
        assert json.loads(json.dumps(state)) == state
        assert state["k"] == 4 and state["intervals"] == 1
        assert state["observed"] == 6 and state["target_p99"] == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(target_p99=0.0)
        with pytest.raises(ValueError):
            ControllerConfig(target_p99=1.0, interval=0.0)
        with pytest.raises(ValueError):
            ControllerConfig(target_p99=1.0, backoff=1.0)
        with pytest.raises(ValueError):
            ControllerConfig(target_p99=1.0, min_k=0)


class TestDriverIntegration:
    """Driver-level wiring that belongs to this module's contract."""

    WORKLOAD = dict(n_requests=16, arrival="poisson", arrival_rate=300.0,
                    concurrency=2, n_files=3, file_size=64 * KILOBYTE,
                    layout="random", pattern_specs=("b",), record_size=8192,
                    seed=2)
    MACHINE = dict(n_cps=2, n_iops=2, n_disks=4)

    def test_legacy_path_is_fifo_only(self):
        """What the counting-semaphore path offered, the admission layer
        gives by default: FIFO grants and no controller."""
        from repro.workload.driver import ServiceDriver, build_service_machine

        workload = ServiceWorkload(**self.WORKLOAD)
        machine, implementation, files = build_service_machine(
            workload, machine_config=MachineConfig(**self.MACHINE))
        driver = ServiceDriver(machine, implementation, files, workload)
        assert isinstance(driver.admission_policy, FIFOPolicy)
        assert driver.admission.policy is driver.admission_policy
        result = driver.run()
        assert result.admission == "fifo" and result.controller == {}
        assert result.max_in_flight <= workload.concurrency

    def test_dropped_sessions_never_enter_response_sketch(self):
        workload = ServiceWorkload(deadline_slack=0.01,
                                   **{**self.WORKLOAD, "concurrency": 1})
        result = run_service("disk-directed", workload,
                             machine_config=MachineConfig(**self.MACHINE),
                             admission_policy="edf")
        assert result.dropped_requests > 0
        completed = result.aggregates["completed"]
        assert completed + result.dropped_requests == workload.n_requests
        assert len(result.response_times) == completed
        assert result.conserves_bytes()
        dropped = [record for record in result.requests
                   if record.get("admitted_time") is None]
        assert len(dropped) == result.dropped_requests
        assert all(record["outcome"] == DROPPED and
                   record["bytes_shed"] == record["bytes_requested"]
                   for record in dropped)

    def test_priority_classes_get_per_class_sketches(self):
        workload = ServiceWorkload(priority_levels=3, **self.WORKLOAD)
        result = run_service("disk-directed", workload,
                             machine_config=MachineConfig(**self.MACHINE),
                             admission_policy="priority")
        assert set(result.class_sketches) <= {"0", "1", "2"}
        assert len(result.class_sketches) > 1
        total = sum(sketch["stats"]["count"]
                    for sketch in result.class_sketches.values())
        assert total == workload.n_requests

    def test_single_class_runs_keep_class_sketches_empty(self):
        workload = ServiceWorkload(**self.WORKLOAD)
        result = run_service("disk-directed", workload,
                             machine_config=MachineConfig(**self.MACHINE))
        assert result.class_sketches == {}
