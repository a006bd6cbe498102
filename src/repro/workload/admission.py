"""Pluggable admission control for the service driver.

The driver used to admit collectives through a plain FIFO counting
:class:`~repro.sim.resources.Resource`: K slots, granted in arrival order.
Under heavy-tailed (Pareto) file sizes that is exactly wrong for the tail —
one giant session at the head of the queue stalls every small session behind
it, and the ``service-overload`` figure shows p99 destroyed at 4x saturation.
The driver *knows each session's byte size at admission time* (the request
plan is a pure function of ``(seed, index)``), which is the precondition for
the size- and deadline-aware disciplines the I/O-service literature
recommends.  This module supplies them:

* :class:`FIFOPolicy` — the reference discipline, **bit-identical** to the
  old ``Resource`` path (the differential tests pin this);
* :class:`SJFPolicy` — shortest-job-first *at admission*, with an **aging
  bound** so large sessions cannot be starved indefinitely;
* :class:`PriorityPolicy` — static priority classes (0 is most urgent),
  FIFO within a class;
* :class:`EDFPolicy` — earliest-deadline-first with explicit **deadline
  drop**: a session whose deadline is unmeetable at grant time is dropped,
  its bytes counted as ``shed`` (conservation becomes ``moved + failed +
  shed == requested`` — dropped work is accounted, never silently lost).

plus :class:`AdaptiveConcurrencyController`, a feedback controller that
observes the p99 response time over each control interval and adapts the
admission level K (AIMD) — and, in ``shed`` mode, drops queued sessions that
have already outlived the SLO target — to hold a p99 target that no static K
can hold under open-loop overload.

Determinism: admission order is load-bearing for every guarantee the repo
makes (streaming == retained, checkpoint resume, serial == parallel sweeps).
Every decision here is a pure function of the simulated history — policy
selection keys are total orders over deterministic ticket fields, controller
observations come from the deterministic simulation — so a replay reproduces
every grant, drop and K change exactly.
"""

import math
from dataclasses import asdict, dataclass

from repro.sim.events import Event
from repro.workload.aggregate import QuantileSketch

#: Grant outcomes delivered as the grant event's value.
ADMITTED = "admitted"
#: Dropped by the policy at grant time (EDF deadline miss).
DROPPED = "dropped"
#: Dropped by the controller's load shedder.
SHED = "shed"

#: Default aging bound (simulated seconds) for size-aware admission: a waiter
#: older than this is served in FIFO order ahead of any shorter job, which
#: bounds the starvation a Pareto tail can inflict on large sessions.
DEFAULT_AGING_BOUND = 30.0


@dataclass(frozen=True)
class AdmissionTicket:
    """Everything a policy may order or drop by — known at admission time.

    All fields are pure functions of ``(trial_seed, index)`` (sizes via the
    workload's size sampler, priority/deadline via the QoS stream of
    :mod:`repro.workload.arrival`), so no policy decision can depend on
    completion order or wall-clock scheduling.
    """

    index: int
    arrival_time: float
    enqueue_time: float
    size_bytes: int
    priority: int = 0
    #: absolute deadline for completion (None: no deadline)
    deadline: float = None


class AdmissionGrant(Event):
    """The event returned by :meth:`AdmissionQueue.request`.

    Succeeds with :data:`ADMITTED` when a slot is granted, or with
    :data:`DROPPED` / :data:`SHED` when the policy or controller rejects the
    session instead.  ``outcome`` mirrors the value for post-yield checks.
    """

    __slots__ = ("ticket", "outcome")

    def __init__(self, env, ticket):
        super().__init__(env)
        self.ticket = ticket
        self.outcome = None

    def resolve(self, outcome):
        self.outcome = outcome
        self.succeed(outcome)

    @property
    def admitted(self):
        return self.outcome == ADMITTED


class AdmissionPolicy:
    """Orders the waiting queue; optionally drops at grant time."""

    name = "abstract"
    #: True when the policy may refuse a session at grant time.
    drops = False

    def select(self, waiters, now):
        """Index (into *waiters*, which is in enqueue order) to grant next."""
        raise NotImplementedError

    def unmeetable(self, ticket, now):
        """True when *ticket* must be dropped rather than granted (only
        consulted when :attr:`drops` is True)."""
        return False

    def describe(self):
        """Stable identity string (enters the run fingerprint)."""
        return self.name

    def __repr__(self):
        return f"<{type(self).__name__} {self.describe()}>"


class FIFOPolicy(AdmissionPolicy):
    """Arrival order, the default: grants what a counting semaphore would."""

    name = "fifo"

    def select(self, waiters, now):
        return 0


class SJFPolicy(AdmissionPolicy):
    """Shortest job first at admission, with an aging bound.

    The waiter with the smallest ``size_bytes`` is granted next — unless any
    waiter has been queued longer than ``aging_bound`` simulated seconds, in
    which case the *oldest* such waiter is granted instead (FIFO among the
    overdue).  The bound is what keeps a sustained stream of small sessions
    from starving a Pareto-tail giant forever: once overdue, a large session
    jumps every shorter job.  ``aging_bound=math.inf`` disables aging (pure
    SJF, starvation and all — for the differential tests only).
    """

    name = "sjf"

    def __init__(self, aging_bound=DEFAULT_AGING_BOUND):
        if aging_bound <= 0:
            raise ValueError(f"aging bound must be positive, got {aging_bound}")
        self.aging_bound = aging_bound

    def select(self, waiters, now):
        if self.aging_bound != math.inf:
            for position, ticket in enumerate(waiters):
                # Enqueue order == list order, so the first overdue waiter
                # is the oldest one.
                if now - ticket.enqueue_time >= self.aging_bound:
                    return position
        return min(range(len(waiters)),
                   key=lambda i: (waiters[i].size_bytes, waiters[i].index))

    def describe(self):
        return f"sjf(aging={self.aging_bound:g})"


class PriorityPolicy(AdmissionPolicy):
    """Static priority classes: lowest class number first, FIFO within."""

    name = "priority"

    def select(self, waiters, now):
        return min(range(len(waiters)),
                   key=lambda i: (waiters[i].priority, i))


class EDFPolicy(AdmissionPolicy):
    """Earliest deadline first, with explicit drop of unmeetable sessions.

    At every grant instant the earliest-deadline waiter is considered; if its
    deadline can no longer be met it is **dropped** (its grant resolves
    :data:`DROPPED`, its bytes are accounted as shed) and the next candidate
    is considered — so exactly the sessions whose deadlines are unmeetable at
    grant time are dropped, no more and no fewer.  "Unmeetable" means the
    deadline has passed, or — when ``service_rate`` (bytes/second) is given —
    that ``now + size / service_rate`` already overruns it.  Sessions without
    a deadline sort last and are never dropped.
    """

    name = "edf"
    drops = True

    def __init__(self, service_rate=0.0):
        if service_rate < 0:
            raise ValueError(
                f"service rate must be >= 0, got {service_rate}")
        self.service_rate = service_rate

    def _deadline(self, ticket):
        return math.inf if ticket.deadline is None else ticket.deadline

    def select(self, waiters, now):
        return min(range(len(waiters)),
                   key=lambda i: (self._deadline(waiters[i]),
                                  waiters[i].index))

    def unmeetable(self, ticket, now):
        if ticket.deadline is None:
            return False
        estimate = ticket.size_bytes / self.service_rate \
            if self.service_rate > 0 else 0.0
        return now + estimate > ticket.deadline

    def describe(self):
        return f"edf(rate={self.service_rate:g})"


#: Registry for :func:`make_admission_policy`.
ADMISSION_POLICIES = ("fifo", "sjf", "priority", "edf")


def make_admission_policy(spec, aging_bound=0.0, service_rate=0.0):
    """Factory: policy name -> :class:`AdmissionPolicy` instance.

    ``aging_bound`` (SJF; 0 means the default bound) and ``service_rate``
    (EDF; bytes/s used in the meetability estimate, 0 means deadline-passed
    only) parameterise the policies that use them; passing either to a policy
    that ignores it is harmless, which keeps flat experiment configs simple.
    """
    if isinstance(spec, AdmissionPolicy):
        return spec
    key = str(spec).lower()
    if key == "fifo":
        return FIFOPolicy()
    if key == "sjf":
        return SJFPolicy(aging_bound=aging_bound or DEFAULT_AGING_BOUND)
    if key == "priority":
        return PriorityPolicy()
    if key == "edf":
        return EDFPolicy(service_rate=service_rate)
    raise ValueError(f"unknown admission policy {spec!r}; "
                     f"choose one of {ADMISSION_POLICIES}")


class AdmissionQueue:
    """A K-slot admission scheduler with a pluggable ordering policy.

    The grant mechanics mirror :class:`~repro.sim.resources.Resource`
    exactly — immediate synchronous grant while slots are free, handoff at
    release before anything else runs — so with :class:`FIFOPolicy` the event
    sequence (and therefore every simulated result) is bit-identical to the
    counting-semaphore driver this replaces; the differential tests pin that.
    Non-FIFO policies differ only in *which* waiter each freed slot goes to.

    ``set_capacity`` is the controller's actuator: growing K grants waiting
    sessions immediately, shrinking K lets the excess drain as sessions
    complete (slots are never revoked mid-collective).
    """

    __slots__ = ("env", "capacity", "policy", "name", "_users", "_waiters",
                 "dropped", "shed", "max_queue_length")

    def __init__(self, env, capacity, policy=None, name="service-admission"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.policy = policy if policy is not None else FIFOPolicy()
        self.name = name
        self._users = []
        self._waiters = []      # AdmissionGrant, in enqueue order
        self.dropped = 0
        self.shed = 0
        self.max_queue_length = 0

    # -- introspection --------------------------------------------------------
    @property
    def count(self):
        return len(self._users)

    @property
    def queue_length(self):
        return len(self._waiters)

    # -- core API -------------------------------------------------------------
    def request(self, ticket):
        """Ask for admission; the returned grant fires when resolved."""
        grant = AdmissionGrant(self.env, ticket)
        if len(self._users) < self.capacity and not self._waiters:
            self._grant_or_drop(grant)
        else:
            self._waiters.append(grant)
            if len(self._waiters) > self.max_queue_length:
                self.max_queue_length = len(self._waiters)
        return grant

    def release(self, grant):
        """Return a slot; hand it to the policy's next choice."""
        try:
            self._users.remove(grant)
        except ValueError:
            raise ValueError(
                "release() of a grant that does not hold a slot")
        self._drain()

    def set_capacity(self, capacity):
        """Adapt K.  Growth admits waiters now; shrinkage drains naturally."""
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._drain()

    def shed_older_than(self, age, now):
        """Drop every waiter whose *arrival* is more than *age* seconds old.

        The controller's load shedder: a session that has already waited
        longer than the SLO target cannot possibly meet it, so holding it in
        the queue only adds to the backlog.  Returns the number shed.
        """
        survivors = []
        count = 0
        for grant in self._waiters:
            if now - grant.ticket.arrival_time > age:
                count += 1
                self.shed += 1
                grant.resolve(SHED)
            else:
                survivors.append(grant)
        self._waiters = survivors
        return count

    # -- internals ------------------------------------------------------------
    def _grant_or_drop(self, grant):
        """Resolve *grant* at this instant: admit it, or drop it unmet."""
        if self.policy.drops and self.policy.unmeetable(grant.ticket,
                                                        self.env.now):
            self.dropped += 1
            grant.resolve(DROPPED)
            return False
        self._users.append(grant)
        grant.resolve(ADMITTED)
        return True

    def _drain(self):
        waiters = self._waiters
        users = self._users
        while waiters and len(users) < self.capacity:
            position = self.policy.select(
                [grant.ticket for grant in waiters], self.env.now)
            self._grant_or_drop(waiters.pop(position))

    def __repr__(self):
        return (f"<AdmissionQueue {self.name} policy={self.policy.describe()} "
                f"{self.count}/{self.capacity} used, "
                f"{self.queue_length} waiting>")


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs of the p99-target feedback controller.

    ``target_p99`` is the SLO (seconds, arrival-to-completion).  Each
    ``interval`` simulated seconds the controller examines the p99 of the
    sessions that completed during the interval and applies AIMD to K:
    multiplicative ``backoff`` when over target, additive ``increase`` when
    under ``headroom`` of it.  With ``shed=True`` it also drops every queued
    session older than ``shed_age`` (0: the target itself) — under open-loop
    overload no K can bound the *queueing* delay, so shedding is the only
    lever that actually holds the SLO; the dropped bytes stay visible in the
    shed accounting.
    """

    target_p99: float
    interval: float = 0.5
    min_k: int = 1
    #: 0 means "4x the workload's static K" (resolved by the driver)
    max_k: int = 0
    increase: int = 1
    backoff: float = 0.5
    headroom: float = 0.7
    shed: bool = False
    #: age (seconds since arrival) beyond which queued sessions are shed
    #: when ``shed`` is on; 0 means ``target_p99``
    shed_age: float = 0.0
    #: completions an interval needs before its p99 is acted on
    min_samples: int = 5
    #: consecutive intervals without a completion before the controller
    #: stops ticking (keeps a wedged run inside the watchdog's reach)
    idle_limit: int = 1000

    def __post_init__(self):
        if self.target_p99 <= 0:
            raise ValueError(
                f"target p99 must be positive, got {self.target_p99}")
        if self.interval <= 0:
            raise ValueError(
                f"control interval must be positive, got {self.interval}")
        if self.min_k < 1:
            raise ValueError(f"min_k must be >= 1, got {self.min_k}")
        if not 0.0 < self.backoff < 1.0:
            raise ValueError(
                f"backoff must be in (0, 1), got {self.backoff}")

    def describe(self):
        """Stable identity dict (enters the run fingerprint)."""
        return asdict(self)


class AdaptiveConcurrencyController:
    """Feedback control of the admission level K against a p99 target.

    The driver feeds every completion's response time into
    :meth:`observe`; :meth:`tick` runs once per control interval from a
    simulation process.  All state is a pure function of the simulated
    history, so replays (checkpoint resume, streaming vs retained)
    reproduce every K change and shed decision exactly.  :meth:`state`
    serialises the controller for the run checkpoint.
    """

    __slots__ = ("config", "queue", "k", "max_k", "intervals", "observed",
                 "shed_total", "k_min_seen", "k_max_seen", "k_changes",
                 "last_p99", "_interval_sketch", "_idle_intervals",
                 "_last_completed")

    def __init__(self, config, queue, max_k):
        self.config = config
        self.queue = queue
        self.k = queue.capacity
        self.intervals = 0
        self.observed = 0
        self.shed_total = 0
        self.k_min_seen = self.k
        self.k_max_seen = self.k
        self.k_changes = 0
        self.last_p99 = None
        self._interval_sketch = QuantileSketch()
        self._idle_intervals = 0
        self._last_completed = 0
        # Resolved bound (config.max_k == 0 defers to the driver's default).
        self.max_k = max_k

    def observe(self, response_time):
        """Fold one completed session's response time into the interval."""
        self._interval_sketch.add(response_time)
        self.observed += 1

    def tick(self, now):
        """One control interval: act on the interval's p99, then reset it."""
        config = self.config
        sketch = self._interval_sketch
        completed = sketch.count
        p99 = None
        if completed >= config.min_samples:
            p99 = sketch.quantile(0.99)
            new_k = self.k
            if p99 > config.target_p99:
                new_k = max(config.min_k, int(self.k * config.backoff))
            elif p99 <= config.headroom * config.target_p99:
                new_k = min(self.max_k, self.k + config.increase)
            if new_k != self.k:
                self.k = new_k
                self.k_changes += 1
                self.k_min_seen = min(self.k_min_seen, new_k)
                self.k_max_seen = max(self.k_max_seen, new_k)
                self.queue.set_capacity(new_k)
        if config.shed:
            age = config.shed_age if config.shed_age > 0 else config.target_p99
            self.shed_total += self.queue.shed_older_than(age, now)
        self.last_p99 = p99
        self.intervals += 1
        if completed == 0 and self.observed == self._last_completed:
            self._idle_intervals += 1
        else:
            self._idle_intervals = 0
        self._last_completed = self.observed
        self._interval_sketch = QuantileSketch()

    @property
    def exhausted(self):
        """True when the idle limit says to stop ticking (wedged run)."""
        return self._idle_intervals >= self.config.idle_limit

    def state(self):
        """Serialisable snapshot (checkpointed; round-trips bit-identically)."""
        return {
            "k": self.k,
            "intervals": self.intervals,
            "observed": self.observed,
            "shed": self.shed_total,
            "k_changes": self.k_changes,
            "k_min_seen": self.k_min_seen,
            "k_max_seen": self.k_max_seen,
            "last_p99": self.last_p99,
            "target_p99": self.config.target_p99,
        }
