"""The simulation environment: virtual clock plus a two-tier event calendar.

The calendar has two tiers:

* a FIFO **ring** (`collections.deque`) holding events scheduled *at the
  current instant* with NORMAL priority — the ``Event.succeed()`` /
  ``fail()`` / message-delivery path, which is the large majority of all
  scheduling in a protocol simulation.  Ring entries are appended in eid
  order and the clock never moves backwards, so the ring is always sorted
  by ``(time, key)`` without any heap discipline: O(1) push, O(1) pop.
* the classic binary **heap** for everything else (future timeouts, urgent
  events, explicit ``schedule()`` calls).

Entries in both tiers are ``(time, key, event)`` 3-tuples where *key* folds
the old ``(priority, eid)`` pair into a single integer (see
:func:`_priority_key`), so a pop is one tuple comparison between the two
heads.  Pops interleave the tiers in exact ``(time, priority, eid)`` order,
which makes the two-tier calendar observationally identical to the previous
single-heap implementation — ``tests/sim/test_calendar.py`` property-tests
the equivalence against a reference heap.

The run loops are deliberately flat: popping an event, advancing the clock
and running the callbacks happens inline (rather than through :meth:`step`)
so the per-event cost is a handful of bytecodes.  :meth:`step` remains the
one-event reference implementation for tests and debugging; the inlined
bodies must stay in sync with it.
"""

import time
import weakref
from collections import deque
from heapq import heappop, heappush

from repro.sim.errors import DeadlockError, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process

#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for "urgent" events (processed before normal ones at equal time).
URGENT = 0

#: Key-space stride separating one priority level from the next.  Event ids
#: are allocated sequentially and would need ~146 years at a billion events
#: per second to reach it, so ``(priority - NORMAL) * _PRIORITY_STRIDE + eid``
#: orders exactly like the old ``(priority, eid)`` pair while fitting in one
#: integer: URGENT keys are negative, NORMAL keys are the bare eid.
_PRIORITY_STRIDE = 1 << 62


class Environment:
    """Holds the simulation clock and the pending-event calendar.

    All model objects (disks, busses, NICs, caches, processes) are created
    against a single :class:`Environment`; calling :meth:`run` advances the
    virtual clock by popping events in time order and resuming the processes
    waiting on them.
    """

    __slots__ = ("_now", "_heap", "_ring", "_eid", "_active_process",
                 "_processes")

    def __init__(self, initial_time=0.0):
        self._now = float(initial_time)
        self._heap = []
        self._ring = deque()
        self._eid = 0
        self._active_process = None
        self._processes = weakref.WeakSet()

    # -- clock ---------------------------------------------------------------
    @property
    def now(self):
        """Current simulated time, in seconds."""
        return self._now

    @property
    def active_process(self):
        """The process currently being resumed (None outside callbacks)."""
        return self._active_process

    # -- event construction helpers ------------------------------------------
    def event(self):
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create an event that fires after *delay* seconds of simulated time."""
        return Timeout(self, delay, value)

    def event_at(self, when):
        """A pre-succeeded event processed at the absolute instant *when*.

        Like ``timeout(when - now)``, except the target time is taken
        verbatim: ``now + (when - now)`` does not always round back to
        ``when`` in floating point.  Delay fusion in the device models uses
        this to land a single fused timeout on exactly the instant the
        unfused sequence of timeouts would have reached.
        """
        if when < self._now:
            raise ValueError(f"event_at({when!r}) is in the past (now={self._now})")
        event = Event(self)
        event._ok = True
        event._value = None
        self._schedule_at(when, event)
        return event

    def process(self, generator):
        """Start a new :class:`Process` running *generator*."""
        return Process(self, generator)

    def all_of(self, events):
        """Composite event succeeding when every event in *events* succeeds."""
        return AllOf(self, events)

    def any_of(self, events):
        """Composite event succeeding when the first event in *events* succeeds."""
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------------
    def schedule(self, event, delay=0.0, priority=NORMAL):
        """Insert *event* into the calendar, to be processed after *delay*.

        *priority* must be an integer; lower values are processed first among
        events at the same time (the kernel uses :data:`URGENT` and
        :data:`NORMAL`).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        eid = self._eid
        self._eid = eid + 1
        when = self._now + delay
        if priority == NORMAL:
            if when == self._now:
                self._ring.append((when, eid, event))
                return
            key = eid
        else:
            key = (priority - NORMAL) * _PRIORITY_STRIDE + eid
        heappush(self._heap, (when, key, event))

    def _schedule_now(self, event):
        """Fast path used by ``Event.succeed``/``fail``: straight to the ring."""
        eid = self._eid
        self._eid = eid + 1
        self._ring.append((self._now, eid, event))

    def _schedule_at(self, when, event):
        """Fast path used by ``Timeout``: the delay was already validated."""
        eid = self._eid
        self._eid = eid + 1
        if when == self._now:
            self._ring.append((when, eid, event))
        else:
            heappush(self._heap, (when, eid, event))

    def peek(self):
        """Time of the next scheduled event, or ``inf`` if the calendar is empty."""
        if self._ring:
            # Ring entries are at the current instant: nothing can precede them.
            return self._ring[0][0]
        if not self._heap:
            return float("inf")
        return self._heap[0][0]

    def _pop(self):
        """Remove and return the next ``(time, key, event)`` entry in order.

        Key ordering is total across the two tiers (keys embed the unique
        eid), so one tuple comparison between the heads decides the pop.
        """
        ring = self._ring
        if ring:
            if not self._heap or ring[0] < self._heap[0]:
                return ring.popleft()
            return heappop(self._heap)
        if not self._heap:
            raise SimulationError("pop from an empty event calendar")
        return heappop(self._heap)

    def step(self):
        """Process exactly one event (advancing the clock to its time)."""
        if not self._ring and not self._heap:
            raise SimulationError("step() on an empty event queue")
        when, _key, event = self._pop()
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An event failed and nobody was waiting to handle the failure:
            # surface the original exception rather than losing it.
            raise event._value

    def close(self):
        """End the simulation for good: close every live process, drop the calendar.

        Each live process is detached from the event it waits on and its
        generator closed (its ``finally`` blocks run); a process started by
        one of those blocks is closed in turn.  Then both calendar tiers
        are emptied, and every event they held is marked processed without
        running its callbacks.  Afterwards no process waits on anything and
        the calendar is empty, so a finished model whose objects park only
        on events is freed by reference counting alone.  Call it outside
        :meth:`run`; an environment with nothing live or pending is left
        unchanged.
        """
        if self._active_process is not None:
            raise SimulationError("close() called from inside a process")
        while True:
            live = [process for process in self._processes
                    if process.is_alive]
            if not live:
                break
            for process in live:
                process._close()
        for tier in (self._ring, self._heap):
            for _when, _key, event in tier:
                event.callbacks = None
            tier.clear()

    def _deadlock(self, reason):
        """Build a :class:`DeadlockError` naming the still-alive processes.

        Processes register weakly at construction, so the diagnosis can list
        who is stuck and what each one is waiting on — turning "the run just
        stopped" into an actionable traceback.  Names are sorted for stable
        messages (WeakSet iteration order is arbitrary).
        """
        stuck = sorted(
            (process for process in self._processes if process.is_alive),
            key=lambda process: process.name)
        lines = [f"{reason} [t={self._now:.6g}]"]
        if stuck:
            lines.append(f"{len(stuck)} process(es) still alive:")
            for process in stuck[:20]:
                target = process._waiting_on
                waiting = f"waiting on {target!r}" if target is not None \
                    else "not waiting on any event"
                lines.append(f"  - {process.name}: {waiting}")
            if len(stuck) > 20:
                lines.append(f"  ... and {len(stuck) - 20} more")
        else:
            lines.append("no registered processes are alive (the awaited "
                         "event has no producer)")
        return DeadlockError("\n".join(lines))

    def run(self, until=None, watchdog=None):
        """Run until the calendar empties, *until* time passes, or *until* fires.

        ``until`` may be ``None`` (run to exhaustion), a number (absolute
        simulated time), or an :class:`Event` (run until it is processed and
        return its value).

        ``watchdog``, if given, is a wall-clock budget in seconds: if that
        much real time passes without simulated time advancing (events firing
        forever at one instant, or a callback spinning), the run raises
        :class:`DeadlockError` naming the stuck processes instead of hanging.
        The watched loop is generic (not inlined), so leave ``watchdog=None``
        on hot paths.
        """
        if watchdog is not None:
            return self._run_watched(until, watchdog)
        heap = self._heap
        ring = self._ring
        ring_popleft = ring.popleft

        if until is None:
            while ring or heap:
                if ring and (not heap or ring[0] < heap[0]):
                    when, _key, event = ring_popleft()
                else:
                    when, _key, event = heappop(heap)
                self._now = when
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            return None

        if isinstance(until, Event):
            sentinel = until
            while sentinel.callbacks is not None:
                if ring and (not heap or ring[0] < heap[0]):
                    when, _key, event = ring_popleft()
                elif heap:
                    when, _key, event = heappop(heap)
                else:
                    raise self._deadlock(
                        "simulation ran out of events before the awaited event "
                        "fired (a process is waiting on something that never "
                        "happens)")
                self._now = when
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            if sentinel._ok:
                return sentinel._value
            raise sentinel._value

        stop_at = float(until)
        if stop_at < self._now:
            raise ValueError(f"until={stop_at} is in the past (now={self._now})")
        while True:
            if ring and (not heap or ring[0] < heap[0]):
                if ring[0][0] > stop_at:
                    break
                when, _key, event = ring_popleft()
            elif heap:
                if heap[0][0] > stop_at:
                    break
                when, _key, event = heappop(heap)
            else:
                break
            self._now = when
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
        self._now = stop_at
        return None

    #: Events between watchdog wall-clock checks.  Large enough that the
    #: ``time.monotonic`` call is noise, small enough that a livelock is
    #: caught within a fraction of the budget.
    _WATCHDOG_STRIDE = 4096

    def _run_watched(self, until, watchdog):
        """The watchdog-instrumented run loop (reference-style, not inlined).

        Semantics match :meth:`run` for every ``until`` mode, with two extra
        failure conversions: an empty calendar below the sentinel raises the
        same diagnosed :class:`DeadlockError` as the fast loop, and a stall —
        *watchdog* wall-seconds elapsing while ``now`` stays put — raises one
        too instead of spinning forever.
        """
        if watchdog <= 0:
            raise ValueError(f"watchdog budget must be positive, got {watchdog!r}")
        sentinel = until if isinstance(until, Event) else None
        stop_at = None
        if until is not None and sentinel is None:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(f"until={stop_at} is in the past (now={self._now})")
        countdown = self._WATCHDOG_STRIDE
        last_advance_wall = time.monotonic()
        last_advance_sim = self._now
        while True:
            if sentinel is not None and sentinel.callbacks is None:
                if sentinel._ok:
                    return sentinel._value
                raise sentinel._value
            if not self._ring and not self._heap:
                if sentinel is not None:
                    raise self._deadlock(
                        "simulation ran out of events before the awaited event "
                        "fired (a process is waiting on something that never "
                        "happens)")
                if stop_at is not None:
                    self._now = stop_at
                return None
            if stop_at is not None and self.peek() > stop_at:
                self._now = stop_at
                return None
            self.step()
            countdown -= 1
            if countdown <= 0:
                countdown = self._WATCHDOG_STRIDE
                if self._now > last_advance_sim:
                    last_advance_sim = self._now
                    last_advance_wall = time.monotonic()
                elif time.monotonic() - last_advance_wall > watchdog:
                    raise self._deadlock(
                        f"watchdog expired: {watchdog:g}s of wall time passed "
                        f"without simulated time advancing (livelock at one "
                        f"instant, or a stalled callback)")
