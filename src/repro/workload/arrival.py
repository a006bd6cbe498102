"""Arrival processes for the service-style workload driver.

Two families, matching the two standard ways of loading a server:

* **closed loop** — a fixed population of clients, each issuing its next
  collective as soon as the previous one completes (plus an optional think
  time).  Offered load adapts to service capacity; this is the model behind
  the paper's single-collective experiments (population 1, no think time).
* **open loop (Poisson)** — requests arrive at fixed stochastic times drawn
  from an exponential interarrival distribution, regardless of how the server
  keeps up.  This is the request-stream model of trace-driven disk studies
  and lets throughput/latency be plotted against *offered* load.

Determinism: every random draw for request *i* of a trial comes from
:func:`request_rng`, a generator derived purely from ``(trial_seed, i)``.
Nothing depends on the order requests are planned, admitted or completed, so
serial and parallel sweeps (and any interleaving of concurrent collectives)
see bit-identical workloads.  The hot paths draw through
:class:`RequestStreams`, which hands out generators in exactly
:func:`request_rng`'s starting state without building one per request.
"""

import numpy as np

#: Domain separator so workload streams never collide with the machine's
#: layout/rotation streams even when they share a trial seed.
REQUEST_STREAM_TAG = 359_245

#: Purpose tags: each consumer of a request's randomness gets its own
#: independent stream, so adding or reordering draws in one consumer can
#: never silently change another's values.
PURPOSE_ARRIVAL = 1
PURPOSE_PLAN = 2
PURPOSE_QOS = 3

_EXPONENTIAL_FLOOR = 1e-12


def request_rng(trial_seed, request_index, purpose=PURPOSE_PLAN):
    """A generator that is a pure function of ``(trial_seed, request_index, purpose)``.

    Used for everything stochastic about one request: its interarrival gap
    (``PURPOSE_ARRIVAL``) and its target file / read-write coin / pattern
    choice (``PURPOSE_PLAN``), each from an independent stream.  Deriving per
    request (rather than drawing from one sequential stream) is what keeps
    parallel sweeps bit-identical to serial ones: no draw can be perturbed by
    the order in which other requests are processed.
    """
    return np.random.default_rng(np.random.SeedSequence(
        [REQUEST_STREAM_TAG, trial_seed, request_index, purpose]))


_MASK32 = 0xFFFF_FFFF
_U32 = np.uint32


def _hash_constants(init, multiplier, count):
    """The running hash constant of numpy's ``SeedSequence``, as a column."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * multiplier & _MASK32)
    return np.array(constants, dtype=np.uint32)[:, None]


# numpy's SeedSequence constants (``numpy/random/bit_generator.pyx``): the
# hash that mixes entropy into the pool, the mix of two pool words, and the
# hash that expands the pool into output words.
_MIX_CONSTANTS = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_MIX_MULT_L = _U32(0xCA01F9DD)
_MIX_MULT_R = _U32(0x4973F715)
_OUTPUT_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = 2 ** 64 - 1
_MASK128 = 2 ** 128 - 1


def _hash(values, hash_in, hash_out):
    """SeedSequence's ``hashmix`` (one row of *values* per constant pair)."""
    values = (values ^ hash_in) * hash_out
    return values ^ (values >> _U32(16))


def request_states(trial_seed, first_index, count, purpose=PURPOSE_PLAN):
    """PCG64 states of :func:`request_rng` for *count* consecutive indices.

    Row *k* is ``(state_hi, state_lo, inc_hi, inc_lo)`` (uint64) of the
    generator ``request_rng(trial_seed, first_index + k, purpose)`` starts
    in.  It reproduces ``SeedSequence`` entropy mixing in numpy uint32
    arithmetic over all indices at once, then PCG64's seeding per index.
    That only holds while the seed and every index fit one 32-bit word
    (each is then one entropy word); callers fall back to
    :func:`request_rng` otherwise.
    """
    pool = np.empty((4, count), dtype=np.uint32)
    pool[0] = REQUEST_STREAM_TAG
    pool[1] = trial_seed
    pool[2] = np.arange(first_index, first_index + count, dtype=np.uint32)
    pool[3] = purpose
    # SeedSequence.mix_entropy: hash each word into the pool, then mix every
    # pool word into every other one; the hash constant advances per call.
    mix = _MIX_CONSTANTS
    pool = _hash(pool, mix[0:4], mix[1:5])
    call = 4
    for source in range(4):
        targets = [target for target in range(4) if target != source]
        hashed = _hash(pool[source], mix[call:call + 3],
                       mix[call + 1:call + 4])
        call += 3
        mixed = _MIX_MULT_L * pool[targets] - _MIX_MULT_R * hashed
        pool[targets] = mixed ^ (mixed >> _U32(16))
    # SeedSequence.generate_state(4, uint64): eight words cycled from the
    # pool, paired little-endian into (seed_hi, seed_lo, inc_hi, inc_lo).
    out = _OUTPUT_CONSTANTS
    words = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], out[:8], out[1:9]) \
        .astype(np.uint64)
    seeds = words[0::2] | words[1::2] << 32
    # PCG64 seeding (128-bit, so in Python integers): inc = seed_inc << 1 | 1,
    # then two LCG steps from state 0 with the seed added in between.
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in seeds.T.tolist():
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = (((seed_hi << 64 | seed_lo) + inc) * _PCG64_MULTIPLIER
                 + inc) & _MASK128
        states.append((state >> 64, state & _MASK64, inc >> 64, inc & _MASK64))
    return np.array(states, dtype=np.uint64)


#: Request indices whose generator states :class:`RequestStreams` derives
#: together (aligned to multiples of this).  A derivation has a fixed cost
#: however few indices it covers; a larger chunk also holds more states and
#: temporaries, which shows in the peak memory of short streams.
_STATE_CHUNK = 32
_NO_CHUNK = (None, None, 0, None)


class RequestStreams:
    """:func:`request_rng` for one run's requests, positioned, not built.

    ``rng(trial_seed, i, purpose)`` returns a generator in exactly the state
    ``request_rng(trial_seed, i, purpose)`` starts in.  It is one reused
    generator per purpose, positioned through ``bit_generator.state`` from
    the states of the aligned chunk of 32 indices holding *i*, derived at
    once by :func:`request_states`; so the returned generator is valid only
    until the next call for the same purpose.  An index behind the cached
    chunk (a closed-loop client overtaken near a chunk boundary), and any
    seed or index wider than one 32-bit word, falls back to
    :func:`request_rng` itself.
    """

    __slots__ = ("_cached",)

    def __init__(self):
        #: purpose -> (generator, trial seed, first index, states)
        self._cached = {}

    def rng(self, trial_seed, request_index, purpose=PURPOSE_PLAN):
        generator, seed, first, states = self._cached.get(purpose, _NO_CHUNK)
        if seed != trial_seed \
                or not first <= request_index < first + _STATE_CHUNK:
            if not (0 <= trial_seed <= _MASK32
                    and 0 <= request_index <= _MASK32) \
                    or (seed == trial_seed and request_index < first):
                return request_rng(trial_seed, request_index, purpose)
            if generator is None:
                generator = np.random.Generator(np.random.PCG64(0))
            first = request_index - request_index % _STATE_CHUNK
            states = request_states(trial_seed, first, _STATE_CHUNK, purpose)
            self._cached[purpose] = (generator, trial_seed, first, states)
        state_hi, state_lo, inc_hi, inc_lo = \
            states[request_index - first].tolist()
        generator.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo,
                      "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return generator


def session_qos(trial_seed, request_index, priority_levels=1,
                deadline_slack=0.0, streams=None):
    """The QoS stamp of request *request_index*: ``(priority, slack)``.

    *priority* is a static class in ``[0, priority_levels)`` (0 most urgent),
    drawn uniformly; *slack* is the session's deadline budget in seconds
    after arrival (its absolute deadline is ``arrival_time + slack``), drawn
    uniformly from ``[0.5, 1.5] * deadline_slack`` so earliest-deadline order
    differs from arrival order.  ``None`` slack means no deadline.

    Both draws come from the dedicated ``PURPOSE_QOS`` stream of
    :func:`request_rng` — deterministic per ``(trial_seed, request_index)``
    and independent of the arrival and plan streams, so stamping QoS never
    perturbs interarrival gaps or request plans.  The default stamp
    (one class, no deadline) makes **no** draws at all: workloads that do not
    opt in are bit-identical to pre-admission builds.  A run passes its
    :class:`RequestStreams` as *streams*, so the draws reuse its cached
    generator states.
    """
    if priority_levels < 1:
        raise ValueError(
            f"need at least one priority level, got {priority_levels}")
    if deadline_slack < 0:
        raise ValueError(
            f"deadline slack must be >= 0, got {deadline_slack}")
    priority = 0
    slack = None
    if priority_levels > 1 or deadline_slack > 0:
        if streams is None:
            streams = RequestStreams()
        rng = streams.rng(trial_seed, request_index, PURPOSE_QOS)
        if priority_levels > 1:
            priority = int(rng.integers(priority_levels))
        if deadline_slack > 0:
            slack = float(deadline_slack * rng.uniform(0.5, 1.5))
    return priority, slack


class ArrivalProcess:
    """Base class: when does request *i* enter the system?"""

    name = "abstract"

    #: True when arrivals are completion-driven (closed loop) rather than
    #: scheduled at absolute times (open loop).
    closed_loop = False

    def describe(self):
        return self.name


class PoissonArrivals(ArrivalProcess):
    """Open-loop arrivals: exponential interarrival gaps at *rate* req/s."""

    name = "poisson"
    closed_loop = False

    def __init__(self, rate):
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        self.rate = rate
        self._streams = RequestStreams()

    def interarrival(self, trial_seed, request_index):
        """Gap between request *request_index - 1* and *request_index*."""
        rng = self._streams.rng(trial_seed, request_index, PURPOSE_ARRIVAL)
        draw = rng.exponential(1.0 / self.rate)
        return max(float(draw), _EXPONENTIAL_FLOOR)

    def arrival_times(self, n_requests, trial_seed):
        """Absolute arrival time of every request (cumulative gaps)."""
        times = []
        clock = 0.0
        for index in range(n_requests):
            clock += self.interarrival(trial_seed, index)
            times.append(clock)
        return times

    def describe(self):
        return f"poisson({self.rate:g}/s)"


class ClosedLoopArrivals(ArrivalProcess):
    """Closed-loop arrivals: each client reissues after completion + think time.

    ``think_time`` is the mean pause between a client's completion and its
    next request; with ``exponential_think=True`` the pause is drawn per
    request from an exponential distribution (via :func:`request_rng`),
    otherwise it is constant.
    """

    name = "closed"
    closed_loop = True

    def __init__(self, think_time=0.0, exponential_think=False):
        if think_time < 0:
            raise ValueError(f"think time must be >= 0, got {think_time}")
        self.think_time = think_time
        self.exponential_think = exponential_think
        self._streams = RequestStreams()

    def think_time_for(self, trial_seed, request_index):
        """Pause before request *request_index* is issued by its client."""
        if self.think_time == 0.0:
            return 0.0
        if not self.exponential_think:
            return self.think_time
        rng = self._streams.rng(trial_seed, request_index, PURPOSE_ARRIVAL)
        draw = rng.exponential(self.think_time)
        return max(float(draw), _EXPONENTIAL_FLOOR)

    def describe(self):
        kind = "exp" if self.exponential_think else "fixed"
        return f"closed(think={self.think_time:g}s {kind})"


def make_arrival(spec, arrival_rate=50.0, think_time=0.0, exponential_think=False):
    """Factory: ``"closed"`` or ``"poisson"`` (alias ``"open"``)."""
    key = spec.lower()
    if key in ("closed", "closed-loop"):
        return ClosedLoopArrivals(think_time=think_time,
                                  exponential_think=exponential_think)
    if key in ("poisson", "open", "open-loop"):
        return PoissonArrivals(rate=arrival_rate)
    raise ValueError(f"unknown arrival process {spec!r}; "
                     f"choose 'closed' or 'poisson'")
