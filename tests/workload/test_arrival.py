"""Tests for arrival processes: determinism, per-(seed, index) derivation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.arrival import (
    PURPOSE_ARRIVAL,
    PURPOSE_PLAN,
    PURPOSE_QOS,
    ClosedLoopArrivals,
    PoissonArrivals,
    RequestStreams,
    make_arrival,
    request_rng,
    request_states,
    session_qos,
)


class TestRequestRng:
    def test_pure_function_of_seed_and_index(self):
        first = request_rng(7, 3).random()
        again = request_rng(7, 3).random()
        assert first == again

    def test_independent_of_draw_order(self):
        # Drawing index 5 before index 0 must not change either stream: this
        # is the property that keeps parallel sweeps bit-identical to serial.
        late_first = request_rng(7, 5).random()
        early = request_rng(7, 0).random()
        late_again = request_rng(7, 5).random()
        assert late_first == late_again
        assert early != late_first

    def test_seed_and_index_both_matter(self):
        assert request_rng(1, 0).random() != request_rng(2, 0).random()
        assert request_rng(1, 0).random() != request_rng(1, 1).random()

    def test_pinned_values(self):
        # Pin the derivation: a refactor that silently changes how per-request
        # seeds are derived must fail here, because it would invalidate every
        # cached service result without a schema bump.
        draws = [round(request_rng(0, index).random(), 12) for index in range(3)]
        assert draws == [0.247866117633, 0.084262043696, 0.21298393996]

    def test_purposes_are_independent_streams(self):
        # The arrival gap and the request plan draw from different streams:
        # adding a draw to one consumer can never perturb the other.
        from repro.workload.arrival import PURPOSE_ARRIVAL, PURPOSE_PLAN
        arrival_draw = request_rng(3, 0, purpose=PURPOSE_ARRIVAL).random()
        plan_draw = request_rng(3, 0, purpose=PURPOSE_PLAN).random()
        assert arrival_draw != plan_draw
        assert request_rng(3, 0).random() == plan_draw  # plan is the default


class TestPoissonArrivals:
    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0)

    def test_times_are_strictly_increasing(self):
        times = PoissonArrivals(100.0).arrival_times(20, trial_seed=1)
        assert all(later > earlier for earlier, later in zip(times, times[1:]))
        assert times[0] > 0

    def test_deterministic_under_fixed_seed(self):
        process = PoissonArrivals(50.0)
        assert process.arrival_times(10, trial_seed=4) == \
            process.arrival_times(10, trial_seed=4)
        assert process.arrival_times(10, trial_seed=4) != \
            process.arrival_times(10, trial_seed=5)

    def test_gap_depends_only_on_seed_and_index(self):
        # The 7th gap is the same whether or not the first 6 were computed.
        process = PoissonArrivals(50.0)
        alone = process.interarrival(9, 7)
        within = process.arrival_times(8, trial_seed=9)
        assert within[7] - within[6] == pytest.approx(alone)

    def test_mean_gap_tracks_rate(self):
        times = PoissonArrivals(200.0).arrival_times(400, trial_seed=0)
        mean_gap = times[-1] / len(times)
        assert 0.5 / 200.0 < mean_gap < 2.0 / 200.0

    def test_describe_names_rate(self):
        assert "poisson" in PoissonArrivals(8.0).describe()


class TestClosedLoopArrivals:
    def test_negative_think_rejected(self):
        with pytest.raises(ValueError):
            ClosedLoopArrivals(think_time=-1.0)

    def test_zero_think_is_free(self):
        assert ClosedLoopArrivals().think_time_for(0, 0) == 0.0

    def test_fixed_think_is_constant(self):
        process = ClosedLoopArrivals(think_time=0.25)
        assert [process.think_time_for(3, index) for index in range(4)] == \
            [0.25] * 4

    def test_exponential_think_is_deterministic_per_index(self):
        process = ClosedLoopArrivals(think_time=0.1, exponential_think=True)
        draws = [process.think_time_for(3, index) for index in range(4)]
        assert draws == [process.think_time_for(3, index) for index in range(4)]
        assert len(set(draws)) > 1
        assert all(draw > 0 for draw in draws)


class TestFactory:
    def test_aliases(self):
        assert make_arrival("closed").closed_loop
        assert make_arrival("closed-loop").closed_loop
        assert not make_arrival("poisson").closed_loop
        assert not make_arrival("open").closed_loop

    def test_parameters_forwarded(self):
        poisson = make_arrival("poisson", arrival_rate=12.5)
        assert poisson.rate == 12.5
        closed = make_arrival("closed", think_time=0.5, exponential_think=True)
        assert closed.think_time == 0.5
        assert closed.exponential_think

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_arrival("bursty")


class TestRequestStreams:
    """The chunk-derived request streams are :func:`request_rng`, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(trial_seed=st.integers(0, 2 ** 32 - 1),
           index=st.integers(0, 2 ** 32 + 7),
           purpose=st.sampled_from([PURPOSE_ARRIVAL, PURPOSE_PLAN,
                                    PURPOSE_QOS]))
    def test_state_and_draws_match_request_rng(self, trial_seed, index,
                                               purpose):
        reference = request_rng(trial_seed, index, purpose)
        expected = reference.bit_generator.state
        if index < 2 ** 32:
            state_hi, state_lo, inc_hi, inc_lo = \
                request_states(trial_seed, index, 1, purpose)[0].tolist()
            assert expected["state"] == {"state": state_hi << 64 | state_lo,
                                         "inc": inc_hi << 64 | inc_lo}
        derived = RequestStreams().rng(trial_seed, index, purpose)
        assert derived.bit_generator.state == expected
        assert derived.exponential(0.02) == reference.exponential(0.02)
        assert derived.integers(7) == reference.integers(7)
        assert derived.random() == reference.random()

    def test_reused_generator_matches_any_access_order(self):
        streams = RequestStreams()
        # Forward, backward over a chunk boundary, far jumps, a new seed and
        # a draw that leaves a buffered 32-bit half behind each time.
        for trial_seed, index in [(4, 0), (4, 1), (4, 127), (4, 128),
                                  (4, 126), (4, 129), (4, 5000), (4, 3),
                                  (9, 3), (9, 2 ** 32 - 1), (9, 2 ** 32)]:
            for purpose in (PURPOSE_PLAN, PURPOSE_ARRIVAL):
                derived = streams.rng(trial_seed, index, purpose)
                reference = request_rng(trial_seed, index, purpose)
                assert derived.integers(9, dtype=np.uint8) == \
                    reference.integers(9, dtype=np.uint8)
                assert derived.random() == reference.random()

    def test_chunk_states_are_one_state_per_index(self):
        states = request_states(11, 256, 128, PURPOSE_QOS)
        assert states.shape == (128, 4)
        assert states.dtype == np.uint64
        for offset in (0, 77, 127):
            state = request_rng(11, 256 + offset, PURPOSE_QOS) \
                .bit_generator.state["state"]
            assert states[offset].tolist() == [
                state["state"] >> 64, state["state"] & (2 ** 64 - 1),
                state["inc"] >> 64, state["inc"] & (2 ** 64 - 1)]

    def test_session_qos_draws_from_the_qos_stream(self):
        streams = RequestStreams()
        for index in range(0, 300, 7):
            reference = request_rng(5, index, PURPOSE_QOS)
            expected = (int(reference.integers(4)),
                        float(0.5 * reference.uniform(0.5, 1.5)))
            assert session_qos(5, index, 4, 0.5, streams=streams) == expected
            assert session_qos(5, index, 4, 0.5) == expected
