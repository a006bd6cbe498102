"""Chaos suite: random fault schedules never break the accounting.

Hypothesis composes a fault scenario (transient errors, latent bad ranges,
a fail-slow episode, a fail-stop, whole-drive silent corruption), crosses
it with the redundancy axis and the client fault policy, and runs a small
service trial.  Two invariants must hold under *any* schedule:

* byte conservation — every requested byte is delivered, explicitly failed,
  or shed: ``conserves_bytes()`` is true;
* watchdog-free completion — the trial finishes (a stuck simulation raises
  ``DeadlockError`` out of the driver's fault watchdog and fails the test).
  ``on_fault="abort"`` may instead terminate with its documented
  :class:`~repro.disk.faults.FaultAbort` — a clean abort, never a hang.

Additionally, when parity faces a *pure* fail-stop (its design case), zero
bytes may fail or be lost regardless of the client policy.

Uses hypothesis when installed; otherwise a fixed seed spread keeps the
suite meaningful in minimal CI images (same fallback as
``tests/workload/test_properties.py``).
"""

import random

import pytest

from repro.disk.faults import FaultAbort
from repro.experiments import run_service_experiment, service_config

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised in minimal CI images
    HAVE_HYPOTHESIS = False

KILOBYTE = 1024

#: Tiny machine: 4 drives (parity minimum is 3) and short streams so one
#: chaos example costs tens of milliseconds.
BASE = dict(n_cps=2, n_iops=2, n_disks=4, n_requests=4, n_files=2,
            file_size=64 * KILOBYTE, layout="contiguous", concurrency=2,
            arrival="poisson", arrival_rate=200.0)

METHODS = ("disk-directed", "traditional")
POLICIES = ("retry", "degrade", "abort")
REDUNDANCY = ("none", "parity")


def run_chaos_trial(method, redundancy, on_fault, transient, bad_ranges,
                    fail_stop_disk, fail_stop_time, silent, checksums, seed):
    config = service_config(
        method=method,
        redundancy=redundancy,
        rebuild_bandwidth=8.0 * 1024 * 1024,
        checksums=checksums,
        on_fault=on_fault,
        transient_rate=transient,
        bad_range_count=bad_ranges,
        fail_stop_disk=fail_stop_disk,
        fail_stop_time=fail_stop_time,
        silent_range_count=1 if silent else 0,
        silent_range_sectors=10 ** 9,
        seed=seed,
        **BASE,
    )
    # Completing at all proves watchdog-free completion: a stuck simulation
    # raises DeadlockError out of the driver's fault watchdog.  An abort
    # policy may end the run with its documented FaultAbort instead — a
    # clean termination, not a hang — in which case there is no result to
    # check conservation on.
    try:
        result = run_service_experiment(config)
    except FaultAbort:
        assert on_fault == "abort"
        return None
    assert result.conserves_bytes(), (
        f"conservation violated: {method} {redundancy} {on_fault} "
        f"transient={transient} bad={bad_ranges} stop={fail_stop_disk}"
        f"@{fail_stop_time} silent={silent} chk={checksums} seed={seed}")
    pure_fail_stop = (fail_stop_disk >= 0 and transient == 0.0
                      and bad_ranges == 0 and not silent)
    if redundancy == "parity" and pure_fail_stop:
        assert result.failed_bytes == 0, "parity lost data under fail-stop"
        assert result.lost_bytes == 0
    return result


if HAVE_HYPOTHESIS:
    @settings(max_examples=25, deadline=None)
    @given(
        method=st.sampled_from(METHODS),
        redundancy=st.sampled_from(REDUNDANCY),
        on_fault=st.sampled_from(POLICIES),
        transient=st.sampled_from((0.0, 0.05, 0.2)),
        bad_ranges=st.integers(min_value=0, max_value=2),
        fail_stop=st.one_of(
            st.none(),
            st.tuples(st.integers(min_value=0, max_value=3),
                      st.sampled_from((0.0, 0.01, 0.05)))),
        silent=st.booleans(),
        checksums=st.booleans(),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_chaos_schedules_conserve_bytes_and_complete(
            method, redundancy, on_fault, transient, bad_ranges, fail_stop,
            silent, checksums, seed):
        fail_stop_disk, fail_stop_time = fail_stop if fail_stop else (-1, 0.0)
        run_chaos_trial(method, redundancy, on_fault, transient, bad_ranges,
                        fail_stop_disk, fail_stop_time, silent, checksums,
                        seed)
else:  # pragma: no cover - exercised in minimal CI images
    @pytest.mark.parametrize("spin", range(12))
    def test_chaos_schedules_conserve_bytes_and_complete(spin):
        rng = random.Random(1000 + spin)
        fail_stop = rng.choice([None, (rng.randrange(4),
                                       rng.choice((0.0, 0.01, 0.05)))])
        fail_stop_disk, fail_stop_time = fail_stop if fail_stop else (-1, 0.0)
        run_chaos_trial(
            rng.choice(METHODS), rng.choice(REDUNDANCY),
            rng.choice(POLICIES), rng.choice((0.0, 0.05, 0.2)),
            rng.randrange(3), fail_stop_disk, fail_stop_time,
            rng.random() < 0.5, rng.random() < 0.5, rng.randrange(6))


def test_parity_failstop_is_lossless_for_every_policy():
    """The design case, pinned deterministically for all three policies."""
    for on_fault in POLICIES:
        result = run_chaos_trial(
            "disk-directed", "parity", on_fault, 0.0, 0, 0, 0.01,
            False, False, 3)
        assert result.aggregates.get("reconstructed_bytes", 0) > 0
