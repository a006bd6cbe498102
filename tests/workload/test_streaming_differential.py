"""Differential pins: the fold-at-completion aggregates against the records.

Retained and streaming runs share one open loop (the spawn-window cursor)
and one admission path; ``retain_requests`` only decides whether the
per-request records are kept.  So the pins here check the fold against the
records: a streaming run's envelope must equal a retained run's, the folded
totals must re-derive from the retained records, and the sketch percentiles
must sit within their documented error bound of the exact sorted-list
percentiles of the records.  The matrix spans seed x arrival process x
fault config, because each axis changes completion *order* — the thing a
fold could accidentally depend on.  Over the same matrix, FIFO admission is
held to digests of the counting ``Resource`` it replaced, recorded before
that path was deleted.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.disk.faults import FaultConfig
from repro.machine import MachineConfig
from repro.workload import ServiceWorkload, run_service
from repro.workload.aggregate import relative_error_bound
from repro.workload.driver import percentile

KILOBYTE = 1024

SEEDS = (0, 3)

ARRIVALS = (
    {"arrival": "poisson", "arrival_rate": 60.0},
    {"arrival": "closed", "think_time": 0.01},
)

FAULTS = (
    ("healthy", None),
    ("transient", FaultConfig(transient_rate=0.05)),
    ("fail-slow", FaultConfig(slow_disk=0, slow_factor=4.0,
                              slow_start=0.0, slow_duration=3600.0)),
)


def tiny_workload(seed, **arrival_kwargs):
    return ServiceWorkload(n_requests=24, concurrency=3, n_files=4,
                           file_size=96 * KILOBYTE, layout="random",
                           read_fraction=0.7, pattern_specs=("b", "c"),
                           record_size=8192, seed=seed, **arrival_kwargs)


def run_pair(seed, arrival_kwargs, fault_config, method="disk-directed"):
    """The same trial twice: retained, then streaming."""
    results = []
    for retain in (True, False):
        workload = tiny_workload(seed, **arrival_kwargs)
        results.append(run_service(
            method, workload,
            machine_config=MachineConfig(n_cps=2, n_iops=2, n_disks=4),
            seed=seed, fault_config=fault_config,
            retain_requests=retain))
    return results


def envelope(result):
    """Everything except the per-request record list (streaming has none)."""
    data = dataclasses.asdict(result)
    data.pop("requests")
    return data


@pytest.mark.parametrize("fault_name,fault_config", FAULTS,
                         ids=[name for name, _ in FAULTS])
@pytest.mark.parametrize("arrival_kwargs", ARRIVALS,
                         ids=[spec["arrival"] for spec in ARRIVALS])
@pytest.mark.parametrize("seed", SEEDS)
class TestStreamingMatchesRetained:
    def test_envelope_bit_identical(self, seed, arrival_kwargs, fault_name,
                                    fault_config):
        retained, streaming = run_pair(seed, arrival_kwargs, fault_config)
        assert envelope(streaming) == envelope(retained)
        assert streaming.requests == []
        assert len(retained.requests) == retained.n_requests

    def test_conservation_counters_identical(self, seed, arrival_kwargs,
                                             fault_name, fault_config):
        retained, streaming = run_pair(seed, arrival_kwargs, fault_config)
        for result in (retained, streaming):
            assert result.conserves_bytes()
        assert streaming.aggregates == retained.aggregates
        assert streaming.counters == retained.counters
        # The fold totals agree with summing the retained records — the
        # aggregates really are the records, compressed.
        records = retained.requests
        assert retained.aggregates["bytes_requested"] == \
            sum(record["bytes_requested"] for record in records)
        assert retained.aggregates["bytes_moved"] == \
            sum(record["bytes_moved"] for record in records)
        assert retained.aggregates["bytes_failed"] == \
            sum(record["bytes_failed"] for record in records)
        assert retained.aggregates["retries"] == \
            sum(record["retries"] for record in records)

    def test_percentiles_within_sketch_bound(self, seed, arrival_kwargs,
                                             fault_name, fault_config):
        retained, streaming = run_pair(seed, arrival_kwargs, fault_config)
        exact_times = retained.response_times
        bound = relative_error_bound()
        for fraction in (0.0, 0.5, 0.9, 0.99, 1.0):
            exact = percentile(exact_times, fraction)
            estimate = streaming.response_percentile(fraction)
            assert abs(estimate - exact) <= bound * exact + 1e-12


class TestStreamingAcrossMethods:
    """The equivalence is a driver property, not a disk-directed one."""

    @pytest.mark.parametrize("method", ("disk-directed", "traditional"))
    def test_both_methods(self, method):
        retained, streaming = run_pair(
            1, {"arrival": "poisson", "arrival_rate": 60.0}, None,
            method=method)
        assert envelope(streaming) == envelope(retained)


#: Digests of the pre-admission-layer path (a FIFO counting ``Resource``),
#: recorded over the same seed x arrival x fault matrix before that path was
#: deleted.
RESOURCE_PIN_PATH = (Path(__file__).resolve().parents[1] / "data"
                     / "reference_path_digests.json")


def resource_pin(seed, arrival_kwargs, fault_name):
    with open(RESOURCE_PIN_PATH, encoding="utf-8") as handle:
        pins = json.load(handle)["resource_admission"]
    return pins[f"{seed}-{arrival_kwargs['arrival']}-{fault_name}"]


def canonical_digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fault_name,fault_config", FAULTS,
                         ids=[name for name, _ in FAULTS])
@pytest.mark.parametrize("arrival_kwargs", ARRIVALS,
                         ids=[spec["arrival"] for spec in ARRIVALS])
@pytest.mark.parametrize("seed", SEEDS)
class TestFIFOMatchesLegacyResource:
    """The admission layer's FIFO policy against the counting semaphore it
    replaced — full-result bit-identity, per-request records included, across
    the same seed x arrival x fault matrix (each axis shifts grant order)."""

    def test_bit_identical_including_records(self, seed, arrival_kwargs,
                                             fault_name, fault_config):
        retained, _ = run_pair(seed, arrival_kwargs, fault_config)
        pin = resource_pin(seed, arrival_kwargs, fault_name)
        assert canonical_digest(dataclasses.asdict(retained)) == pin["result"]
        assert retained.admission == "fifo" and retained.controller == {}

    def test_streaming_fifo_matches_legacy_envelope(self, seed,
                                                    arrival_kwargs,
                                                    fault_name, fault_config):
        _, streaming = run_pair(seed, arrival_kwargs, fault_config)
        pin = resource_pin(seed, arrival_kwargs, fault_name)
        assert canonical_digest(envelope(streaming)) == pin["envelope"]


def stamped_workload(seed, **arrival_kwargs):
    """The differential workload with the QoS axes lit: two priority
    classes, ~0.6 s deadlines and Pareto sizes (so size-aware ordering,
    deadline drops and class sketches all engage)."""
    return ServiceWorkload(n_requests=24, concurrency=3, n_files=4,
                           file_size=96 * KILOBYTE, layout="random",
                           read_fraction=0.7, pattern_specs=("b", "c"),
                           record_size=8192, seed=seed,
                           priority_levels=2, deadline_slack=0.6,
                           size_distribution="pareto", size_alpha=1.5,
                           **arrival_kwargs)


#: Non-FIFO disciplines (and the shedding controller) whose streaming mode
#: must still reproduce the retained run exactly.
POLICY_ROWS = (
    ("sjf", dict(admission_policy="sjf", admission_aging=0.5)),
    ("priority", dict(admission_policy="priority")),
    ("edf", dict(admission_policy="edf")),
    ("controller", dict(controller={"target_p99": 0.4, "interval": 0.1,
                                    "shed": True, "shed_age": 0.3})),
)


@pytest.mark.parametrize("fault_name,fault_config", FAULTS,
                         ids=[name for name, _ in FAULTS])
@pytest.mark.parametrize("policy_name,run_kwargs", POLICY_ROWS,
                         ids=[name for name, _ in POLICY_ROWS])
class TestPolicyStreamingMatchesRetained:
    """Streaming == retained for every admission discipline, drops and
    sheds included, with the PR 6 fault plans active — and conservation
    (moved + failed + shed == requested) holds throughout."""

    def run_policy_pair(self, run_kwargs, fault_config):
        results = []
        for retain in (True, False):
            workload = stamped_workload(0, arrival="poisson",
                                        arrival_rate=200.0)
            results.append(run_service(
                "disk-directed", workload,
                machine_config=MachineConfig(n_cps=2, n_iops=2, n_disks=4),
                seed=0, fault_config=fault_config, retain_requests=retain,
                **run_kwargs))
        return results

    def test_envelope_bit_identical(self, policy_name, run_kwargs,
                                    fault_name, fault_config):
        retained, streaming = self.run_policy_pair(run_kwargs, fault_config)
        assert envelope(streaming) == envelope(retained)
        assert streaming.controller == retained.controller
        assert streaming.class_sketches == retained.class_sketches

    def test_conservation_with_rejections(self, policy_name, run_kwargs,
                                          fault_name, fault_config):
        retained, streaming = self.run_policy_pair(run_kwargs, fault_config)
        for result in (retained, streaming):
            assert result.conserves_bytes()
            aggregates = result.aggregates
            assert aggregates["bytes_moved"] + aggregates["bytes_failed"] \
                + aggregates["bytes_shed"] == aggregates["bytes_requested"]
            assert aggregates["completed"] + result.dropped_requests \
                + result.shed_requests == retained.n_requests
        # The retained records re-derive the shed totals exactly.
        rejected = [record for record in retained.requests
                    if record.get("admitted_time") is None]
        assert len(rejected) == \
            retained.dropped_requests + retained.shed_requests
        assert sum(record["bytes_shed"] for record in rejected) == \
            retained.shed_bytes


class TestRejectionsHappenUnderOverload:
    """The drop/shed paths really fire in the matrix above (so the
    conservation pins are not vacuous)."""

    MACHINE = dict(n_cps=2, n_iops=2, n_disks=4)

    def test_edf_drops_under_overload(self):
        workload = stamped_workload(0, arrival="poisson", arrival_rate=200.0)
        result = run_service("disk-directed", workload,
                             machine_config=MachineConfig(**self.MACHINE),
                             seed=0, admission_policy="edf")
        assert result.dropped_requests > 0
        assert result.shed_requests == 0
        assert result.shed_bytes > 0

    def test_controller_sheds_under_overload(self):
        workload = stamped_workload(0, arrival="poisson", arrival_rate=200.0)
        result = run_service("disk-directed", workload,
                             machine_config=MachineConfig(**self.MACHINE),
                             seed=0,
                             controller={"target_p99": 0.4, "interval": 0.1,
                                         "shed": True, "shed_age": 0.3})
        assert result.shed_requests > 0
        assert result.dropped_requests == 0
        assert result.controller["shed"] == result.shed_requests
        assert result.controller["intervals"] > 0
        assert result.controller["observed"] == \
            result.aggregates["completed"]


class TestStreamingUnderPressure:
    def test_window_smaller_than_backlog(self):
        # More requests than the spawn window, arriving far faster than the
        # server drains them: the window must refill from the cursor without
        # perturbing admission order.  (window = max(2K, 64) = 64 < 100.)
        workload = ServiceWorkload(n_requests=100, arrival="poisson",
                                   arrival_rate=10000.0, concurrency=2,
                                   n_files=2, file_size=32 * KILOBYTE,
                                   layout="contiguous",
                                   pattern_specs=("b",), record_size=8192,
                                   seed=2)
        machine_config = MachineConfig(n_cps=2, n_iops=1, n_disks=2)
        retained = run_service("disk-directed", workload,
                               machine_config=machine_config, seed=2,
                               retain_requests=True)
        streaming = run_service("disk-directed", workload,
                                machine_config=machine_config, seed=2,
                                retain_requests=False)
        assert envelope(streaming) == envelope(retained)
        assert streaming.max_in_flight == 2
