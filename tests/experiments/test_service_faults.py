"""Tests for the ``service-faults`` experiment family and figure."""

import dataclasses

import pytest

from repro.experiments import (
    run_service_experiment,
    service_config,
    trial_cache_key,
)
from repro.experiments.service import (
    FAULT_SCENARIOS,
    service_faults_configs,
    service_faults_figure,
)
from repro.workload import ServiceResult

KILOBYTE = 1024

#: Tiny-machine overrides so one trial takes ~10 ms.
TINY = dict(n_cps=2, n_iops=1, n_disks=2, n_requests=4, n_files=2,
            file_size=64 * KILOBYTE, layout="contiguous", concurrency=2,
            arrival="poisson", arrival_rate=200.0, seed=7)


def tiny_fault_config(**overrides):
    base = dict(method="disk-directed", **TINY)
    base.update(overrides)
    return service_config(**base)


class TestFaultConfigPlumbing:
    def test_healthy_config_enables_no_faults(self):
        assert not tiny_fault_config().faults.enabled

    def test_fault_fields_build_a_fault_config(self):
        config = tiny_fault_config(transient_rate=0.05)
        assert config.faults.enabled
        assert config.faults.transient_rate == 0.05

    def test_fault_fields_participate_in_cache_key(self):
        healthy = tiny_fault_config()
        faulted = tiny_fault_config(transient_rate=0.05)
        assert trial_cache_key(healthy, 7) != trial_cache_key(faulted, 7)

    def test_on_fault_participates_in_cache_key(self):
        retry = tiny_fault_config(transient_rate=0.05)
        degrade = tiny_fault_config(transient_rate=0.05,
                                    on_fault="degrade")
        assert trial_cache_key(retry, 7) != trial_cache_key(degrade, 7)


class TestFaultedTrials:
    def test_healthy_trial_records_no_faults(self):
        result = run_service_experiment(tiny_fault_config())
        assert isinstance(result, ServiceResult)
        assert result.fault_plans == []
        assert result.failed_bytes == 0
        assert result.total_retries == 0
        assert result.conserves_bytes()

    def test_faulted_trial_records_the_plan(self):
        result = run_service_experiment(
            tiny_fault_config(transient_rate=0.3))
        assert len(result.fault_plans) == 2  # every drive draws transients
        for plan in result.fault_plans:
            assert plan["transient_rate"] == 0.3

    def test_transient_trial_conserves_bytes(self):
        result = run_service_experiment(
            tiny_fault_config(transient_rate=0.3))
        assert result.total_retries > 0
        assert result.conserves_bytes()

    def test_fail_stop_trial_conserves_bytes_and_degrades(self):
        result = run_service_experiment(
            tiny_fault_config(fail_stop_disk=0, fail_stop_time=0.0))
        assert result.conserves_bytes()
        assert result.failed_bytes + result.lost_bytes > 0
        assert result.degraded_requests > 0
        assert result.goodput_mb <= result.throughput_mb

    def test_deterministic_fault_regression(self):
        """Same seed => identical fault schedule AND identical envelope."""
        config = tiny_fault_config(transient_rate=0.3,
                                   fail_stop_disk=1,
                                   fail_stop_time=0.05)
        first = run_service_experiment(config)
        second = run_service_experiment(config)
        assert first.fault_plans == second.fault_plans
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_different_seed_different_schedule(self):
        config = tiny_fault_config(transient_rate=0.3,
                                   bad_range_count=2)
        plans_a = run_service_experiment(config, seed=1).fault_plans
        plans_b = run_service_experiment(config, seed=2).fault_plans
        assert plans_a != plans_b


class TestFaultFigure:
    def test_config_grid_covers_scenarios_and_methods(self):
        configs = service_faults_configs()
        assert len(configs) == len(FAULT_SCENARIOS) * 2
        labels = {config.label for config in configs}
        assert "healthy:disk-directed" in labels
        assert "sick-disk:traditional" in labels

    def test_grid_defaults_to_32_disks(self):
        configs = service_faults_configs()
        assert all(config.n_disks == 32 for config in configs)

    def test_figure_smoke(self):
        scenarios = (("healthy", {}),
                     ("transient", {"transient_rate": 0.3}))
        summaries, text = service_faults_figure(scenarios=scenarios, **TINY)
        assert len(summaries) == 4
        assert "Fault injection" in text
        assert "goodput_mb" in text
        assert "transient" in text

    def test_figure_asserts_conservation(self):
        scenarios = (("fail-stop", {"fail_stop_disk": 0,
                                    "fail_stop_time": 0.0}),)
        summaries, text = service_faults_figure(scenarios=scenarios,
                                                methods=("disk-directed",),
                                                **TINY)
        assert len(summaries) == 1
        row_line = next(line for line in text.splitlines()
                        if line.startswith("fail-stop"))
        assert "disk-directed" in row_line
