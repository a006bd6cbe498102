"""Tests for the ``service-admission`` experiment family and figure."""

import json

from repro.experiments import (
    run_service_experiment,
    service_config,
    trial_cache_key,
)
from repro.experiments.service import (
    ADMISSION_LOADS,
    ADMISSION_ROWS,
    ADMISSION_TARGET_P99,
    service_admission_configs,
    service_admission_figure,
)
from repro.workload import ServiceResult
from repro.workload.admission import ControllerConfig

KILOBYTE = 1024

#: Tiny-machine overrides so one trial takes ~10 ms.  The admission grid's
#: own defaults (Pareto sizes, record mix, QoS stamps) stay in force — the
#: point is a fast pass through the same code paths, not a different figure.
TINY = dict(n_cps=2, n_iops=2, n_disks=2, n_requests=8, n_files=2,
            file_size=128 * KILOBYTE, concurrency=2)


def tiny_admission_config(**overrides):
    base = dict(method="disk-directed", arrival="poisson", arrival_rate=200.0,
                priority_levels=2, deadline_slack=0.5, **TINY)
    base.update(overrides)
    return service_config(**base)


class TestAdmissionConfigPlumbing:
    def test_defaults_disable_the_controller(self):
        config = tiny_admission_config()
        assert config.controller is None
        assert config.admission_policy == "fifo"

    def test_controller_fields_build_a_config(self):
        config = tiny_admission_config(target_p99=2.0,
                                       interval=0.25,
                                       shed=True,
                                       shed_age=1.0)
        assert config.controller == ControllerConfig(
            target_p99=2.0, interval=0.25, shed=True, shed_age=1.0)

    def test_workload_carries_the_qos_stamps(self):
        workload = tiny_admission_config().workload
        assert workload.priority_levels == 2
        assert workload.deadline_slack == 0.5

    def test_admission_fields_participate_in_cache_key(self):
        base = tiny_admission_config()
        assert trial_cache_key(base, 7) != \
            trial_cache_key(tiny_admission_config(admission_policy="sjf"), 7)
        assert trial_cache_key(base, 7) != \
            trial_cache_key(tiny_admission_config(target_p99=2.0),
                            7)
        assert trial_cache_key(base, 7) != \
            trial_cache_key(tiny_admission_config(deadline_slack=1.0), 7)


class TestAdmissionTrials:
    def test_trial_reports_its_discipline(self):
        result = run_service_experiment(
            tiny_admission_config(admission_policy="sjf"))
        assert isinstance(result, ServiceResult)
        assert result.admission.startswith("sjf(aging=")
        assert result.conserves_bytes()

    def test_controller_trial_reports_state(self):
        result = run_service_experiment(
            tiny_admission_config(target_p99=0.5,
                                  interval=0.1,
                                  shed=True,
                                  shed_age=0.3))
        assert result.controller["target_p99"] == 0.5
        assert result.controller["intervals"] > 0
        assert result.conserves_bytes()

    def test_priority_trial_reports_class_sketches(self):
        result = run_service_experiment(
            tiny_admission_config(admission_policy="priority"))
        assert result.class_sketches
        assert set(result.class_sketches) <= {"0", "1"}


class TestAdmissionFigure:
    def test_config_grid_covers_loads_and_rows(self):
        configs = service_admission_configs()
        assert len(configs) == len(ADMISSION_LOADS) * len(ADMISSION_ROWS)
        labels = {config.label for config in configs}
        assert "fifo@32" in labels and "controller@8" in labels
        controller = next(config for config in configs
                          if config.label == "controller@32")
        assert controller.controller.target_p99 == ADMISSION_TARGET_P99
        assert controller.controller.shed
        assert controller.admission_policy == "fifo"

    def test_grid_rows_share_one_workload(self):
        # Every row must run the identical request stream — the discipline
        # is the only axis — so the stamps are on for FIFO too.
        configs = service_admission_configs()
        workloads = {config.label.split("@")[0]:
                     config.workload for config in configs
                     if config.label.endswith("@32")}
        reference = workloads.pop("fifo")
        assert all(workload == reference
                   for workload in workloads.values())

    def test_figure_smoke_with_artifact(self, tmp_path):
        json_path = tmp_path / "service_admission.json"
        summaries, text = service_admission_figure(
            loads=(200.0,), trials=1, json_path=str(json_path), **TINY)
        assert len(summaries) == len(ADMISSION_ROWS)
        assert "Admission control under overload" in text
        assert "urgent_p99_s" in text and "goodput_mb" in text
        artifact = json.loads(json_path.read_text())
        assert artifact["figure"] == "service-admission"
        assert "repro.experiments.figures service-admission" in \
            artifact["regenerate"]
        assert len(artifact["rows"]) == len(ADMISSION_ROWS)
        by_policy = {row["policy"]: row for row in artifact["rows"]}
        assert set(by_policy) == set(ADMISSION_ROWS)
        controller_row = by_policy["controller"]
        assert controller_row["slo_target_s"] == ADMISSION_TARGET_P99
        assert isinstance(controller_row["slo_met"], bool)
        for row in artifact["rows"]:
            assert row["load_req_s"] == 200.0
            assert row["trials"] == 1

    def test_figure_runs_without_artifact(self):
        summaries, text = service_admission_figure(
            loads=(200.0,), rows=("fifo", "edf"), trials=1, **TINY)
        assert len(summaries) == 2
        assert "edf" in text


class TestPublishedArtifact:
    """The committed docs artifact was produced by this code and still
    backs the claims the docs quote from it."""

    def test_committed_artifact_matches_schema_and_claims(self):
        with open("docs/data/service_admission.json",
                  encoding="utf-8") as handle:
            artifact = json.load(handle)
        assert artifact["figure"] == "service-admission"
        rows = {(row["policy"], row["load_req_s"]): row
                for row in artifact["rows"]}
        overload = max(row["load_req_s"] for row in artifact["rows"])
        fifo = rows[("fifo", overload)]
        # At 4x saturation at least one size/deadline-aware discipline
        # improves p99 over FIFO at comparable goodput...
        better = [rows[(policy, overload)]
                  for policy in ("sjf", "priority", "edf")
                  if rows[(policy, overload)]["p99_s"] < fifo["p99_s"]
                  and rows[(policy, overload)]["goodput_mb"]
                  >= 0.9 * fifo["goodput_mb"]]
        assert better, "no non-FIFO policy beats FIFO's p99 in the artifact"
        # ...and the controller holds the SLO that static-K FIFO misses.
        controller = rows[("controller", overload)]
        assert controller["slo_met"] is True
        assert controller["p99_s"] <= controller["slo_target_s"]
        assert fifo["p99_s"] > controller["slo_target_s"]
