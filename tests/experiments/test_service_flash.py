"""Tests for the device axis in the experiment layer and the ddio-flash figure."""

import json

from repro.experiments import (
    ExperimentConfig,
    run_experiment,
    run_service_experiment,
    service_config,
    trial_cache_key,
)
from repro.experiments.service import (
    FLASH_DEVICES,
    flash_ftl_probe,
    service_flash_configs,
    service_flash_figure,
)
from repro.workload import ServiceResult

KILOBYTE = 1024

#: tiny-machine overrides: one grid cell in ~10 ms, same code paths
TINY = dict(n_cps=2, n_iops=2, n_disks=2, n_requests=8, n_files=2,
            file_size=128 * KILOBYTE, concurrency=2)


class TestDeviceInConfigs:
    def test_device_defaults_to_disk_in_both_families(self):
        assert ExperimentConfig(method="disk-directed",
                                pattern="rb").device == "disk"
        assert service_config(method="disk-directed").device == "disk"

    def test_device_participates_in_transfer_cache_key(self):
        base = dict(method="disk-directed", pattern="rb")
        assert trial_cache_key(ExperimentConfig(**base), 7) != \
            trial_cache_key(ExperimentConfig(device="ssd", **base), 7)

    def test_device_participates_in_service_cache_key(self):
        assert trial_cache_key(service_config(
            method="disk-directed"), 7) != \
            trial_cache_key(service_config(
                method="disk-directed", device="ssd"), 7)

    def test_label_stays_cosmetic(self):
        config = service_config(method="disk-directed",
                                         device="ssd", label="a")
        relabeled = service_config(method="disk-directed",
                                            device="ssd", label="b")
        assert trial_cache_key(config, 7) == trial_cache_key(relabeled, 7)


class TestRunningOnFlash:
    def test_transfer_experiment_runs_on_ssd(self):
        base = dict(method="disk-directed", pattern="rb", n_cps=2, n_iops=2,
                    n_disks=2, file_size=128 * KILOBYTE)
        ssd = run_experiment(ExperimentConfig(device="ssd", **base), seed=1)
        disk = run_experiment(ExperimentConfig(**base), seed=1)
        assert ssd.throughput_mb > 0
        assert ssd.elapsed != disk.elapsed

    def test_service_experiment_runs_on_ssd(self):
        result = run_service_experiment(service_config(
            method="disk-directed", device="ssd", **TINY))
        assert isinstance(result, ServiceResult)
        assert result.conserves_bytes()
        assert result.goodput_mb > 0


class TestFtlProbe:
    def test_probe_reports_both_policies(self):
        rows = flash_ftl_probe()
        assert [row["gc_policy"] for row in rows] \
            == ["greedy", "cost-benefit"]

    def test_sequential_fill_wa_is_exactly_one(self):
        for row in flash_ftl_probe():
            assert row["sequential_fill_wa"] == 1.0

    def test_random_overwrites_amplify_writes(self):
        for row in flash_ftl_probe():
            assert row["random_overwrite_wa"] > 1.0
            assert row["erases"] > 0

    def test_probe_is_deterministic(self):
        assert flash_ftl_probe(seed=3) == flash_ftl_probe(seed=3)
        assert flash_ftl_probe(seed=3) != flash_ftl_probe(seed=4)


class TestFlashFigure:
    def test_config_grid_covers_the_device_axis(self):
        configs = service_flash_configs(loads=(4.0, 8.0))
        assert len(configs) == 2 * 2 * 2   # devices x loads x methods
        labels = {config.label for config in configs}
        assert "disk:disk-directed@4" in labels
        assert "ssd:traditional@8" in labels
        assert {config.device for config in configs} == set(FLASH_DEVICES)

    def test_figure_smoke_with_artifact(self, tmp_path):
        json_path = tmp_path / "service_flash.json"
        summaries, text = service_flash_figure(
            loads=(50.0,), trials=1, json_path=str(json_path), **TINY)
        assert len(summaries) == 4        # 2 devices x 1 load x 2 methods
        assert "equal" in text and "ddio_vs_tc" in text
        artifact = json.loads(json_path.read_text())
        assert artifact["figure"] == "ddio-flash"
        assert "repro.experiments.figures ddio-flash" in \
            artifact["regenerate"]
        assert len(artifact["rows"]) == 4
        assert {row["device"] for row in artifact["rows"]} == {"disk", "ssd"}
        assert len(artifact["ratios"]) == 2
        for ratio in artifact["ratios"]:
            assert ratio["ddio_vs_tc"] > 0
        # Equal sequential bandwidth is the experiment's control variable.
        assert artifact["config"]["disk_sequential_mb"] \
            == artifact["config"]["ssd_sequential_mb"]
        assert [row["gc_policy"] for row in artifact["ftl_probe"]] \
            == ["greedy", "cost-benefit"]

    def test_figure_runs_without_artifact(self):
        summaries, text = service_flash_figure(
            loads=(50.0,), devices=("ssd",), trials=1, **TINY)
        assert len(summaries) == 2
        assert "ssd:disk-directed@50" in {s.config.label for s in summaries}

    def test_figure_is_registered_in_the_cli(self):
        from repro.experiments.figures import FIGURES
        assert "ddio-flash" in FIGURES
        assert FIGURES["ddio-flash"] is service_flash_figure


class TestPublishedArtifact:
    """The committed docs artifact was produced by this code and still
    backs the claim docs/flash.md quotes from it."""

    def test_committed_artifact_matches_schema_and_claims(self):
        with open("docs/data/service_flash.json",
                  encoding="utf-8") as handle:
            artifact = json.load(handle)
        assert artifact["figure"] == "ddio-flash"
        config = artifact["config"]
        assert config["disk_sequential_mb"] == config["ssd_sequential_mb"]
        ratios = {(row["device"], row["load_req_s"]): row["ddio_vs_tc"]
                  for row in artifact["ratios"]}
        top = max(load for _device, load in ratios)
        # The headline: DDIO's advantage is real on disk but essentially
        # vanishes on bandwidth-matched flash — it was a positioning-cost
        # effect, not a data-movement effect.
        assert ratios[("disk", top)] > 1.02
        assert ratios[("ssd", top)] < ratios[("disk", top)]
        assert ratios[("ssd", top)] < 1.02
        # Flash escapes the disk's saturation asymptote at the top load.
        goodput = {(row["device"], row["method"], row["load_req_s"]):
                   row["goodput_mb"] for row in artifact["rows"]}
        assert goodput[("ssd", "disk-directed", top)] \
            > 2 * goodput[("disk", "disk-directed", top)]
        for row in artifact["ftl_probe"]:
            assert row["sequential_fill_wa"] == 1.0
            assert row["random_overwrite_wa"] > 1.0
