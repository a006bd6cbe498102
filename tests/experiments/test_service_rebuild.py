"""Tests for the redundancy axis: parity trials, silent corruption, and the
``service-rebuild`` figure."""

import json

import pytest

from repro.experiments import (
    run_service_experiment,
    service_config,
    trial_cache_key,
)
from repro.experiments.service import (
    service_faults_configs,
    service_rebuild_configs,
    service_rebuild_figure,
)

KILOBYTE = 1024

#: Tiny-machine overrides: 4 drives (the parity minimum is 3) so one trial
#: stays in the tens of milliseconds.
TINY = dict(n_cps=2, n_iops=2, n_disks=4, n_requests=4, n_files=2,
            file_size=64 * KILOBYTE, layout="contiguous", concurrency=2,
            arrival="poisson", arrival_rate=200.0, seed=7)

#: A silent range longer than the drive pins it to the full LBN span, so
#: *every* read overlaps it — detection claims become exact, not sampled.
WHOLE_DRIVE = 10 ** 9


def tiny_config(**overrides):
    base = dict(method="disk-directed", **TINY)
    base.update(overrides)
    return service_config(**base)


class TestConfigPlumbing:
    def test_redundancy_fields_participate_in_cache_key(self):
        plain = tiny_config()
        keys = {trial_cache_key(plain, 7)}
        for overrides in (dict(redundancy="parity"),
                          dict(redundancy="parity",
                               rebuild_bandwidth=1024.0 * 1024),
                          dict(checksums=True),
                          dict(silent_range_count=1),
                          dict(silent_range_count=1,
                               silent_range_sectors=WHOLE_DRIVE)):
            keys.add(trial_cache_key(tiny_config(**overrides), 7))
        assert len(keys) == 6

    def test_too_narrow_parity_array_fails_at_construction(self):
        with pytest.raises(ValueError, match="parity needs at least 3 drives"):
            tiny_config(redundancy="parity", n_disks=2)
        tiny_config(n_disks=2)              # no parity: two drives are fine
        tiny_config(redundancy="parity", n_disks=3)

    @pytest.mark.parametrize("field, match", [
        ("slow_disk", "slow_disk"),
        ("fail_stop_disk", "fail_stop_disk"),
        ("silent_disk", "silent_disk"),
    ])
    def test_fault_drive_outside_the_machine_fails_at_construction(
            self, field, match):
        # Checked even when the knob enables nothing (slow_factor 1.0).
        with pytest.raises(ValueError, match=match):
            tiny_config(**{field: 4})
        tiny_config(**{field: 3})

    @pytest.mark.parametrize("field, value", [
        ("transient_rate", 2.0),
        ("slow_factor", 0.0),
        ("rebuild_bandwidth", -1.0),
    ])
    def test_invalid_fault_and_rebuild_values_fail_at_construction(
            self, field, value):
        with pytest.raises(ValueError):
            tiny_config(**{field: value})

    def test_silent_fields_build_a_fault_config(self):
        config = tiny_config(silent_range_count=2,
                             silent_range_sectors=128)
        assert config.faults.enabled
        assert config.faults.silent_range_count == 2
        assert config.faults.silent_range_sectors == 128

    def test_rebuild_grid_is_parity_failstop_everywhere(self):
        configs = service_rebuild_configs()
        assert len(configs) == 4  # 2 devices x 2 methods
        for config in configs:
            assert config.redundancy == "parity"
            assert config.faults.fail_stop_disk == 0
            assert config.faults.fail_stop_time > 0.0
            assert config.rebuild_bandwidth > 0.0
        assert {c.device for c in configs} == {"disk", "ssd"}

    def test_faults_grid_takes_a_device(self):
        configs = service_faults_configs(device="ssd")
        assert all(config.device == "ssd" for config in configs)


class TestSilentCorruption:
    """Satellite: undetectable today, 100%-detected with checksums."""

    def silent_config(self, **overrides):
        return tiny_config(read_fraction=1.0, silent_range_count=1,
                           silent_range_sectors=WHOLE_DRIVE,
                           **overrides)

    def test_without_checksums_corruption_is_invisible(self):
        result = run_service_experiment(self.silent_config())
        # Every read returned flipped bytes, and nothing in the result can
        # tell: full delivery, zero failures, no scrub counter.
        assert result.conserves_bytes()
        assert result.failed_bytes == 0
        assert "scrub_errors" not in result.aggregates
        assert result.aggregates.get("bytes_moved", 0) == \
            result.aggregates.get("bytes_requested", 0)

    def test_with_checksums_every_corrupt_read_is_caught(self):
        result = run_service_experiment(
            self.silent_config(checksums=True, on_fault="degrade"))
        assert result.conserves_bytes()
        assert result.aggregates.get("scrub_errors", 0) > 0
        # No parity to repair from: 100% of the read bytes are given up
        # rather than delivered corrupt.
        assert result.failed_bytes == \
            result.aggregates.get("bytes_requested", 0)

    def test_checksums_plus_parity_repairs_everything(self):
        # One corrupt drive: survivors are clean, so every detected read is
        # reconstructed from parity and nothing is given up.
        result = run_service_experiment(
            self.silent_config(checksums=True, redundancy="parity",
                               silent_disk=0))
        assert result.conserves_bytes()
        assert result.aggregates.get("scrub_errors", 0) > 0
        assert result.failed_bytes == 0
        assert result.lost_bytes == 0

    def test_corrupt_survivors_cannot_be_repaired(self):
        # Every drive corrupt everywhere: parity reconstruction XORs
        # garbage, must not claim a repair, and gives the bytes up.
        result = run_service_experiment(
            self.silent_config(checksums=True, redundancy="parity",
                               on_fault="degrade"))
        assert result.conserves_bytes()
        assert result.aggregates.get("scrub_errors", 0) > 0
        assert result.failed_bytes == \
            result.aggregates.get("bytes_requested", 0)

    def test_silent_disk_participates_in_cache_key(self):
        everywhere = self.silent_config()
        one_drive = self.silent_config(silent_disk=0)
        assert trial_cache_key(everywhere, 7) != \
            trial_cache_key(one_drive, 7)


class TestParityTrials:
    def test_failstop_under_parity_loses_nothing(self):
        for method in ("disk-directed", "traditional"):
            result = run_service_experiment(tiny_config(
                method=method, redundancy="parity",
                rebuild_bandwidth=16.0 * 1024 * 1024,
                fail_stop_disk=0, fail_stop_time=0.01))
            assert result.conserves_bytes()
            assert result.failed_bytes == 0
            assert result.lost_bytes == 0
            assert result.aggregates.get("reconstructed_bytes", 0) > 0
            assert result.aggregates.get("rebuilt_rows", 0) > 0
            assert result.aggregates.get("rebuild_seconds", 0.0) > 0.0

    def test_healthy_parity_run_adds_no_fault_keys(self):
        result = run_service_experiment(tiny_config(redundancy="parity"))
        assert result.conserves_bytes()
        assert result.failed_bytes == 0
        assert "scrub_errors" not in result.aggregates

    def test_none_run_has_no_parity_keys(self):
        result = run_service_experiment(tiny_config())
        for key in ("reconstructed_bytes", "parity_overhead_bytes",
                    "rebuilt_rows", "rebuild_seconds"):
            assert key not in result.aggregates


class TestRebuildFigure:
    def figure(self, **kwargs):
        return service_rebuild_figure(
            devices=("disk",), trials=1, fail_stop_time=0.01,
            rebuild_bandwidth=16.0 * 1024 * 1024, **{**TINY, **kwargs})

    def test_figure_reports_phases_and_zero_failures(self):
        summaries, text = self.figure()
        assert len(summaries) == 2
        assert "degraded_mb" in text
        assert "never data" in text
        for summary in summaries:
            for result in summary.results:
                assert result.failed_bytes == 0

    def test_figure_writes_the_json_artifact(self, tmp_path):
        json_path = tmp_path / "service_rebuild.json"
        self.figure(json_path=str(json_path))
        artifact = json.loads(json_path.read_text())
        assert artifact["figure"] == "service-rebuild"
        assert artifact["config"]["redundancy"] == "parity"
        rows = artifact["rows"]
        assert len(rows) == 2
        for row in rows:
            assert row["failed_mb"] == 0.0
            assert row["rebuild_s"] >= 0.0
