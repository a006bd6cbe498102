"""Tests for experiment configuration and trial aggregation."""

import pytest

from repro.experiments import ExperimentConfig, TrialSummary
from repro.experiments.config import MEGABYTE, PAPER_FILE_SIZE, PAPER_RECORD_SIZES


class _FakeResult:
    def __init__(self, throughput_mb, elapsed=1.0):
        self.throughput_mb = throughput_mb
        self.elapsed = elapsed


class TestExperimentConfig:
    def test_defaults_are_paper_defaults(self):
        config = ExperimentConfig()
        assert config.n_cps == 16
        assert config.n_iops == 16
        assert config.n_disks == 16
        assert config.file_size == PAPER_FILE_SIZE == 10 * MEGABYTE
        assert config.record_size in PAPER_RECORD_SIZES

    def test_with_overrides(self):
        config = ExperimentConfig().with_overrides(pattern="rc", n_cps=4)
        assert config.pattern == "rc"
        assert config.n_cps == 4
        assert ExperimentConfig().pattern == "rb"

    def test_describe_mentions_key_fields(self):
        text = ExperimentConfig(method="traditional", pattern="rcc").describe()
        assert "traditional" in text
        assert "rcc" in text

    def test_too_narrow_parity_array_fails_at_construction(self):
        with pytest.raises(ValueError, match="parity needs at least 3 drives"):
            ExperimentConfig(redundancy="parity", n_disks=2)
        with pytest.raises(ValueError, match="parity needs at least 3 drives"):
            ExperimentConfig(n_disks=2).with_overrides(redundancy="parity")
        assert ExperimentConfig(redundancy="parity", n_disks=3).n_disks == 3
        assert ExperimentConfig(n_disks=2).n_disks == 2


class TestTrialSummary:
    def test_mean_and_stdev(self):
        summary = TrialSummary(config=ExperimentConfig())
        summary.results = [_FakeResult(10.0), _FakeResult(12.0), _FakeResult(14.0)]
        assert summary.mean_throughput_mb == pytest.approx(12.0)
        assert summary.stdev_throughput_mb == pytest.approx(2.0)
        assert summary.coefficient_of_variation == pytest.approx(2.0 / 12.0)

    def test_single_trial_has_zero_cv(self):
        summary = TrialSummary(config=ExperimentConfig())
        summary.results = [_FakeResult(5.0)]
        assert summary.stdev_throughput_mb == 0.0
        assert summary.coefficient_of_variation == 0.0

    def test_empty_summary_is_zero(self):
        summary = TrialSummary(config=ExperimentConfig())
        assert summary.mean_throughput_mb == 0.0
        assert summary.mean_elapsed == 0.0

    def test_as_row_contains_plot_fields(self):
        summary = TrialSummary(config=ExperimentConfig(label="DDIO"))
        summary.results = [_FakeResult(7.5, elapsed=2.0)]
        row = summary.as_row()
        assert row["label"] == "DDIO"
        assert row["throughput_mb"] == pytest.approx(7.5)
        assert row["trials"] == 1
