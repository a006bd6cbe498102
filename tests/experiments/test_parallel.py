"""Tests for the parallel sweep runner and the on-disk result cache."""

import dataclasses
import json

import pytest

from repro.experiments import ExperimentConfig, ResultCache, sweep, sweep_parallel
from repro.experiments.runner import run_trials, trial_cache_key

KILOBYTE = 1024


def tiny_config(**overrides):
    """A config small enough that a trial takes a few milliseconds."""
    base = dict(method="disk-directed", pattern="rb", record_size=8192,
                layout="random", file_size=256 * KILOBYTE,
                n_cps=4, n_iops=2, n_disks=2)
    base.update(overrides)
    return ExperimentConfig(**base)


def results_as_dicts(summary):
    return [dataclasses.asdict(result) for result in summary.results]


def entry_path(directory, key):
    """Where the shared store files *key*: sharded by its first two digits."""
    return directory / key[:2] / f"{key}.json"


@pytest.fixture
def config_list():
    return [tiny_config(method=method, pattern=pattern, label=method)
            for pattern in ("rb", "rc")
            for method in ("disk-directed", "traditional")]


class TestSweepParallel:
    def test_matches_serial_sweep_exactly(self, config_list):
        serial = sweep(config_list, trials=2)
        parallel = sweep_parallel(config_list, trials=2, workers=2)
        assert len(serial) == len(parallel)
        for serial_summary, parallel_summary in zip(serial, parallel):
            assert serial_summary.config == parallel_summary.config
            assert results_as_dicts(serial_summary) == \
                results_as_dicts(parallel_summary)

    def test_in_process_fallback_matches_serial(self, config_list):
        serial = sweep(config_list, trials=1)
        fallback = sweep_parallel(config_list, trials=1, workers=None)
        for serial_summary, fallback_summary in zip(serial, fallback):
            assert results_as_dicts(serial_summary) == \
                results_as_dicts(fallback_summary)

    def test_progress_called_in_config_order(self, config_list):
        seen = []
        sweep_parallel(config_list, trials=1, workers=2,
                       progress=lambda i, total, s: seen.append((i, total)))
        assert seen == [(i, len(config_list)) for i in range(len(config_list))]

    def test_trial_seeds_follow_base_seed(self):
        config = tiny_config(seed=5)
        default_seeds = sweep_parallel([config], trials=2)[0]
        explicit = sweep_parallel([config], trials=2, base_seed=5)[0]
        assert results_as_dicts(default_seeds) == results_as_dicts(explicit)

    def test_zero_trials_rejected_like_serial(self):
        with pytest.raises(ValueError):
            sweep([tiny_config()], trials=0)
        with pytest.raises(ValueError):
            sweep_parallel([tiny_config()], trials=0, workers=2)
        with pytest.raises(ValueError):
            sweep_parallel([tiny_config()], trials=0)

    def test_progress_streams_before_completion(self, config_list):
        # progress for config 0 must fire before the last config's trials run;
        # with a pool the callback arrives as each config completes, so by the
        # time the call for the final index happens, earlier ones were already
        # delivered (order is asserted elsewhere; here we check staging).
        stages = []

        def progress(index, total, summary):
            stages.append(index)
            assert summary.results, "summary delivered before its trials ran"

        sweep_parallel(config_list, trials=1, workers=2, progress=progress)
        assert stages == list(range(len(config_list)))


class TestTrialCacheKey:
    def test_stable_for_equal_configs(self):
        assert trial_cache_key(tiny_config(), 3) == trial_cache_key(tiny_config(), 3)

    def test_seed_changes_key(self):
        assert trial_cache_key(tiny_config(), 3) != trial_cache_key(tiny_config(), 4)

    def test_simulation_fields_change_key(self):
        assert trial_cache_key(tiny_config(), 3) != \
            trial_cache_key(tiny_config(n_disks=1), 3)

    def test_label_is_cosmetic(self):
        assert trial_cache_key(tiny_config(label="a"), 3) == \
            trial_cache_key(tiny_config(label="b"), 3)


class TestResultCache:
    def test_round_trip_preserves_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        summary = run_trials(config, trials=1, cache=cache)
        key = trial_cache_key(config, config.seed)
        cached = cache.get(key)
        assert dataclasses.asdict(cached) == dataclasses.asdict(summary.results[0])

    def test_second_sweep_is_all_hits(self, tmp_path, config_list):
        cache = ResultCache(tmp_path)
        first = sweep_parallel(config_list, trials=1, cache=cache)
        misses_after_first = cache.misses
        second = sweep_parallel(config_list, trials=1, cache=cache)
        assert cache.misses == misses_after_first
        assert cache.hits >= len(config_list)
        for first_summary, second_summary in zip(first, second):
            assert results_as_dicts(first_summary) == \
                results_as_dicts(second_summary)

    def test_changed_config_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep_parallel([tiny_config()], trials=1, cache=cache)
        misses = cache.misses
        sweep_parallel([tiny_config(n_disks=1)], trials=1, cache=cache)
        assert cache.misses > misses  # different config -> fresh simulation

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        run_trials(config, trials=1, cache=cache)
        key = trial_cache_key(config, config.seed)
        entry_path(tmp_path, key).write_text("{not json")
        assert cache.get(key) is None

    def test_stale_schema_entry_treated_as_miss(self, tmp_path):
        # Valid JSON whose keys no longer match TransferResult's fields (e.g.
        # written before a field rename) must degrade to a miss, not crash.
        cache = ResultCache(tmp_path)
        config = tiny_config()
        run_trials(config, trials=1, cache=cache)
        key = trial_cache_key(config, config.seed)
        entry_path(tmp_path, key).write_text('{"obsolete_field": 1}')
        assert cache.get(key) is None
        summary = run_trials(config, trials=1, cache=cache)  # re-simulates
        assert summary.results

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_trials(tiny_config(), trials=1, cache=cache)
        assert list(tmp_path.rglob("*.json"))
        cache.clear()
        assert not list(tmp_path.rglob("*.json"))

    def test_cache_accepts_plain_path(self, tmp_path):
        directory = tmp_path / "cache-dir"
        sweep_parallel([tiny_config()], trials=1, cache=str(directory))
        assert list(directory.rglob("*.json"))

    def test_entries_are_valid_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_trials(tiny_config(), trials=1, cache=cache)
        for path in tmp_path.rglob("*.json"):
            data = json.loads(path.read_text())
            assert "bytes_transferred" in data


class TestTrialCostEstimate:
    """Dispatch ordering heuristic: results never depend on it, but the
    known ~100x stragglers must rank first so work stealing can help."""

    def test_small_record_traditional_ranks_above_ddio(self):
        from repro.experiments.runner import trial_cost_estimate
        tc_8byte = tiny_config(method="traditional", record_size=8)
        ddio = tiny_config(method="disk-directed", record_size=8)
        tc_8k = tiny_config(method="traditional", record_size=8192)
        assert trial_cost_estimate(tc_8byte) > trial_cost_estimate(ddio)
        assert trial_cost_estimate(tc_8byte) > trial_cost_estimate(tc_8k)

    def test_service_configs_scale_with_requests_and_record_mix(self):
        from repro.experiments.runner import trial_cost_estimate
        from repro.experiments.service import service_config
        small = service_config(method="traditional", n_requests=4)
        big = service_config(method="traditional", n_requests=32)
        mixed = service_config(method="traditional", n_requests=4,
                                        record_sizes=(8, 8192))
        assert trial_cost_estimate(big) > trial_cost_estimate(small)
        assert trial_cost_estimate(mixed) > trial_cost_estimate(small)

    def test_mixed_cost_sweep_still_matches_serial(self):
        configs = [
            tiny_config(method="traditional", pattern="rc", record_size=64,
                        file_size=64 * KILOBYTE),
            tiny_config(method="disk-directed", pattern="rb"),
            tiny_config(method="traditional", pattern="rb"),
        ]
        serial = sweep(configs, trials=1)
        parallel = sweep_parallel(configs, trials=1, workers=2)
        for serial_summary, parallel_summary in zip(serial, parallel):
            assert results_as_dicts(serial_summary) == \
                results_as_dicts(parallel_summary)
