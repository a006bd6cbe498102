"""Tests for the service experiment family and its sweep/cache integration."""

import dataclasses

import pytest

from repro.experiments import (
    ResultCache,
    run_service_experiment,
    run_trial,
    service_config,
    sweep,
    sweep_parallel,
    trial_cache_key,
)
from repro.experiments.service import service_configs, service_figure
from repro.workload import ServiceResult

KILOBYTE = 1024


def tiny_service_config(**overrides):
    """A service config small enough for a trial to take ~10 ms."""
    base = dict(method="disk-directed", n_cps=2, n_iops=1, n_disks=1,
                n_requests=4, n_files=2, file_size=64 * KILOBYTE,
                layout="contiguous", concurrency=2, arrival="poisson",
                arrival_rate=200.0, seed=7)
    base.update(overrides)
    return service_config(**base)


def results_as_dicts(summary):
    return [dataclasses.asdict(result) for result in summary.results]


@pytest.fixture
def config_list():
    return [tiny_service_config(method=method, arrival_rate=rate)
            for rate in (100.0, 300.0)
            for method in ("disk-directed", "traditional")]


class TestRunServiceExperiment:
    def test_returns_service_result(self):
        result = run_service_experiment(tiny_service_config())
        assert isinstance(result, ServiceResult)
        assert result.n_requests == 4
        assert result.conserves_bytes()

    def test_type_checked(self):
        with pytest.raises(TypeError):
            run_service_experiment("not-a-config")

    def test_run_trial_dispatches_by_config_type(self):
        result = run_trial(tiny_service_config(), seed=7)
        assert isinstance(result, ServiceResult)

    def test_run_trial_rejects_unknown_family(self):
        with pytest.raises(TypeError):
            run_trial(object())

    def test_seed_overrides_config_seed(self):
        base = run_service_experiment(tiny_service_config())
        reseeded = run_service_experiment(tiny_service_config(), seed=8)
        assert dataclasses.asdict(base) != dataclasses.asdict(reseeded)


class TestServiceSweeps:
    def test_parallel_matches_serial_bit_for_bit(self, config_list):
        serial = sweep(config_list, trials=2)
        parallel = sweep_parallel(config_list, trials=2, workers=2)
        for serial_summary, parallel_summary in zip(serial, parallel):
            assert serial_summary.config == parallel_summary.config
            assert results_as_dicts(serial_summary) == \
                results_as_dicts(parallel_summary)

    def test_cold_parallel_then_warm_serial_identical(self, tmp_path,
                                                      config_list):
        cold = sweep_parallel(config_list, trials=1, workers=2,
                              cache=tmp_path)
        cache = ResultCache(tmp_path)
        warm = sweep(config_list, trials=1, cache=cache)
        assert cache.hits >= len(config_list)
        for cold_summary, warm_summary in zip(cold, warm):
            assert results_as_dicts(cold_summary) == \
                results_as_dicts(warm_summary)

    def test_cache_round_trips_service_results(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = tiny_service_config()
        fresh = run_service_experiment(config)
        key = trial_cache_key(config, config.seed)
        cache.put(key, fresh)
        cached = cache.get(key)
        assert isinstance(cached, ServiceResult)
        assert dataclasses.asdict(cached) == dataclasses.asdict(fresh)
        # Per-request records survive as plain dictionaries.
        assert cached.requests[0]["bytes_moved"] > 0
        assert cached.conserves_bytes()

    def test_service_and_transfer_keys_never_collide(self):
        # Same seed, overlapping field values — the config type itself is
        # part of the key.
        from repro.experiments import ExperimentConfig
        transfer_key = trial_cache_key(ExperimentConfig(), 0)
        service_key = trial_cache_key(service_config(), 0)
        assert transfer_key != service_key


class TestServiceFigure:
    def test_config_grid_covers_loads_and_methods(self):
        configs = service_configs(loads=(5.0, 10.0),
                                  methods=("disk-directed", "traditional"))
        assert len(configs) == 4
        assert {config.workload.arrival_rate for config in configs} == {5.0, 10.0}

    def test_figure_text_and_summaries(self):
        summaries, text = service_figure(
            loads=(100.0, 300.0), trials=1, n_cps=2, n_iops=1, n_disks=1,
            n_requests=4, n_files=2, file_size=64 * KILOBYTE,
            layout="contiguous", concurrency=2)
        assert len(summaries) == 4
        assert "Sustained throughput" in text
        assert "99th-percentile response time" in text
        assert "DDIO" in text and "TC" in text

    def test_progress_lines_describe_service_points(self, capsys):
        # The figures command line prints each finished point's describe().
        from repro.experiments.figures import _progress_printer

        service_figure(
            loads=(200.0,), methods=("disk-directed",), trials=1, n_cps=2,
            n_iops=1, n_disks=1, n_requests=3, n_files=1,
            file_size=64 * KILOBYTE, layout="contiguous",
            progress=_progress_printer)
        line = capsys.readouterr().err
        assert "[1/1] disk-directed service poisson@200/s K=4 3 reqs" in line
        assert line.rstrip().endswith("MB/s")


class TestHeadlineUnderConcurrentLoad:
    def test_ddio_sustains_higher_throughput_than_caching(self):
        """The north-star claim at a test-sized scale: under a concurrent
        mixed stream whose working set exceeds the IOP caches, disk-directed
        I/O sustains higher throughput than traditional caching.  The
        simulator is deterministic, so this is a stable regression anchor
        (same shape as the default service figure, scaled down)."""
        kwargs = dict(n_cps=4, n_iops=2, n_disks=2, n_requests=12,
                      n_files=8, file_size=128 * KILOBYTE, layout="random",
                      concurrency=4, arrival="closed", read_fraction=1.0,
                      pattern_specs=("b", "c"),
                      file_assignment="round-robin", seed=3)
        ddio = run_service_experiment(
            tiny_service_config(method="disk-directed", **kwargs))
        caching = run_service_experiment(
            tiny_service_config(method="traditional", **kwargs))
        assert ddio.conserves_bytes() and caching.conserves_bytes()
        assert ddio.throughput_mb > caching.throughput_mb


class TestOverloadFamily:
    """Heavy-tailed sizes, record mixes and the overload figure."""

    def overload_config(self, **overrides):
        base = dict(method="disk-directed", n_cps=2, n_iops=1, n_disks=1,
                    n_requests=6, n_files=3, file_size=64 * KILOBYTE,
                    layout="contiguous", concurrency=2, arrival="poisson",
                    arrival_rate=200.0, size_distribution="pareto",
                    size_alpha=1.5, record_sizes=(8, 8192), seed=7)
        base.update(overrides)
        return service_config(**base)

    def test_heavy_tail_fields_participate_in_cache_key(self):
        fixed = tiny_service_config()
        for overrides in (dict(size_distribution="pareto"),
                          dict(size_distribution="pareto", size_alpha=2.5),
                          dict(size_distribution="lognormal", size_sigma=2.0),
                          dict(size_distribution="pareto",
                               max_file_size=256 * KILOBYTE),
                          dict(record_sizes=(8, 8192))):
            other = tiny_service_config(**overrides)
            assert trial_cache_key(fixed, 7) != trial_cache_key(other, 7), \
                overrides

    def test_heavy_tailed_trial_conserves_bytes_and_varies_sizes(self):
        result = run_service_experiment(self.overload_config())
        assert result.conserves_bytes()
        assert len(result.file_sizes) == 3
        # Pareto with alpha=1.5 over 3 files: at least two distinct sizes
        # (the draw is deterministic, so this is a stable pin, not a flake).
        assert len(set(result.file_sizes)) >= 2

    def test_record_mix_reaches_both_sizes(self):
        result = run_service_experiment(
            self.overload_config(n_requests=10, method="traditional"))
        assert result.conserves_bytes()
        sizes = {record["record_size"] for record in result.requests}
        assert sizes == {8, 8192}

    def test_serial_parallel_determinism_with_heavy_tails(self):
        configs = [self.overload_config(method=method)
                   for method in ("disk-directed", "traditional")]
        serial = sweep(configs, trials=2)
        parallel = sweep_parallel(configs, trials=2, workers=2)
        for serial_summary, parallel_summary in zip(serial, parallel):
            assert results_as_dicts(serial_summary) == \
                results_as_dicts(parallel_summary)

    def test_overload_figure_smoke(self):
        from repro.experiments.service import service_overload_figure

        summaries, text = service_overload_figure(
            loads=(100.0, 400.0), trials=1, n_cps=2, n_iops=1, n_disks=1,
            n_requests=4, n_files=2, file_size=64 * KILOBYTE,
            layout="contiguous", concurrency=2, seed=7)
        assert len(summaries) == 4  # 2 loads x 2 methods
        assert "asymptote" in text
        assert "record mix {8,8192}" in text
        assert all(result.conserves_bytes()
                   for summary in summaries for result in summary.results)

    def test_overload_response_time_grows_with_load(self):
        # Open loop far beyond saturation: mean response time at the highest
        # load must exceed the lightest load's (the asymptote, test-sized).
        from repro.experiments.service import service_overload_figure

        summaries, _text = service_overload_figure(
            loads=(25.0, 800.0), methods=("traditional",), trials=1,
            n_cps=2, n_iops=1, n_disks=1, n_requests=8, n_files=2,
            file_size=64 * KILOBYTE, layout="contiguous", concurrency=2,
            seed=7)
        by_load = {summary.config.workload.arrival_rate:
                   summary.results[0].mean_response_time
                   for summary in summaries}
        assert by_load[800.0] > by_load[25.0]


class TestSchedulerComparison:
    """Cross-collective IOP scheduling plugged into the service family."""

    def test_disk_scheduler_participates_in_cache_key(self):
        base = tiny_service_config()
        shared = tiny_service_config(disk_scheduler="shared-cscan")
        assert trial_cache_key(base, 7) != trial_cache_key(shared, 7)

    def test_shared_cscan_trial_conserves_bytes(self):
        result = run_service_experiment(
            tiny_service_config(disk_scheduler="shared-cscan"))
        assert result.conserves_bytes()

    def test_serial_parallel_determinism_with_shared_queues(self):
        configs = [tiny_service_config(disk_scheduler=scheduler)
                   for scheduler in ("fcfs", "shared-cscan")]
        serial = sweep(configs, trials=2)
        parallel = sweep_parallel(configs, trials=2, workers=2)
        for serial_summary, parallel_summary in zip(serial, parallel):
            assert results_as_dicts(serial_summary) == \
                results_as_dicts(parallel_summary)

    def test_shared_cscan_beats_per_collective_sort_under_concurrency(self):
        # The K>1 pathology and its fix, at test scale: 8 concurrent DDIO
        # collectives over random-layout files on a small machine.  The
        # shared elevator must improve BOTH throughput and p99 response
        # time over per-collective presorted lists on a FCFS drive queue.
        overrides = dict(n_cps=8, n_iops=4, n_disks=4, n_requests=24,
                         n_files=12, file_size=1024 * KILOBYTE,
                         layout="random", concurrency=8,
                         arrival_rate=8.0, seed=0)
        fcfs = run_service_experiment(tiny_service_config(**overrides))
        cscan = run_service_experiment(
            tiny_service_config(disk_scheduler="shared-cscan", **overrides))
        assert cscan.throughput_mb > fcfs.throughput_mb
        assert cscan.response_percentile(0.99) < fcfs.response_percentile(0.99)

    def test_scheduler_figure_smoke(self):
        from repro.experiments.service import service_scheduler_figure

        summaries, text = service_scheduler_figure(
            loads=(100.0,), concurrencies=(1, 2),
            schedulers=("fcfs", "shared-cscan"), trials=1,
            n_cps=2, n_iops=1, n_disks=1, n_requests=4, n_files=2,
            file_size=64 * KILOBYTE, layout="contiguous", seed=7)
        assert len(summaries) == 4  # 2 K x 2 schedulers x 1 load
        assert "shared-cscan" in text
        assert "99th-percentile" in text

    def test_scheduler_figure_sweeps_policies_and_pools(self):
        from repro.experiments.service import service_scheduler_figure

        summaries, text = service_scheduler_figure(
            loads=(100.0,), concurrencies=(2,),
            schedulers=("fcfs", "shared-sstf", "shared-cscan"),
            pool_sizes=(1, 2), trials=1,
            n_cps=2, n_iops=1, n_disks=1, n_requests=4, n_files=2,
            file_size=64 * KILOBYTE, layout="contiguous", seed=7)
        # fcfs once (pool size is meaningless there), each shared policy at
        # both pool sizes: 1 + 2*2 = 5 configs.
        assert len(summaries) == 5
        assert "shared-sstf" in text
        pools = {(s.config.disk_scheduler, s.config.shared_queue_workers)
                 for s in summaries}
        assert ("shared-cscan", 1) in pools and ("shared-cscan", 2) in pools

    def test_shared_queue_workers_participates_in_cache_key(self):
        base = tiny_service_config(disk_scheduler="shared-cscan")
        wider = tiny_service_config(disk_scheduler="shared-cscan",
                                    shared_queue_workers=4)
        assert trial_cache_key(base, 7) != trial_cache_key(wider, 7)
