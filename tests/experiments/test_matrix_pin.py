"""The zero-perturbation differential: 88 pinned trial digests.

The flash backend merged a new device axis through ``Machine``, the
experiment configs, the cache keys and the figures CLI; the redundancy PR
then merged a parity layer the same way.  None of that is allowed to move
a single bit of any existing ``device="disk"``, ``redundancy="none"``
result.  The matrix in :mod:`repro.experiments.matrix` runs 88 trials
spanning both experiment families — every pattern, both methods, both
layouts, all schedulers, faults, admission disciplines, streaming,
multiple seeds, parity/integrity cells, and (appended last) flash, the
fully degraded array, one-block sessions, two-phase I/O and retained
backlogs deeper than the spawn window — and this suite compares their
result digests against the committed pins
(``tests/data/disk_matrix_digests.json``).
"""

import json

from repro.experiments.config import ExperimentConfig
from repro.experiments.matrix import (
    DIGEST_PATH,
    compare,
    load_pinned,
    matrix_trials,
    result_digest,
    run_matrix,
)
from repro.experiments.runner import run_experiment
from repro.experiments.service import ServiceExperimentConfig


class TestMatrixShape:
    def test_exactly_88_trials(self):
        # Append-only: 68 pre-redundancy cells + 9 parity/integrity cells
        # + 6 flash/degraded/one-block cells + 3 two-phase cells
        # + 2 backlog cells.
        assert len(matrix_trials()) == 88

    def test_keys_are_unique(self):
        keys = [key for key, _config, _seed in matrix_trials()]
        assert len(keys) == len(set(keys))

    def test_covers_both_experiment_families(self):
        configs = [config for _key, config, _seed in matrix_trials()]
        assert any(isinstance(config, ExperimentConfig)
                   and not isinstance(config, ServiceExperimentConfig)
                   for config in configs)
        assert any(isinstance(config, ServiceExperimentConfig)
                   for config in configs)

    def test_only_the_flash_cells_leave_the_disk(self):
        """The first 77 trials pin *disk* results; no trial may drift to
        flash except the cells appended for it."""
        for key, config, _seed in matrix_trials():
            expected = "ssd" if ":ssd" in key else "disk"
            assert config.device == expected, key
        devices = [config.device for _key, config, _seed in matrix_trials()]
        assert devices[:77] == ["disk"] * 77
        assert devices.count("ssd") == 4

    def test_multiple_seeds_are_exercised(self):
        seeds = {seed for _key, _config, seed in matrix_trials()}
        assert len(seeds) >= 2


class TestDigest:
    def test_digest_is_deterministic(self):
        _key, config, seed = matrix_trials()[0]
        result = run_experiment(config, seed=seed)
        assert result_digest(result) == result_digest(result)
        assert len(result_digest(result)) == 64  # sha256 hex

    def test_digest_distinguishes_results(self):
        _key, config, seed = matrix_trials()[0]
        first = result_digest(run_experiment(config, seed=seed))
        other = result_digest(run_experiment(config, seed=seed + 17))
        assert first != other


class TestPinnedFile:
    def test_pin_file_exists_and_is_complete(self):
        pinned = load_pinned()
        assert set(pinned) == {key for key, _c, _s in matrix_trials()}
        for digest in pinned.values():
            assert isinstance(digest, str) and len(digest) == 64

    def test_pin_file_is_plain_json(self):
        with open(DIGEST_PATH, encoding="utf-8") as handle:
            raw = json.load(handle)
        assert len(raw) == 88

    def test_compare_reports_mismatch_and_missing(self):
        pinned = {"a": "1", "b": "2"}
        diff = compare({"a": "1", "b": "changed", "c": "3"}, pinned)
        assert "digest moved: b" in diff
        assert "unpinned trial: c" in diff
        assert not any("a" in line.split() for line in diff)
        assert compare({"a": "1", "b": "2"}, pinned) == []


class TestBitIdentity:
    def test_all_88_trials_match_the_pins(self):
        """THE differential: flash and parity merged, no digest moved."""
        diff = compare(run_matrix(), load_pinned())
        assert diff == [], (
            f"{len(diff)} trial(s) diverged from the committed pins: "
            f"{sorted(diff)}")
