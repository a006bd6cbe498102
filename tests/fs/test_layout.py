"""Tests for physical disk layouts."""

import numpy as np
import pytest

from repro.disk import HP97560_SPEC
from repro.fs import ContiguousLayout, RandomBlocksLayout, make_layout
from repro.fs.layout import _PartialPermutation

BLOCK = 8192
SECTORS_PER_BLOCK = BLOCK // 512


class TestContiguousLayout:
    def test_blocks_are_adjacent(self):
        layout = ContiguousLayout(HP97560_SPEC, BLOCK)
        assert layout.lbn_of(0, 0) == 0
        assert layout.lbn_of(0, 1) == SECTORS_PER_BLOCK
        assert layout.lbn_of(0, 10) == 10 * SECTORS_PER_BLOCK

    def test_same_mapping_on_every_disk(self):
        layout = ContiguousLayout(HP97560_SPEC, BLOCK)
        assert layout.lbn_of(0, 7) == layout.lbn_of(5, 7)

    def test_start_block_offset(self):
        layout = ContiguousLayout(HP97560_SPEC, BLOCK, start_block=100)
        assert layout.lbn_of(0, 0) == 100 * SECTORS_PER_BLOCK

    def test_bad_start_block_rejected(self):
        with pytest.raises(ValueError):
            ContiguousLayout(HP97560_SPEC, BLOCK, start_block=-1)

    def test_overflow_rejected(self):
        layout = ContiguousLayout(HP97560_SPEC, BLOCK)
        with pytest.raises(ValueError):
            layout.lbn_of(0, layout.blocks_per_disk)

    def test_block_size_must_divide_sectors(self):
        with pytest.raises(ValueError):
            ContiguousLayout(HP97560_SPEC, 1000)

    def test_capacity_check(self):
        layout = ContiguousLayout(HP97560_SPEC, BLOCK)
        layout.check_capacity(layout.blocks_per_disk)
        with pytest.raises(ValueError):
            layout.check_capacity(layout.blocks_per_disk + 1)


class TestRandomBlocksLayout:
    def test_placement_is_a_permutation(self):
        layout = RandomBlocksLayout(HP97560_SPEC, BLOCK, seed=3)
        lbns = {layout.lbn_of(0, i) for i in range(200)}
        assert len(lbns) == 200
        assert all(lbn % SECTORS_PER_BLOCK == 0 for lbn in lbns)

    def test_same_seed_same_placement(self):
        first = RandomBlocksLayout(HP97560_SPEC, BLOCK, seed=11)
        second = RandomBlocksLayout(HP97560_SPEC, BLOCK, seed=11)
        assert [first.lbn_of(0, i) for i in range(50)] == \
            [second.lbn_of(0, i) for i in range(50)]

    def test_different_seeds_differ(self):
        first = RandomBlocksLayout(HP97560_SPEC, BLOCK, seed=1)
        second = RandomBlocksLayout(HP97560_SPEC, BLOCK, seed=2)
        assert [first.lbn_of(0, i) for i in range(50)] != \
            [second.lbn_of(0, i) for i in range(50)]

    def test_disks_have_independent_placements(self):
        layout = RandomBlocksLayout(HP97560_SPEC, BLOCK, seed=5)
        assert [layout.lbn_of(0, i) for i in range(50)] != \
            [layout.lbn_of(1, i) for i in range(50)]

    def test_placement_is_scattered(self):
        layout = RandomBlocksLayout(HP97560_SPEC, BLOCK, seed=7)
        lbns = [layout.lbn_of(0, i) for i in range(64)]
        gaps = [abs(b - a) for a, b in zip(lbns, lbns[1:])]
        # Random placement means mostly large jumps between consecutive blocks.
        assert sum(gap > SECTORS_PER_BLOCK for gap in gaps) > len(gaps) // 2

    def test_index_past_capacity_rejected(self):
        layout = RandomBlocksLayout(HP97560_SPEC, BLOCK, seed=1)
        with pytest.raises(ValueError):
            layout.lbn_of(0, layout.blocks_per_disk + 10)


class TestPartialPermutation:
    """The lazily-grown Fisher-Yates behind RandomBlocksLayout."""

    def _fresh(self, seed=7, n=10000):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        return _PartialPermutation(rng, n)

    def test_prefix_independent_of_growth_order(self):
        grown_in_steps = self._fresh()
        all_at_once = self._fresh()
        stepwise = [grown_in_steps.get(i) for i in range(1500)]
        all_at_once.get(1499)  # jump straight to the deep index
        jumped = [all_at_once.get(i) for i in range(1500)]
        assert stepwise == jumped

    def test_growing_never_rewrites_existing_entries(self):
        perm = self._fresh()
        prefix = [perm.get(i) for i in range(100)]
        perm.get(5000)
        assert [perm.get(i) for i in range(100)] == prefix

    def test_full_draw_is_a_permutation(self):
        n = 997  # deliberately not a chunk multiple
        perm = _PartialPermutation(np.random.default_rng(3), n)
        values = [perm.get(i) for i in range(n)]
        assert sorted(values) == list(range(n))

    def test_values_stay_in_range(self):
        perm = self._fresh(n=300)
        assert all(0 <= perm.get(i) < 300 for i in range(300))


class _EagerPermutation:
    """Reference: the chunk-eager partial Fisher–Yates.

    Each growth applies every swap up to the next multiple of 128 at once.
    The lazy permutation must return the same value at every index, whatever
    the order in which indices are asked for.
    """

    _CHUNK = 128

    def __init__(self, rng, n):
        self._rng = rng
        self._n = n
        self._drawn = []
        self._displaced = {}

    def get(self, index):
        if index >= len(self._drawn):
            self._extend(index + 1)
        return self._drawn[index]

    def _extend(self, needed):
        chunk = self._CHUNK
        n = self._n
        target = min(-(-needed // chunk) * chunk, n)
        drawn = self._drawn
        displaced = self._displaced
        start = len(drawn)
        for u in self._rng.random(target - start):
            i = start
            j = i + int(u * (n - i))
            value_i = displaced.pop(i, i)
            if j == i:
                drawn.append(value_i)
            else:
                drawn.append(displaced.pop(j, j))
                displaced[j] = value_i
            start += 1


class TestPartialPermutationMatchesEagerReference:
    @staticmethod
    def _access_order(n, seed):
        """Indices in a random order that jumps back and forth over chunk
        boundaries: every index of a small permutation, and a sample of the
        first 20,000 of a large one."""
        order_rng = np.random.default_rng(seed)
        if n <= 300:
            return order_rng.permutation(n).tolist()
        sample = order_rng.choice(20_000, size=600, replace=False).tolist()
        return sample + [127, 128, 129, 255, 256, 19_999]

    @pytest.mark.parametrize("n", [1, 5, 127, 128, 129, 300, 2 ** 20])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_same_value_at_every_index(self, n, seed):
        lazy = _PartialPermutation(
            np.random.default_rng(np.random.SeedSequence([seed, 3])), n)
        eager = _EagerPermutation(
            np.random.default_rng(np.random.SeedSequence([seed, 3])), n)
        order = self._access_order(n, seed + 1)
        lazy_values = [lazy.get(index) for index in order]
        eager_values = [eager.get(index) for index in sorted(order)]
        assert dict(zip(order, lazy_values)) == \
            dict(zip(sorted(order), eager_values))

    def test_layout_matches_reference_on_every_disk(self):
        layout = RandomBlocksLayout(HP97560_SPEC, BLOCK, seed=9)
        for disk in range(3):
            eager = _EagerPermutation(
                np.random.default_rng(np.random.SeedSequence([9, disk])),
                layout.blocks_per_disk)
            order = self._access_order(layout.blocks_per_disk, disk)[:200]
            assert [layout.lbn_of(disk, index) for index in order] == \
                [eager.get(index) * SECTORS_PER_BLOCK for index in order]


class TestRandomBlocksLayoutDeterminism:
    """Placement determinism guarantees across access patterns and instances."""

    def test_placement_independent_of_query_order(self):
        forward = RandomBlocksLayout(HP97560_SPEC, BLOCK, seed=13)
        backward = RandomBlocksLayout(HP97560_SPEC, BLOCK, seed=13)
        n = 300
        forward_lbns = [forward.lbn_of(0, i) for i in range(n)]
        backward_lbns = [backward.lbn_of(0, i) for i in reversed(range(n))]
        assert forward_lbns == list(reversed(backward_lbns))

    def test_small_file_prefix_matches_larger_file(self):
        # A 10-block file and a 1000-block file on the same (seed, disk) must
        # place their common prefix identically: the placement of block i is a
        # pure function of (seed, disk, i).
        small = RandomBlocksLayout(HP97560_SPEC, BLOCK, seed=21)
        large = RandomBlocksLayout(HP97560_SPEC, BLOCK, seed=21)
        small_lbns = [small.lbn_of(2, i) for i in range(10)]
        large_lbns = [large.lbn_of(2, i) for i in range(1000)]
        assert large_lbns[:10] == small_lbns

    def test_lazy_draw_touches_only_needed_prefix(self):
        layout = RandomBlocksLayout(HP97560_SPEC, BLOCK, seed=2)
        layout.lbn_of(0, 5)
        placement = layout._placement_for(0)
        assert len(placement._drawn) == 6


class _CountingRng:
    """Wraps a generator and records the uniforms drawn from it."""

    def __init__(self, rng):
        self._rng = rng
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self._rng.random(size)


class TestPlacementWork:
    """Work guard: placing k blocks costs k swap steps, not a whole chunk."""

    @pytest.mark.parametrize("k", [1, 6, 127, 128, 129, 300])
    def test_k_blocks_apply_k_steps(self, k):
        rng = _CountingRng(np.random.default_rng(5))
        perm = _PartialPermutation(rng, 10_000)
        for index in range(k):
            perm.get(index)
        assert len(perm._drawn) == k
        assert len(perm._displaced) <= k
        assert perm._chunk.size <= _PartialPermutation._CHUNK
        # Uniforms come a whole chunk at a time, one chunk per 128 steps.
        assert rng.sizes == [128] * -(-k // 128)

    def test_deep_index_draws_only_its_steps(self):
        rng = _CountingRng(np.random.default_rng(5))
        perm = _PartialPermutation(rng, 1000)
        perm.get(999)
        assert len(perm._drawn) == 1000
        assert rng.sizes == [128] * 7 + [104]  # the last chunk ends at n
        assert not perm._displaced

    def test_layout_places_blocks_per_disk_on_demand(self):
        layout = RandomBlocksLayout(HP97560_SPEC, BLOCK, seed=4)
        for index in range(3):
            layout.lbn_of(1, index)
        placement = layout._placement_for(1)
        assert len(placement._drawn) == 3
        assert placement._chunk.size == _PartialPermutation._CHUNK
        assert list(layout._placements) == [1]


class TestFactory:
    def test_names_and_aliases(self):
        assert isinstance(make_layout("contiguous", HP97560_SPEC, BLOCK),
                          ContiguousLayout)
        assert isinstance(make_layout("random", HP97560_SPEC, BLOCK),
                          RandomBlocksLayout)
        assert isinstance(make_layout("random-blocks", HP97560_SPEC, BLOCK),
                          RandomBlocksLayout)

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError):
            make_layout("raid5", HP97560_SPEC, BLOCK)

    def test_seed_forwarded_to_random_layout(self):
        layout = make_layout("random", HP97560_SPEC, BLOCK, seed=99)
        assert layout.seed == 99
