"""Pin: FTL allocation and GC against digests recorded from the eager FTL.

The flash translation layer used to build a live table and a free-list entry
for every erase block when constructed.  It now opens a block's table when
the block is first allocated, drops it at erase, and hands out never-used
blocks from a cursor ahead of a FIFO of erased ones.  Before that change,
seeded op sequences (writes skewed to a hot set, trims, many GC cycles,
both victim policies) were run through the eager FTL and their physical
page sequence, GC reports and final wear were recorded
(``tests/data/reference_path_digests.json``, section ``ftl_allocation``).
These tests hold the current FTL to them bit for bit, and check that
construction cost follows the blocks a run opens, not the device size.
"""

import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from repro.disk.flash import FlashTranslationLayer, matched_ssd_spec

PIN_PATH = (Path(__file__).resolve().parents[1] / "data"
            / "reference_path_digests.json")

#: (logical pages, pages per block, blocks, low water, high water)
SHAPES = {
    "small": (60, 4, 20, 2, 4),
    "wide": (200, 8, 32, 3, 6),
}
POLICIES = ("greedy", "cost-benefit")
SEEDS = (0, 1)
N_OPS = 2500
#: share of ops that trim; share of writes aimed at the hot fifth of lpns
TRIM_SHARE = 0.1
HOT_SHARE = 0.7


def ftl_trace(shape, policy, seed):
    """Run a seeded op sequence; returns every observable the FTL reports."""
    logical, pages_per_block, blocks, low, high = SHAPES[shape]
    ftl = FlashTranslationLayer(logical, pages_per_block, blocks,
                                gc_policy=policy, gc_low_water=low,
                                gc_high_water=high)
    rng = random.Random(seed)
    hot = max(1, logical // 5)
    ops = []
    for _ in range(N_OPS):
        if rng.random() < TRIM_SHARE:
            lpn = rng.randrange(logical)
            ftl.trim(lpn)
            ops.append(["t", lpn, ftl.free_blocks])
            continue
        lpn = rng.randrange(hot) if rng.random() < HOT_SHARE \
            else rng.randrange(logical)
        ppn, report = ftl.write(lpn)
        ops.append(["w", lpn, ppn, report.relocated, report.erases,
                    ftl.free_blocks])
    return {
        "ops": ops,
        "erase_counts": list(ftl.erase_counts),
        "counters": ftl.counters(),
        "map": sorted(ftl._map.items()),
    }


def trace_digest(trace):
    blob = json.dumps(trace, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def case_name(shape, policy, seed):
    return f"{shape}-{policy}-{seed}"


CASES = [(shape, policy, seed) for shape in SHAPES for policy in POLICIES
         for seed in SEEDS]


def recorded():
    with open(PIN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["ftl_allocation"]


@pytest.mark.parametrize("shape,policy,seed", CASES,
                         ids=[case_name(*case) for case in CASES])
def test_allocation_matches_the_eager_ftl(shape, policy, seed):
    trace = ftl_trace(shape, policy, seed)
    pin = recorded()[case_name(shape, policy, seed)]
    assert trace["counters"]["erases"] == pin["erases"]
    assert trace_digest(trace) == pin["digest"]


def test_cases_cycle_every_block_through_gc():
    # The pins only mean something if the erased-block FIFO is exercised:
    # every case erases each block several times over.
    for shape, policy, seed in CASES:
        blocks = SHAPES[shape][2]
        assert recorded()[case_name(shape, policy, seed)]["erases"] \
            > 5 * blocks


class TestLazyBlockState:
    def test_fresh_ftl_holds_no_block_tables(self):
        ftl = FlashTranslationLayer(60, 4, 20)
        assert ftl.free_blocks == 20
        assert not ftl._block_live

    def test_tables_follow_open_blocks(self):
        ftl = FlashTranslationLayer(60, 4, 20)
        for lpn in range(9):
            ftl.write(lpn)
        # Two sealed blocks and the open third one.
        assert sorted(ftl._block_live) == [0, 1, 2]
        assert ftl.free_blocks == 17
        ftl.check_consistency()

    def test_erased_blocks_drop_their_tables(self):
        ftl = FlashTranslationLayer(60, 4, 20)
        for step in range(400):
            ftl.write(step % 6)
        assert ftl.erases > 0
        # Exactly the blocks out of the free pool (open or sealed) keep one.
        assert len(ftl._block_live) == 20 - ftl.free_blocks
        ftl.check_consistency()

    def test_tampered_free_pool_is_caught(self):
        ftl = FlashTranslationLayer(60, 4, 20)
        for step in range(400):
            ftl.write(step % 6)
        ftl.check_consistency()
        live_block = next(block for block, live in ftl._block_live.items()
                          if live)
        ftl._erased.append(live_block)     # a live block in the free pool
        with pytest.raises(AssertionError):
            ftl.check_consistency()

    def test_tampered_never_used_block_is_caught(self):
        ftl = FlashTranslationLayer(60, 4, 20)
        ftl.write(0)
        ftl._valid[19] = 1                 # a never-used block claims data
        with pytest.raises(AssertionError):
            ftl.check_consistency()


def traced_bytes_per_block(spec):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ftl = FlashTranslationLayer(
            spec.logical_pages, spec.pages_per_block, spec.physical_blocks,
            gc_policy=spec.gc_policy, gc_low_water=spec.gc_low_water,
            gc_high_water=spec.gc_high_water)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert ftl.free_blocks == spec.physical_blocks
    return held / spec.physical_blocks


@pytest.mark.parametrize("scale", [1, 16])
def test_construction_allocates_at_most_32_bytes_per_block(scale):
    """Three per-block counters (valid, seal time, wear) and nothing else:
    the eager FTL held about 134 bytes per block."""
    base = matched_ssd_spec()
    spec = matched_ssd_spec(total_sectors=base.total_sectors * scale)
    assert traced_bytes_per_block(spec) <= 32
