"""Pin: random-layout placements against digests recorded before the cap.

A random-layout file's per-disk placement used to keep its generator, its
current batch of uniforms and its map of displaced slots for as long as the
file existed.  It now knows how many slots the file uses on each disk
(``fit_file``, called by :class:`~repro.fs.file.StripedFile`), drops
that state once the last of them is drawn, and refuses slots past them.
Before that change, the lbn of every block of random-layout files of
several sizes, with and without parity, was recorded
(``tests/data/reference_path_digests.json``, section ``random_placement``);
these tests hold the current placements to them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.fs import FileSystem
from repro.machine import MachineConfig

PIN_PATH = (Path(__file__).resolve().parents[1] / "data"
            / "reference_path_digests.json")

BLOCK = 8192
CONFIG = MachineConfig(n_cps=4, n_iops=2, n_disks=6)
#: file sizes in blocks: under one stripe, exact stripes, ragged stripes,
#: and per-disk counts on both sides of the 128-uniform batch
SIZES = (1, 5, 6, 7, 64, 6 * 128, 6 * 128 + 1, 6 * 129 + 5)
REDUNDANCIES = ("none", "parity")
LAYOUT_SEEDS = (0, 11)


def placement_lbns(redundancy, layout_seed):
    """Every block's lbn, per file, for one file system of random files."""
    filesystem = FileSystem(CONFIG, layout_seed=layout_seed,
                            redundancy=redundancy)
    lbns = {}
    for size in SIZES:
        striped = filesystem.create_file(f"f{size}", size * BLOCK,
                                         layout="random")
        lbns[str(size)] = [striped.location(block).lbn
                           for block in range(striped.n_blocks)]
    return lbns


def lbns_digest(lbns):
    blob = json.dumps(lbns, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def case_name(redundancy, layout_seed):
    return f"{redundancy}-{layout_seed}"


def recorded():
    with open(PIN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["random_placement"]


@pytest.mark.parametrize("redundancy", REDUNDANCIES)
@pytest.mark.parametrize("layout_seed", LAYOUT_SEEDS)
def test_placements_match_the_recording(redundancy, layout_seed):
    pin = recorded()[case_name(redundancy, layout_seed)]
    assert lbns_digest(placement_lbns(redundancy, layout_seed)) == pin


def random_file(n_blocks, redundancy="none"):
    filesystem = FileSystem(CONFIG, layout_seed=3, redundancy=redundancy)
    return filesystem.create_file("f", n_blocks * BLOCK, layout="random")


def placements(striped):
    layout = striped.layout
    layout = getattr(layout, "inner", layout)
    return layout._placements


@pytest.mark.parametrize("redundancy", REDUNDANCIES)
def test_placement_holds_no_generator_after_the_last_slot(redundancy):
    striped = random_file(6 * 130, redundancy)
    for block in range(striped.n_blocks - CONFIG.n_disks):
        striped.location(block)
    assert all(placement._rng is not None
               for placement in placements(striped).values())
    for block in range(striped.n_blocks - CONFIG.n_disks, striped.n_blocks):
        striped.location(block)
    for placement in placements(striped).values():
        assert placement._rng is None
        assert placement._chunk is None
        assert placement._displaced is None


@pytest.mark.parametrize("redundancy", REDUNDANCIES)
def test_every_disk_drops_state_on_a_ragged_file(redundancy):
    # 13 blocks over 6 disks: disk 0 holds 3, the others 2 each.
    striped = random_file(13, redundancy)
    for block in range(striped.n_blocks):
        striped.location(block)
    assert sorted(placements(striped)) == list(range(CONFIG.n_disks))
    for placement in placements(striped).values():
        assert placement._rng is None
        assert placement._chunk is None
        assert placement._displaced is None


@pytest.mark.parametrize("redundancy", REDUNDANCIES)
def test_slot_past_the_file_raises(redundancy):
    # 13 blocks over 6 disks: disk 0 holds 3, the others 2 each.
    striped = random_file(13, redundancy)
    for disk in range(CONFIG.n_disks):
        slots = len(striped.blocks_on_disk(disk))
        assert striped.layout.lbn_of(disk, slots - 1) >= 0
        with pytest.raises(ValueError):
            striped.layout.lbn_of(disk, slots)
    with pytest.raises(ValueError):
        striped.layout.lbn_of(5, 40)


def test_disks_past_a_short_file_have_no_slots():
    striped = random_file(4)
    for block in range(striped.n_blocks):
        striped.location(block)
    assert sorted(placements(striped)) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        striped.layout.lbn_of(4, 0)
