"""Pin: the single-piece Memput collapse is bit-identical to the spawn path.

``DiskDirectedFS._deliver_to_cps`` / ``_gather_from_cps`` used to spawn a
``Process`` + ``AllOf`` even when a block maps to exactly one CP piece (the
common case for block-aligned patterns).  The collapse runs the single
``_memput`` fragment inline — same yields, same instants, one less process
and join event per block.  The spawn-per-piece path is gone; its timings and
counters were recorded before it was deleted
(``tests/data/reference_path_digests.json``, section ``spawned_memput``),
and these tests hold the inline path to them bit for bit.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro import DiskDirectedFS, FileSystem, Machine, MachineConfig, make_pattern
from repro.sim.process import Process

KILOBYTE = 1024

PIN_PATH = (Path(__file__).resolve().parents[1] / "data"
            / "reference_path_digests.json")


def spawned_pins():
    with open(PIN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["spawned_memput"]


def counters_digest(counters):
    blob = json.dumps(counters, sort_keys=True, separators=(",", ":"),
                      default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_ddio(pattern_name, *, record_size=8192, layout="random",
             file_size=256 * KILOBYTE, seed=1, config=None):
    config = config or MachineConfig(n_cps=4, n_iops=4, n_disks=4)
    machine = Machine(config, seed=seed)
    filesystem = FileSystem(config, layout_seed=seed)
    striped = filesystem.create_file("pin-file", file_size, layout=layout)
    pattern = make_pattern(pattern_name, file_size, record_size, config.n_cps)
    implementation = DiskDirectedFS(machine, striped)
    return implementation.transfer(pattern)


def assert_matches_spawned(result, pattern_name, record_size, layout):
    pin = spawned_pins()[f"{pattern_name}-{record_size}-{layout}"]
    assert result.elapsed == float.fromhex(pin["elapsed"])  # no approx
    assert counters_digest(result.counters) == pin["counters"]


#: Pattern/record-size mix covering single-piece blocks (rb/wb at 8 KB),
#: many-piece blocks (cyclic 8-byte records — the collapse must not fire)
#: and the broadcast pattern.
CASES = [
    ("rb", 8192),
    ("wb", 8192),
    ("rc", 8192),
    ("rcc", 8),
    ("wcc", 8),
    ("ra", 8192),
]


class TestCollapseEquivalence:
    @pytest.mark.parametrize("pattern_name,record_size", CASES)
    def test_bit_identical_timing_and_counters(self, pattern_name, record_size):
        collapsed = run_ddio(pattern_name, record_size=record_size)
        assert_matches_spawned(collapsed, pattern_name, record_size, "random")

    def test_collapse_is_the_default(self, monkeypatch):
        """Single-piece blocks spawn no Memput process; many-piece blocks
        still fan out one per CP piece."""
        names = Counter()
        original = Process.__init__

        def counting_init(self, env, generator):
            names[generator.__name__] += 1
            original(self, env, generator)

        monkeypatch.setattr(Process, "__init__", counting_init)
        run_ddio("rb", record_size=8192)
        assert names["_memput"] == 0
        run_ddio("rcc", record_size=8)
        assert names["_memput"] > 0

    def test_equivalence_holds_on_contiguous_layout_too(self):
        collapsed = run_ddio("rb", layout="contiguous")
        assert_matches_spawned(collapsed, "rb", 8192, "contiguous")
