"""Golden pins for the eight service-scale figures.

Each case below runs one ``FIGURES`` entry at a tiny scale and compares the
full rendered ``text`` — and, for the figures that write one, the JSON
artifact minus its ``regenerate`` command — against
``tests/data/figure_pins.json``.  The faults, admission, flash and rebuild
cases run each figure's full grid on a tiny machine, so a hang (under the
fault watchdog), a byte-conservation break or parity losing data fails
here in seconds, besides any moved digit.

The pins were generated once and are compared byte for byte: a change to
the figure pipeline that moves a digit of any table fails here.  To
regenerate after an intended change::

    PYTHONPATH=src python tests/experiments/test_figure_pins.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.experiments.figures import FIGURES

PIN_PATH = Path(__file__).resolve().parents[1] / "data" / "figure_pins.json"

KILOBYTE = 1024

#: Tiny machine for the service, scheduler and overload figures.
TINY = dict(n_cps=2, n_iops=1, n_disks=2, n_requests=4, n_files=2,
            file_size=64 * KILOBYTE, layout="contiguous", seed=7)

#: name -> keyword arguments of one tiny, deterministic call.
CASES = {
    "service": dict(loads=(100.0, 300.0), trials=3, concurrency=2, **TINY),
    "service-sched": dict(loads=(100.0,), concurrencies=(1, 2),
                          schedulers=("fcfs", "shared-cscan"),
                          pool_sizes=(1, 2), trials=2, **TINY),
    "service-overload": dict(loads=(100.0, 400.0), trials=3, concurrency=2,
                             **TINY),
    "service-millions": dict(loads=(200.0,), headline_load=800.0,
                             sweep_requests=40, headline_requests=120,
                             trials=1, n_cps=2, n_iops=2, n_disks=4,
                             n_files=4, concurrency=4),
    # Each figure's full grid on a tiny machine.
    "service-faults": dict(trials=1, n_cps=4, n_iops=4, n_disks=4,
                           n_requests=8, n_files=4, file_size=262144,
                           concurrency=2),
    "service-admission": dict(trials=1, n_cps=2, n_iops=2, n_disks=2,
                              n_requests=8, n_files=2, file_size=131072,
                              concurrency=2),
    "ddio-flash": dict(loads=(50.0,), trials=1, n_cps=2, n_iops=2,
                       n_disks=2, n_requests=8, n_files=2,
                       file_size=131072, concurrency=2),
    "service-rebuild": dict(devices=("disk",), trials=1, n_cps=2, n_iops=2,
                            n_disks=4, n_requests=6, n_files=2,
                            file_size=131072, concurrency=2,
                            fail_stop_time=0.01,
                            rebuild_bandwidth=16.0 * 2 ** 20),
}

#: Figures that write a JSON artifact when given ``json_path``.
ARTIFACT_FIGURES = ("service-millions", "service-faults",
                    "service-admission", "ddio-flash", "service-rebuild")


def render(name, directory):
    """Run one case; return its pin entry (text, and artifact if any)."""
    kwargs = dict(CASES[name])
    json_path = None
    if name in ARTIFACT_FIGURES:
        json_path = Path(directory) / f"{name}.json"
        kwargs["json_path"] = str(json_path)
    _summaries, text = FIGURES[name](**kwargs)
    entry = {"text": text}
    if json_path is not None:
        artifact = json.loads(json_path.read_text(encoding="utf-8"))
        artifact.pop("regenerate")
        entry["artifact"] = artifact
    return entry


def load_pins():
    with open(PIN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_service_figure_is_pinned():
    assert set(load_pins()) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_figure_matches_its_pin(name, tmp_path):
    pinned = load_pins()[name]
    entry = render(name, tmp_path)
    assert entry["text"] == pinned["text"]
    # Serialised, so the artifact's key order is pinned as well.
    assert json.dumps(entry.get("artifact")) == \
        json.dumps(pinned.get("artifact"))


def _write_pins():
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        pins = {name: render(name, directory) for name in sorted(CASES)}
    with open(PIN_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":  # pragma: no cover
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write_pins()
