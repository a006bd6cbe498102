"""A finished machine is freed by reference counting alone.

Every long-lived server (a drive's serve and destage loops, the SSD's NCQ
workers, a shared disk queue's workers, the IOP servers of disk-directed
I/O and traditional caching) parks holding only the event it waits on; the
waker hands the owner back as that event's value.  So a parked server is
no reference path back to its machine, and dropping the caller's last
reference to a finished machine frees it at once.  A service run goes
further: :meth:`ServiceDriver.run` ends with ``Environment.close()``, which
detaches and closes every live process and empties the calendar, so the
run leaves no cyclic garbage at all.

The tests run with the collector disabled: a weakref that is dead right
after ``del`` was freed by reference counting, and ``gc.collect()`` then
counts whatever cyclic garbage is left.

Parking changed how the servers wait, not what they do.  Two transfers on
one kept machine re-wake every parked server; their results were recorded
before the change (``tests/data/reference_path_digests.json``, section
``back_to_back_transfers``) and are held bit for bit here.  Regenerate that
section only for an intended model change::

    PYTHONPATH=src python tests/integration/test_machine_lifetime.py --write
"""

import gc
import hashlib
import json
import sys
import weakref
from pathlib import Path

import pytest

from repro import FileSystem, Machine, MachineConfig, make_filesystem, make_pattern
from repro.disk.faults import FaultConfig
from repro.workload import ServiceDriver, ServiceWorkload
from repro.workload.admission import ControllerConfig
from repro.workload.driver import build_service_machine

KILOBYTE = 1024
MEGABYTE = 1024 * KILOBYTE

PIN_PATH = (Path(__file__).resolve().parents[1] / "data"
            / "reference_path_digests.json")
PIN_SECTION = "back_to_back_transfers"

FAULTS = {
    "healthy": None,
    "fail-slow": FaultConfig(slow_disk=0, slow_factor=4.0, slow_start=0.0,
                             slow_duration=1e9),
    "fail-stop": FaultConfig(fail_stop_disk=1, fail_stop_time=0.05),
}

#: (redundancy, faults, controller): a fail-stop is only survivable, and
#: its rebuild only runs, behind parity
VARIANTS = [
    ("none", "healthy", False),
    ("parity", "fail-slow", True),
    ("parity", "fail-stop", False),
]

SERVICE_CELLS = [
    (method, device, scheduler, *variant)
    for method in ("disk-directed", "traditional")
    for device in ("disk", "ssd")
    for scheduler in ("fcfs", "shared-cscan")
    for variant in VARIANTS
]


def service_workload():
    return ServiceWorkload(
        n_requests=12, arrival="poisson", arrival_rate=40.0, concurrency=3,
        n_files=4, file_size=64 * KILOBYTE, layout="random",
        read_fraction=0.6, pattern_specs=("b", "c"), record_size=8192,
        seed=2)


def weakrefs(machine, *others):
    """Weak references to *machine*, every device it has, and *others*."""
    objects = [machine, *machine.disks, *machine.spare_disks,
               *(queue for queue in machine.shared_queues
                 if queue is not None), *others]
    if machine.parity is not None:
        objects.append(machine.parity)
    return [weakref.ref(obj) for obj in objects]


@pytest.fixture
def no_collector():
    """The collector off (after clearing what earlier tests left behind)."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize(
    "method,device,scheduler,redundancy,faults,controller", SERVICE_CELLS)
def test_service_run_leaves_no_garbage(no_collector, method, device,
                                       scheduler, redundancy, faults,
                                       controller):
    workload = service_workload()
    machine, implementation, files = build_service_machine(
        workload, machine_config=MachineConfig(n_cps=2, n_iops=2, n_disks=4),
        seed=2, method=method, device=device, disk_scheduler=scheduler,
        redundancy=redundancy, fault_config=FAULTS[faults])
    driver = ServiceDriver(
        machine, implementation, files, workload,
        controller=ControllerConfig(target_p99=0.5, interval=0.05)
        if controller else None)
    result = driver.run()
    assert result.conserves_bytes()
    if faults == "fail-stop":
        assert result.aggregates["rebuilt_rows"] > 0
    refs = weakrefs(machine, implementation, driver)
    del machine, implementation, files, driver
    assert [ref() for ref in refs if ref() is not None] == []
    assert gc.collect() == 0


@pytest.mark.parametrize("method", ["disk-directed", "traditional"])
@pytest.mark.parametrize("layout", ["random", "contiguous"])
@pytest.mark.parametrize("pattern_name", ["rb", "wb"])
def test_transfer_frees_the_machine_by_reference_counting(
        no_collector, method, layout, pattern_name):
    """A paper_grid-shaped cell: the Table 1 machine, one collective."""
    config = MachineConfig()
    machine = Machine(config, seed=3)
    striped = FileSystem(config, layout_seed=3).create_file(
        "cell", MEGABYTE, layout=layout)
    implementation = make_filesystem(method, machine, striped)
    implementation.transfer(
        make_pattern(pattern_name, MEGABYTE, 8192, config.n_cps))
    refs = weakrefs(machine, implementation)
    del machine, implementation
    assert [ref() for ref in refs if ref() is not None] == []


#: method x device x scheduler: between them they start every kind of
#: long-lived server the machine has
BACK_TO_BACK_CASES = [
    (method, device, scheduler)
    for method in ("disk-directed", "traditional")
    for device in ("disk", "ssd")
    for scheduler in ("fcfs", "shared-cscan")
]


def case_name(method, device, scheduler):
    return f"{method}-{device}-{scheduler}"


def counters_digest(counters):
    blob = json.dumps(counters, sort_keys=True, separators=(",", ":"),
                      default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def back_to_back(method, device, scheduler, file_size=256 * KILOBYTE):
    """A read, then a write, on one kept machine; what each one reports."""
    config = MachineConfig(n_cps=4, n_iops=2, n_disks=4)
    machine = Machine(config, seed=5, device=device,
                      disk_scheduler=scheduler)
    filesystem = FileSystem(config, layout_seed=5)
    striped = filesystem.create_file("kept", file_size, layout="random")
    implementation = make_filesystem(method, machine, striped)
    outcome = {}
    for pattern_name in ("rb", "wb"):
        pattern = make_pattern(pattern_name, file_size, 8192, config.n_cps)
        result = implementation.transfer(pattern)
        outcome[pattern_name] = {
            "start": result.start_time.hex(),
            "elapsed": result.elapsed.hex(),
            "counters": counters_digest(result.counters),
        }
    return outcome


def recorded():
    with open(PIN_PATH, encoding="utf-8") as handle:
        return json.load(handle)[PIN_SECTION]


@pytest.mark.parametrize("method,device,scheduler", BACK_TO_BACK_CASES)
def test_back_to_back_transfers_match_the_recording(method, device,
                                                    scheduler):
    pin = recorded()[case_name(method, device, scheduler)]
    assert back_to_back(method, device, scheduler) == pin


def write_pins():
    with open(PIN_PATH, encoding="utf-8") as handle:
        pins = json.load(handle)
    pins[PIN_SECTION] = {
        case_name(*case): back_to_back(*case) for case in BACK_TO_BACK_CASES}
    with open(PIN_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_pins()
