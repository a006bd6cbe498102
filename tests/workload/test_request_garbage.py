"""A served disk request is freed by reference counting alone.

A request's completion event carries the request as its value; if the
request kept holding the event, every served request would be a reference
cycle that only a full collection frees, and a long run's garbage would
grow with its session count.  Both devices detach the event before firing
it, and a service run closes its environment when it ends, so a finished
run leaves no cyclic garbage at all, whatever the number of sessions.
"""

import gc

import pytest

from repro.disk.drive import DiskRequest
from repro.machine import MachineConfig
from repro.workload import ServiceWorkload, run_service

MACHINE = MachineConfig(n_cps=2, n_iops=1, n_disks=4)


def cyclic_garbage(method, n_sessions, device="disk"):
    """``(unreachable objects, DiskRequests among them)`` after one run."""
    workload = ServiceWorkload(
        n_requests=n_sessions, arrival="poisson", arrival_rate=30.0,
        concurrency=4, n_files=16, file_size=8192, layout="contiguous",
        read_fraction=0.7, pattern_specs=("b",), record_size=8192)
    gc.collect()
    gc.disable()
    try:
        run_service(method, workload, machine_config=MACHINE, seed=3,
                    device=device, retain_requests=False)
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        requests = sum(isinstance(obj, DiskRequest) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return found, requests


@pytest.mark.parametrize("device", ["disk", "ssd"])
@pytest.mark.parametrize("method", ["disk-directed", "traditional"])
def test_served_requests_are_not_cyclic_garbage(method, device):
    small, small_requests = cyclic_garbage(method, 20, device)
    large, large_requests = cyclic_garbage(method, 200, device)
    assert small_requests == large_requests == 0
    assert small == large == 0
