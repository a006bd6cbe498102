"""The shape of the service config and build-time rejection of bad configs.

``ServiceExperimentConfig`` holds its workload, fault and controller configs
instead of copies of their fields, and :func:`service_config` sends each
flat keyword to the dataclass that declares it.  Every invalid value below
is rejected when the config is built, not when a sweep runs it.
"""

import dataclasses

import pytest

from repro.disk.faults import FaultConfig
from repro.experiments import (
    ExperimentConfig,
    ServiceExperimentConfig,
    service_config,
)
from repro.workload import ServiceWorkload
from repro.workload.admission import ControllerConfig

SUB_CONFIGS = (ServiceWorkload, FaultConfig, ControllerConfig)


def field_names(cls):
    return {field.name for field in dataclasses.fields(cls)}


class TestShape:
    def test_no_field_is_declared_twice(self):
        own = field_names(ServiceExperimentConfig)
        for cls in SUB_CONFIGS:
            assert own & field_names(cls) <= {"seed"}, cls.__name__

    def test_sub_configs_share_no_field_name(self):
        # service_config relies on this to route a flat keyword.
        for index, cls in enumerate(SUB_CONFIGS):
            for other in SUB_CONFIGS[index + 1:]:
                assert not field_names(cls) & field_names(other), \
                    (cls.__name__, other.__name__)

    def test_copy_methods_are_gone(self):
        for name in ("workload", "controller_config", "fault_config",
                     "_faults", "machine_config"):
            assert not callable(getattr(ServiceExperimentConfig, name, None)), \
                name


class TestServiceConfig:
    def test_keywords_reach_the_declaring_config(self):
        config = service_config(arrival_rate=3.0, slow_disk=1,
                                slow_factor=2.0, target_p99=2.0, n_disks=4,
                                seed=5)
        assert config.workload.arrival_rate == 3.0
        assert config.faults.slow_disk == 1
        assert config.controller == ControllerConfig(target_p99=2.0)
        assert config.n_disks == 4
        assert config.seed == 5
        assert config.workload.seed == 0

    def test_keywords_refine_a_sub_config_given_whole(self):
        config = service_config(faults=FaultConfig(transient_rate=0.01),
                                slow_disk=0, slow_factor=4.0)
        assert config.faults == FaultConfig(transient_rate=0.01, slow_disk=0,
                                            slow_factor=4.0)

    def test_defaults_are_healthy_and_uncontrolled(self):
        config = service_config()
        assert config == ServiceExperimentConfig()
        assert not config.faults.enabled
        assert config.controller is None

    def test_unknown_keyword_raises(self):
        with pytest.raises(ValueError, match="fault_slow_disk"):
            service_config(fault_slow_disk=0)


#: Invalid service configs, as flat keywords; each builds at the parent.
INVALID_SERVICE = {
    "disk_scheduler": dict(disk_scheduler="bogus"),
    "admission_policy": dict(admission_policy="bogus"),
    "device": dict(device="floppy"),
    "redundancy": dict(redundancy="raid6"),
    "shared_queue_workers": dict(disk_scheduler="shared-cscan",
                                 shared_queue_workers=0),
    "on_fault": dict(on_fault="explode", transient_rate=0.01),
    "arrival": dict(arrival="bursty"),
    "concurrency": dict(concurrency=0),
    "arrival_rate": dict(arrival_rate=-1.0),
    "size_distribution": dict(size_distribution="zipf"),
    "size_alpha": dict(size_distribution="pareto", size_alpha=0.9),
    "interval": dict(target_p99=2.0, interval=0.0),
    "n_files": dict(n_files=0),
    "file_size": dict(file_size=4096, record_size=8192),
    "record_sizes": dict(record_sizes=(0,)),
    "n_cps": dict(n_cps=0),
    "block_size": dict(block_size=0),
    "priority_levels": dict(priority_levels=0),
    "deadline_slack": dict(deadline_slack=-1.0),
    "pattern_specs": dict(pattern_specs=("zz",)),
    "layout": dict(layout="spiral"),
    "file_assignment": dict(file_assignment="hash"),
    "read_fraction": dict(read_fraction=2.0),
    "method": dict(method="magic"),
}

#: Invalid single-collective configs.
INVALID_SINGLE = {
    "n_cps": dict(n_cps=0),
    "disk_scheduler": dict(disk_scheduler="bogus"),
    "device": dict(device="x"),
    "layout": dict(layout="spiral"),
    "pattern": dict(pattern="rz"),
    "block_size": dict(block_size=100),
    "method": dict(method="magic"),
}


@pytest.mark.parametrize("family, settings", [
    *(pytest.param(service_config, settings, id=f"service-{name}")
      for name, settings in INVALID_SERVICE.items()),
    *(pytest.param(ExperimentConfig, settings, id=f"single-{name}")
      for name, settings in INVALID_SINGLE.items()),
])
def test_invalid_config_fails_when_built(family, settings):
    with pytest.raises(ValueError):
        family(**settings)


def test_valid_shapes_still_build():
    service_config(n_iops=4, n_disks=2)
    service_config(disk_scheduler="shared-sstf", shared_queue_workers=1,
                   device="ssd", redundancy="parity", n_disks=4)
    ExperimentConfig(pattern="ra", layout="random", method="two-phase")
