"""Experiment descriptions and aggregated trial results."""

import math
import statistics
from dataclasses import dataclass, field, replace

from repro.core.base import filesystem_class
from repro.fs.layout import layout_class
from repro.machine import MachineConfig
from repro.machine.machine import check_machine_options
from repro.patterns.registry import parse_pattern_name

#: 2^20 bytes, the paper's "Mbyte".
MEGABYTE = 2 ** 20

#: The paper's file size: 10 MB = 1280 eight-kilobyte blocks.
PAPER_FILE_SIZE = 10 * MEGABYTE

#: The two record sizes the paper reports (8 bytes and one full block).
PAPER_RECORD_SIZES = (8, 8192)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one data point (one method, one configuration)."""

    method: str = "disk-directed"
    pattern: str = "rb"
    record_size: int = 8192
    layout: str = "contiguous"
    file_size: int = PAPER_FILE_SIZE
    n_cps: int = 16
    n_iops: int = 16
    n_disks: int = 16
    block_size: int = 8192
    #: machine-wide scheduling knob: a drive-queue policy (``fcfs`` /
    #: ``sstf`` / ``cscan``) or a cross-collective IOP policy
    #: (``shared-cscan`` etc.) — see :class:`repro.machine.Machine`.
    disk_scheduler: str = "fcfs"
    #: storage backend: ``disk`` (the paper's HP 97560) or ``ssd`` (the
    #: flash model of :mod:`repro.disk.flash`, bandwidth-matched to the
    #: disk) — see :class:`repro.machine.Machine`.
    device: str = "disk"
    #: redundancy scheme: ``none`` or ``parity`` (the declustered RAID-5
    #: layer of :mod:`repro.disk.redundancy`: rotated parity, hot spare,
    #: degraded reads and background rebuild) — see
    #: :class:`repro.machine.Machine`.
    redundancy: str = "none"
    seed: int = 0
    label: str = ""

    def __post_init__(self):
        # Fail at construction, not inside the sweep that runs the point.
        check_machine_options(build_machine_config(self), self.disk_scheduler,
                              device=self.device, redundancy=self.redundancy)
        filesystem_class(self.method)
        layout_class(self.layout)
        parse_pattern_name(self.pattern)

    def with_overrides(self, **kwargs):
        """Copy with some fields replaced."""
        return replace(self, **kwargs)

    def describe(self):
        """Readable one-liner for logs and reports."""
        return (f"{self.method} {self.pattern} rs={self.record_size} "
                f"{self.layout} {self.file_size // MEGABYTE} MB "
                f"cps={self.n_cps} iops={self.n_iops} disks={self.n_disks}")


def build_machine_config(config):
    """Translate an :class:`ExperimentConfig` into a :class:`MachineConfig`."""
    return MachineConfig(n_cps=config.n_cps, n_iops=config.n_iops,
                         n_disks=config.n_disks, block_size=config.block_size)


@dataclass
class TrialSummary:
    """Aggregate of the replicated trials of one experiment."""

    config: ExperimentConfig
    results: list = field(default_factory=list)

    @property
    def throughputs_mb(self):
        """Per-trial normalised throughput in Mbytes/s."""
        return [result.throughput_mb for result in self.results]

    @property
    def mean_throughput_mb(self):
        """Mean throughput over the trials."""
        if not self.results:
            return 0.0
        return statistics.fmean(self.throughputs_mb)

    @property
    def stdev_throughput_mb(self):
        """Sample standard deviation (0 with fewer than two trials)."""
        if len(self.results) < 2:
            return 0.0
        return statistics.stdev(self.throughputs_mb)

    @property
    def coefficient_of_variation(self):
        """cv = stdev / mean, the dispersion measure the paper quotes."""
        mean = self.mean_throughput_mb
        if mean == 0 or math.isnan(mean):
            return 0.0
        return self.stdev_throughput_mb / mean

    @property
    def mean_elapsed(self):
        """Mean simulated transfer time in seconds."""
        if not self.results:
            return 0.0
        return statistics.fmean(result.elapsed for result in self.results)

    def as_row(self):
        """Flat dictionary for report tables."""
        return {
            "label": self.config.label or self.config.method,
            "method": self.config.method,
            "pattern": self.config.pattern,
            "record_size": self.config.record_size,
            "layout": self.config.layout,
            "cps": self.config.n_cps,
            "iops": self.config.n_iops,
            "disks": self.config.n_disks,
            "throughput_mb": self.mean_throughput_mb,
            "cv": self.coefficient_of_variation,
            "trials": len(self.results),
        }
