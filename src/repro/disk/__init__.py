"""HP 97560 disk model and disk device simulation.

The paper's results depend on a validated model of the HP 97560 SCSI drive
(Ruemmler & Wilkes, "An introduction to disk drive modeling", IEEE Computer
1994; Kotz/Toh/Radhakrishnan TR94-220).  This package re-implements that model:

* :mod:`repro.disk.geometry` — logical-block to cylinder/head/sector mapping,
* :mod:`repro.disk.mechanics` — seek-time curve, rotational latency, media
  transfer rate,
* :mod:`repro.disk.cache` — the drive's on-board read-ahead cache, which is
  what rewards sequential (contiguous-layout) access,
* :mod:`repro.disk.scheduler` — request-queue scheduling policies (FCFS,
  SSTF, CSCAN, and the externally-directed order used by disk-directed I/O),
* :mod:`repro.disk.shared_queue` — the cross-collective IOP scheduler: one
  shared sorted queue per drive, merging requests from all active
  collective sessions (``Machine(disk_scheduler="shared-cscan")``),
* :mod:`repro.disk.drive` — the :class:`~repro.disk.drive.BlockDevice`
  request front end, and the :class:`~repro.disk.drive.Disk` device process
  on it that services block requests under a shared SCSI bus,
* :mod:`repro.disk.flash` — the :class:`~repro.disk.flash.SSD` flash device
  (FTL, erase-block GC, write cache, NCQ), the second ``BlockDevice``
  behind the ``Machine(device=...)`` axis.
"""

from repro.disk.cache import ReadAheadCache
from repro.disk.drive import Disk, DiskRequest, DiskStats, SessionDiskStats
from repro.disk.flash import (SSD, FlashTranslationLayer, SSDSpec,
                              matched_ssd_spec)
from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import SeekModel
from repro.disk.scheduler import (
    CScanScheduler,
    FcfsScheduler,
    SstfScheduler,
    make_scheduler,
)
from repro.disk.shared_queue import SharedDiskQueue
from repro.disk.specs import HP97560_SPEC, DiskSpec

__all__ = [
    "CScanScheduler",
    "Disk",
    "DiskGeometry",
    "DiskRequest",
    "DiskSpec",
    "DiskStats",
    "FcfsScheduler",
    "FlashTranslationLayer",
    "HP97560_SPEC",
    "ReadAheadCache",
    "SSD",
    "SSDSpec",
    "SeekModel",
    "SessionDiskStats",
    "SharedDiskQueue",
    "SstfScheduler",
    "make_scheduler",
    "matched_ssd_spec",
]
