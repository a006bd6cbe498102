"""Striped files: block-by-block declustering over all disks."""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BlockLocation:
    """Where one file block lives: which disk, and which sector on that disk."""

    file_block: int
    disk_index: int
    local_index: int
    lbn: int


class StripedFile:
    """A file striped block by block over *n_disks* disks.

    File block ``b`` lives on disk ``b % n_disks`` and is the
    ``b // n_disks``-th block of the file on that disk; the physical layout
    then decides the sector address of that per-disk slot.
    """

    def __init__(self, name, size_bytes, block_size, n_disks, layout):
        if size_bytes <= 0:
            raise ValueError(f"file size must be positive, got {size_bytes}")
        if block_size <= 0:
            raise ValueError(f"block size must be positive, got {block_size}")
        if n_disks <= 0:
            raise ValueError(f"need at least one disk, got {n_disks}")
        self.name = name
        self.size_bytes = size_bytes
        self.block_size = block_size
        self.n_disks = n_disks
        self.layout = layout
        self.n_blocks = math.ceil(size_bytes / block_size)
        layout.fit_file(self.n_blocks, n_disks)

    # -- striping ------------------------------------------------------------------
    def disk_of_block(self, file_block):
        """Disk index holding *file_block*."""
        self._check_block(file_block)
        return file_block % self.n_disks

    def local_index_of_block(self, file_block):
        """Position of *file_block* among the blocks on its disk."""
        self._check_block(file_block)
        return file_block // self.n_disks

    def location(self, file_block):
        """Full :class:`BlockLocation` for *file_block*."""
        self._check_block(file_block)
        disk_index = file_block % self.n_disks
        local_index = file_block // self.n_disks
        lbn = self.layout.lbn_of(disk_index, local_index)
        return BlockLocation(file_block=file_block, disk_index=disk_index,
                             local_index=local_index, lbn=lbn)

    def blocks_on_disk(self, disk_index):
        """All file blocks that live on *disk_index*, in file order."""
        if disk_index < 0 or disk_index >= self.n_disks:
            raise ValueError(f"disk {disk_index} out of range [0, {self.n_disks})")
        return list(range(disk_index, self.n_blocks, self.n_disks))

    # -- byte-range helpers ------------------------------------------------------------
    def block_of_offset(self, offset):
        """File block containing byte *offset*."""
        if offset < 0 or offset >= self.size_bytes:
            raise ValueError(f"offset {offset} outside file of {self.size_bytes} bytes")
        return offset // self.block_size

    def block_pieces(self, offset, length):
        """Split the byte range ``[offset, offset+length)`` at block boundaries.

        Yields ``(file_block, offset_in_block, piece_length)`` tuples, in file
        order.  This is exactly the decomposition a traditional-caching CP
        performs when a request spans several file blocks.
        """
        if length < 0:
            raise ValueError(f"negative length {length}")
        if offset < 0 or offset + length > self.size_bytes:
            raise ValueError(
                f"range [{offset}, {offset + length}) outside file of "
                f"{self.size_bytes} bytes")
        position = offset
        remaining = length
        while remaining > 0:
            block = position // self.block_size
            offset_in_block = position % self.block_size
            piece = min(remaining, self.block_size - offset_in_block)
            yield (block, offset_in_block, piece)
            position += piece
            remaining -= piece

    def _check_block(self, file_block):
        if file_block < 0 or file_block >= self.n_blocks:
            raise ValueError(
                f"block {file_block} out of range [0, {self.n_blocks})")
