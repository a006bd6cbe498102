"""Physical placement of a file's blocks on each disk.

A layout answers one question: given that a disk holds the k-th, 2k-th, ...
stripe units of a file, at which logical block number (sector address) does
each of those stripe units live?  ``contiguous`` places them back to back;
``random-blocks`` scatters them uniformly over the disk, which is the paper's
stand-in for a badly aged / fully declustered file system (and also models a
request for an arbitrary subset of blocks of a much larger file).
"""

import numpy as np


class PhysicalLayout:
    """Base class: maps per-disk block slots to sector addresses."""

    name = "abstract"

    def __init__(self, spec, block_size):
        if block_size % spec.sector_size:
            raise ValueError(
                f"block size {block_size} is not a multiple of the sector size")
        self.spec = spec
        self.block_size = block_size
        self.sectors_per_block = block_size // spec.sector_size
        self.blocks_per_disk = spec.total_sectors // self.sectors_per_block

    def lbn_of(self, disk_index, local_block_index):
        """Sector address of the *local_block_index*-th file block on *disk_index*."""
        raise NotImplementedError

    def check_capacity(self, blocks_needed):
        """Raise if a single disk cannot hold *blocks_needed* file blocks."""
        if blocks_needed > self.blocks_per_disk:
            raise ValueError(
                f"file needs {blocks_needed} blocks per disk but the disk only has "
                f"{self.blocks_per_disk}")


class ContiguousLayout(PhysicalLayout):
    """File blocks laid out in consecutive physical blocks, starting at an extent base."""

    name = "contiguous"

    def __init__(self, spec, block_size, start_block=0):
        super().__init__(spec, block_size)
        if start_block < 0 or start_block >= self.blocks_per_disk:
            raise ValueError(f"start block {start_block} outside the disk")
        self.start_block = start_block

    def lbn_of(self, disk_index, local_block_index):
        physical_block = self.start_block + local_block_index
        if physical_block >= self.blocks_per_disk:
            raise ValueError(
                f"block slot {local_block_index} (+start {self.start_block}) "
                f"falls off the end of the disk")
        return physical_block * self.sectors_per_block

    def check_capacity(self, blocks_needed):
        """Raise if the extent starting at ``start_block`` cannot hold the file."""
        if self.start_block + blocks_needed > self.blocks_per_disk:
            raise ValueError(
                f"file needs {blocks_needed} blocks per disk at extent base "
                f"{self.start_block} but the disk only has {self.blocks_per_disk}")


class _PartialPermutation:
    """Lazily materialised prefix of a uniform random permutation of ``range(n)``.

    Classic Fisher–Yates, applied only as far as requested: ``get(i)`` is the
    i-th entry of the permutation, and extending the prefix never changes
    entries already drawn.  Step *i* always consumes the *i*-th uniform of
    the generator's stream, so the value at index *i* is a pure function of
    (rng seed, i) no matter in what order or how far the prefix is grown.

    Uniforms are drawn ``_CHUNK`` at a time and held as the float64 array
    numpy returned plus a cursor, but a swap is applied only when its index
    is asked for: placing *k* blocks costs *k* steps, and a full-disk
    permutation (what ``numpy.random.Generator.permutation`` materialises)
    is never built.
    """

    #: Uniforms drawn per batch; at most one batch is buffered at a time.
    _CHUNK = 128

    __slots__ = ("_rng", "_n", "_drawn", "_displaced", "_chunk", "_cursor")

    def __init__(self, rng, n):
        self._rng = rng
        self._n = n
        self._drawn = []       # permutation prefix materialised so far
        self._displaced = {}   # sparse tail: position -> value swapped into it
        self._chunk = None          # uniforms of the current batch
        self._cursor = self._CHUNK  # next unused uniform in ``_chunk``

    def get(self, index):
        drawn = self._drawn
        if index < len(drawn):
            return drawn[index]
        n = self._n
        displaced = self._displaced
        chunk = self._chunk
        cursor = self._cursor
        # One uniform double per step; j = i + floor(u * (n - i)) is the
        # Fisher-Yates partner drawn from [i, n).  u < 1 guarantees j < n.
        # Batches start at multiples of _CHUNK and only the last is short,
        # and no step runs past it, so a full cursor means "draw the next".
        for i in range(len(drawn), index + 1):
            if cursor == self._CHUNK:
                chunk = self._rng.random(min(self._CHUNK, n - i))
                cursor = 0
            j = i + int(chunk[cursor] * (n - i))
            cursor += 1
            value_i = displaced.pop(i, i)
            if j == i:
                drawn.append(value_i)
            else:
                drawn.append(displaced.pop(j, j))
                displaced[j] = value_i
        self._chunk = chunk
        self._cursor = cursor
        return drawn[index]


class RandomBlocksLayout(PhysicalLayout):
    """File blocks placed at uniformly random (distinct) physical blocks.

    Each disk gets its own permutation, derived deterministically from the
    layout seed and the disk index so experiments are reproducible and every
    disk's placement is independent.  The permutation is drawn lazily (partial
    Fisher–Yates): only the blocks a file actually places are materialised,
    and growing the prefix never changes already-placed blocks.
    """

    name = "random"

    def __init__(self, spec, block_size, seed=0):
        super().__init__(spec, block_size)
        self.seed = seed
        self._placements = {}

    def _placement_for(self, disk_index):
        placement = self._placements.get(disk_index)
        if placement is None:
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, disk_index]))
            placement = _PartialPermutation(rng, self.blocks_per_disk)
            self._placements[disk_index] = placement
        return placement

    def lbn_of(self, disk_index, local_block_index):
        if local_block_index >= self.blocks_per_disk:
            raise ValueError(
                f"block slot {local_block_index} exceeds disk capacity "
                f"{self.blocks_per_disk}")
        placement = self._placement_for(disk_index)
        return placement.get(local_block_index) * self.sectors_per_block


class ParityLayout(PhysicalLayout):
    """Steers a data layout's block slots clear of rotated parity rows.

    Under ``redundancy="parity"`` physical block row ``r`` stores its parity
    on drive ``r % D`` (see :mod:`repro.disk.redundancy`), so drive ``d``
    must not place file data in rows where ``r % D == d``.  This wrapper
    shrinks the inner layout's slot space to the per-drive *data* capacity
    and remaps each chosen slot to the slot-th non-parity row: slot ``s``
    on drive ``d`` lands in row ``(s // (D-1)) * D + j`` where ``j`` skips
    over ``d`` within the group of ``D`` rows.  Contiguous extents stay
    contiguous-in-data-rows; random placements stay uniform over data rows;
    and with redundancy off nothing here is ever constructed, so existing
    placements are untouched.
    """

    name = "parity"

    def __init__(self, inner, n_disks):
        if n_disks < 3:
            raise ValueError(
                f"parity layouts need at least 3 drives, got {n_disks}")
        self.spec = inner.spec
        self.block_size = inner.block_size
        self.sectors_per_block = inner.sectors_per_block
        self.n_disks = n_disks
        #: rows physically present per drive (data + parity)
        self.physical_rows = inner.blocks_per_disk
        # Shrink the inner layout's slot space to the data capacity *before*
        # any placement is drawn: contiguous bounds checks and random
        # permutations then range over data slots, which this wrapper maps
        # to physical rows.  Ceil keeps the capacity uniform across drives.
        data_capacity = self.physical_rows - \
            -(-self.physical_rows // n_disks)
        inner.blocks_per_disk = data_capacity
        self.inner = inner
        self.blocks_per_disk = data_capacity
        #: expose the inner layout's name so the file-system's contiguous
        #: extent cursor keeps working (cursor units become data slots)
        self.name = inner.name

    def data_row(self, disk_index, slot):
        """The physical row of drive *disk_index*'s *slot*-th data block."""
        group, rem = divmod(slot, self.n_disks - 1)
        j = rem if rem < disk_index else rem + 1
        return group * self.n_disks + j

    def lbn_of(self, disk_index, local_block_index):
        slot_lbn = self.inner.lbn_of(disk_index, local_block_index)
        row = self.data_row(disk_index, slot_lbn // self.sectors_per_block)
        if row >= self.physical_rows:
            raise ValueError(
                f"data slot maps to row {row} past the last physical row "
                f"{self.physical_rows - 1}")
        return row * self.sectors_per_block

    def check_capacity(self, blocks_needed):
        self.inner.check_capacity(blocks_needed)


_LAYOUTS = {
    ContiguousLayout.name: ContiguousLayout,
    RandomBlocksLayout.name: RandomBlocksLayout,
    # common aliases
    "random-blocks": RandomBlocksLayout,
    "random_blocks": RandomBlocksLayout,
}


def make_layout(name, spec, block_size, seed=0, start_block=0,
                redundancy="none", n_disks=None):
    """Construct a layout by name (``contiguous`` or ``random``/``random-blocks``).

    ``start_block`` positions a contiguous layout's extent base, which is how
    the :class:`~repro.fs.filesystem.FileSystem` gives several concurrently
    open files disjoint physical extents; random layouts ignore it (their
    placement is scattered over the whole disk and disambiguated by seed).

    ``redundancy="parity"`` (with ``n_disks`` giving the array width) wraps
    the layout in a :class:`ParityLayout` so data placement skips each
    drive's rotated parity rows; the default ``"none"`` changes nothing.
    """
    try:
        cls = _LAYOUTS[name]
    except KeyError:
        raise ValueError(f"unknown layout {name!r}; choose from {sorted(set(_LAYOUTS))}")
    if redundancy not in ("none", "parity"):
        raise ValueError(
            f"unknown redundancy {redundancy!r} (choose from ('none', 'parity'))")
    if cls is RandomBlocksLayout:
        layout = cls(spec, block_size, seed=seed)
    else:
        layout = cls(spec, block_size, start_block=start_block)
    if redundancy == "parity":
        if n_disks is None:
            raise ValueError("parity layouts need the array width (n_disks)")
        layout = ParityLayout(layout, n_disks)
    return layout
