"""Access-pattern objects: who owns which records of the file."""

import math
from collections import namedtuple

import numpy as np

from repro.patterns.distribution import Distribution

#: Summary of one CP's share of one file block: how many bytes, in how many
#: non-contiguous pieces.  Disk-directed I/O uses this to charge the cost of
#: gathering/scattering the block into per-CP messages.
PieceSummary = namedtuple("PieceSummary", ["cp", "n_bytes", "n_pieces"])

#: How many records to process per numpy batch when streaming chunk lists.
_CHUNK_BATCH_RECORDS = 1 << 16

#: Below this many records per block, ``pieces_in_block`` uses scalar Python
#: arithmetic; numpy only wins once the per-block record count is sizeable
#: (small-record patterns such as 8-byte records in 8 KB blocks).
_SMALL_BLOCK_RECORDS = 64


class AccessPattern:
    """Base class: a mapping from file records to compute processors."""

    def __init__(self, name, mode, file_size, record_size, n_cps):
        if mode not in ("read", "write"):
            raise ValueError(f"mode must be 'read' or 'write', got {mode!r}")
        if record_size <= 0:
            raise ValueError(f"record size must be positive, got {record_size}")
        if file_size <= 0:
            raise ValueError(f"file size must be positive, got {file_size}")
        if file_size % record_size:
            raise ValueError(
                f"file size {file_size} is not a whole number of "
                f"{record_size}-byte records")
        if n_cps < 1:
            raise ValueError(f"need at least one CP, got {n_cps}")
        self.name = name
        self.mode = mode
        self.file_size = file_size
        self.record_size = record_size
        self.n_cps = n_cps
        self.n_records = file_size // record_size

    # -- to be provided by subclasses ------------------------------------------
    def owners_of(self, record_indices):
        """CP owning each of *record_indices* (ndarray in, ndarray out)."""
        raise NotImplementedError

    def chunks_for_cp(self, cp):
        """Yield ``(byte_offset, byte_length)`` runs accessed by *cp*, in file order."""
        raise NotImplementedError

    def pieces_in_block(self, block_index, block_size):
        """Per-CP :class:`PieceSummary` for file block *block_index*."""
        raise NotImplementedError

    def bytes_for_cp(self, cp):
        """Total bytes transferred to/from *cp*."""
        raise NotImplementedError

    # -- common helpers -----------------------------------------------------------
    @property
    def is_read(self):
        """True for ``r*`` patterns."""
        return self.mode == "read"

    @property
    def is_write(self):
        """True for ``w*`` patterns."""
        return self.mode == "write"

    def participating_cps(self):
        """CPs that transfer at least one byte."""
        return [cp for cp in range(self.n_cps) if self.bytes_for_cp(cp) > 0]

    def total_transfer_bytes(self):
        """Total bytes crossing the I/O system (counting re-reads for ``ra``)."""
        return sum(self.bytes_for_cp(cp) for cp in range(self.n_cps))

    def chunk_count_for_cp(self, cp):
        """Number of contiguous file runs *cp* accesses (useful for tests/benches)."""
        return sum(1 for _ in self.chunks_for_cp(cp))

    def describe(self):
        """A short human-readable summary used in reports."""
        return (f"{self.name}: {self.mode}, {self.n_records} x "
                f"{self.record_size}-byte records over {self.n_cps} CPs")

    def __repr__(self):
        return f"<{type(self).__name__} {self.describe()}>"


class AllPattern(AccessPattern):
    """The ``ra`` pattern: every CP reads the entire file."""

    def __init__(self, name, mode, file_size, record_size, n_cps):
        super().__init__(name, mode, file_size, record_size, n_cps)
        if mode != "read":
            raise ValueError("the ALL pattern only makes sense for reads")

    def owners_of(self, record_indices):
        raise ValueError("the ALL pattern has no single owner per record")

    def chunks_for_cp(self, cp):
        self._check_cp(cp)
        yield (0, self.file_size)

    def pieces_in_block(self, block_index, block_size):
        start = block_index * block_size
        if start >= self.file_size:
            return []
        n_bytes = min(block_size, self.file_size - start)
        return [PieceSummary(cp=cp, n_bytes=n_bytes, n_pieces=1)
                for cp in range(self.n_cps)]

    def bytes_for_cp(self, cp):
        self._check_cp(cp)
        return self.file_size

    def _check_cp(self, cp):
        if cp < 0 or cp >= self.n_cps:
            raise ValueError(f"CP {cp} out of range [0, {self.n_cps})")


class MatrixPattern(AccessPattern):
    """A (possibly degenerate) 2-D matrix distributed over a grid of CPs.

    The matrix has ``rows x cols`` records stored row-major; the CP grid has
    ``grid_rows x grid_cols`` positions (also row-major); each dimension is
    distributed with NONE, BLOCK or CYCLIC.  One-dimensional patterns are the
    special case ``rows == 1``.
    """

    def __init__(self, name, mode, file_size, record_size, n_cps,
                 rows, cols, row_dist, col_dist, grid_rows, grid_cols):
        super().__init__(name, mode, file_size, record_size, n_cps)
        if rows * cols != self.n_records:
            raise ValueError(
                f"matrix {rows}x{cols} does not hold {self.n_records} records")
        if grid_rows * grid_cols > n_cps:
            raise ValueError(
                f"CP grid {grid_rows}x{grid_cols} larger than {n_cps} CPs")
        self.rows = rows
        self.cols = cols
        self.row_dist = Distribution(row_dist)
        self.col_dist = Distribution(col_dist)
        self.grid_rows = grid_rows
        self.grid_cols = grid_cols
        # Memoised plan: the pattern is immutable, and the service driver
        # shares one instance across every session with the same shape.
        self._cp_bytes = None
        self._total_bytes = None
        self._chunks = {}

    # -- ownership -------------------------------------------------------------
    def owners_of(self, record_indices):
        indices = np.asarray(record_indices, dtype=np.int64)
        row = indices // self.cols
        col = indices % self.cols
        grid_row = self.row_dist.grid_index_of(row, self.rows, self.grid_rows)
        grid_col = self.col_dist.grid_index_of(col, self.cols, self.grid_cols)
        return grid_row * self.grid_cols + grid_col

    def bytes_for_cp(self, cp):
        if cp < 0 or cp >= self.n_cps:
            raise ValueError(f"CP {cp} out of range [0, {self.n_cps})")
        cp_bytes = self._cp_bytes
        if cp_bytes is None:
            cp_bytes = self._cp_bytes = tuple(
                self._owned_bytes(index) for index in range(self.n_cps))
        return cp_bytes[cp]

    def _owned_bytes(self, cp):
        grid_row, grid_col = divmod(cp, self.grid_cols)
        if grid_row >= self.grid_rows:
            return 0
        rows_owned = self.row_dist.owned_count(self.rows, self.grid_rows, grid_row)
        cols_owned = self.col_dist.owned_count(self.cols, self.grid_cols, grid_col)
        return rows_owned * cols_owned * self.record_size

    def total_transfer_bytes(self):
        total = self._total_bytes
        if total is None:
            total = self._total_bytes = super().total_transfer_bytes()
        return total

    # -- chunk enumeration (CP side) ------------------------------------------------
    def chunks_for_cp(self, cp):
        """Chunks of *cp*: a cached tuple when the pattern fits one batch.

        Larger patterns stream from a generator instead, so a transfer over
        millions of records never holds its whole chunk list.
        """
        if cp < 0 or cp >= self.n_cps:
            raise ValueError(f"CP {cp} out of range [0, {self.n_cps})")
        if self.n_records > _CHUNK_BATCH_RECORDS:
            return self._stream_chunks(cp)
        chunks = self._chunks.get(cp)
        if chunks is None:
            chunks = self._chunks[cp] = tuple(self._stream_chunks(cp))
        return chunks

    def _stream_chunks(self, cp):
        if self.bytes_for_cp(cp) == 0:
            return
        pending = None  # (start_record, length_records) run crossing batch boundary
        for batch_start in range(0, self.n_records, _CHUNK_BATCH_RECORDS):
            batch_end = min(batch_start + _CHUNK_BATCH_RECORDS, self.n_records)
            indices = np.arange(batch_start, batch_end, dtype=np.int64)
            mine = self.owners_of(indices) == cp
            if not mine.any():
                if pending is not None:
                    yield self._run_to_bytes(*pending)
                    pending = None
                continue
            starts, lengths = _runs_of_true(mine)
            # tolist() converts to Python ints in one C pass; per-element
            # int() calls dominate this loop for cyclic small-record
            # patterns (one run per record, 100k+ runs per transfer).
            for run_start, run_length in zip(starts.tolist(), lengths.tolist()):
                record_start = batch_start + run_start
                record_length = run_length
                if pending is not None:
                    pending_start, pending_length = pending
                    if pending_start + pending_length == record_start:
                        pending = (pending_start, pending_length + record_length)
                        continue
                    yield self._run_to_bytes(pending_start, pending_length)
                pending = (record_start, record_length)
        if pending is not None:
            yield self._run_to_bytes(*pending)

    def _run_to_bytes(self, record_start, record_length):
        return (record_start * self.record_size, record_length * self.record_size)

    def _owner_of_record(self, index):
        """Scalar counterpart of :meth:`owners_of` for the per-block fast path."""
        row, col = divmod(index, self.cols)
        grid_row = self.row_dist.grid_index_scalar(row, self.rows, self.grid_rows)
        grid_col = self.col_dist.grid_index_scalar(col, self.cols, self.grid_cols)
        return grid_row * self.grid_cols + grid_col

    # -- per-block pieces (IOP side) ---------------------------------------------------
    def pieces_in_block(self, block_index, block_size):
        block_start = block_index * block_size
        if block_start >= self.file_size:
            return []
        block_end = min(block_start + block_size, self.file_size)
        first_record = block_start // self.record_size
        last_record = (block_end - 1) // self.record_size
        if last_record - first_record < _SMALL_BLOCK_RECORDS:
            # Blocks holding few records (e.g. 8 KB records in 8 KB blocks, the
            # paper's common case) are much cheaper in plain Python than through
            # a dozen tiny-ndarray numpy calls.
            record_size = self.record_size
            owner_of = self._owner_of_record
            bytes_per = {}
            pieces_per = {}
            previous_owner = None
            for record in range(first_record, last_record + 1):
                owner = owner_of(record)
                start = record * record_size
                end = start + record_size
                overlap = ((end if end < block_end else block_end)
                           - (start if start > block_start else block_start))
                bytes_per[owner] = bytes_per.get(owner, 0) + overlap
                if owner != previous_owner:
                    pieces_per[owner] = pieces_per.get(owner, 0) + 1
                    previous_owner = owner
            return [PieceSummary(cp=cp, n_bytes=bytes_per[cp],
                                 n_pieces=pieces_per[cp])
                    for cp in sorted(pieces_per)]
        records = np.arange(first_record, last_record + 1, dtype=np.int64)
        owners = self.owners_of(records)

        record_starts = records * self.record_size
        record_ends = record_starts + self.record_size
        overlaps = (np.minimum(record_ends, block_end)
                    - np.maximum(record_starts, block_start))

        # Count contiguous runs per owner: a run boundary is wherever the owner
        # changes between adjacent records.
        boundaries = np.ones(len(records), dtype=bool)
        boundaries[1:] = owners[1:] != owners[:-1]

        bytes_per_cp = np.bincount(owners, weights=overlaps, minlength=self.n_cps)
        pieces_per_cp = np.bincount(owners[boundaries], minlength=self.n_cps)
        return [PieceSummary(cp=cp, n_bytes=int(bytes_per_cp[cp]),
                             n_pieces=int(pieces_per_cp[cp]))
                for cp in range(self.n_cps) if pieces_per_cp[cp] > 0]


def _runs_of_true(mask):
    """Start indices and lengths of maximal runs of True in a boolean array."""
    if not mask.any():
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    padded = np.concatenate(([False], mask, [False]))
    changes = np.diff(padded.astype(np.int8))
    starts = np.where(changes == 1)[0]
    ends = np.where(changes == -1)[0]
    return starts, ends - starts
