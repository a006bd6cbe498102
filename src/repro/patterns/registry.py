"""Pattern names, matrix/grid sizing and the ``make_pattern`` factory.

The names follow the paper exactly: ``r``/``w`` prefix for read/write, then
either ``a`` (ALL), one distribution letter (1-D vector) or two letters
(2-D matrix, row dimension first).  The redundant combinations the paper drops
(``rnn`` = ``rn``, ``rnc`` = ``rc``, ``rbn`` = ``rb``) are accepted and mapped
onto their canonical equivalents.
"""

import math

from repro.patterns.distribution import Distribution
from repro.patterns.pattern import AllPattern, MatrixPattern

#: Read patterns plotted in Figures 3 and 4, in the paper's order.
READ_PATTERN_NAMES = (
    "ra", "rn", "rb", "rc",
    "rnb", "rbb", "rcb", "rbc", "rcc", "rcn",
)

#: Write patterns plotted in Figures 3 and 4 (there is no ``wa``).
WRITE_PATTERN_NAMES = (
    "wn", "wb", "wc",
    "wnb", "wbb", "wcb", "wbc", "wcc", "wcn",
)

#: Every pattern used in the paper's evaluation.
PATTERN_NAMES = READ_PATTERN_NAMES + WRITE_PATTERN_NAMES


def choose_matrix_dims(n_records):
    """Pick a near-square ``rows x cols`` factorisation of *n_records*.

    The paper stores a two-dimensional array row-major in the file; it does
    not fix the aspect ratio, so we use the most nearly square exact
    factorisation (rows <= cols).  Prime or awkward counts degrade gracefully
    toward a flat matrix.
    """
    if n_records < 1:
        raise ValueError(f"need at least one record, got {n_records}")
    best_rows = 1
    limit = int(math.isqrt(n_records))
    for candidate in range(limit, 0, -1):
        if n_records % candidate == 0:
            best_rows = candidate
            break
    return best_rows, n_records // best_rows


def choose_cp_grid(n_cps, row_dist, col_dist):
    """Arrange *n_cps* processors into the grid implied by the distributions.

    A dimension distributed NONE gets a grid extent of 1; if both dimensions
    are distributed, the grid is the most nearly square factorisation of the
    CP count (this reproduces the 2x2 grid the paper's Figure 2 uses for four
    CPs).
    """
    row_none = row_dist is Distribution.NONE
    col_none = col_dist is Distribution.NONE
    if row_none and col_none:
        return 1, 1
    if row_none:
        return 1, n_cps
    if col_none:
        return n_cps, 1
    best_rows = 1
    limit = int(math.isqrt(n_cps))
    for candidate in range(limit, 0, -1):
        if n_cps % candidate == 0:
            best_rows = candidate
            break
    return best_rows, n_cps // best_rows


def parse_pattern_name(name):
    """``(mode, distributions)`` of pattern *name*; ``ValueError`` if malformed.

    The ALL pattern (``ra``) has no distributions.
    """
    name = name.lower()
    if len(name) < 2 or name[0] not in ("r", "w"):
        raise ValueError(
            f"pattern name {name!r} must start with 'r' (read) or 'w' (write)")
    mode = "read" if name[0] == "r" else "write"
    spec = name[1:]
    if spec == "a":
        return mode, ()
    if len(spec) > 2:
        raise ValueError(f"pattern name {name!r} has too many distribution letters")
    return mode, tuple(Distribution.from_letter(letter) for letter in spec)


def make_pattern(name, file_size, record_size, n_cps, matrix_dims=None):
    """Build the :class:`AccessPattern` for the paper's pattern *name*.

    ``matrix_dims`` optionally pins the matrix shape for 2-D patterns;
    otherwise a near-square factorisation of the record count is used.
    """
    name = name.lower()
    mode, distributions = parse_pattern_name(name)
    if not distributions:
        return AllPattern(name, mode, file_size, record_size, n_cps)

    n_records = file_size // record_size
    if len(distributions) == 1:
        row_dist = Distribution.NONE
        col_dist = distributions[0]
        rows, cols = 1, n_records
    else:
        row_dist, col_dist = distributions
        if matrix_dims is not None:
            rows, cols = matrix_dims
        else:
            rows, cols = choose_matrix_dims(n_records)

    grid_rows, grid_cols = choose_cp_grid(n_cps, row_dist, col_dist)
    return MatrixPattern(
        name=name,
        mode=mode,
        file_size=file_size,
        record_size=record_size,
        n_cps=n_cps,
        rows=rows,
        cols=cols,
        row_dist=row_dist,
        col_dist=col_dist,
        grid_rows=grid_rows,
        grid_cols=grid_cols,
    )
