"""Heavy-tailed file-size sampling for the service-style workload.

The uniform file sizes of the original service family are the easy case for
a parallel file server: every collective costs about the same, so queueing is
benign.  Real request-size distributions are heavy-tailed — the PC disk-trace
studies (Boukhobza & Timsit; see PAPERS.md) find a few huge transfers carrying
most of the bytes — and it is exactly that regime where admission, scheduling
and cache policies separate.  This module draws per-file sizes from a
configurable distribution:

* ``fixed`` — every file is ``mean_size`` bytes (the original behaviour);
* ``pareto`` — classical Pareto (type I) with tail index ``alpha``, scaled so
  the *distribution* mean equals ``mean_size`` (requires ``alpha > 1``);
* ``lognormal`` — log-normal with shape ``sigma``, scaled so the mean equals
  ``mean_size``.

Determinism mirrors :mod:`repro.workload.arrival`: the size of file *i* is a
pure function of ``(trial_seed, i)`` via :func:`file_size_rng` — independent
of how many files exist, of request order, and of which process pool runs the
trial — so serial and parallel sweeps stay bit-identical.

Sizes are rounded **up** to a multiple of ``granularity`` (the least common
multiple of every record size in the workload's mix, so every file holds a
whole number of records of every size) and clamped to ``max_size``, which
bounds the cost of one simulated trial: an unbounded Pareto draw with
``alpha`` close to 1 can otherwise produce a file that takes longer to
simulate than the rest of the stream combined.  The clamp truncates the tail,
so the *empirical* mean sits slightly below ``mean_size`` — reported, not
hidden: :func:`sample_file_sizes` returns plain integers the caller can sum.
"""

import math

import numpy as np

#: Domain separator: file-size draws never collide with the request streams
#: of :mod:`repro.workload.arrival` or the machine's layout/rotation streams,
#: even when they share a trial seed.
SIZE_STREAM_TAG = 741_391

#: Distributions :func:`sample_file_size` understands.
SIZE_DISTRIBUTIONS = ("fixed", "pareto", "lognormal")


def file_size_rng(trial_seed, file_index):
    """A generator that is a pure function of ``(trial_seed, file_index)``."""
    return np.random.default_rng(np.random.SeedSequence(
        [SIZE_STREAM_TAG, trial_seed, file_index]))


def _round_up(value, granularity):
    """Smallest multiple of *granularity* that is >= *value* (and positive)."""
    units = max(1, math.ceil(value / granularity))
    return units * granularity


def check_size_distribution(distribution, alpha=1.5, sigma=1.0):
    """Raise ``ValueError`` unless :func:`sample_file_size` can draw so."""
    if distribution not in SIZE_DISTRIBUTIONS:
        raise ValueError(
            f"unknown size distribution {distribution!r}; "
            f"choose one of {SIZE_DISTRIBUTIONS}")
    if distribution == "pareto" and alpha <= 1.0:
        raise ValueError(
            f"pareto tail index must be > 1 for a finite mean, got {alpha}")
    if distribution == "lognormal" and sigma <= 0.0:
        raise ValueError(f"lognormal sigma must be positive, got {sigma}")


def sample_file_size(distribution, mean_size, trial_seed, file_index,
                     alpha=1.5, sigma=1.0, granularity=8192, max_size=None):
    """Draw the size of file *file_index*, in bytes.

    The draw is deterministic per ``(trial_seed, file_index)``.  *mean_size*
    is the distribution mean before rounding/clamping; *granularity* and
    *max_size* bound the result to ``[granularity, max_size]`` in whole
    multiples of *granularity*.
    """
    check_size_distribution(distribution, alpha=alpha, sigma=sigma)
    if mean_size < granularity:
        raise ValueError(
            f"mean size {mean_size} smaller than granularity {granularity}")
    if distribution == "fixed":
        if mean_size % granularity:
            raise ValueError(
                f"fixed file size {mean_size} is not a multiple of the "
                f"record granularity {granularity}")
        return int(mean_size)

    rng = file_size_rng(trial_seed, file_index)
    if distribution == "pareto":
        # numpy's pareto() samples the Lomax form; (draw + 1) * scale is the
        # classical Pareto I with minimum `scale` and mean alpha*scale/(alpha-1).
        scale = mean_size * (alpha - 1.0) / alpha
        raw = (float(rng.pareto(alpha)) + 1.0) * scale
    else:  # lognormal
        mu = math.log(mean_size) - 0.5 * sigma * sigma
        raw = float(rng.lognormal(mu, sigma))
    size = _round_up(raw, granularity)
    if max_size is not None:
        cap = (max_size // granularity) * granularity
        if cap < granularity:
            raise ValueError(
                f"max size {max_size} admits no whole {granularity}-byte "
                f"record multiple")
        size = min(size, cap)
    return int(size)


def sample_file_sizes(distribution, mean_size, n_files, trial_seed,
                      alpha=1.5, sigma=1.0, granularity=8192, max_size=None):
    """Sizes of files ``0..n_files-1`` (one independent draw per file)."""
    return [sample_file_size(distribution, mean_size, trial_seed, index,
                             alpha=alpha, sigma=sigma, granularity=granularity,
                             max_size=max_size)
            for index in range(n_files)]
