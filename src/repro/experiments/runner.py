"""Run experiments: build the machine, the file and the pattern, then transfer.

Besides the serial :func:`sweep`, this module provides :func:`sweep_parallel`
(same results, fanned out over a process pool with deterministic per-trial
seeds) and :class:`ResultCache`, an on-disk JSON cache of single-trial results
keyed by a stable hash of the configuration, so regenerating figures is
incremental: only data points whose configuration changed are re-simulated.

The sweep machinery is generic over *experiment families*: a family is a
frozen config dataclass plus a ``run(config, seed)`` function, registered via
:func:`register_experiment_family`.  The paper's single-collective family
(:class:`ExperimentConfig` -> :class:`TransferResult`) registers itself below;
the service-style family lives in :mod:`repro.experiments.service`.
"""

import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict
from pathlib import Path

from repro.core import make_filesystem
from repro.core.result import TransferResult
from repro.experiments.config import ExperimentConfig, TrialSummary
from repro.fs import FileSystem
from repro.machine import Machine, MachineConfig
from repro.patterns import make_pattern

#: Bump to invalidate every cache entry when a model change alters results.
#: CI guards this: a change under the simulation model's source trees without
#: a bump here fails the schema-guard job (tools/check_schema_bump.py).
#:
#: 2 — cache entries grew a self-describing envelope (schema + result type);
#:     per-session counters replaced lifetime counters in TransferResult;
#:     traditional-caching writes now account bytes_moved.
#: 3 — cross-collective IOP scheduling (``disk_scheduler`` joined both
#:     config families and the cache key); TransferResult.counters became
#:     per-session (tagged disk service time / bus share replaced
#:     machine-cumulative stats); traditional caching drains per-session
#:     write-behind to the media instead of a machine-wide cache+disk flush.
#: 4 — overload-scale service study: heavy-tailed per-file sizes
#:     (``size_distribution``/``size_alpha``/``size_sigma``/``max_file_size``),
#:     per-request record-size mixes (``record_sizes``) and the shared-queue
#:     worker-pool knob (``shared_queue_workers``) joined the service config
#:     and cache key; traditional caching's per-record request streams are
#:     now simulator-batched per (CP, block) — same modeled CPU/DMA/header
#:     costs, collapsed event round-trips — and uncontended Resource grants
#:     are synchronous, both of which shift simulated timings slightly.
#: 5 — two-tier event calendar + device delay fusion (PR 5).  Pure simulator
#:     mechanics: results were verified bit-identical across both experiment
#:     families (the docs/data artifacts regenerate unchanged), so this bump
#:     is precautionary — the schema guard cannot distinguish a mechanics
#:     refactor from a model change, and a wasted cache fill is cheaper than
#:     a silently stale figure.
#: 6 — fault injection (PR 6).  ServiceExperimentConfig grew fault fields
#:     (all-defaults == healthy, verified bit-identical) and ServiceResult
#:     records grew per-request fault counters; cached envelopes from
#:     schema 5 lack those keys, so they must not be replayed.
#: 7 — constant-memory streaming driver (PR 7).  ServiceResult percentiles
#:     moved from sorted record lists to mergeable quantile sketches
#:     (``response_sketch``/``service_sketch``/``aggregates`` fields;
#:     ``retain_requests``/``streaming`` joined the service config and cache
#:     key), and cache entries grew a ``content_hash`` integrity stamp for
#:     the shared multi-host store; schema-6 envelopes lack all of these.
#: v8: the admission layer landed — ``ServiceResult`` grew ``admission``,
#:     ``controller`` and ``class_sketches`` fields plus drop/shed
#:     aggregates, and the service config grew the admission/controller
#:     knobs; schema-7 envelopes lack all of these.
#: v9: the flash backend landed — ``device`` joined both config families
#:     (and hence every cache key).  Disk results are bit-identical (the
#:     68-trial matrix of repro.experiments.matrix pins this), but schema-8
#:     envelopes were keyed without the device axis and must not be
#:     replayed against keys that now include it.
#: v10: the redundancy layer landed — ``redundancy`` joined both config
#:     families (plus ``checksums``/``rebuild_bandwidth`` and the
#:     silent-corruption fault knobs on the service side, all defaulting
#:     off).  ``redundancy="none"`` results are bit-identical (the digest
#:     matrix pins this), but schema-9 envelopes were keyed without the
#:     redundancy axis and must not be replayed against keys that include
#:     it.
#: v11: per-session bookkeeping cut from the service run path (no DDIO
#:     buffer thread for a disk without blocks, no wrapper processes for
#:     collective completion, memoised pattern plans).  No simulated result
#:     moved — the 86-trial digest matrix pins this — but the model sources
#:     changed, so entries are re-stamped.
#: v12: a drive or SSD detaches a request's completion events before firing
#:     them, so a served request is no longer a reference cycle.  No
#:     simulated result moved (the digest matrix pins this); entries are
#:     re-stamped because the model sources changed.
#: v13: random-blocks placement applies Fisher-Yates steps per placed block,
#:     and request generators are positioned from chunk-derived PCG64
#:     states instead of built per request.  No simulated result moved (the
#:     digest matrix pins this); entries are re-stamped because the model
#:     sources changed.
CACHE_SCHEMA_VERSION = 13


# -- experiment families --------------------------------------------------------

#: config type -> run function (config, seed) -> result dataclass
_TRIAL_RUNNERS = {}
#: result type name -> result class, for cache reconstruction
_RESULT_TYPES = {}


def register_experiment_family(config_type, run_fn, result_type):
    """Teach the sweep/cache machinery about a new experiment family.

    *config_type* must be a (frozen) dataclass with ``seed`` and ``label``
    fields; *run_fn(config, seed)* runs one trial; *result_type* is the
    dataclass ``run_fn`` returns (reconstructed from cached JSON as
    ``result_type(**fields)``).
    """
    _TRIAL_RUNNERS[config_type] = run_fn
    _RESULT_TYPES[result_type.__name__] = result_type


def run_trial(config, seed=None):
    """Run one trial of *config*, dispatching on its experiment family."""
    run_fn = _TRIAL_RUNNERS.get(type(config))
    if run_fn is None:
        raise TypeError(
            f"{type(config).__name__} is not a registered experiment family "
            f"(known: {sorted(cls.__name__ for cls in _TRIAL_RUNNERS)})")
    return run_fn(config, seed)


def build_machine_config(config):
    """Translate an :class:`ExperimentConfig` into a :class:`MachineConfig`."""
    return MachineConfig(
        n_cps=config.n_cps,
        n_iops=config.n_iops,
        n_disks=config.n_disks,
        block_size=config.block_size,
    )


def run_experiment(config, seed=None):
    """Run one trial of *config* and return its :class:`TransferResult`.

    The trial seed controls the random-blocks placement, the initial
    rotational position of every platter, and nothing else.
    """
    if not isinstance(config, ExperimentConfig):
        raise TypeError(f"expected ExperimentConfig, got {type(config).__name__}")
    trial_seed = config.seed if seed is None else seed
    machine_config = build_machine_config(config)
    machine = Machine(machine_config, seed=trial_seed,
                      disk_scheduler=config.disk_scheduler,
                      device=config.device,
                      redundancy=config.redundancy)
    filesystem = FileSystem(machine_config, layout_seed=trial_seed,
                            redundancy=config.redundancy)
    striped_file = filesystem.create_file(
        "experiment-file", config.file_size, layout=config.layout)
    if machine.parity is not None:
        machine.parity.register_file(striped_file)
    pattern = make_pattern(
        config.pattern, config.file_size, config.record_size, config.n_cps)
    implementation = make_filesystem(config.method, machine, striped_file)
    return implementation.transfer(pattern)


register_experiment_family(ExperimentConfig, run_experiment, TransferResult)


# -- result caching ------------------------------------------------------------

def trial_cache_key(config, seed):
    """Stable content hash identifying one (configuration, trial seed) result.

    The ``label`` field is cosmetic and the ``seed`` field is superseded by
    the effective trial seed, so neither participates in the key.  The config
    type participates, so two families whose configs happen to share field
    values can never collide.
    """
    payload = asdict(config)
    payload.pop("label", None)
    payload.pop("seed", None)
    payload["config_type"] = type(config).__name__
    payload["trial_seed"] = seed
    payload["schema"] = CACHE_SCHEMA_VERSION
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def _payload_hash(fields):
    """Canonical content hash of a result's fields (envelope excluded)."""
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"),
                      default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed shared store of single-trial result objects.

    One JSON file per trial, named by :func:`trial_cache_key` and sharded
    into 256 two-hex-digit subdirectories (a million-trial sweep must not
    produce a million-entry flat directory).  Entries are self-describing:
    alongside the result's fields they carry a ``schema`` stamp, the
    ``result_type`` to reconstruct, and a ``content_hash`` over the result
    payload, verified on every read.

    The store is safe to *share* — between the processes of one parallel
    sweep and between N hosts cooperating on one figure over a shared
    directory (NFS or synced):

    * Writes go through a temp file + atomic rename, so readers never
      observe torn entries and racing writers of the same key leave one
      complete entry (the key is a pure function of the config and seed, so
      both writers carry identical bytes of meaning).
    * Reads verify ``content_hash``; an entry corrupted in transit or on a
      shared filesystem degrades to a counted miss (``corrupt``) instead of
      poisoning a figure.
    * Entries whose ``schema`` differs from :data:`CACHE_SCHEMA_VERSION`
      are rejected and counted in ``stale`` — hosts running different model
      versions can share a directory without serving each other stale
      results.
    """

    #: entry keys reserved for the envelope (never result dataclass fields)
    _ENVELOPE_KEYS = ("schema", "result_type", "content_hash")

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: entries rejected because their schema stamp is not current
        self.stale = 0
        #: entries rejected because their content hash did not verify
        self.corrupt = 0

    def _path(self, key):
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key):
        """The cached result object for *key*, or ``None``.

        Unreadable or corrupt entries degrade to a miss (hash failures are
        additionally counted in ``corrupt``).  Entries whose ``schema``
        stamp differs from :data:`CACHE_SCHEMA_VERSION` (including
        pre-envelope entries with no stamp at all) are *rejected* — a model
        change must never serve stale figures — and counted in ``stale``.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            self.misses += 1
            return None
        if not isinstance(data, dict) \
                or data.get("schema") != CACHE_SCHEMA_VERSION:
            self.stale += 1
            self.misses += 1
            return None
        result_class = _RESULT_TYPES.get(data.get("result_type"))
        fields = {name: value for name, value in data.items()
                  if name not in self._ENVELOPE_KEYS}
        if data.get("content_hash") != _payload_hash(fields):
            self.corrupt += 1
            self.misses += 1
            return None
        try:
            result = result_class(**fields)
        except TypeError:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key, result):
        """Persist *result* under *key* (schema + type + hash envelope).

        Atomic (temp file + rename): a concurrent reader sees either nothing
        or a complete, hash-verified entry, never a prefix.
        """
        fields = asdict(result)
        data = dict(fields)
        data["schema"] = CACHE_SCHEMA_VERSION
        data["result_type"] = type(result).__name__
        data["content_hash"] = _payload_hash(fields)
        shard = self.directory / key[:2]
        shard.mkdir(parents=True, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=shard, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(data, handle)
            os.replace(tmp_path, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def clear(self):
        """Delete every cached entry (sharded and legacy flat layout)."""
        for pattern in ("*.json", "??/*.json"):
            for path in self.directory.glob(pattern):
                path.unlink(missing_ok=True)


def _as_cache(cache):
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


# -- trial running --------------------------------------------------------------

def run_trials(config, trials=5, base_seed=None, cache=None):
    """Replicate *config* over independent trials (the paper uses five)."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    cache = _as_cache(cache)
    first_seed = config.seed if base_seed is None else base_seed
    summary = TrialSummary(config=config)
    for trial in range(trials):
        seed = first_seed + trial
        result = None
        key = None
        if cache is not None:
            key = trial_cache_key(config, seed)
            result = cache.get(key)
        if result is None:
            result = run_trial(config, seed=seed)
            if cache is not None:
                cache.put(key, result)
        summary.results.append(result)
    return summary


def sweep(configs, trials=1, base_seed=None, progress=None, cache=None):
    """Run a list of configurations; returns a list of :class:`TrialSummary`.

    *progress*, if given, is called with ``(index, total, summary)`` after each
    configuration finishes — handy for long command-line sweeps.
    """
    cache = _as_cache(cache)
    summaries = []
    total = len(configs)
    for index, config in enumerate(configs):
        summary = run_trials(config, trials=trials, base_seed=base_seed,
                             cache=cache)
        summaries.append(summary)
        if progress is not None:
            progress(index, total, summary)
    return summaries


def _run_trial_job(job):
    """Top-level worker so :class:`ProcessPoolExecutor` can pickle it."""
    config, seed = job
    return run_trial(config, seed=seed)


def trial_cost_estimate(config):
    """Rough relative wall-clock cost of one trial, for dispatch ordering only.

    Trial costs in one sweep can span two orders of magnitude: a paper-scale
    traditional-caching point with 8-byte records is ~100x costlier to
    simulate than its disk-directed sibling (per-record request streams),
    and service configs multiply by the request count.  Dispatching
    longest-first with one job per pool task (work stealing) keeps such
    stragglers from serialising the tail of a parallel sweep.

    The estimate is a heuristic over fields common to the experiment
    families; it influences *scheduling order only* — results are identical
    for any order.
    """
    bytes_per_trial = getattr(config, "file_size", 1 << 20) \
        * max(1, getattr(config, "n_requests", 1))
    record_sizes = tuple(getattr(config, "record_sizes", ()) or ()) \
        or (getattr(config, "record_size", 8192),)
    smallest_record = max(1, min(record_sizes))
    cost = float(bytes_per_trial)
    if str(getattr(config, "method", "")).startswith("traditional") \
            and smallest_record < 4096:
        # Per-record request streams: even simulator-batched, small records
        # multiply the CP/IOP protocol work per block.
        cost *= 4096 / smallest_record
    return cost


def sweep_parallel(configs, trials=1, base_seed=None, workers=None,
                   cache=None, progress=None):
    """:func:`sweep`, fanned out over a process pool.

    Produces exactly the same :class:`TrialSummary` list as the serial sweep:
    every trial's seed is a pure function of its configuration and position
    (``base_seed + trial``, as in :func:`run_trials`), every *request's*
    randomness inside a service trial is a pure function of (trial seed,
    request index), and the simulator is deterministic given a seed, so the
    fan-out is unobservable in the results.

    *workers* ``None``/``0``/``1`` delegates to the serial :func:`sweep`
    (still using *cache*); otherwise a pool of that many processes serves the
    cache misses.  Cached trials are never resubmitted, which is what makes
    figure regeneration incremental.  *progress* fires as each configuration
    completes, in configuration order, just as in the serial sweep.

    Dispatch is cost-ordered work stealing: uncached trials are submitted
    longest-first (see :func:`trial_cost_estimate`) as individual pool tasks
    (chunksize 1), so a sweep mixing ~100x-costlier trials (paper-scale
    8-byte traditional-caching points next to disk-directed ones) does not
    strand its stragglers behind a static chunk split.  Scheduling order is
    unobservable in the results.
    """
    cache = _as_cache(cache)
    configs = list(configs)
    if not (workers and workers > 1):
        return sweep(configs, trials=trials, base_seed=base_seed,
                     progress=progress, cache=cache)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    total = len(configs)

    # One slot per (config, trial); filled from cache or from the pool.
    results = [[None] * trials for _ in configs]
    pending = [0] * total    # uncached trials per config, counted down below
    jobs = []                # (config_index, trial_index, (config, seed))
    for config_index, config in enumerate(configs):
        first_seed = config.seed if base_seed is None else base_seed
        for trial in range(trials):
            seed = first_seed + trial
            if cache is not None:
                cached = cache.get(trial_cache_key(config, seed))
                if cached is not None:
                    results[config_index][trial] = cached
                    continue
            pending[config_index] += 1
            jobs.append((config_index, trial, (config, seed)))

    summaries = [None] * total
    emitted = 0

    def emit_completed():
        # Results arrive in arbitrary order (longest-first dispatch +
        # as_completed); the pending[] countdown is what guarantees each
        # config's summary streams in configuration order, once complete.
        nonlocal emitted
        while emitted < total and pending[emitted] == 0:
            summary = TrialSummary(config=configs[emitted],
                                   results=results[emitted])
            summaries[emitted] = summary
            if progress is not None:
                progress(emitted, total, summary)
            emitted += 1

    emit_completed()  # configs served entirely from cache
    if jobs:
        # Longest-first, one task per trial: the pool steals work as it
        # drains, so heterogeneous trial costs cannot strand the sweep's
        # tail behind one straggler chunk.
        order = sorted(range(len(jobs)),
                       key=lambda index: trial_cost_estimate(jobs[index][2][0]),
                       reverse=True)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_trial_job, jobs[index][2]): index
                       for index in order}
            for future in as_completed(futures):
                config_index, trial, job = jobs[futures[future]]
                result = future.result()
                results[config_index][trial] = result
                if cache is not None:
                    cache.put(trial_cache_key(job[0], job[1]), result)
                pending[config_index] -= 1
                emit_completed()
    return summaries
