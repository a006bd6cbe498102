"""Generators for every figure and table in the paper's evaluation.

Each ``figureN`` function builds the list of :class:`ExperimentConfig` points
that figure plots, runs them (with the requested number of trials) and returns
both the raw summaries and a plain-text rendering shaped like the paper's
figure.  The module doubles as the ``ddio-figures`` command-line tool::

    ddio-figures figure3 --file-mb 1 --trials 1
    ddio-figures figure5 --record-size 8192
    ddio-figures all --paper-scale          # the full (slow) 10 MB runs
"""

import argparse
import sys

from repro.experiments.claims import check_headline_claims
from repro.experiments.config import MEGABYTE, ExperimentConfig
from repro.experiments.report import format_bar_chart, format_series_table, format_table
from repro.experiments.runner import run_trials, sweep, sweep_parallel
from repro.experiments.service import (
    service_admission_figure,
    service_faults_figure,
    service_figure,
    service_flash_figure,
    service_millions_figure,
    service_overload_figure,
    service_rebuild_figure,
    service_scheduler_figure,
)
from repro.machine import MachineConfig
from repro.patterns import READ_PATTERN_NAMES, WRITE_PATTERN_NAMES

#: Figure 3/4 compare these methods (the paper shows DDIO with and without the
#: presort only for the random layout, where it matters).
_FIG3_METHODS = ("disk-directed", "disk-directed-nosort", "traditional")
_FIG4_METHODS = ("disk-directed", "traditional")

#: Sensitivity figures use these four patterns with 8 KB records.
_SENSITIVITY_PATTERNS = ("ra", "rn", "rb", "rc")


def _default_file_size(record_size, file_mb=None, paper_scale=False):
    """Pick a file size: paper scale (10 MB), an explicit override, or a
    wall-clock-friendly default (small records are far more expensive to
    simulate because traditional caching issues one request per record)."""
    if file_mb is not None:
        return int(file_mb * MEGABYTE)
    if paper_scale:
        return 10 * MEGABYTE
    return MEGABYTE if record_size <= 1024 else 4 * MEGABYTE


def _pattern_figure(number, methods, layout, layout_name, record_sizes,
                    file_mb, trials, paper_scale, patterns, progress, workers,
                    cache):
    """Shared machinery of Figures 3-4: every pattern at each record size."""
    selected = patterns or (READ_PATTERN_NAMES + WRITE_PATTERN_NAMES)
    all_summaries = []
    texts = []
    for record_size in record_sizes:
        file_size = _default_file_size(record_size, file_mb, paper_scale)
        configs = [ExperimentConfig(method=method, pattern=pattern,
                                    record_size=record_size, layout=layout,
                                    file_size=file_size, label=method)
                   for pattern in selected for method in methods]
        summaries = sweep_parallel(configs, trials=trials, progress=progress,
                                   workers=workers, cache=cache)
        all_summaries.extend(summaries)
        entries = [(f"{s.config.pattern:4s} {s.config.method}",
                    s.mean_throughput_mb) for s in summaries]
        texts.append(
            f"Figure {number} ({record_size}-byte records, {layout_name} "
            f"layout, {file_size // MEGABYTE} MB file)\n\n"
            + format_table([s.as_row() for s in summaries],
                           columns=["pattern", "method", "record_size",
                                    "throughput_mb", "cv", "trials"])
            + "\n\n" + format_bar_chart(entries))
    return all_summaries, "\n\n".join(texts)


def figure3(record_sizes=(8, 8192), file_mb=None, trials=1, paper_scale=False,
            patterns=None, progress=None, workers=None, cache=None):
    """Figure 3: all patterns, random-blocks layout, TC vs DDIO vs DDIO+presort."""
    return _pattern_figure(3, _FIG3_METHODS, "random", "random-blocks",
                           record_sizes, file_mb, trials, paper_scale,
                           patterns, progress, workers, cache)


def figure4(record_sizes=(8, 8192), file_mb=None, trials=1, paper_scale=False,
            patterns=None, progress=None, workers=None, cache=None):
    """Figure 4: all patterns, contiguous layout, TC vs DDIO."""
    return _pattern_figure(4, _FIG4_METHODS, "contiguous", "contiguous",
                           record_sizes, file_mb, trials, paper_scale,
                           patterns, progress, workers, cache)


def _sensitivity(title, x_label, vary, values, fixed, record_size, file_mb,
                 trials, paper_scale, patterns, progress=None, workers=None,
                 cache=None):
    """Shared machinery of Figures 5-8: vary one machine dimension."""
    file_size = _default_file_size(record_size, file_mb, paper_scale)
    configs = [ExperimentConfig(method=method, pattern=pattern,
                                record_size=record_size, file_size=file_size,
                                label=f"{method}-{pattern}",
                                **{**fixed, vary: value})
               for value in values for pattern in patterns
               for method in ("disk-directed", "traditional")]
    summaries = sweep_parallel(configs, trials=trials, progress=progress,
                               workers=workers, cache=cache)
    series = {}
    for summary in summaries:
        key = f"{'DDIO' if summary.config.method == 'disk-directed' else 'TC'} " \
              f"{summary.config.pattern}"
        series.setdefault(key, []).append(
            (getattr(summary.config, vary), summary.mean_throughput_mb))
    return summaries, (f"{title}\n\n"
                       + format_series_table(series, x_label=x_label))


def figure5(record_size=8192, file_mb=None, trials=1, paper_scale=False,
            cps=(1, 2, 4, 8, 16), patterns=_SENSITIVITY_PATTERNS, progress=None,
            workers=None, cache=None):
    """Figure 5: vary the number of CPs; contiguous layout, 8 KB records."""
    return _sensitivity(
        "Figure 5: throughput vs number of CPs (contiguous layout)", "CPs",
        "n_cps", cps, {"layout": "contiguous"}, record_size, file_mb, trials,
        paper_scale, patterns, progress, workers, cache)


def figure6(record_size=8192, file_mb=None, trials=1, paper_scale=False,
            iops=(1, 2, 4, 8, 16), patterns=_SENSITIVITY_PATTERNS, progress=None,
            workers=None, cache=None):
    """Figure 6: vary the number of IOPs (and busses); 16 disks total."""
    return _sensitivity(
        "Figure 6: throughput vs number of IOPs/busses (contiguous layout, "
        "16 disks)", "IOPs",
        "n_iops", iops, {"layout": "contiguous", "n_disks": 16}, record_size,
        file_mb, trials, paper_scale, patterns, progress, workers, cache)


def figure7(record_size=8192, file_mb=None, trials=1, paper_scale=False,
            disks=(1, 2, 4, 8, 16, 32), patterns=_SENSITIVITY_PATTERNS,
            progress=None, workers=None, cache=None):
    """Figure 7: vary the number of disks on a single IOP; contiguous layout."""
    return _sensitivity(
        "Figure 7: throughput vs number of disks (1 IOP, contiguous layout)",
        "disks",
        "n_disks", disks, {"layout": "contiguous", "n_iops": 1, "n_cps": 16},
        record_size, file_mb, trials, paper_scale, patterns, progress,
        workers, cache)


def figure8(record_size=8192, file_mb=None, trials=1, paper_scale=False,
            disks=(1, 2, 4, 8, 16, 32), patterns=_SENSITIVITY_PATTERNS,
            progress=None, workers=None, cache=None):
    """Figure 8: vary the number of disks on a single IOP; random-blocks layout."""
    return _sensitivity(
        "Figure 8: throughput vs number of disks (1 IOP, random-blocks "
        "layout)", "disks",
        "n_disks", disks, {"layout": "random", "n_iops": 1, "n_cps": 16},
        record_size, file_mb, trials, paper_scale, patterns, progress,
        workers, cache)


def table1():
    """Table 1: the simulator parameters (no simulation needed)."""
    config = MachineConfig()
    spec = config.disk_spec
    rows = [
        {"parameter": "Compute processors (CPs)", "value": str(config.n_cps)},
        {"parameter": "I/O processors (IOPs)", "value": str(config.n_iops)},
        {"parameter": "CPU speed, type", "value": f"{config.cpu_mhz:.0f} MHz, RISC"},
        {"parameter": "Disks", "value": str(config.n_disks)},
        {"parameter": "Disk type", "value": spec.name},
        {"parameter": "Disk capacity",
         "value": f"{spec.capacity_bytes / 1e9:.1f} GB"},
        {"parameter": "Disk peak transfer rate",
         "value": f"{spec.media_transfer_rate / MEGABYTE:.2f} Mbytes/s"},
        {"parameter": "File-system block size", "value": f"{config.block_size // 1024} KB"},
        {"parameter": "I/O buses (one per IOP)", "value": str(config.n_iops)},
        {"parameter": "I/O bus peak bandwidth",
         "value": f"{config.bus_bandwidth / 1e6:.0f} Mbytes/s"},
        {"parameter": "Interconnect bandwidth",
         "value": f"{config.interconnect_bandwidth / 1e6:.0f} x 10^6 bytes/s"},
        {"parameter": "Interconnect latency",
         "value": f"{config.router_latency * 1e9:.0f} ns per router"},
        {"parameter": "Routing", "value": "wormhole (message-level model)"},
    ]
    return rows, "Table 1: simulator parameters\n\n" + format_table(
        rows, columns=["parameter", "value"])


#: Registry used by the CLI and the benchmark harness.  ``service`` goes
#: beyond the paper: concurrent mixed collectives vs offered load (see
#: repro.experiments.service and docs/workloads.md).  ``service-sched``
#: compares per-collective presort with the shared per-disk IOP queues
#: (CSCAN/SSTF, worker-pool sizes) at K in {1, 2, 4, 8} (docs/scheduling.md).
#: ``service-overload`` pushes an open loop to ~4x saturation with
#: heavy-tailed file sizes and an 8-byte record mix (docs/workloads.md).
#: ``service-faults`` injects deterministic disk faults (transient errors,
#: a fail-slow drive, one fail-stop drive out of 32) and compares goodput
#: and tail latency under bounded retry (docs/faults.md).
#: ``service-millions`` measures the overload asymptote directly: a million
#: 8 KB sessions per headline row through the constant-memory streaming
#: driver on a 128-disk machine (docs/workloads.md) — slow (tens of
#: minutes); pass ``--json`` to refresh its docs/data artifact.
#: ``service-admission`` sweeps the admission disciplines (FIFO, SJF,
#: priority, EDF, adaptive-K SLO controller) over the overload workload
#: (docs/workloads.md); pass ``--json`` to refresh its docs/data artifact.
#: ``ddio-flash`` re-asks the paper's question on flash: DDIO vs TC on the
#: disk and on a bandwidth-matched SSD (docs/flash.md); pass ``--json`` to
#: refresh its docs/data artifact.
#: ``service-rebuild`` kills a drive under declustered parity and follows
#: goodput through degraded reads and the online rebuild, asserting zero
#: failed bytes (docs/redundancy.md); pass ``--json`` to refresh its
#: docs/data artifact.
FIGURES = {
    "table1": table1,
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "service": service_figure,
    "service-sched": service_scheduler_figure,
    "service-overload": service_overload_figure,
    "service-faults": service_faults_figure,
    "service-millions": service_millions_figure,
    "service-admission": service_admission_figure,
    "ddio-flash": service_flash_figure,
    "service-rebuild": service_rebuild_figure,
}


def _artifact_figures():
    """Names of the figures that write a JSON artifact, from the registry."""
    return [name for name, generator in FIGURES.items()
            if getattr(generator, "writes_artifact", False)]


def _progress_printer(index, total, summary):
    print(f"  [{index + 1}/{total}] {summary.config.describe()} "
          f"-> {summary.mean_throughput_mb:.2f} MB/s", file=sys.stderr)


def main(argv=None):
    """Command-line entry point: regenerate one figure (or all of them)."""
    parser = argparse.ArgumentParser(
        description="Regenerate the figures of Kotz's disk-directed I/O paper "
                    "from the simulation.")
    parser.add_argument("figure", choices=sorted(FIGURES) + ["all", "claims"],
                        help="which figure to regenerate")
    parser.add_argument("--trials", type=int, default=1,
                        help="independent trials per data point (paper: 5)")
    parser.add_argument("--file-mb", type=float, default=None,
                        help="file size in Mbytes (default: scaled to record size)")
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the paper's 10 MB file everywhere (slow for "
                             "8-byte records)")
    parser.add_argument("--record-size", type=int, default=None,
                        help="restrict figures 3/4 to one record size")
    parser.add_argument("--patterns", type=str, default=None,
                        help="comma-separated list of patterns to run")
    parser.add_argument("--workers", type=int, default=None,
                        help="run data points in a pool of N processes "
                             "(default: serial)")
    parser.add_argument("--cache", type=str, default=None, metavar="DIR",
                        help="cache trial results on disk so re-running a "
                             "figure only simulates changed data points")
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="also write the figure's docs/data JSON "
                             "artifact (" + ", ".join(_artifact_figures())
                             + " only)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress")
    args = parser.parse_args(argv)

    progress = None if args.quiet else _progress_printer
    patterns = args.patterns.split(",") if args.patterns else None
    record_sizes = (args.record_size,) if args.record_size else (8, 8192)

    selected = sorted(FIGURES) if args.figure == "all" else [args.figure]
    if args.figure == "claims":
        selected = ["figure3", "figure4"]
    if args.json and set(selected) - set(_artifact_figures()):
        parser.error(f"--json: {args.figure} writes no JSON artifact")
    collected = []
    for name in selected:
        generator = FIGURES[name]
        if name == "table1":
            print(generator()[1])
            print()
            continue
        options = dict(trials=args.trials, progress=progress,
                       workers=args.workers, cache=args.cache)
        if hasattr(generator, "writes_artifact"):
            if args.json:
                options["json_path"] = args.json
        elif name in ("figure3", "figure4"):
            options.update(record_sizes=record_sizes, file_mb=args.file_mb,
                           paper_scale=args.paper_scale, patterns=patterns)
        else:
            options.update(record_size=args.record_size or 8192,
                           file_mb=args.file_mb, paper_scale=args.paper_scale)
        summaries, text = generator(**options)
        collected.extend(summaries)
        print(text)
        print()

    if args.figure == "claims":
        checks = check_headline_claims(collected)
        print("Headline claims\n")
        print(format_table([check.as_row() for check in checks],
                           columns=["claim", "paper", "measured", "holds"]))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
