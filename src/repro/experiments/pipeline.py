"""One pipeline for the service-scale figures.

Every service figure does the same five things: sweep a grid of
:class:`~repro.experiments.service.ServiceExperimentConfig` points, check
each trial's invariants, reduce each point's trials to one table row, render
the rows as text, and optionally write them as a JSON artifact.  A figure is
declared once with :func:`service_figure_spec` — its grid, row function,
columns, series and artifact keys — and this module does the rest.
"""

import dataclasses
import functools
import inspect
import json
import os
import shlex

from repro.experiments.report import format_series_table, format_table
from repro.experiments.runner import sweep_parallel

#: Figure arguments that change how a figure runs but never what it computes.
RUN_ONLY = ("progress", "workers", "cache")

#: Figure arguments the ``ddio-figures`` command line can pass.
CLI_ARGUMENTS = ("trials", "json_path")


@dataclasses.dataclass(frozen=True)
class FigureSpec:
    """The declaration of one service figure; see :func:`service_figure_spec`."""

    name: str
    function: object
    configs: object
    header: object
    row: object
    columns: tuple
    series_name: object
    series: tuple = ()
    tables: tuple = ()
    extras: object = None
    footer: str = ""
    lossless: bool = False
    artifact: tuple = None
    derived: object = None
    probes: tuple = ()

    def run(self, arguments):
        """Sweep, check, reduce, render and (maybe) write; ``(summaries, text)``."""
        overrides = arguments.pop("overrides")
        trials = arguments.pop("trials")
        json_path = arguments.pop("json_path", None)
        options = {key: arguments.pop(key) for key in RUN_ONLY}
        configs = self.configs(**arguments, **overrides)
        summaries = sweep_parallel(configs, trials=trials, **options)
        for summary in summaries:
            for result in summary.results:
                self._check(summary.config, result)
        rows = [self.row(summary) for summary in summaries]
        extras = self.extras(rows, arguments) if self.extras else {}
        text = self.render(configs[0], arguments, summaries, rows, extras)
        if json_path:
            call = {**arguments, "trials": trials,
                    "json_path": os.fspath(json_path), **overrides}
            self.write(json_path, configs[0], call, rows, extras)
        return summaries, text

    def _check(self, config, result):
        if not result.conserves_bytes():
            raise AssertionError(
                f"byte conservation violated in {config.label}: "
                f"moved + failed + shed != requested")
        if self.lossless and (result.failed_bytes or result.lost_bytes):
            raise AssertionError(
                f"parity lost data in {config.label}: "
                f"failed={result.failed_bytes} lost={result.lost_bytes}")

    def render(self, sample, arguments, summaries, rows, extras):
        blocks = [format_table(rows, columns=list(self.columns))]
        for key, title, columns in self.tables:
            blocks.append(f"{title}\n"
                          + format_table(extras[key], columns=list(columns)))
        for title, x_label, points in self.series:
            series = {}
            for summary, row in zip(summaries, rows):
                name = self.series_name(summary.config)
                series.setdefault(name, []).extend(points(row))
            blocks.append(f"{title}\n"
                          + format_series_table(series, x_label=x_label))
        if self.footer:
            blocks.append(self.footer)
        return self.header(sample, arguments) + "\n\n" + "\n\n".join(blocks)

    def write(self, json_path, sample, call, rows, extras):
        """Write the JSON artifact of one run of the figure."""
        derived = self.derived(sample, call) if self.derived else {}
        source = {**_flattened(dataclasses.asdict(sample)), **call, **derived}
        config = {key: source[key] for key in self.artifact}
        tables = {"rows": rows, **extras,
                  **{key: probe() for key, probe in self.probes}}
        artifact = {
            "figure": self.name,
            "regenerate": regenerate_command(self.name, self.function, call),
            "config": config,
            **{key: [_rounded(row) for row in table]
               for key, table in tables.items()},
        }
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
            handle.write("\n")


def regenerate_command(name, function, call):
    """The shell command that reruns *call* of figure *name* (*function*).

    The figures command line when it can pass every argument of *call*
    that differs from its default, else the equivalent Python call.  Run
    from the repository root, the command rewrites the artifact the call
    wrote, byte for byte.
    """
    parameters = inspect.signature(function).parameters
    changed = {key: value for key, value in call.items()
               if key not in parameters or parameters[key].default != value}
    if set(changed) <= set(CLI_ARGUMENTS):
        command = ["python", "-m", "repro.experiments.figures", name]
        if "trials" in changed:
            command += ["--trials", str(call["trials"])]
        command += ["--json", call["json_path"]]
        return "PYTHONPATH=src " + shlex.join(command)
    arguments = ", ".join(f"{key}={value!r}" for key, value in changed.items())
    code = (f"from {function.__module__} import {function.__name__}; "
            f"{function.__name__}({arguments})")
    # Double quotes keep repr's single-quoted strings readable.
    quoted = f'"{code}"' if not set(code) & set('"$`\\!') \
        else shlex.quote(code)
    beyond = ", ".join(key for key in changed if key not in CLI_ARGUMENTS)
    return (f"PYTHONPATH=src python -c {quoted}  # python -m "
            f"repro.experiments.figures {name} cannot pass {beyond}")


def _flattened(fields):
    """*fields* with each sub-config dict lifted one level (own fields win)."""
    nested = [value for value in fields.values() if isinstance(value, dict)]
    return {key: value for config in (*nested, fields)
            for key, value in config.items() if not isinstance(value, dict)}


def _rounded(row):
    return {key: round(value, 4) if isinstance(value, float) else value
            for key, value in row.items()}


def service_figure_spec(**declaration):
    """Decorator: make a documented signature into a service figure.

    The decorated function's body is never run; a call binds its arguments
    and hands them to :meth:`FigureSpec.run`.  The declaration names the
    figure (``name``, as on the command line), its grid (``configs``, the
    figure's ``*_configs`` function, taking the same parameters), the
    ``header(sample, arguments)`` line, the ``row(summary)`` function and
    the table ``columns``, the ``series`` blocks ``(title, x_label,
    points(row))`` grouped by ``series_name(config)``, optional extra
    ``tables`` ``(key, title, columns)`` computed by ``extras(rows,
    arguments)``, a ``footer``, whether parity must lose no data
    (``lossless``), and, for figures with a JSON artifact, its ``artifact``
    config keys (resolved from ``derived(sample, call)``, then the call's
    arguments, then the first config) plus artifact-only ``probes``.
    """
    def decorate(function):
        spec = FigureSpec(function=function, **declaration)
        signature = inspect.signature(function)

        @functools.wraps(function)
        def figure(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return spec.run(dict(bound.arguments))

        figure.writes_artifact = spec.artifact is not None
        return figure
    return decorate
