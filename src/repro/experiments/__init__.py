"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`repro.experiments.config` — experiment descriptions (method, pattern,
  record size, layout, machine shape, file size, seed).
* :mod:`repro.experiments.runner` — runs one experiment or a set of replicated
  trials and aggregates throughput statistics.
* :mod:`repro.experiments.figures` — one generator per paper figure
  (Figures 3-8) and Table 1; also the ``ddio-figures`` command-line entry point.
* :mod:`repro.experiments.report` — plain-text tables and bar charts.
* :mod:`repro.experiments.claims` — checks the paper's headline claims
  (e.g. "disk-directed I/O was up to 16 times faster") against measured data.
* :mod:`repro.experiments.service` — beyond the paper: the service-style
  experiment family (concurrent mixed collectives vs offered load).
* :mod:`repro.experiments.pipeline` — the one sweep → check → rows → text →
  JSON-artifact pipeline the service figures are declared on.
"""

from repro.experiments.config import ExperimentConfig, TrialSummary
from repro.experiments.runner import (
    ResultCache,
    register_experiment_family,
    run_experiment,
    run_trial,
    run_trials,
    sweep,
    sweep_parallel,
    trial_cache_key,
)
from repro.experiments.service import (
    ServiceExperimentConfig,
    run_service_experiment,
    service_config,
    service_figure,
)
from repro.experiments.figures import (
    FIGURES,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    table1,
)

__all__ = [
    "ExperimentConfig",
    "FIGURES",
    "ResultCache",
    "ServiceExperimentConfig",
    "TrialSummary",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "register_experiment_family",
    "run_experiment",
    "run_service_experiment",
    "run_trial",
    "run_trials",
    "service_config",
    "service_figure",
    "sweep",
    "sweep_parallel",
    "table1",
    "trial_cache_key",
]
