"""Smoke-size checks of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def declared(kind):
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def test_spec_names_every_workload():
    assert sorted(WORKLOADS) == sorted(harness.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_declared_metrics_and_passes_checks(workload, trace,
                                                              kind):
    correct, attempted, failed, metrics, report = run.run(
        workload, seed=3, seconds=0, trace=trace, smoke=True)
    assert correct, report["errors"]
    assert failed == 0 and attempted > 0
    assert {name: unit for name, (_value, unit) in metrics.items()} \
        == declared(kind)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_repeats_within_one_process(workload):
    digests = []
    for _ in range(2):
        spans = harness.Spans(run_id="repeat")
        digests.append(harness.run_pass(workload, 5, spans, smoke=True)
                       .digests)
    assert digests[0] == digests[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_accounting_identities(workload):
    spans = harness.Spans(run_id="identities")
    traced, _self_s, _counts = harness.traced_pass(workload, 7, spans,
                                                   smoke=True)
    for method in traced.methods.values():
        assert method.model["bus_busy_max"] <= 1.0
        assert method.session_split["disk_service_time"] \
            <= method.model["busy"] * (1 + 1e-9)


def test_layers_do_work_only_where_designed():
    spans = harness.Spans(run_id="layers")
    shares = {}
    for workload in WORKLOADS:
        _traced, self_s, _counts = harness.traced_pass(workload, 9, spans,
                                                       smoke=True)
        total = sum(self_s.values())
        shares[workload] = {layer: value / total
                            for layer, value in self_s.items()}
    for layer in ("disk.flash", "disk.redundancy"):
        assert shares["degraded_array"][layer] > 0
        assert shares["paper_grid"][layer] == 0
        assert shares["small_sessions"][layer] == 0
    assert shares["paper_grid"]["disk"] \
        >= 2 * shares["small_sessions"]["disk"]

    def per_session(workload):
        return shares[workload]["patterns"] + shares[workload]["workload"]

    assert per_session("small_sessions") >= 2 * per_session("paper_grid")


def test_command_prints_result_line_last():
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "small_sessions",
         "--seed", "2", "--seconds", "0", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=170, check=False)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    for name, unit in declared("end_to_end").items():
        assert f"{name} " in completed.stdout
        assert result["metrics"][name]["unit"] == unit


def test_command_fails_without_the_simulator(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        check=False)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
