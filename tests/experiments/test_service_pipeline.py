"""The shared service-figure pipeline: grid overrides, recorded commands and
the command-line dispatch.

The figures' output itself is pinned by ``test_figure_pins.py``; these tests
cover what the pins cannot: overrides that the grid must refuse, the
``regenerate`` command an artifact records, and how ``main`` routes options
to each kind of figure (with stub figures, so nothing is simulated).
"""

import json
import subprocess
from pathlib import Path

import pytest

from repro.experiments import figures
from repro.experiments.figures import FIGURES, main
from repro.experiments.pipeline import regenerate_command
from repro.experiments.service import (
    service_faults_configs,
    service_rebuild_figure,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: figure -> (an override naming a field the figure sweeps, the parameter
#: the error must point to instead).
SWEPT_OVERRIDES = {
    "service": ({"arrival_rate": 4.0}, "loads"),
    "service-sched": ({"concurrency": 2}, "concurrencies"),
    "service-overload": ({"method": "traditional"}, "methods"),
    "service-millions": ({"n_requests": 10}, "sweep_requests"),
    "service-faults": ({"transient_rate": 0.1}, "scenarios"),
    "service-rebuild": ({"device": "ssd"}, "devices"),
    "service-admission": ({"target_p99": 1.0}, "rows"),
    "ddio-flash": ({"device": "ssd"}, "devices"),
}


class TestGridOverrides:
    @pytest.mark.parametrize("name", sorted(SWEPT_OVERRIDES))
    def test_override_of_a_swept_field_names_the_parameter(self, name):
        override, parameter = SWEPT_OVERRIDES[name]
        with pytest.raises(ValueError, match=parameter):
            FIGURES[name](**override)

    @pytest.mark.parametrize("name", sorted(SWEPT_OVERRIDES))
    def test_label_is_never_an_override(self, name):
        with pytest.raises(ValueError, match="label"):
            FIGURES[name](label="mine")

    def test_fixed_defaults_may_be_overridden(self):
        configs = service_faults_configs(n_disks=4, arrival_rate=200.0)
        assert {config.n_disks for config in configs} == {4}
        assert {config.workload.arrival_rate for config in configs} == {200.0}


class TestRegenerateCommand:
    def test_cli_command_when_the_cli_can_pass_every_argument(self):
        call = dict(methods=("disk-directed", "traditional"),
                    devices=("disk", "ssd"), load=8.0, trials=2,
                    json_path="docs/data/service_rebuild.json")
        assert regenerate_command("service-rebuild", service_rebuild_figure,
                                  call) == (
            "PYTHONPATH=src python -m repro.experiments.figures "
            "service-rebuild --trials 2 --json docs/data/service_rebuild.json")

    @pytest.mark.parametrize("path, call", [
        ("docs/data/service_rebuild.json", {}),
        ("docs/data/service_admission.json", {}),
        ("docs/data/service_flash.json", {}),
        ("docs/data/service_millions.json", {}),
        ("docs/data/service_faults.json", {}),
        ("docs/data/service_faults_ssd.json", {"device": "ssd"}),
    ])
    def test_committed_artifacts_record_their_command(self, path, call):
        with open(REPO_ROOT / path, encoding="utf-8") as handle:
            artifact = json.load(handle)
        name = artifact["figure"]
        call = {**call, "trials": artifact["config"]["trials"],
                "json_path": path}
        assert artifact["regenerate"] == \
            regenerate_command(name, FIGURES[name], call)

    def test_recorded_command_rewrites_the_same_bytes(self, tmp_path):
        json_path = tmp_path / "service_rebuild.json"
        service_rebuild_figure(devices=("disk",), trials=1, n_cps=2,
                               n_iops=2, n_disks=4, n_requests=4, n_files=2,
                               file_size=65536, concurrency=2,
                               arrival_rate=200.0,
                               fail_stop_time=0.01,
                               rebuild_bandwidth=16.0 * 2 ** 20,
                               json_path=str(json_path))
        written = json_path.read_bytes()
        command = json.loads(written)["regenerate"]
        assert "python -c" in command
        json_path.unlink()
        subprocess.run(command, shell=True, cwd=REPO_ROOT, check=True,
                       timeout=300, capture_output=True)
        assert json_path.read_bytes() == written


class _Stub:
    """A figure generator that records its calls and simulates nothing."""

    def __init__(self, writes_artifact=None):
        self.calls = []
        if writes_artifact is not None:
            self.writes_artifact = writes_artifact

    def __call__(self, **kwargs):
        self.calls.append(kwargs)
        return [], "stub"


@pytest.fixture
def stubs(monkeypatch):
    registry = {
        "table1": lambda: ([], "table"),
        "figure3": _Stub(),
        "figure5": _Stub(),
        "service": _Stub(writes_artifact=False),
        "service-rebuild": _Stub(writes_artifact=True),
    }
    monkeypatch.setattr(figures, "FIGURES", registry)
    return registry


class TestCliDispatch:
    def test_service_figure_gets_the_run_options(self, stubs):
        assert main(["service", "--trials", "3", "--quiet"]) == 0
        assert stubs["service"].calls == [
            dict(trials=3, progress=None, workers=None, cache=None)]

    def test_json_reaches_a_figure_with_an_artifact(self, stubs):
        main(["service-rebuild", "--json", "out.json", "--quiet"])
        assert stubs["service-rebuild"].calls[0]["json_path"] == "out.json"

    def test_no_json_path_without_json(self, stubs):
        main(["service-rebuild", "--quiet"])
        assert "json_path" not in stubs["service-rebuild"].calls[0]

    @pytest.mark.parametrize("name", ["service", "figure3", "table1", "all"])
    def test_json_on_a_figure_without_an_artifact_is_an_error(self, stubs,
                                                             name):
        with pytest.raises(SystemExit):
            main([name, "--json", "out.json", "--quiet"])
        assert all(not stub.calls for stub in stubs.values()
                   if isinstance(stub, _Stub))

    def test_paper_figures_get_their_own_options(self, stubs):
        main(["figure3", "--record-size", "8192", "--patterns", "rb,rc",
              "--quiet"])
        main(["figure5", "--file-mb", "0.5", "--quiet"])
        assert stubs["figure3"].calls[0]["record_sizes"] == (8192,)
        assert stubs["figure3"].calls[0]["patterns"] == ["rb", "rc"]
        assert stubs["figure5"].calls[0]["record_size"] == 8192
        assert stubs["figure5"].calls[0]["file_mb"] == 0.5

    def test_help_lists_the_artifact_figures(self, stubs, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "(service-rebuild only)" in \
            " ".join(capsys.readouterr().out.split())


def test_every_service_figure_declares_whether_it_writes_an_artifact():
    service = {name for name in FIGURES if name.startswith("service")
               or name == "ddio-flash"}
    assert service == set(SWEPT_OVERRIDES)
    assert {name for name in service
            if FIGURES[name].writes_artifact} == {
        "service-millions", "service-faults", "service-admission",
        "ddio-flash", "service-rebuild"}
