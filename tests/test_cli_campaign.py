"""Tests for the ``campaign`` CLI group and ``search --output``."""

import json

import pytest

from repro.campaign.spec import CampaignSpec, ObjectiveSpec
from repro.cli import main
from repro.serialize import solution_from_json


@pytest.fixture
def spec_path(tmp_path):
    spec = CampaignSpec(name="cli-camp", workloads=("har",),
                        objectives=(ObjectiveSpec(kind="lat*sp"),),
                        environments=("indoor",), seeds=(0, 1),
                        population=4, generations=2)
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    return path


class TestCampaignRun:
    def test_run_completes_and_status_agrees(self, spec_path, tmp_path,
                                             capsys):
        store = tmp_path / "camp.sqlite"
        assert main(["campaign", "run", str(spec_path),
                     "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "cli-camp" in out
        assert "2 completed" in out
        assert store.exists()

        assert main(["campaign", "status", "--store", str(store)]) == 0
        assert "cli-camp: 2/2 complete" in capsys.readouterr().out

    def test_interrupted_run_resumes(self, spec_path, tmp_path, capsys):
        store = tmp_path / "camp.sqlite"
        assert main(["campaign", "run", str(spec_path),
                     "--store", str(store), "--max-runs", "1"]) == 0
        capsys.readouterr()
        # Half-finished campaign: status flags it via the exit code.
        assert main(["campaign", "status", "--store", str(store)]) == 1
        assert "cli-camp: 1/2 complete" in capsys.readouterr().out

        assert main(["campaign", "run", str(spec_path),
                     "--store", str(store)]) == 0
        assert "1 already complete" in capsys.readouterr().out
        assert main(["campaign", "status", "--store", str(store)]) == 0

    def test_missing_spec_file_errors(self, tmp_path, capsys):
        code = main(["campaign", "run", str(tmp_path / "absent.json"),
                     "--store", str(tmp_path / "s.sqlite")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_status_of_empty_store(self, tmp_path, capsys):
        assert main(["campaign", "status",
                     "--store", str(tmp_path / "empty.sqlite")]) == 1
        assert "no campaigns" in capsys.readouterr().out


class TestCampaignReport:
    def test_report_renders_and_writes_json(self, spec_path, tmp_path,
                                            capsys):
        store = tmp_path / "camp.sqlite"
        main(["campaign", "run", str(spec_path), "--store", str(store)])
        capsys.readouterr()

        report_path = tmp_path / "report.json"
        assert main(["campaign", "report", "--store", str(store),
                     "--json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "Per-scenario winners" in out
        assert "Pareto front" in out

        payload = json.loads(report_path.read_text())
        assert payload["campaign"] == "cli-camp"
        assert payload["counts"]["done"] == 2

    def test_runs_listing(self, spec_path, tmp_path, capsys):
        store = tmp_path / "camp.sqlite"
        main(["campaign", "run", str(spec_path), "--store", str(store)])
        capsys.readouterr()
        main(["campaign", "status", "--store", str(store), "--runs"])
        out = capsys.readouterr().out
        assert out.count("[done") == 2
        assert "har/existing/indoor" in out


class TestSearchJson:
    def test_search_json_flag_writes_loadable_solution(self, tmp_path,
                                                       capsys):
        path = tmp_path / "solution.json"
        assert main(["search", "har", "--population", "4",
                     "--generations", "2", "--output", str(path)]) == 0
        solution = solution_from_json(path.read_text())
        assert solution.design.mappings  # fully rehydrated
        assert solution.average_metrics.feasible


class TestObsCli:
    @pytest.fixture(autouse=True)
    def obs_off(self):
        from repro.obs import state as obs_state
        obs_state.disable()
        obs_state.reset()
        yield
        obs_state.disable()
        obs_state.reset()

    def test_campaign_obs_roundtrip_through_store(self, spec_path, tmp_path,
                                                  capsys):
        store = tmp_path / "camp.sqlite"
        assert main(["campaign", "run", str(spec_path),
                     "--store", str(store), "--obs"]) == 0
        out = capsys.readouterr().out
        assert "-- observability" in out
        assert "campaign.run" in out and "search.run" in out

        # The report reconstructs purely from the store's per-run blobs.
        assert main(["obs", "report", "--campaign", str(store)]) == 0
        out = capsys.readouterr().out
        assert "reconstructed from 2 stored run blob(s)" in out
        assert "campaign.run                                 x2" in out
        assert "ga.run" in out and "search.genome" in out

    def test_obs_report_without_blobs_fails(self, spec_path, tmp_path,
                                            capsys):
        store = tmp_path / "camp.sqlite"
        assert main(["campaign", "run", str(spec_path),
                     "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", "--campaign", str(store)]) == 1
        assert "no observability blobs" in capsys.readouterr().out

    def test_simulate_obs_snapshot_feeds_obs_report(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        csv = tmp_path / "snap.csv"
        assert main(["simulate", "har", "--panel", "6", "--cap", "330",
                     "--obs-output", str(snap)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(snap),
                     "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "sim.run" in out
        assert "energy.controller.steps" in out
        assert csv.read_text().startswith("section,name,field,value")
        payload = json.loads(snap.read_text())
        assert payload["spans"]["roots"][0]["name"] == "api.evaluate"

    def test_obs_report_rejects_ambiguous_inputs(self, capsys):
        assert main(["obs", "report"]) == 2
        assert "exactly one" in capsys.readouterr().err
