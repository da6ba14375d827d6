"""API-surface snapshot tests for the curated top-level package.

``repro.__all__`` is the blessed surface: this file pins it exactly, so
widening or shrinking the public API is always a reviewed, deliberate
diff of the snapshot below.  Names outside it are imported from their
subsystem modules; the top level does not resolve them.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro

#: The checked-in snapshot of the blessed surface.  If this test fails,
#: either revert the accidental API change or update the snapshot in
#: the same PR that justifies it (and docs/API.md with it).
PUBLIC_API = [
    "AuTDesign",
    "AuTSolution",
    "CampaignSpec",
    "Chrysalis",
    "ChrysalisEvaluator",
    "DesignSpace",
    "EnergyDesign",
    "EnvironmentSpec",
    "EvalRequest",
    "EvaluationReport",
    "FIDELITIES",
    "FaultConfig",
    "InferenceDesign",
    "LightEnvironment",
    "Objective",
    "ObjectiveKind",
    "ResultStore",
    "Scenario",
    "ScenarioGenerator",
    "TraceEnvironment",
    "__version__",
    "environment_by_name",
    "evaluate",
    "evaluate_batch",
    "evaluate_many",
    "obs",
    "register_environment",
    "run_campaign",
    "run_faults_sweep",
    "serve",
    "zoo",
]


class TestSurface:
    def test_all_matches_snapshot(self):
        assert sorted(repro.__all__) == PUBLIC_API

    def test_every_blessed_name_resolves_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in PUBLIC_API:
                assert getattr(repro, name) is not None

    def test_star_import_is_exactly_the_surface(self):
        namespace = {}
        exec("from repro import *", namespace)
        exported = {k for k in namespace if not k.startswith("__")}
        assert exported == set(PUBLIC_API) - {"__version__"}


class TestShims:
    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="does_not_exist"):
            repro.does_not_exist


class TestCliDeprecations:
    def test_search_output_flag_is_silent(self):
        from repro import cli

        parser = cli.build_parser()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            args = parser.parse_args(["search", "har", "--output", "x.json"])
        assert args.output == "x.json"


class TestImportFootprint:
    def test_import_does_not_load_numpy(self):
        """The pricing chain is plain Python: importing the package must
        not pay numpy's import time and memory."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-c",
             "import repro, sys; assert 'numpy' not in sys.modules"],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
