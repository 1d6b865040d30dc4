"""Tests of the top-level public API (what the README quick start uses)."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro import (
    ChronosOptimizer,
    ParetoDistribution,
    ScenarioSpec,
    StragglerModel,
    StrategyName,
    Sweep,
    WorkloadSpec,
    expected_cost,
    expected_machine_time,
    net_utility,
    pocd,
    run,
    tradeoff_frontier,
)

ROOT = Path(__file__).resolve().parent.parent


class TestPackageSurface:
    def test_version_string(self):
        """``pyproject.toml`` reads the package version from ``repro.__version__``."""
        tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
        pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
        assert "version" not in pyproject["project"]
        assert "version" in pyproject["project"]["dynamic"]
        assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_flow(self):
        """The exact flow shown in the README quick start."""
        model = StragglerModel(
            tmin=20, beta=1.5, num_tasks=10, deadline=100, tau_est=40, tau_kill=80
        )
        result = ChronosOptimizer(model, theta=1e-4).optimize(StrategyName.SPECULATIVE_RESUME)
        assert result.r_opt >= 0
        assert 0.0 <= result.pocd <= 1.0
        assert result.cost > 0.0

    def test_analytical_helpers_exposed(self):
        model = StragglerModel(
            tmin=20, beta=1.5, num_tasks=10, deadline=100, tau_est=40, tau_kill=80
        )
        assert pocd(model, StrategyName.CLONE, 1) > 0
        assert expected_machine_time(model, StrategyName.CLONE, 1) > 0
        assert expected_cost(model, StrategyName.CLONE, 1, unit_price=2.0) > 0
        from repro.core.utility import UtilityParameters

        assert net_utility(model, StrategyName.CLONE, 1, UtilityParameters()) < 0
        assert len(tradeoff_frontier(model, StrategyName.CLONE, r_max=4)) >= 1

    def test_declarative_simulation_flow(self):
        """The documented path: describe a scenario, run it."""
        spec = ScenarioSpec(
            workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 5}),
            strategy="s-resume",
            strategy_params={"tau_est": 40.0, "tau_kill": 80.0},
            cluster={"num_nodes": 0},
        )
        result = run(spec)
        assert result.report.num_jobs == 5
        assert result.fingerprint == spec.fingerprint()

    def test_sweep_exposed_at_top_level(self):
        spec = ScenarioSpec(
            workload=WorkloadSpec("benchmark", {"name": "sort", "num_jobs": 5}),
            strategy="s-resume",
            cluster={"num_nodes": 0},
        )
        sweep = Sweep.grid(spec, {"strategy": ["hadoop-ns", "s-resume"]})
        assert len(sweep) == 2

    def test_pareto_exposed(self):
        assert ParetoDistribution(10.0, 1.5).mean() == pytest.approx(30.0)


class TestDeprecatedShims:
    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_an_attribute
        with pytest.raises(AttributeError):
            repro.SimulationRunner
