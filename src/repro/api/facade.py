"""The one-call façade: ``run(spec) -> ScenarioResult``.

This is the only place in the repository that wires a
:class:`~repro.simulator.runner.SimulationRunner` together from a
declarative :class:`~repro.api.spec.ScenarioSpec`: every experiment
harness, example and sweep goes through here, so adding a strategy,
estimator or workload via the registries automatically reaches all of
them.

A :class:`ScenarioResult` pairs the simulation report with the spec that
produced it, the spec's fingerprint (the cache key) and the wall time the
run took.  Results serialize to JSON (:meth:`ScenarioResult.to_dict` /
``from_dict``) so sweeps can persist an on-disk cache and ship results
through the distributed queue; the process pool pickles the live
objects instead.
"""

from __future__ import annotations

import dataclasses
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import telemetry
from repro.api import registry as _registry
from repro.api.spec import ScenarioSpec, SpecValidationError, canonical_json
from repro.core.model import StrategyName
from repro.simulator.entities import JobSpec
from repro.simulator.metrics import JobRecord, SimulationReport
from repro.simulator.runner import SimulationRunner, default_estimator_for

_SCENARIO_WALL = telemetry.histogram(
    "chronos_scenario_wall_seconds", "Wall-clock of one scenario simulation"
)


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of running one scenario spec."""

    spec: ScenarioSpec
    report: SimulationReport
    fingerprint: str
    wall_time_s: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (used by the on-disk result cache)."""
        return {
            "spec": self.spec.to_dict(),
            "report": report_to_dict(self.report),
            "fingerprint": self.fingerprint,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise SpecValidationError("result", "expected a mapping")
        missing = [key for key in ("spec", "report", "fingerprint", "wall_time_s") if key not in data]
        if missing:
            raise SpecValidationError(f"result.{missing[0]}", "is required")
        return cls(
            spec=ScenarioSpec.from_dict(data["spec"]),
            report=report_from_dict(data["report"]),
            fingerprint=str(data["fingerprint"]),
            wall_time_s=float(data["wall_time_s"]),
        )

    def summary_row(self) -> Dict[str, Any]:
        """Flat sweep-summary row (the columns of ``SweepResult.COLUMNS``)."""
        params = self.spec.strategy_params
        report = self.report
        return {
            "fingerprint": self.fingerprint,
            "workload": self.spec.workload.kind,
            "strategy": self.spec.strategy,
            "estimator": self.spec.estimator or "default",
            "seed": self.spec.seed,
            "num_jobs": report.num_jobs,
            "pocd": report.pocd,
            "mean_cost": report.mean_cost,
            "mean_machine_time": report.mean_machine_time,
            "mean_response_time": report.mean_response_time,
            "utility": report.net_utility(r_min_pocd=params.r_min_pocd, theta=params.theta),
            "wall_time_s": self.wall_time_s,
        }


def report_to_dict(report: SimulationReport) -> Dict[str, Any]:
    """Serialize a :class:`SimulationReport` to JSON-native types."""
    data = dataclasses.asdict(report)
    data["strategy"] = getattr(report.strategy, "value", str(report.strategy))
    data["r_histogram"] = {str(r): count for r, count in report.r_histogram.items()}
    data["job_records"] = [dataclasses.asdict(record) for record in report.job_records]
    return data


def report_from_dict(data: Mapping[str, Any]) -> SimulationReport:
    """Rebuild a :class:`SimulationReport` from :func:`report_to_dict` output."""
    payload = dict(data)
    try:
        payload["strategy"] = StrategyName(payload["strategy"])
    except (KeyError, ValueError):
        pass  # custom plugin strategies keep their raw string name
    payload["r_histogram"] = {
        int(r): int(count) for r, count in dict(payload.get("r_histogram", {})).items()
    }
    payload["job_records"] = tuple(
        JobRecord(**dict(record)) for record in payload.get("job_records", ())
    )
    try:
        return SimulationReport(**payload)
    except TypeError as error:
        raise SpecValidationError("result.report", str(error)) from error


class RunnerTemplate:
    """Seed-independent scaffolding for one *family* of scenario specs.

    A spec family is everything a :class:`ScenarioSpec` says except its
    ``seed``: replica runs of the same scenario share the workload
    definition, the strategy instance and the resolved estimator, and
    only the RNG stream differs.  A template performs that shared
    resolution once — strategy construction, estimator lookup — and then
    executes any number of per-seed runs against fresh
    :class:`SimulationRunner` instances, so results are byte-identical
    to building everything from scratch per call (strategies are
    stateless and :class:`~repro.simulator.entities.JobSpec` lists are
    deterministic functions of ``(workload, seed)``, which is already
    the contract behind fingerprint-keyed result caching).

    Example::

        from repro.api import RunnerTemplate, ScenarioSpec

        template = RunnerTemplate.for_spec(
            ScenarioSpec(workload={"kind": "benchmark",
                                   "params": {"name": "sort", "num_jobs": 10}},
                         strategy="clone")
        )
        replicas = [template.run(seed) for seed in range(5)]
        print([round(r.report.pocd, 3) for r in replicas])

    :func:`run` uses a small LRU of templates internally, so sweeps that
    stream many same-family specs (``seed`` grids in particular) get the
    amortization without touching this class.
    """

    __slots__ = ("_spec", "_strategy", "_estimator", "_jobs")

    #: Per-template cap on memoized per-seed workloads.
    _JOBS_CACHE_SIZE = 16

    def __init__(self, spec: ScenarioSpec):
        if not isinstance(spec, ScenarioSpec):
            raise SpecValidationError(
                "spec", f"expected ScenarioSpec, got {type(spec).__name__}"
            )
        self._spec = spec
        self._strategy = spec.build_strategy()
        if spec.estimator is not None:
            self._estimator = _registry.ESTIMATORS.get(spec.estimator)
        else:
            self._estimator = default_estimator_for(self._strategy.name)
        self._jobs: "OrderedDict[int, List[JobSpec]]" = OrderedDict()

    @property
    def spec(self) -> ScenarioSpec:
        """The spec this template was built from (one member of the family)."""
        return self._spec

    @classmethod
    def for_spec(cls, spec: ScenarioSpec) -> "RunnerTemplate":
        """The cached template for ``spec``'s family (built on first use)."""
        if not isinstance(spec, ScenarioSpec):
            raise SpecValidationError(
                "spec", f"expected ScenarioSpec, got {type(spec).__name__}"
            )
        family = dict(spec.to_dict(), seed=0)
        key = (_registry.registry_epoch(), canonical_json(family))
        template = _TEMPLATES.get(key)
        if template is None:
            template = cls(spec)
            _TEMPLATES[key] = template
            while len(_TEMPLATES) > _TEMPLATE_CACHE_SIZE:
                _TEMPLATES.popitem(last=False)
        else:
            _TEMPLATES.move_to_end(key)
        return template

    def jobs_for(self, seed: int) -> List[JobSpec]:
        """The family's workload materialized for ``seed`` (memoized)."""
        jobs = self._jobs.get(seed)
        if jobs is None:
            if seed == self._spec.seed:
                jobs = self._spec.build_jobs()
            else:
                jobs = dataclasses.replace(self._spec, seed=seed).build_jobs()
            self._jobs[seed] = jobs
            while len(self._jobs) > self._JOBS_CACHE_SIZE:
                self._jobs.popitem(last=False)
        else:
            self._jobs.move_to_end(seed)
        return jobs

    def run(self, seed: Optional[int] = None) -> ScenarioResult:
        """Execute one replica: the template's spec re-seeded with ``seed``."""
        spec = self._spec
        if seed is not None and seed != spec.seed:
            spec = dataclasses.replace(spec, seed=seed)
        return self._execute(spec)

    def _execute(self, spec: ScenarioSpec) -> ScenarioResult:
        jobs = self.jobs_for(spec.seed)
        runner = SimulationRunner(
            cluster=spec.cluster,
            hadoop=spec.hadoop,
            seed=spec.seed,
            max_events=spec.max_events,
            profiler=telemetry.active_profiler(),
        )
        started = time.perf_counter()
        report = runner.run(jobs, self._strategy, estimator=self._estimator)
        wall_time = time.perf_counter() - started
        _SCENARIO_WALL.observe(wall_time)
        return ScenarioResult(
            spec=spec,
            report=report,
            fingerprint=spec.fingerprint(),
            wall_time_s=wall_time,
        )


# Small LRU of templates keyed by (registry epoch, seed-masked canonical
# spec JSON).  Sized for a handful of concurrently-swept families; each
# worker process keeps its own.
_TEMPLATE_CACHE_SIZE = 8
_TEMPLATES: "OrderedDict[Tuple[int, str], RunnerTemplate]" = OrderedDict()


def clear_template_cache() -> None:
    """Drop all cached :class:`RunnerTemplate` instances (mainly for tests)."""
    _TEMPLATES.clear()


def run(spec: ScenarioSpec) -> ScenarioResult:
    """Execute one scenario end to end and return its result.

    Resolves the workload, strategy and estimator through the plugin
    registries via a cached :class:`RunnerTemplate` (seed-independent
    construction is amortized across replica specs), builds a fresh
    :class:`SimulationRunner` (no simulation state is shared between
    runs) and times the simulation.
    """
    if not isinstance(spec, ScenarioSpec):
        raise SpecValidationError("spec", f"expected ScenarioSpec, got {type(spec).__name__}")
    return RunnerTemplate.for_spec(spec)._execute(spec)


# ----------------------------------------------------------------------
# Polymorphic spec/result dispatch
# ----------------------------------------------------------------------
# Cluster payloads carry a "kind": "cluster" discriminator (which plain
# ScenarioSpec.from_dict would reject as an unknown field, so the two
# payload spaces cannot be confused).  The cluster package imports
# repro.api, hence the lazy imports here.
_CLUSTER_KIND = "cluster"


def _is_cluster_payload(data: Any) -> bool:
    return isinstance(data, Mapping) and data.get("kind") == _CLUSTER_KIND


def spec_from_dict(data: Mapping[str, Any]):
    """Rebuild a :class:`ScenarioSpec` *or* ``ClusterSpec`` from JSON.

    Dispatches on the ``"kind"`` discriminator: payloads tagged
    ``"cluster"`` resolve through :mod:`repro.cluster`, everything else
    through :meth:`ScenarioSpec.from_dict`.
    """
    if _is_cluster_payload(data):
        from repro.cluster import ClusterSpec

        return ClusterSpec.from_dict(data)
    return ScenarioSpec.from_dict(data)


def result_from_dict(data: Mapping[str, Any]):
    """Rebuild a :class:`ScenarioResult` *or* ``ClusterResult`` from JSON."""
    if isinstance(data, Mapping) and _is_cluster_payload(data.get("spec")):
        from repro.cluster import ClusterResult

        return ClusterResult.from_dict(data)
    return ScenarioResult.from_dict(data)


def execute(spec):
    """Run any spec: :func:`run` for scenarios, ``run_cluster`` for clusters."""
    if getattr(spec, "kind", None) == _CLUSTER_KIND:
        from repro.cluster import run_cluster

        return run_cluster(spec)
    return run(spec)
