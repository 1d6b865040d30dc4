"""Declarative, serializable scenario specifications.

A :class:`ScenarioSpec` is the single value that fully determines one
simulation run: workload, cluster shape, Hadoop runtime knobs, strategy
(by registry name) and its parameters, completion-time estimator and the
RNG seed.  Specs are frozen, JSON-round-trippable
(``ScenarioSpec.from_dict(spec.to_dict()) == spec``) and content-hashable
(:meth:`ScenarioSpec.fingerprint` is stable across processes and
platforms), which is what makes result caching and multi-process sweeps
safe.

Validation happens at construction and every failure raises
:class:`SpecValidationError` carrying the dotted name of the offending
field (``"strategy"``, ``"workload.kind"``, ``"strategy_params.tau_est"``
...), so a bad spec loaded from JSON is diagnosable without a traceback
safari.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields as _dataclass_fields
from typing import Any, Dict, List, Mapping, Optional

from repro.api import registry as _registry
from repro.core.model import StrategyName
from repro.hadoop.config import HadoopConfig
from repro.simulator.cluster import ClusterConfig
from repro.simulator.entities import JobSpec
from repro.strategies import SpeculationStrategy, StrategyParameters


class SpecValidationError(ValueError):
    """A scenario spec failed validation; :attr:`field` names the culprit."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        self.reason = message
        super().__init__(f"{field_name}: {message}")

    def __reduce__(self):
        """Pickle by constructor arguments, so the error crosses processes."""
        return (type(self), (self.field, self.reason))


# ----------------------------------------------------------------------
# Canonical JSON (the substrate of fingerprinting)
# ----------------------------------------------------------------------
def _normalize_json(obj: Any, where: str) -> Any:
    """Reduce ``obj`` to JSON-native types, rejecting anything unstable."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise SpecValidationError(where, f"non-finite float {obj!r} is not serializable")
        return obj + 0.0  # normalizes -0.0 to 0.0
    if isinstance(obj, Mapping):
        return {str(key): _normalize_json(value, f"{where}.{key}") for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize_json(value, f"{where}[{index}]") for index, value in enumerate(obj)]
    raise SpecValidationError(where, f"unsupported type {type(obj).__name__} in a spec")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, normalized floats."""
    return json.dumps(_normalize_json(obj, "spec"), sort_keys=True, separators=(",", ":"))


def _section_from_mapping(section: str, cls, mapping: Mapping[str, Any]):
    """Build a config dataclass from a mapping with field-level errors."""
    allowed = {f.name for f in _dataclass_fields(cls)}
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise SpecValidationError(
            f"{section}.{unknown[0]}",
            f"unknown field (allowed: {', '.join(sorted(allowed))})",
        )
    try:
        return cls(**dict(mapping))
    except (TypeError, ValueError) as error:
        raise SpecValidationError(section, str(error)) from error


# ----------------------------------------------------------------------
# Job-spec serialization (used by the "explicit" workload kind)
# ----------------------------------------------------------------------
def job_spec_to_dict(spec: JobSpec) -> Dict[str, Any]:
    """Serialize a simulator :class:`JobSpec` to a JSON-ready dict."""
    return dataclasses.asdict(spec)


def job_spec_from_dict(data: Mapping[str, Any]) -> JobSpec:
    """Rebuild a :class:`JobSpec`, naming bad fields on failure."""
    if not isinstance(data, Mapping):
        raise SpecValidationError("workload.params.jobs", "each job must be a mapping")
    allowed = {f.name for f in _dataclass_fields(JobSpec)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SpecValidationError(
            f"workload.params.jobs.{unknown[0]}",
            f"unknown field (allowed: {', '.join(sorted(allowed))})",
        )
    try:
        return JobSpec(**dict(data))
    except (TypeError, ValueError) as error:
        raise SpecValidationError("workload.params.jobs", str(error)) from error


# ----------------------------------------------------------------------
# The spec types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """A workload by registry kind plus builder parameters.

    ``params`` is normalized to JSON-native values at construction so that
    equality and fingerprints are representation-independent (tuples
    become lists, mapping keys become strings, non-finite floats are
    rejected).
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Canonicalize the workload kind and normalize the params."""
        if not isinstance(self.kind, str) or not self.kind.strip():
            raise SpecValidationError("workload.kind", "must be a non-empty string")
        kind = self.kind.strip().lower()
        if kind not in _registry.WORKLOADS:
            raise SpecValidationError(
                "workload.kind",
                f"unknown workload {self.kind!r}; available: "
                f"{', '.join(_registry.available_workloads())}",
            )
        object.__setattr__(self, "kind", kind)
        if not isinstance(self.params, Mapping):
            raise SpecValidationError("workload.params", "must be a mapping")
        object.__setattr__(self, "params", _normalize_json(dict(self.params), "workload.params"))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        """Rebuild from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise SpecValidationError("workload", "expected a mapping")
        unknown = sorted(set(data) - {"kind", "params"})
        if unknown:
            raise SpecValidationError(
                f"workload.{unknown[0]}", "unknown field (allowed: kind, params)"
            )
        if "kind" not in data:
            raise SpecValidationError("workload.kind", "is required")
        return cls(kind=data["kind"], params=data.get("params", {}))


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one simulation run.

    Parameters
    ----------
    workload:
        What jobs to simulate — a :class:`WorkloadSpec` (or equivalent
        mapping) resolved through the workload registry.
    strategy:
        Registry name of the speculation strategy (paper aliases such as
        ``"restart"`` are canonicalized, so equivalent names share one
        fingerprint).
    strategy_params:
        Shared strategy knobs (timing, theta, SLA floor, ...).
    cluster / hadoop:
        Cluster shape and simulated-runtime configuration.
    estimator:
        Registry name of the completion-time estimator, or ``None`` for
        the paper's default (Chronos estimator for Chronos strategies,
        the plain Hadoop one for baselines).
    seed:
        RNG seed shared by the workload builder and the simulator.
    max_events:
        Optional hard cap on simulation events (truncation safety valve).
    """

    workload: WorkloadSpec
    strategy: str
    strategy_params: StrategyParameters = field(default_factory=StrategyParameters)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    hadoop: HadoopConfig = field(default_factory=HadoopConfig)
    estimator: Optional[str] = None
    seed: int = 0
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        """Validate and canonicalize every section of the spec."""
        workload = self.workload
        if isinstance(workload, Mapping):
            workload = WorkloadSpec.from_dict(workload)
            object.__setattr__(self, "workload", workload)
        if not isinstance(workload, WorkloadSpec):
            raise SpecValidationError(
                "workload", f"expected WorkloadSpec or mapping, got {type(workload).__name__}"
            )

        strategy = self.strategy
        if isinstance(strategy, StrategyName):
            strategy = strategy.value
        if not isinstance(strategy, str) or not strategy.strip():
            raise SpecValidationError("strategy", "must be a non-empty string")
        try:
            canonical = _registry.resolve_strategy_name(strategy)
        except _registry.UnknownPluginError as error:
            raise SpecValidationError("strategy", str(error)) from error
        object.__setattr__(self, "strategy", canonical)

        for section, cls in (
            ("strategy_params", StrategyParameters),
            ("cluster", ClusterConfig),
            ("hadoop", HadoopConfig),
        ):
            value = getattr(self, section)
            if isinstance(value, Mapping):
                object.__setattr__(self, section, _section_from_mapping(section, cls, value))
            elif not isinstance(value, cls):
                raise SpecValidationError(
                    section, f"expected {cls.__name__} or mapping, got {type(value).__name__}"
                )

        if self.estimator is not None:
            if not isinstance(self.estimator, str) or not self.estimator.strip():
                raise SpecValidationError("estimator", "must be a non-empty string or None")
            estimator = self.estimator.strip().lower()
            if estimator not in _registry.ESTIMATORS:
                raise SpecValidationError(
                    "estimator",
                    f"unknown estimator {self.estimator!r}; available: "
                    f"{', '.join(_registry.available_estimators())}",
                )
            object.__setattr__(self, "estimator", estimator)

        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise SpecValidationError("seed", "must be a non-negative integer")
        if self.max_events is not None and (
            not isinstance(self.max_events, int)
            or isinstance(self.max_events, bool)
            or self.max_events < 1
        ):
            raise SpecValidationError("max_events", "must be a positive integer or None")

    # ------------------------------------------------------------------
    # Serialization and identity
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready nested dict; inverse of :meth:`from_dict`."""
        return {
            "workload": self.workload.to_dict(),
            "strategy": self.strategy,
            "strategy_params": dataclasses.asdict(self.strategy_params),
            "cluster": dataclasses.asdict(self.cluster),
            "hadoop": dataclasses.asdict(self.hadoop),
            "estimator": self.estimator,
            "seed": self.seed,
            "max_events": self.max_events,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON)."""
        if not isinstance(data, Mapping):
            raise SpecValidationError("spec", f"expected a mapping, got {type(data).__name__}")
        allowed = {f.name for f in _dataclass_fields(cls)}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise SpecValidationError(
                unknown[0], f"unknown field (allowed: {', '.join(sorted(allowed))})"
            )
        if "workload" not in data:
            raise SpecValidationError("workload", "is required")
        if "strategy" not in data:
            raise SpecValidationError("strategy", "is required")
        kwargs = {key: value for key, value in data.items() if key in allowed}
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecValidationError("spec", f"invalid JSON: {error}") from error
        return cls.from_dict(data)

    def fingerprint(self) -> str:
        """Stable content hash (16 hex chars) of the canonical spec JSON.

        Two specs have the same fingerprint iff they describe the same
        scenario; the hash is stable across processes, platforms and
        Python versions, which makes it a safe cache key.
        """
        digest = hashlib.sha256(canonical_json(self.to_dict()).encode("utf-8"))
        return digest.hexdigest()[:16]

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_overrides(
        self, overrides: Optional[Mapping[str, Any]] = None, **kwargs: Any
    ) -> "ScenarioSpec":
        """A copy with dotted-path overrides applied.

        Paths address the :meth:`to_dict` structure: ``"strategy"``,
        ``"strategy_params.theta"``, ``"cluster.num_nodes"``,
        ``"workload.params.num_jobs"``...  Keyword arguments use ``__``
        in place of dots (``strategy_params__theta=1e-3``).
        """
        merged: Dict[str, Any] = dict(overrides or {})
        for key, value in kwargs.items():
            merged[key.replace("__", ".")] = value
        data = self.to_dict()
        for path, value in merged.items():
            _apply_override(data, path, value)
        return ScenarioSpec.from_dict(data)

    def build_jobs(self) -> List[JobSpec]:
        """Materialize the workload via the workload registry."""
        try:
            return _registry.build_jobs(self.workload.kind, self.workload.params, self.seed)
        except SpecValidationError:
            raise
        except ValueError as error:
            raise SpecValidationError("workload.params", str(error)) from error

    def build_strategy(self) -> SpeculationStrategy:
        """Instantiate the strategy via the strategy registry."""
        return _registry.create_strategy(self.strategy, self.strategy_params)


def _apply_override(data: Dict[str, Any], path: str, value: Any) -> None:
    """Set a dotted path inside a nested spec dict."""
    if not path:
        raise SpecValidationError("override", "empty override path")
    parts = path.split(".")
    node = data
    for depth, part in enumerate(parts[:-1]):
        if not isinstance(node, dict):
            raise SpecValidationError(
                ".".join(parts[: depth + 1]), "override path does not address a mapping"
            )
        if part not in node:
            # Workload builder params are open-ended; config sections are not.
            node[part] = {}
        node = node[part]
    if not isinstance(node, dict):
        raise SpecValidationError(path, "override path does not address a mapping")
    node[parts[-1]] = value
