"""String-keyed plugin registries for strategies, estimators and workloads.

The declarative API (:mod:`repro.api.spec`) refers to strategies,
completion-time estimators and workload generators *by name* so that a
:class:`~repro.api.spec.ScenarioSpec` can be serialized, hashed and
shipped to worker processes.  The registries in this module resolve those
names; third-party code extends the system by registering new plugins —
no edits to ``repro`` required::

    from repro.api import register_strategy, register_workload

    @register_strategy("my-strategy")
    def build_my_strategy(params):
        return MyStrategy(params)

    @register_workload("replay")
    def replay_workload(path, *, seed=0):
        return load_job_specs(path)

Every registry lookup failure raises :class:`UnknownPluginError`, which
lists the registered names so typos are self-diagnosing.

Builtins registered at import time:

* strategies — the six paper strategies under their canonical
  :class:`~repro.core.model.StrategyName` values (``clone``,
  ``s-restart``, ``s-resume``, ``hadoop-ns``, ``hadoop-s``, ``mantri``),
* estimators — ``chronos`` (JVM-aware, paper eq. 30) and ``hadoop``
  (the default progress/elapsed estimator),
* workloads — ``benchmark`` (one testbed benchmark), ``mixed`` (all four
  interleaved), ``google-trace`` (the synthetic Google-trace generator)
  and ``explicit`` (a literal list of job-spec dictionaries).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Generic, Iterable, List, Mapping, Optional, TypeVar

import numpy as np

from repro.core.model import StrategyName
from repro.simulator.entities import JobSpec
from repro.simulator.progress import (
    CompletionTimeEstimator,
    chronos_estimate_completion,
    hadoop_estimate_completion,
)
from repro.strategies import SpeculationStrategy, StrategyParameters, build_strategy
from repro.traces.google_trace import GoogleTraceConfig, SyntheticGoogleTrace
from repro.traces.spot_price import SpotPriceConfig, SpotPriceHistory
from repro.traces.workloads import benchmark_jobs, mixed_benchmark_jobs

T = TypeVar("T")

#: A strategy factory maps shared parameters to a ready strategy instance.
StrategyFactory = Callable[[StrategyParameters], SpeculationStrategy]
#: A workload builder maps keyword parameters (plus ``seed``) to job specs.
WorkloadBuilder = Callable[..., List[JobSpec]]


class UnknownPluginError(KeyError):
    """A name was looked up that no plugin is registered under."""

    def __init__(self, kind: str, name: str, available: Iterable[str]):
        self.kind = kind
        self.name = name
        self.available = tuple(sorted(available))
        names = ", ".join(self.available) or "<none registered>"
        self.message = f"unknown {kind} {name!r}; available: {names}"
        super().__init__(self.message)

    def __reduce__(self):
        """Pickle by constructor arguments, so the error crosses processes."""
        return (type(self), (self.kind, self.name, self.available))

    def __str__(self) -> str:
        """The plain message (KeyError would repr() it, adding stray quotes)."""
        return self.message


# Monotonic counter bumped on every (un)registration across all
# registries.  Caches that memoize resolved plugins (e.g. the façade's
# RunnerTemplate cache) key on this so re-registering a name under a
# different implementation invalidates them.
_epoch = 0


def registry_epoch() -> int:
    """Generation counter of the plugin registries (bumped on mutation)."""
    return _epoch


def _bump_epoch() -> None:
    global _epoch
    _epoch += 1


class Registry(Generic[T]):
    """A case-insensitive name -> plugin mapping with a decorator form."""

    def __init__(self, kind: str):
        self._kind = kind
        self._plugins: Dict[str, T] = {}

    @property
    def kind(self) -> str:
        """What this registry holds (used in error messages)."""
        return self._kind

    def register(
        self, name: str, plugin: Optional[T] = None, *, overwrite: bool = False
    ):
        """Register ``plugin`` under ``name``.

        With ``plugin`` omitted, returns a decorator::

            @REGISTRY.register("name")
            def plugin(...): ...

        Re-registering an existing name raises unless ``overwrite=True``.
        """
        key = self._normalize(name)
        if plugin is None:

            def decorator(obj: T) -> T:
                self.register(name, obj, overwrite=overwrite)
                return obj

            return decorator
        if key in self._plugins and not overwrite:
            raise ValueError(
                f"{self._kind} {name!r} is already registered; pass overwrite=True to replace it"
            )
        self._plugins[key] = plugin
        _bump_epoch()
        return plugin

    def get(self, name: str) -> T:
        """Look up a plugin, raising :class:`UnknownPluginError` if absent."""
        key = self._normalize(name)
        if key not in self._plugins:
            raise UnknownPluginError(self._kind, name, self._plugins)
        return self._plugins[key]

    def unregister(self, name: str) -> None:
        """Remove a plugin; raises :class:`UnknownPluginError` if absent."""
        key = self._normalize(name)
        if key not in self._plugins:
            raise UnknownPluginError(self._kind, name, self._plugins)
        del self._plugins[key]
        _bump_epoch()

    def names(self) -> tuple:
        """All registered names, sorted."""
        return tuple(sorted(self._plugins))

    def __contains__(self, name: object) -> bool:
        """Whether a plugin is registered under ``name`` (case-insensitive)."""
        try:
            return self._normalize(name) in self._plugins
        except (TypeError, ValueError):
            return False

    def __len__(self) -> int:
        """Number of registered plugins."""
        return len(self._plugins)

    def _normalize(self, name: object) -> str:
        if isinstance(name, StrategyName):
            name = name.value
        if not isinstance(name, str) or not name.strip():
            raise TypeError(f"{self._kind} name must be a non-empty string, got {name!r}")
        return name.strip().lower()


#: Strategy name -> factory producing a configured strategy instance.
STRATEGIES: Registry[StrategyFactory] = Registry("strategy")
#: Estimator name -> completion-time estimator callable.
ESTIMATORS: Registry[CompletionTimeEstimator] = Registry("estimator")
#: Workload kind -> builder producing a list of job specs.
WORKLOADS: Registry[WorkloadBuilder] = Registry("workload")


# ----------------------------------------------------------------------
# Module-level convenience wrappers (the documented registration API)
# ----------------------------------------------------------------------
def register_strategy(name: str, factory: Optional[StrategyFactory] = None, **kwargs):
    """Register a strategy factory; decorator form when ``factory`` is omitted."""
    return STRATEGIES.register(name, factory, **kwargs)


def register_estimator(name: str, estimator: Optional[CompletionTimeEstimator] = None, **kwargs):
    """Register a completion-time estimator; decorator form when omitted."""
    return ESTIMATORS.register(name, estimator, **kwargs)


def register_workload(name: str, builder: Optional[WorkloadBuilder] = None, **kwargs):
    """Register a workload builder; decorator form when ``builder`` is omitted."""
    return WORKLOADS.register(name, builder, **kwargs)


def available_strategies() -> tuple:
    """Names of every registered strategy."""
    return STRATEGIES.names()


def available_estimators() -> tuple:
    """Names of every registered estimator."""
    return ESTIMATORS.names()


def available_workloads() -> tuple:
    """Names of every registered workload kind."""
    return WORKLOADS.names()


def resolve_strategy_name(name: str) -> str:
    """Canonicalize a strategy name (accepting the paper's aliases).

    ``"restart"``, ``"speculative-resume"`` etc. resolve to their
    canonical registry keys so equivalent specs share one fingerprint.
    """
    if name in STRATEGIES:
        return STRATEGIES._normalize(name)
    if isinstance(name, (str, StrategyName)):
        try:
            canonical = StrategyName.parse(
                name.value if isinstance(name, StrategyName) else name
            ).value
        except ValueError:
            canonical = None
        if canonical is not None and canonical in STRATEGIES:
            return canonical
    raise UnknownPluginError("strategy", name, STRATEGIES.names())


def create_strategy(name: str, params: StrategyParameters) -> SpeculationStrategy:
    """Instantiate a registered strategy with the given shared parameters."""
    return STRATEGIES.get(resolve_strategy_name(name))(params)


def build_jobs(kind: str, params: Mapping[str, Any], seed: int) -> List[JobSpec]:
    """Materialize a workload: resolve the builder and call it.

    The builder receives the spec's ``seed`` as a keyword argument plus
    every entry of ``params``; parameter mismatches surface as a
    :class:`ValueError` naming the workload kind.
    """
    builder = WORKLOADS.get(kind)
    try:
        jobs = builder(seed=seed, **dict(params))
    except TypeError as error:
        raise ValueError(f"invalid parameters for workload {kind!r}: {error}") from error
    return list(jobs)


# ----------------------------------------------------------------------
# Builtin plugins
# ----------------------------------------------------------------------
for _name in StrategyName:
    STRATEGIES.register(_name.value, functools.partial(build_strategy, _name))

ESTIMATORS.register("chronos", chronos_estimate_completion)
ESTIMATORS.register("hadoop", hadoop_estimate_completion)


@WORKLOADS.register("benchmark")
def _benchmark_workload(
    name: str,
    num_jobs: int = 100,
    inter_arrival: float = 5.0,
    unit_price: float = 1.0,
    deadline: Optional[float] = None,
    *,
    seed: int = 0,
) -> List[JobSpec]:
    """A Poisson stream of jobs from one testbed benchmark (Figure 2)."""
    return benchmark_jobs(
        name,
        num_jobs=num_jobs,
        inter_arrival=inter_arrival,
        unit_price=unit_price,
        deadline=deadline,
        rng=np.random.default_rng(seed),
    )


@WORKLOADS.register("mixed")
def _mixed_workload(
    num_jobs_per_benchmark: int = 25,
    inter_arrival: float = 5.0,
    unit_price: float = 1.0,
    *,
    seed: int = 0,
) -> List[JobSpec]:
    """All four testbed benchmarks interleaved into one arrival stream."""
    return mixed_benchmark_jobs(
        num_jobs_per_benchmark=num_jobs_per_benchmark,
        inter_arrival=inter_arrival,
        unit_price=unit_price,
        rng=np.random.default_rng(seed),
    )


@WORKLOADS.register("google-trace")
def _google_trace_workload(
    num_jobs: int = 200,
    beta_override: Optional[float] = None,
    spot_price_mean: Optional[float] = None,
    spot_price_seed: Optional[int] = None,
    *,
    seed: int = 0,
) -> List[JobSpec]:
    """Laptop-scale synthetic Google-trace jobs (Tables I/II, Figures 3-5).

    When ``spot_price_mean`` is given, per-job unit prices come from a
    synthetic EC2 spot-price history instead of a flat 1.0.
    """
    spot = None
    if spot_price_mean is not None:
        spot_seed = spot_price_seed if spot_price_seed is not None else seed + 7
        spot = SpotPriceHistory(SpotPriceConfig(mean_price=spot_price_mean, seed=spot_seed))
    config = GoogleTraceConfig.small(num_jobs=num_jobs, seed=seed)
    return SyntheticGoogleTrace(config, spot_prices=spot).job_specs(beta_override=beta_override)


@WORKLOADS.register("explicit")
def _explicit_workload(jobs: Iterable[Mapping[str, Any]], *, seed: int = 0) -> List[JobSpec]:
    """A literal list of serialized job specs (see ``job_spec_to_dict``)."""
    from repro.api.spec import job_spec_from_dict

    del seed  # the jobs are fully specified; nothing left to sample
    return [job_spec_from_dict(job) for job in jobs]
