"""Benchmark workload profiles (Sort, SecondarySort, TeraSort, WordCount).

The testbed experiments (Figure 2) run the map phases of four classic
MapReduce benchmarks over 1.2 GB inputs on a contended 40-node cluster.
Each benchmark is represented here by a :class:`WorkloadProfile` whose
Pareto parameters reflect the paper's observations:

* task execution times follow a Pareto distribution with tail index
  ``beta < 2`` on the contended testbed,
* Sort and SecondarySort are I/O bound (longer minimum task times,
  heavier tails under disk contention),
* WordCount and the TeraSort map phase are CPU bound (shorter minimum
  task times, slightly lighter tails),
* deadlines are 100 s for Sort/TeraSort and 150 s for
  SecondarySort/WordCount, with 10 tasks per job.

The absolute parameter values are calibrated so that mean task times and
deadline tightness are in the same regime as the paper's experiments; the
reproduced quantities of interest are orderings and ratios, not absolute
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.simulator.entities import JobSpec


@dataclass(frozen=True)
class WorkloadProfile:
    """Static description of one benchmark workload.

    Parameters
    ----------
    name:
        Benchmark name (lower case, e.g. ``"sort"``).
    bound:
        ``"io"`` or ``"cpu"`` — which resource the map tasks stress.
    tmin:
        Minimum task execution time on the contended testbed (seconds).
    beta:
        Pareto tail index of the task execution time.
    num_tasks:
        Tasks per job (the paper uses 10).
    deadline:
        Default job deadline in seconds.
    input_size_mb:
        Total input size per job (1.2 GB in the paper).
    """

    name: str
    bound: str
    tmin: float
    beta: float
    num_tasks: int = 10
    deadline: float = 100.0
    input_size_mb: float = 1200.0

    def __post_init__(self) -> None:
        if self.bound not in ("io", "cpu"):
            raise ValueError("bound must be 'io' or 'cpu'")
        if self.tmin <= 0 or self.beta <= 0:
            raise ValueError("Pareto parameters must be positive")
        if self.num_tasks < 1:
            raise ValueError("num_tasks must be positive")
        if self.deadline <= self.tmin:
            raise ValueError("deadline must exceed tmin")

    @property
    def split_size_mb(self) -> float:
        """Input split processed by each map task."""
        return self.input_size_mb / self.num_tasks

    def job_spec(
        self,
        job_id: str,
        submit_time: float = 0.0,
        unit_price: float = 1.0,
        deadline: Optional[float] = None,
    ) -> JobSpec:
        """Create a :class:`JobSpec` for one job of this benchmark."""
        return JobSpec(
            job_id=job_id,
            num_tasks=self.num_tasks,
            deadline=deadline if deadline is not None else self.deadline,
            tmin=self.tmin,
            beta=self.beta,
            submit_time=submit_time,
            unit_price=unit_price,
            data_size_mb=self.split_size_mb,
            workload=self.name,
        )


#: The four benchmarks of the testbed evaluation.  Sort and SecondarySort
#: are I/O bound; TeraSort's map phase and WordCount are CPU bound.
BENCHMARKS: Dict[str, WorkloadProfile] = {
    "sort": WorkloadProfile(
        name="sort", bound="io", tmin=22.0, beta=1.35, num_tasks=10, deadline=100.0
    ),
    "secondarysort": WorkloadProfile(
        name="secondarysort", bound="io", tmin=30.0, beta=1.30, num_tasks=10, deadline=150.0
    ),
    "terasort": WorkloadProfile(
        name="terasort", bound="cpu", tmin=20.0, beta=1.45, num_tasks=10, deadline=100.0
    ),
    "wordcount": WorkloadProfile(
        name="wordcount", bound="cpu", tmin=28.0, beta=1.40, num_tasks=10, deadline=150.0
    ),
}


def get_benchmark(name: str) -> WorkloadProfile:
    """Look up a benchmark profile by (case-insensitive) name."""
    key = name.strip().lower()
    if key not in BENCHMARKS:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {', '.join(sorted(BENCHMARKS))}"
        )
    return BENCHMARKS[key]


def benchmark_jobs(
    name: str,
    num_jobs: int = 100,
    inter_arrival: float = 5.0,
    unit_price: float = 1.0,
    deadline: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[JobSpec]:
    """Generate a stream of jobs for one benchmark.

    Arrivals are exponential with the given mean inter-arrival time (a
    Poisson process), mirroring how the testbed experiments submit 100
    jobs back to back.
    """
    if num_jobs < 1:
        raise ValueError("num_jobs must be positive")
    if inter_arrival < 0:
        raise ValueError("inter_arrival must be non-negative")
    profile = get_benchmark(name)
    rng = rng if rng is not None else np.random.default_rng(0)
    submit = 0.0
    jobs = []
    for index in range(num_jobs):
        jobs.append(
            profile.job_spec(
                job_id=f"{profile.name}-{index}",
                submit_time=submit,
                unit_price=unit_price,
                deadline=deadline,
            )
        )
        if inter_arrival > 0:
            submit += float(rng.exponential(inter_arrival))
    return jobs


def mixed_benchmark_jobs(
    num_jobs_per_benchmark: int = 25,
    inter_arrival: float = 5.0,
    unit_price: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> List[JobSpec]:
    """Interleave jobs from all four benchmarks into one arrival stream."""
    rng = rng if rng is not None else np.random.default_rng(0)
    jobs: List[JobSpec] = []
    submit = 0.0
    names: Tuple[str, ...] = tuple(sorted(BENCHMARKS))
    for index in range(num_jobs_per_benchmark * len(names)):
        profile = BENCHMARKS[names[index % len(names)]]
        jobs.append(
            profile.job_spec(
                job_id=f"{profile.name}-{index}",
                submit_time=submit,
                unit_price=unit_price,
            )
        )
        if inter_arrival > 0:
            submit += float(rng.exponential(inter_arrival))
    return jobs
