#!/usr/bin/env python3
"""Chronos sweep benchmark: closed-loop ``run_specs`` calls on one workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tiny-grid.pool --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
(imports, spec generation, warm-up; sampled ``SETUP_SAMPLES`` times), then repeated
``run_specs`` calls on the workload's specs until ``--seconds`` have
passed, each on a cold queue and cold process caches.  Times are scaled
to a nominal host speed measured beside every call (see ``bench_host``).
``--trace 1`` makes the same untraced calls, then two traced calls whose
spans give the per-layer metrics (see ``bench_layers.PER_LAYER``).  Every call's results
are checked against the recorded digest and an inline re-run of a sample.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Queue databases, temporary files and span files of a run (removed after).
TMP_ROOT = ROOT / ".perfbench-tmp"
#: A run that has not finished after this many seconds aborts.
TIME_LIMIT_S = 170
#: Set-up is sampled this many times per measured run (this process plus
#: fresh ones); the median is reported.
SETUP_SAMPLES = 5
#: Inline re-runs compared against the measured results, per run.
SPOT_CHECKS = {"tiny-grid": 8, "paper-trace": 2}


def _load_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}; run from a checkout")
    sys.path.insert(0, str(src))


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class _Queues:
    """Fresh throwaway queue database paths inside the checkout."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def fresh(self) -> Path:
        self.count += 1
        return self.directory / f"queue-{os.getpid()}-{self.count}.sqlite"

    @staticmethod
    def remove(path: Path) -> None:
        for leftover in path.parent.glob(path.name + "*"):
            leftover.unlink()


def _setup(workload, seed: int, queues: _Queues):
    """Imports, spec generation and a warm-up on disjoint seeds."""
    from repro.api import run_specs

    import bench_workloads

    specs = bench_workloads.build_specs(workload, seed)
    warmup = bench_workloads.build_warmup_specs(workload, seed)
    db = queues.fresh()
    run_specs(warmup, **bench_workloads.run_kwargs(workload, db))
    _Queues.remove(db)
    bench_workloads.clear_process_caches()
    return specs


def _setup_samples(args) -> list:
    """Set-up time of fresh processes doing this run's set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        completed = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--setup-only",
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
            ],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def _measured_call(workload, specs, queues: _Queues, on_event=None, around=None):
    """One cold ``run_specs`` call: ``(outcome, wall s, cpu s, queue db)``.

    ``around`` is a context manager entered just around the call (the
    traced run's root span).
    """
    from repro.api import run_specs

    import bench_workloads

    bench_workloads.clear_process_caches()
    db = queues.fresh()
    kwargs = bench_workloads.run_kwargs(workload, db)
    if on_event is not None:
        kwargs["on_event"] = on_event
    cpu = _cpu_s()
    with around or contextlib.nullcontext():
        started = time.perf_counter()
        outcome = run_specs(specs, **kwargs)
        wall = time.perf_counter() - started
    cpu = _cpu_s() - cpu
    return outcome, wall, cpu, db


class _Checker:
    """Counts failed scenarios over the calls of one run."""

    def __init__(self, workload, seed: int, specs):
        import bench_check

        self.specs = specs
        self.fingerprints = [spec.fingerprint() for spec in specs]
        self.expected = bench_check.recorded_digest(workload.family, seed)
        self.reference = None
        self.digest = None
        self.attempted = 0
        self.failed = 0

    def check(self, outcome) -> int:
        import bench_check

        failed, hashes = bench_check.failed_scenarios(
            outcome, self.fingerprints, self.reference, self.expected
        )
        if self.reference is None and hashes:
            self.reference = hashes
            self.digest = bench_check.digest(hashes)
        self.attempted += len(self.specs)
        self.failed += failed
        return failed

    def spot_check(self, family: str) -> None:
        """Re-run a spread of scenarios inline and compare payloads."""
        import bench_check
        from repro.api import run

        count = SPOT_CHECKS[family]
        step = max(1, len(self.specs) // count)
        for index in range(0, len(self.specs), step)[:count]:
            self.attempted += 1
            expected = None if self.reference is None else self.reference[index]
            if bench_check.payload_hash(run(self.specs[index])) != expected:
                self.failed += 1


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _closed_loop(workload, specs, seconds: float, queues: _Queues, checker: _Checker):
    """Untraced calls until ``seconds`` pass; returns per-call samples.

    The host's reference times are taken before the first call and after
    every call; ``scales`` holds each call's ``(wall, cpu)`` factors to
    the nominal host (see ``bench_host``).
    """
    import bench_host
    import bench_workloads

    walls, cpus, scales = [], [], []
    deadline = time.perf_counter() + seconds
    before = bench_host.reference_s(bench_workloads.busy_processes(workload))
    while True:
        outcome, wall, cpu, db = _measured_call(workload, specs, queues)
        _Queues.remove(db)
        failed = checker.check(outcome)
        after = bench_host.reference_s(bench_workloads.busy_processes(workload))
        walls.append(wall)
        cpus.append(cpu)
        scales.append(
            (bench_host.scale(before[0], after[0]), bench_host.scale(before[1], after[1]))
        )
        print(
            f"call {len(walls)}: {wall:.4f} s wall, {cpu:.4f} s cpu, "
            f"reference {before[0]:.4f} .. {after[0]:.4f} s wall (x{scales[-1][0]:.4f}), "
            f"{before[1]:.4f} .. {after[1]:.4f} s cpu (x{scales[-1][1]:.4f}), "
            f"{outcome.executed} executed, {failed} failed"
        )
        before = after
        if time.perf_counter() >= deadline:
            return walls, cpus, scales


def _traced_calls(workload, specs, queues: _Queues, checker: _Checker):
    """Two traced calls: per-layer metrics of the first, counts of both."""
    import bench_layers
    import bench_trace
    import bench_workloads

    recorder = bench_trace.Recorder(Path(os.environ["TMPDIR"]) / "spans")
    recorder.install()
    calls = []
    try:
        for attempt in range(2):
            recorder.begin(f"{os.getpid()}-{attempt}")
            delivered = {}
            first = []
            started_epoch = time.time()
            origin = time.perf_counter()

            def on_event(event, delivered=delivered, first=first, origin=origin):
                if event.kind == "scenario-completed":
                    delivered[event.fingerprint] = time.time()
                    if not first:
                        first.append(time.perf_counter() - origin)

            outcome, wall, _, db = _measured_call(
                workload, specs, queues, on_event, recorder.span(bench_trace.ROOT_SPAN)
            )
            # Aggregate before checking: the check itself calls traced code.
            profile = bench_trace.profile(bench_trace.load_spans(recorder), os.getpid())
            queue_events = bench_layers.read_queue_events(db) if db.exists() else []
            _Queues.remove(db)
            checker.check(outcome)
            calls.append(
                bench_layers.TracedCall(
                    profile=profile,
                    wall_s=wall,
                    started_epoch=started_epoch,
                    results=outcome.results,
                    workers=bench_workloads.busy_processes(workload),
                    first_result_s=first[0] if first else 0.0,
                    delivered_at=delivered,
                    queue_events=queue_events,
                )
            )
    finally:
        recorder.uninstall()
    return calls


def _bytes_per_result(results) -> float:
    return statistics.mean(len(json.dumps(result.to_dict())) for result in results)


def _trace_run(workload, specs, queues, checker, walls) -> tuple:
    """Per-layer metrics; returns ``(metrics, problems)``."""
    import bench_layers

    untraced = statistics.median(walls)
    first, second = _traced_calls(workload, specs, queues, checker)
    metrics = bench_layers.layer_metrics(first, untraced, _bytes_per_result(first.results))
    repeat = bench_layers.layer_metrics(second, untraced, _bytes_per_result(second.results))
    problems = []
    for name in bench_layers.EXACT:
        if metrics[name][0] != repeat[name][0]:
            problems.append(
                f"count {name} differs between traced runs: "
                f"{metrics[name][0]} vs {repeat[name][0]}"
            )
    total, error = bench_layers.reconciliation(first.profile, first.wall_s)
    print(f"reconciliation: layer self times {total:.4f} s, traced wall {first.wall_s:.4f} s")
    print(f"  parent self time by layer: {bench_layers.format_reconciliation(first.profile)}")
    # Inline, the parent does all the work, so its layers must add up.
    if error and workload.executor == "inline":
        problems.append(error)
    print(f"bench.trace_overhead_ratio: {metrics['bench.trace_overhead_ratio'][0]:.4f}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _load_program()
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(available: {', '.join(bench_workloads.WORKLOADS)})"
        )
    workload = bench_workloads.WORKLOADS[args.workload]
    args.seed %= bench_workloads.MAX_SEED + 1
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    signal.signal(signal.SIGALRM, _on_time_limit)
    signal.alarm(TIME_LIMIT_S)

    TMP_ROOT.mkdir(exist_ok=True)
    run_dir = TMP_ROOT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(run_dir)
    try:
        return _run(args, workload, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def _on_time_limit(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {TIME_LIMIT_S} s")


def _run(args, workload, run_dir: Path) -> int:
    import tempfile

    tempfile.tempdir = str(run_dir)
    queues = _Queues(run_dir)
    specs = _setup(workload, args.seed, queues)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup = [setup_s] if args.trace else [setup_s, *_setup_samples(args)]

    checker = _Checker(workload, args.seed, specs)
    print(f"workload {workload.name}: {len(specs)} scenarios per call, seed {args.seed}")
    walls, cpus, scales = _closed_loop(workload, specs, args.seconds, queues, checker)
    problems = []
    if args.trace:
        metrics, problems = _trace_run(workload, specs, queues, checker, walls)
    else:
        raw_rates = [len(specs) / wall for wall in walls]
        raw_cpu_ms = [1000.0 * cpu / len(specs) for cpu in cpus]
        rates = [rate / wall_scale for rate, (wall_scale, _) in zip(raw_rates, scales)]
        cpu_ms = [ms * cpu_scale for ms, (_, cpu_scale) in zip(raw_cpu_ms, scales)]
        for name, values, raw in (
            ("scenarios_per_sec", rates, raw_rates),
            ("cpu_ms_per_scenario", cpu_ms, raw_cpu_ms),
        ):
            q1, q2, q3 = _quartiles(values)
            print(
                f"{name}: median {q2:.4f}, quartiles {q1:.4f} .. {q3:.4f}, n={len(values)} "
                f"(this host, unscaled: median {statistics.median(raw):.4f})"
            )
        # Set-up takes the calls' median wall factor: a single reference
        # beside the set-ups read up to 2x off (an idle host wakes slowly).
        setup_scale = statistics.median(wall_scale for wall_scale, _ in scales)
        print(
            f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)} "
            f"(this host, unscaled; x{setup_scale:.4f} to the nominal host)"
        )
        metrics = {
            "scenarios_per_sec": (statistics.median(rates), "1/s"),
            "cpu_ms_per_scenario": (statistics.median(cpu_ms), "ms"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "setup_s": (statistics.median(setup) * setup_scale, "s"),
        }
    checker.spot_check(workload.family)
    print(f"digest: {checker.digest} (recorded: {checker.expected or 'none for this seed'})")
    print(
        f"failed_ratio: {checker.failed / checker.attempted:.6f} "
        f"({checker.failed} of {checker.attempted} scenarios)"
    )
    for problem in problems:
        print(f"problem: {problem}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0 and not problems,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
