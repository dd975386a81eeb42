"""The benchmark's workloads, the interval-stepped cell driver, and the
output checks.

Each workload is one evaluation cell of the paper (§4.1: distribution ×
load × scheduler, measured per interval), driven through the public
runner API exactly as ``run_experiment`` drives it, except that
``env.run`` advances one interval boundary at a time so the host time of
each simulated interval can be read off.  The per-interval series this
produces is bit-identical to ``run_experiment``'s.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import random
from math import ceil, inf
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Generator, Iterator, NamedTuple

from repro.elasticity import parse_elasticity_schedule
from repro.experiments import (
    ExperimentConfig,
    System,
    bench_scale,
    build_system,
    production_scale,
    start_repartitioning,
)
from repro.faults import parse_fault_schedule
from repro.workload.dataset import verify_placement

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: The seed the committed reference series were recorded at.
REFERENCE_SEED = 0

#: Per-interval fields the output check compares.  The raw per-commit
#: ``latencies`` list is left out on purpose: its sum and count are here.
SERIES_FIELDS = (
    "index", "start", "end", "submitted", "committed", "aborted",
    "aborted_by_cause", "retries", "latency_sum", "latency_count",
    "rep_ops_applied_cumulative", "rep_ops_total", "queue_length_end",
    "epoch_publishes", "forwarded_reads", "nodes_joining", "nodes_active",
    "nodes_draining", "nodes_retired",
)


def zipf_high(seed: int) -> ExperimentConfig:
    return bench_scale(
        scheduler="Hybrid", distribution="zipf", load="high", alpha=1.0,
        seed=seed,
    )


def churn(seed: int) -> ExperimentConfig:
    return bench_scale(
        scheduler="Hybrid", distribution="uniform", load="low",
        measure_intervals=60, seed=seed,
        # One drain only: draining several nodes whose migrations target
        # each other leaves keys unmigrated (see the README's known
        # defects and ``test_overlapping_drains_do_not_settle``).
        elasticity=parse_elasticity_schedule("200:add:5,760:drain:9"),
        faults=parse_fault_schedule(
            "300:crash:1,420:restart:1,900:crash:2,1000:restart:2"
        ),
    )


def cluster100(seed: int) -> ExperimentConfig:
    config = production_scale(
        scheduler="Hybrid", load="low", node_count=100, tuple_count=500_000,
        measure_intervals=1, warmup_intervals=1, seed=seed,
    )
    # 2 s intervals, not the reference cell's 5 s, so that a run holds
    # about five cells; the lock timeout shrinks with them, so the lock
    # waits the repartition flood starts at t = 2 s still time out at the
    # horizon and locking stays the largest share of the run.
    return dataclasses.replace(
        config,
        cluster=dataclasses.replace(config.cluster, capacity_units_per_s=8.0),
        runtime=dataclasses.replace(
            config.runtime, interval_s=2.0, lock_timeout_s=2.0
        ),
    )


class Workload(NamedTuple):
    config: Callable[[int], ExperimentConfig]
    #: Whether the repartition plan finishes within the horizon (so no
    #: key is left MOVING and the final RepRate is 1.0).
    settles: bool
    #: Extra ``build_system`` calls (timed, never run) before each cell,
    #: so the run's ``setup_s`` is a median of several samples.
    extra_setups: int
    #: Simulated seconds between host probes inside a cell (at most one
    #: interval), so a probe falls about every 0.1 s of host time.
    probe_every_s: float


WORKLOADS = {
    "zipf_high": Workload(
        zipf_high, settles=True, extra_setups=10, probe_every_s=20.0
    ),
    "churn": Workload(churn, settles=True, extra_setups=10, probe_every_s=20.0),
    "cluster100": Workload(
        cluster100, settles=False, extra_setups=0, probe_every_s=0.1
    ),
}


def cell_seeds(seed: int) -> Iterator[int]:
    """``seed``, then an endless stream of seeds derived from it.

    A workload's host cost differs by up to about 20% between seeds at
    the same event count (lock queues and retries differ), so a run
    takes its median over cells at different seeds.
    """
    yield seed
    derive = random.Random(seed)
    while True:
        yield derive.getrandbits(31)


#: Host seconds one :func:`probe` takes on the host the benchmark was
#: tuned on (a 2-CPU shared x86-64 VM, CPython 3.11).  Reported times
#: are scaled to a host of that speed.
REFERENCE_PROBE_S = 0.003

_PROBE_COUNTS = [0] * 256
_PROBE_HEAP: list[int] = []


def probe() -> float:
    """Host seconds of a fixed slice of pure-Python work.

    The host's speed drifts by tens of percent within minutes, and the
    simulator's host time drifts with it.  Probes interleaved with the
    timed work measure that speed at the same moments, so a time divided
    by its probes' mean (and scaled by ``REFERENCE_PROBE_S``) keeps the
    program's cost and drops most of the host's.  The work is heap
    pushes and pops, list indexing and integer arithmetic, the
    simulator's staple; it creates no object the cyclic garbage
    collector tracks, so it never triggers a collection of the
    simulator's heap.
    """
    heap = _PROBE_HEAP
    counts = _PROBE_COUNTS
    push = heapq.heappush
    pop = heapq.heappop
    started = perf_counter()
    for i in range(6000):
        push(heap, (i * 7919) % 1009)
        counts[i & 255] += 1
        if len(heap) > 32:
            pop(heap)
    seconds = perf_counter() - started
    heap.clear()
    return seconds


class Timed(NamedTuple):
    #: Host seconds of the timed work, probes excluded.
    seconds: float
    #: Mean host seconds of the probes interleaved with it.
    probe_s: float

    @property
    def scaled(self) -> float:
        """``seconds`` on a host where a probe takes ``REFERENCE_PROBE_S``."""
        return self.seconds * REFERENCE_PROBE_S / self.probe_s


class CellRun(NamedTuple):
    system: System
    setup: Timed
    run: Timed
    #: ``perf_counter()`` when the first ``env.run`` began.
    run_started: float
    #: Host seconds per simulated interval, in interval order, probes
    #: excluded.
    interval_host_s: list[float]


def timed_build(config: ExperimentConfig) -> tuple[System, Timed]:
    """``build_system(config)``, timed between a probe before and after."""
    before = probe()
    started = perf_counter()
    system = build_system(config)
    seconds = perf_counter() - started
    return system, Timed(seconds, (before + probe()) / 2)


def run_cell(config: ExperimentConfig, probe_every_s: float = inf) -> CellRun:
    """Build and run one cell the way ``run_experiment`` does.

    ``env.run`` is advanced one interval boundary at a time; the last
    step runs to the same ``horizon + 1e-9`` as ``run_experiment``.  An
    interval is cut into equal sub-steps of at most ``probe_every_s``
    simulated seconds, with a :func:`probe` before the first sub-step
    and after each.  ``env.run(until=t)`` only processes the events at
    or before ``t``, so the cuts leave the simulation unchanged.
    """
    system, setup = timed_build(config)
    env = system.env
    runtime = config.runtime
    interval_s = runtime.interval_s
    warmup_s = interval_s * runtime.warmup_intervals

    def kickoff() -> Generator[Any, Any, None]:
        if warmup_s > 0:
            yield env.timeout(warmup_s)
        start_repartitioning(system)

    env.process(kickoff())
    steps = runtime.warmup_intervals + runtime.measure_intervals
    horizon = warmup_s + interval_s * runtime.measure_intervals
    cuts = max(1, ceil(interval_s / probe_every_s))
    probes = [probe()]
    interval_host_s = []
    run_started = perf_counter()
    for step in range(1, steps + 1):
        host_s = 0.0
        for cut in range(1, cuts + 1):
            if cut < cuts:
                until = interval_s * (step - 1 + cut / cuts)
            elif step < steps:
                until = interval_s * step
            else:
                until = horizon + 1e-9
            started = perf_counter()
            env.run(until=until)
            host_s += perf_counter() - started
            probes.append(probe())
        interval_host_s.append(host_s)
    run = Timed(sum(interval_host_s), sum(probes) / len(probes))
    return CellRun(system, setup, run, run_started, interval_host_s)


def series_of(intervals: list[Any]) -> list[dict[str, Any]]:
    """The checked per-interval fields of each closed interval record."""
    return [
        {name: getattr(record, name) for name in SERIES_FIELDS}
        for record in intervals
    ]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> list[dict[str, Any]]:
    data = json.loads(reference_path(workload).read_text())
    if data["fields"] != list(SERIES_FIELDS):
        raise ValueError(
            f"reference for {workload} records fields {data['fields']}, "
            f"expected {list(SERIES_FIELDS)}"
        )
    return data["series"]


def series_mismatches(
    series: list[dict[str, Any]], reference: list[dict[str, Any]]
) -> list[str]:
    """Where ``series`` differs from ``reference`` (empty when equal).

    Both go through a JSON round trip first, so a float compares by its
    exact value and a dict regardless of key order.
    """
    series = json.loads(json.dumps(series))
    if len(series) != len(reference):
        return [f"{len(series)} intervals, reference has {len(reference)}"]
    problems = []
    for got, want in zip(series, reference):
        for name in SERIES_FIELDS:
            if got[name] != want[name]:
                problems.append(
                    f"interval {want['index']} {name}: "
                    f"{got[name]!r} != reference {want[name]!r}"
                )
    return problems


def invariant_violations(
    workload: Workload, system: System
) -> list[str]:
    """Checks that hold at every seed (see the README for which and why)."""
    config = system.config
    problems = []
    live_map = system.store.live_map
    if not verify_placement(system.cluster, live_map):
        problems.append("a live-map replica is missing from its node store")
    stored = set()
    for node in system.cluster.nodes:
        stored.update(node.store.keys())
    tuples = config.workload.tuple_count
    if not len(stored) == tuples == len(live_map):
        problems.append(
            f"{len(stored)} distinct stored keys, {len(live_map)} mapped "
            f"keys, {tuples} tuples"
        )
    intervals = system.metrics.intervals
    expected = config.runtime.warmup_intervals + config.runtime.measure_intervals
    if len(intervals) != expected:
        problems.append(f"{len(intervals)} closed intervals, expected {expected}")
    for record in intervals:
        if record.rep_ops_applied_cumulative > record.rep_ops_total:
            problems.append(
                f"interval {record.index}: {record.rep_ops_applied_cumulative}"
                f" ops applied of {record.rep_ops_total}"
            )
    for record in intervals[config.runtime.warmup_intervals:]:
        if record.committed <= 0:
            problems.append(f"interval {record.index}: no commits")
    if workload.settles:
        moving = len(system.store.moving_keys())
        if moving:
            problems.append(f"{moving} keys still MOVING at the horizon")
        if intervals and intervals[-1].rep_rate != 1.0:
            problems.append(f"final RepRate {intervals[-1].rep_rate} != 1.0")
    return problems
