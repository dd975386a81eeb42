"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload zipf_high --seed 0 --seconds 35 --trace 0

Run from the repository root; the simulator is imported from ``src/``.
One run is a closed loop of one caller: it builds and runs the
workload's simulated cell (see ``cells.py``) again and again, one cell at
a time in this single process, as long as the next cell is expected to
end within ``--seconds`` of host time (at least once).  The first cell
runs at ``--seed`` and each later one at the next seed that
``cells.cell_seeds`` derives from it, so a run's medians cover several
inputs.  Inside a cell, arrivals are the simulator's own open-loop
Poisson process in virtual time.

``--trace 0`` reports the end-to-end metrics: median ``setup_s`` over
every ``build_system`` call of the run, median ``run_s`` over the cells,
``commits_per_host_s`` (all the cells' commits over their summed
``run_s``), and ``peak_rss_mb``, the process's peak when its first cell
ended.  The times are host seconds scaled by the probes interleaved with
them to a host of reference speed (see ``cells.probe``); the unscaled
medians are printed above the result line.  ``--trace 1`` runs the same untraced loop and then one traced cell, and
reports the per-layer metrics; the spans go to ``perfbench/out/``.

Every cell's outputs are checked: at the reference seed the simulated
per-interval series must equal ``reference/<workload>.json``, at every
seed the invariants in ``cells.invariant_violations`` must hold, and the
traced cell, which repeats the first cell, must give its series.  The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (cells run and cells that failed a check)
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "commits_per_host_s": "txn/s",
    "peak_rss_mb": "MB",
}


def load_simulator() -> None:
    """Make ``repro`` importable from this checkout's ``src/``, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no simulator sources at {src}/repro")
    sys.path.insert(0, str(src))


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` inclusive)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    """Untraced cells of one workload and the checks on their outputs."""

    def __init__(self, name: str, seed: int) -> None:
        import cells

        self.cells = cells
        self.name = name
        self.workload = cells.WORKLOADS[name]
        self.seeds = cells.cell_seeds(seed)
        self.setup_s: list[float] = []
        self.run_s: list[float] = []
        self.committed = 0
        self.peak_rss_mb = 0.0
        self.interval_host_s: list[float] = []
        #: Unscaled host seconds, printed for reference only.
        self.raw_s: dict[str, list[float]] = {"setup_s": [], "run_s": []}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: The first cell's config and series, which the traced cell
        #: repeats.
        self.first: Any = None

    def check(self, system: Any, label: str) -> None:
        """Check one finished cell."""
        cells = self.cells
        series = cells.series_of(system.metrics.intervals)
        problems = cells.invariant_violations(self.workload, system)
        if system.config.seed == cells.REFERENCE_SEED:
            problems += cells.series_mismatches(
                series, cells.load_reference(self.name)
            )
        if self.first is None:
            self.first = (system.config, json.loads(json.dumps(series)))
        elif system.config == self.first[0]:
            problems += [
                f"differs from the first cell: {p}"
                for p in cells.series_mismatches(series, self.first[1])
            ]
        self.problems += [f"{label}: {p}" for p in problems]
        self.attempted += 1
        self.failed += bool(problems)

    def extra_setups(self, config: Any) -> None:
        for _ in range(self.workload.extra_setups):
            system, setup = self.cells.timed_build(config)
            self.setup_s.append(setup.scaled)
            self.raw_s["setup_s"].append(setup.seconds)
            del system
            gc.collect()

    def run_cell(self, config: Any) -> Any:
        return self.cells.run_cell(config, self.workload.probe_every_s)

    def run_once(self) -> None:
        config = self.workload.config(next(self.seeds))
        self.extra_setups(config)
        cell = self.run_cell(config)
        self.setup_s.append(cell.setup.scaled)
        self.raw_s["setup_s"].append(cell.setup.seconds)
        self.run_s.append(cell.run.scaled)
        self.raw_s["run_s"].append(cell.run.seconds)
        self.committed += cell.system.tm.total_committed
        if not self.peak_rss_mb:
            # The first cell's peak: a later build can land on a heap the
            # freed cells left fragmented, which adds arenas at random.
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.peak_rss_mb = peak_kb / 1024
        self.interval_host_s += cell.interval_host_s
        self.check(cell.system, f"cell {self.attempted + 1}")
        del cell
        gc.collect()

    def run_for(self, seconds: float) -> None:
        """Run cells until the next one would end after ``seconds``.

        At least one cell runs.  Each cell's extra setups come just
        before it rather than bunched at the run's start, so their median
        sees the same host as the cells do.
        """
        started = perf_counter()
        while True:
            self.run_once()
            elapsed = perf_counter() - started
            if elapsed * (self.attempted + 1) / self.attempted > seconds:
                return

    def e2e_metrics(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "run_s": statistics.median(self.run_s),
            "commits_per_host_s": self.committed / sum(self.run_s),
            "peak_rss_mb": self.peak_rss_mb,
        }


def traced_metrics(runner: Runner, seed: int) -> dict[str, tuple[float, str]]:
    """Run one traced cell; per-layer metrics with their units."""
    import spans

    rec = spans.SpanRecorder()
    restore = spans.install(rec)
    try:
        cell = runner.run_cell(runner.first[0])
    finally:
        restore()
    runner.check(cell.system, "traced cell")
    rec.write(OUT_DIR / f"{runner.name}-seed{seed}.spans")

    out: dict[str, tuple[float, str]] = {}

    def calls(metric: str, span: str) -> None:
        out[metric] = (rec.totals(span)[0], "count")

    def inclusive(metric: str, span: str) -> None:
        out[metric] = (rec.totals(span)[1], "s")

    def self_time(metric: str, span: str) -> None:
        out[metric] = (rec.totals(span)[2], "s")

    counters = rec.counters
    out["sim.events_scheduled"] = (counters["sim.events_scheduled"], "count")
    out["sim.self_s"] = (
        cell.run.seconds - rec.top_level_since(cell.run_started), "s"
    )

    acquires = rec.totals("locking.acquire")[0]
    calls("locking.acquire.calls", "locking.acquire")
    inclusive("locking.acquire.s", "locking.acquire")
    out["locking.acquire.wait_share"] = (
        counters["locking.acquire.waits"] / acquires if acquires else 0.0,
        "ratio",
    )
    inclusive("locking.release.s", "locking.release")
    calls("locking.deadlock.calls", "locking.deadlock")
    inclusive("locking.deadlock.s", "locking.deadlock")

    attempts = counters["txn.execute.created"]
    out["txn.execute.attempts"] = (attempts, "count")
    self_time("txn.execute.self_s", "txn.execute")
    out["txn.commit_share"] = (
        counters["txn.execute.committed"] / attempts if attempts else 0.0,
        "ratio",
    )
    out["txn.2pc.calls"] = (counters["txn.2pc.created"], "count")
    self_time("txn.2pc.self_s", "txn.2pc")
    inclusive("txn.queue.s", "txn.queue")

    calls("routing.route.calls", "routing.route")
    inclusive("routing.route.s", "routing.route")
    calls("routing.publish.calls", "routing.publish")
    inclusive("routing.publish.s", "routing.publish")
    out["routing.pin.calls"] = (counters["routing.pin.calls"], "count")

    calls("storage.store.calls", "storage.store")
    inclusive("storage.store.s", "storage.store")
    calls("storage.wal.calls", "storage.wal")
    inclusive("storage.wal.s", "storage.wal")
    inclusive("storage.recover.s", "storage.recover")

    inclusive("workload.profile.s", "workload.profile")
    inclusive("workload.placement.s", "workload.placement")
    inclusive("workload.load_stores.s", "workload.load_stores")
    calls("workload.sample.calls", "workload.sample")
    inclusive("workload.sample.s", "workload.sample")

    inclusive("partitioning.derive_plan.s", "partitioning.derive_plan")
    inclusive("partitioning.cost.s", "partitioning.cost")
    inclusive("core.plan.s", "core.plan")
    calls("core.scheduler.calls", "core.scheduler")
    inclusive("core.scheduler.s", "core.scheduler")
    inclusive("core.session.s", "core.session")

    out["cluster.work.calls"] = (counters["cluster.work.created"], "count")
    inclusive("cluster.membership.s", "cluster.membership")
    inclusive("elasticity.s", "elasticity")
    inclusive("faults.s", "faults")

    calls("metrics.record.calls", "metrics.record")
    inclusive("metrics.record.s", "metrics.record")

    samples = runner.interval_host_s
    out["interval.host_s.p50"] = (percentile(samples, 50), "s")
    out["interval.host_s.p75"] = (percentile(samples, 75), "s")
    out["interval.host_s.count"] = (len(samples), "count")
    out["trace.spans"] = (rec.span_count, "count")
    out["trace.overhead"] = (
        cell.run.scaled / statistics.median(runner.run_s), "ratio"
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_simulator()
    import cells

    if args.workload not in cells.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"expected one of {sorted(cells.WORKLOADS)}"
        )
    runner = Runner(args.workload, args.seed)
    runner.run_for(args.seconds)
    if args.trace:
        metrics = traced_metrics(runner, args.seed)
    else:
        metrics = {
            name: (value, E2E_UNITS[name])
            for name, value in runner.e2e_metrics().items()
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>14.6g} {unit}")
    print("run_s per cell:", " ".join(f"{x:.4f}" for x in runner.run_s))
    for name, values in runner.raw_s.items():
        print(f"unscaled {name} median: {statistics.median(values):.6g} s")
    for problem in runner.problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
