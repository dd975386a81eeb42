"""Per-layer host-time tracing of one simulated cell, from outside ``src/``.

:class:`SpanRecorder` keeps every span in memory (name, start, end,
parent, transaction id) and aggregates per span name as spans end: outermost
call count, inclusive seconds (outermost span of a name only, so recursion
and same-layer nesting are not counted twice) and self seconds (duration
minus the part covered by child spans).  :func:`install` wraps the
public entry points of each ``repro`` package and returns a function
that restores the originals.

Functions are patched where they are looked up: methods on their class,
module functions in the module whose globals the caller reads (for
example ``repro.experiments.runner.build_profile``).  Generator
functions return a :class:`GeneratorProxy`, which times each resume
(``send``/``throw``/``close``/``next``) rather than the call that only
creates the generator.  Nothing here changes what the simulation does,
so a traced run's simulated series equals the untraced one.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Optional


class SpanRecorder:
    """In-memory span store with online per-name aggregation."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.txns = array("q")
        # One frame per open span: [index, name id, start, child seconds, txn].
        self._stack: list[list[Any]] = []
        self._depth: list[int] = []
        self.outer_calls: list[int] = []
        self.inclusive_s: list[float] = []
        self.self_s: list[float] = []
        #: Plain counters (counted calls that open no span).
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        """Id of span name ``name`` (registered on first use)."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
            self.outer_calls.append(0)
            self.inclusive_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def begin(self, nid: int, txn: int = -1) -> list[Any]:
        """Open a span; returns the frame :meth:`end` closes."""
        stack = self._stack
        if stack:
            parent = stack[-1]
            if txn < 0:
                txn = parent[4]
            self.parents.append(parent[0])
        else:
            self.parents.append(-1)
        index = len(self.starts)
        self.name_of.append(nid)
        self.txns.append(txn)
        self.ends.append(0.0)
        depth = self._depth[nid]
        if depth == 0:
            self.outer_calls[nid] += 1
        self._depth[nid] = depth + 1
        frame = [index, nid, 0.0, 0.0, txn]
        stack.append(frame)
        frame[2] = start = perf_counter()
        self.starts.append(start)
        return frame

    def end(self, frame: list[Any]) -> None:
        """Close ``frame``, which must be the innermost open span."""
        now = perf_counter()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError("spans must close innermost first")
        index, nid, start, child_s, _txn = frame
        duration = now - start
        self.ends[index] = now
        self.self_s[nid] += duration - child_s
        depth = self._depth[nid] - 1
        self._depth[nid] = depth
        if depth == 0:
            self.inclusive_s[nid] += duration
        if stack:
            stack[-1][3] += duration

    def top_level_since(self, started: float) -> float:
        """Seconds covered by parentless spans opened at or after ``started``."""
        return sum(
            end - start
            for start, end, parent in zip(self.starts, self.ends, self.parents)
            if parent < 0 and start >= started
        )

    def totals(self, name: str) -> tuple[int, float, float]:
        """(outermost calls, inclusive s, self s) of span name ``name``.

        Outermost calls and inclusive seconds count only spans not
        nested inside another span of the same name; zeros if unseen.
        """
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.outer_calls[nid], self.inclusive_s[nid], self.self_s[nid]

    @property
    def span_count(self) -> int:
        return len(self.starts)

    def write(self, path: Path) -> None:
        """Write every span: a JSON header line, then the raw columns.

        The columns follow the header in its ``columns`` order, each
        ``count`` native-endian items of the given ``array`` typecode.
        """
        columns = [
            ("name", self.name_of),
            ("start", self.starts),
            ("end", self.ends),
            ("parent", self.parents),
            ("txn", self.txns),
        ]
        header = {
            "names": self.names,
            "count": self.span_count,
            "byteorder": sys.byteorder,
            "columns": [[label, col.typecode] for label, col in columns],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for _label, col in columns:
                col.tofile(out)


def read_spans(path: Path) -> tuple[dict[str, Any], dict[str, array]]:
    """Load a file written by :meth:`SpanRecorder.write`."""
    with path.open("rb") as src:
        header = json.loads(src.readline())
        columns = {}
        for label, typecode in header["columns"]:
            col = array(typecode)
            col.fromfile(src, header["count"])
            columns[label] = col
    return header, columns


class GeneratorProxy:
    """Generator stand-in that records one span per resume.

    Keeps the generator protocol the simulation kernel and ``yield
    from`` use: ``send``, ``throw``, ``close``, ``__next__`` and
    ``__iter__``.  ``on_return`` sees the generator's return value.
    """

    __slots__ = ("_gen", "_rec", "_nid", "_txn", "_on_return")

    def __init__(
        self,
        gen: Any,
        rec: SpanRecorder,
        nid: int,
        txn: int = -1,
        on_return: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self._gen = gen
        self._rec = rec
        self._nid = nid
        self._txn = txn
        self._on_return = on_return

    def __iter__(self) -> "GeneratorProxy":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        return self._resume(self._gen.send, value)

    def throw(self, *args: Any) -> Any:
        return self._resume(self._gen.throw, *args)

    def _resume(self, step: Callable[..., Any], *args: Any) -> Any:
        frame = self._rec.begin(self._nid, self._txn)
        try:
            return step(*args)
        except StopIteration as stop:
            if self._on_return is not None:
                self._on_return(stop.value)
            raise
        finally:
            self._rec.end(frame)

    def close(self) -> None:
        frame = self._rec.begin(self._nid, self._txn)
        try:
            self._gen.close()
        finally:
            self._rec.end(frame)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def span_call(rec: SpanRecorder, name: str, fn: Callable[..., Any]):
    """``fn`` recording one ``name`` span per call."""
    nid = rec.name_id(name)
    begin, end = rec.begin, rec.end

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            end(frame)

    return wrapper


def span_generator(
    rec: SpanRecorder,
    name: str,
    fn: Callable[..., Any],
    txn_of: Optional[Callable[..., int]] = None,
    on_return: Optional[Callable[[Any], None]] = None,
):
    """Generator function ``fn`` whose generators record a span per resume.

    Generators created are counted in the counter ``<name>.created``.
    """
    nid = rec.name_id(name)
    counters = rec.counters
    created = f"{name}.created"
    counters.setdefault(created, 0)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> GeneratorProxy:
        counters[created] += 1
        txn = txn_of(*args, **kwargs) if txn_of is not None else -1
        return GeneratorProxy(fn(*args, **kwargs), rec, nid, txn, on_return)

    return wrapper


def counted_call(rec: SpanRecorder, counter: str, fn: Callable[..., Any]):
    """``fn`` adding one to ``counter`` per call (no span)."""
    counters = rec.counters
    counters.setdefault(counter, 0)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counters[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(
        self, owner: Any, attr: str, make: Callable[[Any], Any]
    ) -> None:
        """Set ``owner.attr`` to ``make(original)``.

        The original is read from ``owner.__dict__`` so a method that a
        class only inherits is never copied down into the subclass.
        """
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# The layer table
# ---------------------------------------------------------------------------

def _own(cls: type, names: Iterable[str]) -> list[str]:
    return [name for name in names if name in vars(cls)]


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer boundary for ``rec``; returns the undo function."""
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import DataNode
    from repro.core import schedulers
    from repro.core.repartitioner import Repartitioner
    from repro.core.session import RepartitionSession
    from repro.elasticity import ElasticityController
    from repro.experiments import runner
    from repro.faults import FaultInjector
    from repro.locking.deadlock import DeadlockDetector
    from repro.locking.lock_manager import LockManager
    from repro.metrics.collectors import MetricsCollector
    from repro.partitioning.cost_model import CostModel
    from repro.partitioning.optimizer import RepartitionOptimizer
    from repro.routing.epoch import PartitionMapStore
    from repro.routing.router import QueryRouter
    from repro.sim.environment import Environment
    from repro.storage import wal
    from repro.storage.compact_store import CompactPartitionStore
    from repro.storage.partition_store import PartitionStore
    from repro.txn.executor import TransactionExecutor
    from repro.txn.queue import ProcessingQueue
    from repro.txn.two_phase_commit import TwoPhaseCommitCoordinator
    from repro.workload.generator import WorkloadSampler

    patches = Patches()

    def spans(owner: Any, attrs: Iterable[str], name: str) -> None:
        for attr in attrs:
            patches.replace(owner, attr, lambda fn: span_call(rec, name, fn))

    def counted(owner: Any, attrs: Iterable[str], counter: str) -> None:
        for attr in attrs:
            patches.replace(owner, attr, lambda fn: counted_call(rec, counter, fn))

    # sim: event and process creation.
    counted(
        Environment,
        ["timeout", "event", "process", "all_of", "any_of"],
        "sim.events_scheduled",
    )

    # locking
    acquire_nid = rec.name_id("locking.acquire")
    rec.counters["locking.acquire.waits"] = 0

    def wrap_acquire(fn: Callable[..., Any]) -> Callable[..., Any]:
        counters = rec.counters

        @functools.wraps(fn)
        def acquire(self: Any, txn_id: int, key: int, mode: Any) -> Any:
            frame = rec.begin(acquire_nid, txn_id)
            try:
                event = fn(self, txn_id, key, mode)
            finally:
                rec.end(frame)
            if not event.triggered:
                counters["locking.acquire.waits"] += 1
            return event

        return acquire

    patches.replace(LockManager, "acquire", wrap_acquire)
    spans(
        LockManager,
        ["release", "release_all", "cancel", "fail_all_waiters"],
        "locking.release",
    )
    spans(
        DeadlockDetector,
        [
            "register_wait_site", "unregister_wait_site", "wait_site",
            "set_waits", "clear_waits", "remove_transaction", "waits_of",
            "find_cycle", "check",
        ],
        "locking.deadlock",
    )

    # txn
    rec.counters["txn.execute.committed"] = 0

    def note_outcome(committed: Any) -> None:
        if committed is True:
            rec.counters["txn.execute.committed"] += 1

    patches.replace(
        TransactionExecutor,
        "execute",
        lambda fn: span_generator(
            rec, "txn.execute", fn,
            txn_of=lambda _self, txn: txn.txn_id,
            on_return=note_outcome,
        ),
    )
    patches.replace(
        TwoPhaseCommitCoordinator,
        "commit",
        lambda fn: span_generator(rec, "txn.2pc", fn),
    )
    spans(
        ProcessingQueue,
        [
            "put", "pop", "peek", "wait_nonempty", "remove", "reprioritise",
            "waiting", "counts_by_priority", "waiting_normal_work",
        ],
        "txn.queue",
    )

    # routing
    spans(QueryRouter, ["route_read", "route_write"], "routing.route")
    spans(PartitionMapStore, ["publish"], "routing.publish")
    counted(PartitionMapStore, ["pin"], "routing.pin.calls")

    # storage
    store_methods = ["get", "peek", "insert", "upsert", "delete", "read", "write"]
    spans(PartitionStore, store_methods, "storage.store")
    spans(CompactPartitionStore, store_methods, "storage.store")
    spans(
        wal.WriteAheadLog,
        [
            "log_begin", "log_write", "log_insert", "log_delete",
            "log_commit", "log_abort", "log_checkpoint",
            "truncate_before_checkpoint",
        ],
        "storage.wal",
    )
    spans(wal, ["recover"], "storage.recover")

    # workload (looked up in the runner's module globals by build_system)
    spans(runner, ["build_profile"], "workload.profile")
    spans(
        runner,
        ["choose_distributed_types", "initial_placement", "place_unprofiled_keys"],
        "workload.placement",
    )
    spans(runner, ["load_stores"], "workload.load_stores")
    spans(WorkloadSampler, ["sample_transaction"], "workload.sample")

    # partitioning and core
    spans(RepartitionOptimizer, ["derive_plan"], "partitioning.derive_plan")
    spans(
        CostModel,
        [
            name for name, value in vars(CostModel).items()
            if inspect.isfunction(value) and not name.startswith("_")
        ],
        "partitioning.cost",
    )
    spans(
        Repartitioner, ["rank_plan", "deploy", "deploy_plan", "extend"],
        "core.plan",
    )
    scheduler_hooks = [
        "bind", "begin", "on_interval", "on_submit", "on_extended",
        "on_finished",
    ]
    for cls in (
        schedulers.Scheduler,
        schedulers.ApplyAllScheduler,
        schedulers.AfterAllScheduler,
        schedulers.FeedbackScheduler,
        schedulers.PiggybackScheduler,
        schedulers.HybridScheduler,
    ):
        spans(cls, _own(cls, scheduler_hooks), "core.scheduler")
    spans(
        RepartitionSession,
        [
            "extend", "state_of", "pending", "unfinished_count",
            "mean_rep_txn_cost", "submit", "promote", "claim_for_piggyback",
            "release_piggyback", "requeue", "complete",
        ],
        "core.session",
    )

    # cluster, elasticity, faults
    patches.replace(
        DataNode, "work", lambda fn: span_generator(rec, "cluster.work", fn)
    )
    spans(
        Cluster, ["add_node", "activate", "begin_drain", "retire"],
        "cluster.membership",
    )
    spans(DataNode, ["crash", "restart"], "cluster.membership")
    spans(
        ElasticityController, ["scale_out", "drain", "_on_interval"],
        "elasticity",
    )
    spans(FaultInjector, ["watch_node", "_crash", "_restart"], "faults")

    # metrics
    spans(
        MetricsCollector,
        [
            "record_submitted", "record_committed", "record_aborted",
            "record_retry", "record_epoch_publish", "record_forwarded_read",
            "record_rep_op_applied", "set_rep_ops_total", "note_node_down",
            "note_node_up",
        ],
        "metrics.record",
    )
    return patches.restore
