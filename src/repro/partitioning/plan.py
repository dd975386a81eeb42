"""Partition plans and plan diffing.

A :class:`PartitionPlan` is the *target* placement the optimizer wants:
a mapping from tuple key to the partition that should hold its primary
replica.  :func:`diff_plan` compares a plan against the current
placement — a mutable :class:`~repro.routing.partition_map.PartitionMap`
or, preferably, an immutable :class:`~repro.routing.epoch.MapEpoch`
snapshot so the diff is computed against one consistent map version —
and emits the repartition operations needed to realise it.
:func:`deltas_for_operations` expresses those operations as the
canonical :class:`~repro.routing.epoch.MapDelta` records the
:class:`~repro.routing.epoch.PartitionMapStore` publishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Iterator, Optional, Sequence

from ..errors import PartitioningError, RoutingError
from ..routing.epoch import MapDelta, MapView
from ..types import PartitionId, TupleKey
from .operations import (
    CreateReplica,
    DeleteReplica,
    Migrate,
    RepartitionOperation,
)


@dataclass
class PartitionPlan:
    """Target primary placement for a set of tuples.

    Tuples absent from the plan keep their current placement.
    """

    assignment: dict[TupleKey, PartitionId] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.assignment)

    def __contains__(self, key: TupleKey) -> bool:
        return key in self.assignment

    def target_of(self, key: TupleKey) -> Optional[PartitionId]:
        """Planned partition of ``key``, or ``None`` if unconstrained."""
        return self.assignment.get(key)

    def assign(self, key: TupleKey, partition_id: PartitionId) -> None:
        """Set (or overwrite) the target partition for ``key``."""
        self.assignment[key] = partition_id

    def partitions_used(self) -> frozenset[PartitionId]:
        """All partitions the plan places tuples on."""
        return frozenset(self.assignment.values())

    def keys(self) -> Iterator[TupleKey]:
        """Iterate planned keys."""
        return iter(self.assignment)

    def effective_partition(
        self, key: TupleKey, current: MapView
    ) -> PartitionId:
        """Where ``key`` lives once the plan is deployed."""
        target = self.assignment.get(key)
        if target is not None:
            return target
        return current.primary_of(key)


def diff_plan(
    current: MapView,
    plan: PartitionPlan,
    start_op_id: int = 0,
) -> list[RepartitionOperation]:
    """Compute the migrations turning ``current`` into ``plan``.

    Only primary placement is diffed (the paper's evaluation moves
    single-replica tuples); replica-creation/deletion operations are
    emitted by replication-oriented planners directly.
    """
    ids = count(start_op_id)
    operations: list[RepartitionOperation] = []
    for key, target in plan.assignment.items():
        try:
            source = current.primary_of(key)
        except RoutingError:
            raise PartitioningError(
                f"plan references unmapped tuple {key}"
            ) from None
        if source != target:
            operations.append(
                Migrate(op_id=next(ids), key=key, source=source, destination=target)
            )
    return operations


def plan_from_map(current: MapView) -> PartitionPlan:
    """Snapshot the current placement as a plan (identity plan)."""
    plan = PartitionPlan()
    for key in current.keys():
        plan.assign(key, current.primary_of(key))
    return plan


def deltas_for_operations(
    current: MapView, operations: Sequence[RepartitionOperation]
) -> list[MapDelta]:
    """Express repartition operations as canonical map deltas.

    Each delta captures the full replica tuple ``before`` → ``after``
    against ``current`` (with earlier operations of the same sequence
    already applied), which is exactly what a
    :class:`~repro.routing.epoch.PartitionMapStore` stage publishes —
    useful for previewing an epoch transition without touching the map.
    """
    pending: dict[TupleKey, tuple[PartitionId, ...]] = {}

    def replicas(key: TupleKey) -> tuple[PartitionId, ...]:
        return pending.get(key, tuple(current.replicas_of(key)))

    for op in operations:
        before = replicas(op.key)
        if isinstance(op, Migrate):
            if op.source not in before or op.destination in before:
                raise PartitioningError(
                    f"migration of tuple {op.key} does not apply to "
                    f"replicas {before}"
                )
            after = tuple(
                op.destination if pid == op.source else pid
                for pid in before
            )
        elif isinstance(op, CreateReplica):
            if op.destination in before:
                raise PartitioningError(
                    f"tuple {op.key} already has a replica on partition "
                    f"{op.destination}"
                )
            after = before + (op.destination,)
        elif isinstance(op, DeleteReplica):
            if op.partition not in before or len(before) == 1:
                raise PartitioningError(
                    f"replica deletion of tuple {op.key} does not apply "
                    f"to replicas {before}"
                )
            after = tuple(pid for pid in before if pid != op.partition)
        else:  # pragma: no cover - future op kinds
            raise PartitioningError(f"unknown operation {op!r}")
        pending[op.key] = after

    return [
        MapDelta(
            key=key,
            before=tuple(current.replicas_of(key)),
            after=after,
        )
        for key, after in sorted(pending.items())
    ]
