"""Algorithm 1: generating and ranking repartition transactions.

Given the repartition operations ``OPrep`` emitted by the optimizer and
the new partition plan P, the algorithm:

1. builds ``Top`` — for each normal transaction type t_i whose cost
   improves under P (``C_i(O) − C_i(P) > 0``), the group of operations
   that modify objects t_i accesses;
2. spreads each type's gain ``f_i (C_i(O) − C_i(P))`` evenly over its
   operation group, accumulating per-operation benefit;
3. totals benefits per group (``Tbenefit``) and walks groups in
   descending total benefit, turning each group into one repartition
   transaction while ensuring every operation belongs to exactly one
   transaction (operations already consumed by a hotter group are
   removed, and their benefit subtracted);
4. computes each transaction's benefit density ``B_j / C_j`` and returns
   the transactions sorted by descending density, together with ``TRep``
   mapping each benefiting normal-transaction type to its repartition
   transaction (the structure Algorithm 2's piggybacking consults).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..partitioning.cost_model import CostModel
from ..partitioning.operations import RepartitionOperation
from ..partitioning.plan import PartitionPlan
from ..routing.epoch import MapView
from ..types import PartitionId
from ..workload.profile import WorkloadProfile


@dataclass
class RepartitionTransactionSpec:
    """A ranked repartition transaction, before it becomes a Transaction.

    ``type_id`` is the benefiting normal-transaction type recorded in
    TRep (the paper pairs each repartition transaction with one affected
    normal transaction).
    """

    ops: list[RepartitionOperation]
    type_id: int
    benefit: float
    cost: float
    benefit_density: float = field(init=False)

    def __post_init__(self) -> None:
        self.benefit_density = self.benefit / self.cost if self.cost > 0 else 0.0


def generate_and_rank(
    operations: Sequence[RepartitionOperation],
    plan: PartitionPlan,
    current: MapView,
    profile: WorkloadProfile,
    cost_model: CostModel,
) -> list[RepartitionTransactionSpec]:
    """Run Algorithm 1 and return specs in descending benefit density."""
    ops_by_key: dict[int, list[RepartitionOperation]] = {}
    for op in operations:
        ops_by_key.setdefault(op.key, []).append(op)
        op.benefit = 0.0  # reset accumulators from any previous run

    # Lines 1-5: build Top (type -> ops touching its keys), filtered to
    # types that actually improve under the plan.  Only types touching a
    # repartitioned key can join Top (a full-profile scan would skip the
    # rest before any arithmetic), so candidates come from the profile's
    # inverted index — restored to profile iteration order because the
    # benefit spread below accumulates floats in that order.
    key_index = profile.key_index()
    candidate_ids: set[int] = set()
    for key in ops_by_key:
        for candidate in key_index.get(key, ()):
            candidate_ids.add(candidate.type_id)
    # ``C_i(O) − C_i(P)`` comes from the same pass: one primary read per
    # key gives both the partitions the type touches now and (for keys
    # the plan leaves alone) under P.
    assignment = plan.assignment
    top: dict[int, list[RepartitionOperation]] = {}
    improvements: dict[int, float] = {}
    for type_id in sorted(candidate_ids, key=profile.position):
        ttype = profile.type(type_id)
        group: list[RepartitionOperation] = []
        seen: set[int] = set()
        under_map: set[PartitionId] = set()
        under_plan: set[PartitionId] = set()
        for key in ttype.keys:
            source = current.primary_of(key)
            under_map.add(source)
            under_plan.add(assignment.get(key, source))
            for op in ops_by_key.get(key, ()):  # pragma: no branch
                if op.op_id not in seen:
                    group.append(op)
                    seen.add(op.op_id)
        if not group:
            continue
        delta = cost_model.txn_cost(len(under_map)) - cost_model.txn_cost(
            len(under_plan)
        )
        if delta <= 0:
            continue
        top[ttype.type_id] = group
        improvements[ttype.type_id] = delta

    # Lines 6-9: spread each type's gain evenly over its op group.
    for type_id, group in top.items():
        ttype = profile.type(type_id)
        per_op = ttype.frequency * improvements[type_id] / len(group)
        for op in group:
            op.benefit += per_op

    # Lines 10-15: total benefit per group, sorted descending.
    group_benefit = {
        type_id: sum(op.benefit for op in group)
        for type_id, group in top.items()
    }
    ranked_types = sorted(
        group_benefit, key=lambda tid: (-group_benefit[tid], tid)
    )

    # Lines 16-26: carve groups into transactions; each op used once.
    remaining: set[int] = {op.op_id for op in operations}
    specs: list[RepartitionTransactionSpec] = []
    for type_id in ranked_types:
        group = []
        benefit = group_benefit[type_id]
        for op in top[type_id]:
            if op.op_id in remaining:
                group.append(op)
            else:
                benefit -= op.benefit
        if not group:
            continue
        for op in group:
            remaining.discard(op.op_id)
        cost = cost_model.rep_txn_cost(group)
        specs.append(
            RepartitionTransactionSpec(
                ops=group, type_id=type_id, benefit=benefit, cost=cost
            )
        )

    # Leftover operations benefit no profiled type directly (e.g. load
    # balancing moves); package them one transaction per key group so
    # they still get applied, ranked last.
    leftovers = [op for op in operations if op.op_id in remaining]
    if leftovers:
        specs.append(
            RepartitionTransactionSpec(
                ops=leftovers,
                type_id=-1,
                benefit=0.0,
                cost=cost_model.rep_txn_cost(leftovers),
            )
        )

    # Line 27: sort TRep by descending benefit density.
    specs.sort(key=lambda spec: (-spec.benefit_density, spec.type_id))
    return specs


def chunk_specs(
    specs: Sequence[RepartitionTransactionSpec], max_ops: int
) -> list[RepartitionTransactionSpec]:
    """Split oversized specs into transactions of at most ``max_ops`` ops.

    Draining a node emits one operation per resident tuple; packaged as
    a single repartition transaction that would lock thousands of keys
    at once and stall the cluster it is supposed to relieve.  Chunking
    keeps each transaction's lock footprint bounded while preserving the
    rank order Algorithm 1 produced: chunks inherit their parent's
    position, benefit and cost are split proportionally (so benefit
    density — the ranking key — is preserved), and only the first chunk
    keeps the parent's ``type_id`` (TRep maps each type to exactly one
    transaction).
    """
    if max_ops < 1:
        raise ValueError(f"max_ops must be positive: {max_ops}")
    out: list[RepartitionTransactionSpec] = []
    for spec in specs:
        if len(spec.ops) <= max_ops:
            out.append(spec)
            continue
        total = len(spec.ops)
        for start in range(0, total, max_ops):
            ops = spec.ops[start:start + max_ops]
            share = len(ops) / total
            out.append(
                RepartitionTransactionSpec(
                    ops=ops,
                    type_id=spec.type_id if start == 0 else -1,
                    benefit=spec.benefit * share,
                    cost=spec.cost * share,
                )
            )
    return out
