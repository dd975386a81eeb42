"""The transaction cost model of §3.1 (following Schism [4]).

If all tuples accessed by a transaction are collocated on one partition,
running it costs ``C_i``; if it must touch more than one partition it
costs ``2·C_i``.  From this the model derives:

* the cost of a transaction type under the original map O or a plan P,
* the **benefit** of a repartition transaction,
  ``B_j = Σ_i f_i (C_i(O) − C_i(P))`` over affected normal transactions,
* the cost of a repartition transaction (per-operation work), and
* the **benefit density** ``B_j / C_j`` used to rank repartition
  transactions for scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..errors import ConfigError
from ..routing.epoch import MapView
from ..types import PartitionId, TupleKey
from .operations import RepartitionOperation
from .plan import PartitionPlan


if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.workload.profile import TransactionType

#: Multiplier the paper applies to the cost of distributed transactions.
DISTRIBUTED_COST_FACTOR = 2.0


@dataclass(frozen=True)
class CostModel:
    """Work-unit costs for normal and repartition transactions.

    Parameters
    ----------
    base_cost:
        ``C_i`` — work units to run a collocated normal transaction.
    rep_op_cost:
        Work units to execute one repartition operation (lock, copy,
        transfer, insert, delete).
    """

    base_cost: float = 1.0
    rep_op_cost: float = 0.5
    #: Fraction of a repartition operation's cost saved when it
    #: piggybacks on a normal transaction (§3.4: the carrier already
    #: holds the locks and pays the distributed-commit overhead, so
    #: only the data movement itself remains).
    piggyback_discount: float = 0.75

    def __post_init__(self) -> None:
        if self.base_cost <= 0:
            raise ConfigError(f"base_cost must be positive: {self.base_cost}")
        if self.rep_op_cost <= 0:
            raise ConfigError(
                f"rep_op_cost must be positive: {self.rep_op_cost}"
            )
        if not 0.0 <= self.piggyback_discount < 1.0:
            raise ConfigError(
                f"piggyback_discount must be in [0, 1): "
                f"{self.piggyback_discount}"
            )

    def piggybacked_op_cost(self) -> float:
        """Work units for one repartition op riding inside a carrier."""
        return self.rep_op_cost * (1.0 - self.piggyback_discount)

    # ------------------------------------------------------------------
    # Normal transaction costs
    # ------------------------------------------------------------------
    def txn_cost(self, partitions_touched: int) -> float:
        """Cost of a transaction touching ``partitions_touched`` partitions."""
        if partitions_touched < 1:
            raise ConfigError(
                f"a transaction must touch >= 1 partition: {partitions_touched}"
            )
        if partitions_touched == 1:
            return self.base_cost
        return self.base_cost * DISTRIBUTED_COST_FACTOR

    def partitions_under_map(
        self, keys: Sequence[TupleKey], current: MapView
    ) -> frozenset[PartitionId]:
        """Partitions the keys occupy under the current map."""
        return frozenset(current.primary_of(key) for key in keys)

    def partitions_under_plan(
        self,
        keys: Sequence[TupleKey],
        plan: PartitionPlan,
        current: MapView,
    ) -> frozenset[PartitionId]:
        """Partitions the keys will occupy once ``plan`` is deployed."""
        return frozenset(
            plan.effective_partition(key, current) for key in keys
        )

    def cost_under_map(
        self, keys: Sequence[TupleKey], current: MapView
    ) -> float:
        """``C_i(O)``: the type's cost under the current placement."""
        return self.txn_cost(len(self.partitions_under_map(keys, current)))

    def cost_under_plan(
        self,
        keys: Sequence[TupleKey],
        plan: PartitionPlan,
        current: MapView,
    ) -> float:
        """``C_i(P)``: the type's cost once the plan is deployed."""
        return self.txn_cost(
            len(self.partitions_under_plan(keys, plan, current))
        )

    # ------------------------------------------------------------------
    # Repartition transaction costs
    # ------------------------------------------------------------------
    def rep_txn_cost(self, operations: Iterable[RepartitionOperation]) -> float:
        """Cost of executing a group of repartition operations."""
        return self.rep_op_cost * sum(1 for _op in operations)

    def benefit(
        self,
        affected: Iterable[tuple[TransactionType, float]],
    ) -> float:
        """``B_j = Σ f_i · (C_i(O) − C_i(P))`` given per-type improvements."""
        return sum(ttype.frequency * delta for ttype, delta in affected)

    def benefit_density(
        self, benefit: float, rep_cost: float
    ) -> float:
        """Benefit per unit of repartition cost (ranking key)."""
        if rep_cost <= 0:
            raise ConfigError(f"repartition cost must be positive: {rep_cost}")
        return benefit / rep_cost

    # ------------------------------------------------------------------
    # Workload-wide estimates (used for load calibration and triggers)
    # ------------------------------------------------------------------
    def expected_cost_per_txn(
        self,
        types: Iterable[TransactionType],
        current: MapView,
        plan: Optional[PartitionPlan] = None,
    ) -> float:
        """Frequency-weighted mean transaction cost under map (or plan)."""
        total_freq = 0.0
        total_cost = 0.0
        for ttype in types:
            if plan is None:
                cost = self.cost_under_map(ttype.keys, current)
            else:
                cost = self.cost_under_plan(ttype.keys, plan, current)
            total_freq += ttype.frequency
            total_cost += ttype.frequency * cost
        if total_freq == 0:
            return 0.0
        return total_cost / total_freq
