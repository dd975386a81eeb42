"""The cost-based repartition optimizer (paper §2.2).

The optimizer periodically inspects the workload history, estimates near-
future performance, and — when the estimate falls below a threshold —
derives a repartition plan.  The planning strategy here is the
collocation heuristic underlying Schism-style partitioners specialised to
the paper's workload: for every transaction type whose tuples are spread
over several partitions, pick a single target partition (preferring the
partition already holding most of its tuples, tie-broken toward the
least-loaded partition) and collocate the type's tuples there.

Load balance is maintained by tracking the frequency-weighted work each
partition will carry under the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..errors import ConfigError
from ..routing.epoch import MapView
from ..types import PartitionId
from .cost_model import CostModel
from .plan import PartitionPlan



if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.workload.profile import TransactionType, WorkloadProfile

@dataclass(frozen=True)
class OptimizerConfig:
    """Tuning knobs for the collocation optimizer."""

    #: Re-plan is triggered when estimated utilisation exceeds this.
    utilisation_threshold: float = 0.9
    #: Only consider types whose cost actually improves (paper line 4 of
    #: Algorithm 1 drops zero-benefit operations).
    require_positive_benefit: bool = True


class RepartitionOptimizer:
    """Derives collocation plans and decides when repartitioning is due."""

    def __init__(
        self,
        cost_model: CostModel,
        partitions: Sequence[PartitionId],
        config: Optional[OptimizerConfig] = None,
    ) -> None:
        if not partitions:
            raise ConfigError("optimizer needs at least one partition")
        self.cost_model = cost_model
        self.partitions = list(partitions)
        self._placeable = frozenset(self.partitions)
        self.config = config or OptimizerConfig()

    # ------------------------------------------------------------------
    # Trigger
    # ------------------------------------------------------------------
    def should_repartition(
        self,
        arrival_rate_txn_per_s: float,
        profile: WorkloadProfile,
        current: MapView,
        capacity_units_per_s: float,
    ) -> bool:
        """Whether estimated utilisation breaches the threshold."""
        if capacity_units_per_s <= 0:
            raise ConfigError("capacity must be positive")
        mean_cost = self.cost_model.expected_cost_per_txn(
            profile.types, current
        )
        utilisation = arrival_rate_txn_per_s * mean_cost / capacity_units_per_s
        return utilisation > self.config.utilisation_threshold

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def derive_plan(
        self,
        profile: WorkloadProfile,
        current: MapView,
        types_to_fix: Optional[Sequence[TransactionType]] = None,
    ) -> PartitionPlan:
        """Collocate each (selected) type's tuples on one partition.

        Types are processed hottest-first so the most beneficial
        placements get first pick of partitions; keys claimed by a hotter
        type are not reassigned by a colder one.  Each type's
        per-partition key counts are read from ``current`` once, when the
        loads are seeded, and reused for the collocation check, the
        target choice and the load update.
        """
        plan = PartitionPlan()
        load: dict[PartitionId, float] = {p: 0.0 for p in self.partitions}

        candidates = list(types_to_fix) if types_to_fix is not None else list(
            profile.types
        )
        candidates.sort(key=lambda t: (-t.frequency, t.type_id))
        candidate_ids = {t.type_id for t in candidates}

        # Seed loads with what is already resident, keeping the
        # candidates' counts for the loop below.
        counts_of: dict[int, dict[PartitionId, int]] = {}
        for ttype in profile.types:
            counts = _key_counts(ttype, current)
            home = _home(counts)
            load[home] = load.get(home, 0.0) + ttype.frequency
            if ttype.type_id in candidate_ids:
                counts_of[ttype.type_id] = counts

        index = profile.key_index()
        claimed: set[int] = set()
        for ttype in candidates:
            if all(k in claimed for k in ttype.keys):
                continue
            counts = counts_of.get(ttype.type_id)
            if counts is None:  # a candidate from outside the profile
                counts = _key_counts(ttype, current)
            if len(counts) == 1:
                continue  # already collocated, nothing to plan
            target = self._choose_target(counts, load)
            for key in ttype.keys:
                plan.assign(key, target)
                claimed.add(key)
            # Update load estimate: the type now runs on its target.
            load[_home(counts)] -= ttype.frequency
            load[target] += ttype.frequency
            # Types sharing keys with this one are constrained; skip them
            # by claiming their keys is sufficient (handled above).
            for key in ttype.keys:
                for other in index.get(key, ()):  # pragma: no branch
                    if other.type_id != ttype.type_id:
                        claimed.update(other.keys)
        return plan

    def _choose_target(
        self,
        counts: dict[PartitionId, int],
        load: dict[PartitionId, float],
    ) -> PartitionId:
        """Pick the collocation target for one type.

        Prefer the partition already holding the most of the type's
        tuples (fewest migrations); break ties toward the least-loaded
        partition, then by id for determinism.  Only placement
        partitions qualify.  A partition holding none of the type's keys
        can win only when no holder is a placement partition, so the
        full scan runs only then.
        """
        placeable = self._placeable
        holders = [p for p in counts if p in placeable]
        if holders:
            return min(holders, key=lambda p: (-counts[p], load[p], p))
        return min(self.partitions, key=lambda p: (load[p], p))


def _key_counts(
    ttype: TransactionType, current: MapView
) -> dict[PartitionId, int]:
    """How many of the type's keys each partition holds now."""
    counts: dict[PartitionId, int] = {}
    for key in ttype.keys:
        pid = current.primary_of(key)
        counts[pid] = counts.get(pid, 0) + 1
    return counts


def _home(counts: dict[PartitionId, int]) -> PartitionId:
    """The partition carrying a type's work now (majority partition)."""
    return min(counts, key=lambda p: (-counts[p], p))
