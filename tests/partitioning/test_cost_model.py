"""Tests for the C vs 2C cost model of §3.1."""

import pytest

from repro.errors import ConfigError
from repro.partitioning import (
    DISTRIBUTED_COST_FACTOR,
    CostModel,
    Migrate,
    PartitionPlan,
)
from repro.routing import PartitionMap
from repro.workload import TransactionType


@pytest.fixture
def pmap():
    mapping = PartitionMap()
    for key in range(10):
        mapping.assign(key, key % 2)  # evens on 0, odds on 1
    return mapping


@pytest.fixture
def model():
    return CostModel(base_cost=1.0, rep_op_cost=0.5)


class TestTxnCost:
    def test_collocated_costs_c(self, model):
        assert model.txn_cost(1) == 1.0

    def test_distributed_costs_2c(self, model):
        assert model.txn_cost(2) == DISTRIBUTED_COST_FACTOR
        assert model.txn_cost(5) == DISTRIBUTED_COST_FACTOR

    def test_zero_partitions_rejected(self, model):
        with pytest.raises(ConfigError):
            model.txn_cost(0)

    def test_scales_with_base_cost(self):
        model = CostModel(base_cost=3.0)
        assert model.txn_cost(1) == 3.0
        assert model.txn_cost(2) == 6.0


class TestCostUnderPlacement:
    def test_cost_under_map(self, model, pmap):
        assert model.cost_under_map([0, 2, 4], pmap) == 1.0
        assert model.cost_under_map([0, 1], pmap) == 2.0

    def test_cost_under_plan_overrides_map(self, model, pmap):
        plan = PartitionPlan({1: 0})
        assert model.cost_under_plan([0, 1], plan, pmap) == 1.0


class TestRepartitionCosts:
    def test_rep_txn_cost_is_per_op(self, model):
        ops = [
            Migrate(op_id=i, key=i, source=0, destination=1)
            for i in range(4)
        ]
        assert model.rep_txn_cost(ops) == 2.0

    def test_benefit_sums_frequency_weighted(self, model):
        types = [
            (TransactionType(0, (0, 1), 5.0), 1.0),
            (TransactionType(1, (2, 3), 2.0), 1.0),
        ]
        assert model.benefit(types) == 7.0

    def test_benefit_density(self, model):
        assert model.benefit_density(6.0, 2.0) == 3.0

    def test_benefit_density_zero_cost_rejected(self, model):
        with pytest.raises(ConfigError):
            model.benefit_density(1.0, 0.0)


class TestExpectedCost:
    def test_weighted_mean(self, model, pmap):
        types = [
            TransactionType(0, (0, 2), 3.0),  # local, cost 1
            TransactionType(1, (0, 1), 1.0),  # distributed, cost 2
        ]
        assert model.expected_cost_per_txn(types, pmap) == pytest.approx(
            (3 * 1 + 1 * 2) / 4
        )

    def test_empty_profile_costs_zero(self, model, pmap):
        assert model.expected_cost_per_txn([], pmap) == 0.0

    def test_under_plan_everything_local(self, model, pmap):
        types = [TransactionType(0, (0, 1), 1.0)]
        plan = PartitionPlan({0: 0, 1: 0})
        assert model.expected_cost_per_txn(types, pmap, plan) == 1.0


class TestValidation:
    def test_non_positive_base_cost_rejected(self):
        with pytest.raises(ConfigError):
            CostModel(base_cost=0)

    def test_non_positive_rep_op_cost_rejected(self):
        with pytest.raises(ConfigError):
            CostModel(rep_op_cost=-1)
