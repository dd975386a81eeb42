"""Tests for Algorithm 1: generating and ranking repartition transactions."""

import pytest

from repro.core import generate_and_rank
from repro.partitioning import CostModel, PartitionPlan, diff_plan
from repro.routing import PartitionMap
from repro.workload import TransactionType, WorkloadProfile


def make_setup(frequencies=(5.0, 2.0, 1.0)):
    """Three disjoint 2-key types, all initially split across 0/1."""
    types = [
        TransactionType(i, (2 * i, 2 * i + 1), freq)
        for i, freq in enumerate(frequencies)
    ]
    profile = WorkloadProfile(table="t", types=types)
    pmap = PartitionMap()
    for ttype in types:
        pmap.assign(ttype.keys[0], 0)
        pmap.assign(ttype.keys[1], 1)
    plan = PartitionPlan()
    for ttype in types:
        plan.assign(ttype.keys[0], 0)
        plan.assign(ttype.keys[1], 0)  # collocate everything on 0
    ops = diff_plan(pmap, plan)
    return profile, pmap, plan, ops


class TestGrouping:
    def test_one_transaction_per_benefiting_type(self):
        profile, pmap, plan, ops = make_setup()
        specs = generate_and_rank(ops, plan, pmap, profile, CostModel())
        assert len(specs) == 3
        assert {spec.type_id for spec in specs} == {0, 1, 2}

    def test_every_op_in_exactly_one_transaction(self):
        profile, pmap, plan, ops = make_setup()
        specs = generate_and_rank(ops, plan, pmap, profile, CostModel())
        seen = [op.op_id for spec in specs for op in spec.ops]
        assert sorted(seen) == sorted(op.op_id for op in ops)
        assert len(seen) == len(set(seen))

    def test_ops_grouped_with_their_type(self):
        profile, pmap, plan, ops = make_setup()
        specs = generate_and_rank(ops, plan, pmap, profile, CostModel())
        for spec in specs:
            type_keys = set(profile.type(spec.type_id).keys)
            for op in spec.ops:
                assert op.key in type_keys


class TestBenefits:
    def test_benefit_is_frequency_times_improvement(self):
        profile, pmap, plan, ops = make_setup(frequencies=(5.0, 2.0, 1.0))
        specs = generate_and_rank(ops, plan, pmap, profile, CostModel())
        by_type = {spec.type_id: spec for spec in specs}
        # improvement is C(O)-C(P) = 2-1 = 1 for every type.
        assert by_type[0].benefit == pytest.approx(5.0)
        assert by_type[1].benefit == pytest.approx(2.0)
        assert by_type[2].benefit == pytest.approx(1.0)

    def test_ranked_by_descending_benefit_density(self):
        profile, pmap, plan, ops = make_setup(frequencies=(1.0, 9.0, 4.0))
        specs = generate_and_rank(ops, plan, pmap, profile, CostModel())
        densities = [spec.benefit_density for spec in specs]
        assert densities == sorted(densities, reverse=True)
        assert specs[0].type_id == 1  # hottest first

    def test_cost_is_rep_txn_cost(self):
        profile, pmap, plan, ops = make_setup()
        model = CostModel(rep_op_cost=3.0)
        specs = generate_and_rank(ops, plan, pmap, profile, model)
        for spec in specs:
            assert spec.cost == pytest.approx(3.0 * len(spec.ops))


class TestImprovement:
    """``C_i(O) − C_i(P)`` as Algorithm 1 computes it (evens on 0, odds on 1)."""

    @staticmethod
    def rank(ttype, plan):
        pmap = PartitionMap()
        for key in range(10):
            pmap.assign(key, key % 2)
        profile = WorkloadProfile(table="t", types=[ttype])
        ops = diff_plan(pmap, plan)
        return generate_and_rank(ops, plan, pmap, profile, CostModel())

    def test_improvement_positive_for_collocation(self):
        ttype = TransactionType(type_id=0, keys=(0, 1), frequency=2.0)
        [spec] = self.rank(ttype, PartitionPlan({1: 0}))
        # frequency 2.0 times an improvement of 2C - C = 1.0.
        assert (spec.type_id, spec.benefit) == (0, 2.0)

    def test_improvement_zero_when_already_local(self):
        ttype = TransactionType(type_id=0, keys=(0, 2), frequency=2.0)
        [spec] = self.rank(ttype, PartitionPlan({0: 1, 2: 1}))
        assert (spec.type_id, spec.benefit) == (-1, 0.0)

    def test_improvement_negative_when_plan_splits(self):
        ttype = TransactionType(type_id=0, keys=(0, 2), frequency=1.0)
        [spec] = self.rank(ttype, PartitionPlan({2: 1}))
        assert (spec.type_id, spec.benefit) == (-1, 0.0)


class TestFiltering:
    def test_non_improving_types_excluded(self):
        """A type already collocated contributes no repartition txn."""
        types = [
            TransactionType(0, (0, 1), 5.0),   # split -> improves
            TransactionType(1, (2, 3), 9.0),   # already collocated
        ]
        profile = WorkloadProfile(table="t", types=types)
        pmap = PartitionMap()
        pmap.assign(0, 0)
        pmap.assign(1, 1)
        pmap.assign(2, 0)
        pmap.assign(3, 0)
        plan = PartitionPlan({0: 0, 1: 0})
        ops = diff_plan(pmap, plan)
        specs = generate_and_rank(ops, plan, pmap, profile, CostModel())
        assert [spec.type_id for spec in specs] == [0]

    def test_orphan_ops_packaged_as_leftover(self):
        """Ops touching no profiled type still get deployed (ranked last)."""
        profile = WorkloadProfile(
            table="t", types=[TransactionType(0, (0, 1), 1.0)]
        )
        pmap = PartitionMap()
        for key in range(4):
            pmap.assign(key, 0)
        pmap.move(1, 0, 1)
        plan = PartitionPlan({1: 0, 3: 1})  # key 3 belongs to no type
        ops = diff_plan(pmap, plan)
        specs = generate_and_rank(ops, plan, pmap, profile, CostModel())
        assert specs[-1].type_id == -1
        assert {op.key for op in specs[-1].ops} == {3}

    def test_empty_ops_give_empty_specs(self):
        profile = WorkloadProfile(
            table="t", types=[TransactionType(0, (0, 1), 1.0)]
        )
        pmap = PartitionMap()
        pmap.assign(0, 0)
        pmap.assign(1, 0)
        specs = generate_and_rank(
            [], PartitionPlan(), pmap, profile, CostModel()
        )
        assert specs == []


class TestSharedOps:
    def test_shared_op_consumed_by_hotter_type(self):
        """When two types share a key, the hotter group claims its op."""
        types = [
            TransactionType(0, (0, 1), 10.0),
            TransactionType(1, (1, 2), 1.0),  # shares key 1 with type 0
        ]
        profile = WorkloadProfile(table="t", types=types)
        pmap = PartitionMap()
        pmap.assign(0, 0)
        pmap.assign(1, 1)
        pmap.assign(2, 0)
        plan = PartitionPlan({1: 0})  # move key 1 home
        ops = diff_plan(pmap, plan)
        specs = generate_and_rank(ops, plan, pmap, profile, CostModel())
        # Only one op exists; it must appear exactly once, in the hot group.
        assert len(specs) == 1
        assert specs[0].type_id == 0
        assert len(specs[0].ops) == 1

    def test_rerun_resets_benefit_accumulators(self):
        profile, pmap, plan, ops = make_setup()
        first = generate_and_rank(ops, plan, pmap, profile, CostModel())
        second = generate_and_rank(ops, plan, pmap, profile, CostModel())
        for spec_a, spec_b in zip(first, second):
            assert spec_a.benefit == pytest.approx(spec_b.benefit)
