"""Property-based tests: Algorithm 1 invariants for arbitrary inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import generate_and_rank
from repro.partitioning import CostModel, PartitionPlan, diff_plan
from repro.routing import PartitionMap
from repro.workload import TransactionType, WorkloadProfile

PARTITIONS = [0, 1, 2]


@st.composite
def ranking_inputs(draw):
    """A random profile (possibly with shared keys), placement, and plan."""
    n_types = draw(st.integers(min_value=1, max_value=8))
    key_space = draw(st.integers(min_value=4, max_value=16))
    types = []
    for i in range(n_types):
        keys = tuple(
            sorted(
                draw(
                    st.sets(
                        st.integers(min_value=0, max_value=key_space - 1),
                        min_size=2,
                        max_size=4,
                    )
                )
            )
        )
        freq = draw(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
        )
        types.append(TransactionType(i, keys, freq))
    profile = WorkloadProfile(table="t", types=types)

    pmap = PartitionMap()
    for key in range(key_space):
        pmap.assign(key, draw(st.sampled_from(PARTITIONS)))

    plan = PartitionPlan()
    for key in range(key_space):
        if draw(st.booleans()):
            plan.assign(key, draw(st.sampled_from(PARTITIONS)))
    return profile, pmap, plan


class TestAlgorithm1Invariants:
    @settings(max_examples=200, deadline=None)
    @given(ranking_inputs())
    def test_every_op_in_exactly_one_transaction(self, inputs):
        profile, pmap, plan = inputs
        ops = diff_plan(pmap, plan)
        specs = generate_and_rank(ops, plan, pmap, profile, CostModel())
        assigned = [op.op_id for spec in specs for op in spec.ops]
        assert sorted(assigned) == sorted(op.op_id for op in ops)
        assert len(assigned) == len(set(assigned))

    @settings(max_examples=200, deadline=None)
    @given(ranking_inputs())
    def test_density_order_is_descending(self, inputs):
        profile, pmap, plan = inputs
        ops = diff_plan(pmap, plan)
        specs = generate_and_rank(ops, plan, pmap, profile, CostModel())
        densities = [spec.benefit_density for spec in specs]
        assert densities == sorted(densities, reverse=True)

    @settings(max_examples=200, deadline=None)
    @given(ranking_inputs())
    def test_costs_and_benefits_consistent(self, inputs):
        profile, pmap, plan = inputs
        model = CostModel()
        ops = diff_plan(pmap, plan)
        specs = generate_and_rank(ops, plan, pmap, profile, model)
        for spec in specs:
            assert spec.cost == model.rep_txn_cost(spec.ops)
            assert spec.benefit >= 0 or spec.type_id == -1
            if spec.cost > 0:
                assert spec.benefit_density == spec.benefit / spec.cost

    @settings(max_examples=200, deadline=None)
    @given(ranking_inputs())
    def test_benefiting_specs_only_for_improving_types(self, inputs):
        profile, pmap, plan = inputs
        model = CostModel()
        ops = diff_plan(pmap, plan)
        specs = generate_and_rank(ops, plan, pmap, profile, model)
        for spec in specs:
            if spec.type_id >= 0:
                ttype = profile.type(spec.type_id)
                assert model.cost_under_map(
                    ttype.keys, pmap
                ) - model.cost_under_plan(ttype.keys, plan, pmap) > 0

    @settings(max_examples=100, deadline=None)
    @given(ranking_inputs())
    def test_deterministic(self, inputs):
        profile, pmap, plan = inputs
        ops = diff_plan(pmap, plan)
        first = generate_and_rank(ops, plan, pmap, profile, CostModel())
        second = generate_and_rank(ops, plan, pmap, profile, CostModel())
        assert [
            (s.type_id, [o.op_id for o in s.ops]) for s in first
        ] == [(s.type_id, [o.op_id for o in s.ops]) for s in second]
