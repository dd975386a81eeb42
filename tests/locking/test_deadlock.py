"""Tests for the wait-for-graph deadlock detector."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locking import DeadlockDetector, youngest_victim

#: Deeper than the default recursion limit (1000).
DEEP_CHAIN = 3000


class TestGraphMaintenance:
    def test_set_and_read_waits(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [2, 3])
        assert detector.waits_of(1) == frozenset((2, 3))

    def test_self_edges_ignored(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [1, 2])
        assert detector.waits_of(1) == frozenset((2,))

    def test_clear_waits(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [2])
        detector.clear_waits(1)
        assert detector.waits_of(1) == frozenset()

    def test_empty_blockers_removes_node(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [2])
        detector.set_waits(1, [])
        assert detector.waits_of(1) == frozenset()

    def test_remove_transaction_purges_both_directions(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [2])
        detector.set_waits(3, [1])
        detector.remove_transaction(1)
        assert detector.waits_of(1) == frozenset()
        assert detector.waits_of(3) == frozenset()


class TestCycleDetection:
    def test_no_cycle(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [2])
        detector.set_waits(2, [3])
        assert detector.find_cycle(1) is None

    def test_two_cycle(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [2])
        detector.set_waits(2, [1])
        cycle = detector.find_cycle(1)
        assert cycle is not None
        assert set(cycle) == {1, 2}

    def test_long_cycle(self):
        detector = DeadlockDetector()
        for i in range(5):
            detector.set_waits(i, [(i + 1) % 5])
        cycle = detector.find_cycle(0)
        assert set(cycle) == {0, 1, 2, 3, 4}

    def test_cycle_not_reachable_from_start(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [2])  # 1 -> 2 (no cycle from 1)
        detector.set_waits(3, [4])
        detector.set_waits(4, [3])  # separate cycle
        assert detector.find_cycle(1) is None
        assert detector.find_cycle(3) is not None

    def test_check_counts_and_picks_victim(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [7])
        detector.set_waits(7, [1])
        victim = detector.check(1)
        assert victim == 7  # youngest
        assert detector.cycles_found == 1

    def test_check_without_cycle_returns_none(self):
        detector = DeadlockDetector()
        detector.set_waits(1, [2])
        assert detector.check(1) is None


class TestDeepChains:
    """``find_cycle`` keeps its own stack: chain depth is not limited by
    the Python recursion limit."""

    @staticmethod
    def chain(closed):
        detector = DeadlockDetector()
        for txn in range(DEEP_CHAIN - 1):
            detector.set_waits(txn, [txn + 1])
        if closed:
            detector.set_waits(DEEP_CHAIN - 1, [0])
        return detector

    def test_acyclic_chain(self):
        detector = self.chain(closed=False)
        assert detector.find_cycle(0) is None
        assert detector.check(0) is None

    def test_chain_closed_into_a_cycle(self):
        detector = self.chain(closed=True)
        assert detector.find_cycle(0) == tuple(range(DEEP_CHAIN))
        assert detector.find_cycle(DEEP_CHAIN // 2) == tuple(
            range(DEEP_CHAIN // 2, DEEP_CHAIN)
        ) + tuple(range(DEEP_CHAIN // 2))
        assert detector.check(0) == DEEP_CHAIN - 1


def recursive_find_cycle(waits_for, start):
    """The recursive DFS ``find_cycle`` replaced (the oracle)."""
    path, on_path, visited = [], set(), set()

    def dfs(node):
        path.append(node)
        on_path.add(node)
        for successor in waits_for.get(node, ()):
            if successor in on_path:
                idx = path.index(successor)
                return tuple(path[idx:])
            if successor not in visited:
                cycle = dfs(successor)
                if cycle is not None:
                    return cycle
        path.pop()
        on_path.remove(node)
        visited.add(node)
        return None

    return dfs(start)


class ScanDetector:
    """The graph bookkeeping of a detector that finds a finished
    transaction's in-edges by scanning every blocker set (the oracle)."""

    def __init__(self):
        self._waits_for = {}

    def set_waits(self, waiter, blockers):
        blockers = {b for b in blockers if b != waiter}
        if blockers:
            self._waits_for[waiter] = blockers
        else:
            self._waits_for.pop(waiter, None)

    def clear_waits(self, waiter):
        self._waits_for.pop(waiter, None)

    def remove_transaction(self, txn_id):
        self._waits_for.pop(txn_id, None)
        for blockers in self._waits_for.values():
            blockers.discard(txn_id)


def graph_of(detector):
    """The wait-for graph with dict and set iteration order kept."""
    return [(w, list(b)) for w, b in detector._waits_for.items()]


GRAPH_TXNS = st.integers(min_value=0, max_value=40)
GRAPH_ACTIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("set_waits"), GRAPH_TXNS, st.lists(GRAPH_TXNS, max_size=8)
        ),
        st.tuples(st.just("clear_waits"), GRAPH_TXNS, st.none()),
        st.tuples(st.just("remove_transaction"), GRAPH_TXNS, st.none()),
    ),
    max_size=80,
)


class TestAgainstOracles:
    @settings(max_examples=300, deadline=None)
    @given(GRAPH_ACTIONS)
    def test_reverse_index_matches_full_scan(self, actions):
        detector, oracle = DeadlockDetector(), ScanDetector()
        for action, txn, blockers in actions:
            args = (txn,) if blockers is None else (txn, blockers)
            getattr(detector, action)(*args)
            getattr(oracle, action)(*args)
            assert graph_of(detector) == graph_of(oracle)

    @settings(max_examples=300, deadline=None)
    @given(GRAPH_ACTIONS, GRAPH_TXNS)
    def test_find_cycle_matches_recursive_dfs(self, actions, start):
        detector = DeadlockDetector()
        for action, txn, blockers in actions:
            args = (txn,) if blockers is None else (txn, blockers)
            getattr(detector, action)(*args)
        assert detector.find_cycle(start) == recursive_find_cycle(
            detector._waits_for, start
        )


class TestVictimPolicy:
    def test_youngest_is_max_id(self):
        assert youngest_victim((3, 9, 1)) == 9

    def test_custom_policy(self):
        detector = DeadlockDetector(victim_policy=min)
        detector.set_waits(1, [2])
        detector.set_waits(2, [1])
        assert detector.check(1) == 1


class TestWaitSites:
    def test_register_and_lookup(self):
        detector = DeadlockDetector()
        manager, key, event = object(), 5, object()
        detector.register_wait_site(1, manager, key, event)
        assert detector.wait_site(1) == (manager, key, event)

    def test_unregister(self):
        detector = DeadlockDetector()
        detector.register_wait_site(1, object(), 5, object())
        detector.unregister_wait_site(1)
        assert detector.wait_site(1) is None

    def test_remove_transaction_clears_site(self):
        detector = DeadlockDetector()
        detector.register_wait_site(1, object(), 5, object())
        detector.remove_transaction(1)
        assert detector.wait_site(1) is None
