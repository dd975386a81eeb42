"""Global wait-for-graph deadlock detection.

All lock managers in the cluster report who-waits-for-whom edges to a
single :class:`DeadlockDetector` (the simulation runs in one process, so a
global view is free — on the paper's real cluster this role is played by
distributed deadlock detection or, as in PostgreSQL, per-node detection
plus lock timeouts, which we also support).

When a cycle appears the detector picks a victim and reports it; the lock
manager then fails that transaction's pending lock request with
:class:`~repro.errors.DeadlockAbort`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..types import TxnId

#: Chooses the victim among the transactions in a cycle.
VictimPolicy = Callable[[tuple[TxnId, ...]], TxnId]


def youngest_victim(cycle: tuple[TxnId, ...]) -> TxnId:
    """Default policy: abort the youngest (highest-id) transaction.

    Younger transactions have done the least work, so aborting them wastes
    the least — the classic textbook choice.
    """
    return max(cycle)


class DeadlockDetector:
    """Maintains the wait-for graph and finds cycles incrementally.

    Besides the graph itself, the detector keeps a registry of *where*
    each transaction is waiting (which lock manager, key, and pending
    event), so that a victim whose blocking wait lives on a different
    node than the one that closed the cycle can still be aborted.
    """

    def __init__(self, victim_policy: VictimPolicy = youngest_victim) -> None:
        self._waits_for: dict[TxnId, set[TxnId]] = {}
        #: blocker -> waiters that had it among their blockers: a
        #: superset of the waiters whose set holds it now.  Stale entries
        #: (the waiter has since stopped waiting on it) only cost a no-op
        #: discard in :meth:`remove_transaction`.
        self._waited_by: dict[TxnId, set[TxnId]] = {}
        self._victim_policy = victim_policy
        #: txn -> (lock manager, key, pending event) of its active wait.
        self._wait_sites: dict[TxnId, tuple[object, TxnId, object]] = {}
        self.cycles_found = 0
        self.victims_aborted = 0

    # ------------------------------------------------------------------
    # Wait-site registry (used to abort victims on any node)
    # ------------------------------------------------------------------
    def register_wait_site(
        self, txn_id: TxnId, manager: object, key: object, event: object
    ) -> None:
        """Record that ``txn_id`` is blocked on ``key`` at ``manager``."""
        self._wait_sites[txn_id] = (manager, key, event)  # type: ignore[assignment]

    def unregister_wait_site(self, txn_id: TxnId) -> None:
        """Forget the wait site of ``txn_id`` (granted, cancelled, aborted)."""
        self._wait_sites.pop(txn_id, None)

    def wait_site(
        self, txn_id: TxnId
    ) -> Optional[tuple[object, object, object]]:
        """The (manager, key, event) where ``txn_id`` currently waits."""
        return self._wait_sites.get(txn_id)

    def set_waits(self, waiter: TxnId, blockers: Iterable[TxnId]) -> None:
        """Replace the outgoing edges of ``waiter``."""
        blockers = {b for b in blockers if b != waiter}
        if blockers:
            previous = self._waits_for.get(waiter)
            self._waits_for[waiter] = blockers
            # Blockers already in the previous set are indexed already.
            waited_by = self._waited_by
            for blocker in blockers - previous if previous else blockers:
                waiters = waited_by.get(blocker)
                if waiters is None:
                    waited_by[blocker] = {waiter}
                else:
                    waiters.add(waiter)
        else:
            self._waits_for.pop(waiter, None)

    def clear_waits(self, waiter: TxnId) -> None:
        """Remove all outgoing edges of ``waiter`` (it stopped waiting)."""
        self._waits_for.pop(waiter, None)

    def remove_transaction(self, txn_id: TxnId) -> None:
        """Purge a finished transaction from the graph entirely."""
        waits_for = self._waits_for
        waits_for.pop(txn_id, None)
        self._wait_sites.pop(txn_id, None)
        for waiter in self._waited_by.pop(txn_id, ()):
            blockers = waits_for.get(waiter)
            if blockers is not None:
                blockers.discard(txn_id)

    def waits_of(self, waiter: TxnId) -> frozenset[TxnId]:
        """Current blockers of ``waiter`` (empty if not waiting)."""
        return frozenset(self._waits_for.get(waiter, ()))

    # ------------------------------------------------------------------
    # Cycle detection
    # ------------------------------------------------------------------
    def find_cycle(self, start: TxnId) -> Optional[tuple[TxnId, ...]]:
        """Find a cycle reachable from ``start``, if any.

        Iterative DFS over the wait-for graph (an explicit stack of
        successor iterators, so chain depth is not bounded by the Python
        recursion limit); returns the cycle as a tuple of transaction
        ids, or ``None``.
        """
        waits_for = self._waits_for
        path: list[TxnId] = [start]
        on_path: set[TxnId] = {start}
        visited: set[TxnId] = set()
        stack = [iter(waits_for.get(start, ()))]
        while stack:
            for successor in stack[-1]:
                if successor in on_path:
                    return tuple(path[path.index(successor):])
                if successor not in visited:
                    path.append(successor)
                    on_path.add(successor)
                    stack.append(iter(waits_for.get(successor, ())))
                    break
            else:
                stack.pop()
                node = path.pop()
                on_path.remove(node)
                visited.add(node)
        return None

    def check(self, start: TxnId) -> Optional[TxnId]:
        """Detect a cycle involving ``start``; return the chosen victim."""
        cycle = self.find_cycle(start)
        if cycle is None:
            return None
        self.cycles_found += 1
        return self._victim_policy(cycle)
