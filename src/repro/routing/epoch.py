"""Epoch-versioned partition maps: snapshots, staged deltas, migration states.

SOAP's premise is that the partition map changes *while* transactions
are in flight.  This module gives that change a structure:

* :class:`MapEpoch` — an immutable snapshot of the whole map, identified
  by a monotonic epoch id.  A transaction pins the current epoch at
  admission and can keep reading a consistent map even as later commits
  publish new epochs.
* :class:`PartitionMapStore` — the single authority over the live map.
  All runtime mutation flows through *stages*: a transaction opens an
  :class:`EpochStage`, accumulates deltas against the live map, and the
  store publishes them atomically at commit (or drops them cleanly on
  abort).  Each publish produces exactly one new epoch.
* a per-tuple migration state machine (:class:`MigrationState`):
  ``STABLE`` → ``MOVING`` while a stage holds an in-flight relocation →
  back to ``STABLE`` at the tuple's new home, leaving a ``MOVED``
  tombstone behind so late readers routed by a stale epoch can tell a
  forwarded tuple from a routing bug.

**Snapshot representation.**  Epochs are not full copies.  The store
keeps the live map plus a bounded log of :class:`EpochTransition`
records, each holding the canonical per-key deltas of one publish
(``before`` → ``after`` replica tuples).  Constructing an epoch is O(1);
publishing is O(changed keys); reading through an old pinned epoch
resolves the key against the transitions published since that epoch
(undo direction), falling back to the live map.  The log is trimmed once
it exceeds ``max_delta_log`` entries, but never past the oldest pinned
epoch — so a pinned transaction's snapshot stays readable for its whole
lifetime, and an *unpinned* ancient epoch raises :class:`EpochError`
instead of silently returning wrong data.

**Pinned-read fast path.**  A pinned epoch that falls more than
``SNAPSHOT_DELTA_THRESHOLD`` transitions behind the live map stops
walking the delta chain per read: it materialises (once, lazily) a
merged *overlay* dict — key → replica tuple as of the pinned epoch, for
every key touched by any later transition — and extends it by O(new
deltas) per subsequent publish.  A read is then one dict probe plus a
live-map fallback, independent of chain depth, which keeps long-pinned
transactions within a small constant factor of live-route throughput.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Any, Callable, Iterator, Optional, Union

from ..errors import EpochError, RoutingError
from ..types import PartitionId, TupleKey
from .partition_map import PartitionMap

#: A tuple's replica list (primary first); ``None`` means "not mapped".
Replicas = tuple[PartitionId, ...]

#: Delta-chain depth past which a pinned epoch materialises its merged
#: snapshot overlay instead of walking the chain on every read.  Shallow
#: pins (a handful of publishes behind) stay on the walk — building an
#: overlay for them would cost more than it saves.
SNAPSHOT_DELTA_THRESHOLD = 4

#: Sentinel distinguishing "key untouched since this epoch" from a real
#: overlay value (which may legitimately be ``None`` = unmapped).
#: Typed ``Any`` so resolution helpers can return it alongside replica
#: tuples without a cast at every use site.
_UNTOUCHED: Any = object()


class MigrationState(enum.Enum):
    """Per-tuple migration lifecycle."""

    #: No in-flight placement change.
    STABLE = "stable"
    #: At least one open stage holds an unpublished relocation of the
    #: tuple; reads keep routing to the (still-authoritative) current
    #: epoch until the stage publishes.
    MOVING = "moving"
    #: A relocation of the tuple's primary recently published; the
    #: tombstone records where it went so stale routes can forward.
    MOVED = "moved"


@dataclass(frozen=True)
class MapDelta:
    """Canonical per-key delta: the replica list ``before`` → ``after``.

    Set-style (whole replica tuple, not an edit script), so replaying a
    delta log is unambiguous regardless of how the change was staged.
    """

    key: TupleKey
    before: Optional[Replicas]
    after: Optional[Replicas]


@dataclass(frozen=True)
class MovedTombstone:
    """Record of a recently-published primary relocation."""

    key: TupleKey
    source: PartitionId
    destination: PartitionId
    #: Epoch that published the move.
    epoch_id: int


@dataclass(frozen=True)
class EpochTransition:
    """One publish: the deltas that took epoch ``epoch_id - 1`` to
    ``epoch_id``, plus a key-indexed view of the prior values."""

    epoch_id: int
    deltas: tuple[MapDelta, ...]

    @cached_property
    def prev(self) -> dict[TupleKey, Optional[Replicas]]:
        """Key → replica tuple as of the *previous* epoch.

        Cached: the transition is immutable and pinned-epoch reads probe
        this dict on every resolution, so it is built exactly once.
        (``cached_property`` writes to ``__dict__`` directly, which is
        legal on a frozen dataclass.)
        """
        return {d.key: d.before for d in self.deltas}


class MapEpoch:
    """Immutable snapshot of the partition map at one epoch.

    Implements the read half of :class:`PartitionMap`'s interface
    (``replicas_of`` / ``primary_of`` / ``replica_count`` /
    ``partition_sizes`` / ``keys`` / ``in`` / ``len``), so planners and
    cost models can consume either interchangeably.
    """

    __slots__ = ("_store", "epoch_id", "_overlay", "_overlay_through")

    def __init__(self, store: "PartitionMapStore", epoch_id: int) -> None:
        self._store = store
        self.epoch_id = epoch_id
        #: Merged snapshot overlay: key → replica tuple *as of this
        #: epoch* for every key some later transition touched.  Built
        #: lazily once the chain exceeds SNAPSHOT_DELTA_THRESHOLD, then
        #: extended by O(new deltas) per publish.
        self._overlay: Optional[dict[TupleKey, Optional[Replicas]]] = None
        #: Store epoch id the overlay has absorbed transitions through.
        self._overlay_through = epoch_id

    # ------------------------------------------------------------------
    # Resolution against the transition log
    # ------------------------------------------------------------------
    def _transitions_since(self) -> list[EpochTransition]:
        """Transitions published after this epoch (oldest first)."""
        store = self._store
        if self.epoch_id == store.epoch_id:
            return []
        first_needed = self.epoch_id + 1
        if store._log and first_needed < store._log[0].epoch_id:
            raise EpochError(
                f"epoch {self.epoch_id} has expired (delta log trimmed); "
                f"pin epochs you intend to keep reading"
            )
        if not store._log:
            raise EpochError(f"epoch {self.epoch_id} has expired")
        offset = first_needed - store._log[0].epoch_id
        return store._log[offset:]

    def _sync_overlay(self) -> dict[TupleKey, Optional[Replicas]]:
        """Materialise / extend the merged overlay through the live epoch.

        The overlay maps each touched key to its value as of *this*
        epoch, i.e. the ``before`` of the earliest later transition that
        touched it — so absorbing transitions oldest-first with
        ``setdefault`` keeps the earliest ``before`` and extension by
        later publishes never overwrites an entry.
        """
        overlay = self._overlay
        if overlay is None:
            overlay = self._overlay = {}
            self._overlay_through = self.epoch_id
        store = self._store
        if self._overlay_through == store.epoch_id:
            return overlay
        first_needed = self._overlay_through + 1
        log = store._log
        if not log or first_needed < log[0].epoch_id:
            raise EpochError(
                f"epoch {self.epoch_id} has expired (delta log trimmed); "
                f"pin epochs you intend to keep reading"
            )
        for transition in log[first_needed - log[0].epoch_id:]:
            for delta in transition.deltas:
                overlay.setdefault(delta.key, delta.before)
        self._overlay_through = store.epoch_id
        return overlay

    def _resolve(self, key: TupleKey) -> Optional[Replicas]:
        """``key``'s value as of this epoch, or ``_UNTOUCHED`` when no
        later transition touched it (read the live map)."""
        store = self._store
        if self.epoch_id == store.epoch_id:
            return _UNTOUCHED
        overlay = self._overlay
        if overlay is not None:
            if self._overlay_through != store.epoch_id:
                overlay = self._sync_overlay()
            return overlay.get(key, _UNTOUCHED)
        transitions = self._transitions_since()
        if len(transitions) >= SNAPSHOT_DELTA_THRESHOLD:
            return self._sync_overlay().get(key, _UNTOUCHED)
        for transition in transitions:
            prev = transition.prev
            if key in prev:
                return prev[key]
        return _UNTOUCHED

    def replicas_of(self, key: TupleKey) -> Replicas:
        """Replica list of ``key`` as of this epoch (primary first)."""
        value = self._resolve(key)
        if value is _UNTOUCHED:
            return self._store.live_map.replicas_of(key)
        if value is None:
            raise RoutingError(
                f"tuple {key} is not mapped to any partition"
            )
        return value

    def primary_of(self, key: TupleKey) -> PartitionId:
        """The primary replica's partition as of this epoch."""
        value = self._resolve(key)
        if value is _UNTOUCHED:
            return self._store.live_map.primary_of(key)
        if value is None:
            raise RoutingError(
                f"tuple {key} is not mapped to any partition"
            )
        return value[0]

    def replica_count(self, key: TupleKey) -> int:
        """Number of replicas of ``key`` as of this epoch."""
        return len(self.replicas_of(key))

    def __contains__(self, key: TupleKey) -> bool:
        value = self._resolve(key)
        if value is _UNTOUCHED:
            return key in self._store.live_map
        return value is not None

    def keys(self) -> Iterator[TupleKey]:
        """Iterate the keys mapped as of this epoch."""
        keys = set(self._store.live_map.keys())
        for transition in reversed(self._transitions_since()):
            for delta in transition.deltas:
                if delta.before is None:
                    keys.discard(delta.key)
                else:
                    keys.add(delta.key)
        return iter(keys)

    def __len__(self) -> int:
        size = len(self._store.live_map)
        for transition in self._transitions_since():
            for delta in transition.deltas:
                if delta.before is None and delta.after is not None:
                    size -= 1
                elif delta.before is not None and delta.after is None:
                    size += 1
        return size

    def partition_sizes(self) -> dict[PartitionId, int]:
        """Replica counts per partition as of this epoch."""
        sizes = self._store.live_map.partition_sizes()
        for transition in self._transitions_since():
            for delta in transition.deltas:
                for pid in delta.after or ():
                    sizes[pid] = sizes.get(pid, 0) - 1
                for pid in delta.before or ():
                    sizes[pid] = sizes.get(pid, 0) + 1
        return {pid: n for pid, n in sizes.items() if n > 0}

    def __repr__(self) -> str:
        return f"<MapEpoch {self.epoch_id}>"


#: Anything the planners can read a placement from.
MapView = Union[PartitionMap, MapEpoch]


class EpochStage:
    """A mutable buffer of map deltas awaiting an atomic publish.

    Reads overlay the staged values on the *live* map (not the stage's
    base epoch), mirroring the sequential visibility the executor's
    commit path historically had: within one commit, each operation sees
    the effect of the previous one.  Validation matches
    :class:`PartitionMap` (duplicate replicas, missing tuples and
    last-replica removal all raise :class:`RoutingError` at stage time,
    so an invalid delta can never reach a published epoch).
    """

    def __init__(
        self, store: "PartitionMapStore", stage_id: int, owner: int
    ) -> None:
        self._store = store
        self.stage_id = stage_id
        #: Transaction id (or -1) that opened the stage, for diagnostics.
        self.owner = owner
        self.base_epoch_id = store.epoch_id
        self._pending: dict[TupleKey, Optional[Replicas]] = {}
        self._moving: set[TupleKey] = set()
        self.published = False
        self.discarded = False

    # ------------------------------------------------------------------
    # Overlay reads
    # ------------------------------------------------------------------
    def replicas_of(self, key: TupleKey) -> Replicas:
        """Replica list of ``key`` with staged deltas applied."""
        if key in self._pending:
            value = self._pending[key]
            if value is None:
                raise RoutingError(
                    f"tuple {key} is not mapped to any partition"
                )
            return value
        return self._store.live_map.replicas_of(key)

    def primary_of(self, key: TupleKey) -> PartitionId:
        """Primary partition of ``key`` with staged deltas applied."""
        return self.replicas_of(key)[0]

    def __contains__(self, key: TupleKey) -> bool:
        if key in self._pending:
            return self._pending[key] is not None
        return key in self._store.live_map

    # ------------------------------------------------------------------
    # Staging (same semantics and errors as PartitionMap's mutators)
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self.published or self.discarded:
            raise EpochError(
                f"stage {self.stage_id} is closed "
                f"({'published' if self.published else 'discarded'})"
            )

    def assign(self, key: TupleKey, partition_id: PartitionId) -> None:
        """Stage the initial single-replica placement of ``key``."""
        self._check_open()
        if key in self:
            raise RoutingError(f"tuple {key} is already mapped")
        self._pending[key] = (partition_id,)

    def add_replica(self, key: TupleKey, partition_id: PartitionId) -> None:
        """Stage a new replica of ``key`` on ``partition_id``."""
        self._check_open()
        replicas = self.replicas_of(key)
        if partition_id in replicas:
            raise RoutingError(
                f"tuple {key} already has a replica on partition "
                f"{partition_id}"
            )
        self._pending[key] = replicas + (partition_id,)

    def remove_replica(self, key: TupleKey, partition_id: PartitionId) -> None:
        """Stage dropping the replica of ``key`` on ``partition_id``."""
        self._check_open()
        replicas = self.replicas_of(key)
        if partition_id not in replicas:
            raise RoutingError(
                f"tuple {key} has no replica on partition {partition_id}"
            )
        if len(replicas) == 1:
            raise RoutingError(
                f"cannot remove the last replica of tuple {key}"
            )
        self._pending[key] = tuple(
            pid for pid in replicas if pid != partition_id
        )

    def move(
        self, key: TupleKey, source: PartitionId, destination: PartitionId
    ) -> None:
        """Stage relocating ``key``'s replica from source to destination."""
        self._check_open()
        replicas = self.replicas_of(key)
        if source not in replicas:
            raise RoutingError(
                f"tuple {key} has no replica on partition {source}"
            )
        if destination in replicas:
            raise RoutingError(
                f"tuple {key} already has a replica on partition "
                f"{destination}"
            )
        self._pending[key] = tuple(
            destination if pid == source else pid for pid in replicas
        )

    def mark_moving(self, key: TupleKey) -> None:
        """Enter ``key`` into the MOVING state for this stage's lifetime."""
        self._check_open()
        if key not in self._moving:
            self._moving.add(key)
            self._store._note_moving(key, +1)

    @property
    def staged_keys(self) -> frozenset[TupleKey]:
        """Keys with a staged delta."""
        return frozenset(self._pending)

    def __repr__(self) -> str:
        return (
            f"<EpochStage {self.stage_id} base={self.base_epoch_id} "
            f"keys={len(self._pending)} owner={self.owner}>"
        )


class PartitionMapStore:
    """Copy-on-write authority over the live partition map.

    Owns the live :class:`PartitionMap`, hands out immutable
    :class:`MapEpoch` snapshots, and is the only component that applies
    placement changes at runtime — the executor stages deltas during a
    repartition transaction and the store publishes them at commit.
    """

    def __init__(
        self,
        base: Optional[PartitionMap] = None,
        max_delta_log: int = 1024,
    ) -> None:
        if max_delta_log < 1:
            raise EpochError("max_delta_log must be >= 1")
        self._live = base if base is not None else PartitionMap()
        self.max_delta_log = max_delta_log
        self.epoch_id = 0
        self._log: list[EpochTransition] = []
        self._current = MapEpoch(self, 0)
        self._pins: dict[int, int] = {}
        self._stage_ids = count(1)
        #: key → number of open stages relocating it.
        self._moving: dict[TupleKey, int] = {}
        self._tombstones: dict[TupleKey, MovedTombstone] = {}
        #: Cumulative publish count (epoch churn metric).
        self.publishes = 0
        #: Called with the new epoch right after each publish.
        self.on_publish: Optional[Callable[[MapEpoch], None]] = None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def live_map(self) -> PartitionMap:
        """The authoritative mutable map (treat as read-only outside
        the store; all runtime mutation goes through stages)."""
        return self._live

    @property
    def current_epoch(self) -> MapEpoch:
        """The latest published epoch."""
        return self._current

    def replicas_of(self, key: TupleKey) -> Replicas:
        """Current replica list of ``key`` (primary first)."""
        return self._live.replicas_of(key)

    def primary_of(self, key: TupleKey) -> PartitionId:
        """Current primary partition of ``key``."""
        return self._live.primary_of(key)

    def partition_sizes(self) -> dict[PartitionId, int]:
        """Current replica counts per partition — O(partitions)."""
        return self._live.partition_sizes()

    def __contains__(self, key: TupleKey) -> bool:
        return key in self._live

    def __len__(self) -> int:
        return len(self._live)

    # ------------------------------------------------------------------
    # Pinning
    # ------------------------------------------------------------------
    def pin(self) -> MapEpoch:
        """Pin (and return) the current epoch; pairs with :meth:`unpin`.

        A pinned epoch's snapshot stays reconstructible: the delta log
        is never trimmed past the oldest pin.
        """
        epoch = self._current
        self._pins[epoch.epoch_id] = self._pins.get(epoch.epoch_id, 0) + 1
        return epoch

    def unpin(self, epoch: MapEpoch) -> None:
        """Release one pin on ``epoch``."""
        remaining = self._pins.get(epoch.epoch_id)
        if remaining is None:
            raise EpochError(f"epoch {epoch.epoch_id} is not pinned")
        if remaining == 1:
            del self._pins[epoch.epoch_id]
        else:
            self._pins[epoch.epoch_id] = remaining - 1
        self._trim_log()

    def pinned_epochs(self) -> tuple[int, ...]:
        """Currently pinned epoch ids (ascending)."""
        return tuple(sorted(self._pins))

    # ------------------------------------------------------------------
    # Migration states
    # ------------------------------------------------------------------
    def migration_state(self, key: TupleKey) -> MigrationState:
        """The tuple's current migration state."""
        if self._moving.get(key):
            return MigrationState.MOVING
        if key in self._tombstones:
            return MigrationState.MOVED
        return MigrationState.STABLE

    def moving_keys(self) -> frozenset[TupleKey]:
        """Keys currently held MOVING by at least one open stage."""
        return frozenset(k for k, n in self._moving.items() if n > 0)

    def tombstone_of(self, key: TupleKey) -> Optional[MovedTombstone]:
        """The MOVED tombstone for ``key``, if one is still retained."""
        return self._tombstones.get(key)

    def _note_moving(self, key: TupleKey, delta: int) -> None:
        n = self._moving.get(key, 0) + delta
        if n <= 0:
            self._moving.pop(key, None)
        else:
            self._moving[key] = n

    # ------------------------------------------------------------------
    # Staging and publishing
    # ------------------------------------------------------------------
    def begin_stage(self, owner: int = -1) -> EpochStage:
        """Open a new delta stage against the current epoch."""
        return EpochStage(self, next(self._stage_ids), owner)

    def publish(self, stage: EpochStage) -> MapEpoch:
        """Atomically apply ``stage``'s deltas and mint the next epoch.

        Per-key changes that net out to no change are elided; a stage
        with nothing effective to publish releases its MOVING marks and
        returns the current epoch unchanged (no epoch bump).
        """
        stage._check_open()
        if stage._store is not self:
            raise EpochError("stage belongs to a different store")
        deltas: list[MapDelta] = []
        for key in sorted(stage._pending):
            after = stage._pending[key]
            before = (
                self._live.replicas_of(key) if key in self._live else None
            )
            if before == after:
                continue
            if after is not None and len(set(after)) != len(after):
                raise RoutingError(
                    f"staged replica list for tuple {key} holds "
                    f"duplicates: {after}"
                )
            deltas.append(MapDelta(key=key, before=before, after=after))
        stage.published = True
        self._release_moving(stage)
        if not deltas:
            return self._current
        self.epoch_id += 1
        for delta in deltas:
            self._live.set_replicas(delta.key, delta.after)
            if (
                delta.before is not None
                and delta.after is not None
                and delta.before[0] != delta.after[0]
            ):
                self._tombstones[delta.key] = MovedTombstone(
                    key=delta.key,
                    source=delta.before[0],
                    destination=delta.after[0],
                    epoch_id=self.epoch_id,
                )
        self._log.append(
            EpochTransition(epoch_id=self.epoch_id, deltas=tuple(deltas))
        )
        self._current = MapEpoch(self, self.epoch_id)
        self.publishes += 1
        self._trim_log()
        if self.on_publish is not None:
            self.on_publish(self._current)
        return self._current

    def discard(self, stage: EpochStage) -> None:
        """Drop a stage without publishing (aborted transaction).

        Clears every MOVING mark the stage registered, so an aborted
        (or crash-killed) repartition transaction leaves no migration
        state behind — the published map never saw the stage.
        """
        if stage.published or stage.discarded:
            return
        stage.discarded = True
        self._release_moving(stage)

    def _release_moving(self, stage: EpochStage) -> None:
        for key in stage._moving:
            self._note_moving(key, -1)
        stage._moving.clear()

    # ------------------------------------------------------------------
    # Delta log
    # ------------------------------------------------------------------
    def delta_log(self) -> tuple[EpochTransition, ...]:
        """The retained transitions, oldest first."""
        return tuple(self._log)

    def _trim_log(self) -> None:
        """Drop transitions beyond the bound that no pin still needs."""
        if len(self._log) <= self.max_delta_log:
            return
        oldest_pin = min(self._pins) if self._pins else self.epoch_id
        while len(self._log) > self.max_delta_log:
            # The oldest transition T is needed by epochs < T.epoch_id.
            if self._log[0].epoch_id <= oldest_pin:
                trimmed_before = self._log.pop(0).epoch_id
                # Tombstones are retained only as long as the transition
                # that minted them is reconstructible.
                self._tombstones = {
                    k: t
                    for k, t in self._tombstones.items()
                    if t.epoch_id > trimmed_before
                }
            else:
                break

    def __repr__(self) -> str:
        return (
            f"<PartitionMapStore epoch={self.epoch_id} "
            f"keys={len(self._live)} log={len(self._log)} "
            f"moving={len(self._moving)}>"
        )
