"""Distributed PLT mining on the simulated cluster — crash-and-loss tolerant.

An *intelligent-data-distribution* scheme (after Han, Karypis & Kumar,
SIGMOD '97 — the paper's reference [15]) adapted to the PLT's partition
criterion: itemsets are owned by the node that owns their **maximal
item**, and a transaction's contribution to item ``j``'s conditional
database is exactly its prefix before ``j`` — computable locally from the
position vector with no coordination.

The fault-free dataflow is unchanged from the classic scheme:

1. every node counts item supports over its private partition and sends
   the labelled counter to node 0 (the coordinator);
2. node 0 reduces the counters, fixes the global rank table (frequent
   items only, lexicographic order) and broadcasts it;
3. every node encodes its transactions as position vectors, slices its
   *local* conditional databases per rank, and sends each ownership
   **slot**'s slice bundle to the slot's current owner (its own slot never
   touches the wire);
4. owners merge the received bundles with their own, check global
   support, mine each owned item's conditional PLT **entirely locally**
   (Algorithm 3's recursion) and send results to node 0;
5. node 0 concatenates — itemsets are partitioned by maximal item, so no
   deduplication or reconciliation is needed.

What is new is that none of these steps assumes a working machine.  The
protocol is a message-driven state machine, not a fixed superstep script,
and it survives the full failure model of
:class:`~repro.parallel.faults.FaultPlan`:

* **Lost / corrupted / duplicated / delayed messages** — every payload
  crosses the wire in CRC-framed, acked, retransmitted frames
  (:class:`~repro.robustness.channel.ReliableChannel`); corruption is
  detected and looks like loss, duplicates are filtered by sequence
  number, and the application layer additionally deduplicates by data
  **origin** so even replayed protocol steps merge exactly once.
* **Crashed nodes** — input partitions are durable
  (:class:`~repro.robustness.checkpoint.CheckpointStore`, a stand-in for
  the cluster filesystem), and nodes checkpoint their computed slice
  tables and mined per-slot results as they go.  When retransmits to a
  node exhaust their retry budget it is declared dead and reported to the
  coordinator, which reassigns every ownership slot and data-origin duty
  the dead node held to a live **successor** and broadcasts the new
  actor map.  The successor replays the dead node's duties from stable
  storage (checkpointed slices if present, else the durable partition)
  and peers re-route the bundles they had addressed to the corpse.
  Because merging is idempotent per ``(origin, slot)`` and mining is
  deterministic, the final itemsets are identical to the fault-free run.
* **Coordinator loss** — node 0 is the one node the scheme cannot lose
  (standard master/worker assumption); its death raises
  :class:`~repro.errors.CrashedNodeError` instead of wrong results.

All payloads cross the simulator as real serialized bytes, so
:class:`~repro.parallel.simcluster.ClusterStats` reports the true
communication volume of the scheme including the resilience overhead
(benchmark B15).  Item labels must be ``int`` or ``str`` (the same
restriction as the PLT codec).  See ``docs/FAULT_TOLERANCE.md`` for the
failure model, the recovery walkthrough, and the tuning knobs.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from repro.compress.plt_codec import decode_label, encode_label
from repro.compress.varint import decode_uvarint, encode_uvarint
from repro.core import position
from repro.core.conditional import mine_conditional_block
from repro.core.rank import RankTable, canonical_itemsets, sort_key
from repro.data.transaction_db import item_supports
from repro.errors import (
    CodecError,
    CrashedNodeError,
    InvalidParameterError,
    MiningInterrupted,
    ParallelExecutionError,
)
from repro.parallel.backend import create_backend
from repro.parallel.faults import FaultPlan
from repro.parallel.simcluster import ClusterStats, SimCluster
from repro.robustness.channel import ReliableChannel
from repro.robustness.checkpoint import CheckpointStore
from repro.robustness.governor import CancellationToken, MiningBudget, ResourceGovernor
from repro.robustness.retry import RetryPolicy

__all__ = ["mine_distributed", "owner_of_rank", "COORDINATOR"]

Item = Hashable

#: The coordinator node id (assumed reliable; see module docstring).
COORDINATOR = 0

#: Supersteps the coordinator waits between liveness probes of silent peers.
PROBE_INTERVAL = 4


def owner_of_rank(rank: int, n_nodes: int) -> int:
    """Static ownership **slot** of a rank: round-robin (cheap, balanced).

    Slots are fixed for the lifetime of a run; the *node* currently acting
    for a slot is ``actor[slot]`` and changes only on failover.
    """
    return (rank - 1) % n_nodes


# ---------------------------------------------------------------------------
# payload codecs (explicit bytes on the wire)
# ---------------------------------------------------------------------------
def _check_count(n: int, data, pos: int) -> None:
    """Reject length headers no well-formed stream could satisfy."""
    if n > len(data) - pos:
        raise CodecError(f"count {n} exceeds remaining {len(data) - pos} bytes")


def _encode_labelled_counts(counts: dict) -> bytes:
    buf = bytearray()
    encode_uvarint(len(counts), buf)
    for label in sorted(counts, key=sort_key):
        encode_label(label, buf)
        encode_uvarint(counts[label], buf)
    return bytes(buf)


def _decode_labelled_counts(data: bytes) -> dict:
    n, pos = decode_uvarint(data, 0)
    _check_count(n, data, pos)
    out: dict = {}
    for _ in range(n):
        label, pos = decode_label(data, pos)
        count, pos = decode_uvarint(data, pos)
        out[label] = count
    return out


def _encode_labels(labels: Iterable) -> bytes:
    labels = list(labels)
    buf = bytearray()
    encode_uvarint(len(labels), buf)
    for label in labels:
        encode_label(label, buf)
    return bytes(buf)


def _decode_labels_at(data: bytes, pos: int) -> tuple[list, int]:
    n, pos = decode_uvarint(data, pos)
    _check_count(n, data, pos)
    out = []
    for _ in range(n):
        label, pos = decode_label(data, pos)
        out.append(label)
    return out, pos


def _decode_labels(data: bytes) -> list:
    return _decode_labels_at(data, 0)[0]


def _encode_slices(slices: dict[int, tuple[int, dict]]) -> bytes:
    """``rank -> (support contribution, {prefix vector: freq})``."""
    buf = bytearray()
    encode_uvarint(len(slices), buf)
    for rank in sorted(slices):
        support, prefixes = slices[rank]
        encode_uvarint(rank, buf)
        encode_uvarint(support, buf)
        encode_uvarint(len(prefixes), buf)
        for vec in sorted(prefixes):
            encode_uvarint(len(vec), buf)
            for p in vec:
                encode_uvarint(p, buf)
            encode_uvarint(prefixes[vec], buf)
    return bytes(buf)


def _decode_slices(data: bytes) -> dict[int, tuple[int, dict]]:
    n, pos = decode_uvarint(data, 0)
    _check_count(n, data, pos)
    out: dict[int, tuple[int, dict]] = {}
    for _ in range(n):
        rank, pos = decode_uvarint(data, pos)
        support, pos = decode_uvarint(data, pos)
        n_vecs, pos = decode_uvarint(data, pos)
        _check_count(n_vecs, data, pos)
        prefixes: dict = {}
        for _ in range(n_vecs):
            length, pos = decode_uvarint(data, pos)
            _check_count(length, data, pos)
            vec = []
            for _ in range(length):
                p, pos = decode_uvarint(data, pos)
                vec.append(p)
            freq, pos = decode_uvarint(data, pos)
            prefixes[tuple(vec)] = freq
        out[rank] = (support, prefixes)
    return out


def _encode_results(pairs: list[tuple[tuple[int, ...], int]]) -> bytes:
    buf = bytearray()
    encode_uvarint(len(pairs), buf)
    for ranks, support in pairs:
        encode_uvarint(len(ranks), buf)
        for r in ranks:
            encode_uvarint(r, buf)
        encode_uvarint(support, buf)
    return bytes(buf)


def _decode_results(data: bytes) -> list[tuple[tuple[int, ...], int]]:
    n, pos = decode_uvarint(data, 0)
    _check_count(n, data, pos)
    out = []
    for _ in range(n):
        k, pos = decode_uvarint(data, pos)
        _check_count(k, data, pos)
        ranks = []
        for _ in range(k):
            r, pos = decode_uvarint(data, pos)
            ranks.append(r)
        support, pos = decode_uvarint(data, pos)
        out.append((tuple(ranks), support))
    return out


def _encode_partition(partition) -> bytes:
    """Serialize a data partition for stable storage (durable input)."""
    buf = bytearray()
    encode_uvarint(len(partition), buf)
    for t in partition:
        labels = sorted(t, key=sort_key)
        encode_uvarint(len(labels), buf)
        for label in labels:
            encode_label(label, buf)
    return bytes(buf)


def _decode_partition(data: bytes) -> list[frozenset]:
    n, pos = decode_uvarint(data, 0)
    _check_count(n, data, pos)
    out = []
    for _ in range(n):
        k, pos = decode_uvarint(data, pos)
        _check_count(k, data, pos)
        labels = []
        for _ in range(k):
            label, pos = decode_label(data, pos)
            labels.append(label)
        out.append(frozenset(labels))
    return out


# ---------------------------------------------------------------------------
# application message envelope (travels inside reliable-channel frames)
# ---------------------------------------------------------------------------
_MSG_COUNTS = 1
_MSG_RANKS = 2
_MSG_SLICES = 3
_MSG_RESULTS = 4
_MSG_DEAD = 5
_MSG_REASSIGN = 6
_MSG_FIN = 7
_MSG_PING = 8


def _msg_counts(origin: int, counts: dict) -> bytes:
    buf = bytearray([_MSG_COUNTS])
    encode_uvarint(origin, buf)
    return bytes(buf) + _encode_labelled_counts(counts)


def _msg_ranks(labels: list) -> bytes:
    return bytes([_MSG_RANKS]) + _encode_labels(labels)


def _msg_slices(origin: int, slot: int, slices: dict) -> bytes:
    buf = bytearray([_MSG_SLICES])
    encode_uvarint(origin, buf)
    encode_uvarint(slot, buf)
    return bytes(buf) + _encode_slices(slices)


def _msg_results(slot: int, pairs: list) -> bytes:
    buf = bytearray([_MSG_RESULTS])
    encode_uvarint(slot, buf)
    return bytes(buf) + _encode_results(pairs)


def _msg_dead(node: int) -> bytes:
    buf = bytearray([_MSG_DEAD])
    encode_uvarint(node, buf)
    return bytes(buf)


def _msg_reassign(actor: list[int], dead: set[int], labels: list | None) -> bytes:
    buf = bytearray([_MSG_REASSIGN, 1 if labels is not None else 0])
    if labels is not None:
        buf += _encode_labels(labels)
    encode_uvarint(len(actor), buf)
    for a in actor:
        encode_uvarint(a, buf)
    encode_uvarint(len(dead), buf)
    for d in sorted(dead):
        encode_uvarint(d, buf)
    return bytes(buf)


def _decode_msg(payload: bytes) -> tuple:
    """``payload -> (type, fields...)``; raises CodecError when malformed."""
    if not payload:
        raise CodecError("empty protocol message")
    mtype = payload[0]
    if mtype == _MSG_COUNTS:
        origin, pos = decode_uvarint(payload, 1)
        return (_MSG_COUNTS, origin, _decode_labelled_counts(payload[pos:]))
    if mtype == _MSG_RANKS:
        return (_MSG_RANKS, _decode_labels(payload[1:]))
    if mtype == _MSG_SLICES:
        origin, pos = decode_uvarint(payload, 1)
        slot, pos = decode_uvarint(payload, pos)
        return (_MSG_SLICES, origin, slot, _decode_slices(payload[pos:]))
    if mtype == _MSG_RESULTS:
        slot, pos = decode_uvarint(payload, 1)
        return (_MSG_RESULTS, slot, _decode_results(payload[pos:]))
    if mtype == _MSG_DEAD:
        node, _ = decode_uvarint(payload, 1)
        return (_MSG_DEAD, node)
    if mtype == _MSG_REASSIGN:
        if len(payload) < 2:
            raise CodecError("truncated REASSIGN")
        labels = None
        pos = 2
        if payload[1]:
            labels, pos = _decode_labels_at(payload, 2)
        n, pos = decode_uvarint(payload, pos)
        _check_count(n, payload, pos)
        actor = []
        for _ in range(n):
            a, pos = decode_uvarint(payload, pos)
            actor.append(a)
        k, pos = decode_uvarint(payload, pos)
        _check_count(k, payload, pos)
        dead = set()
        for _ in range(k):
            d, pos = decode_uvarint(payload, pos)
            dead.add(d)
        return (_MSG_REASSIGN, actor, dead, labels)
    if mtype == _MSG_FIN:
        return (_MSG_FIN,)
    if mtype == _MSG_PING:
        return (_MSG_PING,)
    raise CodecError(f"unknown protocol message type {mtype}")


# ---------------------------------------------------------------------------
# node-local computation
# ---------------------------------------------------------------------------
def _local_slices(partition, rank_table: RankTable) -> dict[int, tuple[int, dict]]:
    """Each rank's (support contribution, prefix table) from local data.

    A transaction with ranks ``r1 < ... < rk`` contributes, for every
    ``ri``, support 1 and the prefix ``(r1..r_{i-1})`` — exactly what the
    sequential sweep's migration accumulates globally.  Identical encoded
    transactions are aggregated first.
    """
    vectors: dict[tuple[int, ...], int] = {}
    for t in partition:
        ranks = rank_table.encode_itemset(t, skip_unknown=True)
        if ranks:
            vec = position.encode(ranks)
            vectors[vec] = vectors.get(vec, 0) + 1
    slices: dict[int, tuple[int, dict]] = {}
    for vec, freq in vectors.items():
        ranks = position.decode(vec)
        for i, rank in enumerate(ranks):
            support, prefixes = slices.get(rank, (0, {}))
            support += freq
            if i:
                prefix = vec[:i]
                prefixes[prefix] = prefixes.get(prefix, 0) + freq
            slices[rank] = (support, prefixes)
    return slices


def _mine_owned(
    owned: dict[int, tuple[int, dict]],
    min_support: int,
    max_len: int | None,
    governor: ResourceGovernor | None = None,
) -> list[tuple[tuple[int, ...], int]]:
    results: list[tuple[tuple[int, ...], int]] = []

    # the path engine emits itemsets already sorted ascending — append raw
    if governor is None:
        def emit(itemset: tuple[int, ...], support: int) -> None:
            results.append((itemset, support))
    else:
        def emit(itemset: tuple[int, ...], support: int) -> None:
            governor.note_itemsets()
            results.append((itemset, support))

    for rank in sorted(owned, reverse=True):
        support, prefixes = owned[rank]
        if support < min_support:
            continue
        emit((rank,), support)
        if prefixes and (max_len is None or max_len > 1):
            mine_conditional_block(
                prefixes, rank, min_support, emit, max_len, governor=governor
            )
    return results


def _merge_bundles(by_origin: Mapping[int, dict]) -> dict[int, tuple[int, dict]]:
    """Merge per-origin slice bundles (origin order for determinism)."""
    owned: dict[int, tuple[int, dict]] = {}
    for origin in sorted(by_origin):
        for rank, (support, prefixes) in by_origin[origin].items():
            have_support, have_prefixes = owned.get(rank, (0, {}))
            for vec, freq in prefixes.items():
                have_prefixes[vec] = have_prefixes.get(vec, 0) + freq
            owned[rank] = (have_support + support, have_prefixes)
    return owned


# ---------------------------------------------------------------------------
# the fault-tolerant node program
# ---------------------------------------------------------------------------
class _Node:
    """Per-node protocol state machine (volatile; crashes erase it)."""

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        partition,
        min_support: int,
        max_len: int | None,
        store: CheckpointStore,
        retry: RetryPolicy | None,
        governor: ResourceGovernor | None = None,
    ):
        self.node_id = node_id
        self.n_nodes = n_nodes
        self.partition = partition
        self.min_support = min_support
        self.max_len = max_len
        self.store = store
        self.governor = governor
        self.channel = ReliableChannel(node_id, retry=retry)
        #: slot -> node currently acting for it (identity until failover)
        self.actor = list(range(n_nodes))
        self.dead: set[int] = set()
        self.rank_table: RankTable | None = None
        self.fin = False
        # duty progress, keyed by data origin
        self.counts_sent: set[int] = set()
        self.slices_by_origin: dict[int, dict[int, tuple[int, dict]]] = {}
        self.bundle_sent: dict[tuple[int, int], int] = {}  # (origin, slot) -> dest
        # owner-side state, keyed by ownership slot
        self.bundles: dict[int, dict[int, dict]] = {}  # slot -> origin -> slices
        self.results_sent: set[int] = set()
        # coordinator-only state
        self.counts_by_origin: dict[int, dict] = {}
        self.results_by_slot: dict[int, list] = {}
        self.waiting = 0

    # -- helpers -----------------------------------------------------------
    def _is_coord(self) -> bool:
        return self.node_id == COORDINATOR

    def duties(self) -> list[int]:
        """Data origins this node currently acts for (itself + adopted)."""
        return [o for o in range(self.n_nodes) if self.actor[o] == self.node_id]

    def _send(self, ctx, superstep: int, dest: int, payload: bytes) -> None:
        self.channel.send(ctx, superstep, dest, payload)

    def _partition_of(self, origin: int):
        if origin == self.node_id:
            return self.partition
        blob = self.store.get(origin, "partition")
        if blob is None:
            raise ParallelExecutionError(
                f"node {self.node_id} cannot recover node {origin}: "
                "no durable partition in the checkpoint store",
                node_id=self.node_id,
            )
        return _decode_partition(blob)

    def _slices_of(self, ctx, origin: int) -> dict[int, tuple[int, dict]]:
        """This origin's full slice table: memory, checkpoint, or replay."""
        slices = self.slices_by_origin.get(origin)
        if slices is not None:
            return slices
        assert self.rank_table is not None
        if origin == self.node_id:
            slices = _local_slices(self.partition, self.rank_table)
            self.store.save(origin, "slices", _encode_slices(slices))
            ctx.stats.checkpoint_writes += 1
        else:
            # replaying a dead peer's superstep of work from stable storage
            ctx.stats.supersteps_replayed += 1
            blob = self.store.get(origin, "slices")
            if blob is not None:
                ctx.stats.checkpoint_reads += 1
                slices = _decode_slices(blob)
            else:
                slices = _local_slices(self._partition_of(origin), self.rank_table)
                ctx.stats.checkpoint_reads += 1  # partition replay read
        self.slices_by_origin[origin] = slices
        return slices

    def _bundle(self, origin: int, slot: int) -> dict[int, tuple[int, dict]]:
        slices = self.slices_by_origin[origin]
        return {
            rank: entry
            for rank, entry in slices.items()
            if owner_of_rank(rank, self.n_nodes) == slot
        }

    def _accept_bundle(self, origin: int, slot: int, slices: dict) -> None:
        per_origin = self.bundles.setdefault(slot, {})
        if origin not in per_origin:
            per_origin[origin] = slices

    # -- incoming messages -------------------------------------------------
    def _handle(self, ctx, superstep: int, src: int, payload: bytes) -> None:
        msg = _decode_msg(payload)
        mtype = msg[0]
        self.waiting = 0
        if mtype == _MSG_COUNTS and self._is_coord():
            _, origin, counts = msg
            self.counts_by_origin.setdefault(origin, counts)
        elif mtype == _MSG_RANKS:
            if self.rank_table is None:
                self.rank_table = RankTable(msg[1])
        elif mtype == _MSG_SLICES:
            _, origin, slot, slices = msg
            self._accept_bundle(origin, slot, slices)
        elif mtype == _MSG_RESULTS and self._is_coord():
            _, slot, pairs = msg
            self.results_by_slot.setdefault(slot, pairs)
        elif mtype == _MSG_DEAD and self._is_coord():
            self._initiate_failover(ctx, superstep, msg[1])
        elif mtype == _MSG_REASSIGN:
            _, actor, dead, labels = msg
            if labels is not None and self.rank_table is None:
                self.rank_table = RankTable(labels)
            self.actor = list(actor)
            for d in dead:
                self.dead.add(d)
                self.channel.mark_dead(d, quiet=True)
            self._reroute_bundles(ctx, superstep)
        elif mtype == _MSG_FIN:
            self.fin = True
        # _MSG_PING needs no reply beyond the channel-level ack

    def _reroute_bundles(self, ctx, superstep: int) -> None:
        """Re-send every bundle whose slot changed hands under our feet."""
        for (origin, slot), dest in list(self.bundle_sent.items()):
            new_dest = self.actor[slot]
            if new_dest == dest:
                continue
            self.bundle_sent[(origin, slot)] = new_dest
            bundle = self._bundle(origin, slot)
            if new_dest == self.node_id:
                self._accept_bundle(origin, slot, bundle)
            else:
                self._send(ctx, superstep, new_dest, _msg_slices(origin, slot, bundle))

    # -- failure handling --------------------------------------------------
    def _peer_dead(self, ctx, superstep: int, peer: int) -> None:
        # the channel exhausted its retry schedule: that many probes went
        # unanswered, and from this node's view the peer is now dead
        ctx.stats.heartbeats_missed += self.channel.retry.max_retries
        ctx.stats.workers_declared_dead += 1
        if peer == COORDINATOR:
            raise CrashedNodeError(
                f"coordinator node {COORDINATOR} stopped acknowledging "
                f"node {self.node_id}; distributed mining cannot recover "
                "from coordinator loss",
                node_id=self.node_id,
                superstep=superstep,
            )
        if self._is_coord():
            self._initiate_failover(ctx, superstep, peer)
        else:
            self._send(ctx, superstep, COORDINATOR, _msg_dead(peer))

    def _initiate_failover(self, ctx, superstep: int, dead_node: int) -> None:
        """Coordinator only: reassign the corpse's slots and broadcast."""
        if dead_node in self.dead or dead_node == COORDINATOR:
            return
        self.dead.add(dead_node)
        self.channel.mark_dead(dead_node, quiet=True)
        ctx.stats.failovers += 1
        if self.fin:
            # nothing left to reassign; best-effort FIN in case the peer
            # was falsely declared dead and is still waiting for it
            self.channel.send_unreliable(ctx, dead_node, bytes([_MSG_FIN]))
            return
        live = [n for n in range(self.n_nodes) if n not in self.dead]
        successor = next(
            (n for n in range(dead_node + 1, dead_node + self.n_nodes) if (n % self.n_nodes) in live),
            COORDINATOR,
        ) % self.n_nodes
        moved_slots = set()
        for slot in range(self.n_nodes):
            if self.actor[slot] == dead_node:
                self.actor[slot] = successor
                moved_slots.add(slot)
        if self.rank_table is not None and moved_slots:
            n_ranks = len(self.rank_table.items())
            ctx.stats.ranks_resharded += sum(
                1
                for rank in range(1, n_ranks + 1)
                if owner_of_rank(rank, self.n_nodes) in moved_slots
            )
        labels = self.rank_table.items() if self.rank_table is not None else None
        payload = _msg_reassign(self.actor, self.dead, labels)
        for node in live:
            if node != self.node_id:
                self._send(ctx, superstep, node, payload)
        self._reroute_bundles(ctx, superstep)

    # -- forward progress --------------------------------------------------
    def _progress(self, ctx, superstep: int) -> None:
        me = self.node_id
        if self.governor is not None:
            # one shared governor across the in-process cluster: any
            # node's step can observe the deadline/token trip
            self.governor.tick()
        # 1) ship item counts for every duty until the rank table is fixed
        if self.rank_table is None:
            for origin in self.duties():
                if origin in self.counts_sent:
                    continue
                self.counts_sent.add(origin)
                counts = item_supports(self._partition_of(origin))
                if self._is_coord():
                    self.counts_by_origin.setdefault(origin, counts)
                else:
                    self._send(ctx, superstep, COORDINATOR, _msg_counts(origin, counts))
        # 2) coordinator: reduce counts, fix and broadcast the rank table
        if (
            self._is_coord()
            and self.rank_table is None
            and len(self.counts_by_origin) == self.n_nodes
        ):
            totals: dict = {}
            for counts in self.counts_by_origin.values():
                for label, count in counts.items():
                    totals[label] = totals.get(label, 0) + count
            frequent = sorted(
                (l for l, c in totals.items() if c >= self.min_support), key=sort_key
            )
            self.rank_table = RankTable(frequent)
            payload = _msg_ranks(frequent)
            for node in range(self.n_nodes):
                if node != me and node not in self.dead:
                    self._send(ctx, superstep, node, payload)
        # 3) slice local conditional databases and ship bundles per slot
        if self.rank_table is not None:
            for origin in self.duties():
                if origin in self.slices_by_origin:
                    continue
                self._slices_of(ctx, origin)
                for slot in range(self.n_nodes):
                    dest = self.actor[slot]
                    self.bundle_sent[(origin, slot)] = dest
                    bundle = self._bundle(origin, slot)
                    if dest == me:
                        self._accept_bundle(origin, slot, bundle)
                    else:
                        self._send(ctx, superstep, dest, _msg_slices(origin, slot, bundle))
        # 4) mine every owned slot whose bundles are complete
        for slot in range(self.n_nodes):
            if self.actor[slot] != me or slot in self.results_sent:
                continue
            per_origin = self.bundles.get(slot, {})
            if len(per_origin) < self.n_nodes:
                continue
            blob = self.store.get(slot, "results")
            if blob is not None:
                ctx.stats.checkpoint_reads += 1
                pairs = _decode_results(blob)
            else:
                owned = _merge_bundles(per_origin)
                pairs = _mine_owned(
                    owned, self.min_support, self.max_len, governor=self.governor
                )
                self.store.save(slot, "results", _encode_results(pairs))
                ctx.stats.checkpoint_writes += 1
            self.results_sent.add(slot)
            if self._is_coord():
                self.results_by_slot.setdefault(slot, pairs)
            else:
                self._send(ctx, superstep, COORDINATOR, _msg_results(slot, pairs))
        # 5) coordinator: all slots mined -> tell everyone to wind down
        if self._is_coord() and not self.fin and len(self.results_by_slot) == self.n_nodes:
            self.fin = True
            for node in range(self.n_nodes):
                if node == me:
                    continue
                if node in self.dead:
                    self.channel.send_unreliable(ctx, node, bytes([_MSG_FIN]))
                else:
                    self._send(ctx, superstep, node, bytes([_MSG_FIN]))
        # 6) probe peers we are waiting on; unanswered pings expose crashes
        if not self.fin:
            self._probe(ctx, superstep)

    def _awaited_peers(self) -> set[int]:
        """Peers whose data this node still needs to make progress.

        Every node waits on the actors of origins whose slice bundles are
        missing for slots it owns (a crashed origin would otherwise hang
        its owners silently).  The coordinator additionally waits on
        counters during the counts phase and on owners for missing slot
        results.
        """
        awaited: set[int] = set()
        if self._is_coord() and self.rank_table is None:
            awaited |= {
                self.actor[o]
                for o in range(self.n_nodes)
                if o not in self.counts_by_origin
            }
        if self.rank_table is not None:
            for slot in range(self.n_nodes):
                if self.actor[slot] == self.node_id:
                    if slot not in self.results_sent:
                        per_origin = self.bundles.get(slot, {})
                        awaited |= {
                            self.actor[o]
                            for o in range(self.n_nodes)
                            if o not in per_origin
                        }
                elif self._is_coord() and slot not in self.results_by_slot:
                    awaited.add(self.actor[slot])
        awaited.discard(self.node_id)
        if not self._is_coord():
            # Never ping the coordinator: it retransmits its own frames, so
            # a bundle it owes us needs no probing, and a lost ping must not
            # escalate into a (fatal, unrecoverable) coordinator-death call.
            awaited.discard(COORDINATOR)
        return awaited - self.channel.dead_peers

    def _probe(self, ctx, superstep: int) -> None:
        awaited = self._awaited_peers()
        if not awaited:
            self.waiting = 0
            return
        self.waiting += 1
        if self.waiting < PROBE_INTERVAL:
            return
        self.waiting = 0
        for target in sorted(awaited):
            # an in-flight frame to the target already doubles as a probe
            if not self.channel.has_unacked(target):
                ctx.stats.heartbeats_sent += 1
                self._send(ctx, superstep, target, bytes([_MSG_PING]))

    # -- the BSP step ------------------------------------------------------
    def step(self, ctx, superstep: int):
        for src, payload in self.channel.poll(ctx, superstep):
            self._handle(ctx, superstep, src, payload)
        self._progress(ctx, superstep)
        self.channel.flush(ctx, superstep)
        for peer in self.channel.take_dead_peers():
            self._peer_dead(ctx, superstep, peer)
        if self.fin and self.channel.idle():
            return SimCluster.DONE
        return self


def _ft_program(ctx, superstep, state: _Node):
    return state.step(ctx, superstep)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def mine_distributed(
    transactions: Iterable[Iterable[Item]],
    min_support: int,
    *,
    n_nodes: int = 4,
    max_len: int | None = None,
    fault_plan: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    checkpoint_store: CheckpointStore | None = None,
    max_supersteps: int = 10_000,
    budget: MiningBudget | None = None,
    cancel: CancellationToken | None = None,
    backend: str = "sim",
    backend_options: Mapping | None = None,
) -> tuple[list[tuple], ClusterStats, RankTable]:
    """Mine on an ``n_nodes`` cluster backend, optionally under faults.

    Returns ``(itemset pairs as (sorted item tuple, support), cluster
    stats, the global rank table)``.  Results are exactly those of the
    serial conditional miner — including under any recoverable
    :class:`~repro.parallel.faults.FaultPlan` (message loss, corruption,
    duplication, delay, worker-node crashes); the chaos suite asserts
    this.  Unrecoverable faults (coordinator loss, every node dead,
    pathological total message loss) raise
    :class:`~repro.errors.CrashedNodeError` /
    :class:`~repro.errors.ParallelExecutionError` rather than returning
    wrong results.

    ``backend`` picks the cluster implementation
    (:data:`~repro.parallel.backend.BACKENDS`): ``"sim"`` (default) runs
    the protocol on the deterministic in-process simulator; ``"process"``
    runs the *same node program* on real worker processes over localhost
    TCP (:class:`~repro.parallel.processcluster.ProcessCluster`), where
    fault-plan crashes become real ``SIGKILL``\\ s and failover replays
    from a file-backed checkpoint store.  The process backend needs
    file-backed stable storage: pass ``CheckpointStore(path=...)`` or
    leave ``checkpoint_store=None`` to get a run-scoped temporary
    directory.  ``backend_options`` are forwarded to the backend
    constructor (e.g. ``heartbeat_interval``, ``detection``).

    ``retry`` tunes the ack/retransmit schedule (supersteps),
    ``checkpoint_store`` supplies the stable storage used for durable
    inputs and recovery state (a fresh in-memory store by default on the
    sim backend), and the stats carry communication volume, modelled
    parallel makespan, and full fault/recovery/liveness accounting.

    ``budget``/``cancel`` govern the run: the simulated cluster is
    in-process, so one shared :class:`ResourceGovernor` is observed by
    every node's step and mining loop.  A trip raises
    :class:`~repro.errors.BudgetExceeded` / :class:`~repro.errors.Cancelled`
    whose ``partial`` holds the decoded pairs of every ownership slot the
    coordinator had already collected — complete slots only, exact
    supports — and ``progress["slots_complete"]`` lists those slots.
    Governors are shared in-process objects, so they are only available
    on the sim backend; the process backend rejects them.
    """
    db = [frozenset(t) for t in transactions]
    if min_support < 1:
        raise ParallelExecutionError("min_support must be >= 1")
    from repro.baselines.partition import split_database

    partitions = split_database(db, n_nodes) if db else []
    while len(partitions) < n_nodes:
        partitions.append([])
    tmpdir = None
    store = checkpoint_store
    if backend == "process":
        if budget is not None or cancel is not None:
            raise InvalidParameterError(
                "budget/cancel are not supported on the process backend: a "
                "governor is a shared in-process object and cannot span "
                "worker processes; use backend='sim' for governed runs"
            )
        if store is None:
            import tempfile

            tmpdir = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
            store = CheckpointStore(tmpdir.name)
        elif store.path is None:
            raise InvalidParameterError(
                "the process backend needs a file-backed CheckpointStore "
                "(CheckpointStore(path=...)) so worker processes share "
                "stable storage across real crashes"
            )
    elif store is None:
        store = CheckpointStore()
    for node_id, part in enumerate(partitions):
        store.save(node_id, "partition", _encode_partition(part))
    governor = None
    if budget is not None or cancel is not None:
        governor = ResourceGovernor(budget, cancel).start()
    cluster = create_backend(
        backend,
        n_nodes,
        fault_plan=fault_plan,
        max_supersteps=max_supersteps,
        **dict(backend_options or {}),
    )
    states = [
        _Node(i, n_nodes, part, min_support, max_len, store, retry, governor)
        for i, part in enumerate(partitions)
    ]
    coordinator_node: _Node = states[COORDINATOR]

    def _decode_slots(node: _Node) -> tuple[list[tuple], RankTable]:
        tbl = node.rank_table if node.rank_table is not None else RankTable([])
        raw: list[tuple[tuple[int, ...], int]] = []
        for slot in sorted(node.results_by_slot):
            raw.extend(node.results_by_slot[slot])
        return canonical_itemsets(raw, tbl), tbl

    try:
        final = cluster.run(_ft_program, states)
    except MiningInterrupted as exc:
        # the coordinator's results_by_slot holds only fully mined slots,
        # so every salvaged pair carries its exact global support
        decoded, _ = _decode_slots(coordinator_node)
        exc.partial = decoded
        exc.progress["slots_complete"] = sorted(coordinator_node.results_by_slot)
        raise
    finally:
        if tmpdir is not None:
            tmpdir.cleanup()
    root: _Node | None = final[COORDINATOR]
    if root is None:
        # only a real backend can lose a final state: the coordinator
        # process died after voting DONE but before shipping its state
        raise CrashedNodeError(
            f"coordinator node {COORDINATOR} was lost before reporting "
            "results; distributed mining cannot recover from coordinator "
            "loss",
            node_id=COORDINATOR,
        )
    decoded, table = _decode_slots(root)
    return decoded, cluster.stats, table
