"""The Positional Lexicographic Tree structure and its construction.

Algorithm 1 of the paper, plus the structure's query surface.  The PLT's
"matrix" representation (Figure 3a) is a partitioned, aggregated vector
table::

    partitions: {length k -> {position vector -> frequency}}

and the mining-side index (the ``V.sum`` the paper stores with every
vector) is::

    sum_index: {sum s -> {position vector -> frequency}}

where ``s`` is the rank of the vector's maximal item — exactly the key
Algorithm 3 uses to find an item's conditional database.

Construction is the paper's two scans: scan 1 counts item supports and
builds the :class:`~repro.core.rank.RankTable` over frequent items; scan 2
filters each transaction to its frequent items, encodes the position
vector, and increments its aggregated frequency.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import accumulate
from typing import Hashable

from repro.core import position
from repro.core.position import PositionVector, RankPath
from repro.core.rank import RankTable
from repro.data.transaction_db import item_supports, resolve_min_support
from repro.errors import InvalidSupportError, InvalidVectorError, UnknownItemError

__all__ = ["PLT", "PLTStats", "build_plt"]

Item = Hashable


@dataclass(frozen=True)
class PLTStats:
    """Size statistics reported by benchmarks B4/B9."""

    n_transactions: int
    n_encoded_transactions: int
    n_frequent_items: int
    n_vectors: int
    n_positions: int
    max_vector_len: int

    @property
    def compression_ratio(self) -> float:
        """Encoded transactions per distinct stored vector (>= 1)."""
        if self.n_vectors == 0:
            return 1.0
        return self.n_encoded_transactions / self.n_vectors


class PLT:
    """The positional lexicographic tree (aggregated vector form).

    Instances are built with :meth:`from_transactions` (Algorithm 1) or, for
    internal/conditional use, from pre-encoded vectors with
    :meth:`from_vectors`.  The structure is conceptually immutable after
    construction; the conditional miner works on copies of the sum index.

    Attributes
    ----------
    rank_table:
        The ``Rank`` function over the frequent items.
    min_support:
        The absolute support threshold the structure was built with.
    n_transactions:
        Total number of input transactions (including those that encoded
        to nothing because all their items were infrequent).
    """

    __slots__ = (
        "rank_table",
        "min_support",
        "n_transactions",
        "_partitions",
        "_sum_index",
        "_rank_paths",
    )

    def __init__(
        self,
        rank_table: RankTable,
        vectors: Mapping[PositionVector, int],
        *,
        min_support: int,
        n_transactions: int,
    ) -> None:
        self.rank_table = rank_table
        self.min_support = min_support
        self.n_transactions = n_transactions
        partitions: dict[int, dict[PositionVector, int]] = defaultdict(dict)
        sum_index: dict[int, dict[PositionVector, int]] = defaultdict(dict)
        rank_paths: dict[int, dict[RankPath, int]] = defaultdict(dict)
        for vec, freq in vectors.items():
            position.validate(vec)
            if freq <= 0:
                raise InvalidVectorError(f"vector frequency must be positive: {vec!r} -> {freq}")
            # One accumulate pass yields everything the indexes need: the
            # rank path itself, its last element (= the vector's sum, the
            # Algorithm 3 bucket key) and the length partition key.
            path = tuple(accumulate(vec))
            total = path[-1]
            partitions[len(vec)][vec] = freq
            sum_index[total][vec] = freq
            rank_paths[total][path] = freq
        # Freeze back to plain dicts: lookups of absent keys must miss, not
        # materialise empty buckets.
        self._partitions = dict(partitions)
        self._sum_index = dict(sum_index)
        self._rank_paths = dict(rank_paths)

    # ------------------------------------------------------------------
    # construction (Algorithm 1)
    # ------------------------------------------------------------------
    @classmethod
    def from_transactions(
        cls,
        transactions: Iterable[Iterable[Item]],
        min_support: float | int,
        *,
        order: str = "lexicographic",
    ) -> "PLT":
        """Algorithm 1: two scans over the database.

        ``transactions`` may be any re-iterable collection (a list, a
        :class:`~repro.data.transaction_db.TransactionDatabase`, ...).  A
        one-shot iterator is materialised first, since the algorithm
        fundamentally needs two passes.
        """
        if isinstance(transactions, Iterator):
            transactions = [frozenset(t) for t in transactions]
        # Scan 1: item supports -> Rank over frequent items.
        supports = item_supports(transactions)
        n_transactions = sum(1 for _ in iter(transactions))
        abs_support = resolve_min_support(min_support, n_transactions)
        rank_table = RankTable.from_supports(supports, min_support=abs_support, order=order)
        # Scan 2: encode, aggregate.
        vectors: Counter = Counter()
        for t in transactions:
            ranks = rank_table.encode_itemset(t, skip_unknown=True)
            if ranks:
                vectors[position.encode(ranks)] += 1
        return cls(
            rank_table,
            vectors,
            min_support=abs_support,
            n_transactions=n_transactions,
        )

    @classmethod
    def from_weighted_transactions(
        cls,
        weighted: Iterable[tuple[Iterable[Item], int]],
        min_support: float | int,
        *,
        order: str = "lexicographic",
    ) -> "PLT":
        """Algorithm 1 over ``(transaction, weight)`` pairs.

        Aggregated inputs (e.g. a sales table listing each basket with a
        count) build directly — the vector table's frequencies *are* the
        weights, so a weight of a million costs the same as a weight of
        one.  Supports, ``n_transactions`` and relative thresholds are
        all in weight units.  Mining the result with any PLT algorithm
        gives exactly the result of mining the expanded multiset.
        """
        pairs = [(frozenset(t), int(w)) for t, w in weighted]
        for _, w in pairs:
            if w < 1:
                raise InvalidSupportError(f"transaction weights must be >= 1, got {w}")
        supports: Counter = Counter()
        for t, w in pairs:
            for item in t:
                supports[item] += w
        n_transactions = sum(w for _, w in pairs)
        abs_support = resolve_min_support(min_support, max(n_transactions, 1))
        rank_table = RankTable.from_supports(supports, min_support=abs_support, order=order)
        vectors: Counter = Counter()
        for t, w in pairs:
            ranks = rank_table.encode_itemset(t, skip_unknown=True)
            if ranks:
                vectors[position.encode(ranks)] += w
        return cls(
            rank_table,
            vectors,
            min_support=abs_support,
            n_transactions=n_transactions,
        )

    @classmethod
    def from_vectors(
        cls,
        rank_table: RankTable,
        vectors: Mapping[PositionVector, int],
        *,
        min_support: int,
        n_transactions: int | None = None,
    ) -> "PLT":
        """Wrap pre-encoded vectors (conditional PLTs, codecs, tests)."""
        if n_transactions is None:
            n_transactions = sum(vectors.values())
        return cls(
            rank_table, vectors, min_support=min_support, n_transactions=n_transactions
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def partitions(self) -> dict[int, dict[PositionVector, int]]:
        """Length-partitioned vector table (Figure 3a). Do not mutate."""
        return self._partitions

    def partition(self, length: int) -> dict[PositionVector, int]:
        """The ``D_length`` partition (empty dict if absent)."""
        return self._partitions.get(length, {})

    def sum_index(self) -> dict[int, dict[PositionVector, int]]:
        """Vectors bucketed by their sum (= rank of their maximal item).

        Returns a *fresh, deep-copied* mapping because Algorithm 3 consumes
        and mutates it (buckets are popped and prefixes migrated).
        """
        return {s: dict(bucket) for s, bucket in self._sum_index.items()}

    def iter_vectors(self) -> Iterator[tuple[PositionVector, int]]:
        """All (vector, frequency) pairs, longest partitions first."""
        for length in sorted(self._partitions, reverse=True):
            yield from self._partitions[length].items()

    def iter_rank_paths(self) -> Iterator[tuple[RankPath, int]]:
        """All (rank path, frequency) pairs, in sum-index bucket order.

        The paths are the precomputed cumulative-sum views of the stored
        vectors (same aggregation, so frequencies match
        :meth:`iter_vectors` pair-for-pair up to ordering).
        """
        for bucket in self._rank_paths.values():
            yield from bucket.items()

    def iter_rank_path_buckets(self) -> Iterator[tuple[int, dict[RankPath, int]]]:
        """``(max rank, bucket)`` pairs in *descending* key order.

        Zero-copy view over the interned rank-path index: each rank path
        is the cumulative-sum tuple of a stored vector (Lemma 4.1.1),
        computed once at construction.  The columnar lowering
        (:class:`repro.core.flat.FlatPLT`) walks it to build the conditional
        miner's input.  Callers must not mutate the yielded buckets.
        """
        for key in sorted(self._rank_paths, reverse=True):
            yield key, self._rank_paths[key]

    def vectors(self) -> dict[PositionVector, int]:
        """Flat copy of the aggregated vector table."""
        return {vec: f for bucket in self._partitions.values() for vec, f in bucket.items()}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def n_vectors(self) -> int:
        return sum(len(b) for b in self._partitions.values())

    def max_length(self) -> int:
        return max(self._partitions, default=0)

    def max_rank(self) -> int:
        """Highest rank present in any stored vector."""
        return max(self._sum_index, default=0)

    def item_support(self, item: Item) -> int:
        """Support of a single frequent item, computed from the vectors."""
        rank = self.rank_table.rank(item)
        return self.rank_support(rank)

    def rank_support(self, rank: int) -> int:
        """Support of the item with the given rank.

        Scans the precomputed rank paths: membership of ``rank`` on a path
        is a C-speed tuple containment test instead of a per-vector prefix
        sum; buckets whose maximal rank is below ``rank`` are skipped
        entirely.
        """
        total = 0
        for max_rank, bucket in self._rank_paths.items():
            if max_rank < rank:
                continue
            for path, freq in bucket.items():
                if rank in path:
                    total += freq
        return total

    def support_of(self, itemset: Iterable[Item]) -> int:
        """Support of an arbitrary itemset via position-vector subset checks.

        This is the paper's "light subset checking" service: the query
        itemset is encoded once and tested against each stored vector with
        the O(k) two-pointer check — no per-transaction set construction.
        Items missing from the rank table are infrequent, hence the itemset
        support is below ``min_support``; we return its exact value anyway
        by reporting 0 only when the itemset cannot be encoded.
        """
        items = list(itemset)
        if not items:
            return self.n_transactions
        try:
            ranks = self.rank_table.encode_itemset(items)
        except UnknownItemError:
            return 0  # contains an infrequent (unranked) item
        query = position.encode(ranks)
        total = 0
        for length, bucket in self._partitions.items():
            if length < len(query):
                continue
            for vec, freq in bucket.items():
                if position.is_subvector(query, vec):
                    total += freq
        return total

    def stats(self) -> PLTStats:
        n_vec = self.n_vectors()
        n_enc = sum(f for b in self._partitions.values() for f in b.values())
        return PLTStats(
            n_transactions=self.n_transactions,
            n_encoded_transactions=n_enc,
            n_frequent_items=len(self.rank_table),
            n_vectors=n_vec,
            n_positions=sum(
                len(vec) for b in self._partitions.values() for vec in b
            ),
            max_vector_len=self.max_length(),
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"PLT(items={len(self.rank_table)}, vectors={self.n_vectors()}, "
            f"min_support={self.min_support}, transactions={self.n_transactions})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PLT):
            return NotImplemented
        return (
            self.rank_table == other.rank_table
            and self._partitions == other._partitions
            and self.min_support == other.min_support
            and self.n_transactions == other.n_transactions
        )


def build_plt(
    transactions: Iterable[Iterable[Item]],
    min_support: float | int,
    *,
    order: str = "lexicographic",
) -> PLT:
    """Functional alias for :meth:`PLT.from_transactions`."""
    return PLT.from_transactions(transactions, min_support, order=order)
