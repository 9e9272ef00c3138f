"""The paper's ``Rank`` function (Definition 4.1.1) as a bidirectional table.

``Rank`` maps each frequent item to a unique integer ``1..n`` so that a
chosen total order over items is preserved.  The paper mandates the
lexicographic order; correctness of every PLT operation only requires *some*
total order, so this module also offers support-based orders (ascending /
descending frequency) which are the standard FP-growth-era ablations — see
experiment B3/B4 in ``DESIGN.md``.

The table is the single authority for converting between user-facing item
labels and the contiguous internal ranks that position vectors are built
from.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from operator import itemgetter
from typing import Any, Hashable

from repro.errors import RankTableError, UnknownItemError

__all__ = [
    "RankTable",
    "ORDER_POLICIES",
    "sort_key",
    "CanonicalDecoder",
    "canonical_itemsets",
]

Item = Hashable

#: Recognised ordering policies for :meth:`RankTable.from_supports`.
ORDER_POLICIES = ("lexicographic", "support_asc", "support_desc")


def sort_key(item: Any) -> tuple:
    """Total-order key for possibly mixed-type item labels.

    Items within one database usually share a type; when they do not
    (e.g. ints mixed with strings in a quick experiment), Python's ``<``
    raises ``TypeError``.  We therefore order first by type name and then by
    the value itself, falling back to ``repr`` for values of the same type
    that are still not comparable.
    """
    try:
        hash(item)
    except TypeError:  # pragma: no cover - items are declared Hashable
        raise
    return (type(item).__name__, _comparable(item))


class _ReprOrdered:
    """Wrapper giving any object a deterministic order via its repr."""

    __slots__ = ("value", "_repr")

    def __init__(self, value: Any) -> None:
        self.value = value
        self._repr = repr(value)

    def __lt__(self, other: "_ReprOrdered") -> bool:
        return self._repr < other._repr

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ReprOrdered) and self._repr == other._repr

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(self._repr)


def _comparable(item: Any) -> Any:
    if isinstance(item, (int, float, str, bytes)):
        return item
    if isinstance(item, tuple):
        return tuple(map(_element_key, item))
    return _ReprOrdered(item)


def _element_key(item: Any) -> tuple:
    """Key of one tuple element: a kind tag, then the comparable value.

    The tag orders elements of different kinds (``(1, "a")`` vs
    ``(1, 2)``) instead of letting ``<`` raise.  Kinds are the groups that
    already compared with each other untagged — ints and floats together,
    then strs, bytes, tuples and repr-ordered values — so any two tuples
    that compared before keep their order.
    """
    if isinstance(item, (int, float)):
        return (0, item)
    if isinstance(item, str):
        return (1, item)
    if isinstance(item, bytes):
        return (2, item)
    if isinstance(item, tuple):
        return (3, tuple(map(_element_key, item)))
    return (4, _ReprOrdered(item))


class RankTable:
    """Bidirectional map between item labels and ranks ``1..n``.

    Parameters
    ----------
    items_in_order:
        Item labels listed in the order that defines their ranks: the first
        item receives rank ``1``, the second rank ``2`` and so on.
    order:
        The name of the policy that produced the ordering (informational).

    The table is immutable after construction.
    """

    __slots__ = ("_item_to_rank", "_rank_to_item", "order")

    def __init__(self, items_in_order: Sequence[Item], order: str = "lexicographic"):
        rank_to_item = tuple(items_in_order)
        item_to_rank = {item: i + 1 for i, item in enumerate(rank_to_item)}
        if len(item_to_rank) != len(rank_to_item):
            raise RankTableError("duplicate items in rank order")
        self._rank_to_item = rank_to_item
        self._item_to_rank = item_to_rank
        self.order = order

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_supports(
        cls,
        supports: Mapping[Item, int],
        *,
        min_support: int = 1,
        order: str = "lexicographic",
    ) -> "RankTable":
        """Build a table over the items whose support meets ``min_support``.

        This is the first scan of Algorithm 1: infrequent items never enter
        the rank table and are therefore invisible to every later stage.
        """
        if order not in ORDER_POLICIES:
            raise RankTableError(
                f"unknown order policy {order!r}; expected one of {ORDER_POLICIES}"
            )
        frequent = [(item, sup) for item, sup in supports.items() if sup >= min_support]
        if order == "lexicographic":
            frequent.sort(key=lambda pair: sort_key(pair[0]))
        elif order == "support_asc":
            frequent.sort(key=lambda pair: (pair[1], sort_key(pair[0])))
        else:  # support_desc
            frequent.sort(key=lambda pair: (-pair[1], sort_key(pair[0])))
        return cls([item for item, _ in frequent], order=order)

    @classmethod
    def from_items(cls, items: Iterable[Item], *, order: str = "lexicographic") -> "RankTable":
        """Build a table over distinct ``items`` using the given policy.

        Only ``lexicographic`` makes sense without support information.
        """
        if order != "lexicographic":
            raise RankTableError("from_items only supports the lexicographic policy")
        distinct = sorted(set(items), key=sort_key)
        return cls(distinct, order=order)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def rank(self, item: Item) -> int:
        """Return ``Rank(item)`` (``1``-based)."""
        try:
            return self._item_to_rank[item]
        except KeyError:
            raise UnknownItemError(item) from None

    def item(self, rank: int) -> Item:
        """Inverse of :meth:`rank`."""
        if not 1 <= rank <= len(self._rank_to_item):
            raise UnknownItemError(rank)
        return self._rank_to_item[rank - 1]

    def __contains__(self, item: Item) -> bool:
        return item in self._item_to_rank

    def __len__(self) -> int:
        return len(self._rank_to_item)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RankTable) and self._rank_to_item == other._rank_to_item
        )

    def __hash__(self) -> int:
        return hash(self._rank_to_item)

    def __repr__(self) -> str:
        preview = ", ".join(
            f"{item!r}:{i + 1}" for i, item in enumerate(self._rank_to_item[:6])
        )
        suffix = ", ..." if len(self) > 6 else ""
        return f"RankTable({preview}{suffix}; order={self.order!r})"

    # ------------------------------------------------------------------
    # bulk conversions
    # ------------------------------------------------------------------
    def items(self) -> tuple[Item, ...]:
        """All items in rank order (rank ``i`` item at index ``i - 1``)."""
        return self._rank_to_item

    def ranks(self) -> range:
        """The valid rank values ``1..n``."""
        return range(1, len(self._rank_to_item) + 1)

    def encode_itemset(self, itemset: Iterable[Item], *, skip_unknown: bool = False) -> tuple[int, ...]:
        """Map an itemset to its sorted tuple of ranks.

        Duplicate items collapse (itemsets are sets).  With
        ``skip_unknown=True`` items absent from the table — i.e. infrequent
        items, exactly what scan 2 of Algorithm 1 filters — are dropped
        silently; otherwise they raise :class:`UnknownItemError`.
        """
        table = self._item_to_rank
        if skip_unknown:
            ranks = {table[i] for i in itemset if i in table}
        else:
            try:
                ranks = {table[i] for i in itemset}
            except KeyError as exc:
                raise UnknownItemError(exc.args[0]) from None
        return tuple(sorted(ranks))

    def decode_ranks(self, ranks: Iterable[int]) -> tuple[Item, ...]:
        """Map a rank tuple back to item labels (in the same order)."""
        return tuple(self.item(r) for r in ranks)


class CanonicalDecoder:
    """Rank tuples -> label tuples in canonical (:func:`sort_key`) order.

    Built once per :class:`RankTable`: it sorts the table's ``n`` labels by
    :func:`sort_key` into a rank -> sort-position map, and those ``n``
    calls are the only ``sort_key`` calls it makes.  The map is the
    identity whenever the ranks already follow ``sort_key`` — every
    lexicographic table built by :meth:`RankTable.from_supports` or
    :meth:`RankTable.from_items` — and is then skipped; the support
    orders pay one extra integer map per itemset.  After that an itemset
    costs an integer sort and tuple indexing.

    Out-of-range ranks raise :class:`~repro.errors.UnknownItemError`, as
    :meth:`RankTable.decode_ranks` does.
    """

    __slots__ = ("_labels", "_position", "_n")

    def __init__(self, table: RankTable) -> None:
        items = table.items()
        n = len(items)
        order = sorted(range(1, n + 1), key=lambda r: sort_key(items[r - 1]))
        # index 0 is never read: ranks and positions are 1-based
        self._labels = (None,) + tuple(items[r - 1] for r in order)
        self._n = n
        if order == list(range(1, n + 1)):
            self._position = None
        else:
            position = [0] * (n + 1)
            for pos, r in enumerate(order, 1):
                position[r] = pos
            self._position = position

    def _check(self, lo: int, hi: int) -> None:
        if lo < 1:
            raise UnknownItemError(lo)
        if hi > self._n:
            raise UnknownItemError(hi)

    def decode(self, ranks: Iterable[int]) -> tuple:
        """One itemset's labels, in canonical order."""
        key = sorted(ranks)
        if not key:
            return ()
        self._check(key[0], key[-1])
        if self._position is not None:
            key = sorted([self._position[r] for r in key])
        labels = self._labels
        return tuple([labels[p] for p in key])

    def itemsets(
        self, pairs: Iterable[tuple[Iterable[int], int]]
    ) -> list[tuple[tuple, int]]:
        """``(rank tuple, support)`` pairs -> canonical ``(items, support)``.

        The result is ordered by length, then by the items' ``sort_key``s —
        the order :class:`~repro.core.mining.MiningResult` sorts into — and
        itemsets repeated in ``pairs`` collapse to one entry (the last
        support wins, as in a dict).  Rank tuples need not be sorted.
        """
        rows = {tuple(sorted(ranks)): support for ranks, support in pairs}
        self._check(
            min(map(itemgetter(0), filter(None, rows)), default=1),
            max(map(itemgetter(-1), filter(None, rows)), default=0),
        )
        if self._position is not None:
            position = self._position
            rows = {
                tuple(sorted([position[r] for r in ranks])): support
                for ranks, support in rows.items()
            }
        keys = sorted(rows)
        keys.sort(key=len)  # stable: (length, positions)
        labels = self._labels
        return [(tuple([labels[p] for p in key]), rows[key]) for key in keys]


def canonical_itemsets(
    pairs: Iterable[tuple[Iterable[int], int]], table: RankTable
) -> list[tuple[tuple, int]]:
    """Decode a miner's ``(rank tuple, support)`` pairs in canonical order.

    Shorthand for ``CanonicalDecoder(table).itemsets(pairs)``.
    """
    return CanonicalDecoder(table).itemsets(pairs)
