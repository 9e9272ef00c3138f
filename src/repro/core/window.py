"""Sliding-window frequent-itemset mining over a transaction stream.

Built on :class:`~repro.core.incremental.IncrementalPLT`: the window
holds the most recent ``capacity`` transactions; pushing a transaction
past capacity evicts (and un-counts) the oldest.  Mining always reflects
exactly the current window — the semantics monitoring applications
(fraud patterns over the last N events, trending page sets over the last
N sessions) need.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable

from repro.core.conditional import mine_conditional
from repro.core.incremental import IncrementalPLT
from repro.core.plt import PLT
from repro.core.rank import canonical_itemsets
from repro.errors import InvalidSupportError

__all__ = ["SlidingWindowPLT"]

Item = Hashable


class SlidingWindowPLT:
    """A fixed-capacity transaction window with exact mining.

    >>> window = SlidingWindowPLT(capacity=2)
    >>> window.push({"a", "b"})
    >>> window.push({"a"})
    >>> evicted = window.push({"b"})
    >>> sorted(evicted)
    ['a', 'b']
    >>> [fi for fi in window.mine(1)]
    [(('a',), 1), (('b',), 1)]
    """

    __slots__ = ("capacity", "_window", "_structure")

    def __init__(self, capacity: int, transactions: Iterable[Iterable[Item]] = ()):
        if capacity < 1:
            raise InvalidSupportError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._window: deque[frozenset] = deque()
        self._structure = IncrementalPLT()
        for t in transactions:
            self.push(t)

    # ------------------------------------------------------------------
    def push(self, transaction: Iterable[Item]) -> frozenset | None:
        """Insert a transaction; returns the evicted one (or None)."""
        t = frozenset(transaction)
        evicted = None
        if len(self._window) == self.capacity:
            evicted = self._window.popleft()
            self._structure.remove_transaction(evicted)
        self._window.append(t)
        self._structure.add_transaction(t)
        return evicted

    def extend(self, transactions: Iterable[Iterable[Item]]) -> None:
        for t in transactions:
            self.push(t)

    def __len__(self) -> int:
        return len(self._window)

    def contents(self) -> tuple[frozenset, ...]:
        """The window's transactions, oldest first."""
        return tuple(self._window)

    def is_full(self) -> bool:
        return len(self._window) == self.capacity

    # ------------------------------------------------------------------
    def snapshot(self, min_support: float | int) -> PLT:
        """A mining-ready PLT of exactly the current window."""
        return self._structure.snapshot(min_support)

    def mine(
        self, min_support: float | int, *, max_len: int | None = None
    ) -> list[tuple[tuple[Item, ...], int]]:
        """Frequent itemsets of the current window, decoded to items.

        Returns ``(sorted item tuple, support)`` pairs in canonical order.
        """
        if not self._window:
            return []
        plt = self.snapshot(min_support)
        return canonical_itemsets(
            mine_conditional(plt, plt.min_support, max_len=max_len), plt.rank_table
        )

    def __repr__(self) -> str:
        return (
            f"SlidingWindowPLT(capacity={self.capacity}, filled={len(self._window)})"
        )
