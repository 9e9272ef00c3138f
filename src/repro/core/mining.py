"""High-level mining facade: one entry point over every miner in the repo.

:func:`mine_frequent_itemsets` accepts raw transactions (any iterable of
item collections, or a :class:`~repro.data.transaction_db.TransactionDatabase`),
a support threshold (absolute count or relative fraction), and a method
name; it returns a :class:`MiningResult`, a thin ordered container with the
standard post-processing operations (closed/maximal filtering, lookups,
dict conversion).

The two PLT miners are the paper's contribution; the rest are the
literature baselines implemented in :mod:`repro.baselines`.  All methods
produce *identical* itemset/support sets on the same input — the test
suite enforces this property.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.core.conditional import mine_conditional
from repro.core.plt import PLT
from repro.core.rank import canonical_itemsets, sort_key
from repro.core.topdown import mine_topdown
from repro.data.transaction_db import TransactionDatabase, resolve_min_support
from repro.errors import (
    AdmissionRejected,
    InvalidParameterError,
    MiningInterrupted,
    ReproError,
)
from repro.robustness.governor import (
    CancellationToken,
    DegradationPolicy,
    MiningBudget,
    ResourceGovernor,
)

__all__ = [
    "FrequentItemset",
    "MiningResult",
    "PartialResult",
    "ApproximateResult",
    "mine_frequent_itemsets",
    "mine_closed_itemsets",
    "mine_maximal_itemsets",
    "METHODS",
    "GOVERNED_METHODS",
]

Item = Hashable


@dataclass(frozen=True, slots=True)
class FrequentItemset:
    """An itemset together with its absolute support count."""

    items: tuple
    support: int

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item: Item) -> bool:
        return item in self.items

    def as_frozenset(self) -> frozenset:
        return frozenset(self.items)

    def relative_support(self, n_transactions: int) -> float:
        if n_transactions <= 0:
            raise InvalidParameterError("n_transactions must be positive")
        return self.support / n_transactions


class MiningResult(Sequence):
    """Ordered collection of frequent itemsets plus run metadata.

    Itemsets are sorted canonically (by length, then lexicographically) so
    results from different miners compare equal.  The constructor sorts
    whatever it is given; :meth:`from_ranks` builds the same order
    straight from a PLT miner's rank tuples without a second sort.

    ``complete``/``approximate`` distinguish the governed-result variants:
    a plain :class:`MiningResult` is the full exact answer
    (``complete=True, approximate=False``); see :class:`PartialResult` and
    :class:`ApproximateResult`.
    """

    #: True when every frequent itemset at the threshold is present.
    complete = True
    #: True when supports (or coverage) are estimates, not exact counts.
    approximate = False

    def __init__(
        self,
        itemsets: Iterable[FrequentItemset],
        *,
        n_transactions: int,
        min_support: int,
        method: str,
    ) -> None:
        # items repeat across many itemsets — memoize their sort keys so
        # canonical ordering stays cheap even for six-figure result sets
        cache: dict = {}

        def canonical(fi: FrequentItemset):
            keys = []
            for item in fi.items:
                key = cache.get(item)
                if key is None:
                    key = cache[item] = sort_key(item)
                keys.append(key)
            return (len(keys), keys)

        self._itemsets = sorted(itemsets, key=canonical)
        self.n_transactions = n_transactions
        self.min_support = min_support
        self.method = method
        self._supports: dict[frozenset, int] | None = None

    @classmethod
    def from_ranks(cls, pairs, table, **meta) -> "MiningResult":
        """Build a result from ``(rank tuple, support)`` pairs and their table.

        The pairs are decoded by :func:`~repro.core.rank.canonical_itemsets`
        straight into canonical order (repeated itemsets collapse), so the
        result is the one the constructor would build from the decoded
        itemsets, without calling ``sort_key`` per itemset or sorting twice.
        ``meta`` holds the keyword arguments of ``cls``'s constructor
        (``n_transactions``, ``min_support``, ``method``, ...).
        """
        return cls._presorted(canonical_itemsets(pairs, table), **meta)

    @classmethod
    def _presorted(cls, pairs, **meta) -> "MiningResult":
        """A result over ``(items, support)`` pairs already in canonical order."""
        result = cls((), **meta)
        result._itemsets = [FrequentItemset(items, sup) for items, sup in pairs]
        return result

    # -- Sequence protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self._itemsets)

    def __getitem__(self, idx):
        return self._itemsets[idx]

    def __iter__(self) -> Iterator[FrequentItemset]:
        return iter(self._itemsets)

    def __eq__(self, other: object) -> bool:
        """Equality is *semantic*: same itemsets with same supports."""
        if not isinstance(other, MiningResult):
            return NotImplemented
        return self._support_table() == other._support_table()

    def __repr__(self) -> str:
        return (
            f"MiningResult({len(self)} itemsets, method={self.method!r}, "
            f"min_support={self.min_support}, n_transactions={self.n_transactions})"
        )

    # -- views ------------------------------------------------------------
    def as_dict(self) -> dict[frozenset, int]:
        return dict(self._support_table())

    def _support_table(self) -> dict[frozenset, int]:
        # built on first use and kept: a result never changes after
        # construction, so lookups need not rebuild it
        if self._supports is None:
            self._supports = {fi.as_frozenset(): fi.support for fi in self._itemsets}
        return self._supports

    def itemsets_of_size(self, k: int) -> list[FrequentItemset]:
        return [fi for fi in self._itemsets if len(fi) == k]

    def sizes(self) -> dict[int, int]:
        """Histogram: itemset length -> how many frequent itemsets."""
        hist: dict[int, int] = {}
        for fi in self._itemsets:
            hist[len(fi)] = hist.get(len(fi), 0) + 1
        return hist

    def support_of(self, itemset: Iterable[Item]) -> int | None:
        """Support of the given itemset, or None if it is not frequent."""
        return self._support_table().get(frozenset(itemset))

    def maximal(self) -> "MiningResult":
        """Itemsets with no frequent proper superset."""
        all_sets = [fi.as_frozenset() for fi in self._itemsets]
        keep = []
        for fi in self._itemsets:
            s = fi.as_frozenset()
            if not any(s < other for other in all_sets):
                keep.append(fi)
        return MiningResult(
            keep,
            n_transactions=self.n_transactions,
            min_support=self.min_support,
            method=self.method + "+maximal",
        )

    def closed(self) -> "MiningResult":
        """Itemsets with no proper superset of the *same* support."""
        table = self._support_table()
        keep = []
        for fi in self._itemsets:
            s = fi.as_frozenset()
            if not any(
                s < other and sup == fi.support for other, sup in table.items()
            ):
                keep.append(fi)
        return MiningResult(
            keep,
            n_transactions=self.n_transactions,
            min_support=self.min_support,
            method=self.method + "+closed",
        )


class PartialResult(MiningResult):
    """The itemsets mined before a budget trip or cancellation.

    Every itemset present carries its **exact** support — governed miners
    never report estimated counts — but the collection is not the full
    frequent set.  ``stop_reason`` says why mining stopped
    (``"deadline"``, ``"max_itemsets"``, ``"memory"``, ``"cancelled"``);
    ``progress`` holds the miner's completion markers, e.g.
    ``complete_from_rank`` (conditional/out-of-core: every itemset whose
    maximal rank is >= the marker was fully enumerated) or
    ``complete_min_len`` (top-down: counts for subset lengths >= the
    marker are final).
    """

    complete = False

    def __init__(
        self,
        itemsets: Iterable[FrequentItemset],
        *,
        n_transactions: int,
        min_support: int,
        method: str,
        stop_reason: str | None,
        elapsed: float = 0.0,
        progress: dict | None = None,
    ) -> None:
        super().__init__(
            itemsets,
            n_transactions=n_transactions,
            min_support=min_support,
            method=method + "+partial",
        )
        self.stop_reason = stop_reason
        self.elapsed = elapsed
        self.progress = dict(progress or {})

    @property
    def complete_from_rank(self) -> int | None:
        return self.progress.get("complete_from_rank")

    def __repr__(self) -> str:
        return (
            f"PartialResult({len(self)} itemsets, stop_reason={self.stop_reason!r}, "
            f"method={self.method!r}, elapsed={self.elapsed:.3f}s)"
        )


class ApproximateResult(MiningResult):
    """A degraded-mode answer: bounded, flagged, never mistaken for exact.

    Produced when a :class:`~repro.robustness.governor.DegradationPolicy`
    converts a budget trip into an approximate answer.  ``disclaimer`` is
    a human-readable accuracy statement (also printed by the CLI);
    ``info`` records the fallback used and its parameters.
    """

    approximate = True
    complete = False

    def __init__(
        self,
        itemsets: Iterable[FrequentItemset],
        *,
        n_transactions: int,
        min_support: int,
        method: str,
        disclaimer: str,
        info: dict | None = None,
    ) -> None:
        super().__init__(
            itemsets,
            n_transactions=n_transactions,
            min_support=min_support,
            method=method,
        )
        self.disclaimer = disclaimer
        self.info = dict(info or {})

    def __repr__(self) -> str:
        return (
            f"ApproximateResult({len(self)} itemsets, method={self.method!r}, "
            f"disclaimer={self.disclaimer!r})"
        )


# ---------------------------------------------------------------------------
# method registry
# ---------------------------------------------------------------------------
def _decode_partial(exc: MiningInterrupted, table) -> None:
    """Decode a miner's rank-pair ``partial`` into item space, in place.

    ``exc.partial_items`` comes out in canonical order, ready for
    :meth:`MiningResult._presorted` — partials can hold tens of thousands
    of pairs and this runs *after* the deadline already expired, so it is
    pure latency on top of the budget.
    """
    exc.partial_items = canonical_itemsets(exc.partial, table)


def _mine_plt(transactions, abs_support, order, max_len, **kwargs):
    governor = kwargs.get("governor")
    plt = PLT.from_transactions(transactions, abs_support, order=order)
    if governor is not None:
        governor.admit(plt, method="conditional")
    table = plt.rank_table
    try:
        pairs = mine_conditional(
            plt, abs_support, max_len=max_len, governor=governor
        )
    except MiningInterrupted as exc:
        _decode_partial(exc, table)
        raise
    return pairs, table


def _mine_plt_topdown(transactions, abs_support, order, max_len, **kwargs):
    from repro.core.topdown import DEFAULT_WORK_LIMIT

    governor = kwargs.get("governor")
    plt = PLT.from_transactions(transactions, abs_support, order=order)
    if governor is not None:
        governor.admit(plt, method="topdown")
    table = plt.rank_table
    try:
        pairs = mine_topdown(
            plt,
            abs_support,
            max_len=max_len,
            work_limit=kwargs.get("work_limit", DEFAULT_WORK_LIMIT),
            governor=governor,
        )
    except MiningInterrupted as exc:
        _decode_partial(exc, table)
        raise
    return pairs, table


def _mine_bruteforce(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.bruteforce import mine_bruteforce

    return mine_bruteforce(transactions, abs_support, max_len=max_len)


def _mine_apriori(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.apriori import mine_apriori

    return mine_apriori(transactions, abs_support, max_len=max_len)


def _mine_fpgrowth(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.fpgrowth import mine_fpgrowth

    return mine_fpgrowth(transactions, abs_support, max_len=max_len)


def _mine_eclat(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.eclat import mine_eclat

    return mine_eclat(transactions, abs_support, max_len=max_len)


def _mine_declat(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.eclat import mine_declat

    return mine_declat(transactions, abs_support, max_len=max_len)


def _mine_hmine(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.hmine import mine_hmine

    return mine_hmine(transactions, abs_support, max_len=max_len)


def _mine_aprioritid(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.aprioritid import mine_aprioritid

    return mine_aprioritid(transactions, abs_support, max_len=max_len)


def _mine_partition(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.partition import mine_partition

    return mine_partition(
        transactions,
        abs_support,
        max_len=max_len,
        n_partitions=kwargs.get("n_partitions", 4),
    )


def _mine_dic(transactions, abs_support, order, max_len, **kwargs):
    from repro.baselines.dic import mine_dic

    return mine_dic(
        transactions,
        abs_support,
        max_len=max_len,
        interval=kwargs.get("interval", 100),
    )


def _mine_count_distribution(transactions, abs_support, order, max_len, **kwargs):
    from repro.parallel.count_distribution import mine_count_distribution

    return mine_count_distribution(
        transactions,
        abs_support,
        max_len=max_len,
        n_nodes=kwargs.get("n_nodes", 4),
        use_processes=kwargs.get("use_processes", False),
    )


def _mine_plt_parallel(transactions, abs_support, order, max_len, **kwargs):
    from repro.parallel.executor import mine_parallel

    governor = kwargs.get("governor")
    plt = PLT.from_transactions(transactions, abs_support, order=order)
    if governor is not None:
        governor.admit(plt, method="conditional")
    parallel_kwargs = {
        key: kwargs[key]
        for key in ("timeout", "retry", "transport")
        if key in kwargs
    }
    table = plt.rank_table
    try:
        pairs = mine_parallel(
            plt,
            abs_support,
            max_len=max_len,
            n_workers=kwargs.get("n_workers"),
            governor=governor,
            **parallel_kwargs,
        )
    except MiningInterrupted as exc:
        _decode_partial(exc, table)
        raise
    return pairs, table


def _mine_plt_distributed(transactions, abs_support, order, max_len, **kwargs):
    from repro.parallel.distributed import mine_distributed

    pairs, _stats, _table = mine_distributed(
        transactions,
        abs_support,
        n_nodes=kwargs.get("n_nodes", 4),
        max_len=max_len,
        backend=kwargs.get("backend", "sim"),
        backend_options=kwargs.get("backend_options"),
    )
    return {frozenset(items): sup for items, sup in pairs}


METHODS: dict[str, Callable] = {
    "plt": _mine_plt,
    "plt-conditional": _mine_plt,
    "plt-topdown": _mine_plt_topdown,
    "plt-parallel": _mine_plt_parallel,
    "plt-distributed": _mine_plt_distributed,
    "apriori": _mine_apriori,
    "aprioritid": _mine_aprioritid,
    "apriori-cd": _mine_count_distribution,
    "partition": _mine_partition,
    "dic": _mine_dic,
    "fpgrowth": _mine_fpgrowth,
    "eclat": _mine_eclat,
    "declat": _mine_declat,
    "hmine": _mine_hmine,
    "bruteforce": _mine_bruteforce,
}

#: Methods whose hot loops consult a :class:`ResourceGovernor`.  Budget /
#: cancellation kwargs on the facade are rejected for any other method —
#: silently ignoring them would defeat the whole point of a deadline.
GOVERNED_METHODS = frozenset({"plt", "plt-conditional", "plt-topdown", "plt-parallel"})


def _degrade(
    transactions: TransactionDatabase,
    abs_support: int,
    order: str,
    max_len: int | None,
    policy: DegradationPolicy,
    method: str,
    reason: str | None,
) -> ApproximateResult:
    """Produce the bounded approximate answer the policy asked for."""
    import random

    n = len(transactions)
    if policy.fallback == "topk":
        from repro.core.topk import mine_top_k

        plt = PLT.from_transactions(transactions, abs_support, order=order)
        pairs = mine_top_k(plt, policy.k, max_len=max_len)
        itemsets = canonical_itemsets(
            ((ranks, sup) for ranks, sup in pairs if sup >= abs_support),
            plt.rank_table,
        )
        disclaimer = (
            f"approximate result: supports are exact but only the "
            f"{policy.k} most frequent itemsets were mined "
            f"(budget stop: {reason})"
        )
        info = {"fallback": "topk", "k": policy.k, "stop_reason": reason}
    elif policy.fallback == "sketch":
        from repro.stream.summary import StreamSummary

        summary = StreamSummary(
            epsilon=policy.epsilon,
            delta=policy.delta,
            capacity=policy.hh_capacity,
            seed=policy.seed,
        )
        for t in transactions:
            summary.push(t)
        sketched = summary.as_result(abs_support, method=method + "+approx-sketch")
        itemsets = [(fi.items, fi.support) for fi in sketched]
        disclaimer = (
            f"approximate result: supports are one-sided count-min estimates "
            f"(never below the true support, above it by at most "
            f"{summary.error_bound(1)} for items / {summary.error_bound(2)} "
            f"for pairs w.p. >= {1.0 - policy.delta:g}); only monitored 1- "
            f"and 2-itemsets are enumerated (budget stop: {reason})"
        )
        info = dict(sketched.info or {})
        info["stop_reason"] = reason
    else:
        rng = random.Random(policy.seed)
        size = max(1, round(n * policy.sample_fraction))
        if size >= n:
            sample = list(transactions)
            size = n
        else:
            sample = rng.sample(list(transactions), size)
        # scale the threshold to the sample, but never below the full-run
        # floor: a sample mined at support 1 enumerates every subset of
        # every sampled transaction — the opposite of a *bounded* fallback
        scaled_support = max(min(abs_support, 2), round(abs_support * size / n))
        sub = mine_frequent_itemsets(
            sample, scaled_support, method="plt", order=order, max_len=max_len
        )
        scale = n / size
        itemsets = [
            (fi.items, est)
            for fi in sub
            if (est := round(fi.support * scale)) >= abs_support
        ]
        disclaimer = (
            f"approximate result: supports are estimates scaled up from a "
            f"{size}/{n} transaction sample (seed={policy.seed}, "
            f"budget stop: {reason})"
        )
        info = {
            "fallback": "sampling",
            "sample_size": size,
            "sample_fraction": policy.sample_fraction,
            "seed": policy.seed,
            "stop_reason": reason,
        }
    # every fallback yields canonically ordered pairs: top-k through
    # canonical_itemsets, sketch and sampling from results already sorted
    return ApproximateResult._presorted(
        itemsets,
        n_transactions=n,
        min_support=abs_support,
        method=method + "+approx-" + policy.fallback,
        disclaimer=disclaimer,
        info=info,
    )


def mine_frequent_itemsets(
    transactions: Iterable[Iterable[Item]],
    min_support: float | int,
    *,
    method: str = "plt",
    order: str = "lexicographic",
    max_len: int | None = None,
    deadline: float | None = None,
    max_itemsets: int | None = None,
    memory_budget: int | None = None,
    budget: MiningBudget | None = None,
    cancel: CancellationToken | None = None,
    degradation: DegradationPolicy | None = None,
    on_budget: str = "partial",
    **kwargs,
) -> MiningResult:
    """Mine all frequent itemsets from ``transactions``.

    Parameters
    ----------
    transactions:
        Any iterable of item collections, or a :class:`TransactionDatabase`.
    min_support:
        Absolute count (int >= 1) or relative fraction (float in (0, 1]).
    method:
        One of ``plt`` (alias ``plt-conditional``; the paper's Algorithm 3),
        ``plt-topdown`` (Algorithm 2), ``plt-parallel``, or a baseline:
        ``apriori``, ``aprioritid``, ``apriori-cd`` (count distribution),
        ``partition``, ``dic``, ``fpgrowth``, ``eclat``, ``declat``,
        ``hmine``, ``bruteforce``.
    order:
        Item-ordering policy for the PLT's rank table (PLT methods only):
        ``lexicographic`` (paper), ``support_asc``, ``support_desc``.
    max_len:
        Optional cap on itemset length.
    deadline, max_itemsets, memory_budget:
        Shorthand for ``budget=MiningBudget(...)``: wall-clock seconds,
        emitted-itemset cap, estimated-byte cap.  Only the PLT methods
        (:data:`GOVERNED_METHODS`) support governance; other methods
        raise :class:`~repro.errors.ReproError` when any budget kwarg is
        set.
    budget:
        A full :class:`~repro.robustness.governor.MiningBudget` (mutually
        exclusive with the shorthand kwargs).
    cancel:
        A :class:`~repro.robustness.governor.CancellationToken`; flip it
        from another thread to stop mining cooperatively.
    degradation:
        A :class:`~repro.robustness.governor.DegradationPolicy`.  When the
        budget trips (or admission control rejects the run), fall back to
        a bounded approximate miner and return an
        :class:`ApproximateResult` instead of a partial answer.
    on_budget:
        ``"partial"`` (default) converts a budget trip into a
        :class:`PartialResult`; ``"raise"`` propagates the
        :class:`~repro.errors.BudgetExceeded` /
        :class:`~repro.errors.Cancelled` exception instead.
    kwargs:
        Method-specific options (e.g. ``n_workers`` for ``plt-parallel``,
        ``work_limit`` for ``plt-topdown``).

    Examples
    --------
    >>> from repro import mine_frequent_itemsets
    >>> res = mine_frequent_itemsets([("a", "b"), ("a", "b", "c"), ("a",)], 2)
    >>> [(fi.items, fi.support) for fi in res]  # by length, then items
    [(('a',), 3), (('b',), 2), (('a', 'b'), 2)]
    """
    if method not in METHODS:
        raise ReproError(
            f"unknown mining method {method!r}; available: {', '.join(sorted(METHODS))}"
        )
    if on_budget not in ("partial", "raise"):
        raise InvalidParameterError(
            f"on_budget must be 'partial' or 'raise', got {on_budget!r}"
        )
    shorthand = (deadline, max_itemsets, memory_budget)
    if budget is not None and any(v is not None for v in shorthand):
        raise InvalidParameterError(
            "pass either budget= or the deadline/max_itemsets/memory_budget "
            "shorthand kwargs, not both"
        )
    if budget is None and any(v is not None for v in shorthand):
        budget = MiningBudget(
            deadline=deadline,
            max_itemsets=max_itemsets,
            memory_budget=memory_budget,
        )
    governor = None
    if budget is not None or cancel is not None:
        if method not in GOVERNED_METHODS:
            raise ReproError(
                f"method {method!r} does not support resource governance; "
                f"governed methods: {', '.join(sorted(GOVERNED_METHODS))}"
            )
        governor = ResourceGovernor(budget, cancel).start()
        kwargs["governor"] = governor
    elif degradation is not None:
        raise InvalidParameterError(
            "a DegradationPolicy needs a budget or cancellation token to "
            "degrade from; pass deadline/max_itemsets/memory_budget/budget/cancel"
        )
    if not isinstance(transactions, TransactionDatabase):
        transactions = TransactionDatabase(transactions)
    abs_support = resolve_min_support(min_support, len(transactions))
    try:
        mined = METHODS[method](transactions, abs_support, order, max_len, **kwargs)
    except AdmissionRejected:
        if degradation is None:
            raise
        return _degrade(
            transactions, abs_support, order, max_len, degradation, method,
            "admission",
        )
    except MiningInterrupted as exc:
        if on_budget == "raise":
            raise
        if degradation is not None:
            return _degrade(
                transactions, abs_support, order, max_len, degradation, method,
                exc.reason,
            )
        progress = dict(governor.progress) if governor is not None else {}
        progress.update(exc.progress)
        progress = {k: v for k, v in progress.items() if not k.startswith("_")}
        return PartialResult._presorted(
            getattr(exc, "partial_items", ()),
            n_transactions=len(transactions),
            min_support=abs_support,
            method=method,
            stop_reason=exc.reason,
            elapsed=governor.elapsed() if governor is not None else 0.0,
            progress=progress,
        )
    meta = dict(
        n_transactions=len(transactions), min_support=abs_support, method=method
    )
    if isinstance(mined, tuple):  # a PLT miner's (rank pairs, rank table)
        return MiningResult.from_ranks(*mined, **meta)
    itemsets = [
        FrequentItemset(tuple(sorted(items, key=sort_key)), sup)
        for items, sup in mined.items()
    ]
    return MiningResult(itemsets, **meta)


def _mine_condensed(transactions, min_support, order, kind):
    from repro.core.closed import mine_closed, mine_maximal

    if not isinstance(transactions, TransactionDatabase):
        transactions = TransactionDatabase(transactions)
    abs_support = resolve_min_support(min_support, len(transactions))
    plt = PLT.from_transactions(transactions, abs_support, order=order)
    miner = mine_closed if kind == "closed" else mine_maximal
    return MiningResult.from_ranks(
        miner(plt, abs_support),
        plt.rank_table,
        n_transactions=len(transactions),
        min_support=abs_support,
        method=f"plt-{kind}",
    )


def mine_closed_itemsets(
    transactions: Iterable[Iterable[Item]],
    min_support: float | int,
    *,
    order: str = "lexicographic",
) -> MiningResult:
    """Mine only the *closed* frequent itemsets (lossless condensed form).

    Equivalent to ``mine_frequent_itemsets(...).closed()`` but computed
    directly on the conditional PLT with closure pruning, without
    materialising the full frequent set.
    """
    return _mine_condensed(transactions, min_support, order, "closed")


def mine_maximal_itemsets(
    transactions: Iterable[Iterable[Item]],
    min_support: float | int,
    *,
    order: str = "lexicographic",
) -> MiningResult:
    """Mine only the *maximal* frequent itemsets (the frequent border)."""
    return _mine_condensed(transactions, min_support, order, "maximal")
