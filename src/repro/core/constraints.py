"""Constraint-based mining over the PLT.

Real deployments rarely want *all* frequent itemsets: the analyst asks
for "sets containing diapers", "sets without tobacco", "sets of at most
four items under $50 total" (the constrained-mining line of Ng,
Lakshmanan, Han & Pang, SIGMOD 1998).  Pushing constraints *into* the
search beats post-filtering whenever they prune:

* **excluded items** are projected out of the structure before mining
  (cheapest possible: they simply don't exist);
* **required items** restrict counting to the transactions containing
  them — for ``X ⊇ R``, ``support_D(X) = support_{D_R}(X)`` where ``D_R``
  is the sub-database of transactions containing ``R``, which is usually
  far smaller — and results are filtered to supersets of ``R``;
* an **anti-monotone predicate** (``True`` keeps the itemset; once an
  itemset fails, every superset must fail — e.g. ``len(X) <= 4``, total
  price caps) prunes recursion branches wholesale.

The predicate's anti-monotonicity is the caller's promise; a monotone or
arbitrary predicate must go through plain post-filtering instead (the
docstring of :func:`mine_constrained` says so loudly, and a debug check
is available via ``verify_antimonotone``).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable

from repro.core.conditional import _consume_bucket, build_conditional_buckets
from repro.core.plt import PLT
from repro.core.rank import CanonicalDecoder, sort_key
from repro.data.transaction_db import TransactionDatabase, resolve_min_support
from repro.errors import InvalidSupportError, UnknownItemError

__all__ = ["mine_constrained", "verify_antimonotone"]

Item = Hashable
Predicate = Callable[[tuple], bool]


def verify_antimonotone(
    predicate: Predicate, itemsets: Iterable[tuple]
) -> tuple | None:
    """Spot-check a predicate: return a violating (subset, superset) pair.

    For each provided itemset that *fails* the predicate, every superset
    among the provided itemsets must also fail.  Returns ``None`` when no
    violation is found (not a proof — a sampling aid for development).
    """
    itemsets = [tuple(sorted(s, key=sort_key)) for s in itemsets]
    failed = [s for s in itemsets if not predicate(s)]
    for f in failed:
        f_set = set(f)
        for other in itemsets:
            if f_set < set(other) and predicate(other):
                return (f, other)
    return None


def mine_constrained(
    transactions: Iterable[Iterable[Item]],
    min_support: float | int,
    *,
    required: Iterable[Item] = (),
    excluded: Iterable[Item] = (),
    predicate: Predicate | None = None,
    max_len: int | None = None,
    order: str = "lexicographic",
) -> list[tuple[tuple, int]]:
    """Frequent itemsets satisfying the constraints, with exact supports.

    Parameters
    ----------
    required:
        Items every reported itemset must contain.  Support counting is
        restricted to the transactions containing all of them (exact, per
        the identity above); an item that is itself infrequent yields an
        empty result.
    excluded:
        Items no reported itemset may contain (removed before mining).
    predicate:
        **Anti-monotone** itemset predicate over item tuples.  It is
        applied inside the recursion: a failing itemset is neither
        reported nor extended.  Passing a non-anti-monotone predicate
        silently loses results — post-filter instead if unsure.
    max_len:
        Length cap (itself an anti-monotone constraint, kept explicit
        because it is the common case).

    Returns ``(sorted item tuple, support)`` pairs in canonical order.
    Supports are absolute counts over the *full* database.
    """
    required = frozenset(required)
    excluded = frozenset(excluded)
    if required & excluded:
        overlap = sorted(required & excluded, key=sort_key)
        raise InvalidSupportError(
            f"items both required and excluded: {overlap!r}"
        )
    if not isinstance(transactions, TransactionDatabase):
        transactions = TransactionDatabase(transactions)
    n_total = len(transactions)
    abs_support = resolve_min_support(min_support, max(n_total, 1))

    # required items: restrict to their supporting transactions
    if required:
        rows = [t for t in transactions if required <= t]
        if len(rows) < abs_support:
            return []  # the required set itself is infrequent
    else:
        rows = list(transactions)
    # excluded items: drop before mining
    if excluded:
        rows = [t - excluded for t in rows]

    plt = PLT.from_transactions(rows, abs_support, order=order)
    table = plt.rank_table

    # required items may themselves have been filtered as "infrequent
    # within rows"?  No: every row contains them, so their support is
    # len(rows) >= abs_support — they are always present in the table.
    required_ranks = frozenset()
    if required:
        try:
            required_ranks = frozenset(table.rank(i) for i in required)
        except UnknownItemError:  # pragma: no cover - guarded above
            return []

    decoder = CanonicalDecoder(table)
    results: list[tuple[tuple[int, ...], int]] = []

    def accept(itemset_ranks: tuple[int, ...]) -> bool:
        """Predicate gate over the decoded itemset."""
        return predicate is None or bool(predicate(decoder.decode(itemset_ranks)))

    def emit(itemset_ranks: tuple[int, ...], support: int) -> None:
        if required_ranks <= set(itemset_ranks):
            results.append((itemset_ranks, support))

    def mine(buckets, suffix) -> None:
        for j in range(max(buckets, default=0), 0, -1):
            bucket = buckets.pop(j, None)
            if bucket is None:
                continue
            cd, support = _consume_bucket(bucket, buckets)
            if support < abs_support:
                continue
            itemset = suffix + (j,)
            if not accept(itemset):
                continue  # anti-monotone: no superset can pass either
            emit(itemset, support)
            if cd and (max_len is None or len(itemset) < max_len):
                sub = build_conditional_buckets(cd, abs_support)
                if sub:
                    mine(sub, itemset)

    mine(plt.sum_index(), ())
    return decoder.itemsets(results)
