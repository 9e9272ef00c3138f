"""Algorithm 3 — the conditional (pattern-growth) PLT miner.

The paper's conditional approach processes items in *decreasing* rank
order.  For item ``j``:

1. Its conditional database is exactly the vectors whose sum equals ``j``
   (the sum index makes this a dictionary lookup — this is the paper's
   "easy identification of the conditional structure" claim).
2. The support of the current pattern extended by ``j`` is the total
   frequency of that bucket.
3. Each bucket vector's prefix (last position dropped, Lemma 4.1.3a) is
   simultaneously

   * **migrated** back into the enclosing structure, so that lower-ranked
     items later receive the counts of transactions whose maximal item was
     ``j`` — the paper's ``Update PLT with V'`` step, performed
     *unconditionally* (even when ``j`` itself is infrequent), and
   * **added to the conditional database** ``CD_j``.

4. If the extension is frequent, a *conditional PLT* is built from
   ``CD_j`` by removing locally-infrequent items from every vector
   and the procedure descends.

Rank-path hot path
------------------
The mining engine works on **rank paths** — each vector's cumulative-sum
tuple (Lemma 4.1.1), precomputed once at PLT construction and carried
through every conditional level (see :class:`~repro.core.flat.FlatPLT`).
On this representation every per-vector quantity Algorithm 3 needs is
O(1) instead of O(k):

* the sum-index bucket key is ``path[-1]`` (no ``sum(vec)``),
* a prefix's destination bucket is ``path[-2]`` (no re-summing after the
  drop-last step), and
* removing locally-infrequent items is a plain membership filter over the
  path (no consecutive-position merging arithmetic).

The engine itself is an explicit work-stack (:func:`_mine_paths`) rather
than recursion, so arbitrarily long frequent itemsets need no
``sys.setrecursionlimit`` games and frame overhead stays off the hot loop.

One top level
-------------
Algorithm 3's top-level loop runs in one place,
:func:`mine_conditional_flat_range`, over a
:class:`~repro.core.flat.FlatPLT`'s columns: :func:`mine_conditional`
mines the whole rank range (lowering a PLT first), and the shared-memory
workers mine disjoint ranges of an attached segment.  The input size
picks one of two branches:

* **dense pair matrix** — when :meth:`FlatPLT.pair_support_matrix` fits
  its cap.  By Lemma 4.1.1 the local support of rank ``k`` in ``CD_j`` is
  ``support({k, j})``, so the matrix replaces both the top-level
  migration cascade and the per-bucket supports scan (:func:`_matrix_mine`);
* **fused engine** — otherwise.  Buckets are materialised from the
  columns and :func:`_mine_paths` runs the top level itself
  (:func:`_fused_mine`).

The delta-vector kernels (:func:`rank_supports_of_vectors`,
:func:`build_conditional_buckets`, :func:`_consume_bucket`) remain for
callers that hold position vectors — the task partitioner, the on-disk
store, closed/top-k/constraint miners and the tests;
:func:`mine_conditional_block` converts a delta-keyed conditional
database to rank paths once and runs the same engine through
:func:`mine_conditional_paths`, which the serving tier calls directly
with the rank-path conditional databases it reads off the columns.

Anti-monotone pruning is fully exploited: a conditional structure only
ever contains items that are frequent *together with* the current suffix.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from itertools import accumulate, combinations as _combinations, compress as _compress

import numpy as _np

from repro.core.flat import FlatPLT
from repro.core.plt import PLT
from repro.core.position import PositionVector, RankPath, restrict_to_ranks
from repro.errors import InvalidSupportError, MiningInterrupted
from repro.perf.counters import COUNTERS as _COUNTERS

__all__ = [
    "mine_conditional",
    "mine_conditional_block",
    "mine_conditional_paths",
    "mine_conditional_flat_range",
    "conditional_database",
    "build_conditional_buckets",
    "build_conditional_path_buckets",
    "rank_supports_of_vectors",
]

Buckets = dict[int, dict[PositionVector, int]]
PathBuckets = dict[int, dict[RankPath, int]]
Emit = Callable[[tuple[int, ...], int], None]


# ---------------------------------------------------------------------------
# delta-vector kernels (compatibility surface; see module docstring)
# ---------------------------------------------------------------------------
def rank_supports_of_vectors(vectors: dict[PositionVector, int]) -> dict[int, int]:
    """Support of every rank appearing in an aggregated vector table.

    Decodes each vector's cumulative sums once; the frequency of the vector
    contributes to every rank on its path (Lemma 4.1.1).
    """
    supports: dict[int, int] = defaultdict(int)
    for vec, freq in vectors.items():
        total = 0
        for p in vec:
            total += p
            supports[total] += freq
    return dict(supports)


def build_conditional_buckets(
    prefixes: dict[PositionVector, int], min_support: int
) -> Buckets:
    """Build a conditional PLT (as sum-indexed buckets) from prefix vectors.

    Locally infrequent ranks are removed from every vector by projection
    (equivalent to the paper's consecutive-position merging); surviving
    vectors are re-aggregated and bucketed by sum.
    """
    supports = rank_supports_of_vectors(prefixes)
    frequent = {r for r, s in supports.items() if s >= min_support}
    if not frequent:
        return {}
    buckets: Buckets = defaultdict(dict)
    if len(frequent) == len(supports):
        # nothing to filter: bucket the prefixes as-is (keys stay distinct)
        for vec, freq in prefixes.items():
            buckets[sum(vec)][vec] = freq
        return dict(buckets)
    for vec, freq in prefixes.items():
        kept = restrict_to_ranks(vec, frequent)
        if not kept:
            continue
        bucket = buckets[sum(kept)]
        bucket[kept] = bucket.get(kept, 0) + freq
    return dict(buckets)


def _build_path_buckets(
    prefixes: dict[RankPath, int], min_support: int
) -> tuple[PathBuckets, list[int]]:
    """Build a conditional structure; also return its bucket *schedule*.

    The schedule is the locally-frequent ranks in descending order.  It is
    exact: every frequent rank's bucket exists by the time the mining loop
    reaches it (paths containing the rank survive the projection, and
    prefix migration deposits them at that key), and migration can never
    create a key outside the frequent set.  Iterating the schedule instead
    of counting down through every integer rank removes the dominant waste
    of the counter formulation — one dict probe per *possible* rank per
    structure — which profiling showed outnumbered real buckets ~6:1 on
    sparse data.
    """
    supports: dict[int, int] = defaultdict(int)
    for path, freq in prefixes.items():
        for r in path:
            supports[r] += freq
    min_s = min_support
    frequent = {r for r, s in supports.items() if s >= min_s}
    if not frequent:
        return {}, []
    buckets: PathBuckets = defaultdict(dict)
    if len(frequent) == len(supports):
        # nothing to filter: re-bucket the distinct paths as-is
        for path, freq in prefixes.items():
            buckets[path[-1]][path] = freq
    else:
        for path, freq in prefixes.items():
            kept = tuple([r for r in path if r in frequent])
            if kept:
                bucket = buckets[kept[-1]]
                bucket[kept] = bucket.get(kept, 0) + freq
    return dict(buckets), sorted(frequent, reverse=True)


def build_conditional_path_buckets(
    prefixes: dict[RankPath, int], min_support: int
) -> PathBuckets:
    """Rank-path form of :func:`build_conditional_buckets`.

    The projection that removes locally-infrequent items degenerates to a
    membership filter over each path, and the destination bucket key is the
    filtered path's last element — no delta re-encoding, no re-summing.
    """
    return _build_path_buckets(prefixes, min_support)[0]


def conditional_database(
    plt: PLT, rank: int
) -> tuple[dict[PositionVector, int], int, Buckets]:
    """Stand-alone form of the paper's ``Conditional_Construct`` for tests.

    Returns ``(CD_rank, support(rank), remaining_buckets)`` where
    ``remaining_buckets`` is the PLT's sum index *after* the bucket of
    ``rank`` was consumed and its prefixes migrated — i.e. the state of
    Figure 5(b).  Higher-ranked buckets must already have been processed
    for the support to be the true support; for the top rank this holds
    trivially.
    """
    buckets = plt.sum_index()
    for j in range(max(buckets, default=0), rank - 1, -1):
        bucket = buckets.pop(j, None)
        if bucket is None:
            if j == rank:
                return {}, 0, buckets
            continue
        cd, support = _consume_bucket(bucket, buckets)
        if j == rank:
            return cd, support, buckets
    return {}, 0, buckets


def _consume_bucket(
    bucket: dict[PositionVector, int], buckets: Buckets
) -> tuple[dict[PositionVector, int], int]:
    """Migrate a bucket's prefixes into ``buckets``; return (CD_j, support)."""
    support = 0
    cd: dict[PositionVector, int] = {}
    for vec, freq in bucket.items():
        support += freq
        prefix = vec[:-1]
        if prefix:
            parent = buckets.setdefault(sum(prefix), {})
            parent[prefix] = parent.get(prefix, 0) + freq
            cd[prefix] = cd.get(prefix, 0) + freq
    return cd, support


# ---------------------------------------------------------------------------
# the iterative rank-path mining engine
# ---------------------------------------------------------------------------
def _mine_paths(
    buckets: PathBuckets,
    order: "range | list[int]",
    suffix: tuple[int, ...],
    min_support: int,
    emit: Emit,
    max_len: int | None,
    row: list[float] | None = None,
    governor=None,
    track_top: bool = False,
) -> None:
    """Depth-first conditional mining over rank-path buckets, no recursion.

    When ``row`` is given, the structure's *first* level is
    support-complete in ``row`` — ``row[j]`` is the exact support of
    ``(j,) + suffix`` and those itemsets were already emitted — so the
    buckets omit length-1 paths (they carry no information beyond
    first-level support), the loop neither sums nor emits at that level,
    and prefix migration skips singletons too.  This is self-propagating:
    the local supports ``sup`` computed before every descent *are* the
    child's first-level row, so the child's singletons are emitted here
    with their exact supports and every conditional structure at every
    depth stays singleton-free.  ``row`` is ``None`` only for structures
    built with their singletons intact (the fused top level of
    :func:`_fused_mine` and :func:`mine_conditional_paths`).

    Algorithm 3's ``for j = Max down to 1`` loop, driven by an explicit
    descending *schedule* of candidate ranks rather than an integer
    countdown: migration only ever inserts buckets at keys strictly below
    the one being consumed and never outside the schedule, so walking the
    schedule visits every bucket exactly once, including freshly created
    ones.  The top level passes a ``range``; conditional structures pass
    the exact frequent-rank list from :func:`_build_path_buckets`.

    Descents into conditional structures are handled by an explicit frame
    stack — each frame is ``(buckets, order, resume_index, suffix)`` and
    resumes the enclosing loop exactly where recursion would have.  The
    emission order is identical to the recursive formulation.

    The loop body fuses Algorithm 3's three per-bucket steps — consume,
    migrate, build ``CD_j``'s structure — into at most two passes over the
    bucket, with no intermediate conditional-database dict:

    * support is ``sum(bucket.values())`` (C level);
    * when descending, one pass accumulates local rank supports into a
      flat list indexed by rank (every rank on a bucket path is ``<= j``,
      so the array is dense and bounds-free), and a second pass migrates
      each prefix *and* inserts its projection into the child structure;
    * otherwise a migrate-only pass runs (no projection work).

    Two special cases carry most of real datasets: a **single-item
    bucket** is the FP-growth chain case — every subset of the lone
    prefix is frequent with the path's frequency (or none is), so
    subsets are enumerated directly with no descent; and an
    **all-frequent** bucket (no rank filtered out) re-buckets prefixes
    by plain assignment, since two distinct paths sharing the terminal
    ``j`` cannot share a prefix.

    When a :class:`~repro.robustness.governor.ResourceGovernor` is given
    it is charged one amortized tick per consumed bucket (weighted by
    bucket size); with ``track_top`` the currently-mined *top-level* rank
    is recorded in ``governor.progress["mining_rank"]`` — each top-level
    rank's entire subtree completes before the loop advances, so on a
    budget trip every rank above the marker is verified complete.  Cost
    when ``governor is None``: a single predicate test per bucket.
    """
    counters = _COUNTERS
    stack: list[
        tuple[
            PathBuckets,
            "range | list[int]",
            int,
            tuple[int, ...],
            "list[float] | None",
        ]
    ] = []
    push_frame = stack.append
    idx = 0
    n = len(order)
    while True:
        bucket_pop = buckets.pop
        buckets_get = buckets.get
        min_plen = 1 if row is None else 2
        while idx < n:
            j = order[idx]
            idx += 1
            bucket = bucket_pop(j, None)
            if bucket is None:
                continue
            if governor is not None:
                if track_top and not stack:
                    governor.progress["mining_rank"] = j
                governor.tick(len(bucket))
            if counters.enabled:
                counters.add("cond_buckets_touched")
                counters.add("cond_work_items_merged", len(bucket))
            if len(bucket) == 1:
                # chain case: one path means every prefix rank's local
                # support equals the path frequency, so either nothing
                # below is frequent or *every* subset of the prefix is —
                # enumerate directly instead of descending
                ((path, freq),) = bucket.items()
                prefix = path[:-1]
                if len(prefix) >= min_plen:
                    key = prefix[-1]
                    parent = buckets_get(key)
                    if parent is None:
                        buckets[key] = {prefix: freq}
                    else:
                        parent[prefix] = parent.get(prefix, 0) + freq
                if freq >= min_support:
                    itemset = (j,) + suffix
                    if row is None:
                        emit(itemset, freq)
                    if prefix and (max_len is None or len(itemset) < max_len):
                        if counters.enabled:
                            counters.add("cond_single_path_shortcuts")
                        room = (
                            len(prefix)
                            if max_len is None
                            else min(len(prefix), max_len - len(itemset))
                        )
                        for size in range(1, room + 1):
                            for combo in _combinations(prefix, size):
                                emit(combo + itemset, freq)
                continue
            sub_order: list[int] = []
            if row is None:
                support = sum(bucket.values())
                frequent_j = support >= min_support
                if frequent_j:
                    emit((j,) + suffix, support)
            else:
                # support-complete first level: row[j] >= min_support by
                # schedule construction and the itemset is already emitted
                frequent_j = True
            if frequent_j:
                itemset = (j,) + suffix
                if max_len is None or len(itemset) < max_len:
                    # local rank supports, array-indexed (ranks are <= j)
                    sup = [0] * (j + 1)
                    touched: list[int] = []
                    t_append = touched.append
                    for path, freq in bucket.items():
                        for r in path:
                            s = sup[r]
                            if not s:
                                t_append(r)
                            sup[r] = s + freq
                    sub_order = [
                        r for r in touched if r != j and sup[r] >= min_support
                    ]
            if sub_order:
                # sup IS the child's first level (Lemma 4.1.1 locally):
                # emit the extensions here with their exact supports, so
                # the child structure can omit every singleton projection
                sub_order.sort(reverse=True)
                for r in sub_order:
                    emit((r,) + itemset, sup[r])
            if sub_order and (max_len is None or len(itemset) + 1 < max_len):
                # fused pass: migrate every prefix into this structure AND
                # project it (when longer than one rank) into the child
                sub: PathBuckets = {}
                sub_get = sub.get
                if len(sub_order) == len(touched) - 1:
                    # no rank filtered out: prefixes of distinct paths
                    # sharing the terminal j are themselves distinct, so
                    # child insertion needs no collision handling
                    for path, freq in bucket.items():
                        prefix = path[:-1]
                        plen = len(prefix)
                        if plen >= min_plen:
                            key = prefix[-1]
                            parent = buckets_get(key)
                            if parent is None:
                                buckets[key] = {prefix: freq}
                            else:
                                parent[prefix] = parent.get(prefix, 0) + freq
                            if plen > 1:
                                sb = sub_get(key)
                                if sb is None:
                                    sub[key] = {prefix: freq}
                                else:
                                    sb[prefix] = freq
                else:
                    keep = bytearray(j)
                    for r in sub_order:
                        keep[r] = 1
                    for path, freq in bucket.items():
                        prefix = path[:-1]
                        plen = len(prefix)
                        if plen >= min_plen:
                            key = prefix[-1]
                            parent = buckets_get(key)
                            if parent is None:
                                buckets[key] = {prefix: freq}
                            else:
                                parent[prefix] = parent.get(prefix, 0) + freq
                            if plen > 1:
                                kept = [r for r in prefix if keep[r]]
                                if len(kept) > 1:
                                    kt = tuple(kept)
                                    k2 = kept[-1]
                                    sb = sub_get(k2)
                                    if sb is None:
                                        sub[k2] = {kt: freq}
                                    else:
                                        sb[kt] = sb.get(kt, 0) + freq
                if sub:
                    if counters.enabled:
                        counters.add("cond_structures_built")
                    # descend: save the resume point, enter the child
                    push_frame((buckets, order, idx, suffix, row))
                    buckets, order, suffix, row = sub, sub_order, itemset, sup
                    idx, n = 0, len(sub_order)
                    bucket_pop = buckets.pop
                    buckets_get = buckets.get
                    min_plen = 2
            else:
                # infrequent rank, max_len boundary, or nothing locally
                # frequent below: migration is still owed
                for path, freq in bucket.items():
                    prefix = path[:-1]
                    if len(prefix) >= min_plen:
                        key = prefix[-1]
                        parent = buckets_get(key)
                        if parent is None:
                            buckets[key] = {prefix: freq}
                        else:
                            parent[prefix] = parent.get(prefix, 0) + freq
        if not stack:
            return
        buckets, order, idx, suffix, row = stack.pop()
        n = len(order)


def mine_conditional_block(
    prefixes: dict[PositionVector, int],
    rank: int,
    min_support: int,
    emit: Emit,
    max_len: int | None = None,
    governor=None,
) -> None:
    """Mine one top-level rank's delta-keyed conditional database.

    ``prefixes`` is the shape the parallel partitioner bundles into tasks
    and the distributed slice exchange ships between nodes.  Each distinct
    vector is converted to its rank path with a single ``accumulate`` pass
    (injective on delta vectors, so plain assignment) and handed to
    :func:`mine_conditional_paths`.
    """
    mine_conditional_paths(
        {tuple(accumulate(vec)): freq for vec, freq in prefixes.items()},
        rank, min_support, emit, max_len, governor=governor,
    )


def mine_conditional_paths(
    prefixes: dict[RankPath, int],
    rank: int,
    min_support: int,
    emit: Emit,
    max_len: int | None = None,
    governor=None,
) -> None:
    """Mine one rank's conditional database of rank paths on the path engine.

    The projection that drops locally-infrequent ranks runs in path space,
    and the descent uses the exact frequent-rank schedule instead of
    counting down through every integer rank.  When every prefix rank is
    below ``rank`` (Algorithm 3's ``CD_rank``), itemsets reach ``emit``
    already sorted ascending — the engine prepends strictly smaller ranks
    — so callers need no per-emit re-sort.

    Does *not* emit ``(rank,)`` itself — top-level supports are known to
    the caller before the conditional database exists.
    """
    if governor is not None:
        governor.tick(len(prefixes))
    buckets, schedule = _build_path_buckets(prefixes, min_support)
    if buckets:
        _mine_paths(
            buckets, schedule, (rank,), min_support, emit, max_len,
            governor=governor,
        )


def _matrix_mine(
    arrays,
    pair_support,
    lo: int,
    hi: int,
    min_support: int,
    emit: Emit,
    max_len: int | None,
    governor=None,
) -> None:
    """Dense-matrix branch of the top level over length-grouped path matrices.

    ``arrays`` is :meth:`FlatPLT.paths_by_length`'s ``{length: (mat,
    ifreqs)}`` and ``pair_support`` :meth:`FlatPLT.pair_support_matrix`.
    Mines every frequent itemset whose *maximal* rank lies in ``[lo, hi)``.
    Conditional structures for each frequent ``j`` are built straight from
    the matrices and descended with :func:`_mine_paths`; nothing below the
    top level differs from the fused branch.
    """
    width = pair_support.shape[0]
    counters = _COUNTERS
    restricted = lo > 1 or hi < width
    # vectorised projection: every stored path truncated at every column
    # c >= 2 is a conditional-structure entry for the rank at that column
    # (columns 0 and 1 yield projections shorter than two ranks, whose
    # only information — first-level support — the matrix already holds).
    # One 2D gather per (length, column) evaluates the local-frequency
    # filter for every terminal rank at once, so prefixes with fewer than
    # two surviving ranks never reach Python at all.
    subs: dict[int, PathBuckets] = {}
    subs_get = subs.get
    if max_len is None or max_len >= 3:
        for length, (mat, ifreqs) in arrays.items():
            if length < 3:
                continue
            flist = ifreqs.tolist()
            for c in range(2, length):
                jcol = mat[:, c]
                prefix = mat[:, :c]
                if restricted:
                    # structures for out-of-range terminal ranks are never
                    # consumed here — drop their rows before the (much
                    # heavier) pair-support gather, so a range worker's
                    # cost scales with its slice, not the whole database
                    inr = _np.nonzero((jcol >= lo) & (jcol < hi))[0]
                    if not inr.size:
                        if governor is not None:
                            governor.tick()
                        continue
                    jcol = jcol[inr]
                    prefix = prefix[inr]
                keepm = pair_support[jcol[:, None], prefix] >= min_support
                want = keepm.sum(axis=1) >= 2
                sel = _np.nonzero(want)[0]
                if governor is not None:
                    governor.tick(max(1, int(sel.size)))
                if not sel.size:
                    continue
                if counters.enabled:
                    counters.add("cond_work_items_merged", int(sel.size))
                pre = prefix[sel].tolist()
                flags = keepm[sel].tolist()
                js = jcol[sel].tolist()
                rsel = (inr[sel] if restricted else sel).tolist()
                for vals, flag, j, ridx in zip(pre, flags, js, rsel):
                    kept = tuple(_compress(vals, flag))
                    freq = flist[ridx]
                    sub = subs_get(j)
                    if sub is None:
                        subs[j] = {kept[-1]: {kept: freq}}
                        continue
                    key = kept[-1]
                    sb = sub.get(key)
                    if sb is None:
                        sub[key] = {kept: freq}
                    else:
                        sb[kept] = sb.get(kept, 0) + freq

    diag = pair_support.diagonal()
    for j in range(hi - 1, lo - 1, -1):
        support = int(diag[j])
        if support < min_support:
            continue
        if governor is not None:
            governor.progress["mining_rank"] = j
            governor.tick()
        if counters.enabled:
            counters.add("cond_buckets_touched")
        emit((j,), support)
        if max_len is not None and max_len < 2:
            continue
        # rank 0 does not exist, so its row cell is always zero and can
        # never pass the >= min_support test (min_support >= 1)
        row = pair_support[j]
        head = row[:j]
        frequent = _np.nonzero(head >= min_support)[0]
        if frequent.size == 0:
            continue
        sub_order = frequent[::-1].tolist()
        row_list = row.tolist()
        # 2-itemsets come straight from the matrix: row[r] IS the exact
        # support of {r, j}
        for r in sub_order:
            emit((r, j), int(row_list[r]))
        sub = subs.pop(j, None)
        if sub:
            if counters.enabled:
                counters.add("cond_structures_built")
            _mine_paths(
                sub, sub_order, (j,), min_support, emit, max_len, row_list,
                governor=governor,
            )


def _fused_mine(
    flat: FlatPLT,
    lo: int,
    hi: int,
    min_support: int,
    emit: Emit,
    max_len: int | None,
    governor=None,
) -> None:
    """Fused-engine branch of the top level, for rank spaces above the cap.

    Materialises path dicts only for sum-index keys ``>= lo`` (lower keys
    are never consumed here).  Buckets at keys ``>= hi`` are consumed
    first and emit nothing: their prefixes still owe migration, which
    keeps the supports inside the range exact.  :func:`_mine_paths` then
    runs the top level over ``[lo, hi)``.
    """
    keys, boff = flat.bucket_keys, flat.bucket_offsets
    off, freqs = flat.path_offsets, flat.freqs
    n = 0
    while n < flat.n_buckets and keys[n] >= lo:  # keys are stored descending
        n += 1
    # the kept buckets are a prefix of the columns; slicing one tuple of
    # their cells yields each path tuple directly
    ranks = tuple(flat.ranks[: off[boff[n]]])
    buckets: PathBuckets = {
        keys[b]: {
            ranks[off[p] : off[p + 1]]: freqs[p]
            for p in range(boff[b], boff[b + 1])
        }
        for b in range(n)
    }
    for j in range(flat.max_rank, hi - 1, -1):
        bucket = buckets.pop(j, None)
        if bucket is None:
            continue
        if governor is not None:
            governor.tick(len(bucket))
        for path, freq in bucket.items():
            if len(path) > 1 and path[-2] >= lo:
                key, prefix = path[-2], path[:-1]
                parent = buckets.get(key)
                if parent is None:
                    buckets[key] = {prefix: freq}
                else:
                    parent[prefix] = parent.get(prefix, 0) + freq
    _mine_paths(
        buckets, range(hi - 1, lo - 1, -1), (), min_support, emit, max_len,
        governor=governor, track_top=True,
    )


def _check_args(min_support: int, max_len: int | None) -> None:
    """Reject a support or length cap no mining run can honour."""
    if min_support < 1:
        raise InvalidSupportError(
            f"absolute min_support must be >= 1, got {min_support}"
        )
    if max_len is not None and max_len < 1:
        raise InvalidSupportError(f"max_len must be >= 1, got {max_len}")


def mine_conditional_flat_range(
    flat: FlatPLT,
    lo: int,
    hi: int,
    min_support: int,
    emit: Emit,
    max_len: int | None = None,
    governor=None,
) -> None:
    """Mine every frequent itemset whose maximal rank lies in ``[lo, hi)``.

    Algorithm 3's one top level, over a
    :class:`~repro.core.flat.FlatPLT`'s columns.  Itemsets partition
    exactly by their maximal (top-level) rank, so disjoint ranges mined by
    different workers concatenate into the complete answer with no
    reconciliation, and each range's counts are exact because prefixes
    from every bucket above ``lo`` are still *migrated* (consuming a rank
    ``>= hi`` contributes its prefixes without emitting).

    Takes the dense pair-matrix branch (:func:`_matrix_mine`) when the
    flat's matrix fits its cap, the fused engine (:func:`_fused_mine`)
    otherwise.
    """
    _check_args(min_support, max_len)
    lo = max(1, lo)
    hi = min(hi, flat.max_rank + 1)
    if lo >= hi or flat.n_paths == 0:
        return
    pair_support = flat.pair_support_matrix()
    if pair_support is None:
        _fused_mine(flat, lo, hi, min_support, emit, max_len, governor=governor)
    else:
        _matrix_mine(
            flat.paths_by_length(), pair_support, lo, hi, min_support, emit,
            max_len, governor=governor,
        )


def mine_conditional(
    plt: PLT | FlatPLT,
    min_support: int | None = None,
    *,
    max_len: int | None = None,
    governor=None,
) -> list[tuple[tuple[int, ...], int]]:
    """Mine all frequent itemsets from a PLT (Algorithm 3).

    Mines the whole rank range of the columns through
    :func:`mine_conditional_flat_range`; a :class:`PLT` is lowered with
    :meth:`FlatPLT.from_plt` first, a :class:`FlatPLT` is read as is.

    Parameters
    ----------
    plt:
        The structure built by Algorithm 1, or its columnar lowering.
    min_support:
        Absolute count; defaults to the threshold the PLT was built with.
    max_len:
        Optional cap on itemset length (a standard practical extension).
    governor:
        Optional :class:`~repro.robustness.governor.ResourceGovernor`.
        When its budget trips (or its token is cancelled) the raised
        :class:`~repro.errors.MiningInterrupted` carries ``partial`` (the
        pairs mined so far, exact supports) and
        ``progress["complete_from_rank"]`` — every itemset whose maximal
        rank is >= that value was fully enumerated.

    Returns
    -------
    list of ``(rank_tuple, support)`` where ``rank_tuple`` is sorted
    ascending.  Use the PLT's rank table to decode to item labels.
    """
    if min_support is None:
        min_support = plt.min_support

    results: list[tuple[tuple[int, ...], int]] = []
    # the engine constructs every itemset in ascending rank order (it
    # prepends the strictly smaller extension rank), so no per-emission
    # sort is needed
    if governor is None:
        def emit(itemset: tuple[int, ...], support: int) -> None:
            results.append((itemset, support))
    else:
        governor.start()

        def emit(itemset: tuple[int, ...], support: int) -> None:
            # cap check first, so partial results never exceed the cap
            governor.note_itemsets()
            results.append((itemset, support))

    flat = plt if isinstance(plt, FlatPLT) else FlatPLT.from_plt(plt)
    try:
        mine_conditional_flat_range(
            flat, 1, flat.max_rank + 1, min_support, emit, max_len,
            governor=governor,
        )
        return results
    except MiningInterrupted as exc:
        # everything emitted has its exact support; ranks strictly above
        # the one in flight were mined to completion
        exc.partial = results
        mining_rank = governor.progress.get("mining_rank") if governor else None
        if mining_rank is not None:
            exc.progress.setdefault("complete_from_rank", mining_rank + 1)
        raise
