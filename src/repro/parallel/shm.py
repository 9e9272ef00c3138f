"""Zero-copy shared-memory transport for the multiprocessing executors.

The pickle transport ships every task's conditional database (or vector
slice) through the pool's result pipe — for a 5k-transaction database
that is hundreds of kilobytes per dispatch round, and profiling shows the
copy, not the mining, dominating wall clock on moderate databases.  This
transport eliminates the copy instead of tuning it:

1. the driver lowers the PLT once into a
   :class:`~repro.core.flat.FlatPLT` and places its columns in a single
   ``multiprocessing.shared_memory`` segment;
2. worker processes attach on pool start (a page-table mapping, not a
   copy) and cache the attached view per segment name;
3. tasks shrink to ``(meta, lo, hi, ...)`` tuples — a few hundred bytes —
   and workers mine *index ranges* straight off the shared columns:

   * conditional tasks are top-level **rank ranges** ``[lo, hi)`` run
     through :func:`~repro.core.conditional.mine_conditional_flat_range`;
     itemsets partition exactly by maximal rank, so per-range results
     concatenate with no reconciliation;
   * top-down tasks are stored-**path slices** ``[start, end)`` run
     through the packed byte engine
     (:func:`~repro.core.topdown.topdown_flat_slice`); partial tables
     merge by addition, and workers drop their (redundant, widest)
     length-1 level — the driver reconstitutes it exactly from the
     vectorised :meth:`FlatPLT.rank_supports` column pass.

Segment lifecycle: the driver owns the segment and guarantees
``close``/``unlink`` in a ``finally`` — success, worker crash, budget
trip and cancellation all pass through it, so no ``/dev/shm`` entry can
outlive the call.  Workers attach *untracked* (see
:meth:`FlatPLT.attach`), so the resource tracker never double-registers a
segment it does not own and never warns at exit.

Failure handling is inherited unchanged from
:func:`~repro.parallel.executor._run_batches` (timeouts, pool-reuse
retries, in-process degraded fallback) — the driver's cache is seeded
with the owner's own view, so even the degraded path mines the flat
columns without a second attach.
"""

from __future__ import annotations

import os
import pickle
import signal
from array import array

from repro.core.conditional import mine_conditional_flat_range
from repro.core.flat import FlatPLT
from repro.core.position import PositionVector, path_to_vector
from repro.core.topdown import _decode_path, topdown_flat_slice
from repro.errors import MiningInterrupted
from repro.parallel.executor import (
    _merge_governed_parts,
    _pairs_from_raw,
    _run_batches,
    _trim_to_cap,
)
from repro.perf.counters import COUNTERS as _COUNTERS
from repro.robustness.governor import ResourceGovernor
from repro.robustness.retry import RetryPolicy

__all__ = [
    "SharedMemoryExecutor",
    "mine_parallel_shm",
    "topdown_parallel_shm",
    "plan_rank_ranges",
    "plan_path_slices",
]

#: Fault-injection hook for the chaos suite: ``"<range-start>:<driver-pid>"``.
#: A pool worker that picks up the task whose first index bound equals
#: ``<range-start>`` SIGKILLs itself — unless it *is* the driver process,
#: because the in-process degraded fallback must survive to produce the
#: answer (and the retry rounds re-kill replacement workers, exercising
#: the whole detection → retry → degrade chain).
CHAOS_KILL_ENV = "REPRO_SHM_CHAOS_KILL"

#: Per-worker cache of attached flat structures, keyed by segment name.
#: Lives for the pool's lifetime; the driver seeds its own entry for the
#: degraded in-process fallback (forked workers inheriting it is harmless
#: — the inherited views map the same shared pages).
_FLAT_CACHE: dict[str, FlatPLT] = {}


def _maybe_chaos_kill(key: int) -> None:
    spec = os.environ.get(CHAOS_KILL_ENV)
    if not spec:
        return
    want, _, driver = spec.partition(":")
    if str(key) == want and str(os.getpid()) != driver:
        os.kill(os.getpid(), signal.SIGKILL)


def _attached_flat(meta: dict) -> FlatPLT:
    name = meta["name"]
    flat = _FLAT_CACHE.get(name)
    if flat is None:
        flat = FlatPLT.attach(meta)
        _FLAT_CACHE[name] = flat
    return flat


def _pool_attach(meta: dict) -> None:
    """Pool initializer: map the segment once per worker process."""
    try:
        _attached_flat(meta)
    except Exception:
        # leave the failure to the first task, where the driver sees it
        # as a batch error and can retry / degrade
        _FLAT_CACHE.pop(meta["name"], None)


# ---------------------------------------------------------------------------
# worker entry points (module level: picklable)
# ---------------------------------------------------------------------------
def _shm_cond_range(args) -> tuple[str, list, str | None]:
    """Mine one top-level rank range off the shared columns.

    Mirrors ``_mine_task_batch_governed``'s return contract —
    ``(status, pairs, reason)`` — on both the governed and ungoverned
    paths, so the driver merges one shape.
    """
    meta, lo, hi, min_support, max_len, budget = args
    _maybe_chaos_kill(lo)
    flat = _attached_flat(meta)
    results: list[tuple[tuple[int, ...], int]] = []
    if budget is None or budget.unlimited():
        def emit(itemset: tuple[int, ...], support: int) -> None:
            results.append((itemset, support))

        mine_conditional_flat_range(flat, lo, hi, min_support, emit, max_len)
        return ("ok", results, None)
    governor = ResourceGovernor(budget).start()

    def emit(itemset: tuple[int, ...], support: int) -> None:
        governor.note_itemsets()
        results.append((itemset, support))

    try:
        mine_conditional_flat_range(
            flat, lo, hi, min_support, emit, max_len, governor=governor
        )
    except MiningInterrupted as exc:
        return ("partial", results, exc.reason)
    return ("ok", results, None)


def _shm_topdown_slice(args) -> dict[int, dict[bytes, int]]:
    """Expand one stored-path slice; returns the packed partial table."""
    meta, start, end = args
    _maybe_chaos_kill(start)
    flat = _attached_flat(meta)
    return topdown_flat_slice(flat, start, end, singletons=False)


# ---------------------------------------------------------------------------
# range planning
# ---------------------------------------------------------------------------
def plan_rank_ranges(
    flat: FlatPLT, min_support: int, n_parts: int
) -> list[tuple[int, int]]:
    """Contiguous top-level rank ranges of roughly equal estimated work.

    Ranges cover ``[first frequent rank, last frequent rank + 1)`` and
    split on cumulative :meth:`FlatPLT.rank_costs` (conditional-database
    volume per rank), so a hot rank region doesn't land on one worker.
    Returns ``[]`` when nothing is frequent.
    """
    supports = flat.rank_supports()
    frequent = [
        r for r in range(1, flat.max_rank + 1) if supports[r] >= min_support
    ]
    if not frequent:
        return []
    n_parts = max(1, min(n_parts, len(frequent)))
    lo_all, hi_all = frequent[0], frequent[-1] + 1
    costs = flat.rank_costs()
    weights = [costs[r] + 1 for r in range(lo_all, hi_all)]
    return _balanced_split(lo_all, weights, n_parts)


def plan_path_slices(flat: FlatPLT, n_parts: int) -> list[tuple[int, int]]:
    """Contiguous stored-path slices balanced by ~``2^len`` expansion cost."""
    n = flat.n_paths
    if n == 0:
        return []
    n_parts = max(1, min(n_parts, n))
    off = flat.path_offsets
    weights = [1 << min(off[p + 1] - off[p], 30) for p in range(n)]
    return _balanced_split(0, weights, n_parts)


def _balanced_split(
    base: int, weights: list[int], n_parts: int
) -> list[tuple[int, int]]:
    """Split ``[base, base + len(weights))`` into ``n_parts`` contiguous
    ranges of roughly equal total weight (every range non-empty)."""
    end = base + len(weights)
    target = sum(weights) / n_parts
    ranges: list[tuple[int, int]] = []
    acc = 0.0
    lo = base
    for idx, weight in enumerate(weights):
        acc += weight
        nxt = base + idx + 1
        if acc >= target and len(ranges) < n_parts - 1 and nxt < end:
            ranges.append((lo, nxt))
            lo = nxt
            acc = 0.0
    ranges.append((lo, end))
    return ranges


# ---------------------------------------------------------------------------
# the executor and its drivers
# ---------------------------------------------------------------------------
class SharedMemoryExecutor:
    """Owns one shared FlatPLT segment plus the pool plumbing to mine it.

    Construction copies the columns into the segment once and seeds the
    driver's attach cache with the owning view (so the degraded
    in-process fallback runs with no extra mapping).  ``pool_factory``
    plugs into :func:`_run_batches` and builds pools whose initializer
    attaches every worker before its first task.  :meth:`close` is
    idempotent and must run in a ``finally`` — it unmaps, unlinks, and
    evicts the cache entry, so no segment can leak on any exit path.
    """

    def __init__(self, flat: FlatPLT) -> None:
        self._shared = flat.to_shared_memory()
        self.meta = self._shared.meta
        _FLAT_CACHE[self.meta["name"]] = self._shared.flat

    @property
    def name(self) -> str:
        return self.meta["name"]

    def pool_factory(self, n_processes: int):
        import multiprocessing as mp

        if _COUNTERS.enabled:
            # the initargs tuple is pickled into every spawned worker —
            # that is real dispatch traffic, charged per process
            _COUNTERS.add(
                "ipc_bytes_sent",
                n_processes
                * len(pickle.dumps((self.meta,), pickle.HIGHEST_PROTOCOL)),
            )
        return mp.Pool(
            processes=n_processes, initializer=_pool_attach, initargs=(self.meta,)
        )

    def close(self) -> None:
        _FLAT_CACHE.pop(self.meta["name"], None)
        self._shared.close()
        self._shared.unlink()


def mine_parallel_shm(
    plt,
    min_support: int,
    *,
    n_workers: int,
    max_len: int | None = None,
    timeout: float | None = None,
    retry: RetryPolicy | None = None,
    governor: ResourceGovernor | None = None,
) -> list[tuple[tuple[int, ...], int]]:
    """Conditional mining over rank ranges on the shm transport.

    Called through ``mine_parallel(transport="shm")``; output and budget
    semantics are identical to the pickle transport (the governed merge
    is literally the same function).
    """
    flat = FlatPLT.from_plt(plt)
    ranges = plan_rank_ranges(flat, min_support, n_workers)
    if not ranges:
        return []
    # one driver-side bincount pass; every range worker reads the matrix
    # off the segment instead of recomputing it over all stored paths
    flat.pair_support_matrix()
    if governor is not None:
        governor.start()
        governor.check_now()
        ship_budget = governor.budget.with_deadline(governor.remaining_time())
    else:
        ship_budget = None
    executor = SharedMemoryExecutor(flat)
    try:
        batches = [
            (executor.meta, lo, hi, min_support, max_len, ship_budget)
            for lo, hi in ranges
        ]
        try:
            parts = _run_batches(
                _shm_cond_range,
                batches,
                timeout=timeout,
                retry=retry,
                what="mine_parallel[shm]",
                governor=governor,
                pool_factory=executor.pool_factory,
            )
        except MiningInterrupted as exc:
            exc.partial = (
                _trim_to_cap(_pairs_from_raw(exc), governor)
                if governor is not None
                else _pairs_from_raw(exc)
            )
            raise
        if governor is None:
            results: list[tuple[tuple[int, ...], int]] = []
            for _status, part, _reason in parts:
                results.extend(part)
            return results
        return _merge_governed_parts(parts, governor, "mine_parallel")
    finally:
        executor.close()


def topdown_parallel_shm(
    plt,
    *,
    n_workers: int,
    timeout: float | None = None,
    retry: RetryPolicy | None = None,
    governor: ResourceGovernor | None = None,
) -> dict[int, dict[PositionVector, int]]:
    """Top-down pass over stored-path slices on the shm transport.

    Called through ``topdown_parallel(transport="shm")`` after its
    work-limit guard and governor arming; like the pickle transport,
    governance is driver-level only and a trip raises with no partial
    (merged tables would hold under-counted sums).
    """
    flat = FlatPLT.from_plt(plt)
    slices = plan_path_slices(flat, n_workers)
    executor = SharedMemoryExecutor(flat)
    try:
        batches = [(executor.meta, start, end) for start, end in slices]
        try:
            parts = _run_batches(
                _shm_topdown_slice,
                batches,
                timeout=timeout,
                retry=retry,
                what="topdown_parallel[shm]",
                governor=governor,
                pool_factory=executor.pool_factory,
            )
        except MiningInterrupted as exc:
            exc.raw_results = []
            exc.partial = []
            raise
        packed: dict[int, dict[bytes, int]] = {}
        for part in parts:
            for length, bucket in part.items():
                target = packed.setdefault(length, {})
                target_get = target.get
                for pb, freq in bucket.items():
                    target[pb] = target_get(pb, 0) + freq
        # the workers all dropped length 1; one vectorised column pass
        # rebuilds the level exactly (singleton subset frequency == rank
        # support), instead of merging the lattice's widest level from
        # every worker's result pickle
        ones = {
            array("I", (rank,)).tobytes(): s
            for rank, s in enumerate(flat.rank_supports())
            if s
        }
        if ones:
            packed[1] = ones
        return {
            length: {
                path_to_vector(_decode_path(pb)): freq
                for pb, freq in bucket.items()
            }
            for length, bucket in packed.items()
        }
    finally:
        executor.close()
