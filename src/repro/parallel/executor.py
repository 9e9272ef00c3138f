"""Multiprocessing executors for PLT mining — hardened against bad pools.

Two exact (not approximate) parallel schemes, following the task
decompositions in :mod:`repro.parallel.partitioner`:

* :func:`mine_parallel` — parallel **conditional** mining.  A sequential
  sweep builds every top-level item's conditional database (cheap), then
  the recursive mining of those databases — where all the time goes — is
  farmed out.  Results concatenate; no reconciliation is needed because
  itemsets are partitioned by their maximal item.
* :func:`topdown_parallel` — parallel **top-down** subset propagation.
  Workers expand disjoint slices of the vector table; the partial subset
  frequency tables merge by addition.

Both fall back to in-process execution for one worker (or tiny inputs),
so results and code paths stay testable without process overhead.  The
pool uses the default start method; tasks and results are plain
picklable dicts/tuples.

Both drivers take ``transport="pickle"`` (ship each task's conditional
database / vector slice through the pool pipe — the default) or
``transport="shm"`` (lower the PLT once into shared-memory columns and
dispatch index ranges; see :mod:`repro.parallel.shm`).  Output is
identical either way; the shm transport exists purely to eliminate the
serialisation copy that dominates pickle dispatch on non-trivial
databases.  Dispatch volume is measured on both transports through the
``ipc_bytes_sent`` perf counter when collection is enabled.

Failure handling (see ``docs/FAULT_TOLERANCE.md``): every batch result is
collected with a per-batch **timeout** instead of a blocking ``pool.map``
— a wedged or killed worker can no longer hang the caller forever.
Failed or timed-out batches are retried per the
:class:`~repro.robustness.retry.RetryPolicy`; the pool is reused across
rounds while it is known-healthy (a worker that merely *raised* is back
on the task queue) and rebuilt only when a round saw a timeout or a torn
pipe — evidence of wedged or dead processes that ``terminate()`` must
reap.  Batches that still fail after the retry budget run in-process
sequentially — degraded but correct — with a
:class:`~repro.errors.DegradedExecutionWarning`.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from collections.abc import Callable, Sequence

from repro.core.conditional import _check_args, mine_conditional_block
from repro.core.plt import PLT
from repro.core.position import PositionVector
from repro.core.topdown import DEFAULT_WORK_LIMIT, estimate_topdown_work
from repro.errors import (
    BudgetExceeded,
    Cancelled,
    DegradedExecutionWarning,
    InvalidParameterError,
    MiningInterrupted,
    ParallelExecutionError,
    TopDownExplosionError,
    WorkerLostError,
)
from repro.perf.counters import COUNTERS as _COUNTERS
from repro.parallel.partitioner import (
    ConditionalTask,
    conditional_tasks,
    lpt_partition,
    split_vectors,
)
from repro.robustness.governor import ResourceGovernor
from repro.robustness.retry import RetryPolicy

__all__ = [
    "mine_parallel",
    "topdown_parallel",
    "default_workers",
    "DEFAULT_BATCH_TIMEOUT",
    "DEFAULT_EXECUTOR_RETRY",
]

#: Per-batch result deadline in seconds.  Generous — it exists to turn
#: "hangs forever on a wedged worker" into "degrades after a bound", not
#: to police slow batches.  Pass ``timeout=None`` to wait indefinitely.
DEFAULT_BATCH_TIMEOUT = 300.0

#: One immediate retry on a fresh pool, then in-process fallback.
DEFAULT_EXECUTOR_RETRY = RetryPolicy(max_retries=1, base_delay=0.0, max_delay=0.0)


def default_workers() -> int:
    """Worker count default: physical parallelism, capped for sanity."""
    return max(1, min(os.cpu_count() or 1, 8))


# ---------------------------------------------------------------------------
# worker entry points (module level: picklable)
# ---------------------------------------------------------------------------
def _mine_task_batch(
    args: tuple[list[tuple[int, int, dict]], int, int | None]
) -> list[tuple[tuple[int, ...], int]]:
    """Mine a batch of conditional tasks; returns (ranks, support) pairs."""
    batch, min_support, max_len = args
    results: list[tuple[tuple[int, ...], int]] = []

    # the path engine emits itemsets already sorted ascending — append raw
    def emit(itemset: tuple[int, ...], support: int) -> None:
        results.append((itemset, support))

    for rank, support, prefixes in batch:
        emit((rank,), support)
        if prefixes and (max_len is None or max_len > 1):
            mine_conditional_block(prefixes, rank, min_support, emit, max_len)
    return results


def _mine_task_batch_governed(
    args: tuple[list[tuple[int, int, dict]], int, int | None, object]
) -> tuple[str, list[tuple[tuple[int, ...], int]], str | None]:
    """Governed worker entry: mine under a shipped :class:`MiningBudget`.

    Cancellation tokens cannot cross process boundaries, so workers get a
    picklable budget copy carrying the driver's *remaining* deadline and
    enforce it with their own governor.  Budget trips never propagate as
    exceptions (custom kwargs don't survive unpickling); the return is
    always ``(status, pairs, reason)`` with ``status`` one of ``"ok"`` /
    ``"partial"`` — every pair carries its exact support either way.
    """
    batch, min_support, max_len, budget = args
    if budget is None or budget.unlimited():
        return ("ok", _mine_task_batch((batch, min_support, max_len)), None)
    governor = ResourceGovernor(budget).start()
    results: list[tuple[tuple[int, ...], int]] = []

    def emit(itemset: tuple[int, ...], support: int) -> None:
        governor.note_itemsets()
        results.append((itemset, support))

    try:
        for rank, support, prefixes in batch:
            governor.progress["mining_rank"] = rank
            governor.tick()
            emit((rank,), support)
            if prefixes and (max_len is None or max_len > 1):
                mine_conditional_block(
                    prefixes, rank, min_support, emit, max_len, governor=governor
                )
    except MiningInterrupted as exc:
        return ("partial", results, exc.reason)
    return ("ok", results, None)


def _topdown_slice(
    args: tuple[dict, int]
) -> dict[int, dict[PositionVector, int]]:
    """Expand a vector-table slice; returns partial subset frequencies."""
    vectors, _ = args
    from repro.core.topdown import topdown_subset_frequencies

    return topdown_subset_frequencies(_shell_plt(vectors), work_limit=None)


def _shell_plt(vectors: dict[PositionVector, int]) -> PLT:
    """A label-less PLT carrying only vectors (enough for top-down)."""
    from repro.core.rank import RankTable

    max_rank = max((sum(v) for v in vectors), default=0)
    table = RankTable(list(range(1, max_rank + 1)), order="shell")
    return PLT.from_vectors(table, vectors, min_support=1)


# ---------------------------------------------------------------------------
# the hardened batch runner
# ---------------------------------------------------------------------------
def _raise_if_tripped(governor: ResourceGovernor, what: str, results: list) -> None:
    """Driver-side trip check between result waits (pool paths only)."""
    cancel = governor.cancel
    if cancel is not None and cancel.cancelled:
        exc: MiningInterrupted = Cancelled(
            f"{what}: mining cancelled: {cancel.reason}", reason="cancelled"
        )
        exc.raw_results = [r for r in results if r is not None]
        raise exc
    remaining_t = governor.remaining_time()
    if remaining_t is not None and remaining_t <= 0:
        exc = BudgetExceeded(
            f"{what}: deadline of {governor.budget.deadline}s exceeded",
            reason="deadline",
        )
        exc.raw_results = [r for r in results if r is not None]
        raise exc


def _batch_rank(batch) -> int | None:
    """First top-level item rank of a mining batch, for error reports.

    Mining batches are ``([(rank, support, prefixes), ...], ...)``;
    top-down batches carry a vector table instead and yield ``None``.
    """
    try:
        rank = batch[0][0][0]
    except (TypeError, LookupError):
        return None
    return rank if isinstance(rank, int) else None


def _run_batches(
    worker: Callable,
    batches: Sequence,
    *,
    timeout: float | None,
    retry: RetryPolicy | None,
    what: str,
    governor: ResourceGovernor | None = None,
    pool_factory: Callable | None = None,
) -> list:
    """Run ``worker(batch)`` for every batch on worker processes, reliably.

    Results are collected with a per-batch deadline via ``AsyncResult.get``
    (``pool.map`` would block forever on a wedged worker).  Failed or
    timed-out batches are retried; one pool is **reused across retry
    rounds** while it is known-healthy — a worker that merely raised an
    exception is already back on the task queue, so respawning the whole
    pool would only pay fork-and-import again.  The pool is rebuilt when a
    round observed a timeout or a torn result pipe (a worker wedged in a
    batch, or dead): ``terminate()`` reaps the old processes first.
    Whatever survives the retry budget runs in-process sequentially under
    a :class:`DegradedExecutionWarning`; an error even then is a genuine
    bug in the batch and is re-raised as :class:`ParallelExecutionError`.

    ``pool_factory`` (``n_processes -> pool``) lets transports customise
    pool construction (the shm transport installs an initializer that
    attaches workers to the shared segment); the default is a plain
    ``mp.Pool``.  When perf counters are enabled, every dispatched batch's
    pickled size is charged to ``ipc_bytes_sent`` — re-sent batches count
    again, because they are in fact sent again.

    With a ``governor``, the result wait is sliced so the driver observes
    its cancellation token and deadline between waits; a trip terminates
    the pool (via the ``finally``) and raises with the results already
    collected attached as ``raw_results``.

    Returns results in batch order.
    """
    import multiprocessing as mp

    if retry is None:
        retry = DEFAULT_EXECUTOR_RETRY
    if pool_factory is None:
        def pool_factory(n_processes: int):
            return mp.Pool(processes=n_processes)
    results: list = [None] * len(batches)
    remaining = list(range(len(batches)))
    last_error: BaseException | None = None
    pool = None
    pool_dirty = False
    try:
        for attempt in range(retry.max_retries + 1):
            if not remaining:
                break
            if attempt:
                pause = retry.delay(attempt, key=what)
                if pause:
                    time.sleep(pause)
            if pool_dirty and pool is not None:
                pool.terminate()
                pool.join()
                pool = None
            if pool is None:
                try:
                    pool = pool_factory(len(remaining))
                except Exception as exc:  # pragma: no cover - resource exhaustion
                    last_error = exc
                    continue
                pool_dirty = False
            failed: list[int] = []
            if _COUNTERS.enabled:
                for i in remaining:
                    _COUNTERS.add(
                        "ipc_bytes_sent",
                        len(pickle.dumps(batches[i], pickle.HIGHEST_PROTOCOL)),
                    )
            handles = [(i, pool.apply_async(worker, (batches[i],))) for i in remaining]
            deadline = None if timeout is None else time.monotonic() + timeout
            for i, handle in handles:
                while True:
                    if governor is not None:
                        _raise_if_tripped(governor, what, results)
                    budget = (
                        None if deadline is None else max(0.0, deadline - time.monotonic())
                    )
                    # slice the wait so a governed driver observes its
                    # token/deadline promptly; ungoverned waits stay whole
                    if governor is not None:
                        slice_budget = 0.05 if budget is None else min(0.05, budget)
                    else:
                        slice_budget = budget
                    try:
                        results[i] = handle.get(slice_budget)
                        break
                    except mp.TimeoutError:
                        if governor is not None and (budget is None or budget > 0):
                            continue
                        failed.append(i)
                        pool_dirty = True  # the worker is still wedged in it
                        # a killed pool worker never errors — its result
                        # just never arrives, so the deadline is also the
                        # worker-loss detector
                        last_error = WorkerLostError(
                            f"{what}: batch {i} exceeded the {timeout}s "
                            "deadline (worker wedged or its process was "
                            "killed)",
                            rank=_batch_rank(batches[i]),
                        )
                        break
                    except (EOFError, ConnectionError, OSError) as exc:
                        # the worker died mid-result (pipe torn down)
                        failed.append(i)
                        pool_dirty = True
                        last_error = WorkerLostError(
                            f"{what}: worker running batch {i} died before "
                            f"returning a result: {exc!r}",
                            rank=_batch_rank(batches[i]),
                        )
                        break
                    except Exception as exc:
                        # the worker survived (it raised) — pool stays usable
                        failed.append(i)
                        last_error = exc
                        break
            remaining = failed
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    if remaining:
        warnings.warn(
            f"{what}: {len(remaining)} of {len(batches)} batches failed on "
            f"worker processes after {retry.max_retries + 1} attempts "
            f"(last error: {last_error}); degrading to in-process execution",
            DegradedExecutionWarning,
            stacklevel=3,
        )
        for i in remaining:
            try:
                results[i] = worker(batches[i])
            except Exception as exc:
                raise ParallelExecutionError(
                    f"{what}: batch {i} failed even in-process: {exc}"
                ) from exc
    return results


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------
def _check_transport(transport: str) -> None:
    if transport not in ("pickle", "shm"):
        raise InvalidParameterError(
            f"unknown transport {transport!r}: expected 'pickle' or 'shm'"
        )


def mine_parallel(
    plt: PLT,
    min_support: int | None = None,
    *,
    n_workers: int | None = None,
    max_len: int | None = None,
    timeout: float | None = DEFAULT_BATCH_TIMEOUT,
    retry: RetryPolicy | None = None,
    governor: ResourceGovernor | None = None,
    transport: str = "pickle",
) -> list[tuple[tuple[int, ...], int]]:
    """Parallel conditional mining; same output as ``mine_conditional``.

    ``timeout`` bounds each batch attempt (seconds; ``None`` disables) and
    ``retry`` sets how many pool retries failed batches get before the
    in-process fallback.  ``transport="shm"`` dispatches rank ranges over
    a shared-memory :class:`~repro.core.flat.FlatPLT` instead of pickling
    conditional databases (identical output; see
    :mod:`repro.parallel.shm`); single-worker and trivial inputs run
    in-process on either transport.

    With a ``governor``: workers receive a budget copy carrying the
    *remaining* deadline and trip themselves; the driver additionally
    polls the cancellation token and deadline between result waits, and
    enforces ``max_itemsets`` on the merged output.  A trip raises
    :class:`~repro.errors.BudgetExceeded` / :class:`~repro.errors.Cancelled`
    carrying every pair collected so far (all exact supports).
    """
    if min_support is None:
        min_support = plt.min_support
    # reject before any pool starts: a worker-side rejection would be
    # retried and degraded like a crash instead of surfacing as itself
    _check_args(min_support, max_len)
    if n_workers is None:
        n_workers = default_workers()
    _check_transport(transport)
    if transport == "shm" and n_workers > 1 and plt.n_vectors() > 1:
        from repro.parallel.shm import mine_parallel_shm

        return mine_parallel_shm(
            plt,
            min_support,
            n_workers=n_workers,
            max_len=max_len,
            timeout=timeout,
            retry=retry,
            governor=governor,
        )
    tasks = conditional_tasks(plt, min_support)
    if not tasks:
        return []
    if n_workers <= 1 or len(tasks) == 1:
        batch = [(t.rank, t.support, t.prefixes) for t in tasks]
        if governor is None:
            return _mine_task_batch((batch, min_support, max_len))
        return _mine_inprocess_governed(batch, min_support, max_len, governor)
    sizes = [t.cost_estimate() for t in tasks]
    bins = lpt_partition(tasks, sizes, n_workers)
    packed = [
        [(t.rank, t.support, t.prefixes) for t in bin_tasks]
        for bin_tasks in bins
        if bin_tasks
    ]
    if governor is None:
        results: list[tuple[tuple[int, ...], int]] = []
        for part in _run_batches(
            _mine_task_batch,
            [(b, min_support, max_len) for b in packed],
            timeout=timeout,
            retry=retry,
            what="mine_parallel",
        ):
            results.extend(part)
        return results
    governor.start()
    governor.check_now()
    ship_budget = governor.budget.with_deadline(governor.remaining_time())
    batches = [(b, min_support, max_len, ship_budget) for b in packed]
    try:
        parts = _run_batches(
            _mine_task_batch_governed,
            batches,
            timeout=timeout,
            retry=retry,
            what="mine_parallel",
            governor=governor,
        )
    except MiningInterrupted as exc:
        exc.partial = _trim_to_cap(_pairs_from_raw(exc), governor)
        raise
    return _merge_governed_parts(parts, governor, "mine_parallel")


def _pairs_from_raw(exc: MiningInterrupted) -> list[tuple[tuple[int, ...], int]]:
    """Salvage mined pairs from the ``(status, pairs, reason)`` results a
    driver-side trip had already collected before raising."""
    pairs: list[tuple[tuple[int, ...], int]] = []
    for entry in getattr(exc, "raw_results", []):
        pairs.extend(entry[1])
    return pairs


def _merge_governed_parts(
    parts: list, governor: ResourceGovernor, what: str
) -> list[tuple[tuple[int, ...], int]]:
    """Merge governed worker returns; enforce the cap; raise on any trip.

    Shared by both transports, so budget semantics cannot drift between
    them: same trim, same ``reason`` precedence, same exception class.
    """
    results: list[tuple[tuple[int, ...], int]] = []
    stop_reason: str | None = None
    for status, part, reason in parts:
        results.extend(part)
        if status == "partial" and stop_reason is None:
            stop_reason = reason
    cap = governor.budget.max_itemsets
    if cap is not None and len(results) > cap:
        del results[cap:]
        if stop_reason is None:
            stop_reason = "max_itemsets"
    governor.itemsets = len(results)
    if stop_reason is not None:
        cls = Cancelled if stop_reason == "cancelled" else BudgetExceeded
        raise cls(
            f"{what}: budget exhausted in worker processes ({stop_reason})",
            reason=stop_reason,
            partial=results,
        )
    return results


def _mine_inprocess_governed(
    batch: list[tuple[int, int, dict]],
    min_support: int,
    max_len: int | None,
    governor: ResourceGovernor,
) -> list[tuple[tuple[int, ...], int]]:
    """Single-worker path under the caller's own governor (shared object)."""
    governor.start()
    results: list[tuple[tuple[int, ...], int]] = []

    def emit(itemset: tuple[int, ...], support: int) -> None:
        governor.note_itemsets()
        results.append((itemset, support))

    try:
        for rank, support, prefixes in batch:
            governor.progress["mining_rank"] = rank
            governor.tick()
            emit((rank,), support)
            if prefixes and (max_len is None or max_len > 1):
                mine_conditional_block(
                    prefixes, rank, min_support, emit, max_len, governor=governor
                )
    except MiningInterrupted as exc:
        exc.partial = results
        raise
    return results


def _trim_to_cap(
    pairs: list[tuple[tuple[int, ...], int]], governor: ResourceGovernor
) -> list[tuple[tuple[int, ...], int]]:
    cap = governor.budget.max_itemsets
    if cap is not None and len(pairs) > cap:
        del pairs[cap:]
    return pairs


def topdown_parallel(
    plt: PLT,
    *,
    n_workers: int | None = None,
    work_limit: int | None = DEFAULT_WORK_LIMIT,
    timeout: float | None = DEFAULT_BATCH_TIMEOUT,
    retry: RetryPolicy | None = None,
    governor: ResourceGovernor | None = None,
    transport: str = "pickle",
) -> dict[int, dict[PositionVector, int]]:
    """Parallel top-down pass; same output as ``topdown_subset_frequencies``.

    ``timeout``/``retry``/``transport`` behave as in :func:`mine_parallel`
    (``"shm"`` dispatches stored-path slices over a shared FlatPLT instead
    of pickled vector tables).

    Governance is driver-level only, and a trip raises with **no**
    partial attached: each worker's table holds partial *sums* for
    vectors shared across slices, so an incomplete merge would report
    under-counted (inexact) frequencies — exactly what governed partials
    promise never to do.
    """
    if n_workers is None:
        n_workers = default_workers()
    _check_transport(transport)
    if work_limit is not None:
        estimate = estimate_topdown_work(plt)
        if estimate > work_limit:
            raise TopDownExplosionError(
                f"top-down pass would generate up to {estimate} subset events "
                f"(work_limit={work_limit})"
            )
    if governor is not None:
        governor.start()
        governor.check_now()
    if transport == "shm" and n_workers > 1 and plt.n_vectors() > 1:
        from repro.parallel.shm import topdown_parallel_shm

        return topdown_parallel_shm(
            plt,
            n_workers=n_workers,
            timeout=timeout,
            retry=retry,
            governor=governor,
        )
    slices = [s for s in split_vectors(plt, n_workers) if s]
    if len(slices) <= 1 or n_workers <= 1:
        if governor is None:
            from repro.core.topdown import topdown_subset_frequencies

            return topdown_subset_frequencies(plt, work_limit=None)
        from repro.core.position import path_to_vector
        from repro.core.topdown import _decode_path, _subset_byte_frequencies

        try:
            counts = _subset_byte_frequencies(plt, governor=governor)
        except MiningInterrupted as exc:
            governor.progress.pop("_topdown_counts", None)
            exc.partial = []
            raise
        governor.progress.pop("_topdown_counts", None)
        return {
            length: {
                path_to_vector(_decode_path(pb)): freq for pb, freq in bucket.items()
            }
            for length, bucket in counts.items()
        }
    merged: dict[int, dict[PositionVector, int]] = {}
    try:
        parts = _run_batches(
            _topdown_slice,
            [(s, 0) for s in slices],
            timeout=timeout,
            retry=retry,
            what="topdown_parallel",
            governor=governor,
        )
    except MiningInterrupted as exc:
        exc.raw_results = []
        exc.partial = []
        raise
    for partial in parts:
        for length, bucket in partial.items():
            target = merged.setdefault(length, {})
            for vec, freq in bucket.items():
                target[vec] = target.get(vec, 0) + freq
    return merged
