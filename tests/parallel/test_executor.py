"""Tests for the multiprocessing executors (exactness, not speed)."""

import os
import time
import warnings

import pytest

from repro.core.conditional import mine_conditional
from repro.core.plt import PLT
from repro.core.topdown import topdown_subset_frequencies
from repro.errors import (
    DegradedExecutionWarning,
    InvalidSupportError,
    ParallelExecutionError,
    TopDownExplosionError,
)
from repro.parallel.executor import (
    _run_batches,
    default_workers,
    mine_parallel,
    topdown_parallel,
)
from repro.robustness.retry import RetryPolicy
from tests.conftest import random_database

NO_WAIT = RetryPolicy(max_retries=1, base_delay=0.0, max_delay=0.0)


# -- module-level workers: picklable, and (via the parent-pid guard) able to
# -- misbehave only inside pool processes, so the in-process fallback works
def _double(batch):
    parent_pid, value = batch
    return value * 2


def _wedge_in_child(batch):
    parent_pid, value = batch
    if os.getpid() != parent_pid:
        time.sleep(60)  # wedged worker: never returns within the deadline
    return value * 2


def _die_in_child(batch):
    parent_pid, value = batch
    if os.getpid() != parent_pid:
        os._exit(13)  # killed worker: the pool never gets a result back
    return value * 2


def _raise_in_child(batch):
    parent_pid, value = batch
    if os.getpid() != parent_pid:
        raise ValueError("flaky worker")
    return value * 2


def _always_raise(batch):
    raise ValueError("broken batch")


class TestMineParallel:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_matches_serial(self, paper_plt, n_workers):
        serial = sorted(mine_conditional(paper_plt, 2))
        parallel = sorted(mine_parallel(paper_plt, 2, n_workers=n_workers))
        assert parallel == serial

    @pytest.mark.parametrize("seed", range(4))
    def test_random_databases(self, seed):
        db = random_database(seed + 700, max_items=9, max_transactions=40)
        plt = PLT.from_transactions(db, 2)
        serial = sorted(mine_conditional(plt, 2))
        assert sorted(mine_parallel(plt, 2, n_workers=2)) == serial

    def test_max_len_propagates(self, paper_plt):
        pairs = mine_parallel(paper_plt, 2, n_workers=2, max_len=1)
        assert all(len(r) == 1 for r, _ in pairs)

    def test_empty_plt(self):
        plt = PLT.from_transactions([], 1)
        assert mine_parallel(plt, 1, n_workers=2) == []

    def test_default_support_from_plt(self, paper_plt):
        assert sorted(mine_parallel(paper_plt, n_workers=1)) == sorted(
            mine_conditional(paper_plt, 2)
        )

    def test_single_worker_stays_in_process(self, paper_plt, monkeypatch):
        # poisoning Pool proves the n_workers=1 path never spawns
        import multiprocessing

        def boom(*a, **k):  # pragma: no cover - must not be called
            raise AssertionError("Pool must not be used for one worker")

        monkeypatch.setattr(multiprocessing, "Pool", boom)
        result = mine_parallel(paper_plt, 2, n_workers=1)
        assert len(result) == 13

    def test_facade_method(self, paper_db):
        from repro.core.mining import mine_frequent_itemsets

        a = mine_frequent_itemsets(paper_db, 2, method="plt-parallel", n_workers=2)
        b = mine_frequent_itemsets(paper_db, 2, method="plt")
        assert a == b

    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_invalid_arguments_rejected_at_the_driver(
        self, paper_plt, transport, n_workers
    ):
        # a worker-side rejection would surface as retries, a degraded-
        # execution warning and a ParallelExecutionError instead
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedExecutionWarning)
            with pytest.raises(InvalidSupportError, match="min_support"):
                mine_parallel(
                    paper_plt, 0, n_workers=n_workers, transport=transport
                )
            with pytest.raises(InvalidSupportError, match="max_len"):
                mine_parallel(
                    paper_plt, 2, n_workers=n_workers, transport=transport,
                    max_len=0,
                )


class TestTopdownParallel:
    def test_matches_serial(self, paper_plt):
        serial = topdown_subset_frequencies(paper_plt)
        parallel = topdown_parallel(paper_plt, n_workers=2)
        assert parallel == serial

    @pytest.mark.parametrize("seed", range(3))
    def test_random(self, seed):
        db = random_database(seed + 800, max_items=8, max_transactions=30)
        plt = PLT.from_transactions(db, 1)
        assert topdown_parallel(plt, n_workers=3) == topdown_subset_frequencies(plt)

    def test_work_limit_guard(self):
        plt = PLT.from_transactions([tuple(range(30))], 1)
        with pytest.raises(TopDownExplosionError):
            topdown_parallel(plt, n_workers=2, work_limit=100)

    def test_empty(self):
        plt = PLT.from_transactions([], 1)
        assert topdown_parallel(plt, n_workers=2) == {}


class TestHardening:
    """Wedged, killed, or crashing workers must not hang or corrupt runs."""

    def batches(self, n=2):
        return [(os.getpid(), v) for v in range(1, n + 1)]

    def test_healthy_batches_run_in_pool(self):
        assert _run_batches(
            _double, self.batches(3), timeout=30.0, retry=NO_WAIT, what="t"
        ) == [2, 4, 6]

    def test_wedged_worker_times_out_then_degrades(self):
        with pytest.warns(DegradedExecutionWarning, match="degrading"):
            results = _run_batches(
                _wedge_in_child,
                self.batches(),
                timeout=0.75,
                retry=RetryPolicy(max_retries=0, base_delay=0.0, max_delay=0.0),
                what="wedge-test",
            )
        assert results == [2, 4]

    def test_killed_worker_times_out_then_degrades(self):
        with pytest.warns(DegradedExecutionWarning):
            results = _run_batches(
                _die_in_child, self.batches(), timeout=0.75,
                retry=RetryPolicy(max_retries=0, base_delay=0.0, max_delay=0.0),
                what="kill-test",
            )
        assert results == [2, 4]

    def test_lost_worker_reported_as_worker_lost(self):
        # the degraded-mode warning must say a worker was lost (taxonomy:
        # WorkerLostError), not just that some deadline passed
        with pytest.warns(DegradedExecutionWarning, match="worker wedged or"):
            results = _run_batches(
                _die_in_child, self.batches(), timeout=0.75,
                retry=RetryPolicy(max_retries=0, base_delay=0.0, max_delay=0.0),
                what="lost-test",
            )
        assert results == [2, 4]

    def test_worker_lost_error_carries_batch_rank(self):
        from repro.errors import WorkerLostError
        from repro.parallel.executor import _batch_rank

        # mining batches: ([(rank, support, prefixes), ...], min_sup, max_len)
        assert _batch_rank(([(7, 3, {})], 2, None)) == 7
        # top-down batches carry a vector table: no rank to report
        assert _batch_rank(({(1, 2): 3}, 0)) is None
        err = WorkerLostError("lost", rank=7)
        assert err.rank == 7 and err.node_id == 7

    def test_worker_exception_retried_then_degrades(self):
        with pytest.warns(DegradedExecutionWarning, match="flaky worker"):
            results = _run_batches(
                _raise_in_child, self.batches(), timeout=30.0, retry=NO_WAIT,
                what="raise-test",
            )
        assert results == [2, 4]

    def test_genuinely_broken_batch_raises_after_fallback(self):
        with pytest.warns(DegradedExecutionWarning):
            with pytest.raises(ParallelExecutionError, match="even in-process"):
                _run_batches(
                    _always_raise, self.batches(), timeout=30.0, retry=NO_WAIT,
                    what="broken-test",
                )

    def test_mine_parallel_accepts_timeout_and_retry(self, paper_plt):
        pairs = mine_parallel(
            paper_plt, 2, n_workers=2, timeout=60.0, retry=NO_WAIT
        )
        assert sorted(pairs) == sorted(mine_conditional(paper_plt, 2))

    def test_topdown_parallel_accepts_timeout_and_retry(self, paper_plt):
        assert topdown_parallel(
            paper_plt, n_workers=2, timeout=60.0, retry=NO_WAIT
        ) == topdown_subset_frequencies(paper_plt)


class TestDefaults:
    def test_default_workers_bounds(self):
        w = default_workers()
        assert 1 <= w <= 8


class _CountingPoolFactory:
    """Wraps the default pool factory and counts constructions."""

    def __init__(self):
        import multiprocessing as mp

        self._mp = mp
        self.count = 0

    def __call__(self, n_processes):
        self.count += 1
        return self._mp.Pool(processes=n_processes)


class TestPoolReuse:
    """One pool must serve every retry round unless a worker died.

    Regression guard for the per-round ``mp.Pool`` churn ``_run_batches``
    used to exhibit: spawning a fresh pool per attempt paid fork+teardown
    on every retry even when the incumbent workers were perfectly
    healthy.
    """

    def batches(self, n=2):
        return [(os.getpid(), v) for v in range(1, n + 1)]

    def test_healthy_run_builds_one_pool(self):
        factory = _CountingPoolFactory()
        assert _run_batches(
            _double, self.batches(3), timeout=30.0, retry=NO_WAIT,
            what="count-test", pool_factory=factory,
        ) == [2, 4, 6]
        assert factory.count == 1

    def test_worker_exception_reuses_the_pool(self):
        # a raise inside a worker leaves the pool healthy: both the retry
        # round and the first round must run in the SAME pool
        factory = _CountingPoolFactory()
        with pytest.warns(DegradedExecutionWarning, match="flaky worker"):
            results = _run_batches(
                _raise_in_child, self.batches(), timeout=30.0, retry=NO_WAIT,
                what="reuse-test", pool_factory=factory,
            )
        assert results == [2, 4]
        assert factory.count == 1

    def test_dead_worker_forces_a_fresh_pool(self):
        # a SIGKILLed/exited worker poisons the pool: the retry round must
        # build a new one instead of dispatching into a broken pool
        factory = _CountingPoolFactory()
        with pytest.warns(DegradedExecutionWarning):
            results = _run_batches(
                _die_in_child, self.batches(), timeout=0.75,
                retry=RetryPolicy(max_retries=1, base_delay=0.0, max_delay=0.0),
                what="dead-pool-test", pool_factory=factory,
            )
        assert results == [2, 4]
        assert factory.count == 2
