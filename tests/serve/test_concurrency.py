"""Concurrency stress: budgets, cancellation, coalescing under threads.

The engine's isolation invariants under concurrent load:

* a query's budget/cancellation govern *that query only* — no leakage
  into concurrent or later queries;
* identical in-flight queries coalesce onto one computation and all
  receive the same answer contents;
* differently-budgeted identical queries never coalesce (a tiny-budget
  leader must not donate a partial answer);
* the cache counters always satisfy ``hits + misses + coalesced ==
  lookups``;
* admission sheds load with ``overloaded`` instead of queueing.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.mining import mine_frequent_itemsets
from repro.core.rank import sort_key
from repro.robustness.governor import CancellationToken
from repro.serve.engine import PatternEngine, ServingIndex
from tests.conftest import random_database


@pytest.fixture(scope="module")
def db():
    return random_database(8800, max_items=10, max_transactions=60)


@pytest.fixture(scope="module")
def index(db):
    return ServingIndex.from_transactions(db, 2)


def _items(index):
    return sorted(index.rank_table.items(), key=sort_key)


def _expected(db, item):
    result = mine_frequent_itemsets(db, 2)
    entries = [(tuple(fi.items), fi.support) for fi in result if item in set(fi.items)]
    entries.sort(key=lambda e: (-e[1], len(e[0]), [sort_key(i) for i in e[0]]))
    return entries


def _pairs(envelope):
    return [(tuple(e["items"]), e["support"]) for e in envelope["result"]["itemsets"]]


class _BlockingEngine(PatternEngine):
    """Engine whose conditional compute parks until released (tests)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.release = threading.Event()
        self.entered = threading.Event()

    def _conditional_compute(self, rank, min_support, governor):
        self.entered.set()
        assert self.release.wait(30.0), "test never released the blocked compute"
        return super()._conditional_compute(rank, min_support, governor)


class TestMixedStress:
    def test_many_threads_mixed_queries_all_exact(self, db, index):
        engine = PatternEngine(index, cache_size=32, max_inflight=16)
        items = _items(index)
        expected = {item: _expected(db, item) for item in items}
        n_threads = 12
        per_thread = 8
        failures: list = []

        def worker(tid):
            try:
                for i in range(per_thread):
                    item = items[(tid + i) % len(items)]
                    kind = (tid + i) % 3
                    if kind == 0:
                        env = engine.handle({"op": "topk", "item": item, "k": None})
                        assert env["ok"] and env["complete"], env
                        assert _pairs(env) == expected[item]
                    elif kind == 1:
                        env = engine.handle(
                            {
                                "op": "topk",
                                "item": item,
                                "k": None,
                                "budget": {"max_itemsets": 1},
                            }
                        )
                        assert env["ok"], env
                        got = _pairs(env)
                        if env["complete"]:
                            assert got == expected[item]
                        else:
                            # tiny budget: a strict prefix-by-content subset
                            # with exact supports, never more than the cap
                            assert 0 < len(got) <= 1
                            assert all(
                                dict(expected[item])[it] == sup for it, sup in got
                            )
                    else:
                        env = engine.handle({"op": "frequency", "items": [item]})
                        assert env["ok"] and env["complete"], env
            except Exception as exc:  # pragma: no cover - failure path
                failures.append((tid, exc))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not failures, failures[:3]
        stats = engine.cache.stats()
        assert stats.hits + stats.misses + stats.coalesced == stats.lookups
        assert engine.admission.stats()["inflight"] == 0

    def test_precancelled_tokens_do_not_leak(self, db, index):
        engine = PatternEngine(index, cache_size=32)
        item = _items(index)[0]
        expected = _expected(db, item)
        cancelled_envs: list = []
        clean_envs: list = []

        def cancelled_worker():
            token = CancellationToken()
            token.cancel("client disconnected")
            cancelled_envs.append(
                engine.handle(
                    {"op": "topk", "item": item, "k": None}, cancel=token
                )
            )

        def clean_worker():
            clean_envs.append(engine.handle({"op": "topk", "item": item, "k": None}))

        threads = [threading.Thread(target=cancelled_worker) for _ in range(4)]
        threads += [threading.Thread(target=clean_worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert len(cancelled_envs) == 4 and len(clean_envs) == 4
        for env in cancelled_envs:
            # a pre-cancelled token stops its own query immediately...
            assert env["ok"] and env["complete"] is False
            assert env["stop_reason"] == "cancelled"
            assert env["result"]["itemsets"] == []
        for env in clean_envs:
            # ...and never touches anyone else's
            assert env["ok"] and env["complete"] is True
            assert _pairs(env) == expected
        # cancelled partials were not cached; the cached entry is complete
        later = engine.handle({"op": "topk", "item": item, "k": None})
        assert later["complete"] is True and _pairs(later) == expected


class TestCoalescing:
    def test_identical_inflight_queries_coalesce_to_one_compute(self, db, index):
        engine = _BlockingEngine(index, cache_size=32, max_inflight=16)
        item = _items(index)[0]
        expected = _expected(db, item)
        n = 6
        envs: list = []
        lock = threading.Lock()

        def worker():
            env = engine.handle({"op": "topk", "item": item, "k": None})
            with lock:
                envs.append(env)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        assert engine.entered.wait(15.0)
        # wait for every follower to park on the leader's flight
        deadline = threading.Event()
        for _ in range(300):
            if engine.cache.stats().coalesced == n - 1:
                break
            deadline.wait(0.05)
        assert engine.cache.stats().coalesced == n - 1
        assert engine.cache.inflight() == 1
        engine.release.set()
        for t in threads:
            t.join(30.0)
        assert len(envs) == n
        sources = sorted(e["source"] for e in envs)
        assert sources == ["coalesced"] * (n - 1) + ["miss"]
        for env in envs:
            # coalesced duplicates receive the same answer contents
            assert env["ok"] and env["complete"]
            assert _pairs(env) == expected
        stats = engine.cache.stats()
        assert stats.misses == 1 and stats.coalesced == n - 1
        assert stats.hits + stats.misses + stats.coalesced == stats.lookups

    def test_different_budgets_never_coalesce(self, db, index):
        engine = _BlockingEngine(index, cache_size=32, max_inflight=16)
        engine.release.set()  # no blocking needed; keys are what's under test
        item = _items(index)[0]
        a = engine.handle(
            {"op": "topk", "item": item, "k": None, "budget": {"max_itemsets": 1}}
        )
        b = engine.handle({"op": "topk", "item": item, "k": None})
        # both were computed (miss), not coalesced/hit off each other:
        # the partial was not cached, and budget-qualified flight keys
        # keep the computations separate even when concurrent
        assert a["source"] == "miss" and b["source"] == "miss"
        assert b["complete"] is True
        stats = engine.cache.stats()
        assert stats.coalesced == 0 and stats.misses == 2

    def test_coalesce_disabled_computes_independently(self, db, index):
        engine = PatternEngine(index, cache_size=0, coalesce=False)
        item = _items(index)[0]
        expected = _expected(db, item)
        envs: list = []
        lock = threading.Lock()

        def worker():
            env = engine.handle({"op": "topk", "item": item, "k": None})
            with lock:
                envs.append(env)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert all(e["source"] == "miss" for e in envs)
        assert all(_pairs(e) == expected for e in envs)
        stats = engine.cache.stats()
        assert stats.misses == 4 and stats.coalesced == 0 and stats.hits == 0


class TestAdmission:
    def test_overload_sheds_with_error_envelope(self, db, index):
        engine = _BlockingEngine(index, cache_size=0, coalesce=False, max_inflight=1)
        items = _items(index)
        assert len(items) >= 2

        blocked_env: list = []

        def blocked_worker():
            blocked_env.append(
                engine.handle({"op": "topk", "item": items[0], "k": None})
            )

        t = threading.Thread(target=blocked_worker)
        t.start()
        assert engine.entered.wait(15.0)
        # the lone slot is held; a different query must be shed, not queued
        shed = engine.handle({"op": "topk", "item": items[1], "k": None})
        assert not shed["ok"] and shed["code"] == "overloaded"
        engine.release.set()
        t.join(30.0)
        assert blocked_env and blocked_env[0]["ok"]
        stats = engine.admission.stats()
        assert stats["rejected"] == 1
        assert stats["inflight"] == 0


class TestFirstRulesQueries:
    """The first rules queries mine the shared columns from several threads."""

    def test_two_support_levels_at_once_match_serial(self, db):
        levels = [
            {"op": "rules", "min_support": s, "min_confidence": 0.5, "limit": None}
            for s in (2, 3)
        ]
        serial_engine = PatternEngine(ServingIndex.from_transactions(db, 2))
        serial = [serial_engine.handle(dict(r))["result"] for r in levels]
        # two threads per level: more threads than cores, and identical
        # queries coalescing while the other level mines alongside
        requests = levels * 2
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _round in range(5):
                engine = PatternEngine(ServingIndex.from_transactions(db, 2))
                barrier = threading.Barrier(len(requests))
                answers: list = [None] * len(requests)

                def worker(slot):
                    barrier.wait(10.0)
                    answers[slot] = engine.handle(dict(requests[slot]))

                threads = [
                    threading.Thread(target=worker, args=(slot,))
                    for slot in range(len(requests))
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30.0)
                    assert not t.is_alive()
                assert all(env["ok"] for env in answers), answers
                assert [env["result"] for env in answers] == serial * 2
        finally:
            sys.setswitchinterval(old_interval)
