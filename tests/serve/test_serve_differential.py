"""Differential tests: the serving engine vs. the direct miners.

The daemon's contract is *bit-for-bit* agreement with the library it
fronts: a frequency answer equals :meth:`PLT.support_of`, a conditional
top-k answer equals filtering a full :func:`mine_frequent_itemsets` run,
a rules answer equals :func:`rules_from_result` — across 20 seeded
databases, with the cache cold, warm, and disabled, and with budget
trips marked exactly as :class:`PartialResult` marks them.  An index
loaded off a store answers and snapshots exactly like one built from the
database, and no loaded index keeps a PLT alive.
"""

from __future__ import annotations

import gc
from types import ModuleType

import pytest

from repro.apps.classifier import first_matching_rule
from repro.compress.store import PLTStore
from repro.core.mining import mine_frequent_itemsets
from repro.core.plt import PLT
from repro.core.rank import sort_key
from repro.data.quest import generate_quest
from repro.rules.generation import rules_from_result
from repro.serve.engine import PatternEngine, ServingIndex, serialize_rule
from repro.serve.snapshot import restore_from_blob, snapshot_blob
from tests.conftest import random_database

SEEDS = range(20)


def _db(seed):
    return random_database(seed + 7000, max_items=10, max_transactions=40)


def _order_key(entry):
    items, support = entry
    return (-support, len(items), [sort_key(i) for i in items])


def _expected_containing(db, min_support, item):
    """Ground truth for topk: filter a direct full mine."""
    result = mine_frequent_itemsets(db, min_support)
    entries = [
        (tuple(fi.items), fi.support) for fi in result if item in set(fi.items)
    ]
    entries.sort(key=_order_key)
    return entries


def _topk_pairs(envelope):
    assert envelope["ok"], envelope
    return [
        (tuple(e["items"]), e["support"]) for e in envelope["result"]["itemsets"]
    ]


class TestFrequencyDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_supports_match_plt(self, seed):
        db = _db(seed)
        s = 2
        engine = PatternEngine(ServingIndex.from_transactions(db, s))
        plt = PLT.from_transactions(db, s)
        table = mine_frequent_itemsets(db, s).as_dict()
        items = sorted(plt.rank_table.items(), key=sort_key)
        # every frequent singleton/pair plus a few larger probes
        probes = [[i] for i in items]
        probes += [[a, b] for a in items[:4] for b in items[4:8] if a != b]
        probes += [items[: min(3, len(items))]]
        for probe in probes:
            env = engine.handle({"op": "frequency", "items": list(probe)})
            assert env["ok"] and env["complete"]
            got = env["result"]
            direct = plt.support_of(frozenset(probe))
            assert got["support"] == direct
            assert got["frequent"] == (frozenset(probe) in table)
            assert got["contained"] == (direct > 0)

    def test_unknown_item_is_not_frequent(self):
        engine = PatternEngine(ServingIndex.from_transactions(_db(0), 2))
        env = engine.handle({"op": "frequency", "items": ["never-seen"]})
        assert env["ok"]
        assert env["result"] == {
            "items": ["never-seen"],
            "known": False,
            "support": None,
            "frequent": False,
            "contained": False,
        }


class TestTopkDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cold_warm_disabled_all_match_direct(self, seed):
        db = _db(seed)
        s = 2
        index = ServingIndex.from_transactions(db, s)
        engine = PatternEngine(index, cache_size=64)
        nocache = PatternEngine(index, cache_size=0, coalesce=False)
        for item in sorted(index.rank_table.items(), key=sort_key):
            expected = _expected_containing(db, s, item)
            cold = engine.handle({"op": "topk", "item": item, "k": None})
            warm = engine.handle({"op": "topk", "item": item, "k": None})
            disabled = nocache.handle({"op": "topk", "item": item, "k": None})
            assert cold["source"] == "miss" and warm["source"] == "hit"
            assert disabled["source"] == "miss"
            for env in (cold, warm, disabled):
                assert env["complete"] is True
                assert _topk_pairs(env) == expected
                assert env["result"]["available"] == len(expected)

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_k_truncates_canonical_order(self, seed):
        db = _db(seed)
        engine = PatternEngine(ServingIndex.from_transactions(db, 2))
        item = sorted(engine.index.rank_table.items(), key=sort_key)[0]
        expected = _expected_containing(db, 2, item)
        env = engine.handle({"op": "topk", "item": item, "k": 3})
        assert _topk_pairs(env) == expected[:3]
        assert env["result"]["available"] == len(expected)

    @pytest.mark.parametrize("seed", [2, 9])
    def test_per_query_min_support(self, seed):
        db = _db(seed)
        engine = PatternEngine(ServingIndex.from_transactions(db, 2))
        item = sorted(engine.index.rank_table.items(), key=sort_key)[0]
        env = engine.handle({"op": "topk", "item": item, "k": None, "min_support": 4})
        assert _topk_pairs(env) == _expected_containing(db, 4, item)

    def test_min_support_below_build_threshold_rejected(self):
        engine = PatternEngine(ServingIndex.from_transactions(_db(1), 3))
        env = engine.handle({"op": "topk", "item": 1, "min_support": 1})
        assert not env["ok"] and env["code"] == "bad_request"

    def test_unknown_item_empty_answer(self):
        engine = PatternEngine(ServingIndex.from_transactions(_db(1), 2))
        env = engine.handle({"op": "topk", "item": "no-such-item"})
        assert env["ok"] and env["complete"]
        assert env["result"]["itemsets"] == [] and env["result"]["available"] == 0


class TestBudgetTrips:
    """Budget-tripped answers carry PartialResult markers, exactly."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_itemset_cap_partial_is_exact_subset(self, seed):
        db = _db(seed)
        s = 2
        engine = PatternEngine(ServingIndex.from_transactions(db, s))
        item = sorted(engine.index.rank_table.items(), key=sort_key)[0]
        expected = dict(
            (it, sup) for it, sup in _expected_containing(db, s, item)
        )
        cap = 2
        env = engine.handle(
            {"op": "topk", "item": item, "k": None, "budget": {"max_itemsets": cap}}
        )
        assert env["ok"]
        pairs = _topk_pairs(env)
        if len(expected) <= cap:
            assert env["complete"] is True
            assert dict(pairs) == expected
        else:
            assert env["complete"] is False
            assert env["stop_reason"] == "max_itemsets"
            assert 0 < len(pairs) <= cap
            # exact supports, never estimates
            for it, sup in pairs:
                assert expected[it] == sup

    def test_partial_answers_are_never_cached(self):
        db = _db(3)
        engine = PatternEngine(ServingIndex.from_transactions(db, 2))
        item = sorted(engine.index.rank_table.items(), key=sort_key)[0]
        expected = _expected_containing(db, 2, item)
        assert len(expected) > 1, "seed must yield a trippable answer"
        tripped = engine.handle(
            {"op": "topk", "item": item, "k": None, "budget": {"max_itemsets": 1}}
        )
        assert tripped["complete"] is False
        # the partial must not poison later unbudgeted queries
        clean = engine.handle({"op": "topk", "item": item, "k": None})
        assert clean["source"] == "miss"  # nothing was cached by the trip
        assert clean["complete"] is True
        assert _topk_pairs(clean) == expected
        # ... and the complete answer satisfies any later budget from cache
        budgeted = engine.handle(
            {"op": "topk", "item": item, "k": None, "budget": {"max_itemsets": 1}}
        )
        assert budgeted["source"] == "hit"
        assert budgeted["complete"] is True
        assert _topk_pairs(budgeted) == expected

    def test_rules_budget_trip_is_an_error_not_wrong_rules(self):
        db = _db(4)
        engine = PatternEngine(ServingIndex.from_transactions(db, 2))
        env = engine.handle(
            {"op": "rules", "min_confidence": 0.5, "budget": {"max_itemsets": 1}}
        )
        # a partial support table is not downward closed; serving rules
        # from it would fabricate confidences
        assert not env["ok"]
        assert env["code"] == "budget"
        assert env["stop_reason"] == "max_itemsets"


class TestRulesDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rules_match_direct_generation(self, seed):
        db = _db(seed)
        s, conf = 2, 0.6
        engine = PatternEngine(ServingIndex.from_transactions(db, s))
        expected = [
            serialize_rule(r)
            for r in rules_from_result(mine_frequent_itemsets(db, s), conf)
        ]
        cold = engine.handle({"op": "rules", "min_confidence": conf, "limit": None})
        warm = engine.handle({"op": "rules", "min_confidence": conf, "limit": None})
        assert cold["ok"] and cold["source"] == "miss"
        assert warm["ok"] and warm["source"] == "hit"
        # bit-for-bit: same floats, same order, same fields
        assert cold["result"]["rules"] == expected
        assert warm["result"]["rules"] == expected
        assert cold["result"]["total"] == len(expected)

    @pytest.mark.parametrize("seed", [1, 6, 13])
    def test_recommend_matches_manual_filter(self, seed):
        db = _db(seed)
        s, conf = 2, 0.5
        engine = PatternEngine(ServingIndex.from_transactions(db, s))
        rules = rules_from_result(mine_frequent_itemsets(db, s), conf)
        # pick a basket from the most frequent item
        item = sorted(engine.index.rank_table.items(), key=sort_key)[0]
        basket = frozenset([item])
        candidates = [
            r
            for r in rules
            if frozenset(r.antecedent) <= basket
            and not (frozenset(r.consequent) & basket)
        ]
        best = first_matching_rule(candidates, basket)
        env = engine.handle(
            {"op": "recommend", "basket": [item], "min_confidence": conf, "top": 3}
        )
        assert env["ok"]
        got = env["result"]
        assert got["total_matches"] == len(candidates)
        assert got["recommendations"] == [serialize_rule(r) for r in candidates[:3]]
        if best is None:
            assert got["best"] is None
        else:
            assert got["best"] == serialize_rule(best)


def _quest_db(seed):
    return generate_quest(
        n_transactions=300, n_items=30, n_patterns=15,
        avg_transaction_len=6, avg_pattern_len=3, seed=seed,
    )


class TestStoreModeMatchesDbMode:
    """A daemon loaded off a ``PLTStore`` answers like one built from the db."""

    @pytest.mark.parametrize("seed", range(10))
    def test_answers_and_snapshot_bytes_match(self, tmp_path, seed):
        db = _quest_db(seed + 61)
        s = 15
        direct = ServingIndex.from_transactions(db, s)
        path = PLTStore.write(PLT.from_transactions(db, s), tmp_path / "q.plts")
        stored = ServingIndex.from_store(path)
        assert snapshot_blob(stored) == snapshot_blob(direct)
        engines = PatternEngine(direct), PatternEngine(stored)
        items = sorted(direct.rank_table.items(), key=sort_key)
        requests = [{"op": "frequency", "items": [i]} for i in items]
        requests += [
            {"op": "frequency", "items": [a, b]} for a in items[:6] for b in items[6:12]
        ]
        requests += [{"op": "topk", "item": i, "k": None} for i in items]
        requests.append({"op": "rules", "min_confidence": 0.5, "limit": None})
        for request in requests:
            want, got = (engine.handle(dict(request)) for engine in engines)
            assert want["ok"] and got["ok"], (want, got)
            assert got["result"] == want["result"], request


class TestIndexHoldsOnlyColumns:
    def test_no_plt_reachable(self, tmp_path):
        db = _db(3)
        plt = PLT.from_transactions(db, 2)
        path = PLTStore.write(plt, tmp_path / "r.plts")
        built = ServingIndex.from_transactions(db, 2)
        for index in (built, ServingIndex.from_store(path),
                      restore_from_blob(snapshot_blob(built))):
            seen, todo = set(), [index]
            while todo:
                obj = todo.pop()
                if id(obj) in seen or isinstance(obj, (type, ModuleType)):
                    continue
                seen.add(id(obj))
                assert not isinstance(obj, PLT)
                todo.extend(gc.get_referents(obj))
