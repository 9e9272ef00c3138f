"""Tests for the high-level facade (mine_frequent_itemsets / MiningResult)."""

import pickle

import pytest

from repro.core.mining import (
    METHODS,
    FrequentItemset,
    MiningResult,
    mine_frequent_itemsets,
)
from repro.data.transaction_db import TransactionDatabase
from repro.errors import InvalidSupportError, ReproError

DB = [
    {"a", "b"},
    {"a", "b", "c"},
    {"a", "c"},
    {"a"},
]


class TestFacade:
    def test_default_method_is_plt(self):
        result = mine_frequent_itemsets(DB, 2)
        assert result.method == "plt"

    def test_unknown_method(self):
        with pytest.raises(ReproError, match="unknown mining method"):
            mine_frequent_itemsets(DB, 2, method="magic")

    def test_relative_support_resolved(self):
        result = mine_frequent_itemsets(DB, 0.5)
        assert result.min_support == 2

    def test_invalid_support(self):
        with pytest.raises(InvalidSupportError):
            mine_frequent_itemsets(DB, 0)
        with pytest.raises(InvalidSupportError):
            mine_frequent_itemsets(DB, -0.5)
        with pytest.raises(InvalidSupportError):
            mine_frequent_itemsets(DB, "2")

    @pytest.mark.parametrize("method", ["plt", "plt-parallel"])
    def test_invalid_max_len(self, method):
        with pytest.raises(InvalidSupportError, match="max_len"):
            mine_frequent_itemsets(DB, 2, method=method, max_len=0)

    def test_accepts_transaction_database(self):
        db = TransactionDatabase(DB)
        assert mine_frequent_itemsets(db, 2) == mine_frequent_itemsets(DB, 2)

    def test_accepts_generator_input(self):
        result = mine_frequent_itemsets((t for t in DB), 2)
        assert result.support_of({"a"}) == 4

    def test_empty_database(self):
        result = mine_frequent_itemsets([], 1)
        assert len(result) == 0
        assert result.n_transactions == 0

    def test_all_methods_registered(self):
        assert {"plt", "plt-conditional", "plt-topdown", "plt-parallel"} <= set(METHODS)
        assert {"apriori", "fpgrowth", "eclat", "declat", "hmine", "bruteforce"} <= set(
            METHODS
        )

    def test_plt_conditional_alias(self):
        a = mine_frequent_itemsets(DB, 2, method="plt")
        b = mine_frequent_itemsets(DB, 2, method="plt-conditional")
        assert a == b

    def test_order_policy_does_not_change_result(self):
        base = mine_frequent_itemsets(DB, 2).as_dict()
        for order in ("support_asc", "support_desc"):
            assert mine_frequent_itemsets(DB, 2, order=order).as_dict() == base

    def test_max_len_cap(self):
        result = mine_frequent_itemsets(DB, 1, max_len=1)
        assert all(len(fi) == 1 for fi in result)


class TestFrequentItemset:
    def test_basic_protocol(self):
        fi = FrequentItemset(("a", "b"), 3)
        assert len(fi) == 2
        assert "a" in fi and "z" not in fi
        assert fi.as_frozenset() == frozenset("ab")

    def test_relative_support(self):
        fi = FrequentItemset(("a",), 3)
        assert fi.relative_support(6) == 0.5
        with pytest.raises(ValueError):
            fi.relative_support(0)

    def test_frozen(self):
        fi = FrequentItemset(("a",), 1)
        with pytest.raises(AttributeError):
            fi.support = 2

    def test_slotted_with_value_semantics(self):
        fi = FrequentItemset(("a", "b"), 3)
        assert not hasattr(fi, "__dict__")
        assert fi == FrequentItemset(("a", "b"), 3) != FrequentItemset(("a",), 3)
        assert hash(fi) == hash(FrequentItemset(("a", "b"), 3))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(fi, protocol))
            assert clone == fi and clone.items == ("a", "b") and clone.support == 3


class TestMiningResult:
    @pytest.fixture
    def result(self):
        return mine_frequent_itemsets(DB, 2)

    def test_sequence_protocol(self, result):
        assert len(result) > 0
        assert isinstance(result[0], FrequentItemset)
        assert list(iter(result))

    def test_sorted_by_size_then_items(self, result):
        keys = [(len(fi), fi.items) for fi in result]
        assert keys == sorted(keys)

    def test_as_dict(self, result):
        table = result.as_dict()
        assert table[frozenset("a")] == 4
        assert table[frozenset("ab")] == 2

    def test_itemsets_of_size(self, result):
        singles = result.itemsets_of_size(1)
        assert {fi.items[0] for fi in singles} == {"a", "b", "c"}

    def test_sizes_histogram(self, result):
        sizes = result.sizes()
        assert sizes[1] == 3
        assert sum(sizes.values()) == len(result)

    def test_support_of(self, result):
        assert result.support_of({"a", "c"}) == 2
        assert result.support_of({"q"}) is None

    def test_support_of_agrees_with_as_dict_and_builds_once(self, monkeypatch):
        result = mine_frequent_itemsets(DB, 1)
        table = {frozenset(fi.items): fi.support for fi in result}
        calls = []
        real = FrequentItemset.as_frozenset
        monkeypatch.setattr(
            FrequentItemset, "as_frozenset", lambda fi: calls.append(1) or real(fi)
        )
        for itemset, support in table.items():
            assert result.support_of(itemset) == support
        assert result.support_of({"a", "q"}) is None
        assert result.as_dict() == table
        assert len(calls) == len(result)  # one build, then lookups only
        result.as_dict()[frozenset("a")] = -1  # callers get a copy
        assert result.support_of({"a"}) == table[frozenset("a")]

    def test_from_ranks_matches_the_sorting_constructor(self):
        from repro.core.plt import PLT
        from repro.core.rank import sort_key

        plt = PLT.from_transactions(DB, 1, order="support_desc")
        pairs = [((3, 1), 1), ((1,), 4), ((2,), 2), ((1, 3), 1)]
        built = MiningResult.from_ranks(
            pairs, plt.rank_table, n_transactions=4, min_support=1, method="x"
        )
        decoded = {
            frozenset(plt.rank_table.decode_ranks(r)): s for r, s in pairs
        }
        sorted_ = MiningResult(
            [FrequentItemset(tuple(sorted(i, key=sort_key)), s) for i, s in decoded.items()],
            n_transactions=4, min_support=1, method="x",
        )
        assert list(built) == list(sorted_)
        assert (built.n_transactions, built.min_support, built.method) == (4, 1, "x")

    def test_semantic_equality(self):
        a = mine_frequent_itemsets(DB, 2, method="plt")
        b = mine_frequent_itemsets(DB, 2, method="apriori")
        assert a == b
        assert a != mine_frequent_itemsets(DB, 3)

    def test_repr(self, result):
        assert "MiningResult" in repr(result)


class TestMaximalAndClosed:
    def test_maximal(self):
        db = [("a", "b", "c")] * 3 + [("a", "b")] * 2
        result = mine_frequent_itemsets(db, 2)
        maximal = result.maximal()
        assert maximal.as_dict() == {frozenset("abc"): 3}

    def test_closed(self):
        db = [("a", "b", "c")] * 3 + [("a", "b")] * 2
        result = mine_frequent_itemsets(db, 2)
        closed = result.closed()
        # abc (3) is closed; ab (5) is closed; a, b (5) are not (ab same sup)
        assert closed.as_dict() == {frozenset("abc"): 3, frozenset("ab"): 5}

    def test_closed_superset_of_maximal(self, small_random_db):
        result = mine_frequent_itemsets(small_random_db, 2)
        closed = set(closed_fi.as_frozenset() for closed_fi in result.closed())
        maximal = set(m.as_frozenset() for m in result.maximal())
        assert maximal <= closed

    def test_closed_supports_recover_all(self, small_random_db):
        """Closed itemsets determine every frequent itemset's support."""
        result = mine_frequent_itemsets(small_random_db, 2)
        closed = result.closed().as_dict()
        for fi in result:
            s = fi.as_frozenset()
            sup = max(v for k, v in closed.items() if s <= k)
            assert sup == fi.support

    def test_method_suffix(self, small_random_db):
        result = mine_frequent_itemsets(small_random_db, 2)
        assert result.maximal().method.endswith("+maximal")
        assert result.closed().method.endswith("+closed")


class TestMixedTypeTupleLabels:
    """Tuple labels whose elements differ in type at one position."""

    DB = [[(1, "a"), (1, 2)]] * 2 + [[(1, 2), ("z",)]]

    @pytest.mark.parametrize("method", ["plt", "plt-topdown", "fpgrowth", "apriori"])
    def test_every_miner_orders_them(self, method):
        result = mine_frequent_itemsets(self.DB, 1, method=method)
        assert result.as_dict() == {
            frozenset({(1, "a")}): 2,
            frozenset({(1, 2)}): 3,
            frozenset({("z",)}): 1,
            frozenset({(1, "a"), (1, 2)}): 2,
            frozenset({(1, 2), ("z",)}): 1,
        }
        assert [fi.items for fi in result] == [
            fi.items for fi in mine_frequent_itemsets(self.DB, 1, method="fpgrowth")
        ]
