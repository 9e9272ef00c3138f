"""Unit tests for the Rank function / RankTable."""

import random

import pytest

from repro.core.rank import (
    ORDER_POLICIES,
    CanonicalDecoder,
    RankTable,
    canonical_itemsets,
    sort_key,
)
from repro.errors import UnknownItemError


class TestConstruction:
    def test_ranks_are_one_based_in_order(self):
        table = RankTable(["A", "B", "C"])
        assert table.rank("A") == 1
        assert table.rank("B") == 2
        assert table.rank("C") == 3

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError):
            RankTable(["A", "A"])

    def test_empty_table(self):
        table = RankTable([])
        assert len(table) == 0
        assert list(table.ranks()) == []

    def test_from_items_sorts_lexicographically(self):
        table = RankTable.from_items(["C", "A", "B", "A"])
        assert table.items() == ("A", "B", "C")

    def test_from_items_rejects_other_policies(self):
        with pytest.raises(ValueError):
            RankTable.from_items(["A"], order="support_desc")


class TestFromSupports:
    SUPPORTS = {"A": 4, "B": 5, "C": 5, "D": 4, "E": 1, "F": 1}

    def test_paper_example_filtering(self):
        table = RankTable.from_supports(self.SUPPORTS, min_support=2)
        assert table.items() == ("A", "B", "C", "D")
        assert "E" not in table and "F" not in table

    def test_lexicographic_order_is_default(self):
        table = RankTable.from_supports(self.SUPPORTS, min_support=2)
        assert [table.rank(i) for i in "ABCD"] == [1, 2, 3, 4]

    def test_support_desc_order(self):
        table = RankTable.from_supports(self.SUPPORTS, min_support=2, order="support_desc")
        # B and C tie at 5 (lexicographic tiebreak), then A and D at 4
        assert table.items() == ("B", "C", "A", "D")

    def test_support_asc_order(self):
        table = RankTable.from_supports(self.SUPPORTS, min_support=2, order="support_asc")
        assert table.items() == ("A", "D", "B", "C")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            RankTable.from_supports(self.SUPPORTS, order="random")

    def test_policies_constant_is_complete(self):
        assert set(ORDER_POLICIES) == {"lexicographic", "support_asc", "support_desc"}

    def test_all_items_filtered(self):
        table = RankTable.from_supports({"A": 1}, min_support=5)
        assert len(table) == 0


class TestLookups:
    def test_item_inverse_of_rank(self):
        table = RankTable(["x", "y", "z"])
        for item in table.items():
            assert table.item(table.rank(item)) == item

    def test_unknown_item_raises(self):
        table = RankTable(["x"])
        with pytest.raises(UnknownItemError):
            table.rank("missing")

    def test_out_of_range_rank_raises(self):
        table = RankTable(["x"])
        with pytest.raises(UnknownItemError):
            table.item(0)
        with pytest.raises(UnknownItemError):
            table.item(2)

    def test_contains(self):
        table = RankTable(["x", "y"])
        assert "x" in table
        assert "q" not in table

    def test_ranks_range(self):
        table = RankTable(list("ABCDE"))
        assert list(table.ranks()) == [1, 2, 3, 4, 5]

    def test_equality_and_hash(self):
        a = RankTable(["A", "B"])
        b = RankTable(["A", "B"], order="other")
        c = RankTable(["B", "A"])
        assert a == b  # order policy label is informational only
        assert a != c
        assert hash(a) == hash(b)

    def test_repr_truncates(self):
        table = RankTable(list(range(10)))
        assert "..." in repr(table)
        assert "..." not in repr(RankTable([1, 2]))


class TestEncodeDecode:
    def test_encode_sorts_and_dedups(self):
        table = RankTable(["A", "B", "C", "D"])
        assert table.encode_itemset(["D", "A", "A"]) == (1, 4)

    def test_encode_unknown_raises(self):
        table = RankTable(["A"])
        with pytest.raises(UnknownItemError):
            table.encode_itemset(["A", "Z"])

    def test_encode_skip_unknown(self):
        table = RankTable(["A", "C"])
        assert table.encode_itemset(["A", "B", "C"], skip_unknown=True) == (1, 2)
        assert table.encode_itemset(["B"], skip_unknown=True) == ()

    def test_decode_ranks(self):
        table = RankTable(["A", "B", "C"])
        assert table.decode_ranks((3, 1)) == ("C", "A")

    def test_roundtrip(self):
        table = RankTable(list("ABCDEFG"))
        itemset = ("B", "E", "G")
        assert table.decode_ranks(table.encode_itemset(itemset)) == itemset


class TestSortKey:
    def test_ints(self):
        assert sorted([3, 1, 2], key=sort_key) == [1, 2, 3]

    def test_strings(self):
        assert sorted(["b", "a"], key=sort_key) == ["a", "b"]

    def test_mixed_types_grouped_by_type(self):
        out = sorted([2, "a", 1, "b"], key=sort_key)
        assert out == [1, 2, "a", "b"]

    def test_tuples(self):
        assert sorted([(2, 1), (1, 9)], key=sort_key) == [(1, 9), (2, 1)]

    def test_unorderable_objects_fall_back_to_repr(self):
        a, b = object(), object()
        out = sorted([a, b], key=sort_key)
        assert set(out) == {a, b}  # just must not raise, order is by repr

    def test_tuples_with_mixed_type_elements(self):
        # regression: (1, "a") vs (1, 2) used to raise TypeError
        items = [(1, "a"), (1, 2), (0, "z"), (1, 2.5), (1, b"x"), (1, (2,))]
        out = sorted(items, key=sort_key)
        assert out == sorted(reversed(items), key=sort_key)  # total order
        assert out[0] == (0, "z")
        # numbers keep comparing with each other, as before
        assert out.index((1, 2)) < out.index((1, 2.5))

    def test_tuples_that_compared_before_keep_their_order(self):
        rng = random.Random(3)
        pools = [
            lambda: rng.randint(-3, 3),
            lambda: rng.choice([0.5, 1.5, -2.0, 2]),
            lambda: rng.choice("abc"),
            lambda: (rng.randint(0, 2), rng.choice("xy")),
            lambda: True if rng.random() < 0.5 else 1,
        ]
        for _ in range(200):
            # tuples whose elements at each position share one kind
            kinds = [rng.randrange(len(pools)) for _ in range(rng.randint(1, 3))]
            items = list({tuple(pools[k]() for k in kinds) for _ in range(8)})
            assert sorted(items, key=sort_key) == sorted(items)


class TestCanonicalDecoder:
    def _generic(self, pairs, table):
        # the decode-and-sort the decoder replaces
        rows = {frozenset(table.decode_ranks(r)): s for r, s in pairs}
        out = [(tuple(sorted(items, key=sort_key)), s) for items, s in rows.items()]
        out.sort(key=lambda p: (len(p[0]), [sort_key(i) for i in p[0]]))
        return out

    @pytest.mark.parametrize("order", ORDER_POLICIES)
    def test_matches_generic_decode_and_sort(self, order):
        rng = random.Random(7)
        labels = [f"i{k}" for k in range(12)] + list(range(5)) + [("t", 1), ("t", "u")]
        for _ in range(20):
            supports = {item: rng.randint(1, 9) for item in rng.sample(labels, 10)}
            table = RankTable.from_supports(supports, order=order)
            n = len(table)
            pairs = [
                (tuple(rng.sample(range(1, n + 1), rng.randint(1, 4))), rng.randint(1, 50))
                for _ in range(60)
            ]
            assert canonical_itemsets(pairs, table) == self._generic(pairs, table)

    def test_identity_map_for_lexicographic_tables(self):
        table = RankTable.from_items(["b", "a", 3, 1])
        assert CanonicalDecoder(table)._position is None
        unordered = RankTable(["b", "a"])
        assert CanonicalDecoder(unordered)._position is not None
        assert CanonicalDecoder(unordered).decode((1, 2)) == ("a", "b")

    def test_unsorted_rank_tuples_come_out_sorted(self):
        table = RankTable(list("abcd"))
        assert canonical_itemsets([((3, 1), 2), ((4, 2, 1), 1)], table) == [
            (("a", "c"), 2),
            (("a", "b", "d"), 1),
        ]
        assert CanonicalDecoder(table).decode((4, 1, 2)) == ("a", "b", "d")

    def test_repeated_itemsets_collapse(self):
        table = RankTable(list("abc"))
        out = canonical_itemsets([((1, 2), 5), ((2, 1), 5), ((3,), 2), ((1, 2), 5)], table)
        assert out == [(("c",), 2), (("a", "b"), 5)]

    @pytest.mark.parametrize("bad", [0, 4, -1])
    def test_out_of_range_rank_raises(self, bad):
        for table in (RankTable(list("abc")), RankTable(list("cba"))):
            with pytest.raises(UnknownItemError):
                canonical_itemsets([((1,), 3), ((2, bad), 1)], table)
            with pytest.raises(UnknownItemError):
                CanonicalDecoder(table).decode((bad, 1))

    def test_empty_inputs(self):
        table = RankTable(list("ab"))
        assert canonical_itemsets([], table) == []
        assert canonical_itemsets([((), 4), ((1,), 2)], table) == [((), 4), (("a",), 2)]
        assert canonical_itemsets([], RankTable([])) == []
        assert CanonicalDecoder(table).decode(()) == ()
