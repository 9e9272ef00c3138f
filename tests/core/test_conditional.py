"""Unit tests for Algorithm 3 (conditional / pattern-growth mining)."""

import pytest

import repro.core.flat as flat_mod
from repro.core.conditional import (
    build_conditional_buckets,
    conditional_database,
    mine_conditional,
    mine_conditional_flat_range,
    rank_supports_of_vectors,
)
from repro.core.flat import FlatPLT
from repro.core.plt import PLT
from repro.core.position import encode
from repro.errors import InvalidSupportError
from tests.conftest import random_database


def _mine_rank_range(plt, lo, hi, min_support=2):
    """Itemsets whose maximal rank lies in ``[lo, hi)``, off fresh columns."""
    pairs = []
    mine_conditional_flat_range(
        FlatPLT.from_plt(plt), lo, hi, min_support,
        lambda itemset, support: pairs.append((itemset, support)),
    )
    return pairs


class TestRankSupports:
    def test_counts_every_rank_on_path(self):
        vectors = {(1, 1, 1): 2, (2, 1): 1}
        # paths: {1,2,3} x2 and {2,3} x1
        assert rank_supports_of_vectors(vectors) == {1: 2, 2: 3, 3: 3}

    def test_empty(self):
        assert rank_supports_of_vectors({}) == {}

    def test_aggregated_frequencies(self):
        assert rank_supports_of_vectors({(5,): 7}) == {5: 7}


class TestBuildConditionalBuckets:
    def test_no_filtering_needed(self):
        prefixes = {(1,): 3, (1, 1): 3}
        buckets = build_conditional_buckets(prefixes, 2)
        assert buckets == {1: {(1,): 3}, 2: {(1, 1): 3}}

    def test_infrequent_rank_removed_by_projection(self):
        # rank 2 appears once (below min_support 2) and must vanish
        prefixes = {(1, 1): 1, (1,): 2}
        buckets = build_conditional_buckets(prefixes, 2)
        assert buckets == {1: {(1,): 3}}

    def test_projection_merges_identical_results(self):
        # {1,3} and {3}: if rank 1 is infrequent both become {3}
        prefixes = {(1, 2): 1, (3,): 1}
        buckets = build_conditional_buckets(prefixes, 2)
        assert buckets == {3: {(3,): 2}}

    def test_everything_infrequent(self):
        assert build_conditional_buckets({(1,): 1, (2,): 1}, 5) == {}

    def test_empty_input(self):
        assert build_conditional_buckets({}, 2) == {}


class TestConditionalDatabase:
    """Figure 5 behaviour; the golden values live in test_paper_example."""

    def test_top_rank_requires_no_prior_migration(self, paper_plt):
        cd, support, _ = conditional_database(paper_plt, 4)
        assert support == 4

    def test_missing_rank_gives_empty(self, paper_plt):
        cd, support, _ = conditional_database(paper_plt, 1)
        # rank 1 = A; all vectors containing A start with it, so after
        # migration the bucket at sum 1 holds A's prefix-vector mass
        assert support == 4
        assert cd == {}  # prefixes of (1,) are empty

    def test_rank_without_bucket(self):
        plt = PLT.from_transactions([("a", "c"), ("a", "c")], 1)
        # ranks: a=1, c=2; no vector sums to... both vectors are (1,1) sum 2
        cd, support, remaining = conditional_database(plt, 1)
        assert support == 2  # migrated prefix (1,) x2


class TestMineConditional:
    def test_empty_plt(self):
        plt = PLT.from_transactions([], 1)
        assert mine_conditional(plt, 1) == []

    def test_single_item_database(self):
        plt = PLT.from_transactions([("x",)] * 4, 2)
        assert mine_conditional(plt, 2) == [((1,), 4)]

    def test_default_support(self, paper_plt):
        assert sorted(mine_conditional(paper_plt)) == sorted(
            mine_conditional(paper_plt, 2)
        )

    def test_invalid_support(self, paper_plt):
        with pytest.raises(InvalidSupportError):
            mine_conditional(paper_plt, 0)
        with pytest.raises(InvalidSupportError):
            mine_conditional(paper_plt, 2, max_len=0)
        flat = FlatPLT.from_plt(paper_plt)
        with pytest.raises(InvalidSupportError):
            mine_conditional_flat_range(flat, 1, 5, 0, lambda *_: None)
        with pytest.raises(InvalidSupportError):
            mine_conditional_flat_range(flat, 1, 5, 2, lambda *_: None, max_len=0)

    def test_max_len(self, paper_plt):
        pairs = mine_conditional(paper_plt, 2, max_len=2)
        assert max(len(r) for r, _ in pairs) == 2
        full = [p for p in mine_conditional(paper_plt, 2) if len(p[0]) <= 2]
        assert sorted(pairs) == sorted(full)

    def test_no_duplicate_itemsets(self, paper_plt):
        pairs = mine_conditional(paper_plt, 1)
        keys = [r for r, _ in pairs]
        assert len(keys) == len(set(keys))

    def test_rank_restriction_partitions_output(self, paper_plt, monkeypatch):
        all_pairs = sorted(mine_conditional(paper_plt, 2))
        # both top-level branches: the dense pair matrix, then the fused
        # engine with the matrix cap forced to zero
        for cap in (None, 0):
            if cap is not None:
                monkeypatch.setattr(flat_mod, "_PAIR_MATRIX_MAX_CELLS", cap)
            by_parts = []
            for rank in (4, 3, 2, 1):
                by_parts.extend(_mine_rank_range(paper_plt, rank, rank + 1))
            assert sorted(by_parts) == all_pairs

    def test_rank_restriction_selects_by_max_item(self, paper_plt, monkeypatch):
        for cap in (None, 0):
            if cap is not None:
                monkeypatch.setattr(flat_mod, "_PAIR_MATRIX_MAX_CELLS", cap)
            pairs = _mine_rank_range(paper_plt, 3, 4)
            assert pairs and all(max(r) == 3 for r, _ in pairs)

    def test_long_single_path_with_max_len(self):
        # a 60-item transaction: recursion depth equals max_len, and the
        # pair level already has C(60, 2) itemsets — cap at 2 and verify
        db = [tuple(range(60))] * 2
        plt = PLT.from_transactions(db, 2)
        singles = mine_conditional(plt, 2, max_len=1)
        assert len(singles) == 60
        pairs = mine_conditional(plt, 2, max_len=2)
        assert len(pairs) == 60 + 60 * 59 // 2
        assert all(s == 2 for _, s in pairs)


class TestMigrationCorrectness:
    """Infrequent maximal items must still migrate their prefixes."""

    def test_infrequent_top_item_counts_flow_down(self):
        # z occurs once (infrequent at min_support 2) but its transaction
        # must still count towards {a, b}
        db = [("a", "b", "z"), ("a", "b")]
        plt = PLT.from_transactions(db, 1)  # keep z in the structure
        pairs = dict(mine_conditional(plt, 2))
        a, b = plt.rank_table.rank("a"), plt.rank_table.rank("b")
        assert pairs[(a, b)] == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce(self, seed):
        from repro.baselines.bruteforce import mine_bruteforce

        db = random_database(seed + 500, max_items=8, max_transactions=25)
        for min_support in (1, 2, 4):
            plt = PLT.from_transactions(db, min_support)
            got = {
                frozenset(plt.rank_table.decode_ranks(r)): s
                for r, s in mine_conditional(plt, min_support)
            }
            assert got == mine_bruteforce(db, min_support)
