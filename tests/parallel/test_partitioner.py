"""Unit tests for parallel task partitioning."""

import pytest

from repro.core.conditional import mine_conditional
from repro.core.plt import PLT
from repro.parallel.partitioner import (
    ConditionalTask,
    conditional_tasks,
    lpt_partition,
    split_vectors,
)
from tests.conftest import random_database


class TestLptPartition:
    def test_single_bin(self):
        bins = lpt_partition(["a", "b"], [1, 2], 1)
        assert bins == [["b", "a"]]  # LPT order: largest first

    def test_balances_loads(self):
        items = list(range(8))
        sizes = [8, 7, 6, 5, 4, 3, 2, 1]
        bins = lpt_partition(items, sizes, 2)
        loads = [sum(sizes[i] for i in b) for b in bins]
        assert abs(loads[0] - loads[1]) <= 2

    def test_all_items_assigned_once(self):
        items = list(range(20))
        sizes = [i % 5 + 1 for i in items]
        bins = lpt_partition(items, sizes, 3)
        flat = [x for b in bins for x in b]
        assert sorted(flat) == items

    def test_more_bins_than_items(self):
        bins = lpt_partition(["x"], [1], 4)
        assert sum(1 for b in bins if b) == 1
        assert len(bins) == 4

    def test_empty_items(self):
        assert lpt_partition([], [], 3) == [[], [], []]

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            lpt_partition([1], [1], 0)


class TestConditionalTasks:
    def test_one_task_per_frequent_item(self, paper_plt):
        tasks = conditional_tasks(paper_plt, 2)
        assert sorted(t.rank for t in tasks) == [1, 2, 3, 4]

    def test_supports_are_true_item_supports(self, paper_plt):
        tasks = {t.rank: t for t in conditional_tasks(paper_plt, 2)}
        assert tasks[1].support == 4  # A
        assert tasks[2].support == 5  # B
        assert tasks[3].support == 5  # C
        assert tasks[4].support == 4  # D

    def test_infrequent_items_produce_no_task_but_migrate(self):
        db = [("a", "b", "z"), ("a", "b")]
        plt = PLT.from_transactions(db, 1)
        tasks = {t.rank: t for t in conditional_tasks(plt, 2)}
        z_rank = plt.rank_table.rank("z")
        assert z_rank not in tasks
        # a and b still see both transactions
        assert tasks[plt.rank_table.rank("a")].support == 2
        assert tasks[plt.rank_table.rank("b")].support == 2

    def test_task_prefixes_match_conditional_database(self, paper_plt):
        from repro.core.conditional import conditional_database

        tasks = {t.rank: t for t in conditional_tasks(paper_plt, 2)}
        cd, support, _ = conditional_database(paper_plt, 4)
        assert tasks[4].prefixes == cd
        assert tasks[4].support == support

    def test_cost_estimate_positive(self, paper_plt):
        for t in conditional_tasks(paper_plt, 2):
            assert t.cost_estimate() >= 1

    def test_repr(self, paper_plt):
        t = conditional_tasks(paper_plt, 2)[0]
        assert "ConditionalTask" in repr(t)

    @pytest.mark.parametrize("seed", range(5))
    def test_tasks_reconstruct_full_mining(self, seed):
        """Mining each task independently reproduces the serial result."""
        from repro.core.conditional import mine_conditional_block

        db = random_database(seed + 600, max_items=9, max_transactions=35)
        plt = PLT.from_transactions(db, 2)
        serial = sorted(mine_conditional(plt, 2))
        collected = []
        for task in conditional_tasks(plt, 2):
            collected.append(((task.rank,), task.support))
            mine_conditional_block(
                task.prefixes,
                task.rank,
                2,
                lambda s, sup: collected.append((tuple(sorted(s)), sup)),
            )
        assert sorted(collected) == serial


class TestSplitVectors:
    def test_union_is_whole_table(self, paper_plt):
        parts = split_vectors(paper_plt, 3)
        merged = {}
        for part in parts:
            for vec, freq in part.items():
                assert vec not in merged
                merged[vec] = freq
        assert merged == paper_plt.vectors()

    def test_single_part(self, paper_plt):
        parts = split_vectors(paper_plt, 1)
        assert parts[0] == paper_plt.vectors()

    def test_empty_plt(self):
        parts = split_vectors(PLT.from_transactions([], 1), 2)
        assert all(p == {} for p in parts)
