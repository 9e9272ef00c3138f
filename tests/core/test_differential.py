"""Differential tests for the rank-path mining kernels.

The optimized kernels (:func:`mine_conditional`, :func:`mine_topdown`)
must be itemset-for-itemset identical to three independent witnesses on
arbitrary inputs:

* each other (two different PLT algorithms over the same structure),
* the frozen pre-optimization references in :mod:`repro.perf.legacy`
  (the exact code the benchmark baseline compares against), and
* the FP-growth baseline, which shares no code with the PLT at all.

Seeded random databases keep every failure reproducible; the edge cases
pin the two lattice extremes — no frequent items at all, and every item
frequent in every transaction (the full powerset).
"""

import pytest

import repro.core.flat as flat_mod
from repro.baselines.fpgrowth import mine_fpgrowth
from repro.core.conditional import mine_conditional
from repro.core.flat import FlatPLT
from repro.core.plt import PLT
from repro.core.topdown import mine_topdown
from repro.errors import MiningInterrupted
from repro.perf.legacy import mine_conditional_reference, mine_topdown_reference
from repro.robustness.governor import MiningBudget, ResourceGovernor
from tests.conftest import random_database


def _as_item_dict(plt, pairs):
    """Decode (rank-tuple, support) pairs to {frozenset(items): support}."""
    table = plt.rank_table
    return {frozenset(table.decode_ranks(ranks)): sup for ranks, sup in pairs}


@pytest.mark.parametrize("seed", range(50))
def test_conditional_topdown_fpgrowth_agree(seed):
    db = random_database(seed + 7000, max_items=12, max_transactions=60)
    min_support = (seed % 4) + 1
    plt = PLT.from_transactions(db, min_support)

    cond = mine_conditional(plt, min_support)
    top = mine_topdown(plt, min_support, work_limit=None)
    assert sorted(cond) == sorted(top)

    assert _as_item_dict(plt, cond) == mine_fpgrowth(db, min_support)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("max_len", [None, 1, 2, 3])
def test_wide_fallback_matches_matrix_and_fpgrowth(seed, max_len, monkeypatch):
    # the fused-engine top level, which rank spaces above the dense
    # pair-matrix cap take, forced here by a zero cap
    db = random_database(seed + 7400, max_items=12, max_transactions=60)
    min_support = (seed % 4) + 1
    plt = PLT.from_transactions(db, min_support)
    matrix = mine_conditional(plt, min_support, max_len=max_len)
    monkeypatch.setattr(flat_mod, "_PAIR_MATRIX_MAX_CELLS", 0)
    assert FlatPLT.from_plt(plt).pair_support_matrix() is None
    wide = mine_conditional(plt, min_support, max_len=max_len)
    assert sorted(wide) == sorted(matrix)
    assert _as_item_dict(plt, wide) == mine_fpgrowth(db, min_support, max_len=max_len)


@pytest.mark.parametrize("seed", range(10))
def test_wide_fallback_governor_partial_is_exact(seed, monkeypatch):
    monkeypatch.setattr(flat_mod, "_PAIR_MATRIX_MAX_CELLS", 0)
    db = random_database(
        seed + 7500, max_items=12, max_transactions=60, min_transactions=10
    )
    plt = PLT.from_transactions(db, 1)
    full = dict(mine_conditional(plt, 1))
    governor = ResourceGovernor(MiningBudget(max_itemsets=len(full) // 2))
    with pytest.raises(MiningInterrupted) as info:
        mine_conditional(plt, 1, governor=governor)
    exc = info.value
    marker = exc.progress.get("complete_from_rank")
    assert marker is not None
    mined = dict(exc.partial)
    assert mined and all(full[r] == s for r, s in mined.items())
    for ranks, support in full.items():
        if max(ranks) >= marker:
            assert mined.get(ranks) == support


@pytest.mark.parametrize("seed", range(20))
def test_optimized_matches_frozen_references(seed):
    db = random_database(seed + 7100, max_items=11, max_transactions=50)
    for min_support in (1, 2, 4):
        plt = PLT.from_transactions(db, min_support)
        assert sorted(mine_conditional(plt, min_support)) == sorted(
            mine_conditional_reference(plt, min_support)
        )
        assert sorted(mine_topdown(plt, min_support, work_limit=None)) == sorted(
            mine_topdown_reference(plt, min_support)
        )


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("max_len", [1, 2, 3])
def test_max_len_matches_frozen_reference(seed, max_len):
    db = random_database(seed + 7200, max_items=10, max_transactions=45)
    plt = PLT.from_transactions(db, 2)
    assert sorted(mine_conditional(plt, 2, max_len=max_len)) == sorted(
        mine_conditional_reference(plt, 2, max_len=max_len)
    )
    assert sorted(mine_topdown(plt, 2, max_len=max_len, work_limit=None)) == sorted(
        mine_topdown_reference(plt, 2, max_len=max_len)
    )


def test_empty_frequent_set():
    # support threshold above the transaction count: nothing is frequent
    db = [frozenset({1, 2}), frozenset({2, 3})]
    plt = PLT.from_transactions(db, 5)
    assert mine_conditional(plt, 5) == []
    assert mine_topdown(plt, 5, work_limit=None) == []
    assert mine_fpgrowth(db, 5) == {}


def test_all_items_frequent_full_powerset():
    # every item in every transaction: the answer is the full powerset,
    # every subset at the same support — the densest possible lattice
    db = [frozenset({"a", "b", "c", "d", "e"})] * 6
    plt = PLT.from_transactions(db, 1)

    cond = mine_conditional(plt, 1)
    assert sorted(cond) == sorted(mine_topdown(plt, 1, work_limit=None))

    decoded = _as_item_dict(plt, cond)
    assert len(decoded) == 2**5 - 1
    assert set(decoded.values()) == {6}
    assert decoded == mine_fpgrowth(db, 1)


def test_emission_is_sorted_ascending():
    # the engine contract the parallel and out-of-core callers rely on:
    # itemsets arrive at emit already sorted, no per-emit re-sort needed
    db = random_database(7300, max_items=10, max_transactions=50)
    plt = PLT.from_transactions(db, 2)
    for itemset, _ in mine_conditional(plt, 2):
        assert list(itemset) == sorted(itemset)
