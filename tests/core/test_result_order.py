"""The facade's result order and materialization cost on the PLT paths.

The PLT miners' results are built straight from rank tuples
(:meth:`MiningResult.from_ranks`); the baselines go through the sorting
constructor.  Both must give the same ordered ``(items, support)`` list,
for every order policy and result kind, and the rank path must not pay
a ``sort_key`` call per itemset.
"""

import sys

import pytest

from repro import mine_frequent_itemsets
from repro.core import rank
from repro.core.mining import FrequentItemset, MiningResult, PartialResult
from repro.core.rank import ORDER_POLICIES
from tests.conftest import random_database

SEEDS = range(20)

PLT_PATHS = [
    ("plt", {}),
    ("plt-topdown", {}),
    ("plt-parallel", {"n_workers": 1}),
    ("plt-parallel", {"n_workers": 2}),
]


def _rows(result):
    return [(fi.items, fi.support) for fi in result]


def _db(seed):
    return random_database(seed, max_items=9, max_transactions=30, min_transactions=5)


@pytest.fixture(scope="module")
def reference():
    """fpgrowth's ordered lists, one per seed (the sorting constructor)."""
    return {seed: _rows(mine_frequent_itemsets(_db(seed), 2, method="fpgrowth")) for seed in SEEDS}


@pytest.mark.parametrize("order", ORDER_POLICIES)
@pytest.mark.parametrize(
    "method,kwargs", PLT_PATHS, ids=[f"{m}-w{k.get('n_workers', 0)}" for m, k in PLT_PATHS]
)
def test_plt_paths_return_fpgrowths_ordered_list(method, kwargs, order, reference):
    for seed in SEEDS:
        got = mine_frequent_itemsets(_db(seed), 2, method=method, order=order, **kwargs)
        assert _rows(got) == reference[seed], f"seed {seed}"


@pytest.mark.parametrize("order", ORDER_POLICIES)
@pytest.mark.parametrize("method", ["plt", "plt-topdown", "plt-parallel"])
def test_partial_result_is_canonically_ordered(method, order, reference):
    tripped = 0
    for seed in SEEDS:
        full = dict(reference[seed])
        cap = max(1, len(full) // 3)
        got = mine_frequent_itemsets(
            _db(seed), 2, method=method, order=order, max_itemsets=cap
        )
        if not isinstance(got, PartialResult):
            continue
        tripped += 1
        rows = _rows(got)
        assert 0 < len(rows) <= cap
        assert all(full[items] == sup for items, sup in rows)  # exact supports
        resorted = MiningResult(
            [FrequentItemset(i, s) for i, s in reversed(rows)],
            n_transactions=got.n_transactions,
            min_support=got.min_support,
            method="x",
        )
        assert rows == _rows(resorted), f"seed {seed}"
    assert tripped >= 10


def _count_sort_key_calls(monkeypatch):
    calls = []
    real = rank.sort_key

    def counting(item):
        calls.append(item)
        return real(item)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("repro") and (
            getattr(module, "sort_key", None) is real
        ):
            monkeypatch.setattr(module, "sort_key", counting)
    return calls


@pytest.mark.parametrize("method", ["plt", "plt-topdown"])
def test_sort_key_calls_bounded_by_frequent_items(method, monkeypatch):
    db = random_database(5, max_items=14, max_transactions=60, min_transactions=60)
    calls = _count_sort_key_calls(monkeypatch)
    result = mine_frequent_itemsets(db, 6, method=method)
    n_frequent = len(result.itemsets_of_size(1))
    occurrences = sum(len(fi) for fi in result)
    assert occurrences > 20 * n_frequent  # the guard would see per-itemset calls
    # one rank-table sort (Algorithm 1, scan 1) plus one decoder sort
    assert len(calls) <= 2 * n_frequent
