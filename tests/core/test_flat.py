"""Tests for the columnar FlatPLT lowering and its shared-memory form."""

import os

import pytest

from repro.core.flat import FLAT_FIELDS, FlatPLT
from repro.core.plt import PLT
from tests.conftest import random_database


def _reference_paths(plt):
    """The interned index as {path: freq}, plus per-rank support sums."""
    paths = {}
    supports = {}
    for path, freq in plt.iter_rank_paths():
        paths[path] = paths.get(path, 0) + freq
        for rank in path:
            supports[rank] = supports.get(rank, 0) + freq
    return paths, supports


class TestLowering:
    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_matches_plt(self, seed):
        db = random_database(seed + 900, max_items=12, max_transactions=60)
        plt = PLT.from_transactions(db, 2)
        flat = FlatPLT.from_plt(plt)
        want, _ = _reference_paths(plt)
        got = {}
        for path, freq in flat.iter_paths():
            got[path] = got.get(path, 0) + freq
        assert got == want
        assert flat.n_paths == len(want)
        assert flat.max_rank == plt.max_rank()
        assert flat.min_support == plt.min_support
        assert flat.n_transactions == plt.n_transactions

    def test_buckets_are_descending_and_consistent(self):
        db = random_database(903, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 2)
        flat = FlatPLT.from_plt(plt)
        keys = list(flat.bucket_keys)
        assert keys == sorted(keys, reverse=True)
        # every path in bucket b must end with the bucket's key
        for b, key in enumerate(keys):
            for p in range(flat.bucket_offsets[b], flat.bucket_offsets[b + 1]):
                assert flat.path(p)[-1] == key

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_supports(self, seed):
        db = random_database(seed + 910, max_items=11, max_transactions=55)
        plt = PLT.from_transactions(db, 2)
        flat = FlatPLT.from_plt(plt)
        _, want = _reference_paths(plt)
        sup = flat.rank_supports()
        assert {r: s for r, s in enumerate(sup) if s} == want

    def test_empty_plt(self):
        flat = FlatPLT.from_plt(PLT.from_transactions([], 1))
        assert flat.n_paths == 0 and flat.n_cells == 0 and flat.n_buckets == 0
        assert flat.rank_supports() == [0] * (flat.max_rank + 1)
        assert flat.paths_by_length() == {}

    def test_packed_path_is_engine_encoding(self):
        from array import array

        db = random_database(904, max_items=9, max_transactions=40)
        plt = PLT.from_transactions(db, 2)
        flat = FlatPLT.from_plt(plt)
        for p in range(flat.n_paths):
            assert flat.packed_path(p) == array("I", flat.path(p)).tobytes()


class TestColumnPasses:
    @pytest.mark.parametrize("seed", range(3))
    def test_match_plt_and_loop_oracles(self, seed):
        db = random_database(seed + 920, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 2)
        flat = FlatPLT.from_plt(plt)
        assert flat.rank_supports() == [0] + [
            plt.rank_support(r) for r in range(1, flat.max_rank + 1)
        ]
        # oracle: total within-path position of every cell holding a rank
        costs = [0] * (flat.max_rank + 1)
        for path, _freq in plt.iter_rank_paths():
            for pos, rank in enumerate(path):
                costs[rank] += pos
        assert flat.rank_costs() == costs


def _oracle(db, plt):
    """Brute force over the transactions: each as its sorted frequent ranks."""
    table = plt.rank_table
    return [tuple(sorted(table.rank(i) for i in t if i in table)) for t in db]


def _oracle_support(rows, ranks):
    wanted = set(ranks)
    return sum(1 for row in rows if wanted.issubset(row))


def _oracle_paths_through(rows, rank):
    out = {}
    for row in rows:
        if rank in row and len(row) > 1:
            rest = tuple(r for r in row if r != rank)
            out[rest] = out.get(rest, 0) + 1
    return out


class TestPostings:
    """``support`` and ``paths_through`` against counts over the raw rows."""

    @pytest.mark.parametrize("seed", range(20))
    def test_match_brute_force(self, seed):
        import random

        db = random_database(seed + 950, max_items=12, max_transactions=60)
        plt = PLT.from_transactions(db, 2)
        flat = FlatPLT.from_plt(plt)
        rows = _oracle(db, plt)
        n_ranks = len(plt.rank_table)
        rng = random.Random(seed)
        for rank in range(1, n_ranks + 1):
            assert flat.support((rank,)) == _oracle_support(rows, (rank,))
            assert flat.paths_through(rank) == _oracle_paths_through(rows, rank)
        for _ in range(40):
            query = [rng.randint(1, n_ranks) for _ in range(rng.randint(1, 4))]
            assert flat.support(query) == _oracle_support(rows, query), query

    def test_repeated_ranks_count_once(self):
        db = random_database(970, max_items=10, max_transactions=50)
        flat = FlatPLT.from_plt(PLT.from_transactions(db, 2))
        assert flat.support((2, 2)) == flat.support((2,))
        assert flat.support((1, 3, 1, 3)) == flat.support((3, 1))

    def test_absent_ranks_and_empty_query(self, paper_db, paper_plt):
        flat = FlatPLT.from_plt(paper_plt)
        assert flat.support((0,)) == flat.support((99,)) == 0
        assert flat.support((1, 99)) == 0
        assert flat.paths_through(0) == flat.paths_through(99) == {}
        # the empty itemset is contained in every stored transaction
        assert flat.support(()) == len(paper_db)

    def test_empty_db(self):
        flat = FlatPLT.from_plt(PLT.from_transactions([], 1))
        assert flat.support((1,)) == flat.support((1, 2)) == 0
        assert flat.paths_through(1) == {}

    def test_one_item_db(self):
        db = [frozenset({"x"})] * 3 + [frozenset()]
        plt = PLT.from_transactions(db, 1)
        flat = FlatPLT.from_plt(plt)
        assert flat.support((1,)) == flat.support((1, 1)) == 3
        # the only path is the item itself: nothing is left once it is removed
        assert flat.paths_through(1) == {}

    def test_postings_stay_out_of_the_segment(self):
        db = random_database(971, max_items=8, max_transactions=30)
        flat = FlatPLT.from_plt(PLT.from_transactions(db, 2))
        flat.postings()
        shared = flat.to_shared_memory()
        try:
            fields = {field for field, _code, _n in shared.meta["layout"]}
            assert fields == {field for field, _code in FLAT_FIELDS}
            attached = FlatPLT.attach(shared.meta)
            assert attached.support((1, 2)) == flat.support((1, 2))
            attached.detach()
        finally:
            shared.close()
            shared.unlink()


class TestSharedMemory:
    def test_shared_twin_matches_and_cleans_up(self):
        db = random_database(930, max_items=12, max_transactions=60)
        plt = PLT.from_transactions(db, 2)
        flat = FlatPLT.from_plt(plt)
        shared = flat.to_shared_memory()
        name = shared.name
        assert os.path.exists(f"/dev/shm/{name}")
        assert dict(shared.flat.iter_paths()) == dict(flat.iter_paths())

        attached = FlatPLT.attach(shared.meta)
        assert dict(attached.iter_paths()) == dict(flat.iter_paths())
        assert attached.rank_supports() == flat.rank_supports()
        attached.detach()

        shared.close()
        shared.unlink()
        assert not os.path.exists(f"/dev/shm/{name}")
        # idempotent
        shared.close()
        shared.unlink()

    def test_pair_support_travels_through_the_segment(self):
        db = random_database(931, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 2)
        flat = FlatPLT.from_plt(plt)
        assert flat.pair_support is None
        mat = flat.pair_support_matrix()  # computed and cached on first use
        assert mat is not None and flat.pair_support is not None
        # diagonal == rank supports (pair_support[j, j] = support({j}))
        sup = flat.rank_supports()
        assert [int(v) for v in mat.diagonal()] == sup

        shared = flat.to_shared_memory()
        try:
            attached = FlatPLT.attach(shared.meta)
            amat = attached.pair_support_matrix()
            assert amat is not None and (amat == mat).all()
            del amat  # buffer export must die before the mapping closes
            attached.detach()
        finally:
            shared.close()
            shared.unlink()

    def test_pair_support_respects_cell_cap(self, monkeypatch):
        import repro.core.flat as flat_mod

        monkeypatch.setattr(flat_mod, "_PAIR_MATRIX_MAX_CELLS", 1)
        db = random_database(932, max_items=10, max_transactions=40)
        flat = FlatPLT.from_plt(PLT.from_transactions(db, 2))
        assert flat.pair_support_matrix() is None
        assert flat.pair_support is None

    def test_empty_plt_shares(self):
        flat = FlatPLT.from_plt(PLT.from_transactions([], 1))
        shared = flat.to_shared_memory()
        try:
            attached = FlatPLT.attach(shared.meta)
            assert attached.n_paths == 0
            attached.detach()
        finally:
            shared.close()
            shared.unlink()

    def test_segment_names_are_scannable(self):
        db = random_database(933, max_items=8, max_transactions=30)
        flat = FlatPLT.from_plt(PLT.from_transactions(db, 2))
        shared = flat.to_shared_memory()
        try:
            assert shared.name.startswith("plt_shm_")
        finally:
            shared.close()
            shared.unlink()
