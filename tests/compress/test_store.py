"""Unit tests for the out-of-core PLT store."""

import pytest

from repro.compress.store import PLTStore
from repro.core.conditional import mine_conditional
from repro.core.plt import PLT
from repro.errors import CodecError, InvalidSupportError
from tests.conftest import random_database


@pytest.fixture
def store_path(tmp_path, paper_plt):
    path = tmp_path / "paper.plts"
    PLTStore.write(paper_plt, path)
    return path


class TestRoundtrip:
    def test_header_fields(self, store_path, paper_plt):
        with PLTStore(store_path) as store:
            assert store.min_support == 2
            assert store.n_transactions == 6
            assert store.rank_table.items() == ("A", "B", "C", "D")

    def test_to_plt_recovers_vectors(self, store_path, paper_plt):
        with PLTStore(store_path) as store:
            assert store.to_plt().vectors() == paper_plt.vectors()

    def test_read_single_bucket(self, store_path, paper_plt):
        with PLTStore(store_path) as store:
            assert store.read_bucket(4) == paper_plt.sum_index()[4]
            assert store.read_bucket(99) == {}

    def test_bucket_info(self, store_path):
        with PLTStore(store_path) as store:
            assert store.bucket_info(4) == (4, 4)
            assert store.bucket_info(3) == (1, 2)
            assert store.bucket_info(42) == (0, 0)

    def test_sums_descending(self, store_path):
        with PLTStore(store_path) as store:
            assert store.sums() == [4, 3]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_roundtrip(self, tmp_path, seed):
        db = random_database(seed + 2100, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 1)
        path = tmp_path / "r.plts"
        PLTStore.write(plt, path)
        with PLTStore(path) as store:
            assert store.to_plt().vectors() == plt.vectors()

    def test_rank_path_cache_preserved(self, store_path, paper_plt):
        # the PLT precomputes rank paths at construction; a codec round
        # trip must rebuild an identical cache, or every miner downstream
        # of to_plt() would run on different paths than the original
        with PLTStore(store_path) as store:
            restored = store.to_plt()
        assert sorted(restored.iter_rank_paths()) == sorted(
            paper_plt.iter_rank_paths()
        )
        assert dict(restored.iter_rank_path_buckets()) == dict(
            paper_plt.iter_rank_path_buckets()
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_rank_path_cache_preserved_random(self, tmp_path, seed):
        db = random_database(seed + 2300, max_items=10, max_transactions=60)
        plt = PLT.from_transactions(db, 2)
        path = PLTStore.write(plt, tmp_path / "c.plts")
        with PLTStore(path) as store:
            restored = store.to_plt()
        assert sorted(restored.iter_rank_paths()) == sorted(plt.iter_rank_paths())
        assert sorted(mine_conditional(restored, 2)) == sorted(
            mine_conditional(plt, 2)
        )

    def test_empty_plt(self, tmp_path):
        plt = PLT.from_transactions([], 1)
        path = PLTStore.write(plt, tmp_path / "empty.plts")
        with PLTStore(path) as store:
            assert store.sums() == []
            assert store.mine(1) == []

    def test_repr(self, store_path):
        with PLTStore(store_path) as store:
            assert "PLTStore" in repr(store)


class TestOutOfCoreMining:
    def test_equals_in_memory(self, store_path, paper_plt):
        with PLTStore(store_path) as store:
            assert sorted(store.mine(2)) == sorted(mine_conditional(paper_plt, 2))

    def test_default_support_from_header(self, store_path, paper_plt):
        with PLTStore(store_path) as store:
            assert sorted(store.mine()) == sorted(mine_conditional(paper_plt, 2))

    def test_max_len(self, store_path):
        with PLTStore(store_path) as store:
            pairs = store.mine(2, max_len=1)
            assert len(pairs) == 4

    def test_invalid_support(self, store_path):
        with PLTStore(store_path) as store:
            with pytest.raises(InvalidSupportError):
                store.mine(0)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_mining(self, tmp_path, seed):
        db = random_database(seed + 2200, max_items=9, max_transactions=40)
        for min_support in (1, 2, 4):
            plt = PLT.from_transactions(db, min_support)
            path = tmp_path / f"m{min_support}.plts"
            PLTStore.write(plt, path)
            with PLTStore(path) as store:
                assert sorted(store.mine(min_support)) == sorted(
                    mine_conditional(plt, min_support)
                )


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.plts"
        path.write_bytes(b"NOPE" + b"\x01" + b"\x00" * 10)
        with pytest.raises(CodecError, match="magic"):
            PLTStore(path)

    def test_bad_version(self, store_path, tmp_path):
        data = bytearray(store_path.read_bytes())
        data[4] = 99
        bad = tmp_path / "v.plts"
        bad.write_bytes(bytes(data))
        with pytest.raises(CodecError, match="version"):
            PLTStore(bad)

    def test_truncated_payload(self, store_path, tmp_path):
        data = store_path.read_bytes()
        bad = tmp_path / "t.plts"
        bad.write_bytes(data[:-3])
        with pytest.raises(CodecError):
            store = PLTStore(bad)
            # span validation may catch it at open; if not, reading must
            for s in store.sums():
                store.read_bucket(s)

    def test_handle_closed_after_failed_open(self, tmp_path):
        path = tmp_path / "x.plts"
        path.write_bytes(b"PLTS\x01")  # truncated header
        with pytest.raises(CodecError):
            PLTStore(path)
