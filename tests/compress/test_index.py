"""Unit tests for the PLT indexes (sum index and length directory)."""

import pytest

from repro.compress.index import LengthIndex
from repro.core.flat import FlatPLT
from repro.core.plt import PLT
from repro.core.position import path_to_vector
from repro.errors import ReproError
from tests.conftest import random_database


def _sum_index(flat):
    """``{sum: {vector: freq}}`` read off the bucket columns."""
    keys, boff = flat.bucket_keys, flat.bucket_offsets
    return {
        keys[b]: {
            path_to_vector(flat.path(p)): flat.freqs[p]
            for p in range(boff[b], boff[b + 1])
        }
        for b in range(flat.n_buckets)
    }


class TestSumIndex:
    """The sum index is the columns' ``bucket_keys`` / ``bucket_offsets``."""

    def test_buckets_match_plt_sum_index(self, paper_plt):
        assert _sum_index(FlatPLT.from_plt(paper_plt)) == paper_plt.sum_index()

    def test_sums_descending(self, paper_plt):
        sums = list(FlatPLT.from_plt(paper_plt).bucket_keys)
        assert sums == sorted(sums, reverse=True)

    def test_support_is_bucket_total(self, paper_plt):
        buckets = _sum_index(FlatPLT.from_plt(paper_plt))
        # vectors ending at rank 4: CD, ABD, BCD, ABCD -> total freq 4
        assert sum(buckets[4].values()) == 4
        assert sum(buckets[3].values()) == 2  # ABC x2
        assert 99 not in buckets

    def test_contains_len(self, paper_plt):
        flat = FlatPLT.from_plt(paper_plt)
        assert 4 in flat.bucket_keys and 99 not in flat.bucket_keys
        assert flat.n_buckets == 2

    def test_empty_plt(self):
        flat = FlatPLT.from_plt(PLT.from_transactions([], 1))
        assert list(flat.bucket_keys) == []
        assert flat.n_buckets == 0


class TestLengthIndex:
    def test_read_partition_roundtrip(self, paper_plt):
        idx = LengthIndex(paper_plt)
        for length in idx.lengths():
            assert dict(idx.read_partition(length)) == paper_plt.partition(length)

    def test_spans_are_disjoint_and_cover(self, paper_plt):
        idx = LengthIndex(paper_plt)
        spans = sorted(idx.span(k) for k in idx.lengths())
        end = 0
        for start, size in spans:
            assert start == end
            end = start + size
        assert end == idx.total_bytes()

    def test_missing_partition_raises(self, paper_plt):
        idx = LengthIndex(paper_plt)
        with pytest.raises(ReproError):
            idx.span(99)

    def test_n_vectors(self, paper_plt):
        idx = LengthIndex(paper_plt)
        assert idx.n_vectors(3) == 3
        assert idx.n_vectors(99) == 0

    def test_find_vector_point_query(self, paper_plt):
        idx = LengthIndex(paper_plt)
        assert idx.find_vector((1, 1, 1)) == 2
        assert idx.find_vector((1, 1, 3)) is None  # right length, absent
        assert idx.find_vector((9, 9, 9, 9, 9)) is None  # no such partition

    @pytest.mark.parametrize("seed", range(4))
    def test_random_roundtrip(self, seed):
        db = random_database(seed + 400, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 1)
        idx = LengthIndex(plt)
        for length in idx.lengths():
            assert dict(idx.read_partition(length)) == plt.partition(length)
        for vec, freq in plt.vectors().items():
            assert idx.find_vector(vec) == freq

    def test_empty(self):
        idx = LengthIndex(PLT.from_transactions([], 1))
        assert idx.lengths() == []
        assert idx.total_bytes() == 0
