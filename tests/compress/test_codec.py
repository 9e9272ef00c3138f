"""Unit tests for PLT binary serialization."""

import pytest

from repro.compress.plt_codec import (
    deserialize_plt,
    encoded_size_report,
    serialize_flat,
    serialize_plt,
)
from repro.core.flat import FlatPLT
from repro.core.plt import PLT
from repro.core.rank import RankTable
from repro.data.generators import generate_zipf
from repro.errors import CodecError
from tests.conftest import random_database


def assert_same_plt(a: PLT, b: PLT) -> None:
    assert a.rank_table.items() == b.rank_table.items()
    assert a.partitions == b.partitions
    assert a.min_support == b.min_support
    assert a.n_transactions == b.n_transactions


class TestRoundtrip:
    def test_paper_example(self, paper_plt):
        assert_same_plt(deserialize_plt(serialize_plt(paper_plt)), paper_plt)

    def test_gzip_roundtrip(self, paper_plt):
        assert_same_plt(deserialize_plt(serialize_plt(paper_plt, gzip=True)), paper_plt)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_databases(self, seed):
        db = random_database(seed + 300, max_items=12, max_transactions=60)
        plt = PLT.from_transactions(db, 2)
        assert_same_plt(deserialize_plt(serialize_plt(plt)), plt)

    def test_int_labels(self):
        plt = PLT.from_transactions([(10, 20), (10,)], 1)
        assert_same_plt(deserialize_plt(serialize_plt(plt)), plt)

    def test_unicode_string_labels(self):
        plt = PLT.from_transactions([("café", "naïve"), ("café",)], 1)
        restored = deserialize_plt(serialize_plt(plt))
        assert restored.rank_table.items() == ("café", "naïve")

    def test_empty_plt(self):
        plt = PLT.from_transactions([], 1)
        assert_same_plt(deserialize_plt(serialize_plt(plt)), plt)

    def test_mining_restored_plt_gives_same_result(self, paper_db, paper_plt):
        from repro.core.conditional import mine_conditional

        restored = deserialize_plt(serialize_plt(paper_plt))
        assert sorted(mine_conditional(restored, 2)) == sorted(
            mine_conditional(paper_plt, 2)
        )


#: The paper example's PLT1 stream as the partition-walking encoder wrote it
#: (min_support 2, 6 transactions, labels A-D, 3 partitions of 1 + 3 + 1
#: sorted vectors).  The column encoder must reproduce it byte for byte so
#: snapshots written before it keep loading and keep their digests.
PAPER_PLT1 = bytes.fromhex(
    "504c543100020604010141010142010143010144030201030101030301010102"
    "000102010101010104010101010101"
)


class TestGoldenStream:
    def test_plt_encoder_matches_golden(self, paper_plt):
        assert serialize_plt(paper_plt) == PAPER_PLT1

    def test_column_encoder_matches_golden(self, paper_plt):
        flat = FlatPLT.from_plt(paper_plt)
        assert serialize_flat(flat, paper_plt.rank_table) == PAPER_PLT1

    def test_golden_decodes_to_paper_plt(self, paper_plt):
        assert_same_plt(deserialize_plt(PAPER_PLT1), paper_plt)

    @pytest.mark.parametrize("seed", range(5))
    def test_column_order_does_not_change_bytes(self, seed):
        # a store streams its buckets with every bucket's paths sorted, a
        # live PLT in insertion order: the encoder sorts rows either way
        plt = PLT.from_transactions(random_database(seed + 4400), 2)
        shuffled = FlatPLT.from_buckets(
            ((key, dict(sorted(bucket.items(), reverse=True)))
             for key, bucket in plt.iter_rank_path_buckets()),
            min_support=plt.min_support,
            n_transactions=plt.n_transactions,
        )
        assert serialize_flat(shuffled, plt.rank_table) == serialize_plt(plt)


class TestRejection:
    def test_unsupported_label_type(self):
        plt = PLT.from_transactions([((1, 2),)], 1)  # tuple item label
        with pytest.raises(CodecError, match="int and str"):
            serialize_plt(plt)

    def test_bool_label_rejected(self):
        plt = PLT.from_transactions([(True,)], 1)
        with pytest.raises(CodecError):
            serialize_plt(plt)

    def test_negative_int_label_rejected(self):
        plt = PLT.from_transactions([(-3,)], 1)
        with pytest.raises(CodecError):
            serialize_plt(plt)

    def test_bad_magic(self):
        with pytest.raises(CodecError, match="magic"):
            deserialize_plt(b"NOPE\x00\x01")

    def test_truncated(self, paper_plt):
        blob = serialize_plt(paper_plt)
        with pytest.raises(CodecError):
            deserialize_plt(blob[: len(blob) // 2])

    def test_trailing_garbage(self, paper_plt):
        blob = serialize_plt(paper_plt)
        with pytest.raises(CodecError, match="trailing"):
            deserialize_plt(blob + b"\x00")

    def test_corrupt_gzip(self, paper_plt):
        blob = serialize_plt(paper_plt, gzip=True)
        corrupted = blob[:6] + b"\xff" + blob[7:]
        with pytest.raises(CodecError):
            deserialize_plt(corrupted)

    def test_too_short(self):
        with pytest.raises(CodecError):
            deserialize_plt(b"PLT")


class TestSizes:
    def test_varint_smaller_than_pickle(self):
        db = generate_zipf(800, 80, 6.0, seed=13)
        plt = PLT.from_transactions(db, 2)
        report = encoded_size_report(plt)
        assert report["plain"] < report["pickle"]
        assert report["gzip"] < report["plain"]

    def test_encoded_smaller_than_raw_text(self):
        db = generate_zipf(800, 80, 6.0, seed=13)
        plt = PLT.from_transactions(db, 2)
        report = encoded_size_report(plt)
        assert report["plain"] < report["raw_dat_estimate"]

    def test_report_keys(self, paper_plt):
        report = encoded_size_report(paper_plt)
        assert set(report) == {"plain", "gzip", "pickle", "raw_dat_estimate"}
        assert all(v >= 0 for v in report.values())
