"""Out-of-core PLT store — mining larger-than-memory structures.

The paper's introduction positions the PLT for "supporting large
databases" via compression and indexing.  This module demonstrates the
claim end to end: a PLT is written to disk as a directory of sum-indexed
buckets (the conditional miner's access pattern), and
:meth:`PLTStore.mine` runs Algorithm 3 reading each bucket **once, on
demand, in descending-sum order** — resident memory holds only the rank
table, the directory, and the migrated prefix vectors, never the whole
structure.

File format (little-endian varints)::

    magic      b"PLTS"
    version    1 byte (=1)
    header     min_support, n_transactions, n_items, n_items x label
    directory  n_buckets, then per bucket: sum, n_vectors, total_freq,
               payload_offset (relative to payload base), payload_len
    payloads   per bucket: n_vectors x [len, positions..., freq]

The directory is materialised on :meth:`open`; bucket payloads are read
with ``seek`` on demand — by :meth:`PLTStore.mine` and by
:meth:`PLTStore.iter_rank_path_buckets`, which streams the buckets into
the serving tier's columns.
"""

from __future__ import annotations

from itertools import accumulate
from pathlib import Path

from repro.compress.plt_codec import decode_label, encode_label
from repro.compress.varint import decode_uvarint, encode_uvarint
from repro.core.conditional import _consume_bucket, mine_conditional_block
from repro.core.plt import PLT
from repro.core.position import PositionVector
from repro.core.rank import RankTable
from repro.errors import CodecError, InvalidSupportError, MiningInterrupted

__all__ = ["PLTStore"]

_MAGIC = b"PLTS"
_VERSION = 1


class _BucketEntry:
    __slots__ = ("sum", "n_vectors", "total_freq", "offset", "length")

    def __init__(self, sum_, n_vectors, total_freq, offset, length):
        self.sum = sum_
        self.n_vectors = n_vectors
        self.total_freq = total_freq
        self.offset = offset
        self.length = length


class PLTStore:
    """Read-only handle on an on-disk PLT; create files with :meth:`write`."""

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._fh = open(self._path, "rb")
        try:
            self._read_header()
        except Exception:
            self._fh.close()
            raise

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    @classmethod
    def write(cls, plt: PLT, path: str | Path) -> Path:
        """Serialize ``plt`` to ``path`` in store format; returns the path."""
        path = Path(path)
        header = bytearray()
        encode_uvarint(plt.min_support, header)
        encode_uvarint(plt.n_transactions, header)
        items = plt.rank_table.items()
        encode_uvarint(len(items), header)
        for item in items:
            encode_label(item, header)

        # payloads per sum bucket, collecting directory entries
        payloads = bytearray()
        entries: list[tuple[int, int, int, int, int]] = []
        sum_index = plt.sum_index()
        for s in sorted(sum_index):
            bucket = sum_index[s]
            start = len(payloads)
            total_freq = 0
            for vec in sorted(bucket):
                freq = bucket[vec]
                total_freq += freq
                encode_uvarint(len(vec), payloads)
                for p in vec:
                    encode_uvarint(p, payloads)
                encode_uvarint(freq, payloads)
            entries.append((s, len(bucket), total_freq, start, len(payloads) - start))

        directory = bytearray()
        encode_uvarint(len(entries), directory)
        for s, n_vectors, total_freq, offset, length in entries:
            encode_uvarint(s, directory)
            encode_uvarint(n_vectors, directory)
            encode_uvarint(total_freq, directory)
            encode_uvarint(offset, directory)
            encode_uvarint(length, directory)

        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(bytes([_VERSION]))
            fh.write(bytes(header))
            fh.write(bytes(directory))
            fh.write(bytes(payloads))
        return path

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _read_header(self) -> None:
        fh = self._fh
        magic = fh.read(4)
        if magic != _MAGIC:
            raise CodecError(f"{self._path}: not a PLT store (bad magic)")
        version = fh.read(1)
        if version != bytes([_VERSION]):
            raise CodecError(f"{self._path}: unsupported store version {version!r}")
        # read the rest of the fixed-position stream incrementally
        buf = fh.read()
        pos = 0
        self.min_support, pos = decode_uvarint(buf, pos)
        self.n_transactions, pos = decode_uvarint(buf, pos)
        n_items, pos = decode_uvarint(buf, pos)
        labels = []
        for _ in range(n_items):
            label, pos = decode_label(buf, pos)
            labels.append(label)
        try:
            self.rank_table = RankTable(labels, order="stored")
        except ValueError as exc:  # duplicate labels from corruption
            raise CodecError(f"{self._path}: invalid rank table: {exc}") from exc
        n_buckets, pos = decode_uvarint(buf, pos)
        self._directory: dict[int, _BucketEntry] = {}
        for _ in range(n_buckets):
            s, pos = decode_uvarint(buf, pos)
            n_vectors, pos = decode_uvarint(buf, pos)
            total_freq, pos = decode_uvarint(buf, pos)
            offset, pos = decode_uvarint(buf, pos)
            length, pos = decode_uvarint(buf, pos)
            if s in self._directory:
                raise CodecError(f"{self._path}: duplicate bucket sum {s}")
            self._directory[s] = _BucketEntry(s, n_vectors, total_freq, offset, length)
        self._payload_base = 5 + pos  # magic+version plus consumed header bytes
        # validate spans
        end = len(buf) - pos
        for entry in self._directory.values():
            if entry.offset + entry.length > end:
                raise CodecError(f"{self._path}: bucket span out of range")

    # ------------------------------------------------------------------
    def sums(self) -> list[int]:
        """All bucket sums, descending (the mining order)."""
        return sorted(self._directory, reverse=True)

    def bucket_info(self, s: int) -> tuple[int, int]:
        """(n_vectors, total_freq) for a sum, or (0, 0)."""
        entry = self._directory.get(s)
        return (entry.n_vectors, entry.total_freq) if entry else (0, 0)

    def read_bucket(self, s: int) -> dict[PositionVector, int]:
        """Read one sum bucket from disk (a single seek + bounded read)."""
        entry = self._directory.get(s)
        if entry is None:
            return {}
        self._fh.seek(self._payload_base + entry.offset)
        data = self._fh.read(entry.length)
        if len(data) != entry.length:
            raise CodecError(f"{self._path}: truncated bucket {s}")
        out: dict[PositionVector, int] = {}
        pos = 0
        for _ in range(entry.n_vectors):
            length, pos = decode_uvarint(data, pos)
            if length < 1:
                raise CodecError(f"{self._path}: empty vector in bucket {s}")
            vec = []
            for _ in range(length):
                p, pos = decode_uvarint(data, pos)
                if p < 1:
                    raise CodecError(
                        f"{self._path}: non-positive position in bucket {s}"
                    )
                vec.append(p)
            freq, pos = decode_uvarint(data, pos)
            if freq < 1:
                raise CodecError(f"{self._path}: non-positive frequency in bucket {s}")
            if sum(vec) != s:
                raise CodecError(
                    f"{self._path}: vector sum {sum(vec)} in bucket {s}"
                )
            out[tuple(vec)] = freq
        if pos != entry.length:
            raise CodecError(f"{self._path}: bucket {s} has trailing bytes")
        return out

    def iter_rank_path_buckets(self):
        """Stream ``(sum, {rank path: frequency})`` buckets, descending sum.

        Each sum bucket is read from disk once and its vectors converted
        to cumulative-sum rank paths, so resident memory holds one bucket
        at a time.  This is the serving layer's load path: a
        :class:`~repro.serve.engine.ServingIndex` lowers the stream
        straight into :meth:`~repro.core.flat.FlatPLT.from_buckets`
        without materialising the full vector table first.
        """
        for s in self.sums():
            yield s, {
                tuple(accumulate(vec)): freq
                for vec, freq in self.read_bucket(s).items()
            }

    def to_plt(self) -> PLT:
        """Load the whole structure into memory (for small stores)."""
        vectors: dict[PositionVector, int] = {}
        for s in self._directory:
            vectors.update(self.read_bucket(s))
        return PLT.from_vectors(
            self.rank_table,
            vectors,
            min_support=self.min_support,
            n_transactions=self.n_transactions,
        )

    # ------------------------------------------------------------------
    def mine(
        self,
        min_support: int | None = None,
        *,
        max_len: int | None = None,
        governor=None,
    ) -> list[tuple[tuple[int, ...], int]]:
        """Algorithm 3 streaming buckets from disk, descending sum.

        Each on-disk bucket is read exactly once; migrated prefixes (which
        are strictly shorter than their sources) are the only mining state
        held in memory.  Output format matches
        :func:`repro.core.conditional.mine_conditional`.

        With a ``governor``, a budget trip raises
        :class:`~repro.errors.MiningInterrupted` carrying ``partial`` (all
        exact supports) and ``progress["complete_from_rank"]`` — every
        itemset whose maximal rank is >= that value was fully enumerated.
        """
        if min_support is None:
            min_support = self.min_support
        if min_support < 1:
            raise InvalidSupportError(
                f"absolute min_support must be >= 1, got {min_support}"
            )
        results: list[tuple[tuple[int, ...], int]] = []

        # the path engine emits itemsets already sorted ascending — append raw
        if governor is None:
            def emit(itemset: tuple[int, ...], support: int) -> None:
                results.append((itemset, support))
        else:
            governor.start()

            def emit(itemset: tuple[int, ...], support: int) -> None:
                governor.note_itemsets()
                results.append((itemset, support))

        migrated: dict[int, dict[PositionVector, int]] = {}
        top = max(self._directory, default=0)
        try:
            for j in range(top, 0, -1):
                bucket = migrated.pop(j, None)
                disk = self.read_bucket(j) if j in self._directory else {}
                if bucket:
                    for vec, freq in disk.items():
                        bucket[vec] = bucket.get(vec, 0) + freq
                else:
                    bucket = disk
                if not bucket:
                    continue
                if governor is not None:
                    governor.progress["mining_rank"] = j
                    governor.tick(len(bucket))
                cd, support = _consume_bucket(bucket, migrated)
                if support < min_support:
                    continue
                emit((j,), support)
                if cd and (max_len is None or max_len > 1):
                    mine_conditional_block(
                        cd, j, min_support, emit, max_len, governor=governor
                    )
        except MiningInterrupted as exc:
            exc.partial = results
            mining_rank = governor.progress.get("mining_rank") if governor else None
            if mining_rank is not None:
                exc.progress.setdefault("complete_from_rank", mining_rank + 1)
            raise
        return results

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "PLTStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"PLTStore({self._path.name!r}, buckets={len(self._directory)}, "
            f"items={len(self.rank_table)})"
        )
