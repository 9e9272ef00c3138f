"""Disk-shaped partition directory over a serialized PLT.

The paper argues (Sections 1, 6) that because the PLT "regulates" the data
into fixed-shape, sorted vector partitions, standard indexing applies.
:class:`LengthIndex` maps vector length -> byte span inside a serialized
blob, so the top-down miner can read partitions longest-first without
parsing the whole stream.

The conditional miner's index kind lives on the columns instead: the sum
index is :class:`~repro.core.flat.FlatPLT`'s ``bucket_keys`` /
``bucket_offsets`` (an item's conditional database is one bucket), and the
serving tier's rank -> path postings are
:meth:`~repro.core.flat.FlatPLT.postings`.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.plt import PLT
from repro.core.position import PositionVector
from repro.errors import ReproError

__all__ = ["LengthIndex"]


class LengthIndex:
    """Partition directory over a serialized blob: length -> (offset, size).

    Built alongside a simple concatenated encoding of partitions (each
    partition encoded with :func:`repro.compress.plt_codec.serialize_plt`
    applied to a single-partition PLT would duplicate headers; instead we
    store spans into one stream of varint vector records).  Parsing a
    partition touches only its span.
    """

    __slots__ = ("_blob", "_spans", "_counts")

    def __init__(self, plt: PLT):
        from repro.compress.varint import encode_uvarint

        blob = bytearray()
        spans: dict[int, tuple[int, int]] = {}
        counts: dict[int, int] = {}
        for length in sorted(plt.partitions):
            start = len(blob)
            bucket = plt.partitions[length]
            for vec in sorted(bucket):
                for p in vec:
                    encode_uvarint(p, blob)
                encode_uvarint(bucket[vec], blob)
            spans[length] = (start, len(blob) - start)
            counts[length] = len(bucket)
        self._blob = bytes(blob)
        self._spans = spans
        self._counts = counts

    def lengths(self) -> list[int]:
        return sorted(self._spans)

    def span(self, length: int) -> tuple[int, int]:
        try:
            return self._spans[length]
        except KeyError:
            raise ReproError(f"no partition of length {length}") from None

    def n_vectors(self, length: int) -> int:
        return self._counts.get(length, 0)

    def total_bytes(self) -> int:
        return len(self._blob)

    def read_partition(self, length: int) -> Iterator[tuple[PositionVector, int]]:
        """Decode one partition from its byte span only."""
        from repro.compress.varint import decode_uvarint

        start, size = self.span(length)
        view = memoryview(self._blob)[start : start + size]
        pos = 0
        for _ in range(self._counts[length]):
            vec = []
            for _ in range(length):
                p, pos = decode_uvarint(view, pos)
                vec.append(p)
            freq, pos = decode_uvarint(view, pos)
            yield tuple(vec), freq

    def find_vector(self, vector: PositionVector) -> int | None:
        """Frequency of ``vector`` or None — a point query via its partition.

        Decodes only the partition of the vector's length; within it the
        records are sorted, so the scan early-exits past the key.
        """
        length = len(vector)
        if length not in self._spans:
            return None
        for vec, freq in self.read_partition(length):
            if vec == vector:
                return freq
            if vec > vector:
                return None
        return None
