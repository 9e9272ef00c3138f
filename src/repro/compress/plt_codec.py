"""Binary serialization of PLT structures (the paper's compression claim).

Format (version 1, all integers varint unless noted)::

    magic   b"PLT1"
    flags   1 byte (bit 0: gzip-compressed payload follows)
    payload:
        min_support
        n_transactions
        n_items
        n_items x [item label: u8 kind + utf-8/varint body]
        n_partitions
        per partition:
            length k
            n_vectors
            n_vectors x [k positions..., frequency]

Vectors within a partition are sorted, and each vector's *first* position
is delta-encoded against the previous vector's first position — sorted
first-deltas are themselves small, which measurably tightens the stream
(benchmark B8 reports the effect).

Item labels support the types real datasets use: int and str.  Anything
else round-trips via its ``repr`` only if it is one of those after
parsing, otherwise :class:`CodecError` tells the caller to relabel.
"""

from __future__ import annotations

import gzip as _gzip

import numpy as _np

from repro.compress.varint import (
    decode_uvarint,
    encode_uvarint,
)
from repro.core.flat import FlatPLT
from repro.core.plt import PLT
from repro.core.rank import RankTable
from repro.errors import CodecError, InvalidVectorError

__all__ = [
    "serialize_plt",
    "serialize_flat",
    "deserialize_plt",
    "encoded_size_report",
    "encode_label",
    "decode_label",
]

_MAGIC = b"PLT1"
_KIND_INT = 0
_KIND_STR = 1
_FLAG_GZIP = 0x01


def _encode_label(label, buf: bytearray) -> None:
    if isinstance(label, bool) or not isinstance(label, (int, str)):
        raise CodecError(
            f"PLT codec supports int and str item labels, got {type(label).__name__}; "
            f"relabel the database first"
        )
    if isinstance(label, int):
        if label < 0:
            raise CodecError("negative int labels are not supported by the codec")
        buf.append(_KIND_INT)
        encode_uvarint(label, buf)
    else:
        raw = label.encode("utf-8")
        buf.append(_KIND_STR)
        encode_uvarint(len(raw), buf)
        buf.extend(raw)


def _decode_label(data: bytes, pos: int):
    if not 0 <= pos < len(data):
        raise CodecError("truncated item label")
    kind = data[pos]
    pos += 1
    if kind == _KIND_INT:
        return decode_uvarint(data, pos)
    if kind == _KIND_STR:
        length, pos = decode_uvarint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated string label")
        return data[pos : pos + length].decode("utf-8"), pos + length
    raise CodecError(f"unknown label kind {kind}")


# public aliases: the wire format for a single item label is shared with
# the distributed-mining payload codecs
encode_label = _encode_label
decode_label = _decode_label


def serialize_plt(plt: PLT, *, gzip: bool = False) -> bytes:
    """Encode a PLT to bytes; ``gzip=True`` adds a DEFLATE pass."""
    return serialize_flat(FlatPLT.from_plt(plt), plt.rank_table, gzip=gzip)


def serialize_flat(flat: FlatPLT, rank_table: RankTable, *, gzip: bool = False) -> bytes:
    """Encode a PLT's columns plus its rank table; the one PLT1 encoder.

    Paths are grouped by length, turned back into position vectors (the
    deltas of Lemma 4.1.1) and sorted row-wise, so equal structures give
    equal bytes whatever order their columns hold the paths in.
    """
    payload = bytearray()
    encode_uvarint(flat.min_support, payload)
    encode_uvarint(flat.n_transactions, payload)
    items = rank_table.items()
    encode_uvarint(len(items), payload)
    for item in items:
        _encode_label(item, payload)
    groups = flat.paths_by_length()
    encode_uvarint(len(groups), payload)
    append = payload.append
    for length in sorted(groups):
        mat, ifreqs = groups[length]
        vecs = _np.diff(mat, axis=1, prepend=0)
        order = _np.lexsort(vecs.T[::-1])
        vecs = vecs[order]
        # each sorted vector's first position is a delta on the previous one's
        vecs[1:, 0] = _np.diff(vecs[:, 0])
        encode_uvarint(length, payload)
        encode_uvarint(len(vecs), payload)
        for value in _np.column_stack((vecs, ifreqs[order])).ravel().tolist():
            if value < 0x80:
                append(value)
            else:
                encode_uvarint(value, payload)
    body = bytes(payload)
    flags = 0
    if gzip:
        flags |= _FLAG_GZIP
        body = _gzip.compress(body, mtime=0)
    return _MAGIC + bytes([flags]) + body


def deserialize_plt(data: bytes) -> PLT:
    """Inverse of :func:`serialize_plt`."""
    if len(data) < 5 or data[:4] != _MAGIC:
        raise CodecError("not a PLT1 stream (bad magic)")
    flags = data[4]
    body = data[5:]
    if flags & _FLAG_GZIP:
        try:
            body = _gzip.decompress(body)
        except OSError as exc:
            raise CodecError(f"corrupt gzip payload: {exc}") from exc
    pos = 0
    min_support, pos = decode_uvarint(body, pos)
    n_transactions, pos = decode_uvarint(body, pos)
    n_items, pos = decode_uvarint(body, pos)
    labels = []
    for _ in range(n_items):
        label, pos = _decode_label(body, pos)
        labels.append(label)
    try:
        rank_table = RankTable(labels, order="serialized")
    except ValueError as exc:  # e.g. duplicate labels from corruption
        raise CodecError(f"invalid rank table in stream: {exc}") from exc
    vectors: dict[tuple[int, ...], int] = {}
    n_partitions, pos = decode_uvarint(body, pos)
    for _ in range(n_partitions):
        length, pos = decode_uvarint(body, pos)
        if length < 1:
            raise CodecError(f"invalid partition length {length}")
        n_vectors, pos = decode_uvarint(body, pos)
        prev_first = 0
        for _ in range(n_vectors):
            first_delta, pos = decode_uvarint(body, pos)
            first = prev_first + first_delta
            prev_first = first
            rest = []
            for _ in range(length - 1):
                p, pos = decode_uvarint(body, pos)
                rest.append(p)
            freq, pos = decode_uvarint(body, pos)
            vec = (first, *rest)
            if min(vec) < 1 or freq < 1:
                raise CodecError(f"invalid vector/frequency in stream: {vec} x{freq}")
            if vec in vectors:
                raise CodecError(f"duplicate vector in stream: {vec}")
            vectors[vec] = freq
    if pos != len(body):
        raise CodecError(f"{len(body) - pos} trailing bytes after payload")
    try:
        return PLT.from_vectors(
            rank_table, vectors, min_support=min_support, n_transactions=n_transactions
        )
    except (ValueError, InvalidVectorError) as exc:
        raise CodecError(f"stream decodes to an invalid PLT: {exc}") from exc


def encoded_size_report(plt: PLT) -> dict[str, int]:
    """Byte sizes across encodings (benchmark B8's table row).

    Keys: ``plain`` (varint stream), ``gzip`` (varint + DEFLATE),
    ``pickle`` (the naive alternative), ``raw_dat_estimate`` (what the
    original transactions occupy as FIMI text, reconstructed from vector
    frequencies).
    """
    import pickle

    plain = serialize_plt(plt)
    gz = serialize_plt(plt, gzip=True)
    pickled = pickle.dumps(
        {vec: f for bucket in plt.partitions.values() for vec, f in bucket.items()},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    raw = 0
    from repro.core.position import decode as _decode

    for bucket in plt.partitions.values():
        for vec, freq in bucket.items():
            ranks = _decode(vec)
            line = " ".join(str(plt.rank_table.item(r)) for r in ranks) + "\n"
            raw += len(line.encode("utf-8")) * freq
    return {
        "plain": len(plain),
        "gzip": len(gz),
        "pickle": len(pickled),
        "raw_dat_estimate": raw,
    }
