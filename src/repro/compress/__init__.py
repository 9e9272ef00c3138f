"""Compression and indexing of PLT structures (paper §1/§6 claims)."""

from repro.compress.index import LengthIndex
from repro.compress.plt_codec import (
    decode_label,
    deserialize_plt,
    encode_label,
    encoded_size_report,
    serialize_flat,
    serialize_plt,
)
from repro.compress.store import PLTStore
from repro.compress.varint import (
    decode_uvarint,
    decode_uvarints,
    encode_uvarint,
    encode_uvarints,
    uvarint_len,
)

__all__ = [
    "LengthIndex",
    "PLTStore",
    "serialize_plt",
    "serialize_flat",
    "deserialize_plt",
    "encoded_size_report",
    "encode_label",
    "decode_label",
    "encode_uvarint",
    "decode_uvarint",
    "encode_uvarints",
    "decode_uvarints",
    "uvarint_len",
]
