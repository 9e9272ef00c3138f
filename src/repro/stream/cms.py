"""Conservative-update count-min sketch over integer keys.

The exact miners answer frequency queries by holding the database (or
its PLT/FlatPLT lowering).  A count-min sketch answers the same *point*
queries from ``width x depth`` fixed counters: hash the key into one
cell per row, return the minimum.  Collisions only ever *add* counts,
so the estimate is one-sided::

    true_count(x)  <=  estimate(x)  <=  true_count(x) + eps * N

where ``N`` is the total count inserted (the stream's L1 norm), the
``<=`` on the right holds with probability ``>= 1 - delta``, and

    width = ceil(e / eps),    depth = ceil(ln(1 / delta)).

This is the upper-bound construction matching the lower bound in
Price's *Optimal Lower Bound for Itemset Frequency Indicator Sketches*
(PAPERS.md): ~``1/eps`` counters per row is also what any sketch
answering these indicator queries fundamentally needs.

**Conservative update** (Estan & Varghese) keeps the one-sided
guarantee but only raises the cells that *must* rise: on ``add(x, c)``
every cell of ``x`` becomes ``max(cell, estimate(x) + c)`` instead of
``cell + c``.  Rows stop inheriting counts from keys they merely share
a cell with, which in practice shrinks the overestimate by an order of
magnitude on skewed streams — and never breaks ``estimate >= true``.

Keys are **integers** (PLT ranks, or packed rank pairs — see
:func:`pack_pair`).  Hashing uses a seeded 2-universal family
``((a*x + b) mod p) mod width`` over the Mersenne prime ``2^61 - 1``,
so a sketch is deterministic given ``(seed, stream)`` regardless of
``PYTHONHASHSEED`` — snapshots restore byte-identically.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from random import Random

from repro.errors import CheckpointError, InvalidParameterError

__all__ = ["CountMinSketch", "pack_pair", "unpack_pair"]

#: Mersenne prime for the 2-universal hash family.
_PRIME = (1 << 61) - 1

#: Serialization header: epsilon, delta, seed, width, depth, total,
#: conservative flag (magic guards against feeding foreign blobs in).
_HEADER = struct.Struct("<4sddqIIQB")
_MAGIC = b"CMS1"

#: Rank pairs are packed into one integer key; ranks are 1-based and a
#: rank table of 2**31 items is far beyond anything the repo builds.
_PAIR_SHIFT = 32


def pack_pair(r1: int, r2: int) -> int:
    """One integer key for the unordered rank pair ``{r1, r2}``.

    The pair is normalised ``low -> high`` first, matching the PLT's
    canonical rank-path order (paths are strictly increasing).
    """
    if r1 > r2:
        r1, r2 = r2, r1
    return (r1 << _PAIR_SHIFT) | r2


def unpack_pair(key: int) -> tuple[int, int]:
    """Inverse of :func:`pack_pair`."""
    return key >> _PAIR_SHIFT, key & ((1 << _PAIR_SHIFT) - 1)


class CountMinSketch:
    """Fixed-memory frequency counters with a one-sided (eps, delta) bound.

    >>> cms = CountMinSketch(epsilon=0.01, delta=0.01, seed=7)
    >>> [cms.add(rank) for rank in (1, 2, 1, 3, 1)]  # each add returns the new estimate
    [1, 1, 2, 1, 3]
    >>> cms.estimate(1) >= 3  # never under-reports
    True
    >>> cms.estimate(99)  # unseen keys can only over-report
    0
    """

    __slots__ = (
        "epsilon",
        "delta",
        "seed",
        "width",
        "depth",
        "conservative",
        "total",
        "_cells",
        "_a",
        "_b",
    )

    def __init__(
        self,
        epsilon: float = 0.005,
        delta: float = 0.01,
        *,
        seed: int = 0,
        conservative: bool = True,
    ):
        if not 0.0 < epsilon < 1.0:
            raise InvalidParameterError(f"epsilon must be in (0, 1), got {epsilon}")
        if not 0.0 < delta < 1.0:
            raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.seed = int(seed)
        self.width = math.ceil(math.e / epsilon)
        self.depth = math.ceil(math.log(1.0 / delta))
        self.conservative = bool(conservative)
        self.total = 0
        self._cells = array("Q", bytes(8 * self.width * self.depth))
        rng = Random(self.seed)
        self._a = tuple(rng.randrange(1, _PRIME) for _ in range(self.depth))
        self._b = tuple(rng.randrange(0, _PRIME) for _ in range(self.depth))

    # ------------------------------------------------------------------
    def _indexes(self, key: int) -> list[int]:
        width = self.width
        return [
            row * width + ((a * key + b) % _PRIME) % width
            for row, (a, b) in enumerate(zip(self._a, self._b))
        ]

    def add(self, key: int, count: int = 1) -> int:
        """Record ``count`` occurrences of ``key``; returns the new estimate."""
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        cells = self._cells
        idx = self._indexes(key)
        self.total += count
        if self.conservative:
            floor = min(cells[i] for i in idx) + count
            for i in idx:
                if cells[i] < floor:
                    cells[i] = floor
            return floor
        for i in idx:
            cells[i] += count
        return min(cells[i] for i in idx)

    def estimate(self, key: int) -> int:
        """Point estimate; ``>= true count`` always, ``<= true + eps*N`` w.h.p."""
        cells = self._cells
        return min(cells[i] for i in self._indexes(key))

    def error_bound(self) -> int:
        """The additive overestimate bound ``ceil(eps * N)`` at the current N."""
        return math.ceil(self.epsilon * self.total)

    def memory_bytes(self) -> int:
        """Bytes held by the counter table (the dominant, fixed cost)."""
        return 8 * self.width * self.depth

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to a platform-independent byte string."""
        cells = self._cells
        if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
            cells = array("Q", cells)
            cells.byteswap()
        return (
            _HEADER.pack(
                _MAGIC,
                self.epsilon,
                self.delta,
                self.seed,
                self.width,
                self.depth,
                self.total,
                int(self.conservative),
            )
            + cells.tobytes()
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CountMinSketch":
        """Restore a sketch serialized by :meth:`to_bytes` (byte-identical)."""
        if len(blob) < _HEADER.size or blob[:4] != _MAGIC:
            raise CheckpointError("not a serialized CountMinSketch")
        magic, epsilon, delta, seed, width, depth, total, conservative = _HEADER.unpack_from(blob)
        sketch = cls(epsilon, delta, seed=seed, conservative=bool(conservative))
        if (sketch.width, sketch.depth) != (width, depth):
            raise CheckpointError(
                f"sketch shape mismatch: header says {width}x{depth}, "
                f"parameters derive {sketch.width}x{sketch.depth}"
            )
        body = blob[_HEADER.size :]
        if len(body) != 8 * width * depth:
            raise CheckpointError(
                f"sketch body is {len(body)} bytes, expected {8 * width * depth}"
            )
        cells = array("Q")
        cells.frombytes(body)
        if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
            cells.byteswap()
        sketch._cells = cells
        sketch.total = total
        return sketch

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CountMinSketch) and self.to_bytes() == other.to_bytes()

    def __repr__(self) -> str:
        return (
            f"CountMinSketch(eps={self.epsilon}, delta={self.delta}, "
            f"{self.width}x{self.depth}, total={self.total})"
        )
