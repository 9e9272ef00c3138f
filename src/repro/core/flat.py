"""Columnar lowering of the PLT rank-path index — the miners' and server's input.

The PLT interns every stored vector's rank path (cumulative-sum tuple,
Lemma 4.1.1) grouped into sum-index buckets.  This module lowers that
dict-of-dicts into five contiguous typed columns.  They are the one input
of Algorithm 3's top level
(:func:`~repro.core.conditional.mine_conditional_flat_range`) and the
serving tier's whole index, in process and in worker processes alike:
the whole structure can live in a single
``multiprocessing.shared_memory`` segment and be *mapped*, not copied:

====================  ====  =============  =======================================
column                type  items          meaning
====================  ====  =============  =======================================
``ranks``             "I"   n_cells        all rank paths concatenated, bucket-major
``path_offsets``      "Q"   n_paths + 1    path ``p`` is ``ranks[off[p]:off[p+1]]``
``freqs``             "Q"   n_paths        aggregated frequency of path ``p``
``bucket_keys``       "I"   n_buckets      sum-index keys (max rank), *descending*
``bucket_offsets``    "Q"   n_buckets + 1  bucket ``b`` holds paths ``[boff[b], boff[b+1])``
====================  ====  =============  =======================================

A sixth optional column, ``pair_support`` ("d", ``width**2``), carries the
dense pairwise co-occurrence matrix once :meth:`FlatPLT.pair_support_matrix`
computed it — the driver computes it before :meth:`to_shared_memory`, so
range workers read the one globally-shared table their restriction cannot
shrink straight off the segment.  This module owns the dense-matrix
decision: above :data:`_PAIR_MATRIX_MAX_CELLS` there is no matrix and the
conditional miner takes its wide fallback.

The serving reads — :meth:`FlatPLT.support` and
:meth:`FlatPLT.paths_through` — use a CSR postings column (rank -> ids of
the paths through it, ascending), built in process by
:meth:`FlatPLT.postings` and never placed in a segment.

Columns are 8-byte aligned back to back in one buffer; the picklable
``meta`` dict (segment name, per-column lengths, the three scalars) is all
a worker needs to :meth:`FlatPLT.attach`.  NumPy (a hard dependency)
supplies zero-copy views over the columns through :meth:`as_numpy`.

Attach-side resource tracking: on Python < 3.13 every
``SharedMemory(create=False)`` *registers* the segment with the resource
tracker as if the attaching process owned it — at interpreter exit the
tracker then unlinks a segment the creator still uses, or warns about a
"leak" it never owned.  :meth:`FlatPLT.attach` suppresses that
registration (``track=False`` natively on 3.13+, a register-hook bypass
before), so cleanup stays solely with the creating process and no
tracker warning can fire.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Iterator
from itertools import accumulate, chain

import numpy as _np

from repro.core.plt import PLT
from repro.core.position import RankPath

__all__ = ["FlatPLT", "SharedFlatPLT", "FLAT_FIELDS"]

#: The columns, in buffer order: (attribute name, array typecode).
FLAT_FIELDS: tuple[tuple[str, str], ...] = (
    ("ranks", "I"),
    ("path_offsets", "Q"),
    ("freqs", "Q"),
    ("bucket_keys", "I"),
    ("bucket_offsets", "Q"),
)

_ITEMSIZE = {code: array(code).itemsize for code in ("I", "Q", "d")}

_DTYPES = {"I": _np.dtype("uint32"), "Q": _np.dtype("uint64")}

#: Rank-space ceiling for the pairwise co-occurrence matrix: the dense
#: ``(R+1)^2`` float array must stay small (~15 MB at the cap) or the
#: vectorised top level would cost more memory than it saves time.
_PAIR_MATRIX_MAX_CELLS = 2_000_000

#: Column alignment inside the shared buffer.
_ALIGN = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _segment_name() -> str:
    """A recognisable segment name: scannable in /dev/shm by tests."""
    return f"plt_shm_{os.getpid()}_{os.urandom(4).hex()}"


def _pair_support_matrix(arrays, width: int):
    """Dense pairwise co-occurrence counts over length-grouped matrices.

    ``arrays`` is :meth:`FlatPLT.paths_by_length`'s output.  By Lemma
    4.1.1 the local support of rank ``k`` in ``CD_j`` is exactly
    ``support({k, j})``, so this one table replaces the conditional top
    level's migration cascade and per-bucket supports scan.  Range
    restrictions never change these counts.
    """
    cells = width * width
    total = _np.zeros(cells)
    for length, (mat, ifreqs) in arrays.items():
        freqs = ifreqs.astype(_np.float64)
        if length == 1:
            codes = (mat[:, 0] * width + mat[:, 0]).ravel()
            total += _np.bincount(codes, weights=freqs, minlength=cells)
            continue
        iidx, kidx = _np.tril_indices(length)
        codes = (mat[:, iidx] * width + mat[:, kidx]).ravel()
        weights = _np.repeat(freqs, len(iidx))
        total += _np.bincount(codes, weights=weights, minlength=cells)
    return total.reshape(width, width)


class FlatPLT:
    """Read-only columnar view of a PLT's rank-path index.

    Instances are immutable after construction, apart from the
    ``pair_support`` column :meth:`pair_support_matrix` and the postings
    :meth:`postings` fill on first use.  The columns are either ``array.array`` objects (built
    in-process by :meth:`from_plt`) or ``memoryview`` casts over a
    shared-memory buffer (:meth:`attach` and the twin a
    :class:`SharedFlatPLT` owner exposes) — both support the same
    indexing/slicing/``tobytes`` surface the kernels use.
    """

    __slots__ = (
        "ranks",
        "path_offsets",
        "freqs",
        "bucket_keys",
        "bucket_offsets",
        "pair_support",
        "min_support",
        "n_transactions",
        "max_rank",
        "_shm",
        "_mviews",
        "_np_views",
        "_postings",
    )

    def __init__(
        self,
        ranks,
        path_offsets,
        freqs,
        bucket_keys,
        bucket_offsets,
        pair_support=None,
        *,
        min_support: int,
        n_transactions: int,
        max_rank: int,
    ) -> None:
        self.ranks = ranks
        self.path_offsets = path_offsets
        self.freqs = freqs
        self.bucket_keys = bucket_keys
        self.bucket_offsets = bucket_offsets
        self.pair_support = pair_support
        self.min_support = min_support
        self.n_transactions = n_transactions
        self.max_rank = max_rank
        self._shm = None
        self._mviews: tuple = ()
        self._np_views = None
        self._postings = None

    # -- construction -------------------------------------------------------
    @classmethod
    def from_buckets(
        cls, buckets, *, min_support: int, n_transactions: int
    ) -> "FlatPLT":
        """Lower ``(max rank, {rank path: frequency})`` buckets into columns.

        ``buckets`` must arrive in *descending* key order — the order of
        :meth:`PLT.iter_rank_path_buckets` and of
        :meth:`~repro.compress.store.PLTStore.iter_rank_path_buckets`, which
        streams a store off disk one bucket at a time.  Every column is
        filled bucket-at-a-time from C-level iterators.
        """
        ranks = array("I")
        lengths: list[int] = []
        freqs = array("Q")
        bucket_keys = array("I")
        bucket_offsets = array("Q", (0,))
        for key, bucket in buckets:
            bucket_keys.append(key)
            ranks.extend(chain.from_iterable(bucket))
            lengths.extend(map(len, bucket))
            freqs.extend(bucket.values())
            bucket_offsets.append(len(freqs))
        return cls(
            ranks,
            array("Q", accumulate(lengths, initial=0)),
            freqs,
            bucket_keys,
            bucket_offsets,
            min_support=min_support,
            n_transactions=n_transactions,
            max_rank=bucket_keys[0] if bucket_keys else 0,
        )

    @classmethod
    def from_plt(cls, plt: PLT) -> "FlatPLT":
        """Lower a PLT's interned rank-path index into columns (one pass)."""
        return cls.from_buckets(
            plt.iter_rank_path_buckets(),
            min_support=plt.min_support,
            n_transactions=plt.n_transactions,
        )

    # -- basic shape --------------------------------------------------------
    @property
    def n_paths(self) -> int:
        return len(self.freqs)

    @property
    def n_cells(self) -> int:
        return len(self.ranks)

    @property
    def n_buckets(self) -> int:
        return len(self.bucket_keys)

    def path(self, p: int) -> RankPath:
        """Stored path ``p`` as a plain rank tuple."""
        return tuple(self.ranks[self.path_offsets[p] : self.path_offsets[p + 1]])

    def packed_path(self, p: int) -> bytes:
        """Stored path ``p`` in the top-down byte engine's key encoding."""
        off = self.path_offsets
        return self.ranks[off[p] : off[p + 1]].tobytes()

    def iter_paths(self) -> Iterator[tuple[RankPath, int]]:
        """All ``(path, frequency)`` pairs, bucket-major (storage order)."""
        ranks, off, freqs = self.ranks, self.path_offsets, self.freqs
        for p in range(len(freqs)):
            yield tuple(ranks[off[p] : off[p + 1]]), freqs[p]

    # -- vectorized views ---------------------------------------------------
    def as_numpy(self):
        """Zero-copy NumPy views over the columns (cached)."""
        views = self._np_views
        if views is None:
            views = {
                name: _np.frombuffer(getattr(self, name), dtype=_DTYPES[code])
                for name, code in FLAT_FIELDS
            }
            self._np_views = views
        return views

    def rank_supports(self) -> list[int]:
        """Exact support of every rank, indexed by rank (index 0 unused).

        Each path's frequency is repeated across its cells and bincounted
        by rank id — one fused pass, no Python-level loop over paths.
        """
        views = self.as_numpy()
        width = self.max_rank + 1
        offsets = views["path_offsets"].astype(_np.int64)
        reps = _np.diff(offsets)
        weights = _np.repeat(views["freqs"].astype(_np.float64), reps)
        sup = _np.bincount(views["ranks"], weights=weights, minlength=width)
        return [int(s) for s in sup]

    def rank_costs(self) -> list[int]:
        """Per-rank work proxy for range planning, indexed by rank.

        ``cost[j]`` is the total prefix length over every cell holding
        ``j`` — the volume of conditional-database entries a top-level
        consume of rank ``j`` touches.  Same bincount shape as
        :meth:`rank_supports`, weighted by within-path position.
        """
        views = self.as_numpy()
        width = self.max_rank + 1
        offsets = views["path_offsets"].astype(_np.int64)
        reps = _np.diff(offsets)
        pos = _np.arange(len(views["ranks"]), dtype=_np.int64)
        pos = pos - _np.repeat(offsets[:-1], reps)
        cost = _np.bincount(
            views["ranks"], weights=pos.astype(_np.float64), minlength=width
        )
        return [int(c) for c in cost]

    # -- postings (serving reads) -------------------------------------------
    def postings(self):
        """The CSR postings column as ``(ids, offsets, supports)`` (cached).

        ``ids[offsets[r]:offsets[r + 1]]`` are the ids of the stored paths
        through rank ``r``, ascending; ``supports[r]`` is the rank's exact
        support.  Built on first use by one stable sort of the cells by
        rank.  Not part of :data:`FLAT_FIELDS`: the postings never enter a
        shared-memory segment, and a concurrent reader must build them
        before sharing the instance across threads.
        """
        built = self._postings
        if built is None:
            views = self.as_numpy()
            cells = views["ranks"]
            width = self.max_rank + 1
            path_ids = _np.repeat(
                _np.arange(self.n_paths, dtype=_np.uint32),
                _np.diff(views["path_offsets"].astype(_np.int64)),
            )
            ids = path_ids[_np.argsort(cells, kind="stable")]
            counts = _np.bincount(cells, minlength=width)
            offsets = [0, *accumulate(counts.tolist())]
            built = self._postings = (ids, offsets, self.rank_supports())
        return built

    def support(self, ranks, governor=None) -> int:
        """Exact support of the itemset with the given ranks.

        One rank reads its precomputed support.  More ranks intersect the
        sorted postings with ``searchsorted``, starting from the rarest
        rank's list, and sum the surviving paths' frequencies; each stored
        path is a whole aggregated transaction, so containment of every
        query rank decides membership.  A ``governor`` is charged the
        rarest list's length.
        """
        ids, offsets, supports = self.postings()
        wanted = set(ranks)
        if not wanted:
            return sum(self.freqs)
        if min(wanted) < 1 or max(wanted) >= len(supports):
            return 0  # a rank no path holds kills the intersection
        if len(wanted) == 1:
            return supports[wanted.pop()]
        lists = sorted(
            (ids[offsets[r] : offsets[r + 1]] for r in wanted), key=len
        )
        hits = lists[0]
        if governor is not None:
            governor.tick(len(hits))
        for other in lists[1:]:
            if not len(hits) or not len(other):
                return 0
            pos = _np.searchsorted(other, hits)
            _np.minimum(pos, len(other) - 1, out=pos)
            hits = hits[other[pos] == hits]
        return int(self.as_numpy()["freqs"][hits].sum())

    def paths_through(self, rank: int) -> dict[RankPath, int]:
        """The conditional database of ``rank``: ``{path minus rank: freq}``.

        Every stored path through ``rank`` with the rank removed (paths
        that held nothing else are dropped).  Removing one rank from
        distinct paths that all contain it keeps them distinct, so the
        result needs no re-aggregation.
        """
        ids, offsets, supports = self.postings()
        if not 0 < rank < len(supports):
            return {}
        sel = ids[offsets[rank] : offsets[rank + 1]]
        views = self.as_numpy()
        off = views["path_offsets"]
        starts = off[sel].astype(_np.int64)
        lengths = off[sel + 1].astype(_np.int64) - starts
        # cell index of every selected cell: a per-path base plus a running
        # counter, so one gather reads all the paths at once
        firsts = _np.cumsum(lengths) - lengths
        cells = views["ranks"][
            _np.arange(int(lengths.sum())) + _np.repeat(starts - firsts, lengths)
        ]
        kept = cells[cells != rank].tolist()
        ends = _np.cumsum(lengths - 1).tolist()
        out: dict[RankPath, int] = {}
        lo = 0
        for hi, freq in zip(ends, views["freqs"][sel].tolist()):
            if hi > lo:
                out[tuple(kept[lo:hi])] = freq
            lo = hi
        return out

    def paths_by_length(self):
        """Stored paths grouped by length as ``{length: (mat, ifreqs)}``.

        ``mat`` is an int64 ``(n, length)`` matrix of rank paths and
        ``ifreqs`` the matching int64 frequency column — exactly the input
        shape of the vectorised conditional top level.
        """
        if self.n_paths == 0:
            return {}
        views = self.as_numpy()
        offsets = views["path_offsets"].astype(_np.int64)
        lengths = _np.diff(offsets)
        starts = offsets[:-1]
        ranks = views["ranks"]
        ifreqs = views["freqs"].astype(_np.int64)
        out = {}
        # bincount, not unique: np.unique's first call imports numpy.ma
        for size in _np.flatnonzero(_np.bincount(lengths)).tolist():
            rows = _np.nonzero(lengths == size)[0]
            idx = starts[rows][:, None] + _np.arange(size, dtype=_np.int64)
            # widen per group: copying the whole column to int64 up front
            # measurably raised the peak RSS of every conditional mine
            out[size] = (ranks[idx].astype(_np.int64), ifreqs[rows])
        return out

    def pair_support_matrix(self):
        """The dense ``(width, width)`` pair matrix, or ``None`` above the cap.

        ``matrix[j, k]`` for ``j >= k`` is the exact support of ``{k, j}``
        (and of ``{j}`` on the diagonal).  Computed on first use and kept
        as the ``pair_support`` column, so a later :meth:`to_shared_memory`
        ships it and attaching workers read it off the segment instead of
        re-running the bincount over all stored paths.  The buffer view is
        cached alongside :meth:`as_numpy`'s so that :meth:`detach`/``close``
        can drop every buffer export.
        """
        width = self.max_rank + 1
        if self.pair_support is None:
            if width * width > _PAIR_MATRIX_MAX_CELLS:
                return None
            self.pair_support = _pair_support_matrix(
                self.paths_by_length(), width
            ).ravel()
        views = self.as_numpy()
        flatview = views.get("pair_support")
        if flatview is None:
            flatview = _np.frombuffer(self.pair_support, dtype=_np.float64)
            views["pair_support"] = flatview
        return flatview.reshape(width, width)

    # -- shared memory ------------------------------------------------------
    def _meta_scalars(self) -> dict:
        return {
            "min_support": self.min_support,
            "n_transactions": self.n_transactions,
            "max_rank": self.max_rank,
        }

    def to_shared_memory(self, name: str | None = None) -> "SharedFlatPLT":
        """Copy the columns into one shared segment; return the owner handle.

        The handle's ``flat`` attribute is a twin of this instance backed
        by the segment itself.  The caller owns cleanup: call
        :meth:`SharedFlatPLT.close` (and ``unlink``) in a ``finally``.
        """
        from multiprocessing import shared_memory

        fields = list(FLAT_FIELDS)
        if self.pair_support is not None:
            fields.append(("pair_support", "d"))
        layout = []
        blobs = []
        offset = 0
        for field, typecode in fields:
            col = getattr(self, field)
            blob = col.tobytes()
            layout.append((field, typecode, len(col)))
            blobs.append((offset, blob))
            offset = _aligned(offset + len(blob))
        shm = shared_memory.SharedMemory(
            create=True, size=max(offset, 1), name=name or _segment_name()
        )
        for off, blob in blobs:
            shm.buf[off : off + len(blob)] = blob
        meta = {"name": shm.name, "layout": tuple(layout), **self._meta_scalars()}
        return SharedFlatPLT(shm, self._from_buffer(shm, meta), meta)

    @classmethod
    def attach(cls, meta: dict) -> "FlatPLT":
        """Map an existing segment described by ``meta`` (read-only use).

        The attach is *untracked* (see the module docstring): only the
        creating process may unlink.  Call :meth:`detach` when done, or
        let process exit unmap it.
        """
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=meta["name"], track=False)
        except TypeError:  # Python < 3.13: no track kwarg
            shm = _attach_untracked(meta["name"])
        return cls._from_buffer(shm, meta)

    @classmethod
    def _from_buffer(cls, shm, meta: dict) -> "FlatPLT":
        base = memoryview(shm.buf)
        mviews = [base]
        cols = {}
        offset = 0
        for field, typecode, nitems in meta["layout"]:
            nbytes = nitems * _ITEMSIZE[typecode]
            view = base[offset : offset + nbytes].cast(typecode)
            mviews.append(view)
            cols[field] = view
            offset = _aligned(offset + nbytes)
        flat = cls(
            min_support=meta["min_support"],
            n_transactions=meta["n_transactions"],
            max_rank=meta["max_rank"],
            **cols,
        )
        flat._shm = shm
        flat._mviews = tuple(mviews)
        return flat

    def _release_views(self) -> None:
        """Drop every buffer export so the segment can be closed."""
        self._np_views = None
        self.ranks = self.path_offsets = self.freqs = None
        self.bucket_keys = self.bucket_offsets = self.pair_support = None
        for view in self._mviews:
            view.release()
        self._mviews = ()

    def detach(self) -> None:
        """Release an attached segment's mapping (attach-side close)."""
        if self._shm is None:
            return
        self._release_views()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - caller kept a view alive
            pass
        self._shm = None


def _attach_untracked(name: str):
    """Attach without registering with the resource tracker (< 3.13).

    Registration must be *suppressed*, not undone after the fact: under a
    fork start method every process shares one tracker whose cache is a
    set, so an attach-register is a no-op and the compensating unregister
    would instead swallow the creator's registration (the tracker then
    KeyErrors when ``unlink`` unregisters again).  Swapping the register
    hook out for the duration of the attach is the established workaround
    and behaves correctly under both fork and spawn.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class SharedFlatPLT:
    """Owner handle for a :class:`FlatPLT` placed in shared memory.

    Bundles the segment, its buffer-backed ``flat`` twin, and the
    picklable ``meta`` dict workers attach from.  ``close`` and ``unlink``
    are idempotent; the creating driver must call both in a ``finally`` so
    no ``/dev/shm`` entry survives success, crash, or cancellation.
    """

    __slots__ = ("shm", "flat", "meta", "_closed", "_unlinked")

    def __init__(self, shm, flat: FlatPLT, meta: dict) -> None:
        self.shm = shm
        self.flat = flat
        self.meta = meta
        self._closed = False
        self._unlinked = False

    @property
    def name(self) -> str:
        return self.meta["name"]

    def close(self) -> None:
        """Unmap the owner's view (does not remove the segment)."""
        if self._closed:
            return
        self._closed = True
        self.flat._release_views()
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - caller kept a view alive
            # the mapping dies with the process; unlink below still
            # removes the name, so nothing persists either way
            pass

    def unlink(self) -> None:
        """Remove the segment from the system (creator-only)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double cleanup race
            pass
