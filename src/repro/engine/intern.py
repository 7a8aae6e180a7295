"""Canonical mask interning for worker-bound request payloads.

The shared-memory fan-out (:mod:`repro.engine.batch`) stopped the
*compiled lane matrices* from being pickled into every worker chunk;
the raw request payloads still were: every
:class:`~repro.core.context.RequirementSequence` pickles its full
``masks`` tuple of arbitrary-precision ints, once per chunk, even
though real traces are highly repetitive (periodic apps revisit a
handful of distinct requirements) and batches repeat whole traces
across requests.

Interning canonicalizes that redundancy away at the chunk boundary:

* one :class:`MaskTable` per chunk payload holds each *distinct* mask
  once;
* every sequence ships as an :class:`InternedSeq` — its universe plus
  a ``uint32`` index row into the table (5 orders of magnitude
  smaller than re-pickling a >64-bit mask per step);
* :func:`intern_chunk` rewrites a chunk's requests (single- and
  multi-task payloads both), :func:`restore_chunk` rebuilds
  bit-identical requests on the worker before any solver runs.

Restoration is exact — the same mask ints, the same tuple shapes — so
results cannot change; only serialized bytes do.  Both sides of the
trade are measured (the pickled size of the masks that *would* have
shipped vs the table + index rows that did) and land in the engine
metrics as the ``mask interning`` row.

Protocol v2 promoted the per-chunk :class:`MaskTable` into a
per-universe **global intern arena** (:class:`MaskArena`, one per
universe width via :func:`arena_for`): an append-only, thread-safe
table of distinct lane rows whose *epoch* is its row count.  Epochs
only grow, so any party that has observed epoch ``e`` can resolve every
id below ``e`` forever:

* the serve feed path interns each connection's new rows once and
  ships :class:`InternedChunk` ids through the shard queues;
* the batch engine interns worker payloads against the arena
  (``intern_chunk(..., arena=True)``); under the ``fork`` start method
  children inherit every row interned before the pool spawned, so the
  table itself never crosses the process boundary at all.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass, replace

import numpy as np

from repro.core.context import RequirementSequence
from repro.core.packed import lane_count

__all__ = [
    "InternStats",
    "InternedChunk",
    "InternedSeq",
    "MaskArena",
    "MaskTable",
    "arena_for",
    "arena_stats",
    "intern_chunk",
    "reset_arenas",
    "restore_chunk",
]


class MaskTable:
    """Append-only table of distinct requirement masks.

    ``intern`` maps a mask to its stable index (first-seen order), so
    equal masks — within one sequence, across sequences, across
    requests — share one table slot.
    """

    __slots__ = ("_index", "masks")

    def __init__(self):
        self._index: dict[int, int] = {}
        self.masks: list[int] = []

    def intern(self, mask: int) -> int:
        idx = self._index.get(mask)
        if idx is None:
            idx = len(self.masks)
            self._index[mask] = idx
            self.masks.append(mask)
        return idx

    def __len__(self) -> int:
        return len(self.masks)


class MaskArena:
    """Per-universe global intern arena of distinct lane rows.

    Append-only and thread-safe: rows are ``(L,)`` little-endian uint64
    lane vectors (``L = ceil(width/64)``), each stored once at a stable
    ``uint32`` id in first-seen order.  The arena's **epoch** is its
    row count; epochs only grow, so an id is valid forever once any
    observer has seen an epoch above it.
    """

    __slots__ = ("width", "lanes_per_row", "_lock", "_ids", "_buf", "_n")

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("universe width must be at least 1")
        self.width = int(width)
        self.lanes_per_row = lane_count(width)
        self._lock = threading.Lock()
        self._ids: dict[bytes, int] = {}
        self._buf = np.empty((64, self.lanes_per_row), dtype=np.uint64)
        self._n = 0

    @property
    def epoch(self) -> int:
        """Current row count (the arena's logical clock)."""
        with self._lock:
            return self._n

    def __len__(self) -> int:
        return self.epoch

    def _grow(self, need: int) -> None:
        cap = self._buf.shape[0]
        if self._n + need <= cap:
            return
        new_cap = max(cap * 2, self._n + need)
        buf = np.empty((new_cap, self.lanes_per_row), dtype=np.uint64)
        buf[: self._n] = self._buf[: self._n]
        self._buf = buf

    def _append_locked(self, key: bytes, row: np.ndarray) -> int:
        self._grow(1)
        idx = self._n
        self._buf[idx] = row
        self._ids[key] = idx
        self._n += 1
        return idx

    def _check_lanes(self, lanes) -> np.ndarray:
        lanes = np.ascontiguousarray(lanes, dtype="<u8")
        if lanes.ndim != 2 or lanes.shape[1] != self.lanes_per_row:
            raise ValueError(
                f"expected (C, {self.lanes_per_row}) lane rows for a "
                f"{self.width}-switch arena, got shape {lanes.shape}"
            )
        return lanes

    def intern_rows(self, lanes) -> np.ndarray:
        """Intern ``(C, L)`` lane rows; returns their ``(C,)`` u32 ids."""
        lanes = self._check_lanes(lanes)
        out = np.empty(lanes.shape[0], dtype=np.uint32)
        with self._lock:
            for j in range(lanes.shape[0]):
                key = lanes[j].tobytes()
                idx = self._ids.get(key)
                if idx is None:
                    idx = self._append_locked(key, lanes[j])
                out[j] = idx
        return out

    def intern_masks(self, masks) -> np.ndarray:
        """Intern int requirement masks; returns their u32 ids."""
        nbytes = self.lanes_per_row * 8
        masks = list(masks)
        out = np.empty(len(masks), dtype=np.uint32)
        with self._lock:
            for j, mask in enumerate(masks):
                if mask < 0 or mask >> self.width:
                    raise ValueError(
                        f"mask {mask:#x} out of the {self.width}-switch "
                        f"universe"
                    )
                key = int(mask).to_bytes(nbytes, "little")
                idx = self._ids.get(key)
                if idx is None:
                    row = np.frombuffer(key, dtype="<u8").astype(np.uint64)
                    idx = self._append_locked(key, row)
                out[j] = idx
        return out

    def rows(self, ids) -> np.ndarray:
        """Gather rows by id into a fresh ``(k, L)`` uint64 matrix.

        Raises ``KeyError`` on any id at or above the current epoch —
        the server maps a desynced client's ids to a protocol error.
        """
        ids = np.ascontiguousarray(ids)
        with self._lock:
            if ids.size and int(ids.max()) >= self._n:
                raise KeyError(
                    f"arena id {int(ids.max())} is beyond epoch {self._n}"
                )
            return self._buf[ids.astype(np.intp, copy=False)]

    def masks_for(self, ids) -> tuple[int, ...]:
        """Resolve ids back to int masks (bit-identical round trip)."""
        rows = self.rows(ids).astype("<u8", copy=False)
        return tuple(
            int.from_bytes(rows[j].tobytes(), "little")
            for j in range(rows.shape[0])
        )


_ARENAS: dict[int, MaskArena] = {}
_ARENAS_LOCK = threading.Lock()


def arena_for(width: int) -> MaskArena:
    """The process-global arena of one universe width (created once)."""
    width = int(width)
    with _ARENAS_LOCK:
        arena = _ARENAS.get(width)
        if arena is None:
            arena = _ARENAS[width] = MaskArena(width)
        return arena


def reset_arenas() -> None:
    """Drop every global arena (tests; never during live serving —
    shipped ids stay valid only while their arena lives)."""
    with _ARENAS_LOCK:
        _ARENAS.clear()


def arena_stats() -> dict[int, int]:
    """``{width: epoch}`` of every live global arena (telemetry)."""
    with _ARENAS_LOCK:
        arenas = dict(_ARENAS)
    return {width: len(arena) for width, arena in sorted(arenas.items())}


@dataclass(frozen=True)
class InternedChunk:
    """One feed chunk as global-arena row ids.

    The serve ingest path's zero-re-encode form: the server interns a
    connection's new rows once at stage time, and everything downstream
    — shard queues, the hub's chunk log — carries
    ``(C,)`` ids instead of ``(C, L)`` lane rows.  ``resolve()`` gathers
    the lane matrix back from the width's arena on the worker that
    actually advances the cursor.
    """

    width: int
    ids: np.ndarray  # (C,) uint32 arena row ids

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def resolve(self) -> np.ndarray:
        """Gather the ``(C, L)`` uint64 lane matrix (a fresh copy)."""
        return arena_for(self.width).rows(self.ids)


@dataclass(frozen=True)
class InternedSeq:
    """Wire stand-in for one :class:`RequirementSequence`.

    ``blob`` is the step-order row of table indices, serialized with
    the narrowest unsigned dtype the table size allows (1 byte per
    step for ≤256 distinct masks — the common periodic-trace case);
    the universe object rides along as-is (requests of one batch
    overwhelmingly share a universe *instance*, which pickle memoizes
    once per payload).
    """

    universe: object
    dtype: str  # "<u1" | "<u2" | "<u4"
    blob: bytes

    def restore(self, masks: tuple[int, ...] | None) -> RequirementSequence:
        """Rebuild the sequence from its id row.

        ``masks`` is the chunk's shipped table — or ``None`` for
        arena-interned chunks, whose ids resolve against the global
        arena of the sequence's universe width (rows the worker
        inherited on fork).
        """
        ids = np.frombuffer(self.blob, dtype=self.dtype)
        if masks is None:
            return RequirementSequence(
                self.universe,
                arena_for(self.universe.size).masks_for(ids),
            )
        return RequirementSequence(
            self.universe, tuple(masks[i] for i in ids.tolist())
        )


@dataclass(frozen=True)
class InternStats:
    """Serialization accounting of one interned chunk."""

    masks_total: int
    masks_unique: int
    bytes_before: int
    bytes_after: int

    @property
    def bytes_saved(self) -> int:
        return self.bytes_before - self.bytes_after


def _id_dtype(table_size: int) -> str:
    if table_size <= 1 << 8:
        return "<u1"
    if table_size <= 1 << 16:
        return "<u2"
    return "<u4"


def intern_chunk(items, *, size_cache: dict | None = None,
                 arena: bool = False):
    """Rewrite one worker chunk's ``(index, request, packed)`` triples.

    Returns ``(interned_items, table_masks, stats)``: the items with
    every requirement sequence replaced by an :class:`InternedSeq`,
    the table to ship alongside them, and the byte accounting.
    Requests without sequences pass through untouched.

    Two passes: the first interns every sequence into id lists while
    the table grows; the second serializes the id rows with the
    narrowest dtype the *final* table size allows.

    ``arena=True`` interns against the per-universe **global** arenas
    (:func:`arena_for`) instead of a fresh per-chunk table and returns
    ``table_masks=None``: nothing to ship, the worker resolves ids from
    the arena it inherited on fork.  Masks already interned by an
    earlier batch (or the serve path) cost a dict hit, not a new row —
    the cross-batch dedup the per-chunk table could never do.

    ``size_cache`` memoizes the ``bytes_before`` measurement (one
    ``pickle.dumps`` of each distinct masks tuple) under ``id(seq)``.
    The caller must keep the sequences alive for the cache's lifetime
    — :class:`~repro.engine.batch.BatchEngine` passes one dict per
    ``solve_batch`` call, whose request list pins every id — so a
    sequence is measured at most once per batch, not once per chunk.
    """
    table = None if arena else MaskTable()
    staged = []  # (index, request, packed, seqs or None)
    seq_ids: dict[int, list[int]] = {}  # id(seq) -> table/arena-id row
    if size_cache is None:
        size_cache = {}
    masks_total = 0
    bytes_before = 0
    arena_unique: set[tuple[int, int]] = set()  # (width, id) across seqs
    for index, request, packed in items:
        if request.kind == "single" and request.seq is not None:
            seqs = (request.seq,)
        elif request.kind == "multi" and request.seqs:
            seqs = request.seqs
        else:  # pragma: no cover - malformed request; ship untouched
            staged.append((index, request, packed, None))
            continue
        for seq in seqs:
            if id(seq) not in seq_ids:
                if arena:
                    width = seq.universe.size
                    ids = arena_for(width).intern_masks(seq.masks)
                    seq_ids[id(seq)] = ids
                    arena_unique.update(
                        (width, i) for i in np.unique(ids).tolist()
                    )
                else:
                    seq_ids[id(seq)] = [table.intern(m) for m in seq.masks]
                if id(seq) not in size_cache:
                    size_cache[id(seq)] = len(pickle.dumps(
                        seq.masks, protocol=pickle.HIGHEST_PROTOCOL
                    ))
                bytes_before += size_cache[id(seq)]
            masks_total += len(seq.masks)
        staged.append((index, request, packed, seqs))
    chunk_dtype = None if arena else _id_dtype(len(table))
    interned_cache: dict[int, InternedSeq] = {}

    def _interned(seq) -> InternedSeq:
        cached = interned_cache.get(id(seq))
        if cached is None:
            ids = seq_ids[id(seq)]
            if arena:
                # Narrowest dtype the row's own ids allow — stable under
                # concurrent arena growth (depends on content, not the
                # arena's current size).
                top = int(np.max(ids)) + 1 if len(ids) else 1
                dtype = _id_dtype(top)
            else:
                dtype = chunk_dtype
            blob = np.asarray(ids, dtype=dtype).tobytes()
            cached = InternedSeq(
                universe=seq.universe, dtype=dtype, blob=blob
            )
            interned_cache[id(seq)] = cached
        return cached

    out = []
    for index, request, packed, seqs in staged:
        if seqs is None:  # pragma: no cover - malformed request
            out.append((index, request, packed))
        elif request.kind == "single":
            lean = replace(request, seq=None)
            out.append((index, lean, packed, (_interned(seqs[0]), None)))
        else:
            lean = replace(request, seqs=None)
            out.append((
                index,
                lean,
                packed,
                (None, tuple(_interned(s) for s in seqs)),
            ))
    if arena:
        table_masks = None
        table_bytes = 0
        unique = len(arena_unique)
    else:
        table_masks = tuple(table.masks)
        table_bytes = len(
            pickle.dumps(table_masks, protocol=pickle.HIGHEST_PROTOCOL)
        )
        unique = len(table)
    bytes_after = table_bytes + sum(
        len(s.blob) + 32  # bytes-object pickle overhead
        for s in interned_cache.values()
    )
    stats = InternStats(
        masks_total=masks_total,
        masks_unique=unique,
        bytes_before=bytes_before,
        bytes_after=bytes_after,
    )
    return out, table_masks, stats


def restore_chunk(items, table_masks: tuple[int, ...] | None):
    """Worker side: rebuild the original ``(index, request, packed)``
    triples, bit-identical to what :func:`intern_chunk` consumed.
    ``table_masks=None`` marks an arena-interned chunk (ids resolve
    against the worker's inherited global arenas)."""
    out = []
    restored: dict[int, RequirementSequence] = {}  # id(InternedSeq)

    def _restore(interned: InternedSeq) -> RequirementSequence:
        seq = restored.get(id(interned))
        if seq is None:
            seq = interned.restore(table_masks)
            restored[id(interned)] = seq
        return seq

    for item in items:
        if len(item) == 3:  # passed through untouched
            out.append(item)
            continue
        index, lean, packed, (single, multi) = item
        if single is not None:
            request = replace(lean, seq=_restore(single))
        else:
            request = replace(lean, seqs=tuple(_restore(s) for s in multi))
        out.append((index, request, packed))
    return out
