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

Every table here lives exactly as long as the chunk it ships with;
nothing is process-global, so nothing outlives the batch that built
it.  The serve path interns on the same terms: wire protocol v2 keeps
one lane table per ``(connection, width)``
(:class:`~repro.serve.protocol.ClientArena` on the client, its mirror
in :mod:`repro.serve.server`), freed with the connection and capped
by :data:`~repro.serve.protocol.MAX_INTERN_BYTES`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, replace

import numpy as np

from repro.core.context import RequirementSequence

__all__ = [
    "InternStats",
    "InternedSeq",
    "MaskTable",
    "intern_chunk",
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

    def restore(self, masks: tuple[int, ...]) -> RequirementSequence:
        """Rebuild the sequence from its id row against ``masks``, the
        chunk's shipped table."""
        ids = np.frombuffer(self.blob, dtype=self.dtype)
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


def intern_chunk(items, *, size_cache: dict | None = None):
    """Rewrite one worker chunk's ``(index, request, packed)`` triples.

    Returns ``(interned_items, table_masks, stats)``: the items with
    every requirement sequence replaced by an :class:`InternedSeq`,
    the table to ship alongside them, and the byte accounting.
    Requests without sequences pass through untouched.

    Two passes: the first interns every sequence into id lists while
    the table grows; the second serializes the id rows with the
    narrowest dtype the *final* table size allows.

    ``size_cache`` memoizes the ``bytes_before`` measurement (one
    ``pickle.dumps`` of each distinct masks tuple) under ``id(seq)``.
    The caller must keep the sequences alive for the cache's lifetime
    — :class:`~repro.engine.batch.BatchEngine` passes one dict per
    ``solve_batch`` call, whose request list pins every id — so a
    sequence is measured at most once per batch, not once per chunk.
    """
    table = MaskTable()
    staged = []  # (index, request, packed, seqs or None)
    seq_ids: dict[int, list[int]] = {}  # id(seq) -> table-id row
    if size_cache is None:
        size_cache = {}
    masks_total = 0
    bytes_before = 0
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
                seq_ids[id(seq)] = [table.intern(m) for m in seq.masks]
                if id(seq) not in size_cache:
                    size_cache[id(seq)] = len(pickle.dumps(
                        seq.masks, protocol=pickle.HIGHEST_PROTOCOL
                    ))
                bytes_before += size_cache[id(seq)]
            masks_total += len(seq.masks)
        staged.append((index, request, packed, seqs))
    dtype = _id_dtype(len(table))
    interned_cache: dict[int, InternedSeq] = {}

    def _interned(seq) -> InternedSeq:
        cached = interned_cache.get(id(seq))
        if cached is None:
            blob = np.asarray(seq_ids[id(seq)], dtype=dtype).tobytes()
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
    table_masks = tuple(table.masks)
    table_bytes = len(
        pickle.dumps(table_masks, protocol=pickle.HIGHEST_PROTOCOL)
    )
    bytes_after = table_bytes + sum(
        len(s.blob) + 32  # bytes-object pickle overhead
        for s in interned_cache.values()
    )
    stats = InternStats(
        masks_total=masks_total,
        masks_unique=len(table),
        bytes_before=bytes_before,
        bytes_after=bytes_after,
    )
    return out, table_masks, stats


def restore_chunk(items, table_masks: tuple[int, ...]):
    """Worker side: rebuild the original ``(index, request, packed)``
    triples, bit-identical to what :func:`intern_chunk` consumed."""
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
