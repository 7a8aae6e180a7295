"""Sharded session pools: many :class:`StreamHub` workers under one roof.

A single :class:`~repro.engine.stream.StreamHub` advances sessions back
to back in one thread.  Sessions are independent, so the serving layer
hash-partitions them across a pool of *shards*, each one in-process
hub behind its own lock.  ``repro serve`` drains every shard on its
event-loop thread (:meth:`ShardPool.feed_shard`);
:meth:`ShardPool.feed_many` advances shards on an executor worker
each.  More shards have not been shown to add throughput: on E17's
calm fleet
(32 sessions × 4000 steps, width 256) one to four shards went from
2.00M to 1.68M steps/s.

Placement is **decision-free**: a session's shard is
``crc32(session_id) % shards`` (stable across runs and processes), and
every session runs its own independent cursor state, so per-session
costs are bit-identical no matter how many shards serve the fleet —
``tests/test_serve_shard.py`` pins a pool of any shape against a single
hub.  Aggregate accounting (sessions, steps, hypers, wall time) is
recorded into one shared :class:`~repro.engine.metrics.EngineMetrics`,
so the operator report looks the same whether the fleet runs on one
hub or sixteen shards.
"""

from __future__ import annotations

import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import count

import numpy as np

from repro.core.switches import SwitchUniverse
from repro.engine.metrics import DETERMINISTIC_FAMILIES, EngineMetrics
from repro.engine.stream import StreamBatch, StreamHub
from repro.obs.histogram import HistogramFamily
from repro.solvers.online import OnlineRun

__all__ = ["BatchSummary", "ShardPool", "shard_index"]


def shard_index(session_id: str, shards: int) -> int:
    """Stable hash placement (``hash()`` is salted per process; crc32
    is not, so placement survives restarts and crosses processes)."""
    if shards < 1:
        raise ValueError("shards must be at least 1")
    return zlib.crc32(session_id.encode()) % shards


@dataclass(frozen=True)
class BatchSummary:
    """Wire-sized view of one :class:`StreamBatch` (no per-step arrays;
    what a reply frame actually needs)."""

    start: int
    steps: int
    hypers: int
    cost: float
    cumulative_cost: float


def _summarize(batch: StreamBatch) -> BatchSummary:
    return BatchSummary(
        start=batch.start,
        steps=batch.steps,
        hypers=batch.hypers,
        cost=batch.cost,
        cumulative_cost=batch.cumulative_cost,
    )


class ShardPool:
    """Sessions hash-partitioned across a pool of hub shards.

    The drop-in sharded counterpart of a single
    :class:`~repro.engine.stream.StreamHub`: ``open`` / ``feed_many`` /
    ``finish`` keep their shapes, :meth:`feed_many` partitions chunks
    by the owning shard and advances shards concurrently (one executor
    worker per shard), and per-session results are bit-identical to
    the single-hub replay regardless of ``shards``.

    Each shard is one :class:`StreamHub` behind a lock (``feed_many``'s
    workers and other threads may touch different shards concurrently,
    never one shard twice).  A shard hub keeps its own private metrics — the
    deterministic histogram families it records merge per shard in
    :meth:`merged_histograms` — and drops finished runs, so a serving
    process closing sessions forever does not retain them.

    Parameters
    ----------
    shards:
        Number of hub shards.
    metrics:
        Pool-level :class:`EngineMetrics` all aggregate streaming
        counters land in (created when omitted).
    tracer:
        Optional :class:`~repro.obs.trace.TraceRecorder`; the pool
        records pool-level ``drain`` and ``close`` spans.
    """

    def __init__(
        self,
        shards: int = 1,
        *,
        metrics: EngineMetrics | None = None,
        tracer=None,
    ):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        self.shards = shards
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else EngineMetrics()
        self._shards = [
            (
                StreamHub(metrics=EngineMetrics(), retain_runs=False),
                threading.Lock(),
            )
            for _ in range(shards)
        ]
        self._executor = ThreadPoolExecutor(
            max_workers=shards, thread_name_prefix="shard"
        )
        self._placement: dict[str, int] = {}  # live session -> shard
        self._auto_id = count()
        self._lock = threading.Lock()
        self._closed = False

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._placement)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._placement

    def session_ids(self) -> tuple[str, ...]:
        return tuple(self._placement)

    def shard_of(self, session_id: str) -> int:
        """The shard serving a live session."""
        try:
            return self._placement[session_id]
        except KeyError:
            raise KeyError(f"unknown session id {session_id!r}") from None

    # -- session management ------------------------------------------------

    def open(
        self,
        scheduler,
        universe: SwitchUniverse,
        w: float,
        *,
        session_id: str | None = None,
    ) -> str:
        """Open a session on its hash-placed shard; returns the id.

        Unlike a retaining :class:`StreamHub`, closed ids become
        reusable immediately — a serving process sees the same user
        reconnect, and reserving every closed id forever would grow
        without bound.
        """
        with self._lock:
            if session_id is None:
                session_id = f"s{next(self._auto_id)}"
                while session_id in self._placement:
                    session_id = f"s{next(self._auto_id)}"
            elif session_id in self._placement:
                raise ValueError(f"session id {session_id!r} already in use")
            shard = shard_index(session_id, self.shards)
            # Reserve before the open so two racing opens of one id
            # cannot both reach the shard.
            self._placement[session_id] = shard
        hub, lock = self._shards[shard]
        try:
            with lock:
                hub.open(scheduler, universe, w, session_id=session_id)
        except BaseException:
            with self._lock:
                self._placement.pop(session_id, None)
            raise
        self.metrics.record_stream_open()
        return session_id

    # -- serving -----------------------------------------------------------

    def feed_shard(
        self, shard: int, chunks: dict[str, np.ndarray]
    ) -> dict[str, BatchSummary]:
        """Advance one shard by one batched drain cycle.

        ``chunks`` must all belong to ``shard`` (the server's per-shard
        queues guarantee it; :meth:`feed_many` partitions for you).
        """
        if not chunks:
            return {}
        start = time.perf_counter()
        out = self._feed_shard(shard, chunks)
        elapsed = time.perf_counter() - start
        steps = sum(s.steps for s in out.values())
        self.metrics.record_stream(
            steps=steps,
            hypers=sum(s.hypers for s in out.values()),
            seconds=elapsed,
            drain_shard=shard,
        )
        if self.tracer is not None:
            self.tracer.record(
                "drain",
                duration=elapsed,
                shard=shard,
                sessions=len(out),
                steps=steps,
            )
        return out

    def _feed_shard(self, shard, chunks) -> dict[str, BatchSummary]:
        """One shard drain cycle, no latency metrics (callers time
        themselves); the hub's fused/fallback counts for the cycle are
        re-recorded in the pool metrics."""
        hub, lock = self._shards[shard]
        with lock:
            batches = hub.feed_many(chunks)
            fused = hub.last_fused
        if fused[0] or fused[1]:
            self.metrics.record_fused(
                sessions=fused[0],
                fallback=fused[1],
                group_sizes=fused[2],
                epochs=fused[3],
                triggers=fused[4],
            )
        return {sid: _summarize(batch) for sid, batch in batches.items()}

    def feed_many(self, chunks) -> dict[str, BatchSummary]:
        """Serve one chunk per session, shards advanced concurrently.

        The cycle's *wall* time (not the sum of per-shard busy times)
        lands in the metrics, so the steps/s row reflects what
        sharding actually buys.
        """
        per_shard: dict[int, dict[str, object]] = {}
        for sid, masks in chunks.items():
            per_shard.setdefault(self.shard_of(sid), {})[sid] = masks
        if not per_shard:
            return {}
        start = time.perf_counter()
        if len(per_shard) == 1:
            ((shard, shard_chunks),) = per_shard.items()
            out = self._feed_shard(shard, shard_chunks)
        else:
            futures = [
                self._executor.submit(self._feed_shard, shard, shard_chunks)
                for shard, shard_chunks in per_shard.items()
            ]
            out = {}
            for future in futures:
                out.update(future.result())
        self.metrics.record_stream(
            steps=sum(s.steps for s in out.values()),
            hypers=sum(s.hypers for s in out.values()),
            seconds=time.perf_counter() - start,
        )
        return out

    # -- closing -----------------------------------------------------------

    def finish(self, session_id: str) -> OnlineRun:
        """Close one session (validated); the id becomes reusable."""
        shard = self.shard_of(session_id)
        hub, lock = self._shards[shard]
        with lock:
            run = hub.finish(session_id)
        with self._lock:
            self._placement.pop(session_id, None)
        # Counter only: the shard's hub recorded the deterministic
        # cost/steps histograms where the session actually ran, so the
        # merged view counts every close exactly once.
        self.metrics.record_session_close()
        if self.tracer is not None:
            self.tracer.record(
                "close", session=session_id, shard=shard,
                steps=run.schedule.n,
            )
        return run

    def finish_all(self) -> dict[str, OnlineRun]:
        """Close every live session; returns id → validated run."""
        return {sid: self.finish(sid) for sid in self.session_ids()}

    def merged_histograms(self) -> dict[str, HistogramFamily]:
        """One labeled histogram view of the whole pool.

        Starts from the pool-level families (timing: drain cycles,
        feed latency) and folds in every shard's deterministic-family
        wire snapshot tagged ``shard=<i>``.  The fixed bucket
        boundaries make the fold pure addition, so the aggregate of
        each deterministic family is bit-identical to what a single hub
        records for the same traffic, no matter the pool shape.
        """
        merged = {
            name: HistogramFamily.from_wire(wire)
            for name, wire in self.metrics.hist_wire().items()
        }
        for i, (hub, lock) in enumerate(self._shards):
            with lock:
                wires = hub.metrics.hist_wire(DETERMINISTIC_FAMILIES)
            for name, wire in wires.items():
                merged[name].merge_wire(wire, extra_labels={"shard": str(i)})
        return merged

    def stats(self) -> dict:
        """Aggregate snapshot: engine counters, merged histograms, and
        per-shard occupancy + drain-cycle latency quantiles."""
        with self._lock:
            occupancy = [0] * self.shards
            for shard in self._placement.values():
                occupancy[shard] += 1
        merged = self.merged_histograms()
        drain_by_shard = {
            labels.get("shard"): hist
            for labels, hist in merged["drain_cycle_seconds"].series()
        }
        shards = []
        for i in range(self.shards):
            row = {"shard": i, "sessions": occupancy[i]}
            drain = drain_by_shard.get(str(i))
            if drain is not None and drain.count:
                row["drain"] = drain.snapshot()
            shards.append(row)
        return {
            "engine": self.metrics.snapshot(),
            "histograms": {
                name: fam.snapshot() for name, fam in merged.items()
            },
            "shards": shards,
            "sessions": sum(occupancy),
        }

    def close(self) -> None:
        """Shut the shard executor down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardPool(shards={self.shards}, "
            f"live={len(self._placement)})"
        )
