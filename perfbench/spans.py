"""Span timers wrapped around each layer's entry points, from outside.

:class:`SpanRecorder` replaces a function or method with a wrapper
that records one span ``(id, name, start, end, parent_id, cpu)`` per
call, keeping a per-thread stack so nested wrapped calls get their
parent.  ``cpu`` is the calling thread's CPU seconds inside a root span
(None for nested spans).
Spans stay in memory and are written out once, when the run ends.

Entry points are patched where they are *looked up*: the serve layer
imports ``parse_bin_feed``, ``decode_frame`` and friends into its own
namespace at import time, so those names are patched in
``repro.serve.server`` (and ``repro.serve.client``), not only in
``repro.serve.protocol``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

#: (owner module path, attribute path, span name) per serving layer.
SERVER_POINTS = (
    ("repro.serve.server", "decode_frame", "protocol.decode_frame"),
    ("repro.serve.server", "parse_request", "protocol.parse_request"),
    ("repro.serve.server", "parse_bin_feed", "protocol.parse_bin_feed"),
    ("repro.serve.server", "decode_mask_chunk", "protocol.decode"),
    ("repro.serve.protocol", "BinFeedFrame.raw_lanes", "protocol.decode"),
    ("repro.serve.protocol", "BinFeedFrame.interned_parts",
     "protocol.decode"),
    ("repro.serve.server", "encode_frame", "protocol.reply_encode"),
    ("repro.serve.server", "StreamServer._run_cycle", "server.run_cycle"),
    ("repro.serve.shard", "ShardPool.open", "shard.open"),
    ("repro.serve.shard", "ShardPool.feed_shard", "shard.feed_shard"),
    ("repro.serve.shard", "ShardPool.finish", "shard.finish"),
    ("repro.engine.stream", "StreamHub.open", "stream.open"),
    ("repro.engine.stream", "StreamHub.feed_many", "stream.feed_many"),
    ("repro.engine.stream", "StreamHub.finish", "stream.finish"),
    ("repro.solvers.online", "_BatchedRentOrBuyCursor.sweep_many",
     "online.sweep"),
    ("repro.solvers.online", "_BatchedWindowCursor.sweep_many",
     "online.sweep"),
)

CLIENT_POINTS = (
    ("repro.serve.client", "ServeClient._encode_feed", "client.encode"),
)

BATCH_POINTS = (
    ("repro.engine.batch", "canonicalize", "batch.canonicalize"),
    ("repro.engine.registry", "SolverRegistry.solve_multi",
     "solvers.solve"),
)


class SpanRecorder:
    """In-memory span log plus per-call taps."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.taps: dict[str, list] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """``fn`` timed as span ``name`` on every call."""
        ids, spans, stack_of = self._ids, self.spans, self._stack
        clock, cpu_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            # Only roots pay for the thread-CPU clock: nested spans'
            # CPU is already inside their root's.
            cpu0 = cpu_clock() if parent is None else 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                cpu = cpu_clock() - cpu0 if parent is None else None
                stack.pop()
                spans.append((sid, name, start, end, parent, cpu))

        return timed

    def _replace(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def patch(self, module: str, path: str, name: str) -> None:
        """Wrap ``module.path`` (``"fn"`` or ``"Class.method"``)."""
        self.patch_attr(*_resolve(module, path), name)

    def patch_attr(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` (a module, class or instance attribute)."""
        self._replace(owner, attr, lambda fn: self.wrap(name, fn))

    def tap(self, module: str, path: str, name: str, probe) -> None:
        """Call ``probe(result, *args)`` after every call of
        ``module.path`` and keep what it returns under ``name``."""
        owner, attr = _resolve(module, path)
        samples = self.taps.setdefault(name, [])

        def make(fn):
            @functools.wraps(fn)
            def tapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                samples.append(probe(result, *args))
                return result

            return tapped

        self._replace(owner, attr, make)

    def patch_all(self, points) -> None:
        for module, path, name in points:
            self.patch(module, path, name)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "taps": self.taps}, fh)

    def dump_worker_chunks(self, out_dir) -> None:
        """Make batch-engine worker processes write what they record.

        ``BatchEngine`` hands chunks to forked pool workers through the
        module-level ``repro.engine.batch._solve_chunk``; the wrapper
        (installed before the pool forks, so workers inherit it and the
        recorder) appends one JSON line per chunk to
        ``out_dir/chunks-<pid>.jsonl``: the spans and taps the chunk
        recorded plus its IPC bytes (pickled payload + pickled result).
        """
        import os
        import pickle

        spans, taps = self.spans, self.taps

        def make(fn):
            @functools.wraps(fn)
            def chunk(payload):
                n_spans = len(spans)
                n_taps = {k: len(v) for k, v in taps.items()}
                out = fn(payload)
                record = {
                    "pid": os.getpid(),
                    "spans": spans[n_spans:],
                    "taps": {k: v[n_taps.get(k, 0):]
                             for k, v in taps.items()},
                    "ipc_bytes": len(pickle.dumps(payload))
                    + len(pickle.dumps(out)),
                }
                del spans[n_spans:]
                for k, v in taps.items():
                    del v[n_taps.get(k, 0):]
                path = os.path.join(out_dir, f"chunks-{os.getpid()}.jsonl")
                with open(path, "a") as fh:
                    fh.write(json.dumps(record) + "\n")
                return out

            return chunk

        owner, attr = _resolve("repro.engine.batch", "_solve_chunk")
        self._replace(owner, attr, make)


def _resolve(module: str, path: str):
    import importlib

    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def queue_wait_probe(_result, _server, _kind, job, t0, *_rest, **_kw):
    """Tap on ``StreamServer._span``: (cycle start, queue wait s)."""
    return (t0, max(0.0, t0 - job.enqueued) if job.enqueued else 0.0)


def install_server(recorder: SpanRecorder) -> None:
    """Every server-side layer entry point, plus the queue-wait tap."""
    recorder.patch_all(SERVER_POINTS)
    recorder.tap("repro.serve.server", "StreamServer._span",
                 "server.queue_wait", queue_wait_probe)
