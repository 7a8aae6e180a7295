"""Self-test of the benchmark's own code, run (in a fraction of a
second) at the start of every workload run, and on its own with
``python3 perfbench/selftest.py``.

Pins the metric arithmetic (percentiles, the tail rule), span
self-time and root-CPU maths, series sums over the repo's Prometheus
``/metrics`` parser, lane packing and cyclic session traces, and the
span recorder's nesting and per-thread CPU.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from pathlib import Path

if __name__ == "__main__":
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from perfbench import measure  # noqa: E402


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(f"benchmark self-test failed: {what}")


def _arithmetic() -> None:
    xs = list(range(1, 101))
    _check(measure.rank_percentile(xs, 0.5) == 50, "p50 of 1..100")
    _check(measure.rank_percentile(xs, 0.99) == 99, "p99 of 1..100")
    _check(measure.rank_percentile([7.0], 0.5) == 7.0, "p50 of one")
    # 100 samples: p99 leaves 1 beyond, so the tail falls back to p90
    _check(measure.tail_percentile(xs, 0.99) == (0.9, 90), "tail rule")
    big = list(range(1, 2001))
    _check(measure.tail_percentile(big, 0.99) == (0.99, 1980),
           "tail of 2000 is p99")
    try:
        measure.tail_percentile(list(range(10)))
    except ValueError:
        pass
    else:
        _check(False, "10 samples must support no tail")
    _check(measure.ratio(1, 0) == 0.0 and measure.ratio(3, 4) == 0.75,
           "ratio")
    lat = measure.latency_ms([i / 1000 for i in range(1, 101)])
    _check(all(math.isclose(lat[k], v) for k, v in
               (("p50", 50.0), ("p90", 90.0), ("tail", 90.0),
                ("tail_q", 0.9))) and lat["n"] == 100,
           "latency summary in ms")


def _self_times() -> None:
    spans = [
        (1, "parent", 0.0, 10.0, None, 6.0),
        (2, "child", 1.0, 3.0, 1, None),
        (3, "child", 2.0, 5.0, 1, None),  # overlaps the first child
        (4, "child", 8.0, 12.0, 1, None),  # runs past the parent's end
        (5, "grandchild", 1.5, 2.5, 2, None),
        (6, "other", 20.0, 21.0, None, 0.5),
        # a root on a second thread, overlapping the first root in wall
        # time: only its own thread's CPU counts
        (7, "elsewhere", 4.0, 9.0, None, 2.0),
    ]
    rows = measure.self_times(spans)
    # children cover [1, 5] and [8, 10] of the parent: 6 of 10
    _check(math.isclose(rows["parent"]["self"], 4.0), "parent self time")
    _check(rows["child"]["count"] == 3, "child count")
    _check(math.isclose(rows["child"]["total"], 9.0), "child total")
    # child 2 loses its grandchild's second; the others keep all
    _check(math.isclose(rows["child"]["self"], 8.0), "child self time")
    _check(math.isclose(measure.root_cpu(spans), 8.5),
           "root CPU sums roots' thread CPU, not their wall time")


def _prometheus() -> None:
    from repro.obs.expo import parse_exposition

    text = "\n".join([
        "# HELP repro_stream_steps_total steps",
        "# TYPE repro_stream_steps_total counter",
        "repro_stream_steps_total 1234",
        'repro_wire_bytes_in_total{proto="bin"} 10',
        'repro_wire_bytes_in_total{proto="json"} 5.5',
        'repro_drain_cycle_seconds_bucket{le="+Inf",shard="0"} 7',
        'repro_x{a="q\\"uote",b="x,y"} 1e3',
        "",
    ])
    parsed = parse_exposition(text)
    _check(measure.series_total(parsed, "repro_stream_steps_total")
           == 1234.0, "unlabeled series")
    _check(measure.series_total(parsed, "repro_wire_bytes_in_total")
           == 15.5, "labeled series sum")
    _check(parsed["repro_drain_cycle_seconds_bucket"]
           == [({"le": "+Inf", "shard": "0"}, 7.0)], "bucket labels")
    _check(parsed["repro_x"] == [({"a": 'q"uote', "b": "x,y"}, 1000.0)],
           "escaped label values")
    _check(measure.series_total(parsed, "absent") == 0.0, "absent series")


def _traffic() -> None:
    import numpy as np

    from perfbench.traffic import SessionSpec, pack_lanes

    masks = [0, 1, (1 << 64) | 5, (1 << 200) - 1]
    lanes = pack_lanes(masks, 256)
    back = [sum(int(v) << (64 * j) for j, v in enumerate(row))
            for row in lanes]
    _check(back == masks, "lane packing round trip")
    spec = SessionSpec("s", "window", {}, 8, 8.0,
                       np.arange(5, dtype=np.uint64).reshape(5, 1), 12)
    _check(spec.chunk(3, 4)[:, 0].tolist() == [3, 4, 0, 1], "cyclic chunk")
    _check(spec.chunk(10, 4)[:, 0].tolist() == [0, 1], "chunk clipped")
    _check(spec.prefix(7)[:, 0].tolist() == [0, 1, 2, 3, 4, 0, 1],
           "cyclic prefix")


def _recorder() -> None:
    from perfbench.spans import SpanRecorder

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

        def wait(self):
            time.sleep(0.05)

        @classmethod
        def kind(cls):
            return cls.__name__

    recorder = SpanRecorder()
    for attr in ("outer", "inner", "kind", "wait"):
        recorder.patch_attr(Layer, attr, attr)
    layer = Layer()
    _check(layer.outer() == 2 and Layer.kind() == "Layer", "wrapped calls")
    worker = threading.Thread(target=layer.inner)
    worker.start()
    worker.join()
    by_name = {}
    for sid, name, _start, _end, parent, _cpu in recorder.spans:
        by_name.setdefault(name, []).append((sid, parent))
    (outer_id, outer_parent), = by_name["outer"]
    parents = sorted(p for _sid, p in by_name["inner"]
                     if p is not None)
    _check(outer_parent is None and parents == [outer_id]
           and len(by_name["inner"]) == 2,
           "span nesting (other thread's span is a root)")
    _check(all((cpu is None) == (parent is not None)
               for *_span, parent, cpu in recorder.spans),
           "thread CPU recorded on roots only")
    # Two threads in overlapping roots that mostly wait: their wall
    # times add up to twice the overlap, their CPU stays near zero.
    del recorder.spans[:]
    sleepers = [threading.Thread(target=layer.wait) for _ in range(2)]
    for sleeper in sleepers:
        sleeper.start()
    for sleeper in sleepers:
        sleeper.join()
    wall = sum(end - start for _i, _n, start, end, _p, _c in recorder.spans)
    _check(len(recorder.spans) == 2 and wall >= 0.1
           and measure.root_cpu(recorder.spans) < wall / 4,
           "overlapping roots on two threads count CPU, not wall time")
    recorder.restore()
    _check(isinstance(Layer.__dict__["kind"], classmethod),
           "classmethod restored")
    before = len(recorder.spans)
    layer.outer()
    _check(len(recorder.spans) == before, "restored methods record nothing")


def run_quick() -> None:
    _arithmetic()
    _self_times()
    _prometheus()
    _traffic()
    _recorder()


if __name__ == "__main__":
    run_quick()
    print("perfbench self-test passed")
