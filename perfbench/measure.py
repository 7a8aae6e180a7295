"""Pure measurement arithmetic: percentiles, span self and CPU times,
Prometheus series sums and ``/proc`` readers.

Nothing here imports the program under test, so the self-test
(:mod:`perfbench.selftest`) can pin every formula on its own.
"""

from __future__ import annotations

import math
import os

#: A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


def rank_percentile(samples, q: float) -> float:
    """Nearest-rank percentile of raw samples: the smallest sample with
    at least ``q`` of all samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples, want: float = 0.99) -> tuple[float, float]:
    """``(q, value)``: the percentile ``want``, or the highest one below
    it that still leaves :data:`TAIL_BEYOND` samples beyond it.

    Raises when fewer than ``TAIL_BEYOND + 1`` samples exist, since no
    tail is then supported at all.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"{n} samples support no tail percentile "
            f"(need more than {TAIL_BEYOND})"
        )
    rank = min(math.ceil(want * n), n - TAIL_BEYOND)
    return rank / n, sorted(samples)[rank - 1]


def latency_ms(samples_s) -> dict:
    """Raw second samples -> ``{"p50", "p90", "tail", "tail_q", "n"}``
    in ms, ``tail`` per :func:`tail_percentile` (at most p99)."""
    ms = [s * 1e3 for s in samples_s]
    tail_q, tail = tail_percentile(ms, 0.99)
    return {"p50": rank_percentile(ms, 0.5), "p90": rank_percentile(ms, 0.9),
            "tail": tail, "tail_q": tail_q, "n": len(ms)}


def describe(name: str, lat: dict) -> str:
    """One stderr line for a latency summary."""
    return (f"{name}: n={lat['n']} p50 {lat['p50']:.2f} ms, p90 "
            f"{lat['p90']:.2f} ms, p{lat['tail_q'] * 100:g} "
            f"{lat['tail']:.2f} ms")


def ratio(num: float, den: float) -> float:
    """``num / den``, 0.0 when the denominator is 0 (no work done)."""
    return num / den if den else 0.0


# -- spans -----------------------------------------------------------------


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, dict]:
    """Per-name totals over span records.

    ``spans`` is an iterable of ``(id, name, start, end, parent_id,
    cpu)`` (``parent_id`` None for roots; ``cpu`` is not used here).  A
    span's self time is its duration minus the part of its interval
    covered by its children (clipped to the span, overlaps counted
    once).  Returns ``name -> {"count",
    "total", "self"}`` in seconds.
    """
    spans = list(spans)
    children: dict[object, list[tuple[float, float]]] = {}
    for _sid, _name, start, end, parent, _cpu in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for sid, name, start, end, _parent, _cpu in spans:
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(sid, ())
            if min(e, end) > max(s, start)
        ]
        row = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
        row["count"] += 1
        row["total"] += end - start
        row["self"] += (end - start) - _covered(clipped)
    return out


def root_cpu(spans) -> float:
    """CPU seconds spent inside root spans (those without a parent).

    Each root carries the CPU time of its own thread over its interval
    (``time.thread_time``), so roots on different threads add up
    without counting overlapping wall time or time spent waiting for
    the GIL, and the sum never exceeds the CPU the process used.
    """
    return sum(span[5] for span in spans if span[4] is None)


# -- Prometheus text ---------------------------------------------------------


def series_total(parsed: dict, name: str) -> float:
    """Sum of every label set of one series (0.0 when absent).

    ``parsed`` is what ``repro.obs.expo.parse_exposition`` returns:
    ``name -> [(labels, value), ...]``.
    """
    return sum(value for _labels, value in parsed.get(name, ()))


# -- /proc -------------------------------------------------------------------


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process (all its threads)."""
    with open(f"/proc/{pid}/stat") as fh:
        stat = fh.read()
    fields = stat[stat.rindex(")") + 2 :].split()
    # fields[0] is the state (stat field 3): utime/stime are 14 and 15.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
