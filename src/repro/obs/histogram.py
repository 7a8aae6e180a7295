"""Log-bucketed, fixed-boundary, mergeable histograms (HDR-style).

Every histogram built from the same :class:`BucketScheme` has the same
geometric bucket boundaries, so merging is pure per-bucket addition:
the order observations arrived in, and which shard (thread or process)
recorded them, cannot change the merged distribution.  That is the
property the serving stack leans on — a :class:`ShardPool` of any
shape aggregates its workers' snapshots into exactly the histogram a
single :class:`StreamHub` would have recorded for the same traffic.

Two schemes cover the stack:

* ``TIME_SCHEME`` — seconds, 1 µs … ~134 s at ~19% bucket resolution
  (factor 2**0.25), for latencies and cycle durations;
* ``VALUE_SCHEME`` — dimensionless, 1 … ~2**44 at ~41% resolution
  (factor 2**0.5), for step counts and costs.

Snapshots travel as JSON-safe sparse dicts (:meth:`Histogram.to_wire`)
— the same form feeds the shard-pool merge, the ``metrics`` wire
frame, and the Prometheus exposition.  ``total`` is a float sum and
therefore order-dependent; distribution equality (:meth:`Histogram.key`
/ ``==``) deliberately excludes it.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "TIME_SCHEME",
    "VALUE_SCHEME",
    "BucketScheme",
    "Histogram",
    "HistogramFamily",
]


class BucketScheme:
    """A named, immutable set of ascending bucket upper bounds.

    Bucket ``i`` covers ``(bounds[i-1], bounds[i]]``; one overflow
    bucket catches everything above the last bound.  Schemes are
    registered by name so wire snapshots can name their geometry
    instead of shipping ~100 floats per histogram.
    """

    __slots__ = ("name", "bounds", "_bounds_list")

    _registry: dict[str, "BucketScheme"] = {}

    def __init__(self, name: str, bounds: Iterable[float]):
        self.name = name
        arr = np.asarray(tuple(bounds), dtype=np.float64)
        if arr.ndim != 1 or len(arr) < 1 or np.any(np.diff(arr) <= 0):
            raise ValueError("bounds must be strictly ascending")
        arr.setflags(write=False)
        self.bounds = arr
        self._bounds_list = arr.tolist()  # bisect is faster on a list
        if name in BucketScheme._registry:
            raise ValueError(f"duplicate scheme name: {name!r}")
        BucketScheme._registry[name] = self

    @classmethod
    def geometric(
        cls, name: str, *, start: float, factor: float, buckets: int
    ) -> "BucketScheme":
        return cls(name, (start * factor**i for i in range(buckets)))

    @classmethod
    def by_name(cls, name: str) -> "BucketScheme":
        try:
            return cls._registry[name]
        except KeyError:
            raise ValueError(f"unknown bucket scheme: {name!r}") from None

    def __len__(self) -> int:
        return len(self._bounds_list) + 1  # + overflow

    def index(self, value: float) -> int:
        return bisect_left(self._bounds_list, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        lo, hi = self._bounds_list[0], self._bounds_list[-1]
        return f"BucketScheme({self.name!r}, {lo:g}..{hi:g})"


#: Seconds: 1 µs .. ~134 s, ~19% relative resolution.
TIME_SCHEME = BucketScheme.geometric(
    "time", start=1e-6, factor=2**0.25, buckets=108
)
#: Dimensionless magnitudes (steps, costs): 1 .. ~2**44.
VALUE_SCHEME = BucketScheme.geometric(
    "value", start=1.0, factor=2**0.5, buckets=88
)


class Histogram:
    """One mergeable distribution over a :class:`BucketScheme`.

    Bucket counts are exact integers; ``count``/``min``/``max`` are
    exact too, so they merge without loss.  ``total`` (and hence
    ``mean``) is a float sum — useful, but excluded from equality.
    Quantiles come from the cumulative bucket counts, clamped into
    ``[min, max]`` so tiny samples don't report a bucket bound no
    observation ever reached.
    """

    __slots__ = ("scheme", "counts", "count", "total", "_min", "_max")

    def __init__(self, scheme: BucketScheme | str = TIME_SCHEME):
        if isinstance(scheme, str):
            scheme = BucketScheme.by_name(scheme)
        self.scheme = scheme
        self.counts: list[int] = [0] * len(scheme)
        self.count = 0
        self.total = 0.0
        self._min = 0.0
        self._max = 0.0

    # -- recording ----------------------------------------------------

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[self.scheme.index(value)] += 1
        if not self.count or value < self._min:
            self._min = value
        if not self.count or value > self._max:
            self._max = value
        self.count += 1
        self.total += value

    def observe_many(self, values) -> None:
        arr = np.asarray(values, dtype=np.float64).ravel()
        if not arr.size:
            return
        idx = np.searchsorted(self.scheme.bounds, arr, side="left")
        for i, c in zip(*np.unique(idx, return_counts=True)):
            self.counts[int(i)] += int(c)
        lo, hi = float(arr.min()), float(arr.max())
        if not self.count or lo < self._min:
            self._min = lo
        if not self.count or hi > self._max:
            self._max = hi
        self.count += int(arr.size)
        self.total += float(arr.sum())

    # -- reading ------------------------------------------------------

    @property
    def min(self) -> float:
        """Smallest observation; canonically ``0.0`` when empty."""
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile
        observation, clamped into ``[min, max]``; 0.0 when empty."""
        if not self.count:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        target = max(1, -(-self.count * q // 1))  # ceil without math
        cum = 0
        bounds = self.scheme._bounds_list
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= target:
                est = bounds[i] if i < len(bounds) else self._max
                return min(max(est, self._min), self._max)
        return self._max  # pragma: no cover - cum always reaches count

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    # -- merging / transport ------------------------------------------

    def merge(self, other: "Histogram") -> "Histogram":
        if other.scheme.name != self.scheme.name:
            raise ValueError(
                f"cannot merge scheme {other.scheme.name!r} "
                f"into {self.scheme.name!r}"
            )
        if not other.count:
            return self
        for i, c in enumerate(other.counts):
            if c:
                self.counts[i] += c
        if not self.count or other._min < self._min:
            self._min = other._min
        if not self.count or other._max > self._max:
            self._max = other._max
        self.count += other.count
        self.total += other.total
        return self

    def clone(self) -> "Histogram":
        out = Histogram(self.scheme)
        out.counts = list(self.counts)
        out.count = self.count
        out.total = self.total
        out._min = self._min
        out._max = self._max
        return out

    def to_wire(self) -> dict:
        """JSON-safe sparse snapshot; ``from_wire`` round-trips it."""
        return {
            "scheme": self.scheme.name,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": [
                [i, c] for i, c in enumerate(self.counts) if c
            ],
        }

    @classmethod
    def from_wire(cls, wire: Mapping) -> "Histogram":
        out = cls(BucketScheme.by_name(wire["scheme"]))
        for i, c in wire["buckets"]:
            out.counts[int(i)] = int(c)
        out.count = int(wire["count"])
        out.total = float(wire["total"])
        if out.count:
            out._min = float(wire["min"])
            out._max = float(wire["max"])
        return out

    @classmethod
    def from_wire_aggregate(
        cls, wire: Mapping | None, scheme: BucketScheme | str = TIME_SCHEME
    ) -> "Histogram":
        """All series of a :meth:`HistogramFamily.to_wire` snapshot
        merged into one histogram (empty on ``None`` — the convenient
        shape for consumers reading a ``metrics`` reply)."""
        if wire is None:
            return cls(scheme)
        out = cls(BucketScheme.by_name(wire["scheme"]))
        for entry in wire["series"]:
            out.merge(cls.from_wire(entry["hist"]))
        return out

    def key(self):
        """Distribution identity: everything exact and order-free.

        ``total`` is a float accumulation whose value depends on
        observation order, so it is deliberately excluded — two
        histograms with equal keys saw the same multiset of buckets.
        """
        return (
            self.scheme.name,
            self.count,
            self.min,
            self.max,
            tuple((i, c) for i, c in enumerate(self.counts) if c),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.key() == other.key()

    __hash__ = None  # mutable

    def snapshot(self) -> dict:
        """Summary stats (no buckets) for human-facing reports."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Histogram({self.scheme.name}, n={self.count}, "
            f"p50={self.p50:g}, p99={self.p99:g})"
        )


def _label_key(labels: Mapping[str, str]) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class HistogramFamily:
    """A named set of histograms distinguished by label values.

    ``observe(v, solver="window")`` routes to the series for that
    label set, creating it on first use.  Series creation and snapshot
    iteration take a small internal lock so a scrape thread can walk
    the family while drainer threads append; single observes into an
    existing series are GIL-atomic list increments and stay unlocked.
    (Consistency *across* fields is the caller's job —
    :class:`EngineMetrics` serializes its observes under its own lock.)
    """

    __slots__ = ("name", "scheme", "help", "_series", "_lock")

    def __init__(
        self, name: str, scheme: BucketScheme | str, *, help: str = ""
    ):
        if isinstance(scheme, str):
            scheme = BucketScheme.by_name(scheme)
        self.name = name
        self.scheme = scheme
        self.help = help
        self._series: dict[tuple, tuple[dict, Histogram]] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: str) -> Histogram:
        key = _label_key(labels)
        got = self._series.get(key)
        if got is None:
            with self._lock:
                got = self._series.setdefault(
                    key,
                    ({k: str(v) for k, v in labels.items()},
                     Histogram(self.scheme)),
                )
        return got[1]

    def observe(self, value: float, **labels: str) -> None:
        self.labels(**labels).observe(value)

    def series(self) -> list[tuple[dict, Histogram]]:
        with self._lock:
            return [(dict(lbl), h) for lbl, h in self._series.values()]

    def aggregate(self) -> Histogram:
        """All series merged — the label-free view of the family."""
        out = Histogram(self.scheme)
        for _labels, hist in self.series():
            out.merge(hist)
        return out

    def __len__(self) -> int:
        return len(self._series)

    def snapshot(self) -> dict:
        agg = Histogram(self.scheme)
        series = []
        for labels, hist in self.series():
            agg.merge(hist)
            series.append({"labels": labels, **hist.snapshot()})
        return {
            "scheme": self.scheme.name,
            **agg.snapshot(),
            "series": series,
        }

    def to_wire(self) -> dict:
        return {
            "name": self.name,
            "scheme": self.scheme.name,
            "help": self.help,
            "series": [
                {"labels": labels, "hist": hist.to_wire()}
                for labels, hist in self.series()
            ],
        }

    @classmethod
    def from_wire(cls, wire: Mapping) -> "HistogramFamily":
        fam = cls(wire["name"], wire["scheme"], help=wire.get("help", ""))
        fam.merge_wire(wire)
        return fam

    def merge_wire(
        self, wire: Mapping, *, extra_labels: Mapping[str, str] | None = None
    ) -> "HistogramFamily":
        """Fold a :meth:`to_wire` snapshot in, optionally tagging every
        incoming series with extra labels (``shard="2"``) — how the
        pool turns per-worker snapshots into one labeled family."""
        for entry in wire["series"]:
            labels = dict(entry["labels"])
            if extra_labels:
                labels.update(
                    {str(k): str(v) for k, v in extra_labels.items()}
                )
            self.labels(**labels).merge(Histogram.from_wire(entry["hist"]))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HistogramFamily({self.name!r}, series={len(self)})"
