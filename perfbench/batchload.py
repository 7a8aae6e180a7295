"""batch-solve: one :class:`~repro.engine.batch.BatchEngine` (``nproc``
workers, portfolio learning off) solving a seeded MT-Switch mix with
``auto`` — the offline path of the paper.

A run has two measured phases on one engine (its result cache warms
across both, as a long-lived engine's would), both closed loops,
alternating in :data:`SLICE_S` slices:

* **batches** (two thirds of each slice): ``solve_batch`` on
  :data:`BATCH` requests at a time, the next batch submitted when the
  last returns.  Gives ``solves_per_s`` and ``steps_per_s`` (task-steps
  ``m * n`` scheduled per second of ``solve_batch`` time).
* **single requests** (the last third): one request at a time through
  ``BatchEngine.solve``, each call timed (``feed_p50_ms``: the latency
  of one uncached request with nothing queued; p90 and tail on
  stderr).

Every answer is then re-costed by the scalar cost oracle
(``sync_switch_cost`` without the packed fast path) and must equal the
returned cost and be at least ``sync_mt_lower_bound``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import measure

#: Engine worker processes: the cores of the box, at most 2.
WORKERS = max(1, min(2, os.cpu_count() or 1))

#: Requests per closed-loop batch: one wave of the repo's own
#: engine-throughput bench (``benchmarks/bench_e13_engine_throughput``:
#: 200 requests in 5 waves of 40).  ``solve_batch`` forks a fresh
#: worker pool per call, so much smaller batches would mostly time pool
#: start-up rather than canonicalize, cache and solvers.
BATCH = 40

#: Engine set-ups timed before the first batch; one more is timed
#: before every batch (``setup_s`` is the median of all).
SETUP_REPEATS = 5

#: One slice of batches (two thirds) and single requests (one third).
SLICE_S = 3.0

#: Per-layer metric prefixes this workload's traced run measures.
LAYERS = ("batch.", "solvers.", "bench.")


@dataclass
class Solved:
    request: object
    result: object
    latency: float  # s: the solve call's round trip


@dataclass
class PhaseLog:
    solved: list = field(default_factory=list)
    batch_rtt: list = field(default_factory=list)  # s per solve_batch


def _warm_request():
    from repro.analysis.sweeps import make_instance
    from repro.engine.requests import SolveRequest

    system, seqs = make_instance(2, 6, 4, seed=0)
    return SolveRequest.multi(system, seqs, solver="auto")


def make_engine():
    """``(engine, seconds)``: construction until a one-request warm-up
    batch returns."""
    from repro.engine.batch import BatchEngine

    warm = _warm_request()
    t0 = time.perf_counter()
    engine = BatchEngine(workers=WORKERS, portfolio_learn=False)
    engine.solve_batch([warm])
    return engine, time.perf_counter() - t0


def one_batch(engine, source, log: PhaseLog) -> float:
    """Solve the next :data:`BATCH` requests; returns the round trip."""
    batch = [source.next() for _ in range(BATCH)]
    t0 = time.perf_counter()
    results = engine.solve_batch(batch)
    rtt = time.perf_counter() - t0
    log.batch_rtt.append(rtt)
    log.solved.extend(Solved(q, r, rtt) for q, r in zip(batch, results))
    return rtt


def closed_loop(engine, source, seconds: float, setups: list,
                log: PhaseLog) -> None:
    """Batches back to back; one engine set-up is timed before each
    batch (outside its round trip)."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        setups.append(make_engine()[1])
        one_batch(engine, source, log)


def single_loop(engine, source, seconds: float, log: PhaseLog) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        request = source.next()
        t0 = time.perf_counter()
        result = engine.solve(request)
        log.solved.append(Solved(request, result, time.perf_counter() - t0))


def verify(solved: list) -> list[bool]:
    """Per answer: solved, scalar-oracle cost equal to the returned one,
    and no lower than the instance's lower bound."""
    from repro.core.sync_cost import sync_switch_cost
    from repro.solvers.lower_bounds import sync_mt_lower_bound

    ok = []
    for item in solved:
        q, r = item.request, item.result
        if not r.ok:
            ok.append(False)
            continue
        oracle = sync_switch_cost(q.system, q.seqs, r.value.schedule,
                                  q.model)
        bound = sync_mt_lower_bound(q.system, q.seqs, q.model)
        ok.append(oracle == r.value.cost and oracle >= bound)
    return ok


def _task_steps(request) -> int:
    return request.system.m * len(request.seqs[0])


def _report_failures(solved, ok) -> int:
    bad = [i for i, good in enumerate(ok) if not good]
    for i in bad[:5]:
        r = solved[i].result
        why = r.error or f"cost {r.value.cost} fails the scalar oracle"
        print(f"batch answer {i} failed: {why}", file=sys.stderr)
    return len(bad)


def _sources(seed: int):
    from perfbench import traffic

    traces = traffic.app_traces()
    return lambda: traffic.BatchSource(seed, traces)


def run_untraced(name: str, seed: int, seconds: float, root: Path):
    source = _sources(seed)()
    # Set-up is timed between the batches too, so that its median spans
    # the whole run rather than one moment of a machine whose speed
    # drifts.
    setups = []
    for _ in range(SETUP_REPEATS):
        engine, seconds_taken = make_engine()
        setups.append(seconds_taken)
    # The two phases alternate in short slices, so that each samples
    # the whole run rather than one half of a machine whose speed flips
    # within tens of seconds.
    closed, single = PhaseLog(), PhaseLog()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        closed_loop(engine, source, SLICE_S * 2 / 3, setups, closed)
        single_loop(engine, source, SLICE_S / 3, single)
    rss = measure.proc_peak_rss_mb()
    solved = closed.solved + single.solved
    ok = verify(solved)
    failed = _report_failures(solved, ok)
    good = [s for s, g in zip(solved, ok) if g]
    good_closed = [s for s, g in zip(closed.solved, ok) if g]
    wall = sum(closed.batch_rtt)
    # Cache hits answer in ~0.1 ms and their share moves with the seed;
    # with them in, the p50 sat on the steep edge between hits and
    # solves.  The latency is that of a request the engine must solve.
    feed = measure.latency_ms([s.latency for s in single.solved
                               if not s.result.cached])
    print(f"{name}: {len(closed.solved)} requests in "
          f"{len(closed.batch_rtt)} batches", file=sys.stderr)
    print(measure.describe(f"{name} single uncached request", feed),
          file=sys.stderr)
    metrics = {
        "steps_per_s": sum(_task_steps(s.request) for s in good_closed)
        / wall,
        "solves_per_s": len(good_closed) / wall,
        "feed_p50_ms": feed["p50"],
        "cost_ratio": (
            sum(s.result.value.cost for s in good)
            / sum(_lower_bound(s.request) for s in good)
        ),
        "setup_s": sorted(setups)[len(setups) // 2],
        "rss_mb": rss,
    }
    return metrics, len(solved), failed


def _lower_bound(request) -> float:
    from repro.solvers.lower_bounds import sync_mt_lower_bound

    return sync_mt_lower_bound(request.system, request.seqs, request.model)


def _load_worker_chunks(out_dir: Path) -> tuple[list, dict, int]:
    """(spans, taps, ipc bytes) the pool workers wrote, files removed.

    Span ids are made unique per process (workers fork the parent's
    id counter)."""
    spans, taps, ipc = [], {}, 0
    for path in sorted(out_dir.glob("chunks-*.jsonl")):
        with open(path) as fh:
            for line in fh:
                record = json.loads(line)
                pid = record["pid"]
                spans.extend(
                    (f"{pid}:{i}", name, start, end,
                     None if parent is None else f"{pid}:{parent}", cpu)
                    for i, name, start, end, parent, cpu in record["spans"])
                for key, values in record["taps"].items():
                    taps.setdefault(key, []).extend(values)
                ipc += record["ipc_bytes"]
        path.unlink()
    return spans, taps, ipc


def _delta_probe(result, *_args) -> tuple[int, int]:
    """Tap on ``SolverRegistry.solve_multi``: the evaluator counters a
    solver result reports (incremental applies, full evaluations)."""
    stats = getattr(result, "stats", None) or {}
    return (int(stats.get("delta_applies", 0) or 0),
            int(stats.get("delta_full_evals", 0) or 0))


def run_traced(name: str, seed: int, seconds: float, root: Path):
    """Per-layer metrics; returns (metrics, attempted, failed).

    Two fresh engines solve the same request stream side by side, one
    batch each in turn (the order flipped every pair): a plain one (the
    untraced baseline, and every metric the engine's own results give)
    and one with span timers on the canonicalizer and the solver
    registry, in the parent and in the pool workers.  Both see the same
    requests and the same cache states, so each pair's time ratio is
    the cost of tracing on identical work.
    """
    from perfbench.spans import BATCH_POINTS, SpanRecorder

    make_source = _sources(seed)
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    for stale in out_dir.glob("chunks-*.jsonl"):
        stale.unlink()
    recorder = SpanRecorder()
    plain_engine, plain_source, plain = make_engine()[0], make_source(), \
        PhaseLog()
    traced_engine, traced_source, traced = make_engine()[0], \
        make_source(), PhaseLog()

    def plain_batch() -> float:
        return one_batch(plain_engine, plain_source, plain)

    def traced_batch() -> float:
        # installed before each solve_batch forks its pool, so the
        # workers inherit the wrappers
        recorder.patch_all(BATCH_POINTS)
        recorder.tap("repro.engine.registry", "SolverRegistry.solve_multi",
                     "solvers.delta", _delta_probe)
        recorder.dump_worker_chunks(str(out_dir))
        try:
            return one_batch(traced_engine, traced_source, traced)
        finally:
            recorder.restore()

    ratios = []  # traced / plain throughput per pair
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if len(ratios) % 2 == 0:
            base = plain_batch()
            ratios.append(base / traced_batch())
        else:
            traced_s = traced_batch()
            ratios.append(plain_batch() / traced_s)
    worker_spans, worker_taps, ipc_bytes = _load_worker_chunks(out_dir)

    solved = plain.solved + traced.solved
    ok = verify(solved)
    failed = _report_failures(solved, ok)

    layers = measure.self_times(
        [(f"p:{i}", n, s, e, None if p is None else f"p:{p}", c)
         for i, n, s, e, p, c in recorder.spans] + worker_spans)
    canon = layers["batch.canonicalize"]
    deltas = recorder.taps["solvers.delta"] + [
        tuple(d) for d in worker_taps.get("solvers.delta", [])]
    applies = sum(a for a, _f in deltas)
    fulls = sum(f for _a, f in deltas)
    misses = [s.result for s in plain.solved
              if s.result.ok and not s.result.cached]
    solve_ms = [r.elapsed * 1e3 for r in misses]
    wall = sum(plain.batch_rtt)
    metrics = {
        "batch.canonicalize_us_per_req": canon["total"] / canon["count"]
        * 1e6,
        "batch.cache_hit_frac": 1.0 - len(misses) / len(plain.solved),
        "batch.ipc_bytes_per_req": ipc_bytes / len(traced.solved),
        "batch.dispatch_overhead_frac": (
            wall - sum(r.elapsed for r in misses) / WORKERS) / wall,
        "solvers.solve_p50_ms": measure.rank_percentile(solve_ms, 0.5),
        "solvers.solve_p99_ms": measure.tail_percentile(solve_ms, 0.99)[1],
        "solvers.exact_frac": sum(bool(r.value.optimal) for r in misses)
        / len(misses),
        "solvers.delta_eval_frac": measure.ratio(applies, applies + fulls),
        "bench.trace_overhead_frac": 1.0 - statistics.median(ratios),
    }
    return metrics, len(solved), failed
