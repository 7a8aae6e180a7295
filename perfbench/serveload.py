"""serve-apps: ``repro serve`` in its own process, driven
through the public :class:`~repro.serve.client.ServeClient` API from
this (load-generator) process with one connection per client thread.

A run has two measured phases, each against a server of its own, the
two alternating in short slices:

* **closed loop** (half of each slice): each client thread keeps a fixed
  live population of sessions and sends one chunk per live session as
  one pipelined burst, the next burst only after every reply of the
  last one is back.  A session closes when its trace ends and a fresh
  one opens in its place.  Gives ``steps_per_s`` and ``solves_per_s``.
* **open loop** (the other half): one client thread feeds on a fixed
  schedule — a feed of ``s`` steps is due ``s / rate`` seconds after
  the previous one, whatever the server does — at a constant offered
  rate.  Its sessions are opened before the schedule
  starts and closed after it ends, so churn never holds up the
  schedule.  Each feed is timed from when it was due.  Gives
  ``feed_p50_ms``; the p90 and the tail go to stderr and to the traced
  run's ``loadgen.*`` rows.

The load generator's cyclic garbage collector is off inside phases.
Every session is closed (the rest at the end of each phase); its cost
must equal a single-hub :class:`~repro.engine.stream.StreamHub` replay
of exactly the steps it was fed, and the server's
``stream_steps_total`` must equal the steps the clients sent.  Both
checks run after the timed sections.

The server is launched with ``--metrics-port 0``: plain ``repro serve``
without a metrics port binds and then dies reading
``server.metrics_address`` (which raises when metrics are off), so the
benchmark always enables the endpoint.  A server that exits before
printing ``serving on`` fails the run with its stderr attached.
"""

from __future__ import annotations

import gc
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import measure

#: Client threads = connections: the 2 cores of the box the rates were
#: chosen on.
THREADS = 2

#: Setup is timed over this many server launches per run (median).
SETUP_LAUNCHES = 5

#: How long a launching server may take to print ``serving on``.
LAUNCH_TIMEOUT_S = 120.0

#: Per-layer metric prefixes this workload's traced run measures.
LAYERS = ("client.", "protocol.", "server.", "serve.", "shard.",
          "stream.", "online.", "loadgen.", "bench.")

#: Sessions each client thread keeps live in the closed loop.
POPULATION = 128

#: Constant offered rate of the open loop, steps/s: about a third of
#: what the program sustained in this open loop on a 2-core x86
#: container when the benchmark was written (~25k steps/s); at half,
#: queueing amplified the machine's speed drift into 2-3x swings of the
#: p90.  Never derived from the code under test.
RATE = 8_000.0

#: Sessions fed round-robin in the open loop.
OPEN_POPULATION = 8


class ServerDied(RuntimeError):
    """The server process exited or hung before it was serving."""


# -- the server process -------------------------------------------------------


#: Server processes started and not yet stopped (see :func:`stop_all`).
_LIVE: set = set()


def stop_all() -> None:
    """Terminate every server this process started and wait for each."""
    for server in list(_LIVE):
        server.stop()


class ServerProcess:
    """One ``repro serve`` process on ephemeral ports."""

    def __init__(self, root: Path, *, spans_path: Path | None = None):
        self.root = root
        self.spans_path = spans_path
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.metrics_url: str | None = None
        self.stderr_lines: list[str] = []
        self._serving = threading.Event()
        self._metrics = threading.Event()
        self._reader: threading.Thread | None = None

    def _command(self) -> list[str]:
        serve = ["serve", "--port", "0", "--metrics-port", "0"]
        if self.spans_path is None:
            return [sys.executable, "-m", "repro.cli", *serve]
        return [sys.executable, str(self.root / "perfbench" /
                                    "traced_server.py"),
                str(self.spans_path), *serve]

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr_lines.append(line)
            found = re.search(r"serving on (\S+):(\d+)", line)
            if found:
                self.address = (found.group(1), int(found.group(2)))
                self._serving.set()
            found = re.search(r"metrics on (http://\S+/metrics)", line)
            if found:
                self.metrics_url = found.group(1)
                self._metrics.set()
        self._serving.set()
        self._metrics.set()

    def start(self) -> float:
        """Launch; returns seconds from launch until the first
        connection is accepted."""
        from repro.serve.client import ServeClient

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self._command(), cwd=self.root, env=env, text=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        _LIVE.add(self)
        self._reader = threading.Thread(target=self._read_stderr,
                                        daemon=True)
        self._reader.start()
        if not self._serving.wait(LAUNCH_TIMEOUT_S) or self.address is None:
            self.stop()
            raise ServerDied(
                "repro serve exited before printing 'serving on'; "
                "stderr:\n" + "".join(self.stderr_lines)
            )
        ServeClient(*self.address).close()
        setup = time.perf_counter() - t0
        if not self._metrics.wait(LAUNCH_TIMEOUT_S) or not self.metrics_url:
            self.stop()
            raise ServerDied("repro serve printed no metrics address; "
                             "stderr:\n" + "".join(self.stderr_lines))
        return setup

    def scrape(self) -> dict:
        from repro.obs.expo import parse_exposition

        with urllib.request.urlopen(self.metrics_url, timeout=30) as resp:
            return parse_exposition(resp.read().decode())

    def cpu_seconds(self) -> float:
        return measure.proc_cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return measure.proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> int | None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._reader is not None:
            self._reader.join(30)
        _LIVE.discard(self)
        return self.proc.returncode


# -- load generation -------------------------------------------------------------


@dataclass
class Served:
    """One closed session: its spec, steps fed, returned cost."""

    spec: object
    fed: int
    cost: float


@dataclass
class PhaseLog:
    """What one client thread saw in one phase."""

    steps: int = 0
    frames: int = 0
    closed: list = field(default_factory=list)  # Served, in close order
    feed_lat: list = field(default_factory=list)  # s, open loop
    late: list = field(default_factory=list)  # s, open loop
    close_lat: list = field(default_factory=list)  # s
    start: float = 0.0  # open loop: when the schedule started
    bytes_sent: int = 0
    end: float = 0.0  # perf_counter when the last timed request returned
    error: BaseException | None = None


class _Sessions:
    """A thread's live sessions on one client connection."""

    def __init__(self, client, source, log: PhaseLog):
        self.client = client
        self.source = source
        self.log = log
        self.live: list[list] = []  # [spec, pos]

    def open(self) -> None:
        spec = self.source.next()
        self.client.open(policy=spec.policy, width=spec.width, w=spec.w,
                         session_id=spec.sid, **spec.params)
        self.log.frames += 1
        self.live.append([spec, 0])

    def close(self, entry) -> None:
        t0 = time.perf_counter()
        result = self.client.close_session(entry[0].sid)
        self.log.close_lat.append(time.perf_counter() - t0)
        self.log.frames += 1
        self.log.closed.append(Served(entry[0], entry[1], result.cost))

    def close_all(self) -> None:
        for entry in self.live:
            self.close(entry)
        self.live = []


def _closed_loop(address, source, population, chunk, deadline, log):
    from repro.serve.client import ServeClient

    try:
        with ServeClient(*address) as client:
            sessions = _Sessions(client, source, log)
            for _ in range(population):
                sessions.open()
            log.end = time.perf_counter()
            while time.perf_counter() < deadline:
                live = sessions.live
                batch = [(spec.sid, spec.chunk(pos, chunk))
                         for spec, pos in live]
                client.feed_pipelined(batch)
                log.frames += len(batch)
                for entry, (_sid, lanes) in zip(live, batch):
                    entry[1] += lanes.shape[0]
                    log.steps += lanes.shape[0]
                ended = [e for e in live if e[1] >= e[0].steps]
                for entry in ended:
                    live.remove(entry)
                    sessions.close(entry)
                    sessions.open()
                log.end = time.perf_counter()
            sessions.close_all()
            log.bytes_sent = client.bytes_sent
    except Exception as exc:  # noqa: BLE001 - reported by the caller
        log.error = exc


def _open_loop(address, source, population, chunk, rate, seconds, log):
    """Open-loop sender on one connection.

    Sessions are opened before the schedule starts (enough for the
    whole phase) and closed after it ends, so session churn never holds
    up the schedule.  A feed of ``s`` steps falls due ``s / rate`` after
    the previous one; whatever is due when the connection is free goes
    out as one pipelined burst, each feed timed from its due time.  At
    most ``population`` sessions are fed round-robin; one whose trace
    ends is replaced by the next opened one.
    """
    from repro.serve.client import ServeClient

    try:
        with ServeClient(*address) as client:
            sessions = _Sessions(client, source, log)
            planned = 0
            while (len(sessions.live) < population
                   or planned < rate * seconds * 1.25):
                sessions.open()
                planned += sessions.live[-1][0].steps
            waiting = list(sessions.live)
            live = [waiting.pop(0) for _ in range(population)]
            due = log.start = time.perf_counter()
            deadline = due + seconds
            turn = 0
            while due < deadline:
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                    now = time.perf_counter()
                batch, dues = [], []
                while due <= now and due < deadline and live:
                    entry = live[turn % len(live)]
                    spec, pos = entry
                    lanes = spec.chunk(pos, chunk)
                    entry[1] += lanes.shape[0]
                    if entry[1] >= spec.steps:
                        live.remove(entry)
                        if waiting:
                            live.append(waiting.pop(0))
                    batch.append((spec.sid, lanes))
                    dues.append(due)
                    due += lanes.shape[0] / rate
                    turn += 1
                if not batch:
                    raise RuntimeError("open loop ran out of sessions")
                sent = time.perf_counter()
                client.feed_pipelined(batch)
                done = time.perf_counter()
                for d in dues:
                    log.late.append(sent - d)
                    log.feed_lat.append(done - d)
                log.frames += len(batch)
                log.steps += sum(lanes.shape[0] for _sid, lanes in batch)
                log.end = done
            sessions.close_all()
            log.bytes_sent = client.bytes_sent
    except Exception as exc:  # noqa: BLE001 - reported by the caller
        log.error = exc


def run_phase(kind: str, address, sources, seconds: float):
    """One phase, one client thread (and connection) per source;
    returns (logs, start of the measured span)."""
    if kind == "open":
        # One sender: a second client thread would only add GIL waits
        # to the latencies this phase measures.
        sources = sources[:1]
    logs = [PhaseLog() for _ in sources]
    chunk = sources[0].chunk
    start = time.perf_counter()
    if kind == "closed":
        targets = [
            (_closed_loop, (address, source, POPULATION, chunk,
                            start + seconds, log))
            for source, log in zip(sources, logs)
        ]
    else:
        targets = [(_open_loop, (address, sources[0], OPEN_POPULATION,
                                 chunk, RATE, seconds, logs[0]))]
    threads = [threading.Thread(target=fn, args=args, name=f"load-{t}")
               for t, (fn, args) in enumerate(targets)]
    # The load generator's own garbage-collector pauses would land in
    # the latencies it measures; collect between phases instead.
    gc.collect()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
    for log in logs:
        if log.error is not None:
            raise log.error
    return logs, (logs[0].start if kind == "open" else start)


# -- verification ------------------------------------------------------------------


def verify(served: list) -> dict[str, bool]:
    """Session id -> served cost equals a single-hub replay of exactly
    the steps it was fed (bit-identical).  The replay's cost is the
    session's running cost; the served one went through the server's
    validated finish."""
    from repro.core.switches import SwitchUniverse
    from repro.engine.stream import StreamHub
    from repro.serve.protocol import policy_from_spec

    ok: dict[str, bool] = {}
    for lo in range(0, len(served), 256):
        group = served[lo : lo + 256]
        hub = StreamHub(retain_runs=False)
        chunks = {}
        for item in group:
            spec = item.spec
            hub.open(policy_from_spec(spec.policy, spec.w, spec.params),
                     SwitchUniverse.of_size(spec.width), spec.w,
                     session_id=spec.sid)
            if item.fed:
                chunks[spec.sid] = spec.prefix(item.fed)
        hub.feed_many(chunks)
        for item in group:
            ok[item.spec.sid] = hub.session(item.spec.sid).cost == item.cost
    return ok


def lower_bound(item: Served) -> float:
    """``w + sum |c_i|`` over the fed prefix (repro.solvers.lower_bounds
    .switch_lower_bound, on lanes)."""
    lanes = item.spec.prefix(item.fed)
    return item.spec.w + float(np.bitwise_count(lanes).sum())


def bare_hub_steps_per_s(served: list, population: int, chunk: int) -> float:
    """In-process ``StreamHub.feed_many`` over the same pre-packed
    traffic and chunking: ``population`` live sessions, one chunk each
    per call, a finished session replaced by the next one served."""
    from repro.core.switches import SwitchUniverse
    from repro.engine.stream import StreamHub
    from repro.serve.protocol import policy_from_spec

    hub = StreamHub(retain_runs=False)
    queue = [s for s in served if s.fed]
    live: list[list] = []
    steps = 0
    t0 = time.perf_counter()
    while queue or live:
        while queue and len(live) < population:
            item = queue.pop(0)
            spec = item.spec
            hub.open(policy_from_spec(spec.policy, spec.w, spec.params),
                     SwitchUniverse.of_size(spec.width), spec.w,
                     session_id=spec.sid)
            live.append([item, 0])
        chunks = {e[0].spec.sid: e[0].spec.chunk(e[1],
                                                 min(chunk, e[0].fed - e[1]))
                  for e in live}
        hub.feed_many(chunks)
        for entry in live:
            n = chunks[entry[0].spec.sid].shape[0]
            entry[1] += n
            steps += n
        for entry in [e for e in live if e[1] >= e[0].fed]:
            live.remove(entry)
            hub.finish(entry[0].spec.sid)
    return steps / (time.perf_counter() - t0)


# -- one run ------------------------------------------------------------------------

#: Warm-up, of the same kind of loop, before each measured phase.
WARMUP_S = 1.0

#: One slice of closed loop (first half) and open loop (second half).
SLICE_S = 5.0


class _Run:
    """Bookkeeping across the phases and servers of one run."""

    def __init__(self, seed: int):
        from perfbench import traffic

        traces = traffic.app_traces()
        self.make_source = lambda stream: traffic.AppsSource(
            seed, stream, traces)
        self.chunk = traffic.AppsSource.chunk
        self.streams = 0
        self.served: list[Served] = []
        self.attempted = 0
        self.failed = 0
        self.sent: dict[int, int] = {}  # server pid -> steps sent

    def phase(self, kind: str, server: ServerProcess, seconds: float):
        sources = [self.make_source(self.streams + t)
                   for t in range(THREADS)]
        self.streams += THREADS
        logs, start = run_phase(kind, server.address, sources, seconds)
        for log in logs:
            self.served.extend(log.closed)
            self.attempted += log.frames
        pid = server.proc.pid
        self.sent[pid] = self.sent.get(pid, 0) + sum(g.steps for g in logs)
        return logs, start

    def check_steps(self, server: ServerProcess, scraped: dict) -> None:
        """The server's stream_steps_total must equal the steps sent."""
        self.attempted += 1
        counted = measure.series_total(scraped, "repro_stream_steps_total")
        if counted != self.sent[server.proc.pid]:
            self.failed += 1
            print(f"server counted {counted:.0f} stream steps, clients "
                  f"sent {self.sent[server.proc.pid]}", file=sys.stderr)

    def verify(self) -> dict[str, bool]:
        ok = verify(self.served)
        bad = [sid for sid, good in ok.items() if not good]
        self.failed += len(bad)
        if bad:
            print(f"{len(bad)} session(s) differ from the single-hub "
                  f"replay, e.g. {bad[:5]}", file=sys.stderr)
        return ok


def run_untraced(name: str, seed: int, seconds: float, root: Path):
    """End-to-end metrics; returns (metrics, attempted, failed).

    The closed loop and the open loop run against two servers side by
    side, alternating in :data:`SLICE_S` slices, so that each samples
    the whole run rather than one half of a machine whose speed flips
    within tens of seconds.  The open loop has a server of its own: its
    work is fixed by the offered rate, so its peak RSS does not grow
    with throughput.
    """
    run = _Run(seed)
    setups = []
    for _ in range(SETUP_LAUNCHES - 2):
        probe = ServerProcess(root)
        try:
            setups.append(probe.start())
        finally:
            probe.stop()
    closed_server, open_server = ServerProcess(root), ServerProcess(root)
    closed, opened = [], []
    wall = closed_cpu = 0.0
    try:
        setups.append(closed_server.start())
        setups.append(open_server.start())
        run.phase("closed", closed_server, WARMUP_S)
        run.phase("open", open_server, WARMUP_S)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            cpu0 = closed_server.cpu_seconds()
            logs, start = run.phase("closed", closed_server, SLICE_S / 2)
            closed_cpu += closed_server.cpu_seconds() - cpu0
            wall += max(g.end for g in logs) - start
            closed.extend(logs)
            opened.extend(run.phase("open", open_server, SLICE_S / 2)[0])
        run.check_steps(closed_server, closed_server.scrape())
        run.check_steps(open_server, open_server.scrape())
        rss = open_server.peak_rss_mb()
    finally:
        closed_server.stop()
        open_server.stop()
    ok = run.verify()

    # only sessions whose cost matched the oracle count
    closed_served = [s for g in closed for s in g.closed if ok[s.spec.sid]]
    measured = closed_served + [
        s for g in opened for s in g.closed if ok[s.spec.sid]]
    chunk = run.chunk
    feed = measure.latency_ms([x for g in opened for x in g.feed_lat])
    print(measure.describe(f"{name} open-loop feed", feed), file=sys.stderr)
    print(measure.describe(
        f"{name} sender lateness",
        measure.latency_ms([x for g in opened for x in g.late])),
        file=sys.stderr)
    print(f"{name}: server CPU "
          f"{closed_cpu / sum(g.steps for g in closed) * 1e6:.2f} s per "
          f"million steps (server.cpu_s_per_mstep)", file=sys.stderr)
    metrics = {
        "steps_per_s": sum(s.fed for s in closed_served) / wall,
        "solves_per_s": sum(-(-s.fed // chunk) for s in closed_served)
        / wall,
        "feed_p50_ms": feed["p50"],
        "cost_ratio": (sum(s.cost for s in measured)
                       / sum(lower_bound(s) for s in measured)),
        "setup_s": sorted(setups)[len(setups) // 2],
        "rss_mb": rss,
    }
    return metrics, run.attempted, run.failed


# -- the traced run ---------------------------------------------------------------

def _interned_probe(frame, *_args) -> int:
    """Tap on the client's ``encode_feed_bin``: 1 for interned frames."""
    from repro.serve.protocol import BIN_FLAG_INTERNED

    return int(bool(frame[3] & BIN_FLAG_INTERNED))


def _tail_ms(samples_s) -> float:
    """Tail (<= p99) in ms; the maximum when too few samples for one."""
    ms = [s * 1e3 for s in samples_s]
    if len(ms) <= measure.TAIL_BEYOND:
        return max(ms, default=0.0)
    return measure.tail_percentile(ms, 0.99)[1]


#: Plain/traced closed-loop window pairs of a traced run.
PAIRS = 5


def _rate(logs, start: float) -> float:
    """Closed-loop steps per second of one phase."""
    return sum(g.steps for g in logs) / (max(g.end for g in logs) - start)


def run_traced(name: str, seed: int, seconds: float, root: Path):
    """Per-layer metrics; returns (metrics, attempted, failed).

    A plain server and one launched through ``traced_server.py`` run
    side by side.  For two thirds of the run, short closed-loop windows
    alternate between them (:data:`PAIRS` pairs, the order flipped
    every pair), so both see the same machine: the traced windows, with
    client spans on too, give the spans, counters and ``/proc`` CPU, and
    each pair gives one traced ÷ plain throughput ratio.  The last third
    is an open-loop phase on the traced server (queue waits, sender
    lateness, the feed tail).
    """
    from perfbench.spans import CLIENT_POINTS, SpanRecorder

    run = _Run(seed)
    window_s = seconds / 3 / PAIRS
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{os.getpid()}.json"
    plain = ServerProcess(root)
    traced = ServerProcess(root, spans_path=spans_path)
    client = SpanRecorder()
    closed, windows, plain_rates, ratios = [], [], [], []

    def plain_window() -> float:
        rate = _rate(*run.phase("closed", plain, window_s))
        plain_rates.append(rate)
        return rate

    def traced_window() -> float:
        client.patch_all(CLIENT_POINTS)
        client.tap("repro.serve.client", "encode_feed_bin",
                   "client.interned", _interned_probe)
        try:
            m0, cpu0, w0 = traced.scrape(), traced.cpu_seconds(), \
                time.perf_counter()
            logs, start = run.phase("closed", traced, window_s)
            w1, cpu1, m1 = time.perf_counter(), traced.cpu_seconds(), \
                traced.scrape()
        finally:
            client.restore()
        windows.append((w0, w1, m0, m1, cpu1 - cpu0))
        closed.extend(logs)
        return _rate(logs, start)

    try:
        plain.start()
        traced.start()
        run.phase("closed", plain, WARMUP_S)
        run.phase("closed", traced, WARMUP_S)
        for pair in range(PAIRS):
            # plain first on even pairs, traced first on odd ones
            if pair % 2 == 0:
                base = plain_window()
                ratios.append(traced_window() / base)
            else:
                ratios.append(traced_window() / plain_window())
        open_start = time.perf_counter()
        opened, _ = run.phase("open", traced, seconds / 3)
        open_end = time.perf_counter()
        run.check_steps(plain, plain.scrape())
        run.check_steps(traced, traced.scrape())
    finally:
        client.restore()
        plain.stop()
        traced.stop()
    with open(spans_path) as fh:
        recorded = json.load(fh)
    spans_path.unlink()
    run.verify()

    def delta(series: str) -> float:
        return sum(measure.series_total(m1, series)
                   - measure.series_total(m0, series)
                   for _w0, _w1, m0, m1, _cpu in windows)

    window = [s for s in recorded["spans"]
              if any(w0 <= s[2] and s[3] <= w1
                     for w0, w1, *_rest in windows)]
    layers = measure.self_times(window)
    client_layers = measure.self_times(client.spans)

    def total(n, rows=layers):
        return rows.get(n, {}).get("total", 0.0)

    def mean_us(n, rows=layers):
        row = rows.get(n)
        return row["total"] / row["count"] * 1e6 if row else 0.0

    steps = delta("repro_stream_steps_total")
    frames = delta("repro_server_frames_total")
    groups = delta("repro_fused_group_sessions_count")
    fused = delta("repro_stream_fused_sessions_total")
    cpu = sum(w[4] for w in windows)
    base_rate = statistics.median(plain_rates)
    bare = bare_hub_steps_per_s(
        [s for g in closed for s in g.closed], THREADS * POPULATION,
        run.chunk)
    queue_waits = [wait for t0, wait in recorded["taps"]["server.queue_wait"]
                   if open_start <= t0 <= open_end]
    interned = client.taps["client.interned"]
    metrics = {
        "client.encode_us_per_frame": mean_us("client.encode",
                                              client_layers),
        "client.bytes_per_step": sum(g.bytes_sent for g in closed)
        / sum(g.steps for g in closed),
        "client.interned_frac": measure.ratio(sum(interned), len(interned)),
        "protocol.parse_us_per_frame": (
            total("protocol.decode_frame") + total("protocol.parse_request")
            + total("protocol.parse_bin_feed")) / frames * 1e6,
        "protocol.decode_us_per_step": total("protocol.decode") / steps
        * 1e6,
        "protocol.wire_decode_us_per_step": delta(
            "repro_wire_decode_seconds_total") / steps * 1e6,
        "protocol.reply_encode_us_per_frame": mean_us(
            "protocol.reply_encode"),
        "server.cpu_s_per_mstep": cpu / steps * 1e6,
        "server.self_us_per_frame": (cpu - measure.root_cpu(window))
        / frames * 1e6,
        "bench.trace_overhead_frac": 1.0 - statistics.median(ratios),
        "server.feeds_per_cycle": delta("repro_server_feeds_total")
        / delta("repro_drain_cycle_seconds_count"),
        "server.queue_wait_p99_ms": _tail_ms(queue_waits),
        "serve.close_p99_ms": _tail_ms(
            [x for g in closed for x in g.close_lat]),
        "shard.hop_us_per_cycle": (
            layers["shard.feed_shard"]["self"]
            / layers["shard.feed_shard"]["count"] * 1e6),
        "shard.finish_us": mean_us("shard.finish"),
        "stream.feed_many_us_per_step": total("stream.feed_many") / steps
        * 1e6,
        "stream.finish_us": mean_us("stream.finish"),
        "stream.fused_frac": measure.ratio(
            fused, fused + delta("repro_stream_fused_fallback_total")),
        "stream.sessions_per_sweep": measure.ratio(fused, groups),
        "stream.bare_steps_per_s": bare,
        "stream.serve_fraction": base_rate / bare,
        "online.sweep_us_per_step": total("online.sweep") / steps * 1e6,
        "online.epochs_per_sweep": measure.ratio(
            delta("repro_stream_replay_epochs_total"), groups),
        "online.triggers_per_kstep": delta(
            "repro_stream_replay_triggers_total") / steps * 1e3,
        "online.hyper_rate": delta("repro_stream_hypers_total") / steps,
        "loadgen.late_p99_ms": _tail_ms(
            [x for g in opened for x in g.late]),
        "loadgen.feed_p90_ms": measure.rank_percentile(
            [x * 1e3 for g in opened for x in g.feed_lat], 0.9),
        "loadgen.feed_tail_ms": _tail_ms(
            [x for g in opened for x in g.feed_lat]),
        "loadgen.feed_samples": float(sum(len(g.feed_lat) for g in opened)),
    }
    return metrics, run.attempted, run.failed
