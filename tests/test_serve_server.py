"""Loopback server suite: the serving acceptance criteria.

The headline test drives **256 concurrent sessions** through real TCP
client connections against a 4-shard server and requires every
per-session cost to equal a single-threaded :class:`StreamHub` replay
of the same traces — the serving layer (sockets, queues, drain-cycle
batching, shard placement) must never change an answer.  The rest
covers admission control, protocol-error replies, close-barrier
ordering, stats aggregation, the stdin transport and the load
generator.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.switches import SwitchUniverse
from repro.engine.stream import StreamHub
from repro.serve.client import ServeClient, ServeError
from repro.serve.loadgen import drifting_masks, run_loadgen
from repro.serve.protocol import encode_mask_chunk
from repro.serve.server import ServeConfig, ServerThread
from repro.solvers.online import RentOrBuyScheduler, WindowScheduler

WIDTH = 96
W = float(WIDTH)


def _cli_env() -> dict:
    """Environment for ``python -m repro.cli`` subprocesses."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(src) + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else str(src)
    )
    return env


@pytest.fixture()
def server():
    with ServerThread(
        ServeConfig(shards=2, max_sessions=64, max_chunk_steps=512)
    ) as address:
        yield address


class TestServeAcceptance:
    def test_256_sessions_across_4_shards_bit_identical(self):
        """≥256 concurrent sessions, shard count > 1, per-session costs
        equal to the single-hub oracle replay — the PR's acceptance
        bar, driven through real loopback sockets."""
        sessions, steps, chunk = 256, 48, 16
        traces = {
            f"u{s}": drifting_masks(WIDTH, steps, seed=s, phase=20)
            for s in range(sessions)
        }
        served: dict[str, float] = {}
        errors: list[Exception] = []

        def drive(worker: int, address):
            try:
                with ServeClient(*address) as client:
                    mine = sorted(traces)[worker::8]
                    for sid in mine:
                        client.open(
                            policy="rent_or_buy", width=WIDTH, w=W,
                            session_id=sid, memory=4,
                        )
                    pos = 0
                    while pos < steps:
                        for sid in mine:
                            client.feed(sid, traces[sid][pos : pos + chunk])
                        pos += chunk
                    for sid in mine:
                        served[sid] = client.close_session(sid).cost
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        config = ServeConfig(shards=4, max_sessions=sessions)
        with ServerThread(config) as address:
            # all 256 sessions are open and live before any close
            with ServeClient(*address) as probe:
                threads = [
                    threading.Thread(target=drive, args=(c, address))
                    for c in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert not errors, errors[0]
                stats = probe.stats()
        assert stats["server"]["opens"] == sessions
        assert len(served) == sessions

        hub = StreamHub()
        universe = SwitchUniverse.of_size(WIDTH)
        for sid, masks in traces.items():
            hub.open(
                RentOrBuyScheduler(W, memory=4), universe, W, session_id=sid
            )
            hub.feed_many({sid: masks})
        for sid, run in hub.finish_all().items():
            assert served[sid] == run.cost, sid

    def test_concurrent_sessions_stay_live_mid_stream(self, server):
        """Sessions opened by different connections coexist and any
        connection may feed a session it adopted."""
        with ServeClient(*server) as a, ServeClient(*server) as b:
            sid = a.open(policy="window", width=16, w=4.0, k=3,
                         session_id="shared")
            a.feed(sid, [1, 2, 3])
            b.adopt(sid, 16)
            b.feed(sid, [3, 1])
            stats = a.stats()
            assert stats["sessions"] == 1
            res = b.close_session(sid)
            assert res.steps == 5


class TestAdmissionControl:
    def test_session_limit_rejects_open(self):
        with ServerThread(ServeConfig(max_sessions=2)) as address:
            with ServeClient(*address) as client:
                client.open(policy="window", width=8, w=2.0)
                client.open(policy="window", width=8, w=2.0)
                with pytest.raises(ServeError, match="server full"):
                    client.open(policy="window", width=8, w=2.0)
                stats = client.stats()
                assert stats["server"]["rejected_sessions"] == 1

    def test_oversized_open_rejected(self):
        """width/history caps stop one open frame from allocating
        gigabytes of cursor state (per-session state is O(width·hist))."""
        config = ServeConfig(max_width=128, max_history=64)
        with ServerThread(config) as address:
            with ServeClient(*address) as client:
                with pytest.raises(ServeError, match="width"):
                    client.open(policy="window", width=129, w=1.0)
                with pytest.raises(ServeError, match="history"):
                    client.open(
                        policy="rent_or_buy", width=64, w=1.0, memory=65
                    )
                with pytest.raises(ServeError, match="history"):
                    client.open(policy="window", width=64, w=1.0, k=65)
                sid = client.open(
                    policy="rent_or_buy", width=128, w=1.0, memory=64
                )
                client.close_session(sid)
                assert client.stats()["server"]["rejected_sessions"] == 3

    def test_closed_sessions_leave_no_trace_and_free_their_ids(self, server):
        """Service semantics: a long-running server must not retain
        closed runs (O(steps) each), and a user may reconnect under
        the same session id."""
        with ServeClient(*server) as client:
            for _round in range(3):
                sid = client.open(
                    policy="window", width=8, w=2.0, k=2, session_id="same"
                )
                assert sid == "same"
                client.feed(sid, [1, 2])
                assert client.close_session(sid).steps == 2
            stats = client.stats()
            assert stats["sessions"] == 0
            assert stats["server"]["opens"] == 3

    def test_oversized_chunk_rejected(self, server):
        with ServeClient(*server) as client:
            sid = client.open(policy="window", width=8, w=2.0)
            with pytest.raises(ServeError, match="chunk limit"):
                client.feed(sid, [1] * 513)  # max_chunk_steps=512
            # the session survives the rejection
            assert client.feed(sid, [1]).steps == 1
            client.close_session(sid)

    def test_bad_frames_answered_not_dropped(self, server):
        with ServeClient(*server) as client:
            for payload in (
                {"op": "nope"},
                {"op": "open", "policy": "bogus", "width": 8, "w": 1},
                {"op": "feed", "session": "ghost", "count": 1,
                 "masks": encode_mask_chunk([1], 8)},
                {"op": "close", "session": "ghost"},
                {"op": "feed", "session": "ghost", "count": 1,
                 "masks": "@@@"},
            ):
                with pytest.raises(ServeError):
                    client.call(payload)
            # connection still alive and usable
            sid = client.open(policy="window", width=8, w=2.0)
            client.close_session(sid)

    def test_mask_beyond_universe_rejected(self, server):
        with ServeClient(*server) as client:
            sid = client.open(policy="window", width=8, w=2.0)
            blob = encode_mask_chunk([1 << 60], 64)
            with pytest.raises(ServeError, match="beyond"):
                client.call({
                    "op": "feed", "session": sid, "count": 1, "masks": blob,
                })
            client.close_session(sid)


class TestStatsAndOrdering:
    def test_stats_aggregates_server_and_shards(self, server):
        with ServeClient(*server) as client:
            sids = [
                client.open(policy="rent_or_buy", width=WIDTH, w=W)
                for _ in range(4)
            ]
            masks = drifting_masks(WIDTH, 64, seed=0)
            for sid in sids:
                client.feed(sid, masks)
            stats = client.stats()
            assert stats["ok"] and stats["op"] == "stats"
            assert stats["server"]["opens"] == 4
            assert stats["server"]["feeds"] == 4
            assert stats["engine"]["stream"]["steps"] == 4 * 64
            assert len(stats["shards"]) == 2
            assert sum(s["sessions"] for s in stats["shards"]) == 4
            for sid in sids:
                client.close_session(sid)

    def test_close_after_feeds_sees_all_steps(self, server):
        """The close barrier rides the same shard queue as the feeds,
        so the finished run always accounts every acknowledged chunk."""
        with ServeClient(*server) as client:
            sid = client.open(policy="rent_or_buy", width=WIDTH, w=W)
            masks = drifting_masks(WIDTH, 300, seed=5)
            total = 0.0
            for lo in range(0, 300, 50):
                total = client.feed(sid, masks[lo : lo + 50]).cumulative_cost
            res = client.close_session(sid)
            assert res.steps == 300
            assert res.cost == total


class TestSingleThreadFairness:
    def test_other_connection_served_during_a_deep_pipeline(self):
        """Connection A pipelines hundreds of feeds for one session
        past ``queue_depth`` (one feed per drain cycle, so its reader
        stalls on the full queue).  Connection B's open, feed and close
        complete while A's burst is still being served, and both
        sessions close oracle-identical."""
        chunk, n_feeds = 32, 400
        a_masks = drifting_masks(WIDTH, chunk * n_feeds, seed=11, phase=40)
        b_masks = drifting_masks(WIDTH, 3 * chunk, seed=12, phase=40)
        config = ServeConfig(shards=1, queue_depth=2, pipeline=8)
        with ServerThread(config) as address:
            with ServeClient(*address) as a, ServeClient(*address) as b:
                sid_a = a.open(policy="rent_or_buy", width=WIDTH, w=W,
                               memory=4, session_id="a")
                burst = b"".join(
                    a._encode_feed(
                        sid_a, a_masks[lo : lo + chunk], trace=None
                    )
                    for lo in range(0, len(a_masks), chunk)
                )
                sender = threading.Thread(target=a._send, args=(burst,))
                sender.start()
                deadline = time.monotonic() + 30.0
                while b.stats()["engine"]["stream"]["steps"] == 0:
                    assert time.monotonic() < deadline, "A never served"
                sid_b = b.open(policy="window", width=WIDTH, w=W, k=4,
                               session_id="b")
                b.feed(sid_b, b_masks)
                b_cost = b.close_session(sid_b).cost
                served = b.stats()["engine"]["stream"]["steps"]
                assert served - len(b_masks) < len(a_masks)
                replies = [a._recv_reply() for _ in range(n_feeds)]
                sender.join(timeout=30)
                assert not sender.is_alive()
                assert all(r["ok"] for r in replies)
                a_cost = a.close_session(sid_a).cost

        hub = StreamHub()
        universe = SwitchUniverse.of_size(WIDTH)
        hub.open(RentOrBuyScheduler(W, memory=4), universe, W,
                 session_id="a")
        hub.open(WindowScheduler(k=4), universe, W, session_id="b")
        hub.feed_many({"a": a_masks, "b": b_masks})
        runs = hub.finish_all()
        assert a_cost == runs["a"].cost
        assert replies[-1]["cumulative_cost"] == runs["a"].cost
        assert b_cost == runs["b"].cost


class TestShutdown:
    def test_stop_completes_with_a_client_still_connected(self):
        """Server.wait_closed() (3.12.1+) waits for connection handlers;
        stop() must close live connections first or an idle client
        stalls the shutdown forever."""
        thread = ServerThread(ServeConfig(shards=2))
        address = thread.start()
        client = ServeClient(*address)
        sid = client.open(policy="window", width=8, w=2.0)
        client.feed(sid, [1])
        thread.stop()  # would hang without the writer sweep
        assert not thread._thread.is_alive()
        client.close()


class TestLoadgen:
    def test_loadgen_verifies_against_single_hub(self):
        with ServerThread(ServeConfig(shards=3)) as (host, port):
            result = run_loadgen(
                host, port,
                sessions=24, steps=120, chunk=40, clients=6, verify=True,
            )
        assert result.verified is True
        assert result.sessions == 24
        assert result.steps == 24 * 120
        assert result.frames == 24 * (1 + 3 + 1)  # open + 3 feeds + close
        assert result.steps_per_s > 0

    def test_loadgen_validation(self):
        with pytest.raises(ValueError):
            run_loadgen("h", 1, sessions=0, steps=1)


class TestStdinTransport:
    def test_stdin_frames_round_trip(self):
        """`repro serve --stdin` speaks the same protocol over pipes."""
        blob = encode_mask_chunk([3, 5, 1], 8)
        frames = [
            {"op": "open", "policy": "window", "width": 8, "w": 4.0,
             "k": 2, "session": "a"},
            {"op": "feed", "session": "a", "count": 3, "masks": blob},
            {"op": "garbage"},
            {"op": "close", "session": "a"},
            {"op": "stats"},
        ]
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--stdin",
             "--shards", "2"],
            input="".join(json.dumps(f) + "\n" for f in frames),
            capture_output=True,
            text=True,
            env=_cli_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        replies = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(replies) == 5
        opened, fed, bad, closed, stats = replies
        assert opened["ok"] and opened["session"] == "a"
        assert fed["ok"] and fed["steps"] == 3
        assert not bad["ok"] and "unknown op" in bad["error"]
        assert closed["ok"] and closed["steps"] == 3
        assert stats["ok"] and stats["server"]["protocol_errors"] == 1


class TestTcpEntryPoint:
    def test_plain_serve_starts_and_stops_cleanly(self):
        """`repro serve --port 0` with no metrics endpoint binds, reports
        its address, and exits 0 on SIGTERM without a traceback."""
        lines: list[str] = []
        listening = threading.Event()
        with subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=_cli_env(),
        ) as proc:

            def _read_stderr():
                for line in proc.stderr:
                    lines.append(line)
                    if line.startswith("serving on"):
                        listening.set()
                listening.set()  # EOF: the server exited

            reader = threading.Thread(target=_read_stderr, daemon=True)
            reader.start()
            try:
                assert listening.wait(60), "server never reported its address"
                assert proc.poll() is None, "".join(lines)
                proc.send_signal(signal.SIGTERM)
                code = proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            reader.join(timeout=10)
            assert not reader.is_alive()
        stderr = "".join(lines)
        assert code == 0, stderr
        assert "Traceback" not in stderr
        assert not any(line.startswith("metrics on") for line in lines)
