"""Wire protocol v2: binary frames, per-connection intern tables,
negotiation.

Three layers of pinning:

* **golden frames** (``tests/data/wire_v1_frames.jsonl``,
  ``wire_v2_raw.bin``, ``wire_v2_interned.bin``) — the byte-exact wire
  form of canonical v1 and v2 frames.  Re-encoding the same inputs must
  reproduce the stored bytes bit for bit (a codec change that silently
  breaks old clients fails here first).  The binary fixtures are
  non-deflated on purpose: zlib output may vary across library
  versions, so compression is pinned by round-trip properties instead.
* **property round-trips** — raw/interned × deflate binary frames
  survive encode → parse → resolve across universe widths spanning
  every lane-count boundary.
* **served behavior** — a v1-only client completes the full
  open/feed/close/stats flow against a v2 server unchanged; v2 clients
  (raw, interned, deflated, pipelined) produce bit-identical costs to
  the single-hub oracle over a two-shard pool; epoch drift, malformed
  binary frames and interned rows past the connection's byte budget
  earn error replies on a surviving connection, and a connection's
  intern tables are freed when it closes.
"""

from __future__ import annotations

import pathlib
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packed import lane_count, masks_to_lanes
from repro.core.switches import SwitchUniverse
from repro.engine.stream import StreamHub, StreamSession
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    ARENA_PROBE_ROWS,
    BIN_FLAG_DEFLATE,
    BIN_FLAG_INTERNED,
    BIN_HEADER,
    BIN_MAGIC,
    BIN_OP_FEED,
    BIN_VERSION,
    MAX_INTERN_BYTES,
    MAX_FRAME_BYTES,
    ClientArena,
    ProtocolError,
    encode_feed_bin,
    encode_frame,
    encode_mask_chunk,
    parse_bin_feed,
    policy_from_spec,
)
from repro.serve.server import ServeConfig, ServerThread

DATA = pathlib.Path(__file__).parent / "data"

#: Universe sizes straddling every lane-count boundary.
BOUNDARY_SIZES = [1, 7, 63, 64, 65, 127, 128, 129, 150, 200]

masks_for = st.sampled_from(BOUNDARY_SIZES).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(
            st.integers(min_value=0, max_value=(1 << width) - 1),
            min_size=1,
            max_size=24,
        ),
    )
)


def _split_frames(blob: bytes) -> list[tuple[int, int, bytes]]:
    """Split concatenated binary frames into (opcode, flags, payload)."""
    frames = []
    pos = 0
    while pos < len(blob):
        magic, version, opcode, flags, length = BIN_HEADER.unpack_from(
            blob, pos
        )
        assert magic == BIN_MAGIC and version == BIN_VERSION
        pos += BIN_HEADER.size
        frames.append((opcode, flags, blob[pos : pos + length]))
        pos += length
    return frames


# ---------------------------------------------------------------------------
# Golden fixtures: the canonical frames and their byte-exact builders
# ---------------------------------------------------------------------------

#: The v1 fixture conversation (dict insertion order is the wire order).
V1_FRAMES = [
    {"op": "open", "policy": "rent_or_buy", "width": 8, "w": 4.0,
     "session": "golden", "alpha": 1.0, "memory": 4},
    {"op": "feed", "session": "golden", "count": 3,
     "masks": encode_mask_chunk([0b101, 0b11, 0b10000000], 8),
     "encoding": "b64"},
    {"op": "feed", "session": "golden", "count": 2,
     "masks": encode_mask_chunk([0b1, 0b101], 8, encoding="hex"),
     "encoding": "hex"},
    {"op": "close", "session": "golden"},
    {"op": "stats"},
]

#: Masks behind the v2 fixtures (width 96 = two lanes per row).
V2_WIDTH = 96
V2_RAW_MASKS = [0b101, (1 << 95) | 0b11, 1 << 64]
V2_INTERNED_CHUNKS = [
    [0b111, 0b101, 0b111, (1 << 70) | 1],   # 3 fresh rows, one repeat
    [0b101, 0b101, (1 << 70) | 1, 1 << 90],  # 1 fresh row, three hits
]


def v1_fixture_bytes() -> bytes:
    return b"".join(encode_frame(frame) for frame in V1_FRAMES)


def v2_raw_fixture_bytes() -> bytes:
    lanes = masks_to_lanes(V2_RAW_MASKS, V2_WIDTH)
    return encode_feed_bin("golden", lanes, V2_WIDTH, deflate=False)


def v2_interned_fixture_bytes() -> bytes:
    arena = ClientArena(V2_WIDTH)
    return b"".join(
        encode_feed_bin(
            "golden",
            masks_to_lanes(chunk, V2_WIDTH),
            V2_WIDTH,
            arena=arena,
            deflate=False,
        )
        for chunk in V2_INTERNED_CHUNKS
    )


class TestGoldenFrames:
    def test_v1_frames_byte_exact(self):
        assert (DATA / "wire_v1_frames.jsonl").read_bytes() == (
            v1_fixture_bytes()
        )

    def test_v2_raw_frame_byte_exact(self):
        assert (DATA / "wire_v2_raw.bin").read_bytes() == (
            v2_raw_fixture_bytes()
        )

    def test_v2_interned_frames_byte_exact(self):
        assert (DATA / "wire_v2_interned.bin").read_bytes() == (
            v2_interned_fixture_bytes()
        )

    def test_v2_raw_fixture_parses(self):
        ((opcode, flags, payload),) = _split_frames(
            (DATA / "wire_v2_raw.bin").read_bytes()
        )
        assert opcode == BIN_OP_FEED and flags == 0
        frame = parse_bin_feed(opcode, flags, payload)
        assert frame.session == "golden"
        assert not frame.interned and not frame.deflated
        lanes = frame.raw_lanes(V2_WIDTH)
        assert np.array_equal(
            lanes, masks_to_lanes(V2_RAW_MASKS, V2_WIDTH)
        )

    def test_v2_interned_fixture_parses(self):
        frames = _split_frames(
            (DATA / "wire_v2_interned.bin").read_bytes()
        )
        assert len(frames) == 2
        table = np.empty((0, lane_count(V2_WIDTH)), dtype=np.uint64)
        for (opcode, flags, payload), chunk in zip(
            frames, V2_INTERNED_CHUNKS
        ):
            assert flags == BIN_FLAG_INTERNED
            frame = parse_bin_feed(opcode, flags, payload)
            assert frame.base_epoch == table.shape[0]
            new_lanes, ids = frame.interned_parts(V2_WIDTH)
            table = np.concatenate([table, new_lanes])
            assert np.array_equal(
                table[ids], masks_to_lanes(chunk, V2_WIDTH)
            )
        # 3 fresh + 1 fresh distinct rows across the two chunks.
        assert table.shape[0] == 4


# ---------------------------------------------------------------------------
# Property round-trips
# ---------------------------------------------------------------------------


class TestBinaryRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(masks_for, st.sampled_from([None, False, True]))
    def test_raw_frames_survive_the_wire(self, width_masks, deflate):
        width, masks = width_masks
        lanes = masks_to_lanes(masks, width)
        wire = encode_feed_bin("s", lanes, width, deflate=deflate)
        ((opcode, flags, payload),) = _split_frames(wire)
        frame = parse_bin_feed(opcode, flags, payload)
        assert frame.count == len(masks)
        assert frame.deflated == bool(flags & BIN_FLAG_DEFLATE)
        assert np.array_equal(frame.raw_lanes(width), lanes)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(BOUNDARY_SIZES),
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=7),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from([None, False, True]),
    )
    def test_interned_sequence_round_trip(self, width, picks, deflate):
        # Draw masks from a tiny pool so chunks actually repeat rows.
        pool = [((1 << width) - 1) & ((i * 0x9E3779B9) | 1) for i in
                range(8)]
        chunks = [[pool[i] for i in chunk] for chunk in picks]
        client = ClientArena(width)
        table = np.empty((0, lane_count(width)), dtype=np.uint64)
        for chunk in chunks:
            lanes = masks_to_lanes(chunk, width)
            wire = encode_feed_bin(
                "s", lanes, width, arena=client, deflate=deflate
            )
            ((opcode, flags, payload),) = _split_frames(wire)
            frame = parse_bin_feed(opcode, flags, payload)
            assert flags & BIN_FLAG_INTERNED
            assert frame.base_epoch == table.shape[0]
            new_lanes, ids = frame.interned_parts(width)
            table = np.concatenate([table, new_lanes])
            assert np.array_equal(table[ids], lanes)
        assert table.shape[0] == client.epoch <= 8

    def test_bad_section_length_rejected(self):
        lanes = masks_to_lanes([1, 2, 3], 8)
        wire = encode_feed_bin("s", lanes, 8, deflate=False)
        ((opcode, flags, payload),) = _split_frames(wire)
        frame = parse_bin_feed(opcode, flags, payload[:-4])
        with pytest.raises(ProtocolError, match="expected"):
            frame.raw_lanes(8)

    def test_out_of_universe_bits_rejected(self):
        lanes = masks_to_lanes([1 << 9], 16)
        wire = encode_feed_bin("s", lanes, 16, deflate=False)
        ((opcode, flags, payload),) = _split_frames(wire)
        with pytest.raises(ProtocolError, match="beyond"):
            parse_bin_feed(opcode, flags, payload).raw_lanes(8)

    def test_unknown_opcode_and_flags_rejected(self):
        lanes = masks_to_lanes([1], 8)
        wire = encode_feed_bin("s", lanes, 8, deflate=False)
        ((opcode, flags, payload),) = _split_frames(wire)
        with pytest.raises(ProtocolError, match="opcode"):
            parse_bin_feed(99, flags, payload)
        with pytest.raises(ProtocolError, match="flags"):
            parse_bin_feed(opcode, 0x80, payload)

    def test_corrupt_deflate_rejected(self):
        lanes = masks_to_lanes([1, 2, 3, 1, 2, 3], 8)
        wire = encode_feed_bin("s", lanes, 8, deflate=True)
        ((opcode, flags, payload),) = _split_frames(wire)
        assert flags & BIN_FLAG_DEFLATE
        broken = payload[:-3] + b"\x00\x00\x00"
        frame = parse_bin_feed(opcode, flags, broken)
        with pytest.raises(ProtocolError, match="deflate|expected"):
            frame.raw_lanes(8)


class TestClientArena:
    def test_dedup_and_epoch(self):
        arena = ClientArena(8)
        base, new_lanes, ids = arena.intern(
            masks_to_lanes([3, 5, 3, 7], 8)
        )
        assert base == 0 and new_lanes.shape[0] == 3
        assert list(ids) == [0, 1, 0, 2]
        base, new_lanes, ids = arena.intern(masks_to_lanes([7, 9], 8))
        assert base == 3 and new_lanes.shape[0] == 1
        assert list(ids) == [2, 3]
        assert arena.epoch == 4

    def test_overflow_goes_raw(self):
        arena = ClientArena(8, cap=2)
        assert arena.intern(masks_to_lanes([1, 2, 3], 8)) is None
        assert not arena.active
        assert arena.epoch == 0  # nothing committed

    def test_divergent_stream_gives_up(self):
        arena = ClientArena(64)
        lanes = masks_to_lanes(
            list(range(1, ARENA_PROBE_ROWS + 1)), 64
        )
        assert arena.intern(lanes) is None
        assert not arena.active
        assert arena.intern(masks_to_lanes([1, 1], 64)) is None

    def test_repetitive_stream_keeps_interning(self):
        arena = ClientArena(64)
        chunk = masks_to_lanes([1, 2, 3, 4] * 300, 64)
        assert arena.intern(chunk) is not None
        assert arena.active
        assert arena.rows_seen == 1200 and arena.epoch == 4

    def test_byte_room_goes_raw(self):
        arena = ClientArena(130)  # three lanes: 24 bytes per row
        assert arena.intern(masks_to_lanes([1, 2, 1], 130), room=48)
        assert arena.nbytes == 48
        # Known rows need no room; one fresh row does.
        assert arena.intern(masks_to_lanes([2, 1], 130), room=0)
        assert arena.intern(masks_to_lanes([3], 130), room=23) is None
        assert not arena.active
        assert arena.epoch == 2  # nothing committed


# ---------------------------------------------------------------------------
# Served behavior
# ---------------------------------------------------------------------------

WIDTH = 40
TRACE = [
    ((1 << (i % 7)) | (0b101 if i % 3 else (1 << 30)))
    for i in range(180)
]


def _oracle_cost(masks=TRACE, width=WIDTH, w=5.0) -> float:
    session = StreamSession(
        policy_from_spec("rent_or_buy", w, {}),
        SwitchUniverse.of_size(width),
        w,
    )
    for mask in masks:
        session.feed(mask)
    return session.finish().cost


@pytest.fixture(scope="module")
def oracle_cost() -> float:
    return _oracle_cost()


class TestServedProtocolV2:
    @pytest.mark.parametrize("concurrent", [False, True])
    @pytest.mark.parametrize(
        "proto,deflate", [("json", None), ("bin", False), ("bin", True)]
    )
    def test_costs_bit_identical_across_protocols(
        self, concurrent, proto, deflate, oracle_cost
    ):
        """``concurrent`` runs two connections at once, so both shards'
        drain queues are fed from separate client threads."""

        def serve_one(host, port):
            with ServeClient(
                host, port, proto=proto, deflate=deflate
            ) as client:
                sid = client.open(width=WIDTH, w=5.0)
                assert client.proto == proto
                for lo in range(0, len(TRACE), 45):
                    client.feed(sid, TRACE[lo : lo + 45])
                return client.close_session(sid).cost

        with ServerThread(ServeConfig(shards=2)) as (host, port):
            if concurrent:
                with ThreadPoolExecutor(max_workers=2) as executor:
                    futures = [
                        executor.submit(serve_one, host, port)
                        for _ in range(2)
                    ]
                    costs = [f.result(timeout=60) for f in futures]
            else:
                costs = [serve_one(host, port)]
        assert costs == [oracle_cost] * len(costs)

    def test_v1_client_full_flow_against_v2_server(self):
        """A pre-v2 client (no proto field, JSON frames only) must see
        exactly the old protocol."""
        with ServerThread(ServeConfig(shards=2)) as (host, port):
            with ServeClient(host, port, proto="json") as client:
                sid = client.open(
                    policy="window", width=16, w=4.0, k=4,
                    session_id="v1-user",
                )
                assert sid == "v1-user"
                result = client.feed(sid, [3, 5, 3])
                assert result.steps == 3
                closed = client.close_session(sid)
                assert closed.steps == 3
                stats = client.stats()
                assert stats["server"]["feeds"] == 1
                # The server never saw (or sent) a binary byte.
                assert client.proto == "json"
                assert stats["engine"]["wire"]["bin"]["frames_in"] == 0

    def test_pipelined_feeds_match_sequential(self, oracle_cost):
        with ServerThread(ServeConfig(shards=2)) as (host, port):
            with ServeClient(host, port, proto="bin") as client:
                sids = [
                    client.open(width=WIDTH, w=5.0, session_id=f"p{i}")
                    for i in range(5)
                ]
                for lo in range(0, len(TRACE), 36):
                    results = client.feed_pipelined([
                        (sid, TRACE[lo : lo + 36]) for sid in sids
                    ])
                    assert [r.session for r in results] == sids
                for sid in sids:
                    assert client.close_session(sid).cost == oracle_cost

    def test_epoch_mismatch_rejected_connection_survives(self):
        with ServerThread(ServeConfig(shards=1)) as (host, port):
            with ServeClient(host, port, proto="bin") as client:
                sid = client.open(width=8, w=2.0)
                client.feed(sid, [1, 2, 1])
                # Forge an interned frame whose base epoch is ahead of
                # the connection's table.
                arena = ClientArena(8)
                arena.intern(masks_to_lanes([9, 9, 9], 8))
                rogue = encode_feed_bin(
                    sid,
                    masks_to_lanes([3, 3], 8),
                    8,
                    arena=arena,
                    deflate=False,
                )
                client._send(rogue)
                reply = client._recv_reply()
                assert not reply["ok"]
                assert "base epoch" in reply["error"]
                # The connection (and session) still work — the
                # server's table was not advanced by the rejected
                # frame, so the client's real arena is still in sync.
                assert client.stats()["ok"]
                assert client.feed(sid, [1]).steps == 1
                assert client.close_session(sid).steps == 4

    def test_undecodable_raw_feed_in_a_burst_fails_alone(
        self, oracle_cost
    ):
        """A raw section that fails to decode, pipelined between good
        feeds, earns its own error reply when it is staged: the other
        feeds of the burst are served, and the connection keeps going
        to oracle-identical closes."""
        with ServerThread(ServeConfig(shards=2)) as (host, port):
            with ServeClient(host, port, proto="bin") as client:
                sids = [
                    client.open(width=WIDTH, w=5.0, session_id=f"d{i}")
                    for i in range(4)
                ]
                half = len(TRACE) // 2
                # Bit 50 lies beyond the 40-switch universe.
                bad = encode_feed_bin(
                    sids[1],
                    np.array([[1 << 50]], dtype=np.uint64),
                    WIDTH,
                    deflate=False,
                )
                frames = [
                    client._encode_feed(sid, TRACE[:half], trace=None)
                    for sid in sids
                ]
                frames.insert(2, bad)
                client._send(b"".join(frames))
                replies = [client._recv_reply() for _ in frames]
                assert [r["ok"] for r in replies] == [
                    True, True, False, True, True
                ]
                assert "beyond" in replies[2]["error"]
                costs = {r["session"]: r["cost"] for r in replies if r["ok"]}
                assert len(set(costs.values())) == 1
                for sid in sids:
                    assert client.feed(sid, TRACE[half:]).steps == (
                        len(TRACE) - half
                    )
                for sid in sids:
                    assert client.close_session(sid).cost == oracle_cost
                assert client.stats()["server"]["protocol_errors"] == 1

    def test_malformed_binary_payload_rejected(self):
        with ServerThread(ServeConfig(shards=1)) as (host, port):
            with ServeClient(host, port, proto="bin") as client:
                sid = client.open(width=8, w=2.0)
                wire = bytearray(
                    encode_feed_bin(
                        sid, masks_to_lanes([1, 2], 8), 8, deflate=False
                    )
                )
                wire[-8:] = b""  # truncate the lane section
                header = wire[: BIN_HEADER.size]
                magic, version, opcode, flags, _ = BIN_HEADER.unpack(
                    bytes(header)
                )
                payload = bytes(wire[BIN_HEADER.size :])
                client._send(
                    BIN_HEADER.pack(
                        magic, version, opcode, flags, len(payload)
                    )
                    + payload
                )
                reply = client._recv_reply()
                assert not reply["ok"]
                # The connection survives payload-level garbage.
                assert client.feed(sid, [1, 2]).steps == 2

    def test_wire_counters_track_both_protocols(self):
        with ServerThread(ServeConfig(shards=1)) as (host, port):
            with ServeClient(host, port, proto="bin") as client:
                sid = client.open(width=8, w=2.0)
                client.feed(sid, [1, 2, 3])
                client.close_session(sid)
                wire = client.stats()["engine"]["wire"]
            assert wire["bin"]["frames_in"] == 1
            assert wire["bin"]["bytes_in"] > 0
            assert wire["json"]["frames_in"] >= 3  # open/close/stats
            assert wire["json"]["bytes_out"] > 0

    def test_connections_intern_independently(self, oracle_cost):
        """Two connections interning the same masks each hold their own
        table; a base-epoch desync on one is rejected while the other's
        session stays oracle-identical, and both tables are freed when
        their connections close."""
        rows = len({m for m in TRACE}) * lane_count(WIDTH) * 8
        half = len(TRACE) // 2
        with ServerThread(ServeConfig(shards=2)) as (host, port):
            with ServeClient(host, port) as probe:
                with ServeClient(
                    host, port, proto="bin", deflate=False
                ) as a, ServeClient(
                    host, port, proto="bin", deflate=False
                ) as b:
                    sid_a = a.open(width=WIDTH, w=5.0)
                    sid_b = b.open(width=WIDTH, w=5.0)
                    a.feed(sid_a, TRACE[:half])
                    b.feed(sid_b, TRACE[:half])
                    a.feed(sid_a, TRACE[half:])
                    # Same rows, two tables: nothing is shared.
                    assert probe.stats()["intern_bytes"] == 2 * rows
                    rogue = ClientArena(WIDTH)
                    rogue.intern(masks_to_lanes([1, 2, 3], WIDTH))
                    a._send(encode_feed_bin(
                        sid_a, masks_to_lanes([1, 2], WIDTH), WIDTH,
                        arena=rogue, deflate=False,
                    ))
                    reply = a._recv_reply()
                    assert not reply["ok"]
                    assert "base epoch" in reply["error"]
                    b.feed(sid_b, TRACE[half:])
                    assert b.close_session(sid_b).cost == oracle_cost
                    assert a.close_session(sid_a).cost == oracle_cost
                    assert probe.stats()["intern_bytes"] == 2 * rows
                _await_intern_bytes(probe, 0)


#: 128-lane universe for the byte-budget tests: 1 KiB per table row.
WIDE = 128 * 64
WIDE_ROW_BYTES = lane_count(WIDE) * 8
#: Fresh rows per frame; each step repeats one (the client's adaptive
#: probe keeps interning a stream whose distinct fraction is 1/2).
WIDE_FRESH = 400


def _wide_chunks(n_chunks: int):
    """Chunks of ``WIDE_FRESH`` fresh rows, each sent twice.  Row ``r``
    sets bit ``r`` of its lane ``r % L`` and its low bit — sparse, so
    the policy work stays small next to the wire traffic."""
    L = lane_count(WIDE)
    for c in range(n_chunks):
        fresh = np.zeros((WIDE_FRESH, L), dtype=np.uint64)
        r = np.arange(c * WIDE_FRESH, (c + 1) * WIDE_FRESH)
        fresh[np.arange(WIDE_FRESH), r % L] = (
            np.uint64(1) << (r // L % 63 + 1).astype(np.uint64)
        ) | np.uint64(1)
        yield np.repeat(fresh, 2, axis=0)


def _await_intern_bytes(probe: ServeClient, want: int) -> None:
    """Poll until the server has torn the closed connections down."""
    deadline = time.monotonic() + 10.0
    while probe.stats()["intern_bytes"] != want:
        assert time.monotonic() < deadline, "intern tables not freed"
        time.sleep(0.02)


class TestArenaCommitOrder:
    def test_oversized_frame_leaves_the_arena_in_step(self):
        """A chunk whose interned frame would exceed ``MAX_FRAME_BYTES``
        (2400 steps, 1200 fresh width-8192 rows) raises before it is
        sent and commits nothing: the client's table stays in step with
        the server's, so the next interned feed on the connection is
        served, at the cost an in-process hub computes."""
        L = lane_count(WIDE)
        fresh = np.random.default_rng(5).integers(
            0, 1 << 63, size=(1200, L), dtype=np.uint64
        )
        oversized = np.repeat(fresh, 2, axis=0)
        first, second = _wide_chunks(2)
        policy = policy_from_spec("rent_or_buy", 5.0, {})
        hub = StreamHub()
        hub.open(policy, SwitchUniverse.of_size(WIDE), 5.0, session_id="h")
        expected = [
            hub.feed_many({"h": lanes})["h"].cost for lanes in (first, second)
        ]
        with ServerThread(ServeConfig(shards=1)) as (host, port):
            with ServeClient(
                host, port, proto="bin", deflate=False
            ) as client:
                sid = client.open(width=WIDE, w=5.0)
                assert client.feed(sid, first).cost == expected[0]
                arena = client._arenas[WIDE]
                epoch = arena.epoch
                assert epoch == WIDE_FRESH
                with pytest.raises(
                    ProtocolError, match=f"exceeds {MAX_FRAME_BYTES}"
                ):
                    client.feed(sid, oversized)
                assert arena.epoch == epoch and arena.active
                assert client.feed(sid, second).cost == expected[1]
                assert arena.epoch == 2 * WIDE_FRESH
                stats = client.stats()
                assert stats["intern_bytes"] == arena.nbytes
                assert stats["server"]["protocol_errors"] == 0
                assert client.close_session(sid).cost == (
                    hub.finish("h").cost
                )


class TestInternBudget:
    def test_budget_rejects_past_it_and_frees_on_disconnect(self):
        """A client that ignores the budget keeps shipping fresh rows:
        the frame that would overrun it is rejected, the connection
        and server survive, and the bytes go back on disconnect."""
        fits = MAX_INTERN_BYTES // (WIDE_FRESH * WIDE_ROW_BYTES)
        with ServerThread(ServeConfig(shards=1)) as (host, port):
            with ServeClient(host, port) as probe:
                with ServeClient(
                    host, port, proto="bin", deflate=False
                ) as hostile:
                    sid = hostile.open(width=WIDE, w=5.0)
                    arena = ClientArena(WIDE)
                    for i, lanes in enumerate(_wide_chunks(fits + 1)):
                        hostile._send(encode_feed_bin(
                            sid, lanes, WIDE, arena=arena, deflate=False
                        ))
                        reply = hostile._recv_reply()
                        if i < fits:
                            assert reply["ok"], reply
                        else:
                            assert not reply["ok"]
                            assert "intern tables past" in reply["error"]
                    live = fits * WIDE_FRESH * WIDE_ROW_BYTES
                    assert probe.stats()["intern_bytes"] == live
                    # Raw feeds still flow on the same connection.
                    hostile._send(encode_feed_bin(
                        sid, lanes[:4], WIDE, deflate=False
                    ))
                    assert hostile._recv_reply()["steps"] == 4
                    assert hostile.close_session(sid).steps == (
                        fits * 2 * WIDE_FRESH + 4
                    )
                _await_intern_bytes(probe, 0)
                assert probe.stats()["server"]["protocol_errors"] == 1

    def test_conforming_client_goes_raw_first(self):
        """``ServeClient`` applies the server's budget to its own
        arenas: past it, chunks go raw and no feed is rejected."""
        fits = MAX_INTERN_BYTES // (WIDE_FRESH * WIDE_ROW_BYTES)
        chunks = list(_wide_chunks(fits + 2))
        oracle = StreamSession(
            policy_from_spec("rent_or_buy", 5.0, {}),
            SwitchUniverse.of_size(WIDE),
            5.0,
        )
        for lanes in chunks:
            oracle.feed_many(lanes)
        with ServerThread(ServeConfig(shards=1)) as (host, port):
            with ServeClient(
                host, port, proto="bin", deflate=False
            ) as client:
                sid = client.open(width=WIDE, w=5.0)
                for lanes in chunks:
                    client.feed(sid, lanes)
                arena = client._arenas[WIDE]
                assert not arena.active
                assert client.stats()["intern_bytes"] == arena.nbytes
                assert arena.nbytes <= MAX_INTERN_BYTES
                assert client.close_session(sid).cost == (
                    oracle.finish().cost
                )
                assert client.stats()["server"]["protocol_errors"] == 0
