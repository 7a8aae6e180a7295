"""Mask-interning suite: exact restoration, savings, engine behavior.

Interning is a serialization change only — restored requests must be
*equal* to the originals (same mask ints, same tuple shapes), engine
results must be identical with it on or off, and the metrics must show
real savings on repetitive traces while random chunks skip the rewrite
entirely.
"""

import pickle

import pytest

from repro.analysis.sweeps import make_instance
from repro.core.context import RequirementSequence
from repro.core.switches import SwitchUniverse
from repro.engine import BatchEngine, SolveRequest
from repro.engine.intern import MaskTable, intern_chunk, restore_chunk


def _periodic_seq(universe, period_masks, n):
    return RequirementSequence(
        universe, [period_masks[i % len(period_masks)] for i in range(n)]
    )


class TestMaskTable:
    def test_first_seen_order_and_dedup(self):
        table = MaskTable()
        assert [table.intern(m) for m in [5, 9, 5, 0, 9, 5]] == [
            0, 1, 0, 2, 1, 0,
        ]
        assert table.masks == [5, 9, 0]
        assert len(table) == 3


class TestChunkRoundTrip:
    def test_requests_restore_bit_identical(self):
        universe = SwitchUniverse.of_size(96)  # >64 switches: long ints
        period = [1 << 70, (1 << 95) | 3, 7, 1 << 70]
        seq = _periodic_seq(universe, period, 200)
        system, seqs = make_instance(3, 60, 5, seed=0)
        items = [
            (0, SolveRequest.single(seq, w=9.0), None),
            (1, SolveRequest.multi(system, seqs, solver="mt_greedy"), None),
            (2, SolveRequest.single(seq, w=3.0), "packed-sentinel"),
        ]
        interned, table, stats = intern_chunk(items)
        # the payload really is lean: no raw masks tuples inside
        for item in interned:
            assert item[1].seq is None and item[1].seqs is None
        restored = restore_chunk(interned, table)
        for (i0, req0, p0), (i1, req1, p1) in zip(items, restored):
            assert i0 == i1 and p0 is p1
            if req0.kind == "single":
                assert req1.seq.masks == req0.seq.masks
                assert req1.seq.universe is req0.seq.universe
                assert req1.w == req0.w
            else:
                assert tuple(s.masks for s in req1.seqs) == tuple(
                    s.masks for s in req0.seqs
                )
                assert req1.system is req0.system
        # periodic 200-step sequence shared twice + 3 random ones
        assert stats.masks_total == 2 * 200 + 3 * 60
        assert stats.masks_unique < stats.masks_total / 4

    def test_shared_sequence_objects_intern_once(self):
        universe = SwitchUniverse.of_size(24)
        seq = _periodic_seq(universe, [1, 2, 3], 90)
        items = [
            (0, SolveRequest.single(seq, w=2.0), None),
            (1, SolveRequest.single(seq, w=4.0), None),
        ]
        interned, table, stats = intern_chunk(items)
        # same interned object rides in both requests → pickle memoizes
        assert interned[0][3][0] is interned[1][3][0]
        assert stats.masks_unique == 3

    def test_periodic_trace_payload_shrinks(self):
        universe = SwitchUniverse.of_size(130)  # three lanes
        seq = _periodic_seq(
            universe, [(1 << 128) | 1, (1 << 70) | 2, 3], 500
        )
        items = [(0, SolveRequest.single(seq, w=5.0), None)]
        interned, table, stats = intern_chunk(items)
        assert stats.bytes_saved > 0
        raw = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
        lean = pickle.dumps(
            (interned, table), protocol=pickle.HIGHEST_PROTOCOL
        )
        assert len(lean) < len(raw) / 3  # the real payload shrinks too


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def app_requests(self):
        from repro.cli import APPS, _batch_requests

        requests, _labels = _batch_requests(
            sorted(APPS)[:4], naive=False, solver="mt_greedy"
        )
        return requests

    def test_results_identical_with_and_without_interning(self, app_requests):
        plain = BatchEngine(workers=2, cache_size=0, intern_masks=False)
        interned = BatchEngine(workers=2, cache_size=0, intern_masks=True)
        a = plain.solve_batch(app_requests)
        b = interned.solve_batch(app_requests)
        for x, y in zip(a, b):
            assert x.ok and y.ok
            assert x.value.cost == y.value.cost
            assert x.value.solver == y.value.solver
            if hasattr(x.value.schedule, "indicators"):
                assert (
                    x.value.schedule.indicators == y.value.schedule.indicators
                )
        assert plain.metrics.intern_masks_total == 0
        snap = interned.metrics.snapshot()["intern"]
        assert snap["bytes_saved"] > 0
        assert snap["unique_masks"] < snap["masks"]
        report = interned.metrics.format_report()
        assert "mask interning" in report

    def test_random_chunks_ship_raw(self):
        """Mostly-distinct masks would pay the per-chunk table's
        overhead for nothing — shipping one would lose bytes — so
        those chunks ship raw on every start method and the interning
        row stays empty."""
        requests = []
        for seed in range(4):
            system, seqs = make_instance(3, 120, 40, seed=seed)
            requests.append(
                SolveRequest.multi(system, seqs, solver="mt_greedy")
            )
        items = [(i, req, None) for i, req in enumerate(requests)]
        _interned, _table, stats = intern_chunk(items)
        assert stats.bytes_saved <= 0
        engine = BatchEngine(workers=2, cache_size=0)
        assert all(r.ok for r in engine.solve_batch(requests))
        assert engine.metrics.intern_masks_total == 0

    def test_inline_solves_untouched(self, app_requests):
        """workers=1 never builds payloads, so interning never runs."""
        engine = BatchEngine(workers=1, cache_size=0, intern_masks=True)
        assert all(r.ok for r in engine.solve_batch(app_requests))
        assert engine.metrics.intern_masks_total == 0
