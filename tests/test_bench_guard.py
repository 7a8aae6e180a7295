"""The perf-regression guard (``scripts/check_bench_regression.py``):
which rows pair, which direction each metric is judged in, and what
gets reported as dropped."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parents[1]
    / "scripts" / "check_bench_regression.py"
)


@pytest.fixture(scope="module")
def guard():
    spec = importlib.util.spec_from_file_location("bench_guard", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fused_row(steps_per_s: float, epochs: int, triggers: int,
               smoke: bool = False) -> dict:
    return {
        "regime": "calm", "sessions": 256, "chunk": 64, "rounds": 24,
        "seq_steps_per_s": 1.0e6, "fused_steps_per_s": steps_per_s,
        "speedup": steps_per_s / 1.0e6, "fused_fraction": 1.0,
        "replay_epochs": epochs, "replay_triggers": triggers,
        "smoke": smoke,
    }


class TestRowPairing:
    def test_rows_pair_despite_different_run_counters(self, guard):
        base = {"fused_hub": [_fused_row(3.0e6, 128, 1130)]}
        fresh = {"fused_hub": [_fused_row(2.9e6, 79, 1130)]}
        failures, compared = guard.compare(base, fresh, 0.30, "e16")
        assert (failures, compared) == ([], 1)
        assert guard.dropped_rows(base, fresh) == []
        slow = {"fused_hub": [_fused_row(1.0e6, 79, 640)]}
        failures, compared = guard.compare(base, slow, 0.30, "e16")
        assert compared == 1
        assert len(failures) == 1
        assert "fused_steps_per_s fell" in failures[0]

    def test_portfolio_pick_is_not_a_cell_parameter(self, guard):
        row = {"family": "small", "inst": 2, "solver": "portfolio",
               "cost": 42.0, "smoke": False}
        base = {"summary": [dict(row, picked="mt_genetic", wall_ms=10.0)]}
        fresh = {"summary": [dict(row, picked="mt_greedy", wall_ms=20.0)]}
        failures, compared = guard.compare(base, fresh, 0.30, "e19")
        assert compared == 1
        assert len(failures) == 1 and "wall_ms rose" in failures[0]

    def test_smoke_rows_never_pair_with_full_rows(self, guard):
        base = {"fused_hub": [_fused_row(3.0e6, 128, 1130)]}
        fresh = {"fused_hub": [_fused_row(1.0e5, 128, 1130, smoke=True)]}
        failures, compared = guard.compare(base, fresh, 0.30, "e16")
        assert (failures, compared) == ([], 0)
        ((table, key),) = guard.dropped_rows(base, fresh)
        assert table == "fused_hub" and key["smoke"] is False


class TestDirections:
    @pytest.mark.parametrize("fresh_value,fails", [
        (80.0, False),   # 20% slower: inside the tolerance
        (70.0, True),    # 30% slower: 1/0.7 - 1 = 43% past it
        (150.0, False),  # faster never fails
    ])
    def test_higher_is_better(self, guard, fresh_value, fails):
        base = {"t": [{"sessions": 4, "steps_per_s": 100.0}]}
        fresh = {"t": [{"sessions": 4, "steps_per_s": fresh_value}]}
        failures, _ = guard.compare(base, fresh, 0.30, "x")
        assert bool(failures) == fails
        if fails:
            assert "fell" in failures[0]

    @pytest.mark.parametrize("field", ["us_per_step", "sweep_us",
                                       "wall_ms"])
    @pytest.mark.parametrize("fresh_value,fails", [
        (1.2, False), (1.4, True), (0.5, False),
    ])
    def test_lower_is_better(self, guard, field, fresh_value, fails):
        base = {"t": [{"phase": 1, field: 1.0}]}
        fresh = {"t": [{"phase": 1, field: fresh_value}]}
        failures, _ = guard.compare(base, fresh, 0.30, "x")
        assert bool(failures) == fails
        if fails:
            assert "rose" in failures[0]

    def test_messages_print_the_real_change(self, guard):
        """A throughput line prints the drop ``1 - fresh/ref`` (528k ->
        217k fell 58.9%, not the 143.3% slowdown factor); a latency
        line prints the rise ``fresh/ref - 1``."""
        base = {"t": [{"sessions": 1, "steps_per_s": 528_000.0,
                       "us_per_step": 1.0}]}
        fresh = {"t": [{"sessions": 1, "steps_per_s": 217_000.0,
                        "us_per_step": 2.5}]}
        failures, _ = guard.compare(base, fresh, 0.30, "x")
        assert len(failures) == 2
        assert "steps_per_s fell 58.9% past tolerance" in failures[0]
        assert "us_per_step rose 150.0% past tolerance" in failures[1]

    @pytest.mark.parametrize("fresh_value,fails", [
        (77.0, False),   # a 23.0% drop: ref/fresh = 1.2987
        (76.9, True),    # a 23.1% drop: ref/fresh = 1.3004
    ])
    def test_throughput_threshold_is_a_23_1_percent_drop(
        self, guard, fresh_value, fails
    ):
        base = {"t": [{"sessions": 4, "steps_per_s": 100.0}]}
        fresh = {"t": [{"sessions": 4, "steps_per_s": fresh_value}]}
        failures, _ = guard.compare(base, fresh, 0.30, "x")
        assert bool(failures) == fails

    def test_ratios_are_not_guarded(self, guard):
        base = {"t": [{"sessions": 4, "speedup": 4.0,
                       "fused_fraction": 1.0}]}
        fresh = {"t": [{"sessions": 4, "speedup": 1.0,
                        "fused_fraction": 0.1}]}
        assert guard.compare(base, fresh, 0.30, "x") == ([], 1)


class TestMain:
    def test_dropped_rows_are_listed(self, guard, tmp_path, capsys):
        base_dir = tmp_path / "base"
        fresh_dir = tmp_path / "fresh"
        base_dir.mkdir()
        fresh_dir.mkdir()
        kept = {"sessions": 4, "steps_per_s": 100.0, "smoke": True}
        gone = {"sessions": 64, "steps_per_s": 100.0, "smoke": True}
        (base_dir / "BENCH_e16.json").write_text(
            json.dumps({"tables": {"hub": [kept, gone]}})
        )
        (fresh_dir / "BENCH_e16.json").write_text(
            json.dumps({"tables": {"hub": [kept]}})
        )
        code = guard.main([
            "--baseline", str(base_dir), "--fresh", str(fresh_dir),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 rows compared, 0 regressions, 1 dropped rows" in out
        assert "dropped hub: {'sessions': 64, 'smoke': True}" in out
        assert ("OK: no throughput drop past 23.1% or latency rise "
                "past 30%") in out

    def test_failure_summary_states_the_applied_bounds(
        self, guard, tmp_path, capsys
    ):
        for name, rate in (("base", 528_000.0), ("fresh", 217_000.0)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "BENCH_e16.json").write_text(json.dumps(
                {"tables": {"hub": [{"sessions": 1, "steps_per_s": rate}]}}
            ))
        code = guard.main([
            "--baseline", str(tmp_path / "base"),
            "--fresh", str(tmp_path / "fresh"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert ("FAIL: 1 metric(s) regressed (throughput drop past "
                "23.1% or latency rise past 30%)") in err
        assert "steps_per_s fell 58.9%" in err
