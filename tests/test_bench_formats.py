"""Rendering of every bench result object (regression guard for the
CLI output the EXPERIMENTS.md tables are diffed against), plus the
schema of the committed ``BENCH_wallclock.json``."""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import wallclock
from repro.bench.ablations import AblationResult
from repro.bench.calibration import CalibrationResult
from repro.bench.fig6 import Fig6aResult, Fig6bResult
from repro.bench.fig7 import Fig7Result
from repro.bench.fullmix import FullMixResult
from repro.bench.sweep import SweepResult
from repro.bench.table2 import Table2Result
from repro.bench.table3 import Table3Result
from repro.bench.table4 import Table4Result
from repro.bench.table5 import Table5Result
from repro.bench.table6 import Table6Cell, Table6Result
from repro.bench.table8 import Table8Result
from repro.bench.table9 import Table9Result

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


class TestTableFormats:
    def test_table2_partial_configs(self):
        r = Table2Result()
        r.mtps[("ltpg", 50, 8)] = 18.4
        r.mtps[("gacco", 50, 8)] = 16.1
        text = r.format()
        assert "50-8" in text and "ltpg" in text and "18.4" in text
        assert "100-8" not in text  # absent configs stay out

    def test_table3(self):
        r = Table3Result()
        r.mtps[(256, 50, 8)] = 1.5
        text = r.format()
        assert "2^8" in text

    def test_table4(self):
        r = Table4Result()
        r.cells[("ltpg", 8, 8192)] = (100.0, 20.0)
        r.cells[("gacco", 8, 8192)] = (200.0, 50.0)
        text = r.format()
        assert "100, 20" in text
        assert "8/8192" in text

    def test_table5(self):
        r = Table5Result()
        r.rwset_us[1024] = 9.5
        assert "9.5" in r.format()

    def test_table6(self):
        r = Table6Result()
        r.cells[(8, 4096, True)] = Table6Cell(100, 60, 40, 0.8, 0.9, 0.7)
        r.cells[(8, 4096, False)] = Table6Cell(50, 49, 1, 0.4, 0.9, 0.01)
        text = r.format()
        assert "yes" in text and "no" in text
        assert "8/4096" in text

    def test_table8(self):
        r = Table8Result()
        r.pct[8] = (1.2, 98.8)
        text = r.format()
        assert "1.200" in text and "98.800" in text

    def test_table9(self):
        r = Table9Result()
        r.phases[32] = {"execute": 45_000.0, "conflict": 4_000.0, "writeback": 10_000.0}
        r.modes[32] = "zero_copy"
        text = r.format()
        assert "zero_copy" in text and "45" in text

    def test_fig6(self):
        a = Fig6aResult()
        a.commit_rate[256] = 0.9
        a.latency_us[256] = 77.0
        assert "77" in a.format()
        b = Fig6bResult()
        b.mtps["baseline"] = 2.0
        b.mtps["+high-contention"] = 4.0
        text = b.format()
        assert "2.00x" in text

    def test_fig7(self):
        r = Fig7Result()
        r.mtps[("a", 1024, 10_000)] = 3.0
        text = r.format()
        assert "10,000 records" in text and "A" in text

    def test_fullmix(self):
        r = FullMixResult(mtps=5.0, commit_rate=0.7, p50_us=90.0, p99_us=120.0)
        r.per_proc_rate["neworder"] = 0.6
        r.retry_histogram[1] = 100
        text = r.format()
        assert "neworder commit %" in text
        assert "attempt 1" in text

    def test_sweep(self):
        r = SweepResult()
        r.cells[(0.5, True)] = (7.0, 0.65)
        r.cells[(0.5, False)] = (2.0, 0.23)
        text = r.format()
        assert "0.50" in text

    def test_ablation(self):
        r = AblationResult("T", "metric")
        r.rows["x"] = (1.0, 0.5, 3.0)
        text = r.format()
        assert "metric" in text and "50.0" in text

    def test_calibration_worst_ratio(self):
        r = CalibrationResult()
        r.record("a", 2.0, 1.0)
        r.record("b", 1.0, 1.0)
        assert r.worst_ratio() == pytest.approx(2.0)
        assert "2.00x" in r.format()
        r.record("zero", 0.0, 1.0)
        assert r.worst_ratio() == float("inf")


class TestWallclockBaseline:
    """The committed ``BENCH_wallclock.json`` matches what the sweep
    emits, so a regeneration cannot silently gain or lose a column."""

    @pytest.fixture(scope="class")
    def committed(self):
        with open(os.path.join(_ROOT, "BENCH_wallclock.json")) as fh:
            return json.load(fh)

    def test_series_are_the_sweep_paths(self, committed):
        series = {name for name, _columnar, _batched in wallclock.SWEEP_PATHS}
        assert set(committed["seconds_per_batch"]) == series

    def test_every_series_covers_every_batch_size(self, committed):
        sizes = {str(b) for b in committed["batch_sizes"]}
        for name, by_batch in committed["seconds_per_batch"].items():
            assert set(by_batch) == sizes, name
            for phases in by_batch.values():
                assert set(phases) == {*wallclock.PHASES, "total"}, name

    def test_top_level_keys_match_the_emitter(self, committed):
        phases = dict.fromkeys((*wallclock.PHASES, "total"), 1.0)
        result = wallclock.WallclockResult(
            seconds={
                name: {1024: dict(phases)}
                for name, _columnar, _batched in wallclock.SWEEP_PATHS
            }
        )
        assert set(result.to_json()) == set(committed)

    def test_no_key_names_a_deleted_path(self, committed):
        def keys(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield key
                    yield from keys(value)

        stale = [
            k for k in keys(committed)
            if any(word in k for word in ("parallel", "shard"))
        ]
        assert not stale, stale
