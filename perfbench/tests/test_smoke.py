"""Toy-size smoke tests of the benchmark.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import run as bench_cli  # noqa: E402
import spans  # noqa: E402


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1:] == ["perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOAD_NAMES)
    for key, table in (("end_to_end", harness.END_TO_END),
                       ("per_layer", harness.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            name: unit for name, (unit, _) in table.items()
        }


@pytest.mark.parametrize("workload", harness.WORKLOAD_NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0.5", "--trace", "0", "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, (unit, _) in harness.END_TO_END.items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in [*harness.END_TO_END, "failed_ratio"]:
        assert f"  {name} " in proc.stdout


def test_traced_run_reports_layers_and_nests_its_spans(tmp_path):
    code = bench_cli.main([
        "--workload", "tpcc-w32", "--seed", "2", "--seconds", "0.5",
        "--trace", "1", "--toy", "--trace-dir", str(tmp_path),
    ])
    assert code == 0
    report = harness.run("tpcc-w32", 2, 0.5, trace=True, toy=True)
    assert report.correct
    assert set(report.metrics) == set(harness.PER_LAYER)
    traced = [ep for ep in report.episodes if ep.traced]
    assert traced
    for ep in traced:
        assert spans.check_nesting(ep.rec.spans) == []
        names = {s.name for s in ep.rec.spans}
        assert {"bench.batch", "workloads.make_batch", "txn.next_batch",
                "core.run_batch", "storage.wal_append", "core.execute",
                "core.assemble"} <= names
    # the replay of the recovered episode is traced too
    assert any(s.name == "storage.replay_batch" for ep in traced for s in ep.rec.spans)
    # self times by layer, unattributed included, add up to the loop
    values = harness._per_batch(traced[0])
    layers = ("workloads", "txn", "storage", "core", "unattributed")
    total = sum(values[f"self.{layer}_s"] for layer in layers)
    loop = [s for s in traced[0].rec.spans if s.name == "bench.batch"]
    assert total == pytest.approx(sum(s.duration_ns for s in loop) / len(loop) / 1e9)
    trace = json.loads(next(tmp_path.glob("trace-*.json")).read_text())
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert events and all(e["pid"] == spans.HOST_PID for e in events)


def test_check_nesting_flags_a_child_outside_its_parent():
    rec = spans.SpanRecorder()
    root = rec.open("bench.batch", batch=0, start_ns=0)
    rec.add("core.run_batch", 5, 20)
    rec.close(root, end_ns=10)
    assert any("leaves its parent" in p for p in spans.check_nesting(rec.spans))


def test_a_corrupted_digest_fails_the_run(monkeypatch, capsys):
    real_recover = harness.recover

    def corrupting_recover(*args, **kwargs):
        engine, report = real_recover(*args, **kwargs)
        return engine, dataclasses.replace(report, final_digest="0" * 64)

    monkeypatch.setattr(harness, "recover", corrupting_recover)
    code = bench_cli.main([
        "--workload", "smallbank-hot", "--seed", "1", "--seconds", "0.5",
        "--trace", "0", "--toy",
    ])
    out = capsys.readouterr().out
    assert code != 0
    assert _last_json(out)["correct"] is False
    assert "recovered digest" in out


def test_loop_matches_steady_state_run_over_a_whole_episode(monkeypatch):
    wl = harness.workload("smallbank-hot", toy=True)
    monkeypatch.setattr(harness, "PARITY_BATCHES", wl.batches)
    episode = harness.run_episode(wl, seed=4)
    problems, _ = harness.parity_problems(wl, 4, episode)
    assert problems == []
    assert episode.run.num_batches == wl.batches


def test_one_seed_ends_at_one_digest():
    wl = harness.workload("ycsb-e-scan", toy=True)
    digests = {harness.run_episode(wl, seed=9).digest for _ in range(2)}
    other = harness.run_episode(wl, seed=10).digest
    assert len(digests) == 1 and other not in digests
