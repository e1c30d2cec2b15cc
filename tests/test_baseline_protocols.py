"""Hand-crafted protocol scenarios: exact schedule/rank/chain checks
for the baselines' cost machinery."""

from __future__ import annotations

import pytest

from helpers import build_bank, txn
from repro.baselines import (
    BohmEngine,
    CalvinEngine,
    Dbx1000Engine,
    GaccoEngine,
    GpuTxEngine,
    PwvEngine,
)
from repro.baselines.calvin import deterministic_order
from repro.gpusim.config import CpuConfig
from repro.txn import Transaction


def prepared(txns):
    for i, t in enumerate(txns):
        t.tid = i
    return txns


class TestCalvinExactSchedule:
    def test_independent_txns_use_parallel_cores(self):
        """Two disjoint transfers: the makespan equals one transaction's
        execution time (plus lock-manager serial grants), not two."""
        db, registry = build_bank(accounts=8)
        engine = CalvinEngine(db, registry)
        one = engine.run_batch(prepared([txn("transfer", 0, 1, 1)]))
        db2, registry2 = build_bank(accounts=8)
        engine2 = CalvinEngine(db2, registry2)
        two = engine2.run_batch(
            prepared([txn("transfer", 0, 1, 1), txn("transfer", 2, 3, 1)])
        )
        # the second disjoint txn adds only lock-manager grant time
        exec_ns = 4 * engine.exec_op_ns  # 4 ops per transfer
        assert two.latency_ns - one.latency_ns < exec_ns

    def test_chained_txns_serialize_fully(self):
        """Transfers on the same accounts: makespan grows by a whole
        transaction per link."""
        db, registry = build_bank(accounts=8)
        engine = CalvinEngine(db, registry)
        n = 4
        stats = engine.run_batch(
            prepared([txn("transfer", 0, 1, 1) for _ in range(n)])
        )
        per_txn = 4 * engine.exec_op_ns + engine.cpu.txn_overhead_ns
        assert stats.latency_ns >= n * per_txn

    def test_readers_share_locks(self):
        db, registry = build_bank(accounts=8)
        engine = CalvinEngine(db, registry)
        readers = engine.run_batch(
            prepared([txn("audit", 0, 1) for _ in range(8)])
        )
        db2, registry2 = build_bank(accounts=8)
        writers = CalvinEngine(db2, registry2).run_batch(
            prepared([txn("transfer", 0, 1, 1) for _ in range(8)])
        )
        assert readers.latency_ns < writers.latency_ns


class TestGpuTxRanks:
    def count_rounds(self, txns):
        db, registry = build_bank(accounts=32)
        engine = GpuTxEngine(db, registry)
        stats = engine.run_batch(prepared(txns))
        # rounds are observable through the execute-phase cost: each
        # round pays a kernel launch
        launches = stats.phase_ns["execute"] / engine.device.config.kernel_launch_ns
        return stats, launches

    def test_disjoint_batch_single_round(self):
        stats, launches = self.count_rounds(
            [txn("transfer", 2 * i, 2 * i + 1, 1) for i in range(4)]
        )
        stats2, launches2 = self.count_rounds(
            [txn("transfer", 0, 1, 1) for _ in range(4)]
        )
        assert launches2 > launches  # chained batch needs more rounds

    def test_reader_chains_count(self):
        # readers of a written item rank after the writer
        stats, launches = self.count_rounds(
            [txn("transfer", 0, 1, 1), txn("audit", 0, 1)]
        )
        stats1, launches1 = self.count_rounds([txn("audit", 0, 1), txn("audit", 0, 1)])
        assert launches > launches1


class TestPwvChains:
    def test_fragment_chain_bounds_makespan(self):
        db, registry = build_bank(accounts=64)
        engine = PwvEngine(db, registry)
        hot = engine.run_batch(prepared([txn("transfer", 0, 1, 1) for _ in range(16)]))
        db2, registry2 = build_bank(accounts=64)
        cold = PwvEngine(db2, registry2).run_batch(
            prepared([txn("transfer", 2 * i, 2 * i + 1, 1) for i in range(16)])
        )
        delta = hot.latency_ns - cold.latency_ns
        # chain of 16 writers advances one *fragment* at a time
        assert delta >= 10 * engine.fragment_ns
        # ... which is far cheaper than Calvin's whole-transaction chain
        db3, registry3 = build_bank(accounts=64)
        calvin_hot = CalvinEngine(db3, registry3).run_batch(
            prepared([txn("transfer", 0, 1, 1) for _ in range(16)])
        )
        assert hot.latency_ns < calvin_hot.latency_ns


class TestDbxWindowSimulation:
    def engine(self, cores=4):
        db, registry = build_bank(accounts=64)
        eng = Dbx1000Engine(db, registry, cpu=CpuConfig(num_cores=cores))
        return eng

    def test_disjoint_no_retries(self):
        eng = self.engine()
        txns = prepared([txn("transfer", 2 * i, 2 * i + 1, 1) for i in range(8)])
        for t in txns:
            t.reset_for_execution()
        # execute to populate ops, then simulate
        eng.run_batch(txns)
        retried, wasted = eng._simulate_interleaving(txns)
        assert retried == 0
        assert wasted == 0

    def test_hot_writers_retry_within_window(self):
        eng = self.engine(cores=8)
        txns = prepared([txn("transfer", 0, 1, 1) for _ in range(8)])
        eng.run_batch(txns)
        retried, wasted = eng._simulate_interleaving(txns)
        assert retried > 0
        assert wasted >= retried  # each retry wastes at least its ops

    def test_retries_bounded(self):
        eng = self.engine(cores=8)
        txns = prepared([txn("transfer", 0, 1, 1) for _ in range(8)])
        eng.run_batch(txns)
        retried, _ = eng._simulate_interleaving(txns)
        assert retried <= len(txns) * eng.max_retries

    def test_wider_window_more_conflicts(self):
        narrow = self.engine(cores=2)
        txns_a = prepared([txn("transfer", 0, 1, 1) for _ in range(12)])
        narrow.run_batch(txns_a)
        r_narrow, _ = narrow._simulate_interleaving(txns_a)
        wide = self.engine(cores=12)
        txns_b = prepared([txn("transfer", 0, 1, 1) for _ in range(12)])
        wide.run_batch(txns_b)
        r_wide, _ = wide._simulate_interleaving(txns_b)
        assert r_wide >= r_narrow


class TestBohmPartitions:
    def test_partitioned_phase1_scales_with_hottest_partition(self):
        db, registry = build_bank(accounts=64)
        few_cores = BohmEngine(db, registry, cpu=CpuConfig(num_cores=2))
        txns = prepared([txn("deposit", i % 4, 1) for i in range(16)])
        stats = few_cores.run_batch(txns)
        assert stats.committed == 16
        assert stats.latency_ns > 0


class TestGaccoAccessTable:
    def test_preprocess_cost_scales_with_ops(self):
        db, registry = build_bank(accounts=64)
        small = GaccoEngine(db, registry).run_batch(
            prepared([txn("deposit", i, 1) for i in range(4)])
        )
        db2, registry2 = build_bank(accounts=64)
        large = GaccoEngine(db2, registry2).run_batch(
            prepared([txn("deposit", i % 32, 1) for i in range(64)])
        )
        assert large.phase_ns["preprocess"] > small.phase_ns["preprocess"]

    def test_dirty_row_sync_scales_transfer(self):
        db, registry = build_bank(accounts=128)
        narrow = GaccoEngine(db, registry).run_batch(
            prepared([txn("deposit", 0, 1) for _ in range(32)])
        )
        db2, registry2 = build_bank(accounts=128)
        wide = GaccoEngine(db2, registry2).run_batch(
            prepared([txn("deposit", i, 1) for i in range(32)])
        )
        # 32 distinct dirty rows ship more than 1 dirty row
        assert wide.transfer_ns > narrow.transfer_ns


def test_deterministic_order_is_stable_tid_sort():
    txns = [
        Transaction("balance", (i,), tid=tid)
        for i, tid in enumerate([5, 1, 3, 1, 2])
    ]
    ordered = deterministic_order(txns)
    assert [t.tid for t in ordered] == [1, 1, 2, 3, 5]
    # stable: the two tid=1 entries keep their admission order
    assert ordered[0].params[0] == 1 and ordered[1].params[0] == 3
