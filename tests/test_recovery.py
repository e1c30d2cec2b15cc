"""Snapshot + log-replay recovery on the deterministic engine."""

from __future__ import annotations

import pytest

from helpers import build_bank, txn
from repro.core import LTPGConfig, LTPGEngine
from repro.errors import StorageError
from repro.storage import BatchLog, Snapshot
from repro.storage.recovery import recover, transactions_from_record
from repro.txn import BatchScheduler, assign_tids
from repro.workloads.tpcc import (
    DELAYED_COLUMNS,
    HOT_TABLES,
    SPLIT_COLUMNS,
    build_tpcc,
)


def run_workload(engine, scheduler, batches):
    """Drive a few batches of contended transfers + deposits."""
    for i in range(batches):
        scheduler.admit(
            [txn("transfer", (i + j) % 8, (i + j + 1) % 8, 1) for j in range(6)]
            + [txn("deposit", j % 4, 5) for j in range(6)]
        )
        batch = scheduler.next_batch()
        result = engine.run_batch(batch)
        scheduler.requeue_aborted(result.aborted)


class TestRecovery:
    def make_engine(self, db):
        return LTPGEngine(db, self.registry, LTPGConfig(batch_size=16))

    def crash_and_recover(self, snapshot_at: int, total_batches: int):
        db, self.registry = build_bank(accounts=16)
        engine = LTPGEngine(db, self.registry, LTPGConfig(batch_size=16))
        scheduler = BatchScheduler(16)

        snapshot = Snapshot.capture(db, batch_index=0)
        for i in range(total_batches):
            if i == snapshot_at:
                snapshot = Snapshot.capture(db, batch_index=i)
            scheduler.admit(
                [txn("transfer", (i + j) % 8, (i + j + 1) % 8, 1) for j in range(6)]
                + [txn("deposit", j % 4, 5) for j in range(6)]
            )
            batch = scheduler.next_batch()
            result = engine.run_batch(batch)
            scheduler.requeue_aborted(result.aborted)
        pre_crash_digest = db.state_digest()

        recovered_engine, report = recover(
            snapshot, engine.batch_log, self.make_engine
        )
        return pre_crash_digest, recovered_engine, report

    def test_recover_from_initial_snapshot(self):
        digest, engine, report = self.crash_and_recover(snapshot_at=0, total_batches=5)
        assert report.final_digest == digest
        assert report.batches_replayed == 5

    def test_recover_from_mid_run_snapshot(self):
        digest, engine, report = self.crash_and_recover(snapshot_at=3, total_batches=6)
        assert report.final_digest == digest
        assert report.batches_replayed == 3
        assert report.snapshot_batch == 3

    def test_recover_validates_commit_sets(self):
        db, self.registry = build_bank(accounts=8)
        engine = LTPGEngine(db, self.registry, LTPGConfig(batch_size=8))
        snapshot = Snapshot.capture(db, batch_index=0)
        batch = [txn("transfer", 0, 1, 5)]
        batch[0].tid = 0
        engine.run_batch(batch)
        # Corrupt the log's recorded outcome: replay must detect it.
        engine.batch_log.batches()[0].committed_tids = [999]
        with pytest.raises(StorageError):
            recover(snapshot, engine.batch_log, self.make_engine)

    def test_transactions_from_record_preserve_tids(self):
        db, self.registry = build_bank(accounts=8)
        engine = LTPGEngine(db, self.registry, LTPGConfig(batch_size=8))
        batch = [txn("deposit", 1, 2), txn("deposit", 2, 3)]
        batch[0].tid, batch[1].tid = 7, 9
        engine.run_batch(batch)
        rebuilt = transactions_from_record(engine.batch_log.batches()[0])
        assert [t.tid for t in rebuilt] == [7, 9]
        assert [t.params for t in rebuilt] == [(1, 2), (2, 3)]

    def test_batch_that_raised_is_not_replayed(self, monkeypatch):
        """A batch logged before it raised has no outcome: the live
        engine committed none of it, so replay must skip it."""
        db, registry, gen = build_tpcc(warehouses=4, num_items=2000, seed=7)
        config = LTPGConfig(
            batch_size=512,
            batched_exec=True,
            delayed_columns=DELAYED_COLUMNS,
            split_columns=SPLIT_COLUMNS,
            hot_tables=HOT_TABLES,
        )
        engine = LTPGEngine(db, registry, config)
        next_tid = 0

        def run_next():
            nonlocal next_tid
            batch = gen.make_batch(512)
            next_tid = assign_tids(batch, next_tid)
            return engine.run_batch(batch)

        run_next()
        snapshot = Snapshot.capture(db, batch_index=1)

        def fail(*args, **kwargs):
            raise RuntimeError("injected write-back fault")

        with monkeypatch.context() as patch:
            patch.setattr(engine, "_writeback_phase", fail)
            with pytest.raises(RuntimeError, match="injected"):
                run_next()
        run_next()
        failed, finished = engine.batch_log.batches()[1:]
        assert failed.committed_tids is None
        assert finished.committed_tids is not None

        _, report = recover(
            snapshot,
            engine.batch_log,
            lambda database: LTPGEngine(database, registry, config),
        )
        assert report.final_digest == db.state_digest()
        assert report.batches_replayed == 1

    def test_empty_commit_set_is_still_checked(self):
        db, self.registry = build_bank(accounts=8)
        engine = LTPGEngine(db, self.registry, LTPGConfig(batch_size=8))
        snapshot = Snapshot.capture(db, batch_index=0)
        batch = [txn("transfer", 0, 1, 5)]
        batch[0].tid = 0
        engine.run_batch(batch)
        # A finished batch that committed nothing still has an outcome,
        # and replay must reproduce it exactly.
        engine.batch_log.batches()[0].committed_tids = []
        with pytest.raises(StorageError):
            recover(snapshot, engine.batch_log, self.make_engine)

    def test_recovered_engine_continues_processing(self):
        digest, engine, report = self.crash_and_recover(snapshot_at=2, total_batches=4)
        follow_up = [txn("deposit", 0, 100)]
        follow_up[0].tid = 10_000
        result = engine.run_batch(follow_up)
        assert result.stats.committed == 1


class TestRecoveryProperty:
    """Random workloads: recovery always reproduces the crashed state."""

    def test_random_histories_recover_exactly(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def histories(draw):
            batches = draw(st.integers(1, 4))
            snapshot_at = draw(st.integers(0, batches - 1))
            ops = [
                [
                    (
                        draw(st.sampled_from(["transfer", "deposit"])),
                        draw(st.integers(0, 7)),
                        draw(st.integers(0, 7)),
                        1 + draw(st.integers(0, 4)),
                    )
                    for _ in range(draw(st.integers(1, 8)))
                ]
                for _ in range(batches)
            ]
            return snapshot_at, ops

        @given(histories())
        @settings(max_examples=25, deadline=None)
        def check(history):
            snapshot_at, batch_specs = history
            db, registry = build_bank(accounts=8)
            config = LTPGConfig(batch_size=16)
            engine = LTPGEngine(db, registry, config)
            snapshot = Snapshot.capture(db, batch_index=0)
            tid = 0
            for i, specs in enumerate(batch_specs):
                if i == snapshot_at:
                    snapshot = Snapshot.capture(db, batch_index=i)
                batch = []
                for name, a, b, v in specs:
                    if name == "transfer":
                        batch.append(txn("transfer", a, (b + 1) % 8, v))
                    else:
                        batch.append(txn("deposit", a, v))
                for t in batch:
                    t.tid = tid
                    tid += 1
                engine.run_batch(batch)
            expected = db.state_digest()
            _, report = recover(
                snapshot,
                engine.batch_log,
                lambda database: LTPGEngine(database, registry, config),
            )
            assert report.final_digest == expected

        check()
