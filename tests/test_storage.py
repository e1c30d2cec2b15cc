"""Storage layer: schemas, tables, indexes, database, snapshots, WAL."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import DuplicateKey, KeyNotFound, StorageError
from repro.storage import (
    BatchLog,
    Database,
    LogRecord,
    Schema,
    Snapshot,
    SnapshotManager,
    Table,
    make_schema,
)
from repro.txn import Transaction


class TestSchema:
    def test_make_schema(self):
        s = make_schema("t", "id", "a", "b")
        assert s.column_names == ("a", "b")
        assert s.num_columns == 2
        assert s.row_bytes == 24

    def test_duplicate_columns_rejected(self):
        with pytest.raises(StorageError):
            make_schema("t", "id", "a", "a")

    def test_key_column_must_not_repeat(self):
        with pytest.raises(StorageError):
            make_schema("t", "a", "a", "b")

    def test_invalid_column_name(self):
        with pytest.raises(StorageError):
            make_schema("t", "id", "not a name")

    def test_column_index(self):
        s = make_schema("t", "id", "a", "b")
        assert s.column_index("b") == 1
        with pytest.raises(StorageError):
            s.column_index("c")


class TestTable:
    def make(self) -> Table:
        return Table(make_schema("t", "id", "a", "b"), capacity=4)

    def test_insert_and_read(self):
        t = self.make()
        row = t.insert(10, {"a": 1, "b": 2})
        assert t.read(row, "a") == 1
        assert t.key_of(row) == 10
        assert t.lookup(10) == row

    def test_insert_duplicate_key_rejected(self):
        t = self.make()
        t.insert(10)
        with pytest.raises(DuplicateKey):
            t.insert(10)

    def test_unknown_column_rejected(self):
        t = self.make()
        with pytest.raises(StorageError):
            t.insert(1, {"nope": 2})

    def test_lookup_missing_key(self):
        t = self.make()
        with pytest.raises(KeyNotFound):
            t.lookup(42)
        assert t.get_row(42) is None

    def test_growth_beyond_capacity(self):
        t = self.make()
        for k in range(100):
            t.insert(k, {"a": k})
        assert t.num_rows == 100
        assert t.read(t.lookup(77), "a") == 77

    def test_write_and_add(self):
        t = self.make()
        row = t.insert(1, {"a": 5})
        t.write(row, "a", 9)
        t.add(row, "a", 1)
        assert t.read(row, "a") == 10

    def test_row_bounds_checked(self):
        t = self.make()
        with pytest.raises(StorageError):
            t.read(0, "a")

    def test_read_many_vectorized(self):
        t = self.make()
        for k in range(5):
            t.insert(k, {"a": k * 10})
        got = t.read_many([0, 2, 4], "a")
        assert list(got) == [0, 20, 40]

    def test_bulk_load_dense_fast_path(self):
        t = self.make()
        t.bulk_load(np.arange(1000), {"a": np.arange(1000) * 2})
        assert t.lookup(999) == 999
        assert t.read(500, "a") == 1000
        assert len(t.primary) == 0  # dense path: no dict entries

    def test_bulk_load_sparse_keys(self):
        t = self.make()
        t.bulk_load(np.array([5, 17, 99]), {"a": np.array([1, 2, 3])})
        assert t.lookup(17) == 1

    def test_bulk_load_duplicate_keys_rejected(self):
        t = self.make()
        with pytest.raises(DuplicateKey):
            t.bulk_load(np.array([3, 3]), {})

    def test_bulk_load_requires_empty(self):
        t = self.make()
        t.insert(1)
        with pytest.raises(StorageError):
            t.bulk_load(np.array([2]), {})

    def test_insert_after_dense_load(self):
        t = self.make()
        t.bulk_load(np.arange(10), {})
        row = t.insert(100, {"a": 7})
        assert t.lookup(100) == row
        with pytest.raises(DuplicateKey):
            t.insert(5)  # inside the dense range

    def test_secondary_index_maintained_on_insert(self):
        t = self.make()
        t.add_secondary_index("a")
        t.insert(1, {"a": 42})
        t.insert(2, {"a": 42})
        t.insert(3, {"a": 7})
        assert t.secondary["a"].lookup(42) == [0, 1]
        assert t.secondary["a"].last(42) == 1

    def test_secondary_index_backfills_existing_rows(self):
        t = self.make()
        t.insert(1, {"a": 5})
        t.add_secondary_index("a")
        assert t.secondary["a"].lookup(5) == [0]

    def test_secondary_index_unknown_column(self):
        t = self.make()
        with pytest.raises(StorageError):
            t.add_secondary_index("zzz")

    def test_copy_is_deep(self):
        t = self.make()
        t.insert(1, {"a": 5})
        clone = t.copy()
        clone.write(0, "a", 99)
        clone.insert(2)
        assert t.read(0, "a") == 5
        assert t.num_rows == 1

    def test_state_signature_changes_with_data(self):
        t = self.make()
        t.insert(1, {"a": 5})
        sig = t.state_signature()
        t.write(0, "a", 6)
        assert t.state_signature() != sig


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database()
        t = db.create_table(make_schema("x", "id", "a"))
        assert db.table("x") is t
        assert db.table_by_id(db.table_id("x")) is t

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table(make_schema("x", "id", "a"))
        with pytest.raises(StorageError):
            db.create_table(make_schema("x", "id", "a"))

    def test_unknown_table(self):
        db = Database()
        with pytest.raises(StorageError):
            db.table("nope")
        with pytest.raises(StorageError):
            db.table_by_id(3)

    def test_digest_detects_changes(self):
        db = Database()
        t = db.create_table(make_schema("x", "id", "a"))
        t.insert(1, {"a": 1})
        d1 = db.state_digest()
        t.write(0, "a", 2)
        assert db.state_digest() != d1

    def test_digest_hashes_the_state_signatures(self):
        db = Database()
        x = db.create_table(make_schema("x", "id", "a", "b"))
        y = db.create_table(make_schema("y", "id", "c"))
        for key in (5, 2, 9):
            x.insert(key, {"a": key * 3, "b": -key})
        y.insert(7, {"c": 1})
        h = hashlib.sha256()
        for table in (x, y):
            h.update(table.name.encode())
            h.update(table.state_signature())
        assert db.state_digest() == h.hexdigest()

    def test_copy_independent(self):
        db = Database()
        t = db.create_table(make_schema("x", "id", "a"))
        t.insert(1, {"a": 1})
        clone = db.copy()
        clone.table("x").write(0, "a", 50)
        assert db.table("x").read(0, "a") == 1
        assert clone.state_digest() != db.state_digest()


class TestSnapshot:
    def test_capture_and_restore(self):
        db = Database()
        t = db.create_table(make_schema("x", "id", "a"))
        t.insert(1, {"a": 1})
        snap = Snapshot.capture(db, batch_index=3)
        t.write(0, "a", 99)
        restored = snap.restore()
        assert restored.table("x").read(0, "a") == 1
        assert snap.digest == restored.state_digest()

    def test_manager_interval(self):
        db = Database()
        db.create_table(make_schema("x", "id", "a"))
        manager = SnapshotManager(interval_batches=4, keep=2)
        assert manager.maybe_capture(db, 0) is not None
        assert manager.maybe_capture(db, 1) is None
        assert manager.maybe_capture(db, 4) is not None
        assert manager.maybe_capture(db, 8) is not None
        assert len(manager) == 2  # keep bound
        assert manager.latest.batch_index == 8


class TestBatchLog:
    def make_txns(self):
        txns = [Transaction("p", (1, 2), tid=i) for i in range(3)]
        return txns

    def test_append_and_outcome(self):
        log = BatchLog()
        log.append_batch(0, self.make_txns())
        log.record_outcome(0, committed=[0, 2], aborted=[1])
        entry = log.batches()[0]
        assert entry.committed_tids == [0, 2]
        assert entry.aborted_tids == [1]

    def test_outcome_for_unlogged_batch(self):
        log = BatchLog()
        with pytest.raises(StorageError):
            log.record_outcome(5, [], [])

    def test_dump_and_record_roundtrip(self):
        log = BatchLog()
        log.append_batch(0, self.make_txns())
        lines = log.dump_lines()
        assert len(lines) == 3
        rec = LogRecord.from_json(LogRecord(1, "p", (4, 5)).to_json())
        assert rec == LogRecord(1, "p", (4, 5))

    def test_replay_order(self):
        log = BatchLog()
        log.append_batch(0, self.make_txns())
        log.append_batch(1, [Transaction("q", (), tid=9)])
        seen = []
        log.replay(lambda entry: seen.append(entry.batch_index))
        assert seen == [0, 1]
