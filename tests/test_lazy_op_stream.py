"""The batched executor's op stream stays columnar until someone reads it.

Twin groups hand their op matrices straight to the collector; each twin
lane's ``txn.ops`` is a lazy window onto its group's matrix, and
``BatchResult`` keeps the serial-order witness unevaluated.  These tests
pin that ``run_batch`` itself copies no per-lane op buffer and builds no
witness set, that what is read afterwards equals the scalar reference
engine byte for byte, and that a lazy window never observes a later
batch.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import repro.core.engine as engine_mod
from repro.core import LTPGConfig
from repro.shard import make_engine
from repro.txn import Transaction
from repro.txn.operations import OpColumns
from repro.workloads.tpcc import DELAYED_COLUMNS, SPLIT_COLUMNS, TpccMix, build_tpcc

pytestmark = pytest.mark.batched

FULL_MIX = TpccMix(
    neworder=0.4, payment=0.3, orderstatus=0.1, stocklevel=0.1, delivery=0.1
)


def _engine(batched: bool, **overrides):
    db, registry, _ = build_tpcc(warehouses=2, num_items=2000, mix=FULL_MIX, seed=7)
    config = LTPGConfig(
        batch_size=256,
        columnar_ops=batched,
        batched_exec=batched,
        delayed_update=True,
        delayed_columns=DELAYED_COLUMNS,
        split_flags=True,
        split_columns=SPLIT_COLUMNS,
        **overrides,
    )
    return make_engine(db, registry, config)


def _specs(batches: int = 2, size: int = 256):
    _, _, gen = build_tpcc(warehouses=2, num_items=2000, mix=FULL_MIX, seed=7)
    return [
        [(t.procedure_name, t.params) for t in gen.make_batch(size)]
        for _ in range(batches)
    ]


def _txns(specs, base: int = 0):
    return [Transaction(n, p, tid=base + i) for i, (n, p) in enumerate(specs)]


@pytest.fixture
def counters(monkeypatch):
    """Count lazy-window copies and witness-set builds."""
    seen = {"copies": 0, "witness": 0}
    materialize = OpColumns._materialize
    grouped = engine_mod._grouped_key_sets

    def counting_materialize(self):
        seen["copies"] += 1
        return materialize(self)

    def counting_grouped(*args):
        seen["witness"] += 1
        return grouped(*args)

    monkeypatch.setattr(OpColumns, "_materialize", counting_materialize)
    monkeypatch.setattr(engine_mod, "_grouped_key_sets", counting_grouped)
    return seen


def test_run_batch_copies_no_lane_ops_and_builds_no_witness(counters):
    (specs,) = _specs(batches=1)
    batch = _txns(specs)
    result = _engine(batched=True).run_batch(batch)
    assert result.committed and result.aborted  # conflicts were decided
    assert counters == {"copies": 0, "witness": 0}

    reference_batch = _txns(specs)
    reference = _engine(batched=False).run_batch(reference_batch)
    assert [t.ops.raw for t in batch] == [t.ops.raw for t in reference_batch]
    assert counters["copies"] > 0  # twin lanes copy only when read
    assert result.serial_order() == reference.serial_order()
    assert counters["witness"] > 0
    assert [t.status for t in batch] == [t.status for t in reference_batch]


def test_sharded_result_keeps_witness_unevaluated(counters):
    (specs,) = _specs(batches=1)
    sharded = _engine(batched=True, shards=2)
    with sharded:
        result = sharded.run_batch(_txns(specs))
    assert counters["witness"] == 0
    plain = _engine(batched=True).run_batch(_txns(specs))
    assert result.serial_order() == plain.serial_order()
    assert result.serial_order()


def test_aborted_lane_ops_survive_the_next_batch(counters):
    first, second = _specs(batches=2)
    # eager: read the aborted lanes' ops right after their execution
    eager = _engine(batched=True)
    eager_result = eager.run_batch(_txns(first))
    at_execution = {t.tid: t.ops.raw for t in eager_result.aborted}
    assert at_execution

    lazy = _engine(batched=True)
    aborted = lazy.run_batch(_txns(first)).aborted
    assert any(t.ops._buf is None for t in aborted)  # unread twin lanes
    copies = counters["copies"]
    lazy.run_batch(_txns(second, base=10_000))
    assert counters["copies"] == copies  # still unread after batch 2
    assert {t.tid: t.ops.raw for t in aborted} == at_execution


def test_reset_for_execution_drops_the_group_matrix():
    (specs,) = _specs(batches=1)
    engine = _engine(batched=True)
    batch = _txns(specs)
    result = engine.run_batch(batch)
    aborted = list(result.aborted)
    lane = next(t for t in aborted if t.ops._buf is None)
    group_matrix = weakref.ref(lane.ops._mat)
    del batch, result, lane
    gc.collect()
    assert group_matrix() is not None  # the unread windows keep it
    for txn in aborted:
        txn.reset_for_execution()
    gc.collect()
    assert group_matrix() is None


def test_lazy_window_reads_like_a_copied_buffer():
    mat = np.arange(4 * 6, dtype=np.int64).reshape(4, 6)
    ops = OpColumns.window(mat, 1, 3)
    assert len(ops) == 2 and ops
    assert ops._buf is None  # len/bool do not copy
    assert ops.raw == [tuple(range(6, 12)), tuple(range(12, 18))]
    assert ops._buf is not None
    assert (ops.matrix == mat[1:3]).all()
    assert not OpColumns.window(mat, 2, 2)
