"""The N-shard engine: deterministic routing over one LTPG pipeline.

:class:`ShardedEngine` wraps an :class:`~repro.core.engine.LTPGEngine`
and partitions every stage of its batch pipeline by data ownership:

* **router** — each admitted transaction is classified from its
  parameters alone as single-home (all its keys on one shard) or
  multi-home (spanning shards), then the batch is laid out shard-major:
  shard 0's transactions first, then shard 1's, and so on.  Within a
  shard's segment, multi-home transactions lead in Calvin's
  deterministic order (:func:`repro.baselines.calvin.deterministic_order`
  — the cross-shard sequencer), followed by single-home ones in
  admission order.  A multi-home transaction executes at its
  *coordinator*: the smallest of its home shards.
* **execute** — with ``parallel_workers == shards``, the shard-major
  layout makes every procedure group's lanes shard-contiguous, so
  worker *w* of the process pool executes exactly shard *w*'s lanes
  (per-group split counts ride along with the dispatch).
* **conflict** — the engine's conflict log is swapped for a
  :class:`~repro.shard.conflict.ShardedConflictLog`: registrations are
  routed to the owning shard's slice of the key space (the read-set
  forwarding for multi-home transactions), detection reads stay global.
* **write-back** — committed write/add cells and delayed-update deltas
  are partitioned by row owner and applied shard by shard in fixed
  ascending order (each shard with its own
  :class:`~repro.core.delayed_update.DelayedUpdater`); insert installs
  remain a single pass in global ``(txn, seq)`` lexsort order — the
  deterministic cross-shard commit point for client-keyed inserts.

**Determinism argument.**  The reorder and the per-shard splits cannot
change outcomes: conflict verdicts depend only on (key, TID) minima,
which are insensitive to registration order and to how disjoint subsets
are split across calls; committed write cells are WAW-disjoint and adds
commute, so the fixed shard-order scatter produces the same snapshot;
and the canonical state digest orders rows by key, so insert slot
assignment cannot leak batch order.  Hence ``shards=N`` is
byte-identical to ``shards=1``, which is plain delegation to the inner
engine.  (Simulated *timings* for N > 1 differ — registrations arrive
as per-shard kernel sub-passes — but final states and per-transaction
outcomes do not.)

Counter-keyed TPC-C tables (orders, new_order, order_line, history)
take the default ``mod`` ownership rule: a single-home NewOrder still
*inserts* rows whose keys hash to other shards.  That is deliberate and
honest — those installs flow through the central deterministic insert
step above, and their conflict reservations are routed to the owning
slice like any other access.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.baselines.calvin import deterministic_order
from repro.core.config import LTPGConfig
from repro.core.delayed_update import DelayedUpdater
from repro.core.engine import BatchResult, LTPGEngine
from repro.core.stats import RunStats
from repro.gpusim.device import Device
from repro.shard.conflict import ShardedConflictLog
from repro.shard.partition import BoundPartition, PartitionSpec, resolve_spec
from repro.storage.database import Database
from repro.txn.batch import BatchScheduler
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import Transaction, TxnStatus


class ShardedEngine:
    """N engine shards over one database with deterministic routing.

    With ``config.shards == 1`` every call delegates untouched to the
    inner engine (bit-identical behavior, including timings).  Unknown
    attributes always delegate, so the wrapper is drop-in wherever an
    :class:`LTPGEngine` is expected.
    """

    def __init__(
        self,
        database: Database,
        procedures: ProcedureRegistry,
        config: LTPGConfig | None = None,
        device: Device | None = None,
        spec: PartitionSpec | None = None,
    ):
        config = config or LTPGConfig()
        self._inner = LTPGEngine(database, procedures, config, device=device)
        self.shards = config.shards
        self.partition: BoundPartition | None = None
        self._updaters: list[DelayedUpdater] | None = None
        if self.shards > 1:
            spec = spec or resolve_spec(config.shard_spec, database)
            self.partition = BoundPartition(spec, database, self.shards)
            self._inner.conflict_log = ShardedConflictLog(
                database,
                self._inner.flags,
                self.partition,
                dynamic_buckets=config.dynamic_buckets,
            )
            self._updaters = [
                DelayedUpdater(
                    database,
                    config.delayed_columns,
                    enabled=config.delayed_update,
                )
                for _ in range(self.shards)
            ]

    # -- delegation ----------------------------------------------------------
    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def close(self) -> None:
        self._inner.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- routing -------------------------------------------------------------
    def plan_batch(
        self, transactions: list[Transaction]
    ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Classify and order one batch.

        Returns ``(order, coordinators, multi_mask)`` where ``order``
        is the shard-major permutation (original indices) and the other
        two are per-original-index.  Pure function of parameters and
        TIDs — identical on every replay.
        """
        part = self.partition
        assert part is not None
        n = len(transactions)
        coord = np.zeros(n, dtype=np.int64)
        multi = np.zeros(n, dtype=bool)
        homes_by_txn = []
        for i, txn in enumerate(transactions):
            homes = part.classify(txn)
            homes_by_txn.append(homes)
            coord[i] = homes[0] if homes else 0
            multi[i] = len(homes) > 1
        order: list[int] = []
        pos = {id(t): i for i, t in enumerate(transactions)}
        for s in range(self.shards):
            seg_multi = [
                transactions[i]
                for i in range(n)
                if coord[i] == s and multi[i]
            ]
            # the Calvin sequencer: multi-home transactions commit in
            # the agreed deterministic order, ahead of the shard's
            # single-home segment
            order.extend(pos[id(t)] for t in deterministic_order(seg_multi))
            order.extend(
                i for i in range(n) if coord[i] == s and not multi[i]
            )
        return order, coord, multi

    # -- pipeline ------------------------------------------------------------
    def run_batch(self, transactions: list[Transaction]) -> BatchResult:
        inner = self._inner
        if self.shards == 1 or not transactions:
            return inner.run_batch(transactions)
        t0 = time.perf_counter_ns()
        order, coord, multi = self.plan_batch(transactions)
        ordered = [transactions[i] for i in order]
        shard_plan = coord[np.asarray(order, dtype=np.int64)]
        stall_ns = time.perf_counter_ns() - t0

        inner.shard_plan = shard_plan
        inner.shard_router = self.partition
        inner.shard_updaters = self._updaters
        inner.shard_order = np.asarray(order, dtype=np.int64)
        try:
            result = inner.run_batch(ordered)
        finally:
            inner.shard_plan = None
            inner.shard_router = None
            inner.shard_updaters = None
            inner.shard_order = None
        inner.last_host_phase_s["sequencer"] = stall_ns * 1e-9

        n = len(transactions)
        lanes = np.bincount(coord, minlength=self.shards)
        stats = result.stats
        stats.multi_home_fraction = float(multi.sum()) / n
        stats.shard_balance = float(lanes.max() / lanes.mean())
        stats.sequencer_stall_ns = int(stall_ns)
        if inner.metrics is not None:
            m = inner.metrics
            m.gauge("multi_home_fraction").set(stats.multi_home_fraction)
            m.gauge("shard_balance").set(stats.shard_balance)
            m.counter("sequencer.stall_ns").inc(stats.sequencer_stall_ns)
            lanes_hist = m.histogram("shard.lanes")
            for s in range(self.shards):
                lanes_hist.observe(f"s{s}", int(lanes[s]))

        # Statuses live on the transaction objects, so the result lists
        # rebuild in *admission* order — schedulers composing retries
        # across batches see exactly the reference engine's sequences.
        # The serial-order witness carries over unevaluated.
        return dataclasses.replace(
            result,
            committed=[
                t for t in transactions if t.status is TxnStatus.COMMITTED
            ],
            aborted=[t for t in transactions if t.status is TxnStatus.ABORTED],
            logic_aborted=[
                t for t in transactions if t.status is TxnStatus.LOGIC_ABORTED
            ],
        )

    # -- drains (must route through this run_batch) ---------------------------
    def process(
        self,
        scheduler: BatchScheduler,
        max_batches: int | None = None,
    ) -> RunStats:
        """Drain a scheduler through the sharded pipeline (same contract
        as :meth:`LTPGEngine.process`)."""
        run = RunStats()
        batches = 0
        while scheduler.has_work():
            if max_batches is not None and batches >= max_batches:
                break
            batch = scheduler.next_batch()
            if not batch:
                batches += 1
                continue
            result = self.run_batch(batch)
            scheduler.requeue_aborted(result.aborted)
            run.add(result.stats)
            batches += 1
        return run

    def run_transactions(
        self, transactions: list[Transaction], max_batches: int = 1000
    ) -> RunStats:
        scheduler = BatchScheduler(
            self._inner.config.batch_size,
            retry_delay_batches=self._inner.config.effective_retry_delay,
        )
        scheduler.admit(transactions)
        return self.process(scheduler, max_batches=max_batches)


def make_engine(
    database: Database,
    procedures: ProcedureRegistry,
    config: LTPGConfig | None = None,
    device: Device | None = None,
):
    """Engine factory honoring ``config.shards``: the sharded wrapper
    for N > 1, the plain engine otherwise."""
    config = config or LTPGConfig()
    if config.shards > 1:
        return ShardedEngine(database, procedures, config, device=device)
    return LTPGEngine(database, procedures, config, device=device)
