"""The LTPG engine: execute -> detect conflicts -> write back.

One :meth:`LTPGEngine.run_batch` call processes a batch exactly as the
paper's Algorithm 1 does:

1. **execute kernel** — every transaction runs against the snapshot,
   buffering effects in local sets and registering its TID in the
   conflict log (``atomicMin`` per accessed item, with dynamic hash
   buckets sizing the atomic fan-out).
2. ``cudaDeviceSynchronize``
3. **conflict kernel** — WAW/RAW/WAR verdicts per transaction from the
   logged minima, then the deterministic commit rule (with optional
   logical reordering).
4. ``cudaDeviceSynchronize``
5. **writeback kernel** — committed local sets install into the
   snapshot; delayed commutative adds merge via warp prefix sums.

The phases run functionally in Python/NumPy while recording hardware
events; the simulated clock yields latency and throughput.  Aborted
transactions keep their TIDs and are re-queued by the caller (usually a
:class:`~repro.txn.batch.BatchScheduler`).
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.core.config import LTPGConfig, MemoryMode
from repro.core.conflict_log import ConflictLog
from repro.core.delayed_update import DelayedUpdater
from repro.core.hotspot import HotspotDetector, TableHeat
from repro.core.memory_modes import MemoryPlan, resolve_memory_mode, transfer_latency_factor
from repro.core.occ import ConflictFlags, abort_reason, commit_mask, logical_order
from repro.core.split_flags import FlagGroups
from repro.core.stats import BatchStats, RunStats
from repro.errors import KeyNotFound, TransactionAborted, TransactionError
from repro.gpusim.device import Device
from repro.gpusim.occupancy import KernelResources, occupancy
from repro.storage.database import Database
from repro.storage.wal import BatchLog
from repro.txn.batch import BatchScheduler
from repro.txn.batch_context import BatchedContext, GroupLocals, pack_sort_key
from repro.txn.context import BufferedContext, LocalSets, apply_local_sets
from repro.txn.decompose import plan, plan_arrays
from repro.txn.operations import NUM_OP_KINDS, OP_FIELDS, OpColumns, OpKind, column_name
from repro.txn.procedures import Procedure, ProcedureRegistry
from repro.txn.transaction import Transaction, TxnStatus

# Per-operation hardware cost shape (events per op in the execute phase).
_READ_GLOBAL_READS = 3       # two index-probe loads + one data load
_WRITE_GLOBAL_WRITES = 1     # append to the local write-set
_WRITE_GLOBAL_READS = 2      # index probe
_INSERT_GLOBAL_WRITES = 2    # key + payload append
_OP_INSTRUCTIONS = 8         # decode, hash, bounds checks per op
_REGISTER_INSTRUCTIONS = 4   # conflict-log hash computation per op
_CHECK_INSTRUCTIONS = 6      # per-op verdict in the conflict kernel
_APPLY_INSTRUCTIONS = 4      # per-cell install in the writeback kernel


@dataclass
class BatchResult:
    """Everything one batch produced."""

    stats: BatchStats
    committed: list[Transaction]
    aborted: list[Transaction]
    logic_aborted: list[Transaction]
    #: Builds the ``(tid, read_keys, write_keys)`` witness sets of the
    #: committed transactions from arrays the batch already kept; only
    #: :meth:`serial_order` calls it (``None``: no witness).
    _witness: Callable[[], list[tuple[int, set, set]]] | None = None

    def serial_order(self) -> list[int]:
        """TIDs of committed transactions in an equivalent serial order."""
        return logical_order(self._witness() if self._witness else [])

    def explain(self, limit: int = 20) -> str:
        """A human-readable per-transaction outcome summary (debugging
        aid; the first ``limit`` transactions of each outcome class)."""
        lines = [
            f"batch {self.stats.batch_index}: {self.stats.committed} committed, "
            f"{self.stats.aborted} aborted, {self.stats.logic_aborted} "
            f"logic-aborted of {self.stats.num_txns}"
        ]
        if self.stats.abort_reasons:
            # Same counters the stats carry; per-txn lines below show the
            # same reasons so the two views always agree.
            summary = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.stats.abort_reasons.items())
            )
            lines.append(f"  abort reasons: {summary}")
        for label, group in (
            ("committed", self.committed),
            ("aborted", self.aborted),
            ("logic-aborted", self.logic_aborted),
        ):
            for txn in group[:limit]:
                reason = f" [{txn.abort_reason}]" if txn.abort_reason else ""
                lines.append(
                    f"  {label:>13} tid={txn.tid} {txn.procedure_name}"
                    f" attempt={txn.attempts}{reason}"
                )
            if len(group) > limit:
                lines.append(f"  ... and {len(group) - limit} more {label}")
        return "\n".join(lines)


class LTPGEngine:
    """Deterministic-OCC batch transaction processing on one device."""

    def __init__(
        self,
        database: Database,
        procedures: ProcedureRegistry,
        config: LTPGConfig | None = None,
        device: Device | None = None,
    ):
        self.database = database
        self.procedures = procedures
        self.config = config or LTPGConfig()
        self.device = device or Device()
        self.flags = FlagGroups(
            database,
            self.config.all_split_columns(),
            enabled=self.config.split_flags,
        )
        self.delayed = DelayedUpdater(
            database, self.config.delayed_columns, enabled=self.config.delayed_update
        )
        self.conflict_log = ConflictLog(
            database, self.flags, dynamic_buckets=self.config.dynamic_buckets
        )
        self.hotspot = HotspotDetector(database, self.config.hot_tables)
        self.memory_plan: MemoryPlan = resolve_memory_mode(
            self.config, database, self.device
        )
        #: Shadow-access recorder (racecheck + memcheck), attached to the
        #: device when ``config.sanitize`` is set.  Imported lazily so the
        #: engine has no analysis-layer dependency when it is off.
        self.sanitizer = None
        if self.config.sanitize:
            from repro.analysis.sanitizer import Sanitizer

            self.sanitizer = Sanitizer()
            self.device.attach_sanitizer(self.sanitizer)
        #: Span recorder + metrics registry (:mod:`repro.trace`),
        #: attached behind ``config.trace`` — same contract as
        #: ``sanitize``: zero bookkeeping on the hot path when off.
        self.tracer = None
        self.metrics = None
        if self.config.trace:
            from repro.trace import MetricsRegistry, Tracer

            self.tracer = Tracer()
            self.metrics = MetricsRegistry()
            self.device.attach_tracer(self.tracer)
        self.batch_log = BatchLog()
        self.last_heats: dict[int, TableHeat] = {}
        # Host wall-clock spent in each phase of the most recent batch
        # (seconds).  Deliberately *not* part of BatchStats: the
        # simulated-time stats must stay byte-identical between the
        # columnar and reference op paths, and host timings never are.
        self.last_host_phase_s: dict[str, float] = {}
        # Procedure lookups cached across batches; invalidated only when
        # the registry version changes (registration bumps it).
        self._proc_cache: dict[str, Procedure] = {}
        self._proc_cache_version = -1
        # Streams; a pipelined runner points these at distinct streams.
        self.h2d_stream = "stream0"
        self.compute_stream = "stream0"
        self.d2h_stream = "stream0"
        self._batch_counter = 0
        # (procedure, lanes, ops) per execute group of the last batch,
        # recorded only when tracing/metrics are on (observability).
        self._last_groups: list[tuple[str, int, int]] = []
        # Worker pool for config.parallel_workers > 0, created lazily on
        # the first batched execute so procedures registered after
        # engine construction are picked up.  Owned by this engine:
        # close() (or the context manager) tears it down.
        self._pool = None
        # (worker, lanes, ops) per dispatched shard of the last batch,
        # plus host seconds spent merging shard results.
        self._last_shards: list[tuple[int, int, int]] = []
        self._last_merge_s = 0.0
        # Resolved array backend (repro.xp) for the batched hot path,
        # re-resolved when config.array_backend changes after
        # construction (mirrors the pool's registry-version check).
        self._backend = None
        self._backend_name: str | None = None
        # Per-batch transfer-ledger deltas of the last batch (zero on
        # the numpy backend), recorded for metrics/tracing.
        self._last_transfers: dict[str, int] = {}
        # Same deltas split per phase (execute/conflict/writeback plus
        # "other" for inter-phase traffic like the full-sync fence).
        self._last_phase_transfers: dict[str, dict[str, int]] = {}
        # Device-resident table cache (config.device_resident), built
        # lazily per backend by _ensure_residency.
        self._residency = None
        self._residency_key: tuple | None = None
        # Sharding hooks, installed per batch by repro.shard's
        # ShardedEngine wrapper and cleared after.  shard_plan maps
        # batch position -> coordinator shard (the wrapper lays the
        # batch out shard-major, so each execute group's lanes are
        # shard-contiguous and worker w runs exactly shard w's lanes);
        # shard_router partitions write-back cells by row owner;
        # shard_updaters are the per-shard delayed-update mergers.
        self.shard_plan = None
        self.shard_router = None
        self.shard_updaters = None
        # shard_order[j] = the admission-order index of batch position j.
        # The insert install keys its slot assignment on it so appended
        # rows claim exactly the physical slots the unsharded engine
        # would assign — slot order feeds the secondary/ordered indexes,
        # which later batches observe.
        self.shard_order = None
        # Config facets the pool was built against; _ensure_pool
        # rebuilds when a swapped config changes any of them (the
        # registry version alone missed worker-count swaps and leaked
        # the old pool's shared-memory segments).
        self._pool_key: tuple | None = None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release engine-owned process resources (the parallel worker
        pool and its shared-memory snapshot).  Idempotent; running with
        ``parallel_workers=0`` makes this a no-op."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "LTPGEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def last_transfers(self) -> dict[str, int]:
        """Transfer-ledger deltas of the last batch (empty on numpy)."""
        return dict(self._last_transfers)

    @property
    def last_phase_transfers(self) -> dict[str, dict[str, int]]:
        """Last batch's ledger deltas split by engine phase
        (``execute``/``conflict``/``writeback`` plus ``other`` for
        inter-phase traffic); empty on the numpy backend."""
        return {p: dict(d) for p, d in self._last_phase_transfers.items()}

    def reset_run_state(self) -> None:
        """Rewind every run-scoped clock and counter so the next batch
        starts a fresh timeline at ``t=0``.

        The ``Profiler.reset`` clock-hygiene contract, extended to the
        whole engine: stream clocks + profiler history (via
        :meth:`Device.reset_clock`), tracer spans, the metrics registry,
        the batch counter (span/stat names embed batch indices), the
        batch log and last-batch observability scratch.  Database state,
        procedure caches, worker pools and device allocations survive —
        they model persistent state, not run history.  Back-to-back
        serve runs reset through here must produce bit-identical traces
        (pinned by ``tests/test_trace_observability.py``).
        """
        self.device.reset_clock()
        if self.tracer is not None:
            self.tracer.reset()
        if self.metrics is not None:
            self.metrics.reset()
        self._batch_counter = 0
        self.batch_log = BatchLog()
        self.last_host_phase_s = {}
        self._last_groups = []
        self._last_shards = []
        self._last_merge_s = 0.0
        self._last_transfers = {}
        self._last_phase_transfers = {}
        if self._residency is not None:
            # Flush residency at the run boundary: dirty columns fence
            # back so host state is inspectable between runs, while the
            # (now clean) device copies survive — serve-loop reuse stays
            # params-only from the first batch of the next run.
            self._residency.sync_all_to_host()

    def _ensure_pool(self):
        """The lazily-created worker pool, rebuilt if the procedure
        registry — or any pool-shaping config facet (worker count,
        start method, delayed columns) — changed since the pool pickled
        its twins."""
        delayed = (
            self.config.delayed_columns
            if self.config.delayed_update
            else frozenset()
        )
        key = (
            self.procedures.version,
            self.config.parallel_workers,
            self.config.resolved_start_method(),
            delayed,
        )
        if self._pool is not None and self._pool_key != key:
            self._pool.close()
            self._pool = None
        if self._pool is None:
            from repro.parallel import WorkerPool

            twins = {
                name: self.procedures.get_batched(name)
                for name in self.procedures.batched_names()
            }
            self._pool = WorkerPool(
                self.database,
                twins,
                num_workers=self.config.parallel_workers,
                start_method=self.config.resolved_start_method(),
                delayed_columns=delayed,
                registry_version=self.procedures.version,
            )
            self._pool_key = key
        return self._pool

    def _ensure_backend(self):
        """The resolved array backend, re-resolved when
        ``config.array_backend`` changes after engine construction (the
        config is frozen, but callers swap whole config objects — the
        same invalidation contract :meth:`_ensure_pool` honors for the
        procedure registry)."""
        name = self.config.array_backend
        if self._backend is not None and self._backend_name == name:
            return self._backend
        from repro.xp import resolve_backend

        if self._residency is not None:
            # The resident columns belong to the outgoing backend: fence
            # dirty state back to host with *its* crossings, then unhook
            # so the new backend re-uploads lazily from current host.
            self._residency.detach()
            self._residency = None
            self._residency_key = None
        resolved = name
        if name == "auto" and (
            not self.config.batched_exec
            or self.config.parallel_workers > 0
            or self.config.sanitize
        ):
            # device backends are invalid under these configurations
            # (explicit names fail ConfigError); auto degrades to host
            resolved = "numpy"
        backend = resolve_backend(resolved)
        self._backend = backend
        self._backend_name = name
        self.conflict_log.set_backend(backend)
        return backend

    def _ensure_residency(self):
        """The device-resident table cache for the current backend, or
        ``None`` when ``config.device_resident`` is off.  Re-keyed on
        (backend, flag, pinning policy) the same way :meth:`_ensure_pool`
        re-keys on the registry version — a swapped config object
        detaches the old cache (fencing dirty columns through the old
        backend) and builds a fresh one lazily."""
        backend = self._ensure_backend()
        if not self.config.device_resident:
            if self._residency is not None:
                self._residency.detach()
                self._residency = None
                self._residency_key = None
            return None
        key = (self._backend_name, self.config.resident_tables)
        if self._residency is not None and self._residency_key == key:
            return self._residency
        from repro.xp.residency import ResidencyManager

        if self._residency is not None:
            self._residency.detach()
        self._residency = ResidencyManager(
            backend, self.database, self.config.resident_tables
        )
        self._residency_key = key
        return self._residency

    # ------------------------------------------------------------------
    def run_batch(self, transactions: list[Transaction]) -> BatchResult:
        """Process one batch end to end; returns its result."""
        if not transactions:
            empty = BatchStats(self._batch_counter, 0, 0, 0)
            self._batch_counter += 1
            return BatchResult(empty, [], [], [])
        batch_index = self._batch_counter
        self._batch_counter += 1
        self.batch_log.append_batch(batch_index, transactions)
        backend = self._ensure_backend()
        xfer0 = backend.transfer_stats().snapshot()
        device = self.device
        start_ns = device.stream(self.h2d_stream).time_ns
        lat_factor = transfer_latency_factor(self.memory_plan)

        # -- host -> device: transaction parameters ---------------------
        h2d_bytes = len(transactions) * self.config.txn_param_bytes
        transfer_ns = device.copy(
            int(h2d_bytes * lat_factor), "h2d", name="params", stream=self.h2d_stream
        )
        h2d_done = device.create_event("h2d_done")
        device.stream(self.h2d_stream).record_event(h2d_done)
        device.stream(self.compute_stream).wait_event(h2d_done)

        # -- phase 1: execute -------------------------------------------
        exec_data = _ExecutionData()
        host_t0 = time.perf_counter()
        self._trace_begin_phase("phase:execute")
        with device.kernel(
            "execute", threads=max(1, len(transactions)), stream=self.compute_stream
        ) as ctx, backend.kernel_phase("execute"):
            self._execute_phase(transactions, exec_data, ctx)
        exec_entry = device.profiler.entries[-1]
        exec_ns = exec_entry.duration_ns
        exec_kernel_stats = ctx.stats
        exec_geometry = ctx.geometry
        self._phase_sync()
        self._trace_end_phase()
        host_t1 = time.perf_counter()
        xfer_exec = backend.transfer_stats().snapshot()

        # -- phase 2: conflict detection --------------------------------
        self._trace_begin_phase("phase:conflict")
        with device.kernel(
            "conflict",
            threads=max(1, exec_data.total_ops),
            stream=self.compute_stream,
        ) as ctx, backend.kernel_phase("conflict"):
            flags = self._conflict_phase(transactions, exec_data, ctx)
        conflict_ns = device.profiler.entries[-1].duration_ns
        self._phase_sync()
        self._trace_end_phase()
        host_t2 = time.perf_counter()
        xfer_conf = backend.transfer_stats().snapshot()

        # -- phase 3: write-back -----------------------------------------
        committed_mask = commit_mask(flags, self.config.logical_reordering)
        self._trace_begin_phase("phase:writeback")
        with device.kernel(
            "writeback",
            threads=max(1, int(committed_mask.sum())),
            stream=self.compute_stream,
        ) as ctx, backend.kernel_phase("writeback"):
            rwset_bytes = self._writeback_phase(
                transactions, exec_data, committed_mask, ctx
            )
        writeback_ns = device.profiler.entries[-1].duration_ns
        self._phase_sync()
        self._trace_end_phase()
        host_t3 = time.perf_counter()
        xfer_wb = backend.transfer_stats().snapshot()

        # -- device -> host: read/write sets + conflict flags -----------
        compute_done = device.create_event("compute_done")
        device.stream(self.compute_stream).record_event(compute_done)
        device.stream(self.d2h_stream).wait_event(compute_done)
        d2h_bytes = rwset_bytes + len(transactions) * self.config.txn_flag_bytes
        rwset_ns = device.copy(
            int(d2h_bytes * lat_factor), "d2h", name="rwsets", stream=self.d2h_stream
        )
        transfer_ns += rwset_ns
        interval = self.config.full_sync_interval
        if interval and (batch_index + 1) % interval == 0:
            # Synchronization method 1 (§IV): ship the whole snapshot
            # back to the CPU on the user-defined interval.
            transfer_ns += device.copy(
                self.database.nbytes, "d2h", name="full_sync",
                stream=self.d2h_stream,
            )
            if self._residency is not None:
                # Under residency the interval sync is a *real* fence:
                # every dirty resident column ships back to host.
                self._residency.sync_all_to_host()
        end_ns = device.stream(self.d2h_stream).time_ns

        result = self._assemble_result(
            transactions,
            exec_data,
            flags,
            committed_mask,
            batch_index,
            latency_ns=end_ns - start_ns,
            transfer_ns=transfer_ns,
            phase_ns={
                "execute": exec_ns,
                "conflict": conflict_ns,
                "writeback": writeback_ns,
            },
        )
        self.last_host_phase_s = {
            "execute": host_t1 - host_t0,
            "conflict": host_t2 - host_t1,
            "writeback": host_t3 - host_t2,
            "assemble": time.perf_counter() - host_t3,
        }
        result.stats.rwset_ns = rwset_ns
        result.stats.registered_reads = int(exec_data.read_keys.size)
        result.stats.registered_writes = int(exec_data.write_keys.size)
        result.stats.max_atomic_chain = exec_kernel_stats.atomic_max_chain
        result.stats.atomic_ops = exec_kernel_stats.atomic_ops
        result.stats.atomic_serialized = exec_kernel_stats.atomic_serialized
        result.stats.divergent_branches = exec_kernel_stats.divergent_branches
        result.stats.occupancy = occupancy(
            KernelResources(threads_per_block=exec_geometry.block)
        ).occupancy
        xfer1 = backend.transfer_stats().snapshot()
        self._last_transfers = {k: xfer1[k] - xfer0[k] for k in xfer1}
        self._last_phase_transfers = {
            "execute": {k: xfer_exec[k] - xfer0[k] for k in xfer1},
            "conflict": {k: xfer_conf[k] - xfer_exec[k] for k in xfer1},
            "writeback": {k: xfer_wb[k] - xfer_conf[k] for k in xfer1},
            "other": {k: xfer1[k] - xfer_wb[k] for k in xfer1},
        }
        self._record_observability(
            result.stats, start_ns, end_ns,
            exec_span=(exec_entry.start_ns, exec_entry.duration_ns),
        )
        self.conflict_log.end_batch()
        self.batch_log.record_outcome(
            batch_index,
            [t.tid for t in result.committed],
            [t.tid for t in result.aborted],
        )
        return result

    # ------------------------------------------------------------------
    def _phase_sync(self) -> None:
        """Inter-kernel ``cudaDeviceSynchronize`` (charged to the compute
        stream so pipelined copy streams keep flowing, as CUDA events
        would allow)."""
        self.device.stream(self.compute_stream).enqueue(
            self.device.cost_model.sync_ns()
        )

    # ------------------------------------------------------------------
    # Tracing + metrics (``config.trace``).  Phase spans live on the
    # compute stream's track and wrap the phase kernel plus its closing
    # sync, so the span tree per stream reads batch -> phase -> kernel;
    # whole-batch envelopes are async spans (they overlap under
    # pipelining).  Timestamps come off the stream clocks — never host
    # time — so identical runs produce identical traces.
    def _trace_begin_phase(self, name: str) -> None:
        if self.tracer is not None:
            clock = self.device.stream(self.compute_stream).time_ns
            self.tracer.begin(name, self.compute_stream, clock, cat="phase")

    def _trace_end_phase(self) -> None:
        if self.tracer is not None:
            clock = self.device.stream(self.compute_stream).time_ns
            self.tracer.end(self.compute_stream, clock)

    def _record_observability(
        self,
        stats: BatchStats,
        start_ns: float,
        end_ns: float,
        exec_span: tuple[float, float] | None = None,
    ) -> None:
        """Populate the trace envelope, counter series and metrics
        registry for one finished batch (no-op when tracing is off)."""
        if self.tracer is None and self.metrics is None:
            return
        self._record_group_observability(exec_span)
        self._record_shard_observability(exec_span)
        log_metrics = self.conflict_log.batch_metrics()
        stats.bucket_load_factor = float(log_metrics["load_factor"])
        stats.bucket_expanded_slots = int(log_metrics["expanded_slots"])
        if self.tracer is not None:
            self.tracer.async_span(
                f"batch {stats.batch_index}",
                id=stats.batch_index,
                start_ns=start_ns,
                end_ns=end_ns,
                args={
                    "num_txns": stats.num_txns,
                    "committed": stats.committed,
                    "aborted": stats.aborted,
                    "logic_aborted": stats.logic_aborted,
                    "commit_rate": stats.commit_rate,
                },
            )
            self.tracer.counter(
                "commit_rate", end_ns, value=stats.commit_rate
            )
            self.tracer.counter(
                "atomics", end_ns,
                ops=stats.atomic_ops, serialized=stats.atomic_serialized,
            )
            self.tracer.counter(
                "conflict_log_load", end_ns,
                load_factor=stats.bucket_load_factor,
            )
            if self._last_transfers.get("count"):
                # real-transfer ledger of the array backend (absent on
                # the host reference, whose ledger stays at zero)
                self.tracer.counter(
                    "transfers", end_ns,
                    h2d_bytes=self._last_transfers["h2d_bytes"],
                    d2h_bytes=self._last_transfers["d2h_bytes"],
                )
        if self.metrics is not None:
            m = self.metrics
            m.counter("txn.admitted").inc(stats.num_txns)
            m.counter("txn.committed").inc(stats.committed)
            m.counter("txn.aborted").inc(stats.aborted)
            m.counter("txn.logic_aborted").inc(stats.logic_aborted)
            m.counter("atomic.ops").inc(stats.atomic_ops)
            m.counter("atomic.serialized").inc(stats.atomic_serialized)
            m.gauge("atomic.max_chain").set(stats.max_atomic_chain)
            m.counter("warp.divergent_branches").inc(stats.divergent_branches)
            m.gauge("kernel.occupancy.execute").set(stats.occupancy)
            m.gauge("conflict_log.load_factor").set(stats.bucket_load_factor)
            m.gauge("conflict_log.expanded_slots").set(
                stats.bucket_expanded_slots
            )
            m.counter("conflict_log.registered_reads").inc(
                stats.registered_reads
            )
            m.counter("conflict_log.registered_writes").inc(
                stats.registered_writes
            )
            if self._last_transfers.get("count"):
                m.counter("transfer.h2d_bytes").inc(
                    self._last_transfers["h2d_bytes"]
                )
                m.counter("transfer.d2h_bytes").inc(
                    self._last_transfers["d2h_bytes"]
                )
                m.counter("transfer.count").inc(self._last_transfers["count"])
                for phase, delta in self._last_phase_transfers.items():
                    if not delta.get("count"):
                        continue
                    m.counter(f"transfer.{phase}.h2d_bytes").inc(
                        delta["h2d_bytes"]
                    )
                    m.counter(f"transfer.{phase}.d2h_bytes").inc(
                        delta["d2h_bytes"]
                    )
            reasons = m.histogram("engine.abort_reason")
            for reason, count in stats.abort_reasons.items():
                reasons.observe(reason, count)
            depths = m.histogram("engine.reschedule_depth")
            for attempts, count in stats.commit_attempts.items():
                depths.observe(attempts - 1, count)

    #: Track carrying per-procedure-group execute spans (Perfetto shows
    #: which procedure group dominates a batch's execute kernel).
    GROUP_TRACK = "execute.groups"

    def _record_group_observability(
        self, exec_span: tuple[float, float] | None
    ) -> None:
        """Per-procedure-group spans and counters for the execute phase.

        The simulated execute kernel is one timeline entry; its window
        is subdivided proportionally by each group's op count (the same
        work measure the cost model charges), which keeps the spans
        deterministic — pure integer-derived float math over simulated
        clocks, no host time.
        """
        groups = self._last_groups
        if not groups:
            return
        if self.tracer is not None and exec_span is not None:
            g_start, g_dur = exec_span
            total_ops = sum(ops for _, _, ops in groups) or 1
            cursor = g_start
            for gi, (name, lanes, ops) in enumerate(groups):
                end = (
                    max(cursor, g_start + g_dur)
                    if gi == len(groups) - 1
                    else cursor + g_dur * ops / total_ops
                )
                self.tracer.complete(
                    f"execute:{name}", self.GROUP_TRACK, cursor,
                    end - cursor, cat="group",
                    args={"lanes": lanes, "ops": ops},
                )
                cursor = end
        if self.metrics is not None:
            ops_hist = self.metrics.histogram("execute.procedure_ops")
            size_hist = self.metrics.histogram("execute.group_size")
            for name, lanes, ops in groups:
                ops_hist.observe(name, ops)
                size_hist.observe(name, lanes)

    #: Track carrying per-worker shard spans when the process-parallel
    #: executor is on (empty track otherwise).
    SHARD_TRACK = "execute.shards"

    def _record_shard_observability(
        self, exec_span: tuple[float, float] | None
    ) -> None:
        """Per-worker shard spans and counters (parallel execute only).

        Shard spans subdivide the simulated execute window by op count,
        like the group spans: the simulated cost model charges the same
        work regardless of which process ran a lane, so the spans stay
        deterministic.  The one host-clock measurement — shard merge
        time — goes only to the metrics registry, never the tracer, so
        traces remain byte-stable run to run.
        """
        shards = self._last_shards
        if not shards:
            return
        if self.tracer is not None and exec_span is not None:
            g_start, g_dur = exec_span
            total_ops = sum(ops for _, _, ops in shards) or 1
            cursor = g_start
            for si, (worker, lanes, ops) in enumerate(shards):
                end = (
                    max(cursor, g_start + g_dur)
                    if si == len(shards) - 1
                    else cursor + g_dur * ops / total_ops
                )
                self.tracer.complete(
                    f"shard:w{worker}", self.SHARD_TRACK, cursor,
                    end - cursor, cat="shard",
                    args={"worker": worker, "lanes": lanes, "ops": ops},
                )
                cursor = end
        if self.metrics is not None:
            lanes_hist = self.metrics.histogram("execute.shard_lanes")
            for worker, lanes, _ops in shards:
                lanes_hist.observe(f"w{worker}", lanes)
            self.metrics.gauge("execute.merge_ns").set(
                self._last_merge_s * 1e9
            )

    # ------------------------------------------------------------------
    # Shadow-access recording (``config.sanitize``).  Addresses are
    # conflict-granular — ``row * num_groups + group`` — so the shadow
    # cell matches the unit the WAW/RAW/WAR rules protect: a clean
    # engine is provably race-free at this granularity, and anything the
    # rules would miss shows up as a finding.  Thread ids are batch
    # indices (table traffic) or TIDs (conflict-log atomics).
    def _sanitize_table_reads(self, data: "_ExecutionData") -> None:
        san = self.sanitizer
        if san is None or data.read_table_arr.size == 0:
            return
        from repro.analysis.sanitizer import AccessKind

        for t in np.unique(data.read_table_arr):
            m = data.read_table_arr == t
            table = self.database.table_by_id(int(t))
            num_groups = max(1, self.flags.num_groups(int(t)))
            addr = data.read_row_arr[m] * num_groups + data.read_group_arr[m]
            san.record(
                f"table:{table.name}", addr, data.read_txn_arr[m], AccessKind.READ
            )

    def _sanitize_minima_reads(self, data: "_ExecutionData") -> None:
        """Conflict-kernel loads of the registered minima (plain reads;
        the atomicMin writes happened one sync point earlier)."""
        san = self.sanitizer
        if san is None:
            return
        from repro.analysis.sanitizer import AccessKind

        if data.write_keys.size:
            san.record(
                "conflict_log.write", data.write_keys, data.write_txn_arr,
                AccessKind.READ,
            )
            san.record(
                "conflict_log.read", data.write_keys, data.write_txn_arr,
                AccessKind.READ,
            )
        if data.read_keys.size:
            san.record(
                "conflict_log.write", data.read_keys, data.read_txn_arr,
                AccessKind.READ,
            )

    def _sanitize_writeback(self, txn_idx: int, local, delayed_adds) -> None:
        """One committed transaction's installs.  Plain writes for owned
        cells (the WAW rule guarantees a single committed writer per
        conflict group); atomic adds for delayed columns (commutative,
        multiple committers allowed)."""
        san = self.sanitizer
        if san is None:
            return
        from repro.analysis.sanitizer import AccessKind

        group_of = self.flags.group_of
        for table_id, row, column in (*local.writes, *local.adds):
            table = self.database.table_by_id(table_id)
            num_groups = max(1, self.flags.num_groups(table_id))
            addr = row * num_groups + group_of(table_id, column)
            san.record(f"table:{table.name}", addr, txn_idx, AccessKind.WRITE)
        for table_id, key in local.inserts:
            table = self.database.table_by_id(table_id)
            san.record(
                f"table:{table.name}:inserts", key, txn_idx, AccessKind.WRITE
            )
        for table_id, row, column, _delta in delayed_adds:
            table = self.database.table_by_id(table_id)
            num_groups = max(1, self.flags.num_groups(table_id))
            addr = row * num_groups + group_of(table_id, column)
            san.record(
                f"table:{table.name}", addr, txn_idx, AccessKind.WRITE, atomic=True
            )

    # ------------------------------------------------------------------
    def _procedure_cache(self) -> dict[str, Procedure]:
        """Engine-level procedure lookup cache, rebuilt only when the
        registry actually changes (not once per batch)."""
        version = self.procedures.version
        if version != self._proc_cache_version:
            self._proc_cache = {}
            self._proc_cache_version = version
        return self._proc_cache

    def _resolve_procedure(self, name: str) -> Procedure:
        """Cached procedure lookup that can never poison the cache: an
        unknown name raises a clear engine error naming the procedure
        (and what *is* registered) without caching anything."""
        cache = self._procedure_cache()
        proc = cache.get(name)
        if proc is None:
            try:
                proc = self.procedures.get(name)
            except TransactionError:
                known = ", ".join(self.procedures.names()) or "(none)"
                raise TransactionError(
                    f"batch references unknown procedure {name!r}; "
                    f"registered procedures: {known}"
                ) from None
            cache[name] = proc
        return proc

    def _execute_one(self, txn, proc, data: "_ExecutionData") -> None:
        """Run one transaction through its scalar procedure (the
        per-transaction path; also the batched executor's fallback)."""
        local_ctx = BufferedContext(self.database)
        try:
            proc(local_ctx, *txn.params)
        except (TransactionAborted, KeyNotFound):
            # Procedure rolled back, or a client-pre-resolved key
            # missed (e.g. Delivery naming an order whose NewOrder
            # aborted): a deterministic logic abort either way.
            txn.status = TxnStatus.LOGIC_ABORTED
            txn.abort_reason = "logic"
            txn.ops = local_ctx.ops
            data.locals_by_tid[txn.tid] = LocalSets()
            return
        txn.status = TxnStatus.EXECUTED
        txn.ops = local_ctx.ops
        local = local_ctx.local
        # Deltas on delayed columns leave the local set: they are
        # merged by the delayed updater at write-back, not by
        # apply_local_sets.
        delayed_set = self.delayed.columns  # frozenset[(table_id, column)]
        delayed_locs = [
            loc
            for loc in local.adds
            if (loc[0], loc[2]) in delayed_set
        ] if delayed_set and local.adds else []
        if delayed_locs:
            data.delayed_adds_by_txn[txn.tid] = [
                (t, row, col, local.adds.pop((t, row, col)))
                for t, row, col in delayed_locs
            ]
        data.locals_by_tid[txn.tid] = local
        if local_ctx.ranges:
            data.ranges_by_tid[txn.tid] = local_ctx.ranges

    def _execute_phase(self, transactions, data: "_ExecutionData", ctx) -> None:
        """Run procedures, buffer effects, register TIDs."""
        if self.config.batched_exec:
            self._execute_batched(transactions, data)
        else:
            cache = self._procedure_cache()
            for txn in transactions:
                txn.reset_for_execution()
                proc = cache.get(txn.procedure_name)
                if proc is None:
                    proc = self._resolve_procedure(txn.procedure_name)
                self._execute_one(txn, proc, data)

        # Collect op arrays + per-op costs, skipping logic aborts for
        # registration but keeping their cost (the lanes did the work).
        db = self.database
        if self.config.columnar_ops:
            table_txns, touched_rows = self._collect_columnar(transactions, data, ctx)
        else:
            table_txns, touched_rows = self._collect_reference(transactions, data, ctx)

        if self.tracer is not None or self.metrics is not None:
            tallies: dict[str, list[int]] = {}
            for txn, ops in zip(transactions, data.op_counts.tolist()):
                t = tallies.setdefault(txn.procedure_name, [0, 0])
                t[0] += 1
                t[1] += ops
            self._last_groups = [
                (name, t[0], t[1]) for name, t in tallies.items()
            ]

        # Popularity verdicts drive this batch's bucket sizes.
        self.last_heats = self.hotspot.measure(table_txns)
        self.conflict_log.begin_batch(self.last_heats)

        # Unified memory: fault in the pages backing accessed rows.
        # Pages are touched in sorted order so the LRU tracker sees the
        # same sequence whichever collector built the row sets.
        if self.memory_plan.mode is MemoryMode.UNIFIED:
            faults = 0
            for table_id in sorted(touched_rows):
                rows = touched_rows[table_id]
                table = db.table_by_id(table_id)
                row_bytes = table.schema.row_bytes
                rows_arr = (
                    rows
                    if isinstance(rows, np.ndarray)
                    else np.fromiter(rows, dtype=np.int64, count=len(rows))
                )
                pages = np.unique(
                    rows_arr * row_bytes // self.device.config.um_page_bytes
                )
                faults += self.device.memory.pages.touch(table.name, pages)
            ctx.add_page_faults(faults)

        # TID registration (the execution-phase atomics).
        data.read_keys = self.conflict_log.encode(
            data.read_table_arr, data.read_row_arr, data.read_group_arr
        )
        data.write_keys = self.conflict_log.encode(
            data.write_table_arr, data.write_row_arr, data.write_group_arr
        )
        ctx.add_instructions(
            _REGISTER_INSTRUCTIONS
            * (data.read_keys.size + data.write_keys.size + data.ins_key_arr.size)
        )
        self.conflict_log.register_reads(
            data.read_keys, data.read_tid_arr, data.read_table_arr, ctx
        )
        self.conflict_log.register_writes(
            data.write_keys, data.write_tid_arr, data.write_table_arr, ctx
        )
        self.conflict_log.register_inserts(
            data.ins_table_arr, data.ins_key_arr, data.ins_tid_arr, ctx
        )
        self._sanitize_table_reads(data)

    # ------------------------------------------------------------------
    def _execute_batched(self, transactions, data: "_ExecutionData") -> None:
        """Group-by-procedure vectorized execution (``batched_exec``).

        Each group with a registered ``BatchProcedure`` twin runs as one
        vectorized call over a :class:`BatchedContext`; groups without a
        twin — and individual lanes the twin sends to fallback — run
        through the scalar path, so third-party procedures keep working.
        Either way every transaction ends with the same ``txn.ops``,
        status and ranges the scalar loop would have produced (a twin
        lane's ``txn.ops`` is a lazy window onto its group's op matrix),
        each group's matrix lands in ``data.op_groups`` for the
        collector, and the batch-wide columnar locals land in
        ``data.batch_locals`` for the scatter-based write-back.
        """
        n = len(transactions)
        groups: dict[str, list[int]] = {}
        for i, txn in enumerate(transactions):
            txn.reset_for_execution()
            groups.setdefault(txn.procedure_name, []).append(i)
        if self.config.parallel_workers > 0:
            self._execute_batched_parallel(transactions, data, groups)
            return
        delayed_fn = (
            self.delayed.delayed_mask if self.delayed.columns else None
        )
        parts: list[GroupLocals] = []
        for name, idxs in groups.items():
            proc = self._resolve_procedure(name)
            batched = self.procedures.get_batched(name)
            if batched is None:
                parts.append(
                    self._execute_scalar_group(transactions, data, proc, idxs)
                )
                continue
            bctx = BatchedContext(
                self.database,
                [transactions[i].params for i in idxs],
                delayed_mask_fn=delayed_fn,
                xp=self._ensure_backend(),
                residency=self._ensure_residency(),
            )
            batched(bctx, bctx.params)
            mat, counts, g_locals, ranges_by_lane = bctx.finalize()
            parts.append(self._apply_batched_group(
                transactions, data, proc, idxs, mat, counts, g_locals,
                ranges_by_lane, bctx.fallback, bctx.aborted,
            ))
        data.batch_locals = GroupLocals.merge(parts, n)

    def _execute_scalar_group(
        self, transactions, data: "_ExecutionData", proc, idxs: list[int]
    ) -> GroupLocals:
        """One twin-less group through the scalar path, folded columnar."""
        part = GroupLocals(len(transactions))
        for i in idxs:
            txn = transactions[i]
            self._execute_one(txn, proc, data)
            self._fold_scalar_locals(part, i, txn, data)
        return part

    def _apply_batched_group(
        self,
        transactions,
        data: "_ExecutionData",
        proc,
        idxs: list[int],
        mat: np.ndarray,
        counts: np.ndarray,
        g_locals: GroupLocals,
        ranges_by_lane: dict,
        fallback: np.ndarray,
        aborted: np.ndarray,
    ) -> GroupLocals:
        """Apply one group's finalized vectorized results — produced
        in-process or merged back from worker shards — to the
        transactions: hand the lane-sorted op matrix to the collector,
        give each lane a lazy window onto it, set statuses, re-run
        fallback lanes through the scalar path."""
        n = len(transactions)
        positions = np.asarray(idxs, dtype=np.int64)
        # fallback lanes own no matrix rows (count 0); the collector
        # takes their ops from the scalar re-run instead
        live = ~np.asarray(fallback, dtype=bool)
        data.op_groups.append((positions[live], mat, counts[live]))
        bounds = np.zeros(len(idxs) + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        part = g_locals.rekeyed(positions, n)
        bounds_l = bounds.tolist()
        fallback_l = fallback.tolist()
        aborted_l = aborted.tolist()
        window = OpColumns.window
        executed = TxnStatus.EXECUTED
        get_ranges = ranges_by_lane.get
        for li, i in enumerate(idxs):
            txn = transactions[i]
            if fallback_l[li]:
                self._execute_one(txn, proc, data)
                self._fold_scalar_locals(part, i, txn, data)
                continue
            txn.ops = window(mat, bounds_l[li], bounds_l[li + 1])
            if aborted_l[li]:
                txn.status = TxnStatus.LOGIC_ABORTED
                txn.abort_reason = "logic"
            else:
                txn.status = executed
                lane_ranges = get_ranges(li)
                if lane_ranges:
                    data.ranges_by_tid[txn.tid] = lane_ranges
        return part

    def _execute_batched_parallel(
        self, transactions, data: "_ExecutionData", groups: dict[str, list[int]]
    ) -> None:
        """Shard twin-backed groups across the worker pool
        (``config.parallel_workers``).

        Workers execute contiguous lane shards against the shared-memory
        snapshot while the parent runs the twin-less groups; results
        merge back in lane order, so every array fed to conflict
        detection is byte-identical to the in-process batched path.
        Fallback lanes are re-run scalar in the parent, exactly as the
        in-process path does.
        """
        n = len(transactions)
        pool = self._ensure_pool()
        plan_groups: list[tuple[str, list[int]]] = []
        sharded: list[tuple[str, list[tuple]]] = []
        for name, idxs in groups.items():
            # resolve up front: unknown procedures must raise before any
            # dispatch, like the in-process group loop would
            self._resolve_procedure(name)
            if self.procedures.get_batched(name) is not None:
                plan_groups.append((name, idxs))
                sharded.append(
                    (name, [transactions[i].params for i in idxs])
                )
        splits = None
        if self.shard_plan is not None:
            # Shard-major batches split by ownership, not evenly: worker
            # w gets exactly shard w's lanes of each group (the plan is
            # nondecreasing within a group, so the counts describe
            # contiguous runs).
            splits = [
                np.bincount(
                    self.shard_plan[np.asarray(idxs, dtype=np.int64)],
                    minlength=pool.num_workers,
                ).tolist()
                for _name, idxs in plan_groups
            ]
        pool.dispatch(sharded, splits=splits)
        # parent-side work overlaps the workers: twin-less groups run
        # scalar here while the shards execute
        scalar_parts: dict[str, GroupLocals] = {}
        try:
            for name, idxs in groups.items():
                if self.procedures.get_batched(name) is None:
                    scalar_parts[name] = self._execute_scalar_group(
                        transactions, data, self._resolve_procedure(name), idxs
                    )
        except BaseException:
            # still drain the pipes (or the next dispatch deadlocks),
            # but never let a pool error mask the scalar one
            try:
                pool.collect()
            except Exception:
                pass
            raise
        merged = pool.collect()
        parts: list[GroupLocals] = []
        si = 0
        for name, idxs in groups.items():
            if name in scalar_parts:
                parts.append(scalar_parts[name])
                continue
            mat, counts, g_locals, ranges_by_lane, fallback, aborted = merged[si]
            si += 1
            parts.append(self._apply_batched_group(
                transactions, data, self._resolve_procedure(name), idxs,
                mat, counts, g_locals, ranges_by_lane, fallback, aborted,
            ))
        data.batch_locals = GroupLocals.merge(parts, n)
        if self.tracer is not None or self.metrics is not None:
            self._last_shards = list(pool.last_shard_stats)
            self._last_merge_s = pool.last_merge_s

    def _fold_scalar_locals(
        self, part: GroupLocals, idx: int, txn, data: "_ExecutionData"
    ) -> None:
        """Fold one scalar-executed transaction's local sets into the
        batch-wide columnar locals (fallback lanes, scalar-only
        procedures, and logic aborts — whose locals are empty)."""
        part.add_scalar_locals(
            idx,
            data.locals_by_tid[txn.tid],
            data.delayed_adds_by_txn.get(txn.tid, ()),
        )

    # ------------------------------------------------------------------
    def _collect_columnar(self, transactions, data: "_ExecutionData", ctx):
        """Batch-wide columnar op collection.

        One flat ``(n_ops, 6)`` int64 matrix feeds everything: warp
        planning, ``np.bincount`` cost accounting, lexsort reservation
        dedup, touched-page collection, and table popularity counts.
        Returns ``(table_txns, touched_rows)`` for the shared tail.
        """
        db = self.database
        n = len(transactions)
        executed = TxnStatus.EXECUTED
        tids = np.fromiter((t.tid for t in transactions), dtype=np.int64, count=n)
        registers = np.fromiter(
            (t.status is executed for t in transactions), dtype=bool, count=n
        )
        mat, counts = _batch_op_matrix(transactions, data.op_groups)
        data.op_counts = counts
        total = mat.shape[0]
        kind = mat[:, 0]
        table = mat[:, 1]
        row = mat[:, 2]
        col = mat[:, 3]
        key = mat[:, 5]
        op_txn = np.repeat(np.arange(n, dtype=np.int64), counts)

        # Warp planning over the whole batch (grouped vs naive).
        exec_plan = plan_arrays(kind, table, counts, self.config.adaptive_warps)
        ctx.add_divergent_branches(exec_plan.divergent_branches)

        # Per-op hardware costs, batch-wide by kind.
        kind_counts = np.bincount(kind, minlength=NUM_OP_KINDS)
        n_reads = int(kind_counts[OpKind.READ])
        n_inserts = int(kind_counts[OpKind.INSERT])
        n_rmw = total - n_reads - n_inserts  # WRITEs + ADDs
        ctx.add_instructions(_OP_INSTRUCTIONS * total)
        ctx.add_global_reads(
            _READ_GLOBAL_READS * n_reads + _WRITE_GLOBAL_READS * n_rmw
        )
        ctx.add_global_writes(
            _INSERT_GLOBAL_WRITES * n_inserts + _WRITE_GLOBAL_WRITES * n_rmw
        )

        # Range predicates register for phantom checks; B-tree descents
        # cost their height.  Few transactions carry ranges, so this
        # stays a loop over just those.
        range_rows: list[tuple[int, int, int, int, int]] = []
        if data.ranges_by_tid:
            for i, txn in enumerate(transactions):
                if not registers[i]:
                    continue
                for table_id, lo, hi in data.ranges_by_tid.get(txn.tid, ()):
                    range_rows.append((table_id, lo, hi, txn.tid, i))
                    ordered = db.table_by_id(table_id).ordered
                    if ordered is not None:  # B-tree descent per range
                        ctx.add_global_reads(ordered.height)
        ra = np.asarray(range_rows, dtype=np.int64).reshape(len(range_rows), 5)
        data.range_table_arr = ra[:, 0]
        data.range_lo_arr = ra[:, 1]
        data.range_hi_arr = ra[:, 2]
        data.range_tid_arr = ra[:, 3]
        data.range_txn_arr = ra[:, 4]

        # Distinct (txn, table) pairs -> per-table accessing-txn counts.
        # The pair space is tiny (n x num_tables), so a scatter into a
        # boolean grid beats a sort-based np.unique.
        num_tables = db.num_tables
        seen_pairs = np.zeros((n, num_tables), dtype=bool)
        seen_pairs.reshape(-1)[op_txn * num_tables + table] = True
        if range_rows:
            seen_pairs[ra[:, 4], ra[:, 0]] = True
        per_table = seen_pairs.sum(axis=0)
        table_txns = {int(t): int(c) for t, c in enumerate(per_table) if c}

        # Rows with real slots, per table (unified-memory page faults).
        touched_rows: dict[int, np.ndarray] = {}
        if self.memory_plan.mode is MemoryMode.UNIFIED:
            has_row = row >= 0
            t_ok = table[has_row]
            r_ok = row[has_row]
            for table_id in np.unique(t_ok):
                touched_rows[int(table_id)] = np.unique(r_ok[t_ok == table_id])

        # Insert reservations (registering transactions only).
        reg_op = registers[op_txn]
        ins_mask = reg_op & (kind == OpKind.INSERT)
        data.ins_table_arr = table[ins_mask]
        data.ins_key_arr = key[ins_mask]
        data.ins_txn_arr = op_txn[ins_mask]
        data.ins_tid_arr = tids[data.ins_txn_arr]

        # Delayed-column discipline: within a batch those columns may
        # only be touched through ADD (checked before the own-insert
        # row filter, exactly like the reference loop).
        non_insert = reg_op & (kind != OpKind.INSERT)
        is_add = kind == OpKind.ADD
        if self.delayed.columns:
            delayed_ops = self.delayed.delayed_mask(table, col)
            bad = non_insert & delayed_ops & ~is_add
            if bad.any():
                offender = column_name(int(col[np.flatnonzero(bad)[0]]))
                raise TransactionError(
                    f"column {offender!r} is delayed-update managed and "
                    f"may only be accessed with ADD in a batch"
                )
            skip_delayed = delayed_ops & is_add
        else:
            skip_delayed = np.zeros(total, dtype=bool)

        # Reservation dedup: one (txn, table, row, group) per side.
        # Rows < 0 are reads of the transaction's own insert — the
        # insert reservation already guards that key.
        candidate = non_insert & ~skip_delayed & (row >= 0)
        group = self.flags.group_lookup(table, col)
        read_sel = candidate & ((kind == OpKind.READ) | is_add)
        write_sel = candidate & ((kind == OpKind.WRITE) | is_add)
        read_res, write_res = _dedup_reservations_two_sided(
            op_txn, table, row, group, candidate, read_sel, write_sel
        )
        (
            data.read_table_arr,
            data.read_row_arr,
            data.read_group_arr,
            data.read_txn_arr,
        ) = read_res
        data.read_tid_arr = tids[data.read_txn_arr]
        (
            data.write_table_arr,
            data.write_row_arr,
            data.write_group_arr,
            data.write_txn_arr,
        ) = write_res
        data.write_tid_arr = tids[data.write_txn_arr]
        return table_txns, touched_rows

    # ------------------------------------------------------------------
    def _collect_reference(self, transactions, data: "_ExecutionData", ctx):
        """Per-op reference collector (the seed implementation),
        retained behind ``config.columnar_ops=False`` for differential
        testing and as the wallclock-bench baseline."""
        db = self.database
        delayed = self.delayed
        group_of = self.flags.group_of
        table_txns: Counter = Counter()

        # Warp planning over the whole batch (grouped vs naive).
        exec_plan = plan(transactions, self.config.adaptive_warps)
        ctx.add_divergent_branches(exec_plan.divergent_branches)

        touched_rows: dict[int, set[int]] = {}
        data.op_counts = np.fromiter(
            (len(t.ops) for t in transactions), dtype=np.int64,
            count=len(transactions),
        )
        for idx, txn in enumerate(transactions):
            registers = txn.status is TxnStatus.EXECUTED
            tables_seen: set[int] = set()
            # One reservation per (item, group) per transaction: the
            # local set holds a single entry per item, so repeated
            # column ops on one row register exactly once.
            seen_reads: set[tuple[int, int, int]] = set()
            seen_writes: set[tuple[int, int, int]] = set()
            for op in txn.ops:
                kind = op.kind
                ctx.add_instructions(_OP_INSTRUCTIONS)
                if kind == OpKind.READ:
                    ctx.add_global_reads(_READ_GLOBAL_READS)
                elif kind == OpKind.INSERT:
                    ctx.add_global_writes(_INSERT_GLOBAL_WRITES)
                else:
                    ctx.add_global_reads(_WRITE_GLOBAL_READS)
                    ctx.add_global_writes(_WRITE_GLOBAL_WRITES)
                tables_seen.add(op.table_id)
                if op.row >= 0:
                    touched_rows.setdefault(op.table_id, set()).add(op.row)
                if not registers:
                    continue
                if kind == OpKind.INSERT:
                    data.ins_table.append(op.table_id)
                    data.ins_key.append(op.key)
                    data.ins_tid.append(txn.tid)
                    data.ins_txn.append(idx)
                    continue
                is_delayed = delayed.is_delayed(op.table_id, op.column)
                if kind == OpKind.ADD and is_delayed:
                    continue  # collected from the local set above
                if is_delayed:
                    raise TransactionError(
                        f"column {op.column!r} is delayed-update managed and "
                        f"may only be accessed with ADD in a batch"
                    )
                if op.row < 0:
                    # A read of the transaction's own insert: the insert
                    # reservation already guards this key, and the row
                    # has no slot yet to register against.
                    continue
                group = group_of(op.table_id, op.column)
                entry = (op.table_id, op.row, group)
                if kind == OpKind.READ:
                    if entry not in seen_reads:
                        seen_reads.add(entry)
                        data.read_table.append(op.table_id)
                        data.read_row.append(op.row)
                        data.read_group.append(group)
                        data.read_tid.append(txn.tid)
                        data.read_txn.append(idx)
                else:  # WRITE, or ADD treated as read-modify-write
                    if entry not in seen_writes:
                        seen_writes.add(entry)
                        data.write_table.append(op.table_id)
                        data.write_row.append(op.row)
                        data.write_group.append(group)
                        data.write_tid.append(txn.tid)
                        data.write_txn.append(idx)
                    if kind == OpKind.ADD and entry not in seen_reads:
                        # The RMW's read half participates in RAW checks.
                        seen_reads.add(entry)
                        data.read_table.append(op.table_id)
                        data.read_row.append(op.row)
                        data.read_group.append(group)
                        data.read_tid.append(txn.tid)
                        data.read_txn.append(idx)
            if registers:
                for table_id, lo, hi in data.ranges_by_tid.get(txn.tid, ()):
                    data.range_table.append(table_id)
                    data.range_lo.append(lo)
                    data.range_hi.append(hi)
                    data.range_tid.append(txn.tid)
                    data.range_txn.append(idx)
                    ordered = db.table_by_id(table_id).ordered
                    if ordered is not None:  # B-tree descent per range
                        ctx.add_global_reads(ordered.height)
                    tables_seen.add(table_id)
            for table_id in tables_seen:
                table_txns[table_id] += 1
        data.finalize()
        return dict(table_txns), touched_rows

    # ------------------------------------------------------------------
    def _conflict_phase(self, transactions, data: "_ExecutionData", ctx) -> ConflictFlags:
        """WAW/RAW/WAR verdicts per transaction."""
        n = len(transactions)
        log = self.conflict_log
        waw = np.zeros(n, dtype=bool)
        raw = np.zeros(n, dtype=bool)
        war = np.zeros(n, dtype=bool)
        self._sanitize_minima_reads(data)

        if data.write_keys.size:
            min_w = log.min_write(data.write_keys)
            min_r = log.min_read(data.write_keys)
            waw_ops = min_w < data.write_tid_arr
            war_ops = min_r < data.write_tid_arr
            waw |= np.bincount(
                data.write_txn_arr, weights=waw_ops, minlength=n
            ).astype(bool)
            war |= np.bincount(
                data.write_txn_arr, weights=war_ops, minlength=n
            ).astype(bool)
        if data.read_keys.size:
            raw_ops = log.min_write(data.read_keys) < data.read_tid_arr
            raw |= np.bincount(
                data.read_txn_arr, weights=raw_ops, minlength=n
            ).astype(bool)
        if data.ins_key_arr.size:
            winners = log.insert_winners(data.ins_table_arr, data.ins_key_arr)
            ins_waw = winners < data.ins_tid_arr
            waw |= np.bincount(
                data.ins_txn_arr, weights=ins_waw, minlength=n
            ).astype(bool)

        # Phantom protection for range reads: an earlier insert
        # reservation inside the predicate is a RAW on the predicate
        # (the reader's snapshot scan missed a row the serial order
        # would have shown); a *later* insert into an earlier reader's
        # predicate is the matching WAR (reordering the reader past the
        # inserter would un-miss it).
        if data.range_tid_arr.size and data.ins_key_arr.size:
            ctx.add_global_reads(2 * data.range_tid_arr.size)
            for table_id in np.unique(data.range_table_arr):
                ins_mask = data.ins_table_arr == table_id
                if not ins_mask.any():
                    continue
                order = np.argsort(data.ins_key_arr[ins_mask], kind="stable")
                ikeys = data.ins_key_arr[ins_mask][order]
                itids = data.ins_tid_arr[ins_mask][order]
                itxns = data.ins_txn_arr[ins_mask][order]
                rng_mask = data.range_table_arr == table_id
                for lo, hi, rtid, rtxn in zip(
                    data.range_lo_arr[rng_mask],
                    data.range_hi_arr[rng_mask],
                    data.range_tid_arr[rng_mask],
                    data.range_txn_arr[rng_mask],
                ):
                    a = np.searchsorted(ikeys, lo, side="left")
                    b = np.searchsorted(ikeys, hi, side="right")
                    if a >= b:
                        continue
                    window = itids[a:b]
                    if int(window.min()) < rtid:
                        raw[rtxn] = True
                    later = window > rtid
                    if later.any():
                        war[itxns[a:b][later]] = True

        # Cost: every op reads its own slot; additionally each *distinct*
        # large bucket is swept once (all s_u sub-slots) to find the
        # minimum — charging the sweep per op would double-count it.
        bucket_reads = (
            int(data.read_keys.size + data.write_keys.size)
            + int(data.ins_key_arr.size)
        )
        touched = np.concatenate((data.read_keys, data.write_keys))
        touched_tables = np.concatenate(
            (data.read_table_arr, data.write_table_arr)
        )
        if touched.size:
            uniq_keys, first = np.unique(touched, return_index=True)
            for table_id, s_u_count in zip(
                *np.unique(touched_tables[first], return_counts=True)
            ):
                s_u = log.bucket_size(int(table_id))
                if s_u > 1:
                    bucket_reads += int(s_u_count) * (s_u - 1)
        ctx.add_global_reads(bucket_reads)
        ctx.add_instructions(_CHECK_INSTRUCTIONS * max(1, data.total_ops))

        # Logic aborts never commit, whatever their flags say.
        for idx, txn in enumerate(transactions):
            if txn.status is TxnStatus.LOGIC_ABORTED:
                waw[idx] = True
        return ConflictFlags(waw=waw, raw=raw, war=war)

    # ------------------------------------------------------------------
    def _writeback_phase(self, transactions, data, committed_mask, ctx) -> int:
        """Install committed effects; returns read/write-set bytes for
        the copy-back transfer."""
        if data.batch_locals is not None:
            return self._writeback_columnar(transactions, data, committed_mask, ctx)
        db = self.database
        rwset_bytes = 0
        cells = 0
        delayed_deltas: list[tuple[int, int, str, int]] = []
        written_rows: dict[int, set[int]] = {}
        for idx, txn in enumerate(transactions):
            local = data.locals_by_tid[txn.tid]
            if not committed_mask[idx] or txn.status is TxnStatus.LOGIC_ABORTED:
                continue
            # Only committed write-sets ship back for the CPU-side
            # snapshot merge; aborted transactions re-execute anyway.
            # Delayed deltas are part of the shipped set too (the CPU
            # must merge them into its primary copy).
            rwset_bytes += local.nbytes
            rwset_bytes += 16 * len(data.delayed_adds_by_txn.get(txn.tid, ()))
            if self.sanitizer is not None:
                self._sanitize_writeback(
                    idx, local, data.delayed_adds_by_txn.get(txn.tid, ())
                )
            apply_local_sets(db, local)
            cells += len(local.writes) + len(local.adds)
            for _, values in local.inserts.items():
                cells += 1 + len(values)
            delayed_deltas.extend(data.delayed_adds_by_txn.get(txn.tid, ()))
            if self.memory_plan.mode is MemoryMode.UNIFIED:
                for table_id, row, _column in local.writes:
                    written_rows.setdefault(table_id, set()).add(row)
                for table_id, row, _column in local.adds:
                    written_rows.setdefault(table_id, set()).add(row)
        ctx.add_global_writes(cells)
        ctx.add_instructions(_APPLY_INSTRUCTIONS * max(1, cells))
        self.delayed.apply(delayed_deltas, ctx)
        if written_rows:
            # Sorted tables and pages, so the LRU tracker sees the same
            # sequence whichever write-back path built the row sets.
            faults = 0
            for table_id in sorted(written_rows):
                rows = written_rows[table_id]
                table = db.table_by_id(table_id)
                row_bytes = table.schema.row_bytes
                rows_arr = np.fromiter(rows, dtype=np.int64, count=len(rows))
                pages = np.unique(
                    rows_arr * row_bytes // self.device.config.um_page_bytes
                )
                faults += self.device.memory.pages.touch(table.name, pages)
            ctx.add_page_faults(faults)
        return rwset_bytes

    # ------------------------------------------------------------------
    def _writeback_columnar(self, transactions, data, committed_mask, ctx) -> int:
        """Columnar write-back for ``batched_exec``: masked grouped
        scatters per (table, column) instead of per-transaction
        ``apply_local_sets`` calls.  Safe because the WAW rule leaves at
        most one committed writer per (row, conflict-group): committed
        write cells are disjoint, committed adds commute, and each
        transaction's own write-kills-add ordering was already resolved
        when the batched context finalized its local sets."""
        db = self.database
        bl = data.batch_locals
        commit = np.asarray(committed_mask, dtype=bool)
        rwset_bytes = int(bl.nbytes_by_txn[commit].sum()) + 16 * int(
            bl.delayed_count_by_txn[commit].sum()
        )
        if self.sanitizer is not None:
            self._sanitize_writeback_columnar(bl, commit)
        w_keep = commit[bl.w_txn] if bl.w_txn.size else np.zeros(0, dtype=bool)
        a_keep = commit[bl.a_txn] if bl.a_txn.size else np.zeros(0, dtype=bool)
        d_keep = commit[bl.d_txn] if bl.d_txn.size else np.zeros(0, dtype=bool)
        cells = int(w_keep.sum()) + int(a_keep.sum())
        xp = self._ensure_backend()
        on_device = xp.is_device
        residency = self._ensure_residency()

        def scatter(tables, rows, cols, vals, accumulate: bool) -> None:
            if tables.size == 0:
                return
            order = np.lexsort((cols, tables))
            tables, rows, cols, vals = (
                tables[order], rows[order], cols[order], vals[order]
            )
            new = np.empty(tables.size, dtype=bool)
            new[0] = True
            new[1:] = (tables[1:] != tables[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(new)
            ends = np.append(starts[1:], tables.size)
            for s, e in zip(starts, ends):
                table = db.table_by_id(int(tables[s]))
                cname = column_name(int(cols[s]))
                if on_device and residency is not None:
                    dev = residency.device_column(table, cname)
                    if dev is not None:
                        # device-resident write-back: scatter into the
                        # authoritative device copy and mark the host
                        # side stale — no round trip.  WAW-disjoint
                        # assignments and commutative adds make the
                        # apply order irrelevant (ARCHITECTURE §13).
                        idx = xp.from_host(rows[s:e])
                        val = xp.from_host(vals[s:e])
                        if accumulate:
                            xp.scatter_add(dev, idx, val)
                        else:
                            xp.scatter(dev, idx, val)
                        residency.mark_dirty(table, cname)
                        continue
                target = table.column(cname)
                if on_device:
                    # per-column device scatter with an explicit round
                    # trip: the snapshot's authoritative copy is host
                    # memory (the paper's CPU-side primary), so each
                    # (table, column) segment ships down, scatters, and
                    # ships the merged column back
                    dev = xp.from_host(target)
                    idx = xp.from_host(rows[s:e])
                    val = xp.from_host(vals[s:e])
                    if accumulate:
                        xp.scatter_add(dev, idx, val)
                    else:
                        xp.scatter(dev, idx, val)
                    host = xp.to_host(dev)
                    if not np.shares_memory(host, target):
                        target[:] = host
                elif accumulate:
                    np.add.at(target, rows[s:e], vals[s:e])
                else:
                    target[rows[s:e]] = vals[s:e]

        router = self.shard_router
        if router is None:
            scatter(
                bl.w_table[w_keep], bl.w_row[w_keep], bl.w_col[w_keep],
                bl.w_val[w_keep], accumulate=False,
            )
            scatter(
                bl.a_table[a_keep], bl.a_row[a_keep], bl.a_col[a_keep],
                bl.a_val[a_keep], accumulate=True,
            )
        else:
            # Sharded write-back: partition committed cells by row owner
            # and scatter shard by shard in fixed ascending order.  The
            # subsets are disjoint (one owner per row), committed writes
            # are WAW-disjoint and adds commute, so the result is
            # byte-identical to the single global scatter.
            for tables, rows, cols, vals, accumulate in (
                (bl.w_table[w_keep], bl.w_row[w_keep], bl.w_col[w_keep],
                 bl.w_val[w_keep], False),
                (bl.a_table[a_keep], bl.a_row[a_keep], bl.a_col[a_keep],
                 bl.a_val[a_keep], True),
            ):
                owners = router.owner_cells(tables, rows)
                for s in range(router.shards):
                    m = owners == s
                    if m.any():
                        scatter(
                            tables[m], rows[m], cols[m], vals[m],
                            accumulate=accumulate,
                        )
        # Inserts claim slots per table in (transaction, emission) order
        # — the scalar slot assignment — but install in bulk: keys that
        # already exist (or repeat within the committed batch; the
        # conflict phase guarantees a unique winner, this mirrors the
        # scalar get_row guard) drop out, the survivors take consecutive
        # slots, and the payload columns scatter per emission chunk.
        if bl.i_txn.size:
            if self.shard_order is not None:
                # shard-major batches: install in *admission* order, not
                # batch-position order, so slot assignment (and with it
                # secondary-index order) matches the unsharded engine
                txn_rank = self.shard_order[bl.i_txn]
            else:
                txn_rank = bl.i_txn
            order = np.lexsort((bl.i_seq, txn_rank))
            order = order[commit[bl.i_txn[order]]]
        else:
            order = np.empty(0, dtype=np.int64)
        if order.size:
            meta = bl.i_meta
            nlen = np.fromiter(
                (len(m[0]) for m in meta), dtype=np.int64, count=len(meta)
            )
            i_tb = bl.i_table[order]
            i_keys = bl.i_key[order]
            i_chs = bl.i_chunk[order]
            i_pos = bl.i_pos[order]
            cells += order.size + int(nlen[i_chs].sum())
            for table_id in np.unique(i_tb):
                m = i_tb == table_id
                table = db.table_by_id(int(table_id))
                kt, ct, pt = i_keys[m], i_chs[m], i_pos[m]
                exists = (kt >= 0) & (kt < table._dense_limit)
                nd = np.flatnonzero(~exists)
                if nd.size:
                    has = table.primary.__contains__
                    hits = np.fromiter(
                        map(has, kt[nd].tolist()), dtype=bool, count=nd.size
                    )
                    exists[nd[hits]] = True
                keep = ~exists
                if kt.size > 1:
                    first = np.zeros(kt.size, dtype=bool)
                    first[np.unique(kt, return_index=True)[1]] = True
                    keep &= first
                if not keep.any():
                    continue
                ck, pk = ct[keep], pt[keep]
                rows = table.append_keys(kt[keep])
                for c in np.unique(ck):
                    cm = ck == c
                    names, vals = meta[int(c)]
                    block = vals[pk[cm]]
                    trows = rows[cm]
                    for j, name in enumerate(names):
                        # freshly claimed slots: write host-side without
                        # fencing (note_appended mirrors them below)
                        table.host_column(name)[trows] = block[:, j]
                table.index_appended(rows)
                if residency is not None:
                    residency.note_appended(table, rows)
        ctx.add_global_writes(cells)
        ctx.add_instructions(_APPLY_INSTRUCTIONS * max(1, cells))
        if router is None or self.shard_updaters is None:
            self.delayed.apply_arrays(
                bl.d_table[d_keep], bl.d_row[d_keep], bl.d_col[d_keep],
                bl.d_val[d_keep], ctx, xp=xp, residency=residency,
            )
        else:
            # Per-shard delayed-update merge, same disjoint-partition
            # argument as the scatters above; the cost model even agrees
            # (deltas sum, and the owner subsets partition the distinct
            # target cells).
            d_t, d_r = bl.d_table[d_keep], bl.d_row[d_keep]
            d_c, d_v = bl.d_col[d_keep], bl.d_val[d_keep]
            owners = router.owner_cells(d_t, d_r)
            for s, updater in enumerate(self.shard_updaters):
                m = owners == s
                if m.any():
                    updater.apply_arrays(
                        d_t[m], d_r[m], d_c[m], d_v[m], ctx,
                        xp=xp, residency=residency,
                    )
        if self.memory_plan.mode is MemoryMode.UNIFIED and (
            w_keep.any() or a_keep.any()
        ):
            faults = 0
            t_all = np.concatenate((bl.w_table[w_keep], bl.a_table[a_keep]))
            r_all = np.concatenate((bl.w_row[w_keep], bl.a_row[a_keep]))
            for table_id in np.unique(t_all):
                table = db.table_by_id(int(table_id))
                row_bytes = table.schema.row_bytes
                pages = np.unique(
                    r_all[t_all == table_id] * row_bytes
                    // self.device.config.um_page_bytes
                )
                faults += self.device.memory.pages.touch(table.name, pages)
            ctx.add_page_faults(faults)
        return rwset_bytes

    def _sanitize_writeback_columnar(self, bl, commit) -> None:
        """Columnar twin of :meth:`_sanitize_writeback`: same shadow
        cells (conflict-granular addresses), same access kinds."""
        san = self.sanitizer
        if san is None:
            return
        from repro.analysis.sanitizer import AccessKind

        def emit(tables, rows, cols, txns, atomic: bool) -> None:
            if tables.size == 0:
                return
            groups = self.flags.group_lookup(tables, cols)
            for table_id in np.unique(tables):
                m = tables == table_id
                table = self.database.table_by_id(int(table_id))
                num_groups = max(1, self.flags.num_groups(int(table_id)))
                san.record(
                    f"table:{table.name}",
                    rows[m] * num_groups + groups[m],
                    txns[m],
                    AccessKind.WRITE,
                    atomic=atomic,
                )

        w_keep = commit[bl.w_txn] if bl.w_txn.size else np.zeros(0, dtype=bool)
        a_keep = commit[bl.a_txn] if bl.a_txn.size else np.zeros(0, dtype=bool)
        d_keep = commit[bl.d_txn] if bl.d_txn.size else np.zeros(0, dtype=bool)
        emit(
            np.concatenate((bl.w_table[w_keep], bl.a_table[a_keep])),
            np.concatenate((bl.w_row[w_keep], bl.a_row[a_keep])),
            np.concatenate((bl.w_col[w_keep], bl.a_col[a_keep])),
            np.concatenate((bl.w_txn[w_keep], bl.a_txn[a_keep])),
            atomic=False,
        )
        emit(
            bl.d_table[d_keep], bl.d_row[d_keep], bl.d_col[d_keep],
            bl.d_txn[d_keep], atomic=True,
        )
        for txn_idx, table_id, key, _names, _vals in bl.iter_inserts(commit):
            table = self.database.table_by_id(table_id)
            san.record(
                f"table:{table.name}:inserts", key, txn_idx,
                AccessKind.WRITE,
            )

    # ------------------------------------------------------------------
    def _assemble_result(
        self,
        transactions,
        data,
        flags: ConflictFlags,
        committed_mask,
        batch_index: int,
        latency_ns: float,
        transfer_ns: float,
        phase_ns: dict[str, float],
    ) -> BatchResult:
        committed: list[Transaction] = []
        aborted: list[Transaction] = []
        logic_aborted: list[Transaction] = []
        stats = BatchStats(
            batch_index=batch_index,
            num_txns=len(transactions),
            committed=0,
            aborted=0,
            latency_ns=latency_ns,
            transfer_ns=transfer_ns,
            phase_ns=phase_ns,
        )
        committed_lanes: list[tuple[int, int]] = []
        # the lazy witness keeps only committed lanes' registrations
        committed_arr = np.asarray(committed_mask, dtype=bool)
        keep_r = committed_arr[data.read_txn_arr]
        keep_w = committed_arr[data.write_txn_arr]
        for idx, txn in enumerate(transactions):
            stats.total_by_proc[txn.procedure_name] += 1
            if txn.status is TxnStatus.LOGIC_ABORTED:
                # Keep stats and explain() in agreement: both read the
                # reason off the transaction itself.
                txn.abort_reason = txn.abort_reason or "logic"
                logic_aborted.append(txn)
                stats.logic_aborted += 1
                stats.abort_reasons[txn.abort_reason] += 1
            elif committed_mask[idx]:
                txn.status = TxnStatus.COMMITTED
                committed.append(txn)
                stats.committed += 1
                stats.committed_by_proc[txn.procedure_name] += 1
                stats.commit_attempts[txn.attempts] += 1
                committed_lanes.append((idx, txn.tid))
            else:
                txn.status = TxnStatus.ABORTED
                txn.abort_reason = abort_reason(
                    bool(flags.waw[idx]), bool(flags.raw[idx]), bool(flags.war[idx])
                )
                aborted.append(txn)
                stats.aborted += 1
                stats.abort_reasons[txn.abort_reason] += 1
        return BatchResult(
            stats=stats,
            committed=committed,
            aborted=aborted,
            logic_aborted=logic_aborted,
            _witness=partial(
                _witness_sets,
                committed_lanes,
                (data.read_txn_arr[keep_r], data.read_keys[keep_r]),
                (data.write_txn_arr[keep_w], data.write_keys[keep_w]),
            ),
        )

    # ------------------------------------------------------------------
    def process(
        self,
        scheduler: BatchScheduler,
        max_batches: int | None = None,
    ) -> RunStats:
        """Drain a scheduler: run batches, re-queue aborts, aggregate."""
        run = RunStats()
        batches = 0
        while scheduler.has_work():
            if max_batches is not None and batches >= max_batches:
                break
            batch = scheduler.next_batch()
            if not batch:
                # Retries are delayed past the current index; spin the
                # scheduler forward (an empty GPU slot in real time).
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
        """Convenience: admit, process to completion, aggregate."""
        scheduler = BatchScheduler(
            self.config.batch_size,
            retry_delay_batches=self.config.effective_retry_delay,
        )
        scheduler.admit(transactions)
        return self.process(scheduler, max_batches=max_batches)


def _dedup_reservations_two_sided(
    op_txn, table, row, group, candidate, read_sel, write_sel
):
    """Both sides' reservation dedups from ONE sort of the candidate
    ops.  Read and write selections are subsets of ``candidate`` (adds
    appear in both), so sorting the candidates once and taking each
    (txn, table, row, group) run's first read-side and first write-side
    entry matches two independent :func:`_dedup_reservations` passes."""
    t = op_txn[candidate]
    if t.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return (
            (empty, empty.copy(), empty.copy(), empty.copy()),
            (empty.copy(), empty.copy(), empty.copy(), empty.copy()),
        )
    tb = table[candidate]
    r = row[candidate]
    g = group[candidate]
    packed = pack_sort_key(t, tb, r, g)
    if packed is None:
        return (
            _dedup_reservations(op_txn, table, row, group, read_sel),
            _dedup_reservations(op_txn, table, row, group, write_sel),
        )
    order = np.argsort(packed, kind="stable")
    ps = packed[order]
    new = np.empty(ps.size, dtype=bool)
    new[0] = True
    new[1:] = ps[1:] != ps[:-1]
    run = np.cumsum(new) - 1
    t, tb, r, g = t[order], tb[order], r[order], g[order]
    out = []
    for side in (read_sel, write_sel):
        si = np.flatnonzero(side[candidate][order])
        if si.size:
            runs = run[si]
            keep = np.empty(si.size, dtype=bool)
            keep[0] = True
            keep[1:] = runs[1:] != runs[:-1]
            sel = si[keep]
            out.append((tb[sel], r[sel], g[sel], t[sel]))
        else:
            empty = np.empty(0, dtype=np.int64)
            out.append((empty, empty.copy(), empty.copy(), empty.copy()))
    return out[0], out[1]


def _dedup_reservations(op_txn, table, row, group, mask):
    """One reservation per (txn, table, row, group) among masked ops.

    Lexsort the candidates and keep each first occurrence.  Every kept
    field is part of the sort key, so which duplicate survives does not
    matter; downstream consumers (atomicMin registration, per-txn
    bincounts, witness sets) are all order-insensitive, which is what
    lets this sorted dedup replace the reference loop's first-seen sets
    without changing any batch outcome.
    """
    t = op_txn[mask]
    if t.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    tb = table[mask]
    r = row[mask]
    g = group[mask]
    packed = pack_sort_key(t, tb, r, g)
    if packed is not None:
        order = np.argsort(packed, kind="stable")
        ps = packed[order]
        keep = np.empty(ps.size, dtype=bool)
        keep[0] = True
        keep[1:] = ps[1:] != ps[:-1]
        t, tb, r, g = t[order], tb[order], r[order], g[order]
    else:
        order = np.lexsort((g, r, tb, t))
        t, tb, r, g = t[order], tb[order], r[order], g[order]
        keep = np.empty(t.size, dtype=bool)
        keep[0] = True
        keep[1:] = (
            (t[1:] != t[:-1])
            | (tb[1:] != tb[:-1])
            | (r[1:] != r[:-1])
            | (g[1:] != g[:-1])
        )
    return tb[keep], r[keep], g[keep], t[keep]


def _batch_op_matrix(transactions, op_groups):
    """The batch-order ``(total, OP_FIELDS)`` op matrix and the op count
    of every batch position.

    Each twin group's finalized lane-sorted matrix lands with one
    vectorised scatter; only scalar-executed lanes (fallback lanes,
    twin-less procedures, ``batched_exec=False``) have their op buffers
    copied.  When one source covers the whole batch (a single twin
    group, or all scalar lanes) its matrix already is the batch matrix.
    """
    n = len(transactions)
    scalar = np.ones(n, dtype=bool)
    for positions, _mat, _counts in op_groups:
        scalar[positions] = False
    scalar_pos = np.flatnonzero(scalar)
    flat = array("q")
    scalar_counts: list[int] = []
    for i in scalar_pos.tolist():
        buf = transactions[i].ops.buffer
        flat += buf  # one C-level memcpy per scalar lane
        scalar_counts.append(len(buf) // OP_FIELDS)
    if flat:
        # zero-copy view: `flat` is local and never grows past here
        scalar_mat = np.frombuffer(flat, dtype=np.int64).reshape(-1, OP_FIELDS)
    else:
        scalar_mat = np.empty((0, OP_FIELDS), dtype=np.int64)
    sources = [g for g in op_groups if g[0].size]
    if scalar_pos.size:
        sources.append(
            (scalar_pos, scalar_mat, np.asarray(scalar_counts, dtype=np.int64))
        )
    if len(sources) == 1:
        # positions are ascending, so a lone source is in batch order
        _positions, mat, counts = sources[0]
        return mat, counts
    counts = np.zeros(n, dtype=np.int64)
    for positions, _mat, cnt in sources:
        counts[positions] = cnt
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    mat = np.empty((int(counts.sum()), OP_FIELDS), dtype=np.int64)
    for positions, src, cnt in sources:
        # row r of lane l moves from src_start[l] + r to starts[l] + r
        shift = starts[positions] - (np.cumsum(cnt) - cnt)
        mat[np.repeat(shift, cnt) + np.arange(src.shape[0])] = src
    return mat, counts


def _witness_sets(lanes, reads, writes) -> list[tuple[int, set, set]]:
    """``(tid, read_keys, write_keys)`` per committed lane — ``lanes``
    holds ``(batch position, tid)`` pairs, ``reads``/``writes`` the
    committed lanes' registered ``(txn array, key array)`` per side."""
    reads_by_txn = _grouped_key_sets(*reads)
    writes_by_txn = _grouped_key_sets(*writes)
    return [
        (tid, reads_by_txn.get(idx, set()), writes_by_txn.get(idx, set()))
        for idx, tid in lanes
    ]


def _grouped_key_sets(txn_arr, key_arr) -> dict[int, set]:
    """{txn index -> set(conflict keys)}, built from argsort +
    np.unique slice boundaries."""
    if txn_arr.size == 0:
        return {}
    order = np.argsort(txn_arr, kind="stable")
    t = txn_arr[order]
    k = key_arr[order]
    uniq, starts = np.unique(t, return_index=True)
    ends = np.append(starts[1:], t.size)
    return {
        int(u): set(k[s:e].tolist()) for u, s, e in zip(uniq, starts, ends)
    }


class _ExecutionData:
    """Scratch arrays shared between the three phases of one batch."""

    def __init__(self) -> None:
        self.read_table: list[int] = []
        self.read_row: list[int] = []
        self.read_group: list[int] = []
        self.read_tid: list[int] = []
        self.read_txn: list[int] = []
        self.write_table: list[int] = []
        self.write_row: list[int] = []
        self.write_group: list[int] = []
        self.write_tid: list[int] = []
        self.write_txn: list[int] = []
        self.ins_table: list[int] = []
        self.ins_key: list[int] = []
        self.ins_tid: list[int] = []
        self.ins_txn: list[int] = []
        self.range_table: list[int] = []
        self.range_lo: list[int] = []
        self.range_hi: list[int] = []
        self.range_tid: list[int] = []
        self.range_txn: list[int] = []
        self.locals_by_tid: dict[int, LocalSets] = {}
        self.delayed_adds_by_txn: dict[int, list[tuple[int, int, str, int]]] = {}
        self.ranges_by_tid: dict[int, list[tuple[int, int, int]]] = {}
        #: Batch-wide columnar locals (set by the batched executor; its
        #: presence routes write-back through the scatter path).
        self.batch_locals: GroupLocals | None = None
        #: (batch positions, lane-sorted op matrix, per-lane op counts)
        #: per twin group, fallback lanes excluded (batched executor).
        self.op_groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: Op count per batch position (set by the collector).
        self.op_counts = np.empty(0, dtype=np.int64)
        self.read_keys = np.empty(0, dtype=np.int64)
        self.write_keys = np.empty(0, dtype=np.int64)
        # The *_arr views start empty so the columnar collector can set
        # them directly; the reference collector overwrites them via
        # finalize() from the append lists above.
        def empty() -> np.ndarray:
            return np.empty(0, dtype=np.int64)

        self.read_table_arr = empty()
        self.read_row_arr = empty()
        self.read_group_arr = empty()
        self.read_tid_arr = empty()
        self.read_txn_arr = empty()
        self.write_table_arr = empty()
        self.write_row_arr = empty()
        self.write_group_arr = empty()
        self.write_tid_arr = empty()
        self.write_txn_arr = empty()
        self.ins_table_arr = empty()
        self.ins_key_arr = empty()
        self.ins_tid_arr = empty()
        self.ins_txn_arr = empty()
        self.range_table_arr = empty()
        self.range_lo_arr = empty()
        self.range_hi_arr = empty()
        self.range_tid_arr = empty()
        self.range_txn_arr = empty()

    def finalize(self) -> None:
        """Freeze the Python lists into NumPy arrays."""
        def as_arr(lst: list[int]) -> np.ndarray:
            return np.asarray(lst, dtype=np.int64)

        self.read_table_arr = as_arr(self.read_table)
        self.read_row_arr = as_arr(self.read_row)
        self.read_group_arr = as_arr(self.read_group)
        self.read_tid_arr = as_arr(self.read_tid)
        self.read_txn_arr = as_arr(self.read_txn)
        self.write_table_arr = as_arr(self.write_table)
        self.write_row_arr = as_arr(self.write_row)
        self.write_group_arr = as_arr(self.write_group)
        self.write_tid_arr = as_arr(self.write_tid)
        self.write_txn_arr = as_arr(self.write_txn)
        self.ins_table_arr = as_arr(self.ins_table)
        self.ins_key_arr = as_arr(self.ins_key)
        self.ins_tid_arr = as_arr(self.ins_tid)
        self.ins_txn_arr = as_arr(self.ins_txn)
        self.range_table_arr = as_arr(self.range_table)
        self.range_lo_arr = as_arr(self.range_lo)
        self.range_hi_arr = as_arr(self.range_hi)
        self.range_tid_arr = as_arr(self.range_tid)
        self.range_txn_arr = as_arr(self.range_txn)

    @property
    def total_ops(self) -> int:
        return (
            self.read_tid_arr.size + self.write_tid_arr.size + self.ins_tid_arr.size
        )
