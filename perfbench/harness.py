"""Closed-loop host benchmark over the whole LTPG batch path.

One *episode* builds a workload from its seed and drives a fixed number
of full batches through the host path the repo's runners use
(``repro.bench.runner.steady_state_run``): generate fresh load to top
the batch up, admit it, form the batch (retries first, in TID order),
``run_batch`` (WAL append, execute, conflict, write-back, assembly),
requeue the aborts.  It then recovers a second database from the
initial snapshot plus the run's batch log and checks the outputs.

A run repeats episodes until its time is spent and reports medians.
Every measurement times a public call from outside the program; the
traced variant also wraps a few public entry points on the engine
instance (``run_batch``, ``batch_log.append_batch``, ``device.kernel``)
to record spans.  End-to-end metrics come from untraced episodes only.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
from dataclasses import dataclass, field
from itertools import chain
from statistics import median
from time import perf_counter_ns
from typing import Callable

import numpy as np

import spans as sp
from repro.bench.runner import SteadyStateResult, steady_state_run
from repro.core.config import LTPGConfig
from repro.core.engine import LTPGEngine
from repro.core.stats import RunStats
from repro.storage import Snapshot, recover
from repro.txn.batch import BatchScheduler

PHASES = ("execute", "conflict", "writeback", "assemble")

#: Batches of an episode compared against ``steady_state_run``.
PARITY_BATCHES = 2
#: An untraced run sets up at least this many times, and until the
#: set-ups took this long; ``setup_s`` is their median.
MIN_SETUPS = 5
MIN_SETUP_SECONDS = 2.0

#: name -> (unit, clock).  ``clock`` is "host" for ``perf_counter``
#: time, "sim" for the simulated device clock, and "-" for counts and
#: ratios.  perfbench/README.md says what each metric measures.
END_TO_END = {
    "commit_tps": ("txn/s", "host"),
    "txn_p50_ms": ("ms", "host"),
    "txn_p99_ms": ("ms", "host"),
    "recovery_tps": ("txn/s", "host"),
    "sim_mtps": ("Mtxn/s", "sim"),
    "peak_rss_mb": ("MB", "host"),
    "setup_s": ("s", "host"),
}
#: Reported in the table; in the JSON line it is ``failed / attempted``.
FAILED_RATIO = ("ratio", "-")

PER_LAYER = {
    "workloads.gen_s": ("s", "host"),
    "workloads.gen_us_per_txn": ("us", "host"),
    "txn.sched_s": ("s", "host"),
    "txn.fresh_per_batch": ("count", "-"),
    "txn.eligible_backlog": ("count", "-"),
    "txn.retries_per_commit": ("ratio", "-"),
    "storage.wal_append_s": ("s", "host"),
    "storage.wal_records": ("count", "-"),
    "storage.snapshot_s": ("s", "host"),
    "storage.replay_s_per_batch": ("s", "host"),
    "core.run_batch_s": ("s", "host"),
    "core.execute_s": ("s", "host"),
    "core.conflict_s": ("s", "host"),
    "core.writeback_s": ("s", "host"),
    "core.assemble_s": ("s", "host"),
    "core.unattributed_s": ("s", "host"),
    "core.commit_ratio": ("ratio", "-"),
    "core.logic_abort_ratio": ("ratio", "-"),
    "core.reads_registered": ("count", "-"),
    "core.writes_registered": ("count", "-"),
    "gpusim.execute_ns": ("ns", "sim"),
    "gpusim.conflict_ns": ("ns", "sim"),
    "gpusim.writeback_ns": ("ns", "sim"),
    "gpusim.transfer_ns": ("ns", "sim"),
    "gpusim.atomic_serialized": ("count", "-"),
    "self.workloads_s": ("s", "host"),
    "self.txn_s": ("s", "host"),
    "self.storage_s": ("s", "host"),
    "self.core_s": ("s", "host"),
    "self.unattributed_s": ("s", "host"),
    "trace.overhead_ratio": ("ratio", "host"),
}


# -- workloads -------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build it and how long an episode is."""

    name: str
    batch_size: int
    #: fixed episode length, so one seed always ends at one digest
    batches: int
    build: Callable[[int], tuple]
    #: LTPGConfig optimization markings (delayed/split/hot)
    markings: dict = field(default_factory=dict)


def _tpcc(name: str, warehouses: int, items: int, batch: int, batches: int) -> Workload:
    from repro.workloads.tpcc import (
        DELAYED_COLUMNS,
        HOT_TABLES,
        SPLIT_COLUMNS,
        TpccMix,
        build_tpcc,
    )

    def build(seed: int):
        return build_tpcc(
            warehouses=warehouses,
            num_items=items,
            mix=TpccMix.neworder_percentage(50),
            seed=seed,
        )

    markings = dict(
        delayed_columns=DELAYED_COLUMNS,
        split_columns=SPLIT_COLUMNS,
        hot_tables=HOT_TABLES,
    )
    return Workload(name, batch, batches, build, markings)


def _ycsb_e(name: str, records: int, batch: int, batches: int) -> Workload:
    from repro.workloads.ycsb import build_ycsb, ycsb_delayed_columns

    def build(seed: int):
        return build_ycsb(records, workload="e", zipf_alpha=0.99, seed=seed)

    markings = dict(
        delayed_columns=ycsb_delayed_columns(),
        hot_tables=frozenset({"usertable"}),
    )
    return Workload(name, batch, batches, build, markings)


def _smallbank(name: str, accounts: int, batch: int, batches: int) -> Workload:
    from repro.workloads.smallbank import build_smallbank

    def build(seed: int):
        return build_smallbank(accounts, zipf_alpha=1.0, seed=seed)

    return Workload(name, batch, batches, build)


WORKLOAD_NAMES = ("tpcc-w32", "ycsb-e-scan", "smallbank-hot")


def workload(name: str, toy: bool = False) -> Workload:
    """The named workload at full size, or shrunk for a smoke test."""
    if name == "tpcc-w32":
        return (_tpcc(name, 2, 2048, 256, 4) if toy
                else _tpcc(name, 32, 100_000, 16_384, 6))
    if name == "ycsb-e-scan":
        return (_ycsb_e(name, 20_000, 256, 4) if toy
                else _ycsb_e(name, 1_000_000, 8192, 8))
    if name == "smallbank-hot":
        return (_smallbank(name, 2_000, 512, 6) if toy
                else _smallbank(name, 100_000, 16_384, 4))
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOAD_NAMES}")


def engine_config(wl: Workload) -> LTPGConfig:
    """The fastest measured in-process path: the batched executor on the
    numpy backend, no workers, no shards, no prefetch thread."""
    kwargs = dict(batch_size=wl.batch_size, **wl.markings)
    # Only while the flag exists; once batched execution is the default
    # the field goes away and this keeps working unchanged.
    if "batched_exec" in {f.name for f in dataclasses.fields(LTPGConfig)}:
        kwargs["batched_exec"] = True
    config = LTPGConfig(**kwargs)
    off_path = {
        "parallel_workers": 0, "shards": 1, "prefetch_assembly": False,
        "array_backend": "numpy", "trace": False, "sanitize": False,
    }
    for name, want in off_path.items():
        if getattr(config, name, want) != want:
            raise ValueError(f"benchmark engine must run with {name}={want!r}")
    return config


# -- set-up ----------------------------------------------------------------
@dataclass
class Setup:
    engine: LTPGEngine
    registry: object
    generator: object
    snapshot: Snapshot
    setup_s: float
    snapshot_s: float


def setup(wl: Workload, seed: int, rec: sp.SpanRecorder | None = None) -> Setup:
    """Load the database, build the engine, capture the initial snapshot."""
    t0 = perf_counter_ns()
    db, registry, generator = wl.build(seed)
    t1 = perf_counter_ns()
    engine = LTPGEngine(db, registry, engine_config(wl))
    t2 = perf_counter_ns()
    snapshot = Snapshot.capture(db, 0)
    t3 = perf_counter_ns()
    if rec is not None:
        root = rec.open("bench.setup", start_ns=t0)
        rec.add("workloads.build", t0, t1)
        rec.add("core.engine_init", t1, t2)
        rec.add("storage.snapshot", t2, t3, bytes=db.nbytes)
        rec.close(root, end_ns=t3)
    return Setup(engine, registry, generator, snapshot,
                 (t3 - t0) / 1e9, (t3 - t2) / 1e9)


def instrument(engine: LTPGEngine, rec: sp.SpanRecorder, span_name: str) -> None:
    """Record spans around this engine instance's public entry points.

    ``run_batch`` becomes a ``span_name`` span whose children are the
    WAL append and the four host phases.  The phases are laid back to
    back from the moment the execute kernel launches, with the durations
    ``run_batch`` leaves in ``last_host_phase_s`` (they are contiguous
    there too)."""
    run_batch = engine.run_batch
    append_batch = engine.batch_log.append_batch
    kernel = engine.device.kernel
    execute_start = [0]
    calls = [0]

    def traced_kernel(name, *args, **kwargs):
        if name == "execute":
            execute_start[0] = perf_counter_ns()
        return kernel(name, *args, **kwargs)

    def traced_append(batch_index, transactions):
        span = rec.open("storage.wal_append")
        try:
            return append_batch(batch_index, transactions)
        finally:
            rec.close(span, records=len(transactions))

    def traced_run_batch(transactions):
        span = rec.open(span_name, batch=calls[0])
        calls[0] += 1
        try:
            result = run_batch(transactions)
        except BaseException:
            rec.close(span, raised=True)
            raise
        t = execute_start[0]
        for phase in PHASES if transactions else ():
            dt = round(engine.last_host_phase_s[phase] * 1e9)
            rec.add(f"core.{phase}", t, t + dt)
            t += dt
        stats = result.stats
        rec.close(
            span,
            lanes=stats.num_txns,
            committed=stats.committed,
            aborted=stats.aborted,
            logic_aborted=stats.logic_aborted,
            reads_registered=stats.registered_reads,
            writes_registered=stats.registered_writes,
        )
        return result

    engine.device.kernel = traced_kernel
    engine.batch_log.append_batch = traced_append
    engine.run_batch = traced_run_batch


# -- one episode -----------------------------------------------------------
@dataclass
class Episode:
    traced: bool
    setup_s: float
    snapshot_s: float
    run: RunStats
    #: device-clock makespan after each batch, for the parity check
    makespans_ns: list[float]
    loop_s: float
    admitted: int
    failed: int
    latencies_ms: np.ndarray
    recovery_s: float
    replayed_batches: int
    replayed_txns: int
    digest: str
    #: per-layer sums over the loop (host seconds, counts)
    sums: dict[str, float]
    problems: list[str]
    rec: sp.SpanRecorder | None

    @property
    def commit_tps(self) -> float:
        return self.run.total_committed / self.loop_s

    @property
    def sim_mtps(self) -> float:
        return SteadyStateResult(run=self.run, makespan_ns=self.makespans_ns[-1]).mtps


def _tids(txns) -> np.ndarray:
    return np.fromiter((t.tid for t in txns), dtype=np.int64, count=len(txns))


def run_episode(wl: Workload, seed: int, traced: bool = False) -> Episode:
    """Set up, drive ``wl.batches`` full batches, recover, check."""
    rec = sp.SpanRecorder() if traced else None
    s = setup(wl, seed, rec)
    engine, generator = s.engine, s.generator
    if rec is not None:
        instrument(engine, rec, "core.run_batch")
    size = wl.batch_size
    scheduler = BatchScheduler(size, retry_delay_batches=engine.config.effective_retry_delay)
    run = RunStats()
    created_ns = np.zeros(wl.batches * size)
    decided: list[np.ndarray] = []
    latencies: list[np.ndarray] = []
    sums = dict.fromkeys(
        ("gen", "sched", "run_batch", "fresh", "backlog", "lanes", "retries")
        + PHASES, 0.0)
    problems: list[str] = []
    makespans: list[float] = []
    last_aborted = np.empty(0, dtype=np.int64)
    next_tid = 0
    raised = False
    dev0 = engine.device.elapsed_ns()
    loop_t0 = perf_counter_ns()
    for k in range(wl.batches):
        root = rec.open("bench.batch", batch=k) if rec is not None else None
        backlog = scheduler.eligible_backlog
        shortfall = size - min(backlog, size)
        t0 = perf_counter_ns()
        fresh = generator.make_batch(shortfall) if shortfall > 0 else []
        t1 = perf_counter_ns()
        if fresh:
            scheduler.admit(fresh)
        t2 = perf_counter_ns()
        batch = scheduler.next_batch()
        t3 = perf_counter_ns()
        try:
            result = engine.run_batch(batch)
        except Exception as exc:  # a failed batch fails the run, not the process
            problems.append(f"batch {k} raised {exc!r}")
            raised = True
            if root is not None:
                rec.close(root)
            break
        t4 = perf_counter_ns()
        scheduler.requeue_aborted(result.aborted)
        t5 = perf_counter_ns()
        if rec is not None:
            rec.add("workloads.make_batch", t0, t1, txns=len(fresh))
            rec.add("txn.admit", t1, t2, txns=len(fresh))
            rec.add("txn.next_batch", t2, t3, lanes=len(batch), backlog=backlog)
            # run_batch's span was recorded by the instrumented engine
            rec.add("txn.requeue_aborted", t4, t5, txns=len(result.aborted))
            rec.close(root, end_ns=t5)
        # -- bookkeeping, on the loop clock but outside every call -----
        run.add(result.stats)
        makespans.append(engine.device.elapsed_ns() - dev0)
        if fresh:
            first = fresh[0].tid
            if first != next_tid or fresh[-1].tid != first + len(fresh) - 1:
                problems.append(f"batch {k}: fresh txns got TIDs out of order")
            # make_batch builds its transactions one after another; the
            # i-th of n is taken as created (i + 1/2) / n into the call.
            # Without this every txn of a call would share one creation
            # time, and percentiles would jump between whole batches.
            created_ns[first:first + len(fresh)] = (
                t0 + (t1 - t0) * (np.arange(len(fresh)) + 0.5) / len(fresh))
            next_tid = first + len(fresh)
        tids = _tids(list(chain(result.committed, result.logic_aborted)))
        decided.append(tids)
        latencies.append((t4 - created_ns[tids]) / 1e6)
        last_aborted = _tids(result.aborted)
        sums["gen"] += (t1 - t0) / 1e9
        sums["sched"] += (t3 - t1 + t5 - t4) / 1e9
        sums["run_batch"] += (t4 - t3) / 1e9
        sums["fresh"] += len(fresh)
        sums["backlog"] += backlog
        sums["lanes"] += len(batch)
        sums["retries"] += len(batch) - len(fresh)
        for phase in PHASES:
            sums[phase] += engine.last_host_phase_s[phase]
    loop_s = (perf_counter_ns() - loop_t0) / 1e9

    # -- outcome accounting: committed, logic-aborted, or still queued --
    decided_tids = np.concatenate(decided) if decided else np.empty(0, np.int64)
    if np.unique(decided_tids).size != decided_tids.size:
        problems.append("a TID was decided (committed or logic-aborted) twice")
    if decided_tids.size and (decided_tids.min() < 0 or decided_tids.max() >= next_tid):
        problems.append("a decided TID was never admitted")
    undecided = np.setdiff1d(np.arange(next_tid), decided_tids)
    # With a retry delay of one batch every abort re-enters the next
    # batch, so exactly the last batch's aborts are still queued.
    if not np.array_equal(undecided, np.sort(last_aborted)):
        problems.append(
            f"{undecided.size} admitted txns are undecided but "
            f"{last_aborted.size} are queued for retry")
    if scheduler.backlog != last_aborted.size:
        problems.append(
            f"scheduler holds {scheduler.backlog} txns, expected {last_aborted.size}")
    lost = next_tid - decided_tids.size - scheduler.backlog

    live_digest = engine.database.state_digest()
    recovery_s, replayed_batches, replayed_txns = 0.0, 0, 0
    # A batch that raised leaves a logged entry that never ran; replaying
    # it is not a recovery measurement, so the episode stops here.
    if not raised:
        recovery_s, report = _recover(s, engine, rec)
        if report.final_digest != live_digest:
            problems.append(f"recovered digest {report.final_digest[:12]} "
                            f"!= live {live_digest[:12]}")
        replayed_batches = report.batches_replayed
        replayed_txns = report.transactions_replayed
        if replayed_batches != run.num_batches:
            problems.append(
                f"recovery replayed {replayed_batches} of {run.num_batches} batches")
    if rec is not None:
        problems.extend(sp.check_nesting(rec.spans))
    return Episode(
        traced=traced,
        setup_s=s.setup_s,
        snapshot_s=s.snapshot_s,
        run=run,
        makespans_ns=makespans,
        loop_s=loop_s,
        admitted=next_tid,
        failed=max(lost, 0),
        latencies_ms=np.concatenate(latencies) if latencies else np.empty(0),
        recovery_s=recovery_s,
        replayed_batches=replayed_batches,
        replayed_txns=replayed_txns,
        digest=live_digest,
        sums=sums,
        problems=problems,
        rec=rec,
    )


def _recover(s: Setup, live: LTPGEngine, rec: sp.SpanRecorder | None):
    """Time ``recover`` from the initial snapshot plus the live batch log
    into a fresh engine with the live engine's configuration."""
    def make_engine(database):
        engine = LTPGEngine(database, s.registry, live.config)
        if rec is not None:
            instrument(engine, rec, "storage.replay_batch")
        return engine

    t0 = perf_counter_ns()
    root = rec.open("storage.recover", start_ns=t0) if rec is not None else None
    _, report = recover(s.snapshot, live.batch_log, make_engine)
    t1 = perf_counter_ns()
    if root is not None:
        rec.close(root, end_ns=t1, batches=report.batches_replayed)
    return (t1 - t0) / 1e9, report


# -- checks across episodes ------------------------------------------------
def parity_problems(wl: Workload, seed: int, episode: Episode) -> tuple[list[str], float]:
    """Run ``steady_state_run`` on a fresh set-up of the same seed and
    compare its first batches with the episode's.  Returns the problems
    and the set-up's ``setup_s`` (one more set-up sample)."""
    n = min(PARITY_BATCHES, episode.run.num_batches)
    s = setup(wl, seed)
    ref = steady_state_run(s.engine, s.generator, wl.batch_size, n)
    ours = RunStats(batches=episode.run.batches[:n])
    ours_mtps = SteadyStateResult(run=ours, makespan_ns=episode.makespans_ns[n - 1]).mtps
    problems = []
    for k, (a, b) in enumerate(zip(ours.batches, ref.run.batches)):
        if a != b:
            problems.append(
                f"parity: batch {k} stats differ from steady_state_run "
                f"(commits {a.committed}/{b.committed}, aborts {a.aborted}/{b.aborted})")
    if ref.run.num_batches != n or ours_mtps != ref.mtps:
        problems.append(f"parity: sim_mtps {ours_mtps} != steady_state_run {ref.mtps}")
    return problems, s.setup_s


def _per_batch(ep: Episode) -> dict[str, float]:
    """Per-layer metrics of one traced episode."""
    rec, run = ep.rec, ep.run
    n = run.num_batches
    lanes = ep.sums["lanes"]
    loop = sp.descendants(rec.spans, {s.id for s in rec.spans if s.name == "bench.batch"})
    self_ns = sp.self_times(rec.spans)
    by_layer = dict.fromkeys(("workloads", "txn", "storage", "core", "unattributed"), 0)
    wal_s = 0.0
    for span in loop:
        if span.name == "storage.wal_append":
            wal_s += span.duration_ns / 1e9
        layer = span.layer
        if span.name in ("bench.batch", "core.run_batch"):
            layer = "unattributed"
        by_layer[layer] += self_ns[span.id]
    decided = run.total_committed
    values = {
        "workloads.gen_s": ep.sums["gen"] / n,
        "workloads.gen_us_per_txn": ep.sums["gen"] / max(ep.sums["fresh"], 1) * 1e6,
        "txn.sched_s": ep.sums["sched"] / n,
        "txn.fresh_per_batch": ep.sums["fresh"] / n,
        "txn.eligible_backlog": ep.sums["backlog"] / n,
        "txn.retries_per_commit": ep.sums["retries"] / max(decided, 1),
        "storage.wal_append_s": wal_s / n,
        "storage.wal_records": lanes,
        "storage.snapshot_s": ep.snapshot_s,
        "core.run_batch_s": ep.sums["run_batch"] / n,
        "core.unattributed_s": (ep.sums["run_batch"] - wal_s
                                - sum(ep.sums[p] for p in PHASES)) / n,
        "core.commit_ratio": sum(b.committed for b in run.batches) / lanes,
        "core.logic_abort_ratio": sum(b.logic_aborted for b in run.batches) / lanes,
        "core.reads_registered": sum(b.registered_reads for b in run.batches) / n,
        "core.writes_registered": sum(b.registered_writes for b in run.batches) / n,
        "gpusim.transfer_ns": sum(b.transfer_ns for b in run.batches) / n,
        "gpusim.atomic_serialized": run.total_atomic_serialized / n,
    }
    for phase in PHASES:
        values[f"core.{phase}_s"] = ep.sums[phase] / n
    for phase, ns in run.phase_totals().items():
        values[f"gpusim.{phase}_ns"] = ns / n
    for layer, ns in by_layer.items():
        values[f"self.{layer}_s"] = ns / 1e9 / n
    values["storage.replay_s_per_batch"] = ep.recovery_s / ep.replayed_batches
    return values


# -- a whole run -----------------------------------------------------------
@dataclass
class Report:
    workload: str
    seed: int
    episodes: list[Episode]
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def run(
    name: str, seed: int, seconds: float, trace: bool, toy: bool = False
) -> Report:
    """Repeat episodes while another fits in ``seconds`` (at least two),
    then check parity and, untraced, take extra set-ups for ``setup_s``.
    Traced runs alternate untraced and traced episodes."""
    wl = workload(name, toy=toy)
    episodes: list[Episode] = []
    start = last = perf_counter_ns()
    while True:
        ep = run_episode(wl, seed, traced=trace and len(episodes) % 2 == 1)
        episodes.append(ep)
        gc.collect()
        now = perf_counter_ns()
        if ep.problems or (
            len(episodes) >= 2 and (2 * now - start - last) / 1e9 > seconds
        ):
            break
        last = now
    problems = [p for ep in episodes for p in ep.problems]
    if len({ep.digest for ep in episodes}) != 1:
        problems.append("episodes of one seed ended at different digests")
    plain = [ep for ep in episodes if not ep.traced]
    setup_samples = [ep.setup_s for ep in episodes]
    if not problems:
        parity, parity_setup_s = parity_problems(wl, seed, plain[0])
        problems.extend(parity)
        setup_samples.append(parity_setup_s)
        gc.collect()
    while not trace and not problems and (
        len(setup_samples) < MIN_SETUPS or sum(setup_samples) < MIN_SETUP_SECONDS
    ):
        setup_samples.append(setup(wl, seed).setup_s)
        gc.collect()
    if problems:
        metrics = {}
    elif trace:
        traced = [ep for ep in episodes if ep.traced]
        rows = [_per_batch(ep) for ep in traced]
        metrics = {key: median(r[key] for r in rows) for key in PER_LAYER if key in rows[0]}
        metrics["trace.overhead_ratio"] = (
            median(ep.commit_tps for ep in traced)
            / median(ep.commit_tps for ep in plain))
    else:
        # Every episode of a seed has the same batches, so their latency
        # samples pool into one distribution.
        lat = np.concatenate([ep.latencies_ms for ep in plain])
        metrics = {
            "commit_tps": median(ep.commit_tps for ep in plain),
            "txn_p50_ms": float(np.percentile(lat, 50)),
            "txn_p99_ms": float(np.percentile(lat, 99)),
            "recovery_tps": median(ep.replayed_txns / ep.recovery_s for ep in plain),
            "sim_mtps": median(ep.sim_mtps for ep in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": median(setup_samples),
        }
    return Report(
        workload=name,
        seed=seed,
        episodes=episodes,
        metrics=metrics,
        attempted=sum(ep.admitted for ep in episodes),
        failed=sum(ep.failed for ep in episodes),
        problems=problems,
    )
