"""Batch logging for determinism and recovery.

The paper: "The CPU also records each batch of transactions on the hard
drive as logs.  LTPG guarantees consistent transaction outcomes by
assigning a unique TID to each transaction in a batch, logging it for
reference.  If re-execution is necessary, the system pulls the
transactions from the log, while preserving their original TIDs."

:class:`BatchLog` records, per batch, every transaction's (tid,
procedure, params) plus the commit decisions, and can replay the whole
history onto a snapshot — which is exactly how the determinism tests
validate that re-running the log reproduces the database state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from repro.errors import StorageError


@dataclass(frozen=True)
class LogRecord:
    """One transaction as it entered a batch."""

    tid: int
    procedure: str
    params: tuple

    def to_json(self) -> str:
        return json.dumps(
            {"tid": self.tid, "procedure": self.procedure, "params": list(self.params)}
        )

    @classmethod
    def from_json(cls, text: str) -> "LogRecord":
        obj = json.loads(text)
        return cls(tid=obj["tid"], procedure=obj["procedure"], params=tuple(obj["params"]))


@dataclass
class BatchRecord:
    """The log entry for one batch.

    The outcome lists stay ``None`` until :meth:`BatchLog.record_outcome`
    runs after the batch finished: a batch that raised mid-way has no
    outcome, and recovery must not replay it.
    """

    batch_index: int
    records: list[LogRecord]
    committed_tids: list[int] | None = None
    aborted_tids: list[int] | None = None


class BatchLog:
    """An append-only in-memory log of batches (the simulated 'disk')."""

    def __init__(self) -> None:
        self._batches: list[BatchRecord] = []

    def __len__(self) -> int:
        return len(self._batches)

    def append_batch(self, batch_index: int, transactions) -> BatchRecord:
        """Log a batch's inputs before execution."""
        records = [
            LogRecord(tid=t.tid, procedure=t.procedure_name, params=tuple(t.params))
            for t in transactions
        ]
        entry = BatchRecord(batch_index=batch_index, records=records)
        self._batches.append(entry)
        return entry

    def record_outcome(
        self, batch_index: int, committed: list[int], aborted: list[int]
    ) -> None:
        entry = self._find(batch_index)
        entry.committed_tids = sorted(committed)
        entry.aborted_tids = sorted(aborted)

    def _find(self, batch_index: int) -> BatchRecord:
        for entry in reversed(self._batches):
            if entry.batch_index == batch_index:
                return entry
        raise StorageError(f"batch {batch_index} was never logged")

    def batches(self) -> list[BatchRecord]:
        return list(self._batches)

    def dump_lines(self) -> list[str]:
        """Serialized log lines (one JSON record per transaction)."""
        lines = []
        for entry in self._batches:
            for record in entry.records:
                lines.append(
                    json.dumps(
                        {
                            "batch": entry.batch_index,
                            "tid": record.tid,
                            "procedure": record.procedure,
                            "params": list(record.params),
                        }
                    )
                )
        return lines

    def replay(self, run_batch: Callable[[BatchRecord], None]) -> None:
        """Feed every logged batch, in order, to ``run_batch``."""
        for entry in self._batches:
            run_batch(entry)
