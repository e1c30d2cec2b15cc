"""Operation records: the uniform language between stored procedures and
concurrency-control engines.

A stored procedure executes against a context (:mod:`repro.txn.context`)
and leaves behind a stream of operations — reads, full-value writes,
commutative adds, and inserts.  Every engine in this repo (LTPG and all
baselines) consumes the same records, which is what makes the
cross-system benchmarks apples-to-apples.

Storage layout
--------------
Operations are recorded *columnar*: :class:`OpColumns` keeps one typed
field per op attribute (kind / table / row / column-id / value / key)
so the LTPG engine can consume a whole batch with NumPy array
operations instead of walking Python objects.  Column names are
interned process-wide (:func:`intern_column`) so the column field is an
``int64`` like everything else.  :class:`OpRecord` remains the
per-operation view — indexing or iterating an :class:`OpColumns`
materializes records on demand, which keeps the baselines and tests
that think in objects working unchanged.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Iterator

import numpy as np


class OpKind(enum.IntEnum):
    """The four operation types LTPG decomposes transactions into.

    ``ADD`` is a commutative read-modify-write (``col += delta``); it is
    the operation class eligible for the paper's delayed-update strategy.
    """

    READ = 0
    WRITE = 1
    ADD = 2
    INSERT = 3


@dataclass(frozen=True)
class OpRecord:
    """One executed operation.

    ``row`` is the table row slot for READ/WRITE/ADD; for INSERT it is
    ``-1`` and ``key`` carries the new primary key.  ``value`` is the
    value read, the value written, or the delta added.
    """

    kind: OpKind
    table_id: int
    row: int
    column: str
    value: int
    key: int = 0

    def item(self) -> tuple[int, int]:
        """The data-item identity used for row-level conflict detection."""
        return (self.table_id, self.row)


#: Number of distinct op kinds (used to size per-type warp queues).
NUM_OP_KINDS = len(OpKind)

# -- column interning --------------------------------------------------------
# Column names are few (schemas are small) and live for the process, so a
# global intern table keeps the per-op field numeric everywhere.
_COLUMN_IDS: dict[str, int] = {}
_COLUMN_NAMES: list[str] = []


def intern_column(name: str) -> int:
    """Process-wide id of a column name (stable for the process life)."""
    col_id = _COLUMN_IDS.get(name)
    if col_id is None:
        col_id = len(_COLUMN_NAMES)
        _COLUMN_IDS[name] = col_id
        _COLUMN_NAMES.append(name)
    return col_id


def column_name(col_id: int) -> str:
    """Inverse of :func:`intern_column`."""
    return _COLUMN_NAMES[col_id]


def column_interner_size() -> int:
    """How many distinct column names have been interned so far."""
    return len(_COLUMN_NAMES)


# The empty column (inserts) and the key pseudo-column are always present.
_EMPTY_COLUMN_ID = intern_column("")
KEY_COLUMN = "__key__"
_KEY_COLUMN_ID = intern_column(KEY_COLUMN)

#: Fields per op row in :class:`OpColumns` (kind, table, row, col, value, key).
OP_FIELDS = 6

# The matrix slot of every op buffer that is not a lazy window.
_NO_MATRIX = np.empty((0, OP_FIELDS), dtype=np.int64)


class OpColumns:
    """A growable columnar buffer of operations.

    Appends extend a flat ``array('q')`` (int64) of row-major 6-field
    groups — a single C-level call per op, the cheapest append path
    CPython offers.  Recording hot paths may extend :attr:`buffer`
    directly (6 values at a time); the typed ``(n, 6)`` int64 matrix is
    materialized per access (one memcpy of the buffer), so there is no
    cache to invalidate.  Sequence access (``len``/indexing/iteration)
    yields :class:`OpRecord` views for object-oriented consumers.

    A buffer made by :meth:`window` starts as a lazy view of rows of a
    shared op matrix; its bytes are copied into the append buffer the
    first time anything reads them (``len`` and truthiness excepted).
    """

    # A window keeps its matrix and row bounds in slots of its own (no
    # tuple, no empty buffer): a batch holds one per twin lane.
    __slots__ = ("_buf", "_mat", "_start", "_stop")

    def __init__(self) -> None:
        #: ``None`` while the ops are an unread window onto ``_mat``
        self._buf: array | None = array("q")
        self._mat = _NO_MATRIX
        self._start = self._stop = 0

    @classmethod
    def window(cls, mat: np.ndarray, start: int, stop: int) -> "OpColumns":
        """A lazy view of rows ``start:stop`` of an ``(n, OP_FIELDS)``
        int64 op matrix (a batched twin lane's slice of its group's
        matrix).  Costs one object until read; ``mat`` must never be
        mutated afterwards."""
        ops = cls.__new__(cls)
        ops._buf = None
        ops._mat = mat
        ops._start = start
        ops._stop = stop
        return ops

    def _materialize(self) -> array:
        """Copy a lazy window's rows into a buffer of its own (once)."""
        buf = self._buf = array("q", self._mat[self._start : self._stop].tobytes())
        self._mat = _NO_MATRIX
        return buf

    def _flat(self) -> array:
        buf = self._buf
        return self._materialize() if buf is None else buf

    # -- recording --------------------------------------------------------
    def append_op(
        self,
        kind: int,
        table_id: int,
        row: int,
        col_id: int,
        value: int,
        key: int = 0,
    ) -> None:
        self._flat().extend((kind, table_id, row, col_id, value, key))

    @property
    def buffer(self) -> array:
        """The flat int64 row-major buffer (engine fast path — bulk
        concatenation across transactions is one memcpy each; do not
        mutate)."""
        return self._flat()

    @property
    def raw(self) -> list[tuple[int, int, int, int, int, int]]:
        """The ops as fixed-width tuple rows (copies; test helper)."""
        b = self._flat()
        return [tuple(b[i : i + OP_FIELDS]) for i in range(0, len(b), OP_FIELDS)]

    # -- columnar views ---------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """All ops as an ``(n, OP_FIELDS)`` int64 matrix (copies out of
        the append buffer, so later appends never race a live view)."""
        buf = self._flat()
        n = len(buf) // OP_FIELDS
        return np.frombuffer(buf.tobytes(), dtype=np.int64).reshape(
            n, OP_FIELDS
        )

    @property
    def kinds(self) -> np.ndarray:
        return self.matrix[:, 0]

    @property
    def tables(self) -> np.ndarray:
        return self.matrix[:, 1]

    @property
    def rows(self) -> np.ndarray:
        return self.matrix[:, 2]

    @property
    def columns(self) -> np.ndarray:
        """Interned column ids (decode with :func:`column_name`)."""
        return self.matrix[:, 3]

    @property
    def values(self) -> np.ndarray:
        return self.matrix[:, 4]

    @property
    def keys(self) -> np.ndarray:
        return self.matrix[:, 5]

    # -- OpRecord compatibility ------------------------------------------
    def _record(self, index: int) -> OpRecord:
        base = index * OP_FIELDS
        kind, table_id, r, col_id, value, key = self._flat()[base : base + OP_FIELDS]
        return OpRecord(
            OpKind(kind), table_id, r, _COLUMN_NAMES[col_id], value, key=key
        )

    def __len__(self) -> int:
        buf = self._buf
        if buf is None:
            return self._stop - self._start
        return len(buf) // OP_FIELDS

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[OpRecord]:
        return map(self._record, range(len(self)))

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self._record(i) for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("op index out of range")
        return self._record(index)

    def to_records(self) -> list[OpRecord]:
        """Materialize every op as an :class:`OpRecord` (test helper)."""
        return [self._record(i) for i in range(len(self))]

    def __repr__(self) -> str:
        return f"OpColumns(n={len(self)})"
