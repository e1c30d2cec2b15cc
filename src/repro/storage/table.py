"""Column-oriented in-memory tables.

Storage is structure-of-arrays (one int64 NumPy array per column), which
is both what a GPU engine would keep in global memory and what lets the
simulator's kernels run vectorized.  Rows are addressed by *slot*
(insertion index); the primary index maps keys to slots.  Slots are
never reused, so a slot is a stable item identity for conflict logging.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import DuplicateKey, StorageError
from repro.storage.btree import BTreeIndex
from repro.storage.index import PrimaryIndex, SecondaryIndex
from repro.storage.schema import Schema

#: Initial capacity for tables created without an explicit size hint.
_DEFAULT_CAPACITY = 1024


class Table:
    """One table: key array + attribute columns + indexes."""

    def __init__(self, schema: Schema, capacity: int = _DEFAULT_CAPACITY):
        if capacity <= 0:
            raise StorageError("table capacity must be positive")
        self.schema = schema
        self._capacity = capacity
        self._num_rows = 0
        self._keys = np.zeros(capacity, dtype=np.int64)
        self._columns: dict[str, np.ndarray] = {
            c.name: np.full(capacity, c.default, dtype=np.int64)
            for c in schema.columns
        }
        self.primary = PrimaryIndex()
        self.secondary: dict[str, SecondaryIndex] = {}
        #: Optional B-tree over primary keys (range-query extension).
        self.ordered: BTreeIndex | None = None
        #: Keys below this value map to row == key (dense fast path set
        #: up by :meth:`bulk_load`); keys at or above it use the dict.
        self._dense_limit = 0
        #: Device-resident view hook (:mod:`repro.xp.residency`): while
        #: set, device-side scatters may leave host columns stale, and
        #: the host accessors below fence lazily before reading.
        self._resident_view = None

    # -- shape ----------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_rows

    @property
    def name(self) -> str:
        return self.schema.table_name

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def nbytes(self) -> int:
        """Live data footprint (populated rows only)."""
        return self._num_rows * self.schema.row_bytes

    def _grow(self, needed: int) -> None:
        if self._resident_view is not None:
            # Fence before reallocating so np.resize copies a current
            # prefix; the grown arrays re-upload lazily on next touch.
            self._resident_view.fence()
        new_capacity = self._capacity
        while new_capacity < needed:
            new_capacity *= 2
        self._keys = np.resize(self._keys, new_capacity)
        self._keys[self._capacity:] = 0
        for name, arr in self._columns.items():
            grown = np.resize(arr, new_capacity)
            grown[self._capacity:] = 0
            self._columns[name] = grown
        self._capacity = new_capacity

    # -- ordered (B-tree) index ------------------------------------------------
    def add_ordered_index(self) -> BTreeIndex:
        """Build a B-tree over primary keys, enabling
        :meth:`range_rows`.  Maintained automatically on insert."""
        if self.ordered is not None:
            raise StorageError(f"table {self.name!r} already has an ordered index")
        index = BTreeIndex()
        for row in range(self._num_rows):
            index.insert(int(self._keys[row]), row)
        self.ordered = index
        return index

    def range_rows(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """(key, row) pairs with lo <= key <= hi in key order; requires
        an ordered index."""
        if self.ordered is None:
            raise StorageError(
                f"table {self.name!r} has no ordered index; call "
                f"add_ordered_index() to enable range queries"
            )
        return list(self.ordered.range(lo, hi))

    # -- secondary indexes ------------------------------------------------------
    def add_secondary_index(self, column: str) -> SecondaryIndex:
        """Index rows by the value of ``column``; maintained on insert."""
        if column not in self._columns:
            raise StorageError(
                f"cannot index {self.name!r} on unknown column {column!r}"
            )
        if column in self.secondary:
            raise StorageError(f"secondary index on {column!r} already exists")
        index = SecondaryIndex(column)
        for row in range(self._num_rows):
            index.insert(int(self._columns[column][row]), row)
        self.secondary[column] = index
        return index

    # -- bulk loading ---------------------------------------------------------
    def bulk_load(self, keys: np.ndarray, columns: dict[str, np.ndarray]) -> None:
        """Vectorized population of an empty table.

        ``keys`` must be unique; when they are exactly ``0..n-1`` the
        primary index switches to a dense fast path (no per-key dict),
        which is what makes 10M-row YCSB tables loadable.
        """
        if self._num_rows:
            raise StorageError("bulk_load requires an empty table")
        keys = np.asarray(keys, dtype=np.int64)
        n = keys.size
        if n == 0:
            return
        self._grow(n)
        self._keys[:n] = keys
        for name, values in columns.items():
            col = self.column(name)
            col[:n] = np.asarray(values, dtype=np.int64)
        self._num_rows = n
        if self._resident_view is not None:
            self._resident_view.host_written_all()
        dense = bool(keys[0] == 0 and keys[-1] == n - 1 and np.all(np.diff(keys) == 1))
        if dense:
            self._dense_limit = n
        else:
            if np.unique(keys).size != n:
                raise DuplicateKey("bulk_load keys must be unique")
            for row in range(n):
                self.primary.insert(int(keys[row]), row)
        for column, index in self.secondary.items():
            values = self._columns[column]
            for row in range(n):
                index.insert(int(values[row]), row)
        if self.ordered is not None:
            for row in range(n):
                self.ordered.insert(int(keys[row]), row)

    # -- writes -------------------------------------------------------------
    def insert(self, key: int, values: dict[str, int] | None = None) -> int:
        """Insert a row; returns its slot."""
        if self._resident_view is not None:
            self._resident_view.fence()
        if self._num_rows + 1 > self._capacity:
            self._grow(self._num_rows + 1)
        row = self._num_rows
        if 0 <= key < self._dense_limit:
            raise DuplicateKey(f"primary key {key} already present")
        self.primary.insert(int(key), row)
        self._keys[row] = key
        if values:
            for name, value in values.items():
                if name not in self._columns:
                    raise StorageError(
                        f"table {self.name!r} has no column {name!r}"
                    )
                self._columns[name][row] = value
        self._num_rows += 1
        for column, index in self.secondary.items():
            index.insert(int(self._columns[column][row]), row)
        if self.ordered is not None:
            self.ordered.insert(int(key), row)
        if self._resident_view is not None:
            self._resident_view.host_written_all()
        return row

    def append_keys(self, keys: np.ndarray) -> np.ndarray:
        """Phase one of a vectorized append: claim consecutive slots for
        ``keys`` (new and distinct — the caller dedups against the table
        and within the batch) and register them in the primary index.

        Returns the assigned row slots.  The caller scatters the new
        rows' column payloads, then calls :meth:`index_appended` so the
        secondary/ordered indexes see the final values — the same
        sequence a per-row :meth:`insert` loop produces.
        """
        keys = np.asarray(keys, dtype=np.int64)
        k = keys.size
        if k == 0:
            return keys
        start = self._num_rows
        if start + k > self._capacity:
            self._grow(start + k)
        rows = np.arange(start, start + k, dtype=np.int64)
        self._keys[start:start + k] = keys
        self._num_rows = start + k
        self.primary.bulk_insert(keys.tolist(), rows.tolist())
        return rows

    def index_appended(self, rows: np.ndarray) -> None:
        """Phase two of a vectorized append: secondary and ordered index
        maintenance for ``rows``, in slot order."""
        row_list = rows.tolist()
        for column, index in self.secondary.items():
            ins = index.insert
            for v, row in zip(self._columns[column][rows].tolist(), row_list):
                ins(v, row)
        if self.ordered is not None:
            ins = self.ordered.insert
            for key, row in zip(self._keys[rows].tolist(), row_list):
                ins(key, row)

    def write(self, row: int, column: str, value: int) -> None:
        self._check_row(row)
        self.column(column)[row] = value
        if self._resident_view is not None:
            self._resident_view.host_written(column)

    def add(self, row: int, column: str, delta: int) -> None:
        self._check_row(row)
        self.column(column)[row] += delta
        if self._resident_view is not None:
            self._resident_view.host_written(column)

    # -- reads ------------------------------------------------------------------
    def lookup(self, key: int) -> int:
        """Primary-key lookup; raises :class:`KeyNotFound`."""
        key = int(key)
        if 0 <= key < self._dense_limit:
            return key
        return self.primary.lookup(key)

    def get_row(self, key: int) -> int | None:
        key = int(key)
        if 0 <= key < self._dense_limit:
            return key
        return self.primary.get(key)

    def key_of(self, row: int) -> int:
        self._check_row(row)
        return int(self._keys[row])

    def read(self, row: int, column: str) -> int:
        if not 0 <= row < self._num_rows:
            self._check_row(row)
        if self._resident_view is not None:
            self._resident_view.fence_column(column)
        try:
            return int(self._columns[column][row])
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no column {column!r}"
            ) from None

    def column(self, name: str) -> np.ndarray:
        """The host array for ``name``; under device residency this is
        the lazy stale-host-read fence (a dirty column ships down here
        once before any host code sees it)."""
        if self._resident_view is not None:
            self._resident_view.fence_column(name)
        try:
            return self._columns[name]
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def host_column(self, name: str) -> np.ndarray:
        """The host array for ``name`` *without* the residency fence.
        Only for writers that touch freshly appended slots (the insert
        install path mirrors those device-side via ``note_appended``);
        anything reading existing rows must use :meth:`column`."""
        try:
            return self._columns[name]
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def read_many(self, rows, column: str) -> np.ndarray:
        """Vectorized gather of one column at many row slots."""
        return self.column(column)[np.asarray(rows, dtype=np.int64)]

    def keys_array(self) -> np.ndarray:
        return self._keys[: self._num_rows]

    def keys_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`key_of`: primary keys at many row slots
        (the partition router's cell->owner gather).  Keys live host-
        side even under device residency, so no fence is needed."""
        return self._keys[np.asarray(rows, dtype=np.int64)]

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self._num_rows:
            raise StorageError(
                f"row {row} out of range for table {self.name!r} "
                f"({self._num_rows} rows)"
            )

    # -- copying ------------------------------------------------------------
    def copy(self) -> "Table":
        """Deep copy (used for snapshots and serializability replay)."""
        if self._resident_view is not None:
            self._resident_view.fence()
        clone = Table(self.schema, capacity=max(self._capacity, 1))
        clone._num_rows = self._num_rows
        clone._keys = self._keys.copy()
        clone._columns = {n: a.copy() for n, a in self._columns.items()}
        clone.primary = self.primary.copy()
        clone.secondary = {n: ix.copy() for n, ix in self.secondary.items()}
        clone.ordered = self.ordered.copy() if self.ordered is not None else None
        clone._dense_limit = self._dense_limit
        return clone

    def state_signature(self) -> bytes:
        """A canonical byte representation of live data (rows ordered by
        key), for equality checks in determinism and serializability
        tests.  Canonical ordering matters: two logically identical
        states may have inserted rows in different physical slots."""
        return b"".join(part.tobytes() for part in self.signature_parts())

    def signature_parts(self) -> Iterator[np.ndarray]:
        """The arrays whose bytes, in order, make up
        :meth:`state_signature`: keys, then each column by name, all in
        key order.  Hashing them one at a time never holds more than one
        reordered column, where the joined signature holds two copies of
        the whole table."""
        if self._resident_view is not None:
            self._resident_view.fence()
        keys = self._keys[: self._num_rows]
        order = np.argsort(keys, kind="stable")
        yield keys[order]
        for name in sorted(self._columns):
            yield self._columns[name][: self._num_rows][order]
