"""A database: a named collection of tables.

Tables get dense integer ids at creation time; engines use
``(table_id, row_slot)`` pairs as data-item identities for conflict
logging, which is deterministic and cheap to hash on the simulated GPU.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import StorageError
from repro.storage.schema import Schema
from repro.storage.table import Table


class Database:
    """Named tables with stable integer ids."""

    def __init__(self, name: str = "db"):
        self.name = name
        self._tables: list[Table] = []
        self._by_name: dict[str, int] = {}
        self._resolved: dict[str, tuple[int, Table]] = {}

    def create_table(self, schema: Schema, capacity: int = 1024) -> Table:
        if schema.table_name in self._by_name:
            raise StorageError(f"table {schema.table_name!r} already exists")
        table = Table(schema, capacity=capacity)
        self._by_name[schema.table_name] = len(self._tables)
        self._resolved[schema.table_name] = (len(self._tables), table)
        self._tables.append(table)
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[self._by_name[name]]
        except KeyError:
            raise StorageError(f"no table named {name!r}") from None

    def resolve(self, name: str) -> tuple[int, Table]:
        """``(table_id, table)`` in one lookup — the per-operation path
        stored-procedure contexts hit for every access."""
        try:
            return self._resolved[name]
        except KeyError:
            raise StorageError(f"no table named {name!r}") from None

    def table_by_id(self, table_id: int) -> Table:
        if not 0 <= table_id < len(self._tables):
            raise StorageError(f"no table with id {table_id}")
        return self._tables[table_id]

    def table_id(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise StorageError(f"no table named {name!r}") from None

    @property
    def tables(self) -> list[Table]:
        return list(self._tables)

    @property
    def num_tables(self) -> int:
        return len(self._tables)

    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in self._tables)

    def copy(self) -> "Database":
        clone = Database(self.name)
        clone._tables = [t.copy() for t in self._tables]
        clone._by_name = dict(self._by_name)
        clone._resolved = {
            name: (tid, clone._tables[tid])
            for name, tid in clone._by_name.items()
        }
        return clone

    def partition_profile(self, owner_keys, shards: int) -> dict[str, list[int]]:
        """Per-table live-row counts by owning shard.

        ``owner_keys(table_id, keys) -> owners`` is the partition map
        (a :class:`repro.shard.BoundPartition` method, kept callable-
        typed here so storage stays partition-agnostic).  The result is
        the per-shard balance ledger the sharded bench publishes.
        """
        profile: dict[str, list[int]] = {}
        for table_id, table in enumerate(self._tables):
            owners = np.asarray(owner_keys(table_id, table.keys_array()))
            profile[table.name] = np.bincount(
                owners, minlength=shards
            ).astype(int).tolist()
        return profile

    def state_digest(self) -> str:
        """SHA-256 over all live table data; equal digests mean equal
        database states (used by determinism tests)."""
        h = hashlib.sha256()
        for table in self._tables:
            h.update(table.name.encode())
            for part in table.signature_parts():
                h.update(part)
        return h.hexdigest()
