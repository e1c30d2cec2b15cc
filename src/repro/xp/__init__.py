"""``repro.xp`` — the array-backend shim for the batched hot path.

Selects between the NumPy reference and the ``mockgpu`` contract
checker by name:

>>> from repro import xp
>>> backend = xp.get_backend("numpy")      # the pinned reference
>>> backend = xp.get_backend("mockgpu")    # device contract under CI

``get_backend`` raises :class:`~repro.errors.BackendError` for unknown
names; :class:`~repro.core.config.LTPGConfig` checks the name against
:data:`BACKEND_NAMES` and raises ``ConfigError`` at construction time,
so a typo'd backend name fails before any engine state exists.  A real
device backend plugs in by implementing :class:`ArrayBackend` against
:data:`CONTRACT`.

The numpy backend is a shared singleton (it is stateless: its transfer
ledger is zero by contract); mock backends are constructed fresh per
call so each engine owns an isolated transfer ledger.
"""

from __future__ import annotations

from repro.errors import BackendError
from repro.xp.base import CONTRACT, ArrayBackend, BackendContract, TransferStats
from repro.xp.mockgpu import MockGpuBackend
from repro.xp.numpy_backend import NumpyBackend
from repro.xp.residency import DeviceTableView, ResidencyManager, ResidencyStats

#: Names accepted by :func:`get_backend` / ``LTPGConfig.array_backend``.
BACKEND_NAMES = ("numpy", "mockgpu")

_numpy_singleton: NumpyBackend | None = None


def get_backend(name: str) -> ArrayBackend:
    """Construct the backend called ``name``.

    Raises :class:`BackendError` for names outside :data:`BACKEND_NAMES`.
    """
    if name == "numpy":
        global _numpy_singleton
        if _numpy_singleton is None:
            _numpy_singleton = NumpyBackend()
        return _numpy_singleton
    if name == "mockgpu":
        return MockGpuBackend()
    raise BackendError(
        f"unknown array backend {name!r}; expected one of "
        f"{', '.join(BACKEND_NAMES)}"
    )


__all__ = [
    "BACKEND_NAMES",
    "CONTRACT",
    "ArrayBackend",
    "BackendContract",
    "DeviceTableView",
    "MockGpuBackend",
    "NumpyBackend",
    "ResidencyManager",
    "ResidencyStats",
    "TransferStats",
    "get_backend",
]
