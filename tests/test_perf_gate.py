"""Opt-in host wall-clock regression gate (``pytest -m perf``).

Deselected by default (``addopts = -m "not perf"``): wall-clock numbers
are machine-dependent and have nothing to do with the simulated-time
correctness the default suite checks.  The gate logic itself lives in
``scripts/check_wallclock.py`` so CI can also run it standalone.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
_BASELINE = os.path.join(_ROOT, "BENCH_wallclock.json")


def _load_gate():
    path = os.path.join(_ROOT, "scripts", "check_wallclock.py")
    spec = importlib.util.spec_from_file_location("check_wallclock", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.perf
def test_execute_phase_within_30pct_of_committed_baseline():
    if not os.path.exists(_BASELINE):
        pytest.skip("no committed BENCH_wallclock.json baseline")
    gate = _load_gate()
    assert gate.check(_BASELINE) == 0, (
        "execute-phase host time regressed >30% vs BENCH_wallclock.json; "
        "investigate, or regenerate the baseline with "
        "`python benchmarks/bench_wallclock.py` if the change is intended"
    )


@pytest.mark.perf
def test_batched_beats_columnar_on_execute_writeback():
    gate = _load_gate()
    assert gate.check_batched() == 0, (
        "the batched executor no longer beats the columnar path by the "
        "required floor on execute+writeback at the headline batch size"
    )

