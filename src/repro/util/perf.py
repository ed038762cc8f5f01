"""Performance fast-path switches.

The hot paths of the simulator (forecaster ensembles, NWS query caching,
bulk epoch generation, the engine's zero-delay queue, the vectorised
execution core) carry optimised implementations alongside the
straightforward reference code they replaced.  This module is the single
switch that selects between them:

- **fast path on** (the default) — incremental window statistics, memoised
  forecasts, batched RNG draws, compiled struct-of-arrays execution
  (:class:`repro.sim.execution_fast.CompiledExecution`);
- **fast path off** — the naive reference implementations, numerically
  identical to the original seed code.

Keeping both live serves three purposes: regression tests can assert the
optimised code agrees with the reference, benchmarks can measure the
speedup honestly, and a suspected fast-path bug can be ruled out in one
line (``REPRO_NO_FASTPATH=1``).  It is the only switch: the scheduling
decision, for example, has one batched core (solo ``schedule()`` runs it
as a batch of one) beside the reference loop.

The switch is read at *construction* time by each component, so toggling
it mid-experiment only affects objects built afterwards.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = [
    "fastpath_enabled",
    "set_fastpath",
    "fastpath",
]

_FASTPATH = os.environ.get("REPRO_NO_FASTPATH", "").strip().lower() not in (
    "1", "true", "yes", "on",
)


def fastpath_enabled() -> bool:
    """Whether newly-constructed components should use optimised paths."""
    return _FASTPATH


def set_fastpath(enabled: bool) -> bool:
    """Set the global fast-path switch; returns the new value."""
    global _FASTPATH
    _FASTPATH = bool(enabled)
    return _FASTPATH


@contextmanager
def fastpath(enabled: bool):
    """Temporarily force the fast-path switch (for tests and benchmarks)."""
    previous = _FASTPATH
    set_fastpath(enabled)
    try:
        yield
    finally:
        set_fastpath(previous)
