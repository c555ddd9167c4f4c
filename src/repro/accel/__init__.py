"""Hot-path acceleration layer: fast in-order engine + memoization.

``repro.accel`` makes single-process sweeps several times faster without
changing a single simulated number:

* :class:`~repro.accel.engine.AccelEngine` and
  :class:`~repro.accel.ooo.OoOAccelEngine` — bit-identical fast
  execution paths for :class:`~repro.core.inorder.InOrderCore` and
  :class:`~repro.core.ooo.OoOCore`, selected by the ``SoCConfig.accel``
  knob (``"on"``/``"off"``).  Each runs a transliterated scalar loop over
  mirrored component state.
* :mod:`~repro.accel.memo` — the decoded-trace cache the engines read,
  content-digest trace identity, shared workload traces across sweep
  points, and an in-process LRU for whole-run results.
* :mod:`~repro.accel.stats` — per-core engine counters and process-wide
  memo counters, surfaced through telemetry snapshots as ``accel.*``
  keys.

The bit-identity contract (``accel="on"`` equals ``accel="off"`` for
cycles, stall attribution, CPI stacks, and all component stats) is
regression-tested across every named config; see docs/performance.md.
"""

from .memo import (clear_caches, config_digest, memo_enabled, shared_trace,
                   trace_digest)
from .stats import AccelGlobalStats, AccelStats, global_stats, \
    reset_global_stats

__all__ = [
    "AccelStats",
    "AccelGlobalStats",
    "global_stats",
    "reset_global_stats",
    "trace_digest",
    "shared_trace",
    "config_digest",
    "memo_enabled",
    "clear_caches",
]
