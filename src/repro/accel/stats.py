"""Counters for the hot-path acceleration layer.

Two scopes:

* :class:`AccelStats` — per-core engine counters.  Each accelerated core
  owns one; ``fallback_uops`` counts the micro-ops its transliterated
  scalar loop retired.
* :func:`global_stats` — process-wide counters (result memo, shared
  trace cache, interpreter decode cache, and the same uop total summed
  over every engine).  These live outside any :class:`~repro.soc.System`
  because a memo hit never builds a system at all.

Both surface through :class:`repro.telemetry.StatsRegistry` snapshots
under conditional ``accel`` keys (present only when the config runs with
``accel="on"``), mirroring how watchdog stats stay absent on unwatched
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AccelStats", "AccelGlobalStats", "global_stats",
           "reset_global_stats"]


@dataclass
class AccelStats:
    """Per-core engine counters."""

    fallback_uops: int = 0     #: uops retired by the scalar engine loop

    def reset(self) -> None:
        self.__init__()


@dataclass
class AccelGlobalStats:
    """Process-wide accel counters: memo caches plus engine uops.

    ``fallback_uops`` accumulates across every engine in the process
    (systems are often built and discarded per run, so the per-core
    :class:`AccelStats` may be gone by the time a harness reads it).
    """

    memo_hits: int = 0
    memo_misses: int = 0
    trace_cache_hits: int = 0
    trace_cache_misses: int = 0
    decode_hits: int = 0
    decode_misses: int = 0
    fallback_uops: int = 0

    def reset(self) -> None:
        self.__init__()


_GLOBAL = AccelGlobalStats()


def global_stats() -> AccelGlobalStats:
    """The process-wide accel counter record (a single shared instance)."""
    return _GLOBAL


def reset_global_stats() -> None:
    _GLOBAL.reset()
