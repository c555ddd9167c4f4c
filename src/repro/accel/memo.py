"""Trace and result memoization for the acceleration layer.

Sweeps rerun the same decoded workloads over and over: every config point
of ``sweep_configs`` rebuilds the same kernel trace, and warmup/measure
harnesses run each trace twice on a fresh system.  This module removes the
redundancy without touching semantics:

* :func:`trace_digest` — content identity of a :class:`~repro.isa.trace.Trace`
  (sha-256 over its column arrays, the same hashing the checkpoint layer
  uses), computed once per trace object.
* :func:`trace_arrays` — per-trace decoded view for the fast engines
  (python lists of every column), the one decoded-trace cache.
* :func:`shared_trace` — process-wide ``(kernel, scale, seed) -> Trace``
  cache so sweeps share one decoded trace across configurations.
* :func:`memo_get` / :func:`memo_put` — a bounded in-process LRU keyed on
  ``(trace_digest, core_config_digest, uncore_state_class)`` for whole-run
  results (cold-start, fresh-system runs only: those are the only runs
  whose outcome is a pure function of that key).

All caches hold deep-copied payloads on the way out, so a memo hit can
never alias live state, and everything is disabled either per-config
(``accel="off"``) or globally (``REPRO_ACCEL_MEMO=0``).
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from .stats import global_stats

__all__ = [
    "trace_digest",
    "trace_arrays",
    "shared_trace",
    "memo_key",
    "memo_get",
    "memo_put",
    "memo_enabled",
    "clear_caches",
    "config_digest",
    "latency_lut",
]

#: columns of a Trace, in hashing order (mirrors Trace.__slots__)
_TRACE_COLUMNS = ("op", "dst", "src1", "src2", "addr", "size", "taken",
                  "pc", "target")

#: bound on cached whole-run results
_MEMO_MAX = 256
#: bound on decoded per-trace array views (each can be large)
_ARRAYS_MAX = 8
#: bound on shared workload traces
_TRACE_MAX = 64


def memo_enabled() -> bool:
    """Whether the in-process result memo is active (env kill-switch)."""
    return os.environ.get("REPRO_ACCEL_MEMO", "1") != "0"


# -- trace content identity ---------------------------------------------------

#: id(trace) -> (trace, digest); the strong trace reference pins the id
_digests: OrderedDict[int, tuple[Any, str]] = OrderedDict()


def trace_digest(trace) -> str:
    """sha-256 over a trace's column arrays; cached per trace object."""
    key = id(trace)
    hit = _digests.get(key)
    if hit is not None:
        if hit[0] is trace:
            _digests.move_to_end(key)
            return hit[1]
        # id() reuse: the pinned trace died elsewhere (e.g. clear_caches
        # raced) and CPython recycled its address.  Purge, then rehash.
        del _digests[key]
    h = hashlib.sha256()
    for name in _TRACE_COLUMNS:
        arr = np.ascontiguousarray(getattr(trace, name))
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    digest = h.hexdigest()
    _digests[key] = (trace, digest)
    if len(_digests) > _TRACE_MAX:
        _digests.popitem(last=False)
    return digest


# -- decoded array views for the fast engine ----------------------------------

#: id(trace) -> (trace, arrays-dict); strong reference pins the id
_arrays: OrderedDict[int, tuple[Any, dict[str, Any]]] = OrderedDict()


def trace_arrays(trace) -> dict[str, Any]:
    """Python-list views of a trace's columns.

    ``tolist()`` converts numpy scalars to plain ints/bools once, so the
    scalar fast loops never pay per-element numpy unboxing.  The result is
    cached per trace object (bounded; traces are immutable).  No content
    digest is taken: that is only needed for memo keys.
    """
    key = id(trace)
    hit = _arrays.get(key)
    if hit is not None:
        if hit[0] is trace:
            _arrays.move_to_end(key)
            return hit[1]
        del _arrays[key]  # id() reuse after an external purge: rebuild
    view: dict[str, Any] = {
        "op": trace.op.tolist(),
        "dst": trace.dst.tolist(),
        "src1": trace.src1.tolist(),
        "src2": trace.src2.tolist(),
        "addr": trace.addr.tolist(),
        "size": trace.size.tolist(),
        "taken": trace.taken.tolist(),
        "pc": trace.pc.tolist(),
        "target": trace.target.tolist(),
        "trace": trace,
    }
    _arrays[key] = (trace, view)
    if len(_arrays) > _ARRAYS_MAX:
        _arrays.popitem(last=False)
    return view


# -- latency lookup tables ----------------------------------------------------

_lat_luts: dict = {}


def latency_lut(lat_table) -> list:
    """Per-OpClass latency list, cached per table.

    ``LatencyTable`` is a frozen (hashable) dataclass, so the table
    itself keys the cache.
    """
    hit = _lat_luts.get(lat_table)
    if hit is None:
        from repro.isa.opcodes import OpClass
        hit = [lat_table.latency_of(op) for op in OpClass]
        _lat_luts[lat_table] = hit
    return hit


# -- shared workload traces ---------------------------------------------------

_traces: OrderedDict[tuple, Any] = OrderedDict()


def shared_trace(name: str, scale: float, seed: int,
                 build: Callable[[], Any]):
    """Process-wide decoded-trace cache keyed ``(kernel, scale, seed)``.

    ``sweep_configs``/``sweep_knob`` hit this once per workload instead of
    rebuilding the same trace at every configuration point.  Traces are
    immutable, so sharing one object across systems is safe.
    """
    g = global_stats()
    key = (name, float(scale), int(seed))
    trace = _traces.get(key)
    if trace is not None:
        _traces.move_to_end(key)
        g.trace_cache_hits += 1
        return trace
    g.trace_cache_misses += 1
    trace = build()
    _traces[key] = trace
    if len(_traces) > _TRACE_MAX:
        _traces.popitem(last=False)
    return trace


# -- whole-run result memo ----------------------------------------------------

_memo: OrderedDict[tuple, Any] = OrderedDict()


def config_digest(cfg) -> str:
    """sha-256 of a config's asdict tree, minus the ``accel`` knob.

    The accel mode is excluded because the bit-identity contract makes
    results mode-independent; see docs/performance.md.
    """
    import dataclasses
    tree = dataclasses.asdict(cfg)
    tree.pop("accel", None)
    blob = json.dumps(tree, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def memo_key(trace, cfg, uncore, extra: tuple = ()) -> tuple:
    """LRU key: (trace digest, core-config digest, uncore state class)."""
    return (trace_digest(trace), config_digest(cfg),
            type(uncore).__name__ if uncore is not None else None, extra)


def memo_get(key: tuple):
    """Deep copy of the memoized payload for *key*, or None."""
    g = global_stats()
    if not memo_enabled():
        return None
    hit = _memo.get(key)
    if hit is None:
        g.memo_misses += 1
        return None
    _memo.move_to_end(key)
    g.memo_hits += 1
    return copy.deepcopy(hit)


def memo_put(key: tuple, payload) -> None:
    if not memo_enabled():
        return
    _memo[key] = copy.deepcopy(payload)
    if len(_memo) > _MEMO_MAX:
        _memo.popitem(last=False)


def clear_caches() -> None:
    """Drop every in-process cache (benchmarks call this between timed
    passes so a measurement never feeds on an earlier pass's work)."""
    _digests.clear()
    _arrays.clear()
    _traces.clear()
    _memo.clear()
    _lat_luts.clear()
