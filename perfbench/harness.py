"""Measurement helpers for the repo benchmark (no ``repro`` imports).

Everything here is pure and unit-tested in ``perfbench/tests``: the
host-speed calibration loop, the latency-tail rule, the payload digest,
and the span recorder with its self-time arithmetic.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

# -- host-speed calibration ----------------------------------------------------

#: iterations of :func:`spin` per calibration sample (~5 ms)
CAL_ITERS = 25_000
#: reference duration of one :func:`spin` sample, in seconds: a typical
#: sample on a 2-vCPU x86-64 Linux container under CPython 3.11, where
#: samples ranged from 3.0 to 5.1 ms as the shared host's speed changed.
#: Calibrated seconds are raw seconds scaled to a host running at this speed.
REF_CAL_S = 0.0045


def spin(iters: int = CAL_ITERS) -> int:
    """A fixed pure-Python integer loop: the host-speed yardstick."""
    acc = 0
    for i in range(iters):
        acc = (acc ^ i) * 16777619 & 0xFFFFFFFF
    return acc


class Calibrator:
    """Interleaved host-speed samples and the factors they imply.

    ``factor(samples)`` is the mean of ``REF_CAL_S / sample``: a host
    interval times the factor of the samples taken around it is that
    interval in calibrated seconds (shorter when the host ran slow,
    longer when it ran fast).  The mean of per-sample factors, not of
    the samples, weights a run's fast and slow spells by their share of
    time.
    """

    def __init__(self, ref_s: float = REF_CAL_S, iters: int = CAL_ITERS,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.ref_s = ref_s
        self.iters = iters
        self.clock = clock
        self.samples: list[float] = []
        self.times: list[float] = []    #: clock reading at each sample's start

    def sample(self) -> float:
        t0 = self.clock()
        spin(self.iters)
        dt = self.clock() - t0
        self.times.append(t0)
        self.samples.append(dt)
        return dt

    def factor(self, samples: Iterable[float]) -> float:
        samples = list(samples)
        if not samples:
            raise ValueError("no calibration samples")
        return statistics.mean(self.ref_s / s for s in samples)

    def local_factor(self, start: float, end: float, k: int,
                     first: int = 0) -> float:
        """The factor of the samples (from index *first* on) taken within
        ``[start, end]``, or of the *k* taken nearest to it."""
        idx = nearest(self.times[first:], start, end, k)
        return self.factor(self.samples[first + i] for i in idx)

    @property
    def spent_s(self) -> float:
        """Host time spent in calibration loops so far."""
        return sum(self.samples)


def nearest(times: list[float], start: float, end: float, k: int
            ) -> list[int]:
    """Indices of the samples taken within ``[start, end]``, or of the *k*
    taken nearest to that interval when fewer than *k* fall inside it."""

    def dist(i: int) -> float:
        return max(start - times[i], times[i] - end, 0.0)

    order = sorted(range(len(times)), key=lambda i: (dist(i), i))
    inside = sum(1 for t in times if start <= t <= end)
    return order[:max(k, inside)]


# -- latency statistics --------------------------------------------------------

#: samples that must lie beyond a reported tail percentile
TAIL_BEYOND = 10


def tail(values: Iterable[float], beyond: int = TAIL_BEYOND
         ) -> tuple[float, float, int]:
    """``(value, percentile, n)`` at the highest percentile that still has
    at least *beyond* samples above it.

    With ``n`` samples that is the order statistic with exactly *beyond*
    samples after it, at percentile ``100 * (n - beyond) / n``.  A tail is
    never taken below the median: with fewer than ``2 * beyond + 1``
    samples the median is returned (percentile 50), marked by its ``n``.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * beyond + 1:
        return statistics.median(xs), 50.0, n
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, n


# -- payload digest ------------------------------------------------------------


def canonical(payload: Any) -> str:
    """Canonical JSON text of a payload: sorted keys, no whitespace, so
    dict insertion order and tuple-vs-list never change the digest."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payloads: dict[str, Any]) -> str:
    """sha256 over ``key -> payload`` pairs in sorted key order."""
    h = hashlib.sha256()
    for key in sorted(payloads):
        h.update(key.encode())
        h.update(b"\0")
        h.update(canonical(payloads[key]).encode())
        h.update(b"\n")
    return h.hexdigest()


# -- spans ---------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: str | None = None
    thread: int = 0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job,
                "thread": self.thread, "counts": self.counts}


class SpanRecorder:
    """In-memory span log; parents are tracked per thread.

    A span's job id defaults to its parent's, so every span under the
    benchmark's per-job span carries that job's id.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, job: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = self.spans[parent].job
        span = Span(name, self.clock(), parent=parent, job=job,
                    thread=threading.get_ident())
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int, **counts: int) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        span.counts.update(counts)
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()

    @contextmanager
    def span(self, name: str, job: str | None = None):
        idx = self.open(name, job)
        try:
            yield idx
        finally:
            self.close(idx)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children count once (interval union), so a parent's self time is
    never negative and self times of a single-threaded tree sum to the
    root's duration.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def layer_of(name: str, layers: Iterable[str]) -> str | None:
    """The longest layer name that is a dotted prefix of span *name*."""
    best = None
    for layer in layers:
        if (name == layer or name.startswith(layer + ".")) and (
                best is None or len(layer) > len(best)):
            best = layer
    return best


def wrap(recorder: SpanRecorder, name: str, fn: Callable,
         counts: Callable[[Any], dict[str, int]] | None = None) -> Callable:
    """*fn* with a span named *name* around every call; *counts* maps the
    return value to counters stored on the span."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = recorder.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            recorder.close(idx)
            raise
        recorder.close(idx, **(counts(out) if counts is not None else {}))
        return out

    return traced


@contextmanager
def patched(recorder: SpanRecorder,
            targets: Iterable[tuple[Any, str, str, Callable | None]]):
    """Install :func:`wrap` on ``(owner, attribute, span name, counts)``
    targets for the duration of the block, restoring the originals after.

    An owner is a class or module (the attribute must be its own, not
    inherited) or a dict (the attribute is a key)."""
    saved = []

    def put(owner, attr, value) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    try:
        for owner, attr, name, counts in targets:
            own = owner if isinstance(owner, dict) else vars(owner)
            if attr not in own:
                raise AttributeError(f"{owner!r} defines no {attr!r}")
            orig = own[attr]
            if isinstance(orig, classmethod):
                new = classmethod(wrap(recorder, name, orig.__func__, counts))
            else:
                new = wrap(recorder, name, orig, counts)
            saved.append((owner, attr, orig))
            put(owner, attr, new)
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            put(owner, attr, orig)
