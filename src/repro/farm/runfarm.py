"""Run-farm scheduler: shard independent jobs across worker processes.

Modeled on FireSim's manager (``deploy/runtools``), which farms one
simulation per FPGA host and babysits the fleet: here each "host" slot
runs one :class:`Job` in its own worker process.  :class:`RunFarm` is
the synchronous, journal-less scheduler on the shared
:class:`~repro.farm.executor.Executor` (the serve layer is the other):
it acquires a slot from the pluggable
:class:`~repro.farm.deploy.DeployManager`, launches an attempt there,
and blocks in :func:`multiprocessing.connection.wait` on the attempts'
result pipes until one reports or closes, the nearest per-job deadline
passes, or a retry falls due.  Launch, reap, timeouts and the failure
policy (which failures are charged to a job and which earn a host
credit) live in the executor, so a job fails the same way here and
under ``repro serve``.

Determinism contract: the merged result list is ordered by submission
index and every payload comes from :func:`repro.farm.job.execute_job`,
so the output is bit-identical for any worker count and any completion
order.  Host-side provenance (attempts, wall-clock, cache hits) lives
on :class:`~repro.farm.job.JobResult` next to the payload, never inside
it.

Graceful degradation: ``workers=1`` (or an unavailable multiprocessing
stack) runs everything in-process through the same executor calls,
minus preemptive timeouts: in-process attempts never crash or time out.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from dataclasses import dataclass
from multiprocessing import connection
from typing import Callable, Iterable, Sequence

from ..telemetry import Snapshot
from .cache import ResultCache, cache_key, write_json_atomic
from .deploy import DeployManager, resolve_deploy
from .executor import Attempt, Executor, Ledger
from .job import Job, JobResult
from .retry import RetryPolicy

__all__ = [
    "FARM_SCHEMA",
    "FarmEvent",
    "FarmStats",
    "RunFarm",
    "resolve_cache",
    "resolve_workers",
    "run_jobs",
]

#: schema of the farm-stats telemetry snapshot
FARM_SCHEMA = 1

#: FarmStats counter bumped per failed attempt, by outcome status
_FAILURE_COUNTERS = {"error": "errors", "crash": "crashes",
                     "timeout": "timeouts"}


def resolve_workers(workers: int | None = None) -> int:
    """Explicit worker count, else ``$REPRO_WORKERS``, else 1 (serial)."""
    if workers is None:
        try:
            workers = int(os.environ.get("REPRO_WORKERS", "1"))
        except ValueError:
            workers = 1
    return max(1, int(workers))


def resolve_cache(cache: ResultCache | str | os.PathLike | None = None,
                  ) -> ResultCache | None:
    """Normalise a cache argument: pass through, wrap a path, or fall
    back to ``$REPRO_CACHE_DIR`` (unset: no caching)."""
    if cache is None:
        env = os.environ.get("REPRO_CACHE_DIR")
        return ResultCache(env) if env else None
    if isinstance(cache, (str, os.PathLike)):
        return ResultCache(cache)
    return cache


@dataclass
class FarmStats:
    """Farm-level counters, exposed via telemetry like any other stats."""

    jobs: int = 0
    ok: int = 0
    failed: int = 0
    simulated: int = 0      #: attempts that ran a simulation to completion
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0        #: relaunches, credited or charged
    errors: int = 0         #: attempts that raised in the workload
    timeouts: int = 0       #: attempts killed by the per-job timeout
    crashes: int = 0        #: workers that died without reporting
    corrupt: int = 0        #: cache entries quarantined as corrupt
    resumed: int = 0        #: attempts resumed from a mid-run checkpoint
    interrupted: int = 0    #: jobs abandoned by a graceful shutdown

    def to_snapshot(self) -> Snapshot:
        """Counters as a :class:`repro.telemetry.Snapshot` (flat/JSON/CSV
        export and delta arithmetic come for free)."""
        return Snapshot({"schema": FARM_SCHEMA,
                         "farm": dataclasses.asdict(self)})


@dataclass
class FarmEvent:
    """One progress notification (job picked up, finished, retried...)."""

    kind: str               #: "cache-hit" | "start" | "ok" | "retry" |
                            #: "failed" | "interrupted"
    index: int              #: job position in the submitted list
    total: int
    job: Job
    attempt: int = 0
    error: str | None = None
    elapsed_s: float = 0.0


class RunFarm:
    """Schedule a job list across workers with caching and retries.

    Parameters
    ----------
    workers:
        Worker process count; ``None`` reads ``$REPRO_WORKERS``; 1 runs
        serially in-process.  Ignored when *deploy* is given (the
        backend's slot inventory wins).
    deploy:
        :class:`~repro.farm.deploy.DeployManager`, a spec string
        (``"local:4"``, ``"hosts:a=2,b=4"``), or ``None``
        (``$REPRO_DEPLOY`` if set, else a local pool of *workers*
        slots).  Selects where jobs land; results are bit-identical
        across backends.
    cache:
        :class:`ResultCache`, a directory path, or ``None``
        (``$REPRO_CACHE_DIR`` if set, else uncached).
    timeout_s:
        Per-job wall-clock limit, enforced in parallel mode by killing
        the worker (jobs may override via ``Job.timeout_s``).  Serial
        mode cannot preempt and ignores it.
    max_retries:
        Relaunches charged to a raising/crashed/hung job; a job that
        exhausts them is reported ``failed`` without aborting the rest
        of the sweep.  A job's first crash or timeout is blamed on its
        host and earns a credit instead (the failure matrix in
        ``docs/serving.md``).
    backoff_s:
        Base relaunch delay; attempt *n* waits
        ``backoff_s * 2**(n-1)`` (capped at 2 s) before going back on
        a worker.  Shorthand for ``retry_policy=RetryPolicy(base_s=
        backoff_s)``; an explicit *retry_policy* wins.
    retry_policy:
        Full :class:`~repro.farm.retry.RetryPolicy` (base, growth
        factor, cap) shared with the serve layer's re-queue path.
    on_event:
        Optional ``Callable[[FarmEvent], None]`` for live progress.
    fault_plan:
        Optional :class:`repro.reliability.FaultPlan`; worker faults
        (kill/hang/error) are delivered to the matching (job index,
        attempt), ``host-stall`` faults to the matching launches on a
        host, cache faults damage entries before the preload pass.
    checkpoint_dir:
        Directory for mid-run job checkpoints.  Lockstep kernel jobs
        (built with ``Job.kernel(..., quantum=...)``) save a checkpoint
        every ``checkpoint_every`` quanta there, and a retry of a
        crashed/timed-out job **resumes from the last checkpoint**
        (bit-identically) instead of restarting from zero — still
        bounded by ``max_retries``.
    manifest_path:
        When set, a JSON manifest of per-job outcomes and farm stats is
        written there after every run — including a partial one cut
        short by Ctrl-C/SIGTERM.
    instrument:
        Optional :class:`repro.instrument.InstrumentSpec` (or its
        ``to_dict()`` form) attached to every kernel job.  Streams are
        written to ``instrument_dir`` as ``<label>.jsonl`` and are
        tail-able (``repro tail`` / :func:`repro.instrument.tail_stream`)
        while the job is still running.  Instrumented sweeps always
        simulate: the result cache and payload memo are bypassed so a
        stream actually exists, and payloads stay bit-identical to
        uninstrumented runs.
    instrument_dir:
        Where per-job streams land.  When unset, streams are kept in
        memory and discarded with the worker.
    """

    def __init__(self, workers: int | None = None,
                 cache: ResultCache | str | os.PathLike | None = None,
                 timeout_s: float | None = None, max_retries: int = 2,
                 backoff_s: float = 0.25,
                 on_event: Callable[[FarmEvent], None] | None = None,
                 fault_plan=None,
                 checkpoint_dir: str | os.PathLike | None = None,
                 checkpoint_every: int = 8,
                 manifest_path: str | os.PathLike | None = None,
                 instrument=None,
                 instrument_dir: str | os.PathLike | None = None,
                 deploy: DeployManager | str | None = None,
                 retry_policy: RetryPolicy | None = None) -> None:
        self.deploy = resolve_deploy(deploy, workers)
        self.workers = self.deploy.total_slots
        self.cache = resolve_cache(cache)
        self.timeout_s = timeout_s
        self.max_retries = max(0, int(max_retries))
        self.backoff_s = max(0.0, float(backoff_s))
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy(base_s=self.backoff_s))
        self.on_event = on_event
        self.fault_plan = fault_plan
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.manifest_path = manifest_path
        # normalise to the picklable dict form once, here, so every
        # worker (fork or spawn) sees the identical recipe
        self.instrument_spec = (instrument.to_dict()
                                if hasattr(instrument, "to_dict")
                                else instrument)
        self.instrument_dir = instrument_dir
        self.stats = FarmStats()
        #: True when the last run was cut short by Ctrl-C / SIGTERM
        self.interrupted = False

    # -- public API ----------------------------------------------------------

    def run(self, jobs: Iterable[Job]) -> list[JobResult]:
        """Run every job; returns results in submission order.

        A ``KeyboardInterrupt`` or SIGTERM mid-run shuts down gracefully:
        in-flight results are kept, workers are reaped, the remaining
        jobs are reported with status ``"interrupted"``, and the manifest
        (if configured) records the partial sweep.
        """
        jobs = list(jobs)
        self.stats = stats = FarmStats(jobs=len(jobs))
        results: list[JobResult | None] = [None] * len(jobs)
        self._total = len(jobs)
        self.interrupted = False
        corrupt_before = (self.cache.corrupt_quarantined
                          if self.cache is not None else 0)
        if self.fault_plan is not None and self.cache is not None:
            self._apply_cache_faults(jobs)

        todo: list[tuple[int, str | None]] = []
        for i, job in enumerate(jobs):
            # instrumented sweeps bypass the cache: a hit would return a
            # payload without producing the stream the operator asked for
            key = (cache_key(job)
                   if self.cache is not None and job.cacheable
                   and self.instrument_spec is None else None)
            payload = self.cache.get(key) if key is not None else None
            if payload is not None:
                stats.cache_hits += 1
                results[i] = JobResult(job=job, index=i, status="ok",
                                       payload=payload, from_cache=True)
                self._emit("cache-hit", i, job)
            else:
                if key is not None:
                    stats.cache_misses += 1
                todo.append((i, key))

        self._exec = Executor(
            self.deploy, max_retries=self.max_retries,
            retry_policy=self.retry_policy, timeout_s=self.timeout_s,
            fault_plan=self.fault_plan, checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=self.checkpoint_every)
        restore_handler = self._install_sigterm()
        try:
            if todo:
                if self.workers > 1:
                    try:
                        self._run_parallel(jobs, todo, results)
                    except OSError:
                        # pool unavailable (fd limits, sandboxed fork, ...):
                        # degrade to in-process execution of whatever is left
                        left = [(i, k) for i, k in todo if results[i] is None]
                        self._run_serial(jobs, left, results)
                else:
                    self._run_serial(jobs, todo, results)
        except KeyboardInterrupt:
            self.interrupted = True
        finally:
            restore_handler()

        for i, job in enumerate(jobs):
            if results[i] is None:
                stats.interrupted += 1
                results[i] = JobResult(
                    job=job, index=i, status="interrupted",
                    error="farm shut down before this job finished")
                self._emit("interrupted", i, job)
        out = [r for r in results if r is not None]
        assert len(out) == len(jobs), "scheduler lost a job"
        stats.ok = sum(1 for r in out if r.ok)
        stats.failed = len(out) - stats.ok - stats.interrupted
        if self.cache is not None:
            stats.corrupt = self.cache.corrupt_quarantined - corrupt_before
        self._write_manifest(out)
        return out

    # -- shared plumbing -----------------------------------------------------

    def _emit(self, kind: str, index: int, job: Job, attempt: int = 0,
              error: str | None = None, elapsed_s: float = 0.0) -> None:
        if self.on_event is not None:
            self.on_event(FarmEvent(kind=kind, index=index, total=self._total,
                                    job=job, attempt=attempt, error=error,
                                    elapsed_s=elapsed_s))

    def _install_sigterm(self) -> Callable[[], None]:
        """Route SIGTERM into KeyboardInterrupt for the graceful-shutdown
        path; returns a restorer.  No-op off the main thread (signal
        handlers can only be installed there)."""

        def _to_interrupt(signum, frame):
            raise KeyboardInterrupt("SIGTERM")

        try:
            previous = signal.signal(signal.SIGTERM, _to_interrupt)
        except ValueError:  # not the main thread
            return lambda: None
        return lambda: signal.signal(signal.SIGTERM, previous)

    def _apply_cache_faults(self, jobs: Sequence[Job]) -> None:
        """Damage on-disk cache entries named by the fault plan (chaos
        testing the quarantine path)."""
        from ..reliability.faults import corrupt_cache_entry
        rng = self.fault_plan.rng()
        for fault in self.fault_plan.cache_faults():
            index = fault.param("entry", fault.param("job"))
            if index is None or not 0 <= int(index) < len(jobs):
                continue
            job = jobs[int(index)]
            if not job.cacheable:
                continue
            mode = ("truncate" if fault.kind == "truncate-cache"
                    else str(fault.param("mode", "garbage")))
            corrupt_cache_entry(self.cache, cache_key(job), mode=mode,
                                rng=rng)

    def _write_manifest(self, results: Sequence[JobResult]) -> None:
        if self.manifest_path is None:
            return
        write_json_atomic(self.manifest_path, {
            "schema": FARM_SCHEMA,
            "interrupted": self.interrupted,
            "deploy": self.deploy.describe(),
            "stats": dataclasses.asdict(self.stats),
            "jobs": [
                {"index": r.index, "label": r.job.label, "status": r.status,
                 "attempts": r.attempts, "from_cache": r.from_cache,
                 "resumed": r.resumed, "error": r.error, "host": r.host,
                 "elapsed_s": round(r.elapsed_s, 6)}
                for r in results
            ],
        }, indent=2, sort_keys=True)

    def _launch(self, jobs: Sequence[Job], index: int, ledger: Ledger,
                host: str, fork: bool) -> Attempt:
        att = self._exec.launch(index, ledger, jobs[index], host,
                                fault_index=index, fork=fork,
                                instrument_spec=self.instrument_spec,
                                instrument_dir=self.instrument_dir)
        self._emit("start", index, jobs[index], attempt=att.number)
        return att

    def _book(self, att: Attempt, key: str | None,
              results: list[JobResult | None]) -> float | None:
        """Collect and settle one attempt; returns the relaunch delay
        when the job goes back in the queue."""
        out = self._exec.collect(att)
        verdict = self._exec.settle(att, out)
        index, job, stats = att.key, att.job, self.stats
        if out.status in _FAILURE_COUNTERS:
            counter = _FAILURE_COUNTERS[out.status]
            setattr(stats, counter, getattr(stats, counter) + 1)
        if verdict == "retry":
            stats.retries += 1
            self._emit("retry", index, job, attempt=att.number,
                       error=out.error)
            return out.delay
        resumed = bool(out.meta.get("resumed"))
        if verdict == "ok":
            stats.simulated += 1
            stats.resumed += resumed
            if key is not None and self.cache is not None:
                self.cache.put(key, job, out.payload)
        results[index] = JobResult(
            job=job, index=index, status=verdict, payload=out.payload,
            attempts=att.number, error=out.error, elapsed_s=out.elapsed_s,
            resumed=resumed, host=att.host)
        self._emit(verdict, index, job, attempt=att.number, error=out.error,
                   elapsed_s=out.elapsed_s)
        return None

    # -- serial mode ---------------------------------------------------------

    def _run_serial(self, jobs: Sequence[Job],
                    todo: Sequence[tuple[int, str | None]],
                    results: list[JobResult | None]) -> None:
        for index, key in todo:
            ledger = Ledger()
            delay = 0.0
            while delay is not None:
                time.sleep(delay)
                att = self._launch(jobs, index, ledger, self.deploy.acquire(),
                                   fork=False)
                delay = self._book(att, key, results)

    # -- parallel mode -------------------------------------------------------

    def _run_parallel(self, jobs: Sequence[Job],
                      todo: Sequence[tuple[int, str | None]],
                      results: list[JobResult | None]) -> None:
        ex = self._exec
        keys = dict(todo)
        ledgers = {index: Ledger() for index in keys}
        #: (not-before time, index) of jobs awaiting a slot
        waiting: list[tuple[float, int]] = [(0.0, index) for index in keys]
        try:
            while waiting or ex.live:
                now = time.monotonic()
                waiting.sort()
                while waiting and waiting[0][0] <= now:
                    host = self.deploy.acquire()
                    if host is None:
                        break
                    _, index = waiting.pop(0)
                    self._launch(jobs, index, ledgers[index], host,
                                 fork=True)
                # block until a report, a pipe close, the nearest
                # deadline, or the next retry falling due
                wake = [a.deadline for a in ex.live.values()
                        if a.deadline is not None]
                if waiting and waiting[0][0] > now:
                    wake.append(waiting[0][0])
                ready = connection.wait(
                    [a.conn for a in ex.live.values()],
                    max(0.0, min(wake) - now) if wake else None)
                now = time.monotonic()
                for att in list(ex.live.values()):
                    if att.conn in ready:
                        delay = self._book(att, keys[att.key], results)
                        if delay is not None:
                            waiting.append((time.monotonic() + delay,
                                            att.key))
                    elif att.deadline is not None and att.deadline <= now:
                        ex.expire(att)
        finally:
            for att in list(ex.live.values()):
                ex.reap(att)


def run_jobs(jobs: Iterable[Job], *, workers: int | None = None,
             cache: ResultCache | str | os.PathLike | None = None,
             timeout_s: float | None = None, max_retries: int = 2,
             backoff_s: float = 0.25,
             on_event: Callable[[FarmEvent], None] | None = None,
             fault_plan=None,
             checkpoint_dir: str | os.PathLike | None = None,
             checkpoint_every: int = 8,
             manifest_path: str | os.PathLike | None = None,
             instrument=None,
             instrument_dir: str | os.PathLike | None = None,
             deploy: DeployManager | str | None = None,
             retry_policy: RetryPolicy | None = None,
             strict: bool = False) -> list[JobResult]:
    """One-call convenience: build a :class:`RunFarm`, run *jobs*.

    With ``strict=True`` any failed job raises ``RuntimeError`` (the
    sweep still ran to completion first, so the message lists every
    failure at once).
    """
    farm = RunFarm(workers=workers, cache=cache, timeout_s=timeout_s,
                   max_retries=max_retries, backoff_s=backoff_s,
                   on_event=on_event, fault_plan=fault_plan,
                   checkpoint_dir=checkpoint_dir,
                   checkpoint_every=checkpoint_every,
                   manifest_path=manifest_path,
                   instrument=instrument, instrument_dir=instrument_dir,
                   deploy=deploy, retry_policy=retry_policy)
    results = farm.run(jobs)
    if strict:
        failed = [r for r in results if not r.ok]
        if failed:
            lines = "; ".join(f"{r.job.label}: {r.error}" for r in failed)
            raise RuntimeError(
                f"{len(failed)}/{len(results)} farmed job(s) failed: {lines}")
    return results
