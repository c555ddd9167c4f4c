"""Run-farm scheduler: shard independent jobs across worker processes.

Modeled on FireSim's manager (``deploy/runtools``), which farms one
simulation per FPGA host and babysits the fleet: here each "host" is a
``multiprocessing`` worker process running exactly one :class:`Job`.
One process per job (rather than a long-lived pool) is what makes the
fault model simple — a crashed, raising, or hung worker is terminated
and retried with backoff without poisoning any shared executor state,
and a per-job timeout is just ``Process.terminate``.

Host-slot inventory is delegated to a pluggable
:class:`~repro.farm.deploy.DeployManager` (the FireSim manager/run-farm
split): the scheduler acquires a slot before launching a worker and
releases it at reap, so the local pool and an externally provisioned
host fleet run through one code path and produce bit-identical results.

Determinism contract: the merged result list is ordered by submission
index and every payload comes from :func:`repro.farm.job.execute_job`,
so the output is bit-identical for any worker count and any completion
order.  Host-side provenance (attempts, wall-clock, cache hits) lives
on :class:`~repro.farm.job.JobResult` next to the payload, never inside
it.

Graceful degradation: ``workers=1`` (or an unavailable multiprocessing
stack) runs everything in-process through the same code path, minus
preemptive timeouts.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pathlib
import signal
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from ..telemetry import Snapshot
from .cache import ResultCache, cache_key
from .deploy import DeployManager, resolve_deploy
from .job import ExecContext, Job, JobResult, execute_job_meta
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
    retries: int = 0
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


class _Running:
    """Parent-side record of one in-flight worker process."""

    __slots__ = ("proc", "conn", "key", "attempt", "started", "host")

    def __init__(self, proc, conn, key: str | None, attempt: int,
                 host: str | None = None) -> None:
        self.proc = proc
        self.conn = conn
        self.key = key
        self.attempt = attempt
        self.started = time.monotonic()
        self.host = host


def _worker_main(conn, job: Job, attempt: int,
                 ctx: ExecContext | None = None) -> None:
    """Child entry point: run one job, report ("ok", payload, meta) or
    ("error", message) over the pipe, exit."""
    # a forked worker inherits the farm's SIGTERM -> KeyboardInterrupt
    # handler: restore the default so a reaped or externally killed
    # worker dies by the signal (a crash) instead of reporting an error
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        payload, meta = execute_job_meta(job, attempt=attempt, ctx=ctx)
        conn.send(("ok", payload, meta))
    except BaseException as exc:  # report, don't let the child unwind noisily
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


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
        Extra attempts after the first for a raising/crashed/hung job;
        a job that exhausts them is reported ``failed`` without
        aborting the rest of the sweep.
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
        attempt), cache faults damage entries before the preload pass.
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
        Where per-job streams land; defaults to the checkpoint dir's
        sibling behaviour (in-memory, discarded) when unset.
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

        restore_handler = self._install_sigterm()
        try:
            if todo:
                if self.workers > 1 and len(todo) > 1:
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

    def _job_timeout(self, job: Job) -> float | None:
        return job.timeout_s if job.timeout_s is not None else self.timeout_s

    def _exec_ctx(self, index: int, attempt: int, *,
                  in_process: bool) -> ExecContext:
        """Per-attempt execution context (fault + checkpoint policy)."""
        fault = (self.fault_plan.worker_fault(index, attempt)
                 if self.fault_plan is not None else None)
        return ExecContext(fault=fault,
                           checkpoint_dir=self.checkpoint_dir,
                           checkpoint_every=self.checkpoint_every,
                           in_process=in_process,
                           instrument_spec=self.instrument_spec,
                           instrument_dir=self.instrument_dir)

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
        path = pathlib.Path(self.manifest_path)
        doc = {
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
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(doc, f, indent=2, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _complete(self, results, index: int, job: Job, key: str | None,
                  payload: dict[str, Any], attempts: int,
                  elapsed_s: float, meta: dict | None = None,
                  host: str | None = None) -> None:
        self.stats.simulated += 1
        resumed = bool(meta and meta.get("resumed"))
        if resumed:
            self.stats.resumed += 1
        if key is not None and self.cache is not None:
            self.cache.put(key, job, payload)
        results[index] = JobResult(job=job, index=index, status="ok",
                                   payload=payload, attempts=attempts,
                                   elapsed_s=elapsed_s, resumed=resumed,
                                   host=host)
        self._emit("ok", index, job, attempt=attempts, elapsed_s=elapsed_s)

    def _fail(self, results, index: int, job: Job, attempts: int,
              error: str, elapsed_s: float, host: str | None = None) -> None:
        results[index] = JobResult(job=job, index=index, status="failed",
                                   attempts=attempts, error=error,
                                   elapsed_s=elapsed_s, host=host)
        self._emit("failed", index, job, attempt=attempts, error=error,
                   elapsed_s=elapsed_s)

    # -- serial mode ---------------------------------------------------------

    def _run_serial(self, jobs: Sequence[Job],
                    todo: Sequence[tuple[int, str | None]],
                    results: list[JobResult | None]) -> None:
        host = self.deploy.hosts[0].name
        for index, key in todo:
            job = jobs[index]
            error = "not attempted"
            for attempt in range(1, self.max_retries + 2):
                self._emit("start", index, job, attempt=attempt)
                t0 = time.monotonic()
                try:
                    payload, meta = execute_job_meta(
                        job, attempt=attempt,
                        ctx=self._exec_ctx(index, attempt, in_process=True))
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    self.stats.errors += 1
                    # serial exceptions surface from the workload itself
                    self.deploy.report_failure(host, job_intrinsic=True)
                    if attempt <= self.max_retries:
                        self.stats.retries += 1
                        self._emit("retry", index, job, attempt=attempt,
                                   error=error)
                        delay = self.retry_policy.delay(attempt)
                        if delay:
                            time.sleep(delay)
                else:
                    self.deploy.report_success(host)
                    self._complete(results, index, job, key, payload,
                                   attempts=attempt,
                                   elapsed_s=time.monotonic() - t0,
                                   meta=meta, host=host)
                    break
            else:
                self._fail(results, index, job,
                           attempts=self.max_retries + 1, error=error,
                           elapsed_s=0.0, host=host)

    # -- parallel mode -------------------------------------------------------

    def _context(self):
        # fork shares the warmed parent image (cheap start, inherited
        # hash seed keeps any hash-ordered iteration identical); fall
        # back to the platform default where fork does not exist
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _run_parallel(self, jobs: Sequence[Job],
                      todo: Sequence[tuple[int, str | None]],
                      results: list[JobResult | None]) -> None:
        ctx = self._context()
        #: (not-before time, index, key, attempt) of jobs awaiting a worker
        waiting: list[tuple[float, int, str | None, int]] = [
            (0.0, index, key, 1) for index, key in todo
        ]
        running: dict[int, _Running] = {}

        def launch(index: int, key: str | None, attempt: int,
                   host: str) -> None:
            recv, send = ctx.Pipe(duplex=False)
            exec_ctx = self._exec_ctx(index, attempt, in_process=False)
            proc = ctx.Process(target=_worker_main,
                               args=(send, jobs[index], attempt, exec_ctx),
                               daemon=True)
            proc.start()
            send.close()
            running[index] = _Running(proc, recv, key, attempt, host=host)
            self._emit("start", index, jobs[index], attempt=attempt)

        def reap(index: int) -> _Running:
            r = running.pop(index)
            try:
                r.conn.close()
            except Exception:
                pass
            if r.proc.is_alive():
                r.proc.terminate()
            r.proc.join(timeout=5.0)
            if r.host is not None:
                self.deploy.release(r.host)
            return r

        def retry_or_fail(index: int, r: _Running, error: str) -> None:
            if r.attempt <= self.max_retries:
                self.stats.retries += 1
                self._emit("retry", index, jobs[index], attempt=r.attempt,
                           error=error)
                delay = self.retry_policy.delay(r.attempt)
                waiting.append((time.monotonic() + delay, index, r.key,
                                r.attempt + 1))
            else:
                self._fail(results, index, jobs[index], attempts=r.attempt,
                           error=error,
                           elapsed_s=time.monotonic() - r.started,
                           host=r.host)

        try:
            while waiting or running:
                now = time.monotonic()
                waiting.sort()
                while waiting and waiting[0][0] <= now:
                    host = self.deploy.acquire()
                    if host is None:
                        break
                    _, index, key, attempt = waiting.pop(0)
                    launch(index, key, attempt, host)

                progressed = False
                for index in list(running):
                    r = running[index]
                    if r.conn.poll():
                        meta: dict | None = None
                        try:
                            msg = r.conn.recv()
                            status, data = msg[0], msg[1]
                            if len(msg) > 2:
                                meta = msg[2]
                        except (EOFError, OSError):
                            status, data = "error", "worker pipe closed early"
                        reap(index)
                        if status == "ok":
                            if r.host is not None:
                                self.deploy.report_success(r.host)
                            self._complete(results, index, jobs[index], r.key,
                                           data, attempts=r.attempt,
                                           elapsed_s=now - r.started,
                                           meta=meta, host=r.host)
                        else:
                            self.stats.errors += 1
                            # the workload itself raised: not the host's fault
                            if r.host is not None:
                                self.deploy.report_failure(
                                    r.host, job_intrinsic=True)
                            retry_or_fail(index, r, str(data))
                        progressed = True
                    elif not r.proc.is_alive():
                        code = r.proc.exitcode
                        reap(index)
                        self.stats.crashes += 1
                        if r.host is not None:
                            self.deploy.report_failure(r.host)
                        retry_or_fail(index, r,
                                      f"worker crashed (exit code {code})")
                        progressed = True
                    else:
                        limit = self._job_timeout(jobs[index])
                        if limit is not None and now - r.started > limit:
                            reap(index)
                            self.stats.timeouts += 1
                            if r.host is not None:
                                self.deploy.report_failure(r.host)
                            retry_or_fail(index, r,
                                          f"timed out after {limit:g}s")
                            progressed = True
                if not progressed:
                    # nothing finished this pass: nap briefly instead of
                    # spinning (workers run for seconds, not micros)
                    time.sleep(0.005)
        finally:
            for index in list(running):
                reap(index)


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
