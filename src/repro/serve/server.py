"""Long-lived asyncio farm server: queues in front of the run farm.

``repro serve`` turns the batch-mode run farm into a service, the way a
shared FireSim manager host fronts one FPGA fleet for many users.  One
asyncio event loop owns four things:

* a listening socket speaking the :mod:`repro.serve.protocol` wire
  format (one JSON request line in, one JSON response line out);
* the :class:`~repro.serve.queue.FairScheduler` holding tenant queues,
  priorities, and quotas;
* the :class:`~repro.farm.deploy.DeployManager` host-slot inventory —
  the same pluggable backends batch sweeps use, so a served job lands
  exactly where a ``repro farm`` job would;
* the :class:`~repro.farm.executor.Executor` shared with the batch
  farm: one forked worker per running job, launched, reaped and settled
  under the same failure policy as a ``RunFarm`` job.  The server
  drives it asynchronously: each result pipe is watched with
  ``loop.add_reader`` (a crashed worker closes the pipe, so completion
  and death arrive through the same readiness event), and each
  attempt's deadline is armed with ``loop.call_later`` at launch.

Queueing, the journal, preempt/cancel/resume and the progress streams
are the server's own.

Every job gets an append-only progress stream in the spool
(``streams/<id>.jsonl``, the PR 6 tailable JSONL format): lifecycle
records with ``"t": "serve"`` while the job moves through the queue,
the worker's instrument records in a sibling file when instrumentation
was requested, and a final ``seal`` record at any terminal state — so
``repro tail --follow`` on a live job ends exactly when the job does.

Preemption reuses :mod:`repro.reliability` checkpoints: lockstep kernel
jobs (``quantum=`` set) checkpoint every ``checkpoint_every`` quanta
into the spool, a preempt is just ``Process.terminate``, and a resume
re-queues the record — the next attempt restores from the checkpoint
and produces a payload bit-identical to an uninterrupted run.

Payload determinism is inherited, not re-implemented: workers run
:func:`repro.farm.job.execute_job_meta`, the single execution path
shared with serial and batch-farm runs.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import tempfile
import threading
import time
from typing import Any

from ..farm.cache import cache_key, write_json_atomic
from ..farm.deploy import DeployManager, resolve_deploy
from ..farm.executor import Attempt, Executor, Outcome
from ..farm.retry import RetryPolicy
from ..farm.store import SharedResultStore
from ..instrument.stream import STREAM_SCHEMA, InstrumentStream
from .journal import ServeJournal, replay_journal
from .protocol import PROTOCOL_VERSION, ServeError, job_from_wire
from .queue import FairScheduler, JobRecord

__all__ = ["FarmServer", "ServerHandle"]

#: max request line the server will read (a submit with sources fits)
_MAX_LINE = 10 * 1024 * 1024


class FarmServer:
    """The ``repro serve`` daemon (see module docstring).

    Parameters
    ----------
    spool:
        Server working directory: socket, per-job streams, checkpoints,
        persisted results, manifest, and (by default) the shared store.
    deploy:
        Run-farm backend — a :class:`DeployManager`, a spec string
        (``"local:4"``, ``"hosts:a=2,b=4"``), or ``None`` for the
        environment default.  Same semantics as batch ``repro farm``.
    store:
        Shared cross-run :class:`SharedResultStore` (or its root path).
        ``None`` opens ``<spool>/store``; pass ``store=False`` to serve
        without one.  A store hit at submit time completes the job
        without touching the scheduler.
    quotas / default_quota:
        Per-tenant concurrent-job quotas (see :class:`FairScheduler`).
    max_retries:
        Automatic re-queues charged to a crashed/raising/timed-out
        job.  A job's first crash or timeout is blamed on its host and
        earns a *host credit* that does not consume this budget, so a
        flaky host can't exhaust an innocent job's retries (the failure
        matrix in ``docs/serving.md``, shared with ``RunFarm``).
    backoff_s / retry_policy:
        Relaunch-delay schedule, shared with the batch farm:
        ``backoff_s`` is shorthand for ``RetryPolicy(base_s=backoff_s)``
        (exponential, capped at 2 s); an explicit
        :class:`~repro.farm.retry.RetryPolicy` wins.
    timeout_s:
        Default per-job wall-clock limit (jobs may override).
    checkpoint_every:
        Quanta between mid-run checkpoints for lockstep kernel jobs —
        the knob that makes preemption cheap to resume.
    recover:
        Replay ``<spool>/journal.jsonl`` on construction: terminal jobs
        are restored (completed payloads are never re-run), non-terminal
        jobs are re-enqueued — resuming from their spool checkpoint
        where one exists — and workers orphaned by the crash are marked
        on the job streams (see :mod:`repro.serve.journal`).
    fault_plan:
        Optional :class:`repro.reliability.FaultPlan` for chaos runs:
        worker faults key on the job's 0-based admission order,
        ``host-stall`` faults on deploy host names, and ``socket-drop``
        faults close client connections *before* dispatch.
    suspect_after / quarantine_after / probe_interval:
        When set, override the deploy manager's host-health circuit
        breaker thresholds (see :mod:`repro.farm.deploy`).
    """

    def __init__(self, spool: str | os.PathLike,
                 deploy: DeployManager | str | None = None,
                 store: SharedResultStore | str | os.PathLike | None | bool = None,
                 quotas: dict[str, int] | None = None,
                 default_quota: int | None = None,
                 max_retries: int = 2,
                 backoff_s: float = 0.1,
                 timeout_s: float | None = None,
                 checkpoint_every: int = 2,
                 socket_path: str | os.PathLike | None = None,
                 store_max_entries: int | None = None,
                 store_max_bytes: int | None = None,
                 recover: bool = False,
                 fault_plan=None,
                 retry_policy: RetryPolicy | None = None,
                 suspect_after: int | None = None,
                 quarantine_after: int | None = None,
                 probe_interval: int | None = None) -> None:
        self.spool = pathlib.Path(spool)
        self.deploy = resolve_deploy(deploy, None)
        if suspect_after is not None:
            self.deploy.suspect_after = max(1, int(suspect_after))
        if quarantine_after is not None:
            self.deploy.quarantine_after = max(
                self.deploy.suspect_after, int(quarantine_after))
        if probe_interval is not None:
            self.deploy.probe_interval = max(1, int(probe_interval))
        if store is False:
            self.store = None
        elif isinstance(store, SharedResultStore):
            self.store = store
        else:
            root = self.spool / "store" if store in (None, True) else store
            self.store = SharedResultStore(root,
                                           max_entries=store_max_entries,
                                           max_bytes=store_max_bytes)
        self.scheduler = FairScheduler(quotas=quotas,
                                       default_quota=default_quota)
        self.max_retries = max(0, int(max_retries))
        self.backoff_s = max(0.0, float(backoff_s))
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy(base_s=self.backoff_s))
        self.timeout_s = timeout_s
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.fault_plan = fault_plan
        self.socket_path = pathlib.Path(socket_path
                                        if socket_path is not None
                                        else self._default_socket())
        self.jobs: dict[str, JobRecord] = {}
        #: per-job instrument recipes (a submit-time option, not job identity)
        self._instrument_specs: dict[str, dict] = {}
        self._streams: dict[str, InstrumentStream] = {}
        #: launches, reaps and settles attempts; ``live`` is keyed by job id
        self.executor = Executor(self.deploy, max_retries=self.max_retries,
                                 retry_policy=self.retry_policy,
                                 timeout_s=timeout_s, fault_plan=fault_plan,
                                 checkpoint_dir=self.checkpoint_dir,
                                 checkpoint_every=self.checkpoint_every)
        self._active = self.executor.live
        self._seq = 0
        self._closing = False
        self._crashed = False
        self._drain = True
        self._req_count = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._done: asyncio.Event | None = None
        self._server: asyncio.AbstractServer | None = None
        self.journal = ServeJournal(self.spool / "journal.jsonl")
        if recover:
            self._recover()

    # -- paths ---------------------------------------------------------------

    def _default_socket(self) -> pathlib.Path:
        path = self.spool / "serve.sock"
        # AF_UNIX paths are capped (~108 bytes); deep tmpdirs overflow it
        if len(str(path)) > 96:
            return pathlib.Path(tempfile.mkdtemp(prefix="repro-serve-")) / "s"
        return path

    def stream_path(self, job_id: str) -> pathlib.Path:
        return self.spool / "streams" / f"{job_id}.jsonl"

    def instrument_dir(self, job_id: str) -> pathlib.Path:
        return self.spool / "streams" / job_id

    @property
    def checkpoint_dir(self) -> pathlib.Path:
        return self.spool / "ckpt"

    # -- progress streams ----------------------------------------------------

    def _stream(self, rec: JobRecord) -> InstrumentStream:
        stream = self._streams.get(rec.id)
        if stream is None:
            path = self.stream_path(rec.id)
            # a recovered job appends to the stream the crashed server
            # left behind — only a genuinely new file gets a meta record
            fresh = not path.exists()
            stream = InstrumentStream(path)
            if fresh:
                stream.write({"t": "meta", "schema": STREAM_SCHEMA,
                              "source": "serve", "job": rec.id,
                              "label": rec.job.label, "tenant": rec.tenant,
                              "config": rec.job.config.name})
            self._streams[rec.id] = stream
        return stream

    def _event(self, rec: JobRecord, event: str, **extra: Any) -> None:
        """Append one lifecycle record to the job's progress stream."""
        self._stream(rec).write({"t": "serve", "event": event,
                                 "job": rec.id, "state": rec.state, **extra})

    def _move(self, rec: JobRecord, state: str, event: str,
              **extra: Any) -> None:
        """Enter *state*: journal it write-ahead, then log *event* on the
        job's stream, sealing the stream if the state is terminal."""
        rec.state = state
        self.journal.state(rec)
        self._event(rec, event, **extra)
        if rec.done:
            self._seal(rec)

    def _seal(self, rec: JobRecord) -> None:
        stream = self._streams.pop(rec.id, None)
        if stream is not None:
            stream.seal(reason=rec.state)

    # -- crash recovery ------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal left by a crashed server (see module
        docstring of :mod:`repro.serve.journal`)."""
        restored = requeued = 0
        for s in replay_journal(self.journal.path):
            try:
                job = job_from_wire(s["job"])
            except ServeError:
                continue  # submit line torn beyond use
            self._seq = max(self._seq, s["seq"])
            rec = JobRecord(id=s["id"], tenant=s["tenant"],
                            priority=s["priority"], job=job, seq=s["seq"],
                            state=s["state"], attempts=int(s["attempts"]),
                            host=s["host"], error=s["error"],
                            resumed=bool(s["resumed"]),
                            from_cache=bool(s["from_cache"]))
            rec.stream = str(self.stream_path(rec.id))
            if s["instrument"] is not None:
                self._instrument_specs[rec.id] = s["instrument"]
            self.jobs[rec.id] = rec
            if s["terminal"]:
                if rec.state == "ok" and not self._reload_payload(rec):
                    # ok in the journal but the payload never landed:
                    # the only terminal state recovery must redo
                    self._requeue_recovered(rec, was="ok")
                    requeued += 1
                    continue
                restored += 1
                continue
            if s["orphaned"] and s["pid"] is not None:
                rec.orphan_pid = int(s["pid"])
                self._event(rec, "orphaned", pid=rec.orphan_pid,
                            attempt=rec.attempts)
            self._requeue_recovered(rec, was=s["state"])
            requeued += 1
        self.journal.append({"t": "recover", "restored": restored,
                             "requeued": requeued})

    def _reload_payload(self, rec: JobRecord) -> bool:
        """Re-attach a completed job's persisted payload; False when the
        results file is gone/unreadable (job must re-run)."""
        path = self.spool / "results" / f"{rec.id}.json"
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            rec.payload = doc["payload"]
        except (OSError, ValueError, KeyError):
            rec.payload = self._store_get(rec)
            if rec.payload is not None:
                rec.from_cache = True
                self._persist_result(rec)
                return True
            return False
        rec.result_path = str(path)
        return True

    def _storable(self, rec: JobRecord) -> bool:
        # instrumented jobs skip the store: a hit would yield no stream
        return (self.store is not None and rec.job.cacheable
                and rec.id not in self._instrument_specs)

    def _store_get(self, rec: JobRecord) -> dict[str, Any] | None:
        return self.store.get(cache_key(rec.job)) if self._storable(rec) \
            else None

    def _store_hit(self, rec: JobRecord, payload: dict[str, Any]) -> None:
        """Complete *rec* with a payload the shared store already had."""
        rec.payload = payload
        rec.from_cache = True
        self._persist_result(rec)
        self._move(rec, "ok", "store-hit")

    def _requeue_recovered(self, rec: JobRecord, was: str) -> None:
        """Re-admit one non-terminal journal job into the scheduler."""
        rec.recovered = True
        # completed-elsewhere fast path: a store hit means the work is
        # already done (possibly by a twin submission) — don't redo it
        payload = self._store_get(rec)
        if payload is not None:
            self._event(rec, "recovered", was=was)
            self._store_hit(rec, payload)
            return
        rec.host = None
        self._move(rec, "queued", "recovered", was=was,
                   checkpoint=self._checkpoint(rec).exists())
        self.scheduler.submit(rec)

    # -- request handling ----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            self._req_count += 1
            if (self.fault_plan is not None
                    and self.fault_plan.socket_drop(self._req_count)):
                # chaos: drop the connection before reading the request,
                # so nothing was dispatched and a client retry is safe
                return
            line = await reader.readline()
            if not line:
                return
            try:
                req = json.loads(line.decode("utf-8"))
                if not isinstance(req, dict):
                    raise ValueError("request must be a JSON object")
                resp = self._dispatch(req)
            except ServeError as exc:
                resp = {"ok": False, "error": str(exc)}
            except (ValueError, KeyError, TypeError) as exc:
                resp = {"ok": False, "error": f"bad request: {exc}"}
            writer.write(json.dumps(resp, sort_keys=True).encode("utf-8")
                         + b"\n")
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _dispatch(self, req: dict[str, Any]) -> dict[str, Any]:
        op = req.get("op")
        if op == "ping":
            return {"ok": True, "protocol": PROTOCOL_VERSION,
                    "deploy": self.deploy.describe(),
                    "scheduler": self.scheduler.describe(),
                    "jobs": len(self.jobs), "running": len(self._active)}
        if op == "submit":
            return self._op_submit(req)
        if op == "status":
            return self._op_status(req)
        if op == "cancel":
            return self._op_cancel(req)
        if op == "resume":
            return self._op_resume(req)
        if op == "shutdown":
            return self._op_shutdown(req)
        raise ServeError(f"unknown op {op!r}")

    def _record(self, req: dict[str, Any]) -> JobRecord:
        rec = self.jobs.get(str(req.get("id")))
        if rec is None:
            raise ServeError(f"unknown job id {req.get('id')!r}")
        return rec

    def _op_submit(self, req: dict[str, Any]) -> dict[str, Any]:
        if self._closing:
            raise ServeError("server is shutting down; submit rejected")
        job = job_from_wire(req.get("job"))
        tenant = str(req.get("tenant", "default"))
        priority = int(req.get("priority", 0))
        instrument = req.get("instrument")
        if instrument is not None and not isinstance(instrument, dict):
            raise ServeError("'instrument' must be an InstrumentSpec dict")
        self._seq += 1
        rec = JobRecord(id=f"j{self._seq:04d}", tenant=tenant,
                        priority=priority, job=job, seq=self._seq)
        rec.stream = str(self.stream_path(rec.id))
        self.jobs[rec.id] = rec
        # write-ahead: the admission hits the journal before any state
        # the crash could lose is built up
        self.journal.submit(rec, wire=dict(req.get("job") or {}),
                            instrument=instrument)
        self._event(rec, "queued", tenant=tenant, priority=priority)

        if instrument is not None:
            self._instrument_specs[rec.id] = instrument
        # store fast path: a previously computed payload completes the
        # job without ever touching the scheduler
        payload = self._store_get(rec)
        if payload is not None:
            self._store_hit(rec, payload)
            self._write_manifest()
            return {"ok": True, **rec.describe()}
        self.scheduler.submit(rec)
        self._pump()
        return {"ok": True, **rec.describe()}

    def _op_status(self, req: dict[str, Any]) -> dict[str, Any]:
        if req.get("id") is not None:
            rec = self._record(req)
            doc = rec.describe(with_payload=bool(req.get("payload")))
            idir = self.instrument_dir(rec.id)
            if idir.is_dir():
                streams = sorted(str(p) for p in idir.glob("*.jsonl"))
                if streams:
                    doc["instrument_streams"] = streams
            return {"ok": True, **doc}
        doc = {
            "ok": True,
            "scheduler": self.scheduler.describe(),
            "deploy": self.deploy.describe(),
            "jobs": [self.jobs[k].describe() for k in sorted(self.jobs)],
        }
        if self.store is not None:
            doc["store"] = self.store.stats_snapshot().data["store"]
        return doc

    def _op_cancel(self, req: dict[str, Any]) -> dict[str, Any]:
        rec = self._record(req)
        preempt = bool(req.get("preempt"))
        if rec.done:
            raise ServeError(f"job {rec.id} already {rec.state}")
        if rec.state == "queued":
            # never ran: preempting a queued job is just a cancel
            self.scheduler.withdraw(rec)
            self._move(rec, "cancelled", "cancelled", was="queued")
            self._write_manifest()
        elif rec.state == "running":
            if preempt:
                rec.preempt_requested = True
            else:
                rec.cancel_requested = True
            run = self._active.get(rec.id)
            if run is not None:
                run.terminate()
            # state transition happens when the worker pipe closes
        elif rec.state == "preempted":
            if preempt:
                raise ServeError(f"job {rec.id} is already preempted")
            self._move(rec, "cancelled", "cancelled", was="preempted")
            self._write_manifest()
        return {"ok": True, **rec.describe()}

    def _op_resume(self, req: dict[str, Any]) -> dict[str, Any]:
        if self._closing:
            raise ServeError("server is shutting down; resume rejected")
        rec = self._record(req)
        if rec.state != "preempted":
            raise ServeError(
                f"job {rec.id} is {rec.state}; only preempted jobs resume")
        self._move(rec, "queued", "resume-queued")
        self.scheduler.submit(rec)
        self._pump()
        return {"ok": True, **rec.describe()}

    def _op_shutdown(self, req: dict[str, Any]) -> dict[str, Any]:
        drain = bool(req.get("drain", True))
        self._closing = True
        self._drain = drain
        if not drain:
            for run in list(self._active.values()):
                run.ledger.preempt_requested = True
                run.terminate()
        self._maybe_finish()
        return {"ok": True, "drain": drain,
                "running": len(self._active),
                "queued": self.scheduler.queued}

    # -- dispatch loop -------------------------------------------------------

    def _pump(self) -> None:
        """Launch queued jobs while slots and quotas allow."""
        if self._closing and not self._drain:
            return
        while True:
            host = self.deploy.acquire()
            if host is None:
                return
            rec = self.scheduler.pick()
            if rec is None:
                self.deploy.release(host)
                return
            self._launch(rec, host)

    def _launch(self, rec: JobRecord, host: str) -> None:
        spec = self._instrument_specs.get(rec.id)
        idir = None
        if spec is not None:
            idir = self.instrument_dir(rec.id)
            idir.mkdir(parents=True, exist_ok=True)
        rec.state = "running"
        rec.host = host
        run = self.executor.launch(rec.id, rec, rec.job, host,
                                   fault_index=rec.seq - 1,
                                   instrument_spec=spec, instrument_dir=idir)
        rec.pid = run.proc.pid
        self.journal.state(rec, pid=rec.pid)
        self._event(rec, "start", attempt=rec.attempts, host=host)
        assert self._loop is not None
        self._loop.add_reader(run.fd, self._on_worker_done, run)
        if run.deadline is not None:
            self._loop.call_later(run.deadline - time.monotonic(),
                                  self.executor.expire, run)

    def _on_worker_done(self, run: Attempt) -> None:
        """Worker pipe became readable: a result, an error, or EOF from
        a dead/terminated process — all outcomes land here."""
        if self._active.get(run.key) is not run:
            return
        assert self._loop is not None
        self._loop.remove_reader(run.fd)
        out = self.executor.collect(run)
        rec = run.ledger
        rec.elapsed_s = out.elapsed_s
        self.scheduler.job_finished(rec.tenant)
        self._transition(rec, run, out)
        self._pump()
        self._maybe_finish()

    def _transition(self, rec: JobRecord, run: Attempt,
                    out: Outcome) -> None:
        rec.pid = None
        if rec.cancel_requested:
            self._move(rec, "cancelled", "cancelled", was="running")
        elif rec.preempt_requested and out.status not in ("ok", "migrate"):
            rec.preempt_requested = False
            self._move(rec, "preempted", "preempted", attempt=rec.attempts,
                       checkpoint=self._checkpoint(rec).exists())
            # stream stays unsealed: a resume continues the same file
        else:
            verdict = self.executor.settle(run, out)
            if out.quarantined:
                self._event(rec, "quarantine", host=run.host, error=out.error)
            if verdict == "ok":
                rec.payload = out.payload
                rec.resumed = bool(out.meta.get("resumed"))
                rec.state = "ok"
                if self._storable(rec):
                    self.store.put(cache_key(rec.job), rec.job, out.payload)
                self.journal.state(rec)
                self._persist_result(rec)
                if rec.migrations:
                    self._event(rec, "recover", host=rec.host,
                                resumed=rec.resumed,
                                migrations=rec.migrations)
                self._event(rec, "ok", attempt=rec.attempts,
                            resumed=rec.resumed,
                            cycles=out.payload.get("cycles"))
                self._seal(rec)
            elif out.status == "migrate":
                # preempted off a newly quarantined host: back in the
                # queue now, resuming from its checkpoint on a healthy
                # host (acquire() skips quarantined ones)
                self._move(rec, "queued", "migrate", attempt=rec.attempts,
                           from_host=run.host,
                           checkpoint=self._checkpoint(rec).exists())
                self.scheduler.submit(rec)
            elif verdict == "retry" and not self._closing:
                rec.error = out.error
                self._move(rec, "queued", "retry", attempt=rec.attempts,
                           error=out.error)
                assert self._loop is not None
                self._loop.call_later(out.delay, self._requeue, rec)
            else:
                rec.error = out.error
                self._move(rec, "failed", "failed", attempt=rec.attempts,
                           error=out.error)
        if rec.done:
            self._write_manifest()

    def _checkpoint(self, rec: JobRecord) -> pathlib.Path:
        return self.checkpoint_dir / f"{cache_key(rec.job)}.ckpt"

    def _requeue(self, rec: JobRecord) -> None:
        if rec.state != "queued" or self._closing and not self._drain:
            return
        self.scheduler.submit(rec)
        self._pump()

    # -- persistence ---------------------------------------------------------

    def _persist_result(self, rec: JobRecord) -> None:
        path = self.spool / "results" / f"{rec.id}.json"
        write_json_atomic(path, {
            "id": rec.id, "tenant": rec.tenant, "label": rec.job.label,
            "from_cache": rec.from_cache, "resumed": rec.resumed,
            "attempts": rec.attempts, "payload": rec.payload},
            sort_keys=True)
        rec.result_path = str(path)

    def _write_manifest(self) -> None:
        write_json_atomic(self.spool / "manifest.json", {
            "protocol": PROTOCOL_VERSION,
            "deploy": self.deploy.describe(),
            "scheduler": self.scheduler.describe(),
            "jobs": [self.jobs[k].describe() for k in sorted(self.jobs)],
        }, indent=2, sort_keys=True)

    # -- lifecycle -----------------------------------------------------------

    def _maybe_finish(self) -> None:
        if not self._closing or self._active:
            return
        if self._drain and self.scheduler.queued:
            return
        if self._done is not None:
            self._done.set()

    def crash(self) -> None:
        """Chaos/test hook: die the way a SIGKILL'd server does.

        Workers are killed (the "machine" went down with the server),
        streams are left unsealed, no manifest is written, and the
        journal stops exactly where it stands — the state a
        ``recover=True`` restart has to cope with.  Must run on the
        server's event loop (``ServerHandle.crash`` marshals it).
        """
        self._crashed = True
        for run in list(self._active.values()):
            if run.proc.is_alive():
                run.proc.kill()
        if self._done is not None:
            self._done.set()

    async def start(self) -> None:
        """Bind the socket and start background tasks."""
        self.spool.mkdir(parents=True, exist_ok=True)
        (self.spool / "streams").mkdir(exist_ok=True)
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        try:
            self.socket_path.unlink()
        except OSError:
            pass
        self.checkpoint_dir.mkdir(exist_ok=True)
        self._server = await asyncio.start_unix_server(
            self._handle, path=str(self.socket_path), limit=_MAX_LINE)
        # jobs re-enqueued by a journal replay are waiting for the loop
        if self.scheduler.queued:
            self._pump()

    async def serve_forever(self, on_started=None) -> None:
        """Run until a ``shutdown`` request finishes draining."""
        await self.start()
        if on_started is not None:
            on_started()
        assert self._done is not None
        try:
            await self._done.wait()
        finally:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            if not self._crashed:
                for job_id, stream in list(self._streams.items()):
                    stream.seal(reason="server-shutdown")
                    self._streams.pop(job_id, None)
                self._write_manifest()
                try:
                    self.socket_path.unlink()
                except OSError:
                    pass
            self.journal.close()

    @classmethod
    def start_background(cls, spool: str | os.PathLike,
                         **kwargs: Any) -> "ServerHandle":
        """Run a server on a daemon thread; returns a ready handle.

        The in-process path that tests, doc examples, and the smoke
        script use: the caller keeps the main thread (and its client)
        and the server loop runs beside it.
        """
        server = cls(spool, **kwargs)
        started = threading.Event()

        def _run() -> None:
            asyncio.run(server.serve_forever(on_started=started.set))

        thread = threading.Thread(target=_run, daemon=True,
                                  name="repro-serve")
        thread.start()
        if not started.wait(timeout=10.0):
            raise ServeError("server failed to start within 10s")
        return ServerHandle(server, thread)


class ServerHandle:
    """A background :class:`FarmServer` plus the thread running it."""

    def __init__(self, server: FarmServer, thread: threading.Thread) -> None:
        self.server = server
        self.thread = thread

    @property
    def endpoint(self) -> str:
        return str(self.server.socket_path)

    def client(self):
        from .client import ServeClient
        return ServeClient(self.endpoint)

    def stop(self, drain: bool = True, timeout_s: float = 60.0) -> None:
        """Request shutdown and join the server thread."""
        if self.thread.is_alive():
            try:
                self.client().shutdown(drain=drain)
            except (ServeError, OSError):
                pass  # already shutting down / socket gone
        self.thread.join(timeout=timeout_s)

    def crash(self, timeout_s: float = 10.0) -> None:
        """Hard-crash the server (chaos tests): no drain, no manifest,
        no stream seals — see :meth:`FarmServer.crash`."""
        loop = self.server._loop
        if loop is not None and self.thread.is_alive():
            loop.call_soon_threadsafe(self.server.crash)
        self.thread.join(timeout=timeout_s)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
