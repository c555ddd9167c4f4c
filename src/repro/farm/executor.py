"""One job executor for the batch farm and the serve layer.

FireSim's manager launches one simulation per host slot and watches the
fleet.  :class:`~repro.farm.runfarm.RunFarm` (synchronous, journal-less)
and :class:`~repro.serve.server.FarmServer` (asyncio, journaled) drive
the same :class:`Executor`: it launches an :class:`Attempt` on a slot
the scheduler acquired, decodes its one report (``ok`` / ``error`` from the
pipe; EOF means ``crash``, or ``timeout`` once the deadline fired),
reaps it (close, terminate, join, release the slot) and settles it.
In-process (serial) attempts take the same calls; they cannot be
preempted, so they never crash or time out.

Failure policy (the matrix in ``docs/serving.md``): a job's first crash
or timeout is blamed on the host, whose breaker counts it, and earns
the job a credit.  Any later crash or timeout, on any host, and every
workload exception are charged to the job, which is retried while its
charged attempts stay within ``max_retries``.  When a failure newly
quarantines a host, every other attempt there is terminated and comes
back as ``migrate``: re-queued at once with a credit (at most one per
fleet host) to resume from its checkpoint elsewhere.
"""

from __future__ import annotations

import multiprocessing
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from .deploy import DeployManager
from .job import ExecContext, Job, execute_job_meta
from .retry import RetryPolicy

__all__ = ["Attempt", "Executor", "Ledger", "Outcome"]


def _drop_orphaned_imports() -> None:
    """Forget imports other parent threads were running at fork time.

    Those threads are gone in the child, so their module locks are never
    released: the first import of such a module (a server forking while
    its caller's thread imports what a job loads lazily) would block
    forever.  Drop the half-run modules and the lock table instead.
    """
    # only imports in flight hold a lock-table entry; walking all of
    # sys.modules instead would copy every page its refcounts touch
    locks = getattr(sys.modules.get("_frozen_importlib"), "_module_locks", {})
    for name in list(locks):
        spec = getattr(sys.modules.get(name), "__spec__", None)
        if getattr(spec, "_initializing", False):
            del sys.modules[name]
    locks.clear()


def _worker_main(conn, job: Job, attempt: int,
                 ctx: ExecContext | None = None) -> None:
    """Child entry point: run one job, report ("ok", payload, meta) or
    ("error", message) over the pipe, exit."""
    # a forked worker inherits the farm's SIGTERM -> KeyboardInterrupt
    # handler: restore the default so a reaped or externally killed
    # worker dies by the signal (a crash) instead of reporting an error
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _drop_orphaned_imports()
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


@dataclass(eq=False)
class Ledger:
    """One job's account under the failure policy.  The serve layer's
    :class:`~repro.serve.queue.JobRecord` carries the same four fields."""

    attempts: int = 0
    host_credits: int = 0   #: failures not charged to the job
    migrations: int = 0     #: times moved off a quarantined host
    crash_hosts: list[str] = field(default_factory=list)


@dataclass(eq=False)
class Attempt:
    """Parent-side record of one attempt of one job."""

    key: Any                        #: the scheduler's handle for the job
    ledger: Any                     #: the job's Ledger (or JobRecord)
    job: Job
    number: int                     #: 1-based attempt number
    host: str                       #: the slot it holds until reaped
    ctx: ExecContext
    proc: Any = None                #: None: runs in the caller's process
    conn: Any = None                #: read end of the result pipe
    fd: int = -1
    started: float = field(default_factory=time.monotonic)
    deadline: float | None = None
    timed_out: bool = False
    migrating: bool = False

    def terminate(self) -> None:
        if self.proc is not None and self.proc.is_alive():
            self.proc.terminate()


@dataclass
class Outcome:
    """How one attempt ended, and what :meth:`Executor.settle` made of it."""

    status: str                     #: ok | error | crash | timeout | migrate
    payload: dict[str, Any] | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    elapsed_s: float = 0.0
    delay: float = 0.0              #: relaunch delay when retried
    quarantined: bool = False       #: this failure quarantined the host


class Executor:
    """Launch, reap and settle attempts for one scheduler (see module
    docstring).  ``live`` maps each running attempt's key to it."""

    def __init__(self, deploy: DeployManager, *, max_retries: int,
                 retry_policy: RetryPolicy, timeout_s: float | None = None,
                 fault_plan=None, checkpoint_dir=None,
                 checkpoint_every: int = 8) -> None:
        self.deploy = deploy
        self.max_retries = max_retries
        self.retry_policy = retry_policy
        self.timeout_s = timeout_s
        self.fault_plan = fault_plan
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.live: dict[Any, Attempt] = {}
        self._host_launches: dict[str, int] = {}
        # fork shares the warmed parent image (cheap start, inherited hash
        # seed keeps hash-ordered iteration identical) where it exists
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)

    def timeout(self, job: Job) -> float | None:
        return job.timeout_s if job.timeout_s is not None else self.timeout_s

    def _fault(self, fault_index: int, attempt: int, host: str):
        """Worker faults key on the job's ordinal and attempt; host
        stalls on the 0-based launch count per host."""
        if self.fault_plan is None:
            return None
        fault = self.fault_plan.worker_fault(fault_index, attempt)
        if fault is None:
            fault = self.fault_plan.host_stall(
                host, self._host_launches.get(host, 0))
        return fault

    def launch(self, key: Any, ledger, job: Job, host: str, *,
               fault_index: int, fork: bool = True,
               instrument_spec: dict | None = None,
               instrument_dir=None) -> Attempt:
        """Start the next attempt of *job* on the slot *host* the scheduler
        acquired.  With ``fork=False`` the attempt runs in-process when
        :meth:`collect` is called."""
        ledger.attempts += 1
        ctx = ExecContext(fault=self._fault(fault_index, ledger.attempts,
                                            host),
                          checkpoint_dir=self.checkpoint_dir,
                          checkpoint_every=self.checkpoint_every,
                          in_process=not fork,
                          instrument_spec=instrument_spec,
                          instrument_dir=instrument_dir)
        self._host_launches[host] = self._host_launches.get(host, 0) + 1
        att = Attempt(key, ledger, job, ledger.attempts, host, ctx)
        if fork:
            try:
                recv, send = self._mp.Pipe(duplex=False)
                att.proc = self._mp.Process(
                    target=_worker_main, args=(send, job, att.number, ctx),
                    daemon=True)
                att.proc.start()
            except BaseException:
                self.deploy.release(host)
                raise
            send.close()
            att.conn, att.fd = recv, recv.fileno()
            limit = self.timeout(job)
            if limit is not None:
                att.deadline = att.started + limit
        self.live[key] = att
        return att

    def expire(self, att: Attempt) -> None:
        """The deadline passed: terminate the worker.  Its pipe then
        closes and :meth:`collect` reports a ``timeout``."""
        if self.live.get(att.key) is att and not att.timed_out:
            att.timed_out, att.deadline = True, None
            att.terminate()

    def collect(self, att: Attempt) -> Outcome:
        """The attempt's outcome (running it here if in-process), after
        reaping it and releasing its slot."""
        if att.proc is None:
            try:
                payload, meta = execute_job_meta(att.job, attempt=att.number,
                                                 ctx=att.ctx)
                out = Outcome("ok", payload, meta)
            except Exception as exc:
                out = Outcome("error", error=f"{type(exc).__name__}: {exc}")
            finally:
                self.reap(att)
        else:
            try:
                msg = att.conn.recv()
            except (EOFError, OSError):
                msg = None
            self.reap(att)
            if msg is None:
                out = Outcome("crash", error=f"worker crashed (exit code "
                                             f"{att.proc.exitcode})")
                if att.timed_out:
                    out = Outcome("timeout", error=f"timed out after "
                                  f"{self.timeout(att.job):g}s")
            elif msg[0] == "ok":
                out = Outcome("ok", msg[1], msg[2])
            else:
                out = Outcome("error", error=str(msg[1]))
            if att.migrating and out.status != "ok":
                out = Outcome("migrate", error=f"migrated off quarantined "
                                               f"host {att.host}")
        out.elapsed_s = time.monotonic() - att.started
        return out

    def reap(self, att: Attempt) -> None:
        """Close, terminate, join, release; a no-op once reaped."""
        if self.live.get(att.key) is not att:
            return
        del self.live[att.key]
        if att.proc is not None:
            try:
                att.conn.close()
            except OSError:
                pass
            att.terminate()
            att.proc.join(timeout=5.0)
        self.deploy.release(att.host)

    def settle(self, att: Attempt, out: Outcome) -> str:
        """Apply the failure policy; returns ``"ok"``, ``"retry"`` (after
        ``out.delay`` seconds) or ``"failed"``."""
        ledger, host = att.ledger, att.host
        if out.status == "ok":
            self.deploy.report_success(host)
            return "ok"
        if out.status == "migrate":
            ledger.migrations += 1
            if ledger.migrations <= len(self.deploy.hosts):
                ledger.host_credits += 1
            return "retry"
        if out.status in ("crash", "timeout"):
            credited = not ledger.crash_hosts
            if host not in ledger.crash_hosts:
                ledger.crash_hosts.append(host)
            if credited:
                ledger.host_credits += 1
                was = self.deploy.health(host).state
                self.deploy.report_failure(host)
                if (was != "quarantined"
                        and self.deploy.health(host).state == "quarantined"):
                    out.quarantined = True
                    for other in self.live.values():
                        if other.host == host:
                            other.migrating = True
                            other.terminate()
        if ledger.attempts - ledger.host_credits > self.max_retries:
            return "failed"
        out.delay = self.retry_policy.delay(att.number)
        return "retry"
