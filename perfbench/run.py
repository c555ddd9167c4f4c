#!/usr/bin/env python3
"""The repo benchmark: seeded sweep / apps / farm / serve workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

It drives the program in ``src/`` only through public entry points
(``execute_job`` with ``Job.kernel``/``Job.npb``, ``run_ume``,
``run_lammps``, ``RunFarm``, ``FarmServer.start_background`` with
``ServeClient``), checks every output, and prints one line per metric
followed, as the last stdout line, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload untraced
and then traced, reports the per-layer metrics, and writes the spans to
``.perfbench/traces/``.  ``perfbench/README.md`` maps each per-layer
metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import plans  # noqa: E402

WORKLOADS = ("sweep", "apps", "farm", "serve")
TERMINAL = ("ok", "failed", "cancelled")
#: farm and serve worker count (the container has 2 CPUs)
WORKERS = 2
#: per-job wall-clock limit for farmed and served jobs (a job takes < 1 s)
JOB_TIMEOUT_S = 20.0
#: serve: jobs not terminal this long after the schedule ends count failed
SERVE_DRAIN_S = 60.0
#: serve: a rate step is sustained when its latency tail stays within
#: this many calibrated seconds and its backlog does not grow
SERVE_LIMIT_S = 3.0
#: calibration samples per burst, where work runs in other processes
BURST = 20
#: every STRIDE-th distinct point (seeded offset) is re-run with accel off
RECHECK_STRIDE = 6
#: setup probes per run; setup_s is their median
SETUP_REPEATS = 5
#: serve status-poll interval
POLL_S = 0.02
#: serve: an idle poll takes a calibration sample (~5 ms) only when the
#: next submission is due at least this much later
IDLE_GAP_S = 0.015
#: farm: fewest calibration samples that scale one job's latency or one
#: batch's wall time
LOCAL_SAMPLES = 10
#: farm: calibration sample period while a batch runs
FARM_SAMPLE_S = 0.05
#: calibration samples per burst in a setup probe, before and after setup
PROBE_BURST = 10
#: floor on a per-point |ln(hw/sim)| so the geometric mean stays defined
MODEL_ERROR_FLOOR = 1e-6

END_TO_END = (
    ("setup_s", "s"), ("uops_per_s", "1/s"), ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"), ("job_tail_s", "s"), ("sustained_jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("cpu_s_per_muop", "s"), ("model_error", "ln"),
)
#: layers, named after the modules they live in; ``bench`` is the
#: benchmark's own per-job, calibration and idle time
LAYERS = ("workloads", "accel.memo", "soc", "core.inorder", "core.ooo",
          "telemetry", "smpi", "farm.job", "farm", "serve", "bench")
CPI_BUCKETS = ("base", "branch", "l1", "l2", "llc", "dram", "tlb",
               "store_buffer", "divider", "token_stall")
PER_LAYER = (
    (("wall_s", "s"), ("unattributed_s", "s"), ("trace.overhead_s", "s"),
     ("trace.spans", "count"))
    + tuple((f"{layer}.self_s", "s") for layer in LAYERS)
    + (("workloads.build_s", "s"), ("workloads.emit_s", "s"),
       ("workloads.uops_built", "count"),
       ("accel.memo.trace_hit_ratio", "ratio"),
       ("accel.memo.trace_lookups", "count"),
       ("accel.memo.payload_hit_ratio", "ratio"),
       ("accel.memo.payload_lookups", "count"),
       ("soc.system_init_s", "s"), ("soc.systems", "count"),
       ("core.inorder.run_s", "s"), ("core.inorder.calls", "count"),
       ("core.inorder.uops_per_call", "count"),
       ("core.inorder.uops_per_s", "1/s"),
       ("core.ooo.run_s", "s"), ("core.ooo.calls", "count"),
       ("core.ooo.uops", "count"), ("core.ooo.uops_per_s", "1/s"),
       ("telemetry.snapshot_s", "s"), ("telemetry.delta_s", "s"),
       ("telemetry.cpi_s", "s"), ("telemetry.payload_s", "s"),
       ("smpi.run_s", "s"), ("smpi.messages", "count"),
       ("smpi.bytes", "count"),
       ("farm.overhead_s", "s"), ("farm.cache_get_s", "s"),
       ("farm.cache_put_s", "s"), ("farm.cache_hit_ratio", "ratio"),
       ("farm.utilisation", "ratio"), ("farm.retries", "count"),
       ("farm.crashes", "count"),
       ("serve.submit_rtt_s", "s"), ("serve.status_rtt_s", "s"),
       ("serve.queue_s", "s"), ("serve.store_s", "s"),
       ("serve.store_hit_ratio", "ratio"), ("serve.backlog_max", "count"),
       ("serve.gen_lag_s", "s"),
       ("sim.cycles", "count"), ("sim.uops", "count"),
       ("sim.mispredicts", "count"), ("sim.l1d_misses", "count"))
    + tuple((f"sim.cpi.{b}", "count") for b in CPI_BUCKETS)
)


def log(msg: str) -> None:
    print(msg, flush=True)


# -- the program under test ----------------------------------------------------


class Program:
    """Handles on the public entry points, imported from ``<root>/src``."""

    def __init__(self, prepare: bool) -> None:
        src = ROOT / "src"
        if not (src / "repro" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no program at {src}/repro")
        sys.path.insert(0, str(src))
        import repro
        if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
            raise SystemExit(f"perfbench: imported repro from {repro.__file__},"
                             f" not {src}")
        from repro.farm import job as farm_job
        from repro.farm import RunFarm, ResultCache, SharedResultStore
        from repro.serve import FarmServer, ServeClient
        from repro.serve.server import ServerHandle
        from repro.soc.presets import ALL_CONFIGS
        self.farm_job = farm_job
        self.RunFarm, self.ResultCache = RunFarm, ResultCache
        self.SharedResultStore = SharedResultStore
        self.FarmServer, self.ServeClient = FarmServer, ServeClient
        self.ServerHandle = ServerHandle
        self.configs = ALL_CONFIGS
        if prepare:
            self.import_simulator()

    def import_simulator(self) -> None:
        """Import the simulator modules jobs load lazily.  In-process
        workloads do this before timing (users pay it once per process);
        farm and serve never do it before forking, because every worker
        they fork pays it per job."""
        from repro.accel import memo, stats
        from repro.smpi import runtime as smpi
        from repro.soc import system
        from repro import telemetry
        from repro.core import inorder, ooo
        from repro.telemetry import registry
        from repro.workloads import base
        from repro.workloads.lammps import workload as lammps
        from repro.workloads.microbench import suite
        from repro.workloads.npb import NPB_RUNNERS
        from repro.workloads.ume import workload as ume
        import repro.accel.engine  # noqa: F401
        import repro.accel.ooo  # noqa: F401
        self.memo, self.accel_stats = memo, stats
        self.smpi, self.system, self.telemetry = smpi, system, telemetry
        self.inorder, self.ooo, self.registry = inorder, ooo, registry
        self.wl_base, self.suite = base, suite
        self.lammps, self.ume, self.npb_runners = lammps, ume, NPB_RUNNERS

    def reset(self) -> None:
        self.memo.clear_caches()
        self.accel_stats.reset_global_stats()

    def config(self, name: str, accel: str):
        return self.configs[name].with_(accel=accel)

    def job(self, point: plans.Point, accel: str = "on"):
        Job = self.farm_job.Job
        cfg = self.config(point[-1], accel)
        if point[0] == "kernel":
            _, kernel, scale, kseed, _ = point
            return Job.kernel(cfg, kernel, scale=scale, seed=kseed,
                              timeout_s=JOB_TIMEOUT_S)
        _, bench, cls, ranks, _ = point
        return Job.npb(cfg, bench, ranks=ranks, npb_class=cls,
                       timeout_s=JOB_TIMEOUT_S)

    def run_point(self, point: plans.Point, accel: str = "on") -> dict:
        """One simulation in this process; returns its payload tree."""
        kind = point[0]
        if kind in ("kernel", "npb"):
            return self.farm_job.execute_job(self.job(point, accel))
        cfg = self.config(point[-1], accel)
        if kind == "ume":
            _, mesh_n, ranks, _ = point
            r = self.ume.run_ume(cfg, nranks=ranks, mesh_n=mesh_n)
            return {"kind": "ume", "config": r.config, "ranks": r.nranks,
                    "mesh_n": r.mesh_n, "verified": bool(r.verified),
                    "kernel_cycles": r.kernel_cycles, "seconds": r.seconds,
                    "rank_results": [_rank(x) for x in r.ranks]}
        _, bench, natoms, steps, ranks, _ = point
        r = self.lammps.run_lammps(cfg, nranks=ranks, benchmark=bench,
                                   natoms=natoms, steps=steps)
        return {"kind": "lammps", "config": r.config, "benchmark": bench,
                "ranks": r.nranks, "natoms": r.natoms, "steps": r.steps,
                "verified": bool(r.verified), "cycles": int(r.cycles),
                "energy_drift": r.energy_drift, "seconds": r.seconds,
                "rank_results": [_rank(x) for x in r.ranks]}

    def sim_uops(self, point: plans.Point, payload: dict) -> int:
        """Micro-ops the simulator retired for *payload*, warm-up passes
        included (a kernel's warm-up replays its measured trace; UME
        runs one warm-up iteration of its program)."""
        kind = point[0]
        if kind == "kernel":
            passes = 2 if self.suite.get_kernel(point[1]).needs_warmup else 1
            return passes * payload["instructions"]
        uops = sum(r["instructions"] for r in payload["rank_results"])
        return 2 * uops if kind == "ume" else uops

    def span_targets(self, workload: str) -> list[tuple]:
        """``(owner, attribute, span name, counts)`` for harness.patched.

        Farm and serve wrap only what their (never-simulating) parent
        process calls; the simulator runs in forked workers there.
        """
        if workload in ("farm", "serve"):
            return [
                (self.RunFarm, "run", "farm.run", None),
                (self.ResultCache, "get", "farm.cache_get", None),
                (self.ResultCache, "put", "farm.cache_put", None),
                (self.SharedResultStore, "get", "serve.store_get", None),
                (self.SharedResultStore, "put", "serve.store_put", None),
                (self.ServeClient, "submit", "serve.submit", None),
                (self.ServeClient, "status", "serve.status", None),
                (self.FarmServer, "start_background", "serve.start", None),
                (self.ServerHandle, "stop", "serve.stop", None),
            ]

        def uops(trace):
            return {"uops": len(trace)}

        def retired(result):
            return {"uops": int(result.instructions)}

        def traffic(results):
            return {"messages": sum(r.messages_sent for r in results),
                    "bytes": sum(r.bytes_sent for r in results)}

        targets = [
            (cls, "build", "workloads.build", uops)
            for cls in self.suite.KERNEL_CLASSES if "build" in vars(cls)]
        targets += [
            (self.wl_base.PhaseEmitter, "emit", "workloads.emit", uops),
            (self.ume, "run_ume", "workloads.ume.run", None),
            (self.lammps, "run_lammps", "workloads.lammps.run", None),
        ]
        targets += [(self.npb_runners, name, "workloads.npb.run", None)
                    for name in self.npb_runners]
        targets += [
            (self.memo, "shared_trace", "accel.memo.shared_trace", None),
            (self.memo, "memo_key", "accel.memo.key", None),
            (self.memo, "memo_get", "accel.memo.get", None),
            (self.memo, "memo_put", "accel.memo.put", None),
            (self.system.System, "__init__", "soc.system_init", None),
            (self.inorder.InOrderCore, "run", "core.inorder.run", retired),
            (self.ooo.OoOCore, "run", "core.ooo.run", retired),
            (self.registry.StatsRegistry, "snapshot", "telemetry.snapshot",
             None),
            (self.registry.StatsRegistry, "delta", "telemetry.delta", None),
            (self.telemetry, "cpi_stack", "telemetry.cpi", None),
            (self.farm_job, "kernel_payload", "telemetry.payload", None),
            (self.smpi.SMPIRuntime, "run", "smpi.run", traffic),
            (self.farm_job, "execute_job", "farm.job.execute", None),
        ]
        return targets


def _rank(r) -> dict:
    return {"rank": r.rank, "cycles": int(r.cycles),
            "instructions": int(r.instructions),
            "compute_cycles": int(r.compute_cycles),
            "comm_cycles": int(r.comm_cycles),
            "messages_sent": int(r.messages_sent),
            "bytes_sent": int(r.bytes_sent)}


# -- one run of a workload -----------------------------------------------------


@dataclass
class JobRec:
    point: plans.Point
    ok: bool
    payload: dict | None
    latency_s: float            #: raw host seconds
    factor: float               #: calibration factor for this interval
    cached: bool = False        #: served from a result cache or store
    due_s: float = 0.0          #: serve: offset of its due time in the run
    elapsed_s: float = 0.0      #: farm/serve: worker-side elapsed
    error: str | None = None


@dataclass
class Outcome:
    jobs: list[JobRec]
    busy_s: float               #: raw host seconds the work took
    busy_cal_s: float           #: the same, calibrated
    factor: float               #: run-wide calibration factor
    cpu_s: float                #: host CPU, own + reaped children
    rss_mb: float
    layer: dict[str, float] = field(default_factory=dict)
    sustained: float | None = None
    notes: list[str] = field(default_factory=list)


def _cpu(include_children: bool) -> float:
    t = os.times()
    cpu = t.user + t.system
    return cpu + (t.children_user + t.children_system
                  if include_children else 0.0)


def _rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def _reap_children() -> None:
    """Every worker the farm or server forked is gone before the run
    reports (both reap their own; this only waits for stragglers)."""
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join(timeout=5)


def _span(rec: harness.SpanRecorder | None, name: str,
          job: str | None = None):
    """A span on *rec*, or nothing when the run is untraced."""
    return rec.span(name, job) if rec is not None else nullcontext()


def run_closed_loop(prog: Program, points: list, cal: harness.Calibrator,
                    rec) -> Outcome:
    """sweep / apps: one in-process simulation after another."""
    prog.reset()
    jobs: list[JobRec] = []
    cpu0, cal0 = _cpu(False), cal.spent_s

    def calibrate() -> None:
        with _span(rec, "bench.calibrate"):
            cal.sample()

    calibrate()
    for i, point in enumerate(points):
        before = len(cal.samples) - 1
        t0 = time.perf_counter()
        payload, error = None, None
        with _span(rec, "bench.job", job=str(i)):
            try:
                payload = prog.run_point(point)
            except Exception:
                error = traceback.format_exc()
        dt = time.perf_counter() - t0
        calibrate()
        if error is not None:
            print(error, file=sys.stderr)
        # each job is calibrated by the loop samples just before and after it
        factor = cal.factor(cal.samples[before:before + 2])
        jobs.append(JobRec(point, error is None, payload, dt, factor,
                           error=error))
    cpu = _cpu(False) - cpu0 - (cal.spent_s - cal0)
    busy = sum(j.latency_s for j in jobs)
    busy_cal = sum(j.latency_s * j.factor for j in jobs)
    # the busy-time-weighted mean of the per-job factors, so that CPU
    # time is calibrated as the job intervals are
    factor = busy_cal / busy
    g = prog.accel_stats.global_stats()
    layer = {
        "accel.memo.trace_lookups": g.trace_cache_hits + g.trace_cache_misses,
        "accel.memo.trace_hit_ratio": _ratio(
            g.trace_cache_hits, g.trace_cache_hits + g.trace_cache_misses),
        "accel.memo.payload_lookups": g.memo_hits + g.memo_misses,
        "accel.memo.payload_hit_ratio": _ratio(
            g.memo_hits, g.memo_hits + g.memo_misses),
    }
    return Outcome(jobs, busy, busy_cal, factor, cpu, _rss_mb(False), layer)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _burst(cal: harness.Calibrator, n: int = BURST) -> None:
    """Back-to-back calibration samples while no worker runs."""
    for _ in range(n):
        cal.sample()


@contextmanager
def _sampling(cal: harness.Calibrator, period_s: float):
    """Calibration samples every *period_s* from a thread, while the
    block runs."""
    stop = threading.Event()

    def loop() -> None:
        while not stop.wait(period_s):
            cal.sample()

    sampler = threading.Thread(target=loop, name="perfbench-calibrate")
    sampler.start()
    try:
        yield
    finally:
        stop.set()
        sampler.join()


def run_farm(prog: Program, batches, cal: harness.Calibrator,
             tmp: Path) -> Outcome:
    """Two RunFarm batches over one fresh result cache.

    The work runs in forked workers that keep both CPUs busy for a whole
    batch, so the loop samples the host from a thread beside them, every
    FARM_SAMPLE_S, and in bursts before, between and after the batches.
    Each job and batch is calibrated by the samples taken during it.
    Bursts alone tracked the host's speed from run to run (raw rates
    moved 40% over half an hour while calibrated ones held) but not
    within a run: ten-seed spreads were 17-19% of the median, 3-9% with
    the in-batch samples.
    """
    jobs: list[JobRec] = []
    marks: dict[str, dict[int, float]] = {}
    overhead: list[float] = []
    stats = {"hits": 0, "misses": 0, "retries": 0, "crashes": 0}
    elapsed_sum = wall_sum = 0.0

    def on_event(ev) -> None:
        marks.setdefault(ev.kind, {})[ev.index] = time.perf_counter()

    farm = prog.RunFarm(workers=WORKERS, cache=tmp / "cache",
                        timeout_s=JOB_TIMEOUT_S, on_event=on_event)
    first = len(cal.samples)
    _burst(cal)
    cpu0, cal0 = _cpu(True), cal.spent_s
    busy_cal = 0.0
    for batch in batches:
        marks.clear()
        t0 = time.perf_counter()
        with _sampling(cal, FARM_SAMPLE_S):
            results = farm.run([prog.job(p) for p in batch])
        wall = time.perf_counter() - t0
        wall_sum += wall
        busy_cal += wall * cal.local_factor(t0, t0 + wall, LOCAL_SAMPLES,
                                            first)
        s = farm.stats
        stats["hits"] += s.cache_hits
        stats["misses"] += s.cache_misses
        stats["retries"] += s.retries
        stats["crashes"] += s.crashes
        for r in results:
            done = next((marks[k][r.index] for k in
                         ("ok", "cache-hit", "failed", "interrupted")
                         if r.index in marks.get(k, {})), t0 + wall)
            start = marks.get("start", {}).get(r.index, t0)
            latency = done - start
            if not r.from_cache and r.ok:
                overhead.append(latency - r.elapsed_s)
                elapsed_sum += r.elapsed_s
            jobs.append(JobRec(batch[r.index], r.ok, r.payload, latency,
                               cal.local_factor(start, done, LOCAL_SAMPLES,
                                                first),
                               cached=r.from_cache, elapsed_s=r.elapsed_s,
                               error=r.error))
        _burst(cal)
    cpu = _cpu(True) - cpu0 - (cal.spent_s - cal0)
    layer = {
        "farm.overhead_s": statistics.mean(overhead) if overhead else 0.0,
        "farm.cache_hit_ratio": _ratio(stats["hits"],
                                       stats["hits"] + stats["misses"]),
        "farm.utilisation": _ratio(elapsed_sum, WORKERS * wall_sum),
        "farm.retries": stats["retries"],
        "farm.crashes": stats["crashes"],
    }
    return Outcome(jobs, wall_sum, busy_cal, busy_cal / wall_sum, cpu,
                   _rss_mb(True), layer)


def run_serve(prog: Program, plan, cal: harness.Calibrator, rec,
              tmp: Path) -> Outcome:
    """Open-loop submissions to a background FarmServer.

    Raw serve latencies moved 29% between two sets of ten runs as the
    host's speed changed, so latencies and CPU time are calibrated, by
    one factor per run: from bursts before and after the schedule and one
    sample per poll while no job is outstanding.  The server is a thread
    of this process, so a sample taken while it works waits on the GIL
    and reads slow (per-job factors from such samples ranged 0.5-1.3
    within a run while raw latencies held).  The rates are not
    calibrated: an open loop's completion rate is set by its wall-clock
    schedule unless the server falls behind it.
    """
    arrivals, steps = plan
    spool = tmp / "spool"
    sock = Path(os.path.relpath(tmp / "s.sock"))
    first = len(cal.samples)
    _burst(cal)
    cpu0, cal0 = _cpu(True), cal.spent_s
    handle = prog.FarmServer.start_background(
        spool, deploy=f"local:{WORKERS}", timeout_s=JOB_TIMEOUT_S,
        socket_path=sock)
    try:
        client = prog.ServeClient(str(sock))
        ids: list[str | None] = [None] * len(arrivals)
        done_at: dict[str, float] = {}
        docs: dict[str, dict] = {}
        backlog: list[tuple[float, int]] = []
        lag: list[float] = []
        pending: set[str] = set()
        t0 = time.perf_counter()
        nxt = 0
        deadline = arrivals[-1][0] + SERVE_DRAIN_S
        while nxt < len(arrivals) or pending:
            now = time.perf_counter() - t0
            if now > deadline:
                break
            while nxt < len(arrivals) and arrivals[nxt][0] <= now:
                due, tenant, point = arrivals[nxt]
                lag.append(time.perf_counter() - t0 - due)
                doc = client.submit(prog.job(point), tenant=tenant)
                ids[nxt] = doc["id"]
                if doc["state"] in TERMINAL:
                    done_at[doc["id"]] = time.perf_counter() - t0
                    docs[doc["id"]] = doc
                else:
                    pending.add(doc["id"])
                nxt += 1
            if pending:
                view = client.status()
                seen = time.perf_counter() - t0
                for doc in view["jobs"]:
                    if doc["id"] in pending and doc["state"] in TERMINAL:
                        pending.discard(doc["id"])
                        done_at[doc["id"]] = seen
                        docs[doc["id"]] = doc
            backlog.append((time.perf_counter() - t0, len(pending)))
            wake = arrivals[nxt][0] if nxt < len(arrivals) else math.inf
            if not pending and wake - (time.perf_counter() - t0) > IDLE_GAP_S:
                with _span(rec, "bench.calibrate"):
                    cal.sample()
            pause = min(POLL_S, wake - (time.perf_counter() - t0))
            if pause > 0:
                with _span(rec, "bench.idle"):
                    time.sleep(pause)
        span_s = time.perf_counter() - t0 if pending else max(done_at.values())
        for jid in pending:
            done_at[jid] = span_s
            docs[jid] = {"state": "failed", "error": "not terminal by the "
                         "end of the drain window"}
        store = client.status().get("store") or {}
        payloads = {i: client.status(i, payload=True).get("payload")
                    for i in set(ids) if docs[i]["state"] == "ok"}
    finally:
        handle.stop(drain=True)
    cpu = _cpu(True) - cpu0 - (cal.spent_s - cal0)
    _burst(cal)
    factor = cal.factor(cal.samples[first:])
    jobs = []
    for (due, _, point), jid in zip(arrivals, ids):
        doc = docs[jid]
        jobs.append(JobRec(point, doc["state"] == "ok", payloads.get(jid),
                           done_at[jid] - due, factor,
                           cached=bool(doc.get("from_cache")), due_s=due,
                           elapsed_s=float(doc.get("elapsed_s") or 0.0),
                           error=doc.get("error")))
    sustained, notes = _sustained(jobs, steps, backlog, done_at, ids)
    queue = [j.latency_s - j.elapsed_s for j in jobs if not j.cached]
    layer = {
        "serve.queue_s": statistics.median(queue) if queue else 0.0,
        "serve.store_hit_ratio": _ratio(
            store.get("hits", 0), store.get("hits", 0) + store.get("misses", 0)),
        "serve.backlog_max": max(b for _, b in backlog),
        "serve.gen_lag_s": max(lag),
    }
    return Outcome(jobs, span_s, span_s, factor, cpu, _rss_mb(True), layer,
                   sustained=sustained, notes=notes)


def _sustained(jobs, steps, backlog, done_at, ids):
    """Highest offered rate whose calibrated latency tail meets
    SERVE_LIMIT_S with no growing backlog.  The value is the rate
    measured in that step: its jobs over the time from the step's start
    to the last of them finishing (the lowest step's when none meets
    the limit)."""

    def backlog_at(t: float) -> int:
        return next((b for ts, b in backlog if ts >= t), backlog[-1][1])

    best = lowest = None
    notes = []
    for rate, t0, t1 in steps:
        idx = [i for i, j in enumerate(jobs) if t0 <= j.due_s < t1]
        lat = [jobs[i].latency_s * jobs[i].factor for i in idx]
        worst = harness.tail(lat)[0]
        grew = backlog_at(t1) > backlog_at(t0) + 2
        finish = max(done_at[ids[i]] for i in idx)
        achieved = len(idx) / (finish - t0)
        ok = worst <= SERVE_LIMIT_S and not grew and all(
            jobs[i].ok for i in idx)
        notes.append(f"rate {rate:g}/s: n={len(idx)} tail={worst:.3f}s "
                     f"achieved={achieved:.3f}/s "
                     f"{'met' if ok else 'missed'}")
        if lowest is None:
            lowest = achieved
        if ok:
            best = achieved
    return (best if best is not None else lowest), notes


# -- correctness ---------------------------------------------------------------


def check(prog: Program, out: Outcome, seed: int) -> tuple[int, str, dict]:
    """Failures among the jobs, the payload digest, and the distinct
    payloads.  Failed jobs, unverified runs, repeated points whose
    payloads differ, and sampled points whose accel-off re-run differs
    all count as failures."""
    failed = 0
    uniq: dict[str, dict] = {}
    points = {plans.key(j.point): j.point for j in out.jobs}
    for j in out.jobs:
        if not j.ok or j.payload is None:
            failed += 1
            log(f"  FAILED {plans.key(j.point)}: {j.error}")
            continue
        if j.payload.get("verified") is False:
            failed += 1
            log(f"  UNVERIFIED {plans.key(j.point)}")
        k = plans.key(j.point)
        if k in uniq and harness.canonical(uniq[k]) != \
                harness.canonical(j.payload):
            failed += 1
            log(f"  MISMATCH repeat of {k}")
        uniq.setdefault(k, j.payload)
    keys = sorted(uniq)
    sample = keys[seed % RECHECK_STRIDE::RECHECK_STRIDE]
    prog.reset()
    for k in sample:
        ref = prog.run_point(points[k], accel="off")
        if harness.canonical(ref) != harness.canonical(uniq[k]):
            failed += 1
            log(f"  MISMATCH accel off vs on: {k}")
    log(f"  re-ran {len(sample)} of {len(keys)} distinct points with "
        f"accel off")
    return failed, harness.digest(uniq), uniq


def model_error(uniq: dict[str, dict], points: dict[str, plans.Point]
                ) -> tuple[float, int]:
    """Geometric mean over simulated points of |ln(hw_s / sim_s)|, where
    hw_s is the same workload on the config's ``repro.silicon`` reference
    model (BananaPi-K1 / MILKV-SG2042).  These are models of the boards,
    not measurements of them."""
    groups: dict[tuple, dict[str, float]] = {}
    for k, payload in uniq.items():
        p = points[k]
        groups.setdefault(p[:-1], {})[p[-1]] = payload["seconds"]
    errs = []
    for secs in groups.values():
        for cfg, sim_s in secs.items():
            hw = plans.REFERENCE.get(cfg)
            if hw in secs:
                errs.append(max(abs(math.log(secs[hw] / sim_s)),
                                MODEL_ERROR_FLOOR))
    if not errs:
        return 0.0, 0
    return math.exp(statistics.mean(math.log(e) for e in errs)), len(errs)


# -- setup probes ----------------------------------------------------------------


def setup_probe(workload: str) -> None:
    """What a user runs before the first job: import the program and
    assemble the workload's systems, farm or server.  Calibration bursts
    before and after it run in the same process, and the samples are
    printed as the last stdout line."""
    cal = harness.Calibrator()
    _burst(cal, PROBE_BURST)
    _setup(workload)
    _burst(cal, PROBE_BURST)
    print(json.dumps(cal.samples))


def _setup(workload: str) -> None:
    prog = Program(prepare=workload in ("sweep", "apps"))
    if workload == "sweep":
        for name in plans.ALL_CONFIG_NAMES:
            prog.system.System(prog.config(name, "on"))
    elif workload == "apps":
        for name in plans.APPS_CONFIGS:
            prog.system.System(prog.config(name, "on"))
    else:
        tmp = Path(tempfile.mkdtemp(dir=os.environ.get("TMPDIR")))
        if workload == "farm":
            prog.RunFarm(workers=WORKERS, cache=tmp / "cache")
        else:
            sock = Path(os.path.relpath(tmp / "s.sock"))
            handle = prog.FarmServer.start_background(
                tmp / "spool", deploy=f"local:{WORKERS}", socket_path=sock)
            prog.ServeClient(str(sock)).ping()
            handle.stop(drain=True)


def measure_setup(workload: str, cal: harness.Calibrator
                  ) -> tuple[float, float]:
    """Medians of SETUP_REPEATS fresh-process setup probes: ``(calibrated,
    raw)``.  A probe's wall time, less its calibration bursts, is scaled
    by the samples of those bursts.

    Raw probe times do not track the host's speed from run to run (their
    median moved 35% within half an hour), and samples taken by this
    process did not track a child's (20 probes: IQR 18% of the median vs
    9% raw, with samples around each probe or beside it alike): the two
    vCPUs' speeds swing apart.
    """
    walls, cals = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", workload], cwd=ROOT, check=True, timeout=120,
            stdout=subprocess.PIPE, text=True)
        samples = json.loads(probe.stdout.splitlines()[-1])
        wall = time.perf_counter() - t0 - sum(samples)
        walls.append(wall)
        cals.append(wall * cal.factor(samples))
    return statistics.median(cals), statistics.median(walls)


# -- metrics -------------------------------------------------------------------


def run_workload(prog: Program, workload: str, seed: int, seconds: float,
                 cal: harness.Calibrator, rec, tmp: Path) -> Outcome:
    tmp.mkdir(parents=True)
    if workload == "sweep":
        return run_closed_loop(prog, plans.sweep_plan(seed, seconds), cal, rec)
    if workload == "apps":
        return run_closed_loop(prog, plans.apps_plan(seed, seconds), cal, rec)
    if workload == "farm":
        return run_farm(prog, plans.farm_plan(seed, seconds), cal, tmp)
    return run_serve(prog, plans.serve_plan(seed, seconds), cal, rec, tmp)


def end_to_end(prog: Program, workload: str, out: Outcome, uniq, points,
               setup: tuple[float, float]
               ) -> dict[str, tuple[float, float | None, str]]:
    """``name -> (calibrated or exact value, raw value or None, note)``."""
    done = [j for j in out.jobs if j.ok]
    uops = sum(prog.sim_uops(j.point, j.payload) for j in done
               if not j.cached)
    lat_cal = [j.latency_s * j.factor for j in out.jobs]
    lat_raw = [j.latency_s for j in out.jobs]
    tail_cal, pct, n = harness.tail(lat_cal)
    tail_raw = harness.tail(lat_raw)[0]
    rate = len(done) / out.busy_cal_s
    rate_raw = len(done) / out.busy_s
    f = out.factor
    err, n_err = model_error(uniq, points)
    sustained = out.sustained if out.sustained is not None else rate
    return {
        "setup_s": (setup[0], setup[1], f"median of {SETUP_REPEATS} "
                    "fresh-process probes"),
        "uops_per_s": (uops / out.busy_cal_s, uops / out.busy_s,
                       f"{uops} simulated uops"),
        "jobs_per_s": (rate, rate_raw, f"{len(done)} completed"),
        "job_p50_s": (statistics.median(lat_cal), statistics.median(lat_raw),
                      f"n={len(lat_cal)}"),
        "job_tail_s": (tail_cal, tail_raw, f"p{pct:.1f} n={n}"),
        "sustained_jobs_per_s": (
            sustained, sustained * out.busy_cal_s / out.busy_s,
            "highest rate meeting the limit" if out.sustained is not None
            else "closed loop: the completion rate"),
        "peak_rss_mb": (out.rss_mb, None,
                        "self + largest child" if workload in ("farm", "serve")
                        else "self"),
        "cpu_s_per_muop": (out.cpu_s * f / (uops / 1e6),
                           out.cpu_s / (uops / 1e6),
                           "own + children" if workload in ("farm", "serve")
                           else "own"),
        "model_error": (err, None, f"{n_err} sim/hw pairs; against "
                        "repro.silicon models, not boards"),
    }


def per_layer(prog: Program, out: Outcome, rec: harness.SpanRecorder,
              root: int, uniq: dict[str, dict], overhead_s: float
              ) -> dict[str, float]:
    m: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    m.update(out.layer)
    spans = rec.spans
    main = spans[root].thread
    selfs = harness.self_times(spans)
    wall = spans[root].duration
    m["wall_s"] = wall
    m["unattributed_s"] = selfs[root]
    m["trace.overhead_s"] = overhead_s
    m["trace.spans"] = len(spans)
    by_name: dict[str, list[harness.Span]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(s)
        if i == root or s.thread != main:
            continue
        layer = harness.layer_of(s.name, LAYERS)
        m[f"{layer}.self_s"] += selfs[i]

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    def count(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    def median_dur(name: str) -> float:
        xs = [s.duration for s in by_name.get(name, ())]
        return statistics.median(xs) if xs else 0.0

    m["workloads.build_s"] = total("workloads.build")
    m["workloads.emit_s"] = total("workloads.emit")
    m["workloads.uops_built"] = (count("workloads.build", "uops")
                                 + count("workloads.emit", "uops"))
    m["soc.system_init_s"] = total("soc.system_init")
    m["soc.systems"] = len(by_name.get("soc.system_init", ()))
    for core in ("inorder", "ooo"):
        name = f"core.{core}.run"
        run_s, calls, uops = total(name), len(by_name.get(name, ())), \
            count(name, "uops")
        m[f"core.{core}.run_s"] = run_s
        m[f"core.{core}.calls"] = calls
        m[f"core.{core}.uops_per_s"] = _ratio(uops, run_s)
        if core == "inorder":
            m["core.inorder.uops_per_call"] = _ratio(uops, calls)
        else:
            m["core.ooo.uops"] = uops
    m["telemetry.snapshot_s"] = total("telemetry.snapshot")
    m["telemetry.delta_s"] = total("telemetry.delta")
    m["telemetry.cpi_s"] = total("telemetry.cpi")
    m["telemetry.payload_s"] = total("telemetry.payload")
    m["smpi.run_s"] = total("smpi.run")
    m["smpi.messages"] = count("smpi.run", "messages")
    m["smpi.bytes"] = count("smpi.run", "bytes")
    m["farm.cache_get_s"] = total("farm.cache_get")
    m["farm.cache_put_s"] = total("farm.cache_put")
    m["serve.submit_rtt_s"] = median_dur("serve.submit")
    m["serve.status_rtt_s"] = median_dur("serve.status")
    m["serve.store_s"] = total("serve.store_get") + total("serve.store_put")
    for payload in uniq.values():
        m["sim.cycles"] += payload.get("cycles", 0) or sum(
            payload.get("kernel_cycles", {}).values())
        if payload.get("kind") == "kernel":
            m["sim.uops"] += payload["instructions"]
            m["sim.mispredicts"] += payload["mispredicts"]
            m["sim.l1d_misses"] += payload["l1d_misses"]
            for b, v in payload["cpi"][0]["buckets"].items():
                m[f"sim.cpi.{b}"] += v
        else:
            m["sim.uops"] += sum(r["instructions"]
                                 for r in payload["rank_results"])
    return m


def _fmt(v: float) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=WORKLOADS,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    workload, seed = args.workload, args.seed
    in_process = workload in ("sweep", "apps")
    prog = Program(prepare=in_process)
    tmp = WORK / "tmp" / f"{workload}-{seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    cal = harness.Calibrator()
    try:
        log(f"perfbench {workload} seed={seed} seconds={args.seconds:g} "
            f"trace={args.trace}")
        if args.trace:
            t0 = time.perf_counter()
            bare = run_workload(prog, workload, seed, args.seconds, cal, None,
                                tmp / "untraced")
            untraced_s = time.perf_counter() - t0
            rec = harness.SpanRecorder()
            with harness.patched(rec, prog.span_targets(workload)):
                with rec.span("run") as root:
                    out = run_workload(prog, workload, seed, args.seconds, cal,
                                       rec, tmp / "traced")
        else:
            out = run_workload(prog, workload, seed, args.seconds, cal, None,
                               tmp / "run")
            setup = measure_setup(workload, cal)
        _reap_children()
        if not in_process:
            prog.import_simulator()
        for note in out.notes:
            log(f"  {note}")
        failed, dig, uniq = check(prog, out, seed)
        points = {plans.key(j.point): j.point for j in out.jobs}
        attempted = len(out.jobs)
        log(f"  digest sha256={dig}")
        log(f"  attempted={attempted} failed={failed} "
            f"failed_frac={failed / attempted:g}")
        if args.trace:
            # calibrated, so host drift between the two legs cancels
            overhead = (rec.spans[root].duration * out.factor
                        - untraced_s * bare.factor)
            layer = per_layer(prog, out, rec, root, uniq, overhead)
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            path = traces / f"{workload}-seed{seed}.json"
            path.write_text(json.dumps([s.to_dict() for s in rec.spans]))
            units = dict(PER_LAYER)
            for name, _ in PER_LAYER:
                log(f"  {name:32s} {_fmt(layer[name]):>14s} {units[name]}")
            parts = sum(layer[f"{l}.self_s"] for l in LAYERS) \
                + layer["unattributed_s"]
            log(f"  layer self times + unattributed = {parts:.6f} s; "
                f"wall = {layer['wall_s']:.6f} s (raw seconds); "
                f"untraced wall = {untraced_s:.6f} s; spans -> {path}")
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in PER_LAYER}
        else:
            e2e = end_to_end(prog, workload, out, uniq, points, setup)
            units = dict(END_TO_END)
            for name, _ in END_TO_END:
                value, raw, note = e2e[name]
                raw_s = f" (raw {_fmt(raw)})" if raw is not None else ""
                log(f"  {name:22s} {_fmt(value):>12s} {units[name]:4s}"
                    f"{raw_s}  {note}")
            log(f"  failed_frac            {failed / attempted:g}")
            metrics = {name: {"value": e2e[name][0], "unit": unit}
                       for name, unit in END_TO_END}
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
