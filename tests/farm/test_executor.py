"""The one failure matrix, held on both schedulers of the shared executor.

Every row of the attempt-failure table in ``docs/serving.md`` runs the
same job, fault plan and fleet through a batch ``RunFarm`` and a served
``FarmServer``; both must end the job in the same state after the same
number of attempts and leave the same verdicts on the hosts.
"""

import importlib
import multiprocessing
import sys
import threading
import time

import pytest

from repro.farm import (ExternallyProvisionedDeployManager, Job, RunFarm,
                        execute_job, parse_deploy_spec)
from repro.farm.executor import _drop_orphaned_imports
from repro.reliability import FaultPlan
from repro.serve import FarmServer
from repro.soc import ROCKET1

HANG = Job.selftest("hang", sleep_s=30.0, timeout_s=0.3)
KILL_1 = "kill job=0 attempt=1"
KILL_1_2 = "kill job=0 attempt=1; kill job=0 attempt=2"

# id: (fleet, job, plan, max_retries, final state, attempts,
#      host-correlated failures counted per host)
ROWS = {
    # a workload exception is charged and never touches host health
    "raise-charged": (lambda: parse_deploy_spec("local:2"),
                      Job.selftest("raise"), None, 1, "failed", 2,
                      {"local": 0}),
    # the job's first crash is the host's fault: a credit, not a retry
    "first-crash-credited": (lambda: parse_deploy_spec("hosts:a=1,b=1"),
                             Job.selftest("ok"), KILL_1, 0, "ok", 2,
                             {"a": 1, "b": 0}),
    # dying again on the same host is charged to the job
    "repeat-crash-charged": (lambda: parse_deploy_spec("local:2"),
                             Job.selftest("ok"), KILL_1_2, 0, "failed", 2,
                             {"local": 1}),
    # dying again on a second host (a is suspect, so b runs attempt 2)
    # is charged too, and b's breaker does not count it
    "second-host-crash-charged": (
        lambda: ExternallyProvisionedDeployManager([("a", 1), ("b", 1)],
                                                   suspect_after=1),
        Job.selftest("ok"), KILL_1_2, 0, "failed", 2, {"a": 1, "b": 0}),
    # timeouts follow the crash rows: first credited, the rest charged
    "first-timeout-credited": (lambda: parse_deploy_spec("local:2"), HANG,
                               None, 1, "failed", 3, {"local": 1}),
}


def _run_farm(deploy, job, plan, max_retries, tmp_path):
    farm = RunFarm(deploy=deploy, fault_plan=plan, max_retries=max_retries,
                   backoff_s=0.0)
    [result] = farm.run([job])
    return result.status, result.attempts


def _run_server(deploy, job, plan, max_retries, tmp_path):
    with FarmServer.start_background(
            tmp_path / "spool", deploy=deploy, store=False, fault_plan=plan,
            max_retries=max_retries, backoff_s=0.0) as handle:
        client = handle.client()
        done = client.wait(client.submit(job)["id"], timeout_s=60.0,
                           poll_s=0.01, until={"ok", "failed"})
    return done["state"], done["attempts"]


@pytest.mark.parametrize("row", list(ROWS))
@pytest.mark.parametrize("scheduler", [_run_farm, _run_server],
                         ids=["runfarm", "server"])
def test_failure_matrix_same_on_both_schedulers(scheduler, row, tmp_path):
    fleet, job, plan, max_retries, state, attempts, failures = ROWS[row]
    deploy = fleet()
    plan = FaultPlan.parse(plan) if plan else None
    assert scheduler(deploy, job, plan, max_retries, tmp_path) == \
        (state, attempts)
    hosts = deploy.describe()["hosts"]
    assert {h["name"]: h["failures"] for h in hosts} == failures
    assert all(h["busy"] == 0 for h in hosts)


def test_runfarm_migrates_jobs_off_a_newly_quarantined_host(tmp_path):
    """The migration row of the self-healing table, on the batch farm: a
    stall that quarantines host a sends the job still running there to
    b, and its payload stays bit-identical to a serial run."""
    victim = Job.kernel(ROCKET1, "EI", scale=0.05, seed=14, timeout_s=0.3)
    filler = Job.kernel(ROCKET1, "EI", scale=0.05, seed=15)
    mover = Job.kernel(ROCKET1, "MM", scale=0.5, quantum=256)
    # the serial reference also imports the simulator here, so workers
    # start warm and the victim's retry fits in its 0.3 s budget
    ref = execute_job(mover)
    deploy = ExternallyProvisionedDeployManager(
        [("a", 2), ("b", 1)], suspect_after=1, quarantine_after=1,
        probe_interval=1000)
    farm = RunFarm(deploy=deploy,
                   fault_plan=FaultPlan.parse("host-stall host=a count=1"),
                   checkpoint_dir=tmp_path / "ckpt", checkpoint_every=2,
                   max_retries=0, backoff_s=0.0)
    results = farm.run([victim, filler, mover])   # on a, b, a
    assert [r.status for r in results] == ["ok"] * 3
    # the stall victim's timeout was credited, the mover's move too
    assert [(r.host, r.attempts) for r in results] == \
        [("b", 2), ("b", 1), ("b", 2)]
    assert results[2].payload == ref
    assert farm.stats.timeouts == 1 and farm.stats.retries == 2
    assert deploy.health("a").state == "quarantined"


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork to inherit another thread's import")
def test_forked_worker_imports_what_a_parent_thread_was_importing(
        tmp_path, monkeypatch):
    """A server on a background thread forks while its caller may be
    importing a module a job also needs: the worker must import it
    afresh instead of waiting forever on the vanished thread's lock."""
    go = tmp_path / "go"
    (tmp_path / "halfway.py").write_text(
        "import os, time\n"
        f"while not os.path.exists({str(go)!r}):\n"
        "    time.sleep(0.01)\n"
        "VALUE = 7\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    importer = threading.Thread(target=importlib.import_module,
                                args=("halfway",), daemon=True)
    importer.start()
    while "halfway" not in sys.modules:
        time.sleep(0.01)

    mp = multiprocessing.get_context("fork")
    recv, send = mp.Pipe(duplex=False)

    def worker():
        _drop_orphaned_imports()
        go.touch()
        import halfway
        send.send(halfway.VALUE)

    proc = mp.Process(target=worker, daemon=True)
    proc.start()
    send.close()
    try:
        assert recv.poll(10) and recv.recv() == 7
    finally:
        go.touch()
        proc.terminate()
        proc.join(5)
        importer.join(5)
        sys.modules.pop("halfway", None)
