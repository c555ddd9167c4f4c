"""End-to-end FarmServer tests over the unix-socket protocol.

Every test runs a real server (background thread, forked workers) and a
real client; the payload assertions hold the served path to the same
bit-identity contract as serial :func:`repro.farm.execute_job`.
"""

import time

import pytest

from repro.farm import Job, execute_job
from repro.instrument.stream import read_stream
from repro.serve import FarmServer, ServeError
from repro.soc import ROCKET1

EI = dict(name="EI", scale=0.05)
MM_SLOW = dict(name="MM", scale=0.3, quantum=256)


def kernel_job(**kw):
    kw = {**EI, **kw}
    return Job.kernel(ROCKET1, kw.pop("name"), **kw)


def serve(tmp_path, **kw):
    kw.setdefault("deploy", "local:1")
    kw.setdefault("backoff_s", 0.01)
    return FarmServer.start_background(tmp_path / "spool", **kw)


def wait_until(client, jid, states, timeout_s=60.0):
    return client.wait(jid, timeout_s=timeout_s, poll_s=0.01, until=states)


# ------------------------------------------------------------- happy path

def test_served_payload_bit_identical_to_serial(tmp_path):
    job = kernel_job(seed=3)
    with serve(tmp_path) as handle:
        client = handle.client()
        assert client.ping()["protocol"] >= 1
        doc = client.submit(job, tenant="alice")
        done = wait_until(client, doc["id"], {"ok", "failed"})
        assert done["state"] == "ok"
        assert done["payload"] == execute_job(job)
        assert done["host"] == "local"
        assert not done["resumed"] and not done["from_cache"]


def test_store_hit_completes_without_running(tmp_path):
    job = kernel_job(seed=4)
    with serve(tmp_path) as handle:
        client = handle.client()
        first = wait_until(client, client.submit(job)["id"], {"ok"})
        again = client.submit(job, tenant="bob")     # other tenant shares
        assert again["state"] == "ok"                # terminal at submit
        assert again["from_cache"] is True
        full = client.status(again["id"], payload=True)
        assert full["payload"] == first["payload"]
        stats = client.status()["store"]
        assert stats["hits"] == 1 and stats["inserts"] == 1


def test_stream_records_job_lifecycle(tmp_path):
    with serve(tmp_path) as handle:
        client = handle.client()
        doc = client.submit(kernel_job(seed=5))
        wait_until(client, doc["id"], {"ok"})
        records = list(client.tail(doc["id"], follow=True, timeout_s=30))
    assert records[0]["t"] == "meta" and records[0]["source"] == "serve"
    events = [r["event"] for r in records if r["t"] == "serve"]
    assert events == ["queued", "start", "ok"]
    assert records[-1]["t"] == "seal" and records[-1]["reason"] == "ok"


def test_external_fleet_backend_bit_identical(tmp_path):
    """Serving through a FireSim-style host fleet changes provenance,
    never payloads."""
    jobs = [kernel_job(seed=s) for s in (30, 31, 32)]
    with serve(tmp_path, deploy="hosts:fpga-a=2,fpga-b=1",
               store=False) as handle:
        client = handle.client()
        docs = [client.submit(j) for j in jobs]
        for doc, job in zip(docs, jobs):
            done = wait_until(client, doc["id"], {"ok"})
            assert done["payload"] == execute_job(job)
            assert done["host"] in {"fpga-a", "fpga-b"}
        dep = client.status()["deploy"]
        assert dep["kind"] == "externally-provisioned"
        assert sum(h["busy"] for h in dep["hosts"]) == 0


# ------------------------------------------------------- failures, cancel

def test_failed_job_reports_error_after_retries(tmp_path):
    with serve(tmp_path, max_retries=1) as handle:
        client = handle.client()
        doc = client.submit(Job.selftest("raise"))
        done = wait_until(client, doc["id"], {"ok", "failed"})
        assert done["state"] == "failed"
        assert done["attempts"] == 2
        assert "injected failure" in done["error"]


def test_flaky_job_retries_to_success(tmp_path):
    with serve(tmp_path, max_retries=2) as handle:
        client = handle.client()
        doc = client.submit(Job.selftest("flaky", fail_times=1, value=9))
        done = wait_until(client, doc["id"], {"ok", "failed"})
        assert done["state"] == "ok" and done["attempts"] == 2
        assert done["payload"]["value"] == 9


def test_cancel_queued_job(tmp_path):
    with serve(tmp_path) as handle:
        client = handle.client()
        blocker = client.submit(Job.kernel(ROCKET1, **MM_SLOW))
        victim = client.submit(kernel_job(seed=6))
        got = client.cancel(victim["id"])
        assert got["state"] == "cancelled"
        with pytest.raises(ServeError, match="already cancelled"):
            client.cancel(victim["id"])
        wait_until(client, blocker["id"], {"ok"})


def test_unknown_ops_and_ids_are_protocol_errors(tmp_path):
    with serve(tmp_path) as handle:
        client = handle.client()
        with pytest.raises(ServeError, match="unknown job id"):
            client.status("j9999")
        with pytest.raises(ServeError, match="unknown op"):
            client._request({"op": "explode"})


# --------------------------------------------------------- preempt/resume

def test_preempt_resume_is_bit_identical(tmp_path):
    job = Job.kernel(ROCKET1, **MM_SLOW)
    with serve(tmp_path, checkpoint_every=2) as handle:
        client = handle.client()
        doc = client.submit(job, tenant="alice")
        wait_until(client, doc["id"], {"running"}, timeout_s=30)
        time.sleep(0.3)          # let a couple of checkpoints land
        client.cancel(doc["id"], preempt=True)
        pre = wait_until(client, doc["id"], {"preempted"}, timeout_s=30)
        assert pre["attempts"] == 1

        done = wait_until(client, client.resume(doc["id"])["id"], {"ok"})
        assert done["resumed"] is True
        assert done["attempts"] == 2
        assert done["payload"] == execute_job(job)

        events = [r["event"] for r in read_stream(doc["stream"])
                  if r.get("t") == "serve"]
        assert events == ["queued", "start", "preempted",
                          "resume-queued", "start", "ok"]


def test_preempted_job_can_be_cancelled_instead(tmp_path):
    with serve(tmp_path) as handle:
        client = handle.client()
        doc = client.submit(Job.kernel(ROCKET1, **MM_SLOW))
        wait_until(client, doc["id"], {"running"}, timeout_s=30)
        client.cancel(doc["id"], preempt=True)
        wait_until(client, doc["id"], {"preempted"}, timeout_s=30)
        assert client.cancel(doc["id"])["state"] == "cancelled"
        with pytest.raises(ServeError, match="only preempted"):
            client.resume(doc["id"])


# --------------------------------------------------- scheduling, observed

def _dispatch_order(client, ids, timeout_s=60.0):
    """Order in which *ids* first leave the queued state."""
    order = []
    deadline = time.monotonic() + timeout_s
    while len(order) < len(ids) and time.monotonic() < deadline:
        for doc in client.status()["jobs"]:
            if (doc["id"] in ids and doc["id"] not in order
                    and doc["state"] != "queued"):
                order.append(doc["id"])
        time.sleep(0.005)
    return order


def test_priority_order_served_end_to_end(tmp_path):
    with serve(tmp_path, store=False) as handle:
        client = handle.client()
        blocker = client.submit(Job.kernel(ROCKET1, **MM_SLOW))
        wait_until(client, blocker["id"], {"running"}, timeout_s=30)
        lo = client.submit(kernel_job(seed=10), priority=0)["id"]
        hi = client.submit(kernel_job(seed=11), priority=5)["id"]
        mid = client.submit(kernel_job(seed=12), priority=2)["id"]
        assert _dispatch_order(client, {lo, hi, mid}) == [hi, mid, lo]
        for jid in (blocker["id"], lo, hi, mid):
            assert wait_until(client, jid, {"ok"})["state"] == "ok"


def test_quota_limits_concurrent_slots_per_tenant(tmp_path):
    with serve(tmp_path, deploy="local:4", default_quota=1,
               store=False) as handle:
        client = handle.client()
        a1 = client.submit(Job.kernel(ROCKET1, **MM_SLOW), tenant="a")
        a2 = client.submit(Job.kernel(ROCKET1, **MM_SLOW), tenant="a")
        b1 = client.submit(Job.kernel(ROCKET1, **MM_SLOW), tenant="b")
        wait_until(client, a1["id"], {"running"}, timeout_s=30)
        wait_until(client, b1["id"], {"running"}, timeout_s=30)
        sched = client.status()["scheduler"]["tenants"]
        # both tenants run concurrently, but a's second job is held back
        assert sched["a"] == {"queued": 1, "running": 1, "quota": 1}
        assert sched["b"]["running"] == 1
        for doc in (a1, a2, b1):
            wait_until(client, doc["id"], {"ok"})


# -------------------------------------------------------------- shutdown

def test_drain_shutdown_finishes_queued_work(tmp_path):
    handle = serve(tmp_path)
    client = handle.client()
    ids = [client.submit(kernel_job(seed=20 + i))["id"] for i in range(3)]
    client.shutdown(drain=True)
    with pytest.raises(ServeError, match="shutting down"):
        client.submit(kernel_job(seed=99))
    handle.thread.join(timeout=60)
    assert not handle.thread.is_alive()
    import json
    manifest = json.loads(
        (handle.server.spool / "manifest.json").read_text())
    states = {j["id"]: j["state"] for j in manifest["jobs"]}
    assert all(states[jid] == "ok" for jid in ids)


def test_hard_shutdown_preempts_running_work(tmp_path):
    handle = serve(tmp_path)
    client = handle.client()
    doc = client.submit(Job.kernel(ROCKET1, **MM_SLOW))
    wait_until(client, doc["id"], {"running"}, timeout_s=30)
    client.shutdown(drain=False)
    handle.thread.join(timeout=30)
    assert not handle.thread.is_alive()
    final = handle.server.jobs[doc["id"]]
    assert final.state in {"preempted", "ok"}


# ------------------------------------------------------------ spool writes

def test_spool_writes_leave_no_tmp_when_dump_raises(tmp_path, monkeypatch):
    """A results or manifest write that fails mid-dump unlinks its
    tempfile instead of leaving a ``*.tmp`` orphan in the spool."""
    import json

    from repro.serve.queue import JobRecord

    server = FarmServer(tmp_path / "spool", deploy="local:1", store=False)
    rec = JobRecord(id="j0001", tenant="t", priority=0,
                    job=Job.selftest("ok"), seq=1, payload={"value": 1})
    server.jobs[rec.id] = rec
    (server.spool / "results").mkdir(parents=True)

    def broken_dump(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(OSError, match="disk full"):
        server._persist_result(rec)
    with pytest.raises(OSError, match="disk full"):
        server._write_manifest()
    server.journal.close()
    assert not list(server.spool.glob("*.tmp"))
    assert not list((server.spool / "results").glob("*.tmp"))
