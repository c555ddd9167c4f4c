"""Bench for the hot-path acceleration layer (PR 4).

Times a reduced microbench sweep with ``accel="off"`` then ``"on"`` on the
same configuration, asserts the bit-identity contract held and that the
accelerated pass won, and times the functional interpreter; a reduced
all-config sweep does the same for accel-off per-config jobs versus
accel-on ``Job.sweep`` jobs.  The full
39-kernel record lives in ``BENCH_5.json`` at the repo root (regenerated
by ``repro bench --batched --out BENCH_5.json``); this bench is the
fast, CI-friendly slice of the same harness.
"""

import json

from repro.accel.bench import (run_batched_bench, run_interp_bench,
                               run_suite_bench)
from repro.soc import ROCKET1

#: a cross-section of the suite: ALU loop, FP-heavy, L1-resident memory,
#: L2 streaming, and branchy control flow
KERNELS = ["EI", "EF", "MM", "ML2", "CCh"]


def test_hotpath_suite(benchmark, record):
    rec = benchmark.pedantic(
        lambda: run_suite_bench(ROCKET1, scale=0.5, kernels=KERNELS),
        rounds=1, iterations=1)
    assert rec["identical"], "accel=on diverged from the reference path"
    assert rec["kernels"] == len(KERNELS)
    assert rec["speedup"] > 1.0, (
        f"accelerated pass was not faster: {rec}")
    record("hotpath_suite", json.dumps(rec, indent=2))


def test_hotpath_sweep_jobs(benchmark, record):
    rec = benchmark.pedantic(
        lambda: run_batched_bench(kernels=KERNELS),
        rounds=1, iterations=1)
    assert rec["identical"], (
        "sweep jobs diverged from serial per-config jobs")
    assert rec["kernels"] == len(KERNELS)
    assert rec["speedup"] > 1.0, (
        f"accel-on sweep jobs were not faster than accel-off jobs: {rec}")
    record("hotpath_sweep_jobs", json.dumps(rec, indent=2))


def test_hotpath_interp(benchmark, record):
    rec = benchmark.pedantic(run_interp_bench, rounds=1, iterations=1)
    assert rec["instructions"] > 0
    # second execution of the same program decodes fully out of the cache
    assert rec["decode_hits"] == rec["decode_misses"] > 0
    record("hotpath_interp", json.dumps(rec, indent=2))
