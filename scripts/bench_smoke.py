#!/usr/bin/env python3
"""Bench smoke check (CI): guard the hot-path speedup trajectory.

Re-runs the tracked benchmark (the same harness behind ``repro bench
--batched``) and compares it against the committed baseline
``BENCH_5.json``:

1. the accelerated pass must stay **bit-identical** to the reference
   path on every kernel (cycles, stalls, instruction counts), and the
   accel-on ``Job.sweep`` pass must stay bit-identical to serial
   accel-off per-config jobs on every (kernel, config) point;
2. the suite off/on speedup and the ``--batched`` experiment's ratio
   (serial accel-off jobs over accel-on sweep jobs across all ten
   configs: an acceleration ratio, not a batching gain) — same-host
   ratios, so they are stable across CI runners — must not regress by
   more than 10% against the baseline.

Absolute wall-clock numbers are *not* compared: they measure the host,
not the code.  Exit code 0 on success; any check failure is a
regression.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.accel.bench import run_bench  # noqa: E402

BASELINE = ROOT / "BENCH_5.json"
#: allowed fractional regression of the speedup ratios vs the
#: committed baseline
TOLERANCE = 0.10


def _gate_speedup(name: str, run: float, base: float) -> bool:
    floor = base * (1.0 - TOLERANCE)
    if run < floor:
        print(f"FAIL: {name} speedup x{run} fell below x{floor:.2f} "
              f"(baseline x{base} - {TOLERANCE:.0%})")
        return False
    return True


def main() -> int:
    baseline = json.loads(BASELINE.read_text())

    record = run_bench(batched=True)  # same defaults as the baseline
    suite = record["suite"]
    bt = record["batched"]
    print(f"suite: baseline x{baseline['suite']['speedup']}, this run "
          f"x{suite['speedup']} ({suite['kernels']} kernels, "
          f"off {suite['off_seconds']}s, on {suite['on_seconds']}s)")
    print(f"batched: baseline x{baseline['batched']['speedup']}, this run "
          f"x{bt['speedup']} ({bt['kernels']} kernels x "
          f"{len(bt['configs'])} configs, serial {bt['serial_seconds']}s, "
          f"batched {bt['batched_seconds']}s)")

    if not suite["identical"]:
        print("FAIL: accel=on diverged from the reference path")
        return 1
    if not bt["identical"]:
        print("FAIL: sweep jobs diverged from serial per-config jobs")
        return 1
    if not _gate_speedup("suite", suite["speedup"],
                         baseline["suite"]["speedup"]):
        return 1
    if not _gate_speedup("batched", bt["speedup"],
                         baseline["batched"]["speedup"]):
        return 1

    interp = record["interp"]
    if not (interp["decode_hits"] == interp["decode_misses"] > 0):
        print(f"FAIL: decode cache not effective: {interp}")
        return 1

    print("bench smoke OK: bit-identical (suite + batched), "
          "speedups within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
