"""Unit tests for the benchmark's own measurement code.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import itertools
import json
from pathlib import Path

import pytest

import harness
import plans
import run


# -- percentile rule -------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    xs = list(range(100))
    value, pct, n = harness.tail(reversed(xs))
    assert (value, pct, n) == (89, 90.0, 100)
    assert sum(1 for x in xs if x > value) == 10


def test_tail_uses_highest_qualifying_percentile():
    value, pct, n = harness.tail(range(25))
    assert value == 14 and pct == 60.0 and n == 25
    assert sum(1 for x in range(25) if x > value) == 10


def test_tail_never_below_median():
    assert harness.tail(range(20)) == (9.5, 50.0, 20)
    assert harness.tail([3.0]) == (3.0, 50.0, 1)
    value, pct, _ = harness.tail(range(21))
    assert (value, pct) == (10, 100.0 * 11 / 21)
    with pytest.raises(ValueError):
        harness.tail([])


# -- self-time arithmetic ----------------------------------------------------------


def _spans(*rows):
    return [harness.Span(name, start, end, parent=parent)
            for name, start, end, parent in rows]


def test_self_time_nested():
    spans = _spans(("root", 0.0, 10.0, None), ("a", 1.0, 4.0, 0),
                   ("b", 2.0, 3.0, 1), ("c", 5.0, 6.0, 0))
    assert harness.self_times(spans) == pytest.approx([8.0 - 2.0, 2.0, 1.0, 1.0])
    assert sum(harness.self_times(spans)) == pytest.approx(10.0)


def test_self_time_overlapping_children_count_once():
    spans = _spans(("root", 0.0, 10.0, None), ("a", 1.0, 5.0, 0),
                   ("b", 3.0, 8.0, 0), ("c", 4.0, 4.5, 0))
    assert harness.self_times(spans)[0] == pytest.approx(3.0)


def test_self_time_clips_children_to_parent():
    spans = _spans(("root", 0.0, 10.0, None), ("a", 8.0, 12.0, 0),
                   ("b", -1.0, 1.0, 0))
    assert harness.self_times(spans)[0] == pytest.approx(7.0)


def test_recorder_nests_and_inherits_job():
    ticks = itertools.count()
    rec = harness.SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("run"):
        with rec.span("bench.job", job="7"):
            with rec.span("core.inorder.run"):
                pass
    names = [(s.name, s.parent, s.job) for s in rec.spans]
    assert names == [("run", None, None), ("bench.job", 0, "7"),
                     ("core.inorder.run", 1, "7")]
    assert sum(harness.self_times(rec.spans)) == rec.spans[0].duration


def test_layer_of_prefers_longest_prefix():
    layers = ("farm", "farm.job", "core.inorder")
    assert harness.layer_of("farm.job.execute", layers) == "farm.job"
    assert harness.layer_of("farm.cache_get", layers) == "farm"
    assert harness.layer_of("core.inorder.run", layers) == "core.inorder"
    assert harness.layer_of("farmer", layers) is None


class _Owner:
    def method(self, x):
        return x + 1

    @classmethod
    def make(cls, x):
        return x * 2


def test_patched_wraps_and_restores():
    rec = harness.SpanRecorder()
    table = {"f": lambda x: [x] * x}
    orig_method, orig_make = _Owner.method, vars(_Owner)["make"]
    targets = [(_Owner, "method", "t.method", None),
               (_Owner, "make", "t.make", None),
               (table, "f", "t.f", lambda out: {"n": len(out)})]
    with harness.patched(rec, targets):
        assert _Owner().method(1) == 2
        assert _Owner.make(3) == 6
        assert table["f"](3) == [3, 3, 3]
    assert [s.name for s in rec.spans] == ["t.method", "t.make", "t.f"]
    assert rec.spans[2].counts == {"n": 3}
    assert _Owner.method is orig_method
    assert vars(_Owner)["make"] is orig_make


# -- calibration -------------------------------------------------------------------


def _fixed_clock(*durations):
    """A clock whose successive start/stop pairs span *durations*."""
    times = []
    t = 0.0
    for d in durations:
        times += [t, t + d]
        t += d + 1.0
    return iter(times).__next__


def test_calibration_scales_by_reference_over_measured():
    cal = harness.Calibrator(ref_s=0.01, iters=1,
                             clock=_fixed_clock(0.02, 0.02, 0.04))
    for _ in range(3):
        cal.sample()
    assert cal.samples == pytest.approx([0.02, 0.02, 0.04])
    assert cal.factor(cal.samples[:2]) == pytest.approx(0.5)  # slow host
    # mean of the per-sample factors 0.5 and 0.25
    assert 4.0 * cal.factor(cal.samples[1:]) == pytest.approx(1.5)
    assert cal.factor([0.005]) == pytest.approx(2.0)          # fast host
    assert cal.spent_s == pytest.approx(0.08)
    with pytest.raises(ValueError):
        cal.factor([])


def test_nearest_prefers_samples_inside_the_interval():
    times = [0.0, 1.0, 2.0, 2.5, 3.0, 9.0]
    assert sorted(harness.nearest(times, 1.5, 3.0, 2)) == [2, 3, 4]
    # fewer than k inside: the k nearest, inside ones first
    assert harness.nearest(times, 2.4, 2.6, 3) == [3, 2, 4]
    assert harness.nearest(times, 20.0, 21.0, 1) == [5]


def test_local_factor_uses_the_samples_nearest_the_interval():
    # samples start at 0, 1.02, 2.03 and 3.05 and take 0.02, 0.01, 0.02, 0.01
    cal = harness.Calibrator(ref_s=0.01, iters=1,
                             clock=_fixed_clock(0.02, 0.01, 0.02, 0.01))
    for _ in range(4):
        cal.sample()
    assert cal.local_factor(0.9, 1.1, 1) == pytest.approx(1.0)
    assert cal.local_factor(0.0, 2.5, 1) == pytest.approx(
        cal.factor(cal.samples[:3]))
    # *first* skips earlier samples: the nearest later one is at 2.03
    assert cal.local_factor(0.9, 1.1, 1, first=2) == pytest.approx(0.5)


# -- seeded workloads ----------------------------------------------------------------

PLANS = {
    "sweep": plans.sweep_plan,
    "apps": plans.apps_plan,
    "farm": plans.farm_plan,
    "serve": plans.serve_plan,
}


@pytest.mark.parametrize("workload", sorted(PLANS))
def test_plans_deterministic_per_seed(workload):
    make = PLANS[workload]
    assert make(5, 10.0) == make(5, 10.0)
    assert make(5, 10.0) != make(6, 10.0)


@pytest.mark.parametrize("workload", sorted(PLANS))
def test_plans_keep_the_mix_across_seeds(workload):
    """Seeds reorder and reseed; the kernel/app set stays the same."""
    def names(plan):
        if workload == "serve":
            return {p[1] for _, _, p in plan[0]}
        if workload == "farm":
            return {p[1] for p in plan[0] + plan[1]}
        return {p[:2] for p in plan}
    assert names(PLANS[workload](1, 10.0)) == names(PLANS[workload](2, 10.0))


def test_farm_second_batch_repeats_first():
    first, second = plans.farm_plan(3, 10.0)
    assert set(first) & set(second)
    assert set(second) - set(first)


def test_farm_plan_cycles_kernels_for_long_runs():
    first, second = plans.farm_plan(3, 30.0)
    jobs = first + second
    assert len(jobs) >= 6 * 30
    assert {p[1] for p in jobs} == set(plans.SHORT_KERNELS)


def test_serve_arrivals_are_ordered_and_mixed():
    arrivals, steps = plans.serve_plan(4, 9.0)
    dues = [a[0] for a in arrivals]
    assert dues == sorted(dues) and 0 < dues[0] and dues[-1] < 9.0
    assert {a[1] for a in arrivals} == {"a", "b"}
    points = [a[2] for a in arrivals]
    assert len(set(points)) < len(points)
    assert [s[0] for s in steps] == list(plans.SERVE_RATES)


@pytest.mark.parametrize("seed", range(6))
def test_serve_repeats_share_the_load_of_every_loaded_step(seed):
    """Store hits are spread over the schedule, so no upper step is left
    with (nearly) only fresh jobs."""
    arrivals, steps = plans.serve_plan(seed, 10.0)
    seen, hits = set(), [0] * len(steps)
    for due, _, point in arrivals:
        if point in seen:
            hits[next(i for i, (_, t0, t1) in enumerate(steps)
                      if t0 <= due < t1)] += 1
        seen.add(point)
    assert all(h >= 3 for h in hits[1:])


# -- digest ----------------------------------------------------------------------------


def test_digest_stable_under_dict_ordering():
    a = {"k1": {"cycles": 3, "stalls": {"x": 1, "y": 2}, "cpi": (1, 2)},
         "k2": {"seconds": 1.5e-6}}
    b = {"k2": {"seconds": 1.5e-6},
         "k1": {"cpi": [1, 2], "stalls": {"y": 2, "x": 1}, "cycles": 3}}
    assert harness.digest(a) == harness.digest(b)
    b["k1"]["stalls"]["x"] = 4
    assert harness.digest(a) != harness.digest(b)


# -- BENCHMARK.json agrees with the runner ------------------------------------------------


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
