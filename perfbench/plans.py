"""Seeded workload plans: which simulations each workload runs, in what
order, and (for ``serve``) when each is due.

Plans are plain tuples built only from ``(seed, seconds)``, so the same
arguments give the same inputs on every commit, and nothing here imports
the program.  A *point* is one simulation::

    ("kernel", kernel, scale, kernel_seed, config)
    ("npb", benchmark, npb_class, ranks, config)
    ("ume", mesh_n, ranks, config)
    ("lammps", benchmark, natoms, steps, ranks, config)

Every workload's kernel or application set is the same for every seed;
the seed picks kernel data seeds, order, repeats, tenants and arrival
jitter.  Keeping the mix fixed keeps run-to-run spread down, and it keeps
``model_error`` comparable across seeds.
"""

from __future__ import annotations

import random
from typing import Any

Point = tuple[Any, ...]

#: ``SoCConfig.name`` of every config, grouped by core type, with the
#: silicon reference each simulated config is compared against
INORDER_SIM = ("Rocket1", "Rocket2", "BananaPiSim", "FastBananaPiSim")
OOO_SIM = ("SmallBOOM", "MediumBOOM", "LargeBOOM", "MILKVSim")
INORDER_HW = "BananaPi-K1"
OOO_HW = "MILKV-SG2042"
ALL_CONFIG_NAMES = INORDER_SIM + OOO_SIM + (INORDER_HW, OOO_HW)
REFERENCE = {**{c: INORDER_HW for c in INORDER_SIM},
             **{c: OOO_HW for c in OOO_SIM}}

#: sweep kernels: every Table 1 category, none of the multi-second ones
SWEEP_KERNELS = ("Cca", "CF1", "CS1", "DPT", "DP1d", "ED1", "EM1", "MD",
                 "MI", "STL2b", "MM")
#: kernel scale per second of run: 0.2 at the default 10 s
SWEEP_SCALE_PER_S = 0.02

#: short in-order kernels for farm/serve, where per-job fixed cost dominates
SHORT_KERNELS = ("EI", "EM1", "CRd", "CF1", "DPT", "ED1", "CS1", "EF",
                 "CRf", "EM5", "CCl", "DPTd")
SHORT_SCALE = 0.1
SHORT_CONFIGS = INORDER_SIM + (INORDER_HW,)

APPS_CONFIGS = ("BananaPiSim", INORDER_HW)
APPS_RANKS = (1, 2, 4)
APPS_PASS_S = 10.0

#: farm jobs per second of run: 60 jobs, every short kernel, at 10 s (a
#: short job takes ~0.2 s of a 2-worker pool; the 10 s of work this gives
#: averages over more of the host's speed swings than half of it did)
FARM_JOBS_PER_S = 6.0

#: serve offered rates (jobs/s), one step each, lowest first.  A fresh
#: job holds a worker for 0.35-0.5 s, so two workers serve up to 4-5.7
#: fresh jobs/s; with a third of submissions store hits, the top step
#: loads them to about two thirds on a slow host.  A 4.5 jobs/s step
#: overloaded them there, and its backlog made the tail bimodal.
SERVE_RATES = (2.0, 3.0, 4.0)
#: share of serve submissions that repeat an earlier job
SERVE_REPEAT = 1 / 3
#: a serve repeat follows its original's due time by at least this much
REPEAT_AFTER_S = 2.0


def key(point: Point) -> str:
    return "/".join(str(x) for x in point)


def _kernel_group(rng: random.Random, kernel: str, scale: float,
                  configs: tuple[str, ...]) -> list[Point]:
    """One kernel on every config, with one data seed, in seeded order."""
    kseed = rng.randrange(1000)
    order = list(configs)
    rng.shuffle(order)
    return [("kernel", kernel, scale, kseed, cfg) for cfg in order]


def sweep_plan(seed: int, seconds: float) -> list[Point]:
    """Every sweep kernel x all 10 configs; a kernel's configs run back to
    back, as the fig1/fig2 drivers run them, so they share one trace."""
    rng = random.Random(f"sweep/{seed}")
    scale = round(SWEEP_SCALE_PER_S * seconds, 4)
    kernels = list(SWEEP_KERNELS)
    rng.shuffle(kernels)
    return [p for k in kernels
            for p in _kernel_group(rng, k, scale, ALL_CONFIG_NAMES)]


def apps_points() -> list[Point]:
    """NPB CG/EP/IS/MG, UME and LAMMPS lj + chain at 1/2/4 ranks on the
    K1 simulator and its silicon model."""
    out: list[Point] = []
    for cfg in APPS_CONFIGS:
        for ranks in APPS_RANKS:
            out += [("npb", b, "S", ranks, cfg) for b in ("CG", "EP", "IS", "MG")]
            out.append(("ume", 5, ranks, cfg))
            out.append(("lammps", "lj", 64, 2, ranks, cfg))
            out.append(("lammps", "chain", 512, 2, ranks, cfg))
    return out


def apps_plan(seed: int, seconds: float) -> list[Point]:
    """The app list once per 10 s of run, plus one seeded repeat of each
    app (its config and rank count picked by the seed, so the mix of app
    kinds stays the same), in seeded order."""
    rng = random.Random(f"apps/{seed}")
    base = apps_points()
    plan = base * max(1, round(seconds / APPS_PASS_S))
    kinds: dict[tuple, list[Point]] = {}
    for p in base:
        kinds.setdefault(p[:2], []).append(p)
    plan += [rng.choice(kinds[k]) for k in sorted(kinds)]
    rng.shuffle(plan)
    return plan


def _short_groups(rng: random.Random, n_jobs: int) -> list[list[Point]]:
    """About *n_jobs* jobs as whole kernel groups: always the first
    kernels of SHORT_KERNELS (cycling through them again, with new data
    seeds, when there are more groups than kernels), in seeded order
    with seeded data seeds."""
    groups = max(1, round(n_jobs / len(SHORT_CONFIGS)))
    kernels = [SHORT_KERNELS[i % len(SHORT_KERNELS)] for i in range(groups)]
    rng.shuffle(kernels)
    return [_kernel_group(rng, k, SHORT_SCALE, SHORT_CONFIGS)
            for k in kernels]


def farm_plan(seed: int, seconds: float) -> tuple[list[Point], list[Point]]:
    """Two RunFarm batches.  Batch 2 has new jobs plus as many seeded
    repeats of batch-1 jobs, so the result cache both writes and reads."""
    rng = random.Random(f"farm/{seed}")
    groups = _short_groups(rng, round(FARM_JOBS_PER_S * seconds))
    cut = max(1, (2 * len(groups)) // 3)
    first = [p for g in groups[:cut] for p in g]
    new = [p for g in groups[cut:] for p in g]
    second = new + rng.sample(first, min(len(first), max(1, len(new))))
    rng.shuffle(first)
    rng.shuffle(second)
    return first, second


def serve_plan(seed: int, seconds: float
               ) -> tuple[list[tuple[float, str, Point]],
                          list[tuple[float, float, float]]]:
    """Open-loop arrivals: ``([(due_s, tenant, point)], [(rate, t0, t1)])``.

    The run is split into one equal step per offered rate; arrivals in a
    step are evenly spaced with +-30% seeded jitter.  Two tenants share
    the stream; a third of submissions repeat a job due at least
    REPEAT_AFTER_S earlier, so the shared result store is read as well
    as written.
    """
    rng = random.Random(f"serve/{seed}")
    step_s = seconds / len(SERVE_RATES)
    steps = [(rate, i * step_s, (i + 1) * step_s)
             for i, rate in enumerate(SERVE_RATES)]
    dues = []
    for rate, t0, _ in steps:
        gap = 1.0 / rate
        dues += [t0 + (j + 0.5 + rng.uniform(-0.3, 0.3)) * gap
                 for j in range(round(rate * step_s))]
    fresh = [p for g in _short_groups(rng, len(dues) * (1 - SERVE_REPEAT))
             for p in g]
    fresh = fresh[:len(dues) - 1]
    # a repeat goes where an earlier job was due REPEAT_AFTER_S before, so
    # the original has finished and the repeat is a store hit every time
    # (one in each of n_repeat equal runs of such slots, so that every
    # step gets its share of cheap store hits and its share of load)
    late = [i for i, d in enumerate(dues) if d - dues[0] >= REPEAT_AFTER_S]
    n_repeat = len(dues) - len(fresh)
    if len(late) >= n_repeat:
        cut = [round(k * len(late) / n_repeat) for k in range(n_repeat + 1)]
        repeat_at = {rng.choice(late[a:b]) for a, b in zip(cut, cut[1:])}
    else:
        repeat_at = set(range(len(dues) - n_repeat, len(dues)))
    arrivals: list[tuple[float, str, Point]] = []
    for i, due in enumerate(dues):
        if i in repeat_at:
            done = [p for d, _, p in arrivals if d <= due - REPEAT_AFTER_S]
            point = rng.choice(done or [p for _, _, p in arrivals])
        else:
            point = fresh.pop(0)
        arrivals.append((due, rng.choice("ab"), point))
    return arrivals, steps
