"""Solo-decision throughput: the batched decision core vs the reference loop.

The reference loop (``REPRO_NO_FASTPATH=1``) plans and estimates every
candidate one ``plan()`` call at a time — 4095 scalar plans for one
exhaustive 12-machine decision.  On the fast path, solo ``schedule()`` is
a batch of one through the scheduling service's core
(:mod:`repro.core.sweep`, ``AppLeSAgent.stage`` → one
``evaluate_strip_batch`` call → ``AppLeSAgent.conclude``): it stacks all
candidate sets into one membership-mask matrix, evaluates them in a single
kernel call, then replays the canonical incumbent/pruning order over the
precomputed objectives.

Two arms per pool, each a complete ``agent.schedule()``:

- ``reference``  — ``REPRO_NO_FASTPATH`` semantics (no snapshot, no
  pruning, no batching): the ground truth everything must match.
- ``vector``     — the fast path: snapshot, pruning and the batched core.

Pools: sdsc_pcl (8 hosts, 255 candidates), nile (12 hosts, 4095) and a
14-host synthetic metacomputer (16383) — all forced exhaustive, so the
sweep width doubles per extra host.  The vector arm asserts decision
equivalence against the reference: same resource set, allocations and
objective — the speedup is free only because it changes nothing.

The bench also times a small arena regret run
(:func:`repro.arena.run_regret_bench`), whose per-policy wall-clock
column rides the same batched solo path, and records it alongside.

Results go to ``benchmarks/results/solo_decision.txt`` and merge into
``benchmarks/results/perf_suite.json`` under ``solo_decision``.

Set ``SOLO_DECISION_QUICK=1`` (or ``PERF_SUITE_QUICK=1``) for the reduced
CI smoke run; only the full run asserts the >=9x vector-over-reference
target on the exhaustive 12-machine decision, where timing is stable.
"""

from __future__ import annotations

import os
import time

from repro.arena import run_regret_bench
from repro.core.selector import ResourceSelector
from repro.jacobi.apples import make_jacobi_agent
from repro.jacobi.grid import JacobiProblem
from repro.sim.testbeds import (
    nile_testbed,
    sdsc_pcl_testbed,
    synthetic_metacomputer,
)
from repro.sim.warmcache import clear_warm_cache, warmed_state
from repro.util import perf

QUICK = any(
    os.environ.get(var, "").strip().lower() in ("1", "true", "yes")
    for var in ("SOLO_DECISION_QUICK", "PERF_SUITE_QUICK")
)

SEED = 7
WARMUP_S = 600.0

# (label, builder, builder_kwargs, hosts) — all swept exhaustively.
POOLS = [
    ("sdsc_pcl", sdsc_pcl_testbed, {}, 8),
    ("nile", nile_testbed, {}, 12),
    ("synth14", synthetic_metacomputer, {"n_hosts": 14}, 14),
]

ARMS = ("reference", "vector")


def _problem() -> JacobiProblem:
    if QUICK:
        return JacobiProblem(n=600, iterations=20)
    return JacobiProblem(n=1000, iterations=50)


def _decide(builder, kwargs, hosts, problem, arm):
    """One timed solo decision: (decision, seconds).  Warm-up is setup."""
    testbed, nws = warmed_state(
        builder, seed=SEED, warmup_s=WARMUP_S, builder_kwargs=kwargs
    )
    selector = ResourceSelector(
        exhaustive_limit=max(12, hosts),
        max_sets=2**hosts - 1,
        regime="exhaustive",
    )
    with perf.fastpath(arm == "vector"):
        agent = make_jacobi_agent(testbed, problem, nws=nws, selector=selector)
        t0 = time.perf_counter()
        decision = agent.schedule()
        elapsed = time.perf_counter() - t0
    return decision, elapsed


def _signature(decision):
    """The observable outcome: objective, prediction, allocations."""
    return (
        decision.best_objective,
        decision.best.predicted_time,
        tuple((a.machine, a.work_units) for a in decision.best.allocations),
    )


def bench_solo_decision(report, merge_json):
    problem = _problem()
    repeats = 1 if QUICK else 3
    rows = []
    for label, builder, kwargs, hosts in POOLS:
        clear_warm_cache()
        timings: dict[str, float] = {}
        decisions: dict[str, object] = {}
        for arm in ARMS:
            # One untimed decision absorbs first-run effects (snapshot
            # allocation, import latencies); timed runs follow back-to-back.
            _decide(builder, kwargs, hosts, problem, arm)
            best = float("inf")
            for _ in range(repeats):
                dec, dt = _decide(builder, kwargs, hosts, problem, arm)
                best = min(best, dt)
                decisions[arm] = dec
            timings[arm] = best

        # Decision equivalence: the vector arm matches the reference
        # bit-for-bit, and only the vector arm took the batched core.
        assert _signature(decisions["vector"]) == _signature(
            decisions["reference"]
        ), label
        assert decisions["vector"].vectorised, label
        assert not decisions["reference"].vectorised, label

        rows.append(
            {
                "pool": label,
                "hosts": hosts,
                "candidates": decisions["vector"].candidates_considered,
                "reference_s": timings["reference"],
                "vector_s": timings["vector"],
                "reference_dps": 1.0 / timings["reference"],
                "vector_dps": 1.0 / timings["vector"],
                "vector_over_reference": timings["reference"] / timings["vector"],
                "pruned": decisions["vector"].pruning.pruned,
            }
        )

    # Arena regret wall-clock: the per-policy seconds column rides the
    # same batched solo path the rows above measure in isolation.
    if QUICK:
        _, _, arena = run_regret_bench(
            classes=("sdsc8",), per_class=2, seed=2024, sizes=(400,),
            iterations=10,
        )
    else:
        _, _, arena = run_regret_bench(
            classes=("sdsc8", "synth14"), per_class=3, seed=2024,
            sizes=(400, 700), iterations=20,
        )
    arena_seconds: dict[str, dict[str, float]] = {}
    for (klass, policy), elapsed in sorted(arena.seconds.items()):
        arena_seconds.setdefault(klass, {})[policy] = elapsed

    lines = [
        "Solo-decision throughput: batched decision core vs reference loop",
        f"(quick_mode={QUICK}, cpu_count={os.cpu_count()}, problem n={problem.n}"
        f" x {problem.iterations} iters, min of {repeats} runs,"
        " all pools exhaustive)",
        "",
        f"{'pool':<10}{'hosts':>6}{'cands':>7}{'ref/s':>8}"
        f"{'vector/s':>10}{'vec/ref':>10}{'pruned':>8}",
    ]
    for r in rows:
        lines.append(
            f"{r['pool']:<10}{r['hosts']:>6}{r['candidates']:>7}"
            f"{r['reference_dps']:>8.2f}{r['vector_dps']:>10.2f}"
            f"{r['vector_over_reference']:>9.2f}x{r['pruned']:>8}"
        )
    lines.append("")
    lines.append("arena regret wall-clock (s per policy over the class):")
    for klass in sorted(arena_seconds):
        for policy in sorted(arena_seconds[klass]):
            lines.append(
                f"  {klass:<8}{policy:<12}{arena_seconds[klass][policy]:.2f}"
            )
    data = {
        "quick_mode": QUICK,
        "cpu_count": os.cpu_count(),
        "problem": {"n": problem.n, "iterations": problem.iterations},
        "repeats": repeats,
        "pools": rows,
        "arena_seconds": arena_seconds,
    }
    report("solo_decision", "\n".join(lines), data)
    merge_json("perf_suite", {"solo_decision": data})

    # Smoke assertions hold in any mode.
    for r in rows:
        assert r["vector_s"] > 0 and r["reference_s"] > 0
    exhaustive_12 = next(r for r in rows if r["hosts"] == 12)
    assert exhaustive_12["candidates"] == 4095
    assert arena.seconds, "arena run should have recorded per-policy seconds"
    if not QUICK:
        # The headline acceptance target: the batched core is >=9x the
        # reference loop on exhaustive 12-machine decisions, measured in
        # the same run and only at full scale where timing is stable.
        assert exhaustive_12["vector_over_reference"] >= 9.0, exhaustive_12


if __name__ == "__main__":
    import sys

    if "--quick" in sys.argv[1:]:
        os.environ["SOLO_DECISION_QUICK"] = "1"
        QUICK = True

    from conftest import RESULTS_DIR, merge_json_results  # noqa: F401

    def _report(name, text, data=None):
        print(text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    bench_solo_decision(_report, merge_json_results)
