"""Scheduling-service throughput: batched decisions/sec vs solo agents.

Many applications sharing one metacomputer ask for decisions at the same
instants (the paper's §3 contention setting).  The
:class:`repro.service.SchedulingService` answers a whole batch through one
vectorised evaluation core; this benchmark measures what that batching
buys over the per-call baseline — a plain loop of
``AppLeSAgent.schedule()`` — on the 12-machine nile pool, where every
request faces 4095 candidate resource sets.

Both arms run with the fast path enabled, so the ratio isolates the
*batching* gain (shared snapshot, shared membership matrices, one kernel
invocation for every candidate of every request), not the fast path
itself (benchmarked in ``bench_scheduling_scaling``).  Every timed batch
is also checked answer-for-answer against the sequential loop — the
throughput is only real because it changes nothing.

Results go to ``benchmarks/results/service_throughput.txt`` and are merged
into ``benchmarks/results/perf_suite.json`` under ``service_throughput``.

Set ``SERVICE_THROUGHPUT_QUICK=1`` (or ``PERF_SUITE_QUICK=1``) for the
reduced CI smoke run; only the full run asserts the >=3x batched-vs-solo
target at batch >= 32.
"""

from __future__ import annotations

import os
import time

from repro.core.userspec import UserSpecification
from repro.jacobi.apples import make_jacobi_agent
from repro.jacobi.grid import JacobiProblem
from repro.service import DecisionRequest, SchedulingService
from repro.sim.testbeds import nile_testbed
from repro.sim.warmcache import clear_warm_cache, warmed_state
from repro.util import perf

QUICK = any(
    os.environ.get(var, "").strip().lower() in ("1", "true", "yes")
    for var in ("SERVICE_THROUGHPUT_QUICK", "PERF_SUITE_QUICK")
)

SEED = 7
WARMUP_S = 600.0
AT = WARMUP_S  # decision instant == warmed NWS time
BATCHES = (1, 8) if QUICK else (1, 8, 32, 64)
REPEATS = 2 if QUICK else 3


def _requests(batch: int) -> list[DecisionRequest]:
    """``batch`` distinct configurations (no duplicates: the service's
    config dedup must not flatter the measured throughput)."""
    reqs = []
    for k in range(batch):
        userspec = (
            UserSpecification(max_machines=6) if k % 3 == 2 else UserSpecification()
        )
        reqs.append(
            DecisionRequest(
                problem=JacobiProblem(n=600 + 100 * (k % 3), iterations=30 + k),
                userspec=userspec,
                account_memory=(k % 5 != 2),
                at=AT,
            )
        )
    return reqs


def _world():
    return warmed_state(nile_testbed, seed=SEED, warmup_s=WARMUP_S)


def _service_run(requests):
    """One timed service batch: (answers, seconds). Setup untimed."""
    testbed, nws = _world()
    with perf.fastpath(True):
        service = SchedulingService(testbed, nws)
        t0 = time.perf_counter()
        answers = service.decide(requests)
        elapsed = time.perf_counter() - t0
    return answers, elapsed


def _sequential_run(requests):
    """The baseline: a per-call loop of solo ``schedule()`` decisions."""
    testbed, nws = _world()
    with perf.fastpath(True):
        t0 = time.perf_counter()
        decisions = []
        for r in requests:
            agent = make_jacobi_agent(
                testbed, r.problem, nws,
                userspec=r.userspec, account_memory=r.account_memory,
            )
            decisions.append(agent.schedule())
        elapsed = time.perf_counter() - t0
    return decisions, elapsed


def _signature(best, objective):
    return (
        objective,
        best.predicted_time,
        tuple((a.machine, a.work_units) for a in best.allocations),
    )


def bench_service_throughput(report, merge_json):
    clear_warm_cache()
    _world()  # prime the warm cache outside any timing
    rows = []
    for batch in BATCHES:
        requests = _requests(batch)
        service_best = sequential_best = float("inf")
        answers = decisions = None
        _service_run(requests)  # absorb first-run effects per arm
        for _ in range(REPEATS):
            answers, dt = _service_run(requests)
            service_best = min(service_best, dt)
        _sequential_run(requests)
        for _ in range(REPEATS):
            decisions, dt = _sequential_run(requests)
            sequential_best = min(sequential_best, dt)

        # Answer equivalence: batched throughput changes nothing observable.
        assert len(answers) == len(decisions) == batch
        for answer, decision in zip(answers, decisions):
            assert _signature(answer.best, answer.best_objective) == _signature(
                decision.best, decision.best_objective
            ), batch

        rows.append(
            {
                "batch": batch,
                "service_s": service_best,
                "sequential_s": sequential_best,
                "service_dps": batch / service_best,
                "sequential_dps": batch / sequential_best,
                "speedup": sequential_best / service_best,
            }
        )

    lines = [
        "Scheduling-service throughput — nile pool (12 hosts, 4095 candidates/request)",
        f"(quick_mode={QUICK}, cpu_count={os.cpu_count()}, best of {REPEATS} runs,"
        " both arms on the fast path)",
        "",
        f"{'batch':>6}{'service (s)':>13}{'solo loop (s)':>15}"
        f"{'service dec/s':>15}{'solo dec/s':>12}{'speedup':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r['batch']:>6}{r['service_s']:>13.3f}{r['sequential_s']:>15.3f}"
            f"{r['service_dps']:>15.1f}{r['sequential_dps']:>12.1f}"
            f"{r['speedup']:>8.2f}x"
        )
    data = {
        "quick_mode": QUICK,
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "batches": rows,
    }
    report("service_throughput", "\n".join(lines), data)
    merge_json("perf_suite", {"service_throughput": data})

    for r in rows:
        assert r["service_s"] > 0 and r["sequential_s"] > 0
    if not QUICK:
        # The acceptance target: >=3x decisions/sec at batch >= 32 on the
        # 12-machine pool, vs the per-call sequential loop.
        for r in rows:
            if r["batch"] >= 32:
                assert r["speedup"] >= 3.0, r


if __name__ == "__main__":
    import sys

    if "--quick" in sys.argv[1:]:
        os.environ["SERVICE_THROUGHPUT_QUICK"] = "1"
        QUICK = True
        BATCHES = (1, 8)
        REPEATS = 2

    from conftest import RESULTS_DIR, merge_json_results  # noqa: F401

    def _report(name, text, data=None):
        print(text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    bench_service_throughput(_report, merge_json_results)
