"""The repository benchmark: seeded workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload decide-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the workload twice on fresh set-ups, untraced and then traced, reports
the per-layer metrics of the traced pass, the tracing overhead between the
two, and checks that both passes produced identical answers and bookings.
Either way every output is checked after the timed window (see
``checks.py``).  Progress goes to stderr; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Every run also
appends a record with its environment to ``perfbench/history/runs.jsonl``.

Exit codes: 0 correct, 1 an output check failed (the JSON is still
printed), 2 the program or ``BENCHMARK.json`` is missing (nothing printed).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

#: String hashing is salted per process, and the salt moves this program's
#: speed by up to ~20% at identical work (dict and set layouts); every run
#: uses one salt so that runs differ only by their seeded inputs.
HASH_SEED = "0"

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HISTORY = BENCH_DIR / "history"
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Requests re-answered by the batch-64 and solo arms (decide-cold, traced).
SOLO_VS_BATCH_REQUESTS = 128

E2E_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "decide_p50_ms": "ms",
    "decide_p90_ms": "ms",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


def _log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_units(trace: bool) -> dict[str, str]:
    """The metrics ``BENCHMARK.json`` declares for this mode, with units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(obs, setup_s: float) -> dict[str, float]:
    from workloads import percentile

    if not (obs.decide_ms and obs.op_ms and obs.units):
        raise RuntimeError("the measured window was too short to sample every metric")
    return {
        "setup_s": setup_s,
        "throughput_rps": obs.throughput,
        "decide_p50_ms": percentile(obs.decide_ms, 0.5),
        "decide_p90_ms": percentile(obs.decide_ms, 0.9),
        "op_p50_ms": percentile(obs.op_ms, 0.5),
        "op_p90_ms": percentile(obs.op_ms, 0.9),
        "ok_frac": (obs.attempted - obs.failed) / obs.attempted,
        "peak_rss_mb": obs.rss_mb,
    }


def output_checks(workload, obs) -> list[str]:
    import checks

    if workload.name == "adaptive-run":
        return checks.check_runs(obs.runs) + checks.check_runs_oracle(workload.seed)
    pairs = obs.saturated + obs.answered
    problems = checks.check_decisions(pairs)
    problems += checks.check_oracle(pairs, workload.seed)
    if workload.name == "reserve-mixed":
        problems += checks.check_ledger(obs.ledger, workload.bookings)
    return problems


def _outcomes(obs) -> dict[str, list]:
    """Answers, bookings and run results per phase, in order."""
    from checks import signature
    from workloads import request_key

    def decisions(pairs):
        return [(request_key(r), signature(a)) for r, a in pairs]

    bookings = obs.ledger.bookings if obs.ledger is not None else ()
    return {
        "open-loop decision": decisions(obs.answered),
        "saturated decision": decisions(obs.saturated),
        "booking": [
            (b.booking_id, b.start, b.end, b.machines, b.points, b.objective)
            for b in bookings
        ],
        "adaptive run": [(s, r.total_time, tuple(r.reschedules)) for s, r in obs.runs],
    }


def identity_problems(plain, traced) -> list[str]:
    """The traced pass must answer and book exactly as the untraced one,
    phase by phase, over the outcomes both passes reached."""
    a, b = _outcomes(plain), _outcomes(traced)
    problems = [
        f"traced {kind} {k} differs from untraced"
        for kind in a
        for k, (x, y) in enumerate(zip(a[kind], b[kind]))
        if x != y
    ]
    if not any(min(len(a[kind]), len(b[kind])) for kind in a):
        problems.append("traced and untraced passes share no outcomes")
    return problems[:5]


_IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import numpy, workloads; print(time.perf_counter() - t0)"
)


def _import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), str(BENCH_DIR)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def run_trace0(workload, import_s: float) -> tuple[dict, object, list[str]]:
    """Imports and set-up are each timed ``SETUP_REPEATS`` times (this
    process's own import plus fresh interpreters) and their medians summed."""
    imports = [import_s] + [_import_seconds() for _ in range(SETUP_REPEATS - 1)]
    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        t0 = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - t0)
    _log(f"imports {', '.join(f'{t:.3f}' for t in imports)} s; "
         f"set-up {', '.join(f'{t:.3f}' for t in setup_times)} s")
    gc.collect()  # the discarded set-ups, before the window starts
    obs = workload.measure(state, setup_times)
    _log(f"measured {obs.attempted} ops in {obs.window_s:.2f} s")
    setup_s = statistics.median(imports) + statistics.median(setup_times)
    return end_to_end(obs, setup_s), obs, []


def run_trace1(workload) -> tuple[dict, object, list[str]]:
    import layers
    from checks import signature
    from workloads import solo_vs_batch

    state = workload.setup()
    gc.collect()
    plain = workload.measure(state, [])
    _log(f"untraced pass: {plain.attempted} ops, {plain.throughput:.2f} units/s")
    state = workload.setup()
    gc.collect()  # the untraced pass's daemon and world
    workload.traced = True
    with layers.traced() as tracer:
        obs = workload.measure(state, [])
    _log(f"traced pass: {obs.attempted} ops, {obs.throughput:.2f} units/s")
    problems = identity_problems(plain, obs)
    extra = {"trace.overhead_frac": plain.throughput / obs.throughput - 1.0}
    if workload.name == "decide-cold":
        requests = [workload.saturated_request(j) for j in range(SOLO_VS_BATCH_REQUESTS)]
        arms = solo_vs_batch(requests)
        n = len(requests)
        extra["service.batch_ms_per_dec"] = 1e3 * arms["batch_s"] / n
        extra["service.solo_ms_per_dec"] = 1e3 * arms["solo_s"] / n
        extra["service.batch_vs_solo"] = arms["solo_s"] / arms["batch_s"]
        problems += [
            f"batch-64 answer {k} differs from solo schedule()"
            for k, (x, y) in enumerate(zip(arms["batched"], arms["solo"]))
            if signature(x) != signature(y)
        ][:5]
        _log(f"batch-64 vs solo over {n} requests: {extra['service.batch_vs_solo']:.3f}x")
    HISTORY.mkdir(exist_ok=True)
    tracer.export(HISTORY / f"trace-{workload.name}.jsonl")
    return layers.layer_metrics(tracer, obs, extra), obs, problems


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replace this process (no child to wait for) with a fixed salt.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        _log(f"no program under {ROOT / 'src'} or no BENCHMARK.json; nothing to measure")
        return 2
    declared = declared_units(bool(args.trace))

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import workloads
    import_s = time.perf_counter() - t0

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    _log(f"{workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        import layers

        units = layers.PER_LAYER_UNITS
        metrics, obs, problems = run_trace1(workload)
    else:
        units = E2E_UNITS
        metrics, obs, problems = run_trace0(workload, import_s)
    t0 = time.perf_counter()
    problems += output_checks(workload, obs)
    _log(f"output checks: {len(problems)} problem(s), {time.perf_counter() - t0:.1f} s")
    for problem in problems:
        _log(f"MISMATCH {problem}")

    if {k: units[k] for k in metrics} != declared:
        _log(f"printed metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}")
        return 2
    result = {
        "correct": not problems,
        "attempted": obs.attempted,
        "failed": obs.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params,
        "plan_digest": workload.digest(),
        "problems": problems,
        **result,
    }
    HISTORY.mkdir(exist_ok=True)
    with open(HISTORY / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, default=list) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
