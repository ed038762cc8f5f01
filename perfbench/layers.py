"""Per-layer metrics for the traced run.

The traced run installs the program's own :class:`repro.obs.Tracer`, whose
``daemon.batch``, ``service.batch``, ``nws.advance``, ``reserve.expand``,
``reserve.repair`` and ``sim.execute`` spans and ``service.reuse.*``
counters already exist.  The layers the program does not span yet are
wrapped here, from the benchmark's side: each public function is replaced
at the module attribute its callers read (``repro.service.core`` and
``repro.core.coordinator`` bind the sweep helpers at import time), and
class methods are replaced on their class.  :func:`traced` restores every
original on exit, so the program itself is never edited.

Timings are mean wall milliseconds per call of the wrapped function,
including its callees; counts are totals over the measured window;
``*_frac`` values are ratios of useful outcomes to attempts.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import time

import numpy as np

import repro.core.coordinator as coordinator_mod
import repro.jacobi.apples as apples_mod
import repro.service.core as service_core_mod
from repro.core.coordinator import AppLeSAgent
from repro.core.resources import ResourcePool
from repro.core.selector import ResourceSelector
from repro.core.sweep import BatchedObjective
from repro.jacobi.adaptive import AdaptiveJacobiRunner
from repro.jacobi.apples import JacobiPlanner
from repro.obs import Tracer, get_tracer, tracing
from repro.reserve.repair import RepairSweep
from repro.service import MicroBatcher, SchedulingService

from workloads import SHARD, percentile

#: Every per-layer metric, in report order, with its unit.
PER_LAYER_UNITS = {
    "loadgen.lag_p99_ms": "ms",
    "daemon.queue_wait_p50_ms": "ms",
    "daemon.queue_wait_p90_ms": "ms",
    "daemon.linger_ms": "ms",
    "daemon.resolve_p50_ms": "ms",
    "daemon.batch_size_mean": "count",
    "daemon.batches": "count",
    "daemon.shed": "count",
    "daemon.rejected": "count",
    "daemon.failed": "count",
    "service.decide_ms_per_req": "ms",
    "service.busy_frac": "fraction",
    "service.unique_frac": "fraction",
    "service.answer_hit_frac": "fraction",
    "service.staged_hit_frac": "fraction",
    "service.snapshot_hit_frac": "fraction",
    "service.decide_over_app": "ratio",
    "service.batch_vs_solo": "ratio",
    "service.batch_ms_per_dec": "ms",
    "service.solo_ms_per_dec": "ms",
    "selector.candidate_sets_ms": "ms",
    "selector.candidates_per_decision": "count",
    "apples.member_masks_ms": "ms",
    "apples.batch_inputs_ms": "ms",
    "apples.evaluate_strip_batch_ms": "ms",
    "apples.rows": "count",
    "apples.surrendered_frac": "fraction",
    "sweep.bounds_ms": "ms",
    "sweep.replay_ms": "ms",
    "sweep.materialise_ms": "ms",
    "sweep.objective_calls": "count",
    "sweep.pruned_frac": "fraction",
    "nws.advance_ms": "ms",
    "nws.advance_calls": "count",
    "nws.snapshot_ms": "ms",
    "coordinator.schedule_ms": "ms",
    "coordinator.vectorised_frac": "fraction",
    "coordinator.decide_over_app": "ratio",
    "reserve.repair_ms": "ms",
    "reserve.expand_ms": "ms",
    "reserve.expansions_per_booking": "count",
    "reserve.decisions_per_booking": "count",
    "reserve.restores": "count",
    "reserve.rebuilds": "count",
    "reserve.conflicts": "count",
    "sim.simulate_ms": "ms",
    "sim.iterations": "count",
    "sim.ms_per_iteration": "ms",
    "adaptive.repair_sweep_ms": "ms",
    "adaptive.reschedules": "count",
    "trace.overhead_frac": "fraction",
}


def _eval_attrs(args, result):
    rows = sum(len(ev.fallback) for ev in result)
    surrendered = sum(int(np.count_nonzero(ev.fallback)) for ev in result)
    return {"rows": rows, "surrendered": surrendered}


def _decide_attrs(args, result):
    service, requests = args[0], args[1]
    return {
        "service": id(service),
        "requests": len(requests),
        "instants": len({r.at for r in requests}),
        "predicted_sum": sum(a.predicted_time for a in result),
    }


# (owner, attribute, span name, attrs from (args, result)).  Module-level
# functions are wrapped in every module that binds them.
_SPANNED = [
    (service_core_mod, "member_masks_over", "apples.member_masks", None),
    (apples_mod, "member_masks_over", "apples.member_masks", None),
    (service_core_mod, "evaluate_strip_batch", "apples.evaluate_strip_batch", _eval_attrs),
    (apples_mod, "evaluate_strip_batch", "apples.evaluate_strip_batch", _eval_attrs),
    (JacobiPlanner, "batch_inputs", "apples.batch_inputs", None),
    (service_core_mod, "objective_bounds", "sweep.bounds", None),
    (coordinator_mod, "objective_bounds", "sweep.bounds", None),
    (service_core_mod, "replay_sweep", "sweep.replay",
     lambda a, r: {"candidates": len(r.pruned), "pruned": r.pruned_count}),
    (coordinator_mod, "replay_sweep", "sweep.replay",
     lambda a, r: {"candidates": len(r.pruned), "pruned": r.pruned_count}),
    (service_core_mod, "materialise_winner", "sweep.materialise", None),
    (coordinator_mod, "materialise_winner", "sweep.materialise", None),
    (ResourceSelector, "candidate_sets", "selector.candidate_sets",
     lambda a, r: {"sets": len(r)}),
    (ResourcePool, "snapshot", "nws.snapshot", None),
    (AppLeSAgent, "schedule", "coordinator.schedule",
     lambda a, r: {"vectorised": int(r.vectorised)}),
    (RepairSweep, "decide", "adaptive.repair_sweep", None),
    (AdaptiveJacobiRunner, "run", "adaptive.run",
     lambda a, r: {"total_time": r.total_time}),
    (SchedulingService, "decide", "service.decide", _decide_attrs),
]


def _spanned(fn, name, describe):
    layer = name.split(".", 1)[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = get_tracer()
        with tracer.span(name, layer=layer) as span:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            if tracer.enabled:
                span.attrs.update(wall0=start, wall1=time.perf_counter())
                if describe is not None:
                    span.attrs.update(describe(args, result))
        return result

    return wrapper


def _counted_objective(fn):
    @functools.wraps(fn)
    def wrapper(self, idx):
        get_tracer().metrics.counter("bench.sweep.objective_calls").inc()
        return fn(self, idx)

    return wrapper


def _summed_linger(fn):
    @functools.wraps(fn)
    def wrapper(self, queued, oldest_wait_s):
        budget = fn(self, queued, oldest_wait_s)
        if budget > 0:
            get_tracer().metrics.counter("bench.daemon.linger_s").inc(budget)
        return budget

    return wrapper


@contextlib.contextmanager
def traced():
    """Install a fresh tracer and every wrapper; restore all on exit."""
    patches = [
        (owner, attr, _spanned(getattr(owner, attr), name, describe))
        for owner, attr, name, describe in _SPANNED
    ]
    patches.append((BatchedObjective, "__call__",
                    _counted_objective(BatchedObjective.__call__)))
    patches.append((MicroBatcher, "wait_budget",
                    _summed_linger(MicroBatcher.wait_budget)))
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, wrapper in patches:
        setattr(owner, attr, wrapper)
    try:
        with tracing(tracer=Tracer()) as tracer:
            yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


# -- metric derivation -------------------------------------------------------------
class _Spans:
    def __init__(self, records) -> None:
        self.by_name: dict[str, list[dict]] = {}
        for r in records:
            if r["kind"] == "span":
                self.by_name.setdefault(r["name"], []).append(r)

    def get(self, name):
        return self.by_name.get(name, [])

    def mean_ms(self, name) -> float:
        spans = self.get(name)
        return 1e3 * sum(s["wall_s"] for s in spans) / len(spans) if spans else 0.0

    def total(self, name, key) -> float:
        return sum(s["attrs"].get(key, 0) for s in self.get(name))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _daemon_split(spans: _Spans, obs) -> dict:
    """Queue wait and resolve time per admitted decision ticket.

    The shard answers FIFO, so the daemon service's ``decide()`` calls of
    the open-loop phase see the admitted tickets in submission order: each
    call covers the next ``requests`` entries of ``obs.admitted``.
    """
    service = obs.daemon.shards[SHARD].service
    waits, resolves = [], []
    admitted = iter(obs.admitted)
    for call in spans.get("service.decide"):
        a = call["attrs"]
        if a["service"] != id(service) or a["wall0"] < obs.open_start:
            continue
        for submitted, resolved in itertools.islice(admitted, a["requests"]):
            waits.append((a["wall0"] - submitted) * 1e3)
            resolves.append((resolved - a["wall1"]) * 1e3)
    if not waits:
        return {}
    return {
        "daemon.queue_wait_p50_ms": percentile(waits, 0.5),
        "daemon.queue_wait_p90_ms": percentile(waits, 0.9),
        "daemon.resolve_p50_ms": percentile(resolves, 0.5),
    }


def layer_metrics(tracer: Tracer, obs, extra: dict) -> dict:
    """Every per-layer metric (0 where the layer did no work)."""
    spans = _Spans(tracer.records())
    counters = tracer.metrics.as_dict()

    def count(name) -> float:
        rec = counters.get(name)
        return float(rec.get("value") or 0.0) if rec else 0.0

    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    m.update(extra)
    if obs.lag_ms:
        m["loadgen.lag_p99_ms"] = percentile(obs.lag_ms, 0.99)

    if obs.daemon is not None:
        stats = obs.daemon.stats()[SHARD]
        m.update(_daemon_split(spans, obs))
        m["daemon.batches"] = stats["batches"]
        m["daemon.shed"] = stats["shed"]
        m["daemon.rejected"] = stats["rejected"]
        m["daemon.failed"] = stats["failed"]
        batch = counters.get("daemon.batch_size")
        if batch and batch["count"]:
            m["daemon.batch_size_mean"] = batch["total"] / batch["count"]
    m["daemon.linger_ms"] = 1e3 * count("bench.daemon.linger_s")

    decides = spans.get("service.decide")
    requests = spans.total("service.decide", "requests")
    decide_s = sum(s["wall_s"] for s in decides)
    computed = count("service.batched_configs") + count("service.scalar_configs")
    lookups = computed + count("service.reuse.answer_hits")
    m["service.decide_ms_per_req"] = 1e3 * _ratio(decide_s, requests)
    m["service.busy_frac"] = _ratio(decide_s, obs.window_s)
    m["service.unique_frac"] = _ratio(computed, requests)
    m["service.answer_hit_frac"] = _ratio(count("service.reuse.answer_hits"), lookups)
    m["service.staged_hit_frac"] = _ratio(count("service.reuse.staged_hits"), lookups)
    m["service.snapshot_hit_frac"] = _ratio(
        count("service.reuse.snapshot_hits"), spans.total("service.decide", "instants")
    )
    m["service.decide_over_app"] = _ratio(
        decide_s, spans.total("service.decide", "predicted_sum")
    )

    calls = len(spans.get("selector.candidate_sets"))
    m["selector.candidate_sets_ms"] = spans.mean_ms("selector.candidate_sets")
    m["selector.candidates_per_decision"] = _ratio(
        spans.total("selector.candidate_sets", "sets"), calls
    )

    m["apples.member_masks_ms"] = spans.mean_ms("apples.member_masks")
    m["apples.batch_inputs_ms"] = spans.mean_ms("apples.batch_inputs")
    m["apples.evaluate_strip_batch_ms"] = spans.mean_ms("apples.evaluate_strip_batch")
    rows = spans.total("apples.evaluate_strip_batch", "rows")
    m["apples.rows"] = _ratio(rows, len(spans.get("apples.evaluate_strip_batch")))
    m["apples.surrendered_frac"] = _ratio(
        spans.total("apples.evaluate_strip_batch", "surrendered"), rows
    )

    replays = len(spans.get("sweep.replay"))
    m["sweep.bounds_ms"] = spans.mean_ms("sweep.bounds")
    m["sweep.replay_ms"] = spans.mean_ms("sweep.replay")
    m["sweep.materialise_ms"] = spans.mean_ms("sweep.materialise")
    m["sweep.objective_calls"] = _ratio(count("bench.sweep.objective_calls"), replays)
    m["sweep.pruned_frac"] = _ratio(
        spans.total("sweep.replay", "pruned"), spans.total("sweep.replay", "candidates")
    )

    m["nws.advance_ms"] = spans.mean_ms("nws.advance")
    m["nws.advance_calls"] = len(spans.get("nws.advance"))
    m["nws.snapshot_ms"] = spans.mean_ms("nws.snapshot")

    schedules = spans.get("coordinator.schedule")
    m["coordinator.schedule_ms"] = spans.mean_ms("coordinator.schedule")
    m["coordinator.vectorised_frac"] = _ratio(
        spans.total("coordinator.schedule", "vectorised"), len(schedules)
    )
    app_time = spans.total("adaptive.run", "total_time")
    if app_time:
        # Blueprint schedules outside the repair sweep, plus the sweeps.
        sweep_ids = {s["id"] for s in spans.get("adaptive.repair_sweep")}
        deciding = sum(s["wall_s"] for s in schedules if s["parent"] not in sweep_ids)
        deciding += sum(s["wall_s"] for s in spans.get("adaptive.repair_sweep"))
        m["coordinator.decide_over_app"] = deciding / app_time

    repairs = len(spans.get("reserve.repair"))
    m["reserve.repair_ms"] = spans.mean_ms("reserve.repair")
    m["reserve.expand_ms"] = spans.mean_ms("reserve.expand")
    m["reserve.expansions_per_booking"] = _ratio(count("reserve.expansions"), repairs)
    m["reserve.decisions_per_booking"] = _ratio(count("reserve.decisions"), repairs)
    m["reserve.conflicts"] = count("reserve.conflict")
    if obs.daemon is not None:
        planner = obs.daemon.shards[SHARD].planner
        if planner is not None:
            m["reserve.restores"] = planner.expander.stats.restores
            m["reserve.rebuilds"] = planner.expander.stats.rebuilds

    iterations = count("sim.iterations")
    sim_s = sum(s["wall_s"] for s in spans.get("sim.execute"))
    m["sim.simulate_ms"] = spans.mean_ms("sim.execute")
    m["sim.iterations"] = iterations
    m["sim.ms_per_iteration"] = 1e3 * _ratio(sim_s, iterations)

    m["adaptive.repair_sweep_ms"] = spans.mean_ms("adaptive.repair_sweep")
    m["adaptive.reschedules"] = count("core.reschedules")
    return {k: float(v) for k, v in m.items()}
