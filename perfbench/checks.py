"""Output checks, run outside the timed window.

Every answered decision is re-derived on a fresh spec-built world with
:meth:`SchedulingService.decide`; a seeded sample is also re-derived under
the ``REPRO_NO_FASTPATH`` reference; the reserve-mixed ledger must pass
:func:`verify_ledger`; every adaptive run must equal a rerun.  Each check
returns a list of mismatch descriptions (empty = correct).
"""

from __future__ import annotations

import math

from repro.reserve import verify_ledger
from repro.service import SchedulingService
from repro.util import perf
from repro.util.rng import spawn_rng

from workloads import WARMUP_S, RunSpec, shard_spec

#: How many answered decisions the reference re-derives.
ORACLE_SAMPLE = 2
#: The reference path plans every candidate set (4095 on nile without a
#: machine cap, seconds per decision), so the sample is drawn from the
#: earliest answers with a cap of at most :data:`ORACLE_MAX_CAP` machines:
#: the fresh reference world advances little and each decision plans at
#: most 298 sets.
ORACLE_HORIZON = 16
ORACLE_MAX_CAP = 3
#: The reference path also swaps the NWS forecasters for their reference
#: implementations, which the program keeps equal to the fast ones only
#: to this relative tolerance (its own forecaster tests use the same), so
#: reference objectives may differ from fast ones in the last digits.
REFERENCE_REL_TOL = 1e-9


def answer_fields(answer) -> tuple:
    """The decision itself: objective, predicted time and allocations."""
    return (
        answer.best_objective,
        answer.predicted_time,
        tuple((a.machine, a.work_units) for a in answer.best.allocations),
    )


def signature(answer) -> tuple:
    """:func:`answer_fields` plus the candidate-search statistics."""
    return answer_fields(answer) + (answer.pruning,)


def check_decisions(pairs) -> list[str]:
    """Re-derive every answered decision on one fresh world."""
    if not pairs:
        return []
    testbed, nws = shard_spec().build()
    reference = SchedulingService(testbed, nws).decide([r for r, _ in pairs])
    return [
        f"decision {k} at t={request.at}: {signature(got)} != {signature(ref)}"
        for k, ((request, got), ref) in enumerate(zip(pairs, reference))
        if signature(got) != signature(ref)
    ][:5]


def _same_decision(got: tuple, ref: tuple) -> bool:
    """Equal allocations; objective and predicted time within
    :data:`REFERENCE_REL_TOL`."""
    return got[2] == ref[2] and all(
        math.isclose(a, b, rel_tol=REFERENCE_REL_TOL, abs_tol=0.0)
        for a, b in zip(got[:2], ref[:2])
    )


def check_oracle(pairs, seed: int) -> list[str]:
    """A seeded sample against the reference (fast paths off) answers.

    Pruning statistics differ by design on the reference path (it prunes
    nothing), so only the decision itself is compared: the allocations
    exactly, the floats to :data:`REFERENCE_REL_TOL`.
    """
    if not pairs:
        return []
    capped = [
        p for p in pairs[:ORACLE_HORIZON]
        if (p[0].userspec.max_machines or ORACLE_MAX_CAP + 1) <= ORACLE_MAX_CAP
    ]
    if not capped:
        return ["no decision with a small machine cap among the earliest answers"]
    rng = spawn_rng(seed, "oracle-sample")
    picks = rng.choice(len(capped), size=min(ORACLE_SAMPLE, len(capped)), replace=False)
    sample = [capped[int(i)] for i in sorted(picks)]
    with perf.fastpath(False):
        testbed, nws = shard_spec().build()
        reference = SchedulingService(testbed, nws).decide([r for r, _ in sample])
    return [
        f"reference decision at t={request.at}: {answer_fields(got)} != {answer_fields(ref)}"
        for (request, got), ref in zip(sample, reference)
        if not _same_decision(answer_fields(got), answer_fields(ref))
    ]


def check_ledger(ledger, requests) -> list[str]:
    if ledger is None:
        return ["no reservation ledger"]
    return [f"ledger: {p}" for p in verify_ledger(ledger, requests)][:5]


def _adaptive_outcome(spec: RunSpec):
    result = spec.runner(*spec.build()).run(t0=WARMUP_S)
    return result.total_time, tuple(result.reschedules)


def check_runs(runs) -> list[str]:
    """Every adaptive run must equal a rerun on a freshly built world."""
    return [
        f"adaptive run {spec}: rerun differs"
        for spec, result in runs
        if _adaptive_outcome(spec) != (result.total_time, tuple(result.reschedules))
    ][:5]


def check_runs_oracle(seed: int) -> list[str]:
    """One small seeded run must match the reference path exactly."""
    rng = spawn_rng(seed, "oracle-run")
    spec = RunSpec("sdsc_pcl", int(rng.integers(0, 10_000)), 400, 20, 10)
    fast = _adaptive_outcome(spec)
    with perf.fastpath(False):
        reference = _adaptive_outcome(spec)
    return [] if fast == reference else [f"reference adaptive run {spec} differs"]
