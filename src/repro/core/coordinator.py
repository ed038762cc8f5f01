"""The Coordinator — the single active agent of an AppLeS (§4.1–4.2).

The Coordinator runs the scheduling *blueprint* the paper gives for the
Jacobi2D prototype (§5):

1. Select candidate resource sets ``S_i`` (Resource Selector).
2. For each ``S_i``: plan a schedule (Planner) and estimate its cost
   (Performance Estimator).
3. Choose the resource set and schedule with the best predicted value of
   the user's performance metric.
4. Actuate the selected schedule (Actuator).

Everything the Coordinator knows comes from the shared Information Pool.

Fast path (:mod:`repro.util.perf`, off under ``REPRO_NO_FASTPATH=1``): the
Coordinator brackets steps 2–3 with
:meth:`~repro.core.infopool.InformationPool.decision_scope` — one forecast
snapshot shared by every evaluation — and, when the Planner/Estimator pair
exposes admissible lower bounds, skips candidate sets whose bound cannot
beat the incumbent.  Bounds are *admissible* (never above the true
objective) and pruning only fires when the bound exceeds the incumbent by
a relative epsilon, so the chosen schedule is bit-identical to the
reference exhaustive loop; pruned rows stay in ``evaluations`` (objective
``inf``) and the counts are reported in :class:`PruningStats`.

Batched decision core: when the Planner opts in through
``batch_planner(info)`` (the strip planner's ``batch_inputs`` /
``lower_bounds`` surface) and the Estimator exposes
``objective_from_prediction``, a decision runs in three steps.
:meth:`AppLeSAgent.stage` stacks every candidate set into one
membership-mask matrix and takes the bounds and rank-space batch inputs;
:func:`~repro.jacobi.apples.evaluate_strip_batch` evaluates the staged
jobs; :meth:`AppLeSAgent.conclude` replays the incumbent/pruning order
over one job's objectives with the canonical
:func:`~repro.core.sweep.replay_sweep` and materialises the winner.  Solo
``schedule()`` is a batch of one through these steps; the scheduling
service (:mod:`repro.service.core`) stages many configurations and
evaluates them in one call.  The batched kernels replicate the scalar
planner's float semantics operation-for-operation and surrender any row
they cannot certify back to the scalar planner, and the winner is
materialised by the scalar planner and cross-checked — so
:class:`ScheduleDecision`, :class:`PruningStats`, and the obs event stream
are bit-identical to the reference loop.  Configurations with no batch
planner (several active decomposition families, the blocked family
alone, or the nile, react and montecarlo planners) take the bounded
scalar loop instead.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.core.actuator import Actuator, RecordingActuator
from repro.core.estimator import PerformanceEstimator, make_estimator
from repro.core.infopool import InformationPool
from repro.core.planner import Planner
from repro.core.schedule import Schedule
from repro.core.selector import ResourceSelector
from repro.core.sweep import (
    BatchedObjective,
    PruningStats,
    SweepResult,
    materialise_winner,
    objective_bounds,
    replay_sweep,
)
from repro.obs.trace import get_tracer
from repro.util import perf

__all__ = [
    "AppLeSAgent",
    "ScheduleDecision",
    "CandidateEvaluation",
    "PruningStats",
    "StagedDecision",
    "record_pruning_stats",
]


def record_pruning_stats(metrics: Any, stats: "PruningStats") -> None:
    """Persist one decision's :class:`PruningStats` into a metrics registry.

    The counters feed the ROADMAP "selector learning" direction: candidate
    generators need the pruned/planned history that used to vanish after
    ``ScheduleDecision.explain()``.  Called by the Coordinator and by the
    scheduling service's sweep replay, so solo and batched decisions land
    in the same instruments.
    """
    metrics.counter("core.decisions").inc()
    metrics.counter("core.candidates").inc(stats.candidates)
    metrics.counter("core.planned").inc(stats.planned)
    metrics.counter("core.pruned").inc(stats.pruned)
    if stats.bounded:
        metrics.histogram("core.pruned_fraction").observe(stats.pruned_fraction)


@dataclass(frozen=True)
class CandidateEvaluation:
    """One (resource set, schedule, objective) row from the blueprint loop.

    ``pruned`` rows were skipped by the fast path's admissible lower bound
    (``lower_bound`` > incumbent objective); their schedule is None and the
    objective ``inf``, mirroring an infeasible row for ranking purposes.

    The batched decision core scores most candidates straight from the
    batched prediction without materialising their Schedules, so a
    feasible row may carry ``schedule=None`` with a finite objective (the
    winner's Schedule is always materialised).
    """

    resource_set: tuple[str, ...]
    schedule: Schedule | None
    objective: float
    pruned: bool = False
    lower_bound: float | None = None

    @property
    def feasible(self) -> bool:
        """Whether the Planner could produce a schedule for this set."""
        return self.schedule is not None or self.objective < float("inf")


@dataclass
class ScheduleDecision:
    """The Coordinator's outcome.

    Attributes
    ----------
    best:
        The chosen schedule.
    best_objective:
        Its objective value (lower is better).
    evaluations:
        Every candidate considered, in evaluation order — the paper's
        "consider more options ... at machine speeds" made observable.
        Pruned candidates appear with ``pruned=True``.
    metric:
        Name of the user's performance metric.
    pruning:
        Candidate-search statistics (None when produced by code predating
        the fast path).
    vectorised:
        Whether the batched decision core answered this decision (False
        on the reference path and for configurations with no batch
        planner).
    """

    best: Schedule
    best_objective: float
    evaluations: list[CandidateEvaluation] = field(default_factory=list)
    metric: str = "execution_time"
    pruning: PruningStats | None = None
    vectorised: bool = False

    @property
    def candidates_considered(self) -> int:
        """Number of resource sets considered (planned + pruned)."""
        return len(self.evaluations)

    @property
    def candidates_feasible(self) -> int:
        """Number that produced a feasible schedule."""
        return sum(1 for e in self.evaluations if e.feasible)

    def ranked(self, top: int = 5) -> list[CandidateEvaluation]:
        """The best ``top`` feasible candidates, best first."""
        feasible = [e for e in self.evaluations if e.feasible]
        feasible.sort(key=lambda e: e.objective)
        return feasible[: max(0, top)]

    def explain(self, top: int = 5) -> str:
        """Human-readable account of the decision.

        Shows the winning schedule and the runners-up with their predicted
        objectives — the paper's "consider more options ... at machine
        speeds" made inspectable, so a user can see *why* the agent chose
        what it chose.
        """
        lines = [
            f"Considered {self.candidates_considered} candidate resource sets "
            f"({self.candidates_feasible} feasible) under metric "
            f"{self.metric!r}.",
        ]
        if self.pruning is not None and self.pruning.bounded:
            lines.append(
                f"Search pruning: {self.pruning.planned} planned, "
                f"{self.pruning.pruned} pruned by lower bound "
                f"({self.pruning.pruned_fraction:.0%} of the candidate space)."
            )
        lines += [
            "",
            "Chosen schedule:",
            self.best.describe(),
            "",
            f"Top {top} candidates by predicted objective:",
        ]
        for rank, ev in enumerate(self.ranked(top), start=1):
            marker = " <- chosen" if ev.schedule is self.best else ""
            lines.append(
                f"  {rank}. objective={ev.objective:.6g}  "
                f"machines={','.join(ev.resource_set)}{marker}"
            )
        return "\n".join(lines)


class StagedDecision(NamedTuple):
    """A batchable decision after :meth:`AppLeSAgent.stage`.

    Pure functions of the candidate sets and the decision's forecast
    snapshot, so the scheduling service keeps them across calls at one
    pool state.
    """

    candidate_sets: list[tuple[str, ...]]
    bounds: list[float] | None
    inputs: Any  # repro.jacobi.apples.StripBatchInputs
    masks: np.ndarray  # (m, n) membership in the inputs' locality-rank order

    @property
    def job(self) -> tuple[Any, np.ndarray]:
        """This decision's entry for ``evaluate_strip_batch``."""
        return self.inputs, self.masks


class AppLeSAgent:
    """An application-level scheduling agent.

    Parameters
    ----------
    info:
        The Information Pool (resources + NWS + HAT + US + models).
    planner:
        The application's Planner.
    selector:
        Resource Selector (defaults to exhaustive-up-to-12 enumeration).
    estimator:
        Performance Estimator; by default built from the User
        Specification's ``performance_metric``.
    actuator:
        Actuator; defaults to a :class:`~repro.core.actuator.RecordingActuator`.
    """

    def __init__(
        self,
        info: InformationPool,
        planner: Planner,
        selector: ResourceSelector | None = None,
        estimator: PerformanceEstimator | None = None,
        actuator: Actuator | None = None,
    ) -> None:
        self.info = info
        self.planner = planner
        self.selector = selector if selector is not None else ResourceSelector()
        if estimator is None:
            estimator = make_estimator(info.userspec.performance_metric)
        self.estimator = estimator
        self.actuator = actuator if actuator is not None else RecordingActuator()
        self._fast = perf.fastpath_enabled()

    def candidate_sets(self) -> list[tuple[str, ...]]:
        """Blueprint step 1: the Resource Selector's candidate sets.

        Raises ``RuntimeError`` when there are none (e.g. the User
        Specification filtered everything out).
        """
        candidate_sets = self.selector.candidate_sets(self.info)
        if not candidate_sets:
            raise RuntimeError(
                "Resource Selector produced no candidate sets "
                "(User Specification too restrictive?)"
            )
        return candidate_sets

    def batch_planner(self) -> Any | None:
        """The planner that stages this agent's decisions, or ``None``.

        Needs the fast path, an Estimator with ``objective_from_prediction``
        and a Planner that opts in through ``batch_planner(info)`` —
        returning an object with the ``batch_inputs``/``lower_bounds``
        batching surface (usually itself; dispatchers return their single
        active family, or ``None``).  Every other configuration decides
        through the bounded scalar loop.  This is the one answer to "which
        configurations vectorise", for solo and service decisions alike.
        """
        hook = getattr(self.planner, "batch_planner", None)
        if (
            not self._fast
            or hook is None
            or not hasattr(self.estimator, "objective_from_prediction")
        ):
            return None
        return hook(self.info)

    @contextmanager
    def decision_scope(self, snapshot: Any | None = None, reuse: Any | None = None):
        """One decision: the Information Pool's decision scope plus the
        Planner's optional ``begin_decision``/``end_decision`` hooks.

        :meth:`stage` and :meth:`conclude` run inside it.  ``snapshot``
        and ``reuse`` are passed to
        :meth:`~repro.core.infopool.InformationPool.decision_scope`.
        """
        begin = getattr(self.planner, "begin_decision", None)
        end = getattr(self.planner, "end_decision", None)
        with self.info.decision_scope(snapshot, reuse=reuse) as cache:
            if begin is not None:
                begin(self.info)
            try:
                yield cache
            finally:
                if end is not None:
                    end(self.info)

    def schedule(self, snapshot: Any | None = None) -> ScheduleDecision:
        """Run blueprint steps 1–3: select, plan, estimate, choose.

        On the fast path a batchable configuration is a batch of one:
        :meth:`stage`, one single-job ``evaluate_strip_batch`` call, then
        :meth:`conclude` — the scheduling service's core with one request.

        Raises ``RuntimeError`` when no candidate resource set yields a
        feasible schedule (e.g. the User Specification filtered everything
        out).

        Parameters
        ----------
        snapshot:
            Optional pre-taken :class:`~repro.nws.snapshot.ForecastSnapshot`
            for the decision scope — the scheduling service passes one
            snapshot to every agent of a batch so forecast queries are
            shared.  Snapshots are pure caches, so the decision is
            bit-identical to taking a fresh one.  Ignored on the reference
            path, which re-queries the pool per candidate by design.
        """
        candidate_sets = self.candidate_sets()
        if not self._fast:
            return self._schedule_loop(candidate_sets, None)
        with self.decision_scope(snapshot):
            staged = self.stage(candidate_sets)
            if staged is None:
                bounds = objective_bounds(self, self.planner, candidate_sets)
                return self._schedule_loop(candidate_sets, bounds)
            # Deferred import: repro.jacobi builds on repro.core.
            from repro.jacobi.apples import evaluate_strip_batch

            (ev,) = evaluate_strip_batch([staged.job])
            return self._traced(
                candidate_sets,
                staged.bounds,
                lambda on_incumbent: self.conclude(
                    staged, ev, on_incumbent, rows=True
                ),
            )

    def stage(self, candidate_sets: list[tuple[str, ...]]) -> StagedDecision | None:
        """Stage a batchable decision, or return ``None`` without a batch planner.

        Runs inside a :meth:`decision_scope`.  One membership matrix
        (pool-name order) serves the admissible bounds and, permuted to
        the batch inputs' locality-rank order, the batched evaluator.
        """
        planner = self.batch_planner()
        if planner is None:
            return None
        # Deferred import: repro.jacobi builds on repro.core.
        from repro.jacobi.apples import member_masks_over

        names = self.info.pool.machine_names()
        name_masks = member_masks_over(candidate_sets, names)
        bounds = objective_bounds(
            self, planner, candidate_sets, member_mask=name_masks
        )
        inputs = planner.batch_inputs(self.info)
        name_index = {m: k for k, m in enumerate(names)}
        perm = np.array([name_index[m] for m in inputs.rank_names])
        return StagedDecision(candidate_sets, bounds, inputs, name_masks[:, perm])

    def conclude(
        self,
        staged: StagedDecision,
        ev: Any,
        on_incumbent: Callable[[int, float, bool], None] | None = None,
        rows: bool = False,
    ) -> ScheduleDecision:
        """Choose the winner from one ``evaluate_strip_batch`` row ``ev``.

        Runs inside the :meth:`decision_scope` of the decision.  A
        :class:`BatchedObjective` scores each candidate from ``ev``
        (planning surrendered rows with the scalar planner),
        :func:`replay_sweep` reproduces the seed/incumbent/pruning order
        (``on_incumbent`` sees every improvement), and
        :func:`materialise_winner` plans and cross-checks the winner.
        ``rows=True`` also builds the per-candidate ``evaluations``, which
        solo ``schedule()`` reports and the scheduling service does not.
        """
        csets = staged.candidate_sets
        bounds = staged.bounds
        objective = BatchedObjective(self, csets, staged.inputs, ev)
        result = replay_sweep(len(csets), bounds, objective, on_incumbent)
        best = materialise_winner(self, csets, result)
        evaluations = []
        if rows:
            schedules = {**objective.schedules, result.best_idx: best}
            evaluations = self._rows(csets, bounds, result, schedules, objective.memo)
        return ScheduleDecision(
            best=best,
            best_objective=result.best_objective,
            evaluations=evaluations,
            metric=self.info.userspec.performance_metric,
            pruning=result.stats(bounds is not None),
            vectorised=True,
        )

    def _schedule_loop(
        self,
        candidate_sets: list[tuple[str, ...]],
        bounds: Sequence[float] | None,
    ) -> ScheduleDecision:
        """One plan+estimate per unpruned candidate: the reference loop
        (``bounds=None``) and the fast path for unbatchable configurations."""
        return self._traced(
            candidate_sets,
            bounds,
            lambda on_incumbent: self._candidate_sweep(
                candidate_sets, bounds, on_incumbent
            ),
        )

    def _traced(
        self,
        candidate_sets: list[tuple[str, ...]],
        bounds: Sequence[float] | None,
        sweep: Callable[[Any], ScheduleDecision],
    ) -> ScheduleDecision:
        """Run ``sweep(on_incumbent)`` inside the ``core.decision`` span."""
        # Observability (repro.obs): the span/metric calls below only read
        # decision state, never influence it — tracing on/off is
        # bit-identical.  When tracing is off they hit the no-op tracer.
        tracer = get_tracer()
        traced = tracer.enabled
        nws = self.info.pool.nws
        t_dec = float(nws.now) if nws is not None else None
        with tracer.span(
            "core.decision",
            layer="core",
            t=t_dec,
            metric=self.info.userspec.performance_metric,
            candidates=len(candidate_sets),
            bounded=bounds is not None,
        ) as span:
            decision = sweep(self._incumbent_hook(span if traced else None, t_dec))
            if traced:
                stats = decision.pruning
                span.attrs.update(
                    best_objective=decision.best_objective,
                    planned=stats.planned,
                    pruned=stats.pruned,
                )
                record_pruning_stats(tracer.metrics, stats)
        return decision

    @staticmethod
    def _incumbent_hook(span: Any | None, t_dec: float | None):
        """The ``core.incumbent`` event emitter for :func:`replay_sweep`.

        The seed incumbent carries a ``seeded=True`` attribute and ordinary
        improvements carry none at all — preserved exactly, because obs
        bit-identity is asserted attribute-for-attribute.
        """
        if span is None:
            return None

        def on_incumbent(idx: int, obj: float, seeded: bool) -> None:
            if seeded:
                span.event("core.incumbent", t=t_dec, idx=idx,
                           objective=obj, seeded=True)
            else:
                span.event("core.incumbent", t=t_dec, idx=idx, objective=obj)

        return on_incumbent

    def _candidate_sweep(
        self,
        candidate_sets: list[tuple[str, ...]],
        bounds: Sequence[float] | None,
        on_incumbent: Callable[[int, float, bool], None] | None,
    ) -> ScheduleDecision:
        schedules: dict[int, Schedule | None] = {}
        objectives: dict[int, float] = {}

        def objective(idx: int) -> float:
            sched = self.planner.plan(candidate_sets[idx], self.info)
            schedules[idx] = sched
            obj = (
                float("inf")
                if sched is None
                else self.estimator.objective(sched, self.info)
            )
            objectives[idx] = obj
            return obj

        result = replay_sweep(len(candidate_sets), bounds, objective, on_incumbent)
        if result.best_idx < 0:
            raise RuntimeError(
                f"no feasible schedule across {len(candidate_sets)} candidate resource sets"
            )
        return ScheduleDecision(
            best=schedules[result.best_idx],
            best_objective=result.best_objective,
            evaluations=self._rows(
                candidate_sets, bounds, result, schedules, objectives
            ),
            metric=self.info.userspec.performance_metric,
            pruning=result.stats(bounds is not None),
        )

    @staticmethod
    def _rows(
        candidate_sets: list[tuple[str, ...]],
        bounds: Sequence[float] | None,
        result: SweepResult,
        schedules: dict[int, Schedule | None],
        objectives: dict[int, float],
    ) -> list[CandidateEvaluation]:
        """Per-candidate ``evaluations`` rows, in candidate order.

        Pruned rows carry their bound; a planned row carries its objective
        and, where one was planned, its schedule.
        """
        return [
            CandidateEvaluation(
                rset, None, float("inf"), pruned=True, lower_bound=bounds[idx]
            )
            if result.pruned[idx]
            else CandidateEvaluation(rset, schedules.get(idx), objectives[idx])
            for idx, rset in enumerate(candidate_sets)
        ]

    def run(self, t0: float = 0.0) -> tuple[ScheduleDecision, Any]:
        """Blueprint steps 1–4: schedule, then actuate the winner at ``t0``."""
        decision = self.schedule()
        result = self.actuator.actuate(decision.best, self.info, t0)
        return decision, result
