"""Request/answer types for the batched scheduling service.

A :class:`DecisionRequest` is what one AppLeS agent would need to make a
decision — the application (problem), the user (specification), the memory
policy, and the instant the decision is taken.  A :class:`ServiceAnswer`
carries exactly the observable outcome of a solo
:meth:`~repro.core.coordinator.AppLeSAgent.schedule` call: the chosen
schedule, its objective, and the candidate-search statistics.  The service
contract is that every answer is **bit-identical** to what the request's
own agent would have decided alone at the same instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Hashable

from repro.core.coordinator import PruningStats, ScheduleDecision
from repro.core.schedule import Schedule
from repro.core.userspec import UserSpecification
from repro.jacobi.grid import JacobiProblem

__all__ = ["DecisionRequest", "ServiceAnswer"]


def _freeze(value: Any) -> Hashable:
    """A hashable, order-stable image of a User Specification field."""
    if isinstance(value, (frozenset, set)):
        return tuple(sorted(value))
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    if isinstance(value, list):
        return tuple(value)
    return value


@dataclass
class DecisionRequest:
    """One application's ask: "schedule me, at this instant".

    Attributes
    ----------
    problem:
        The Jacobi2D instance to schedule.
    userspec:
        The requesting user's specifications (filters, metric,
        decomposition preference).  Defaults to the permissive default.
    account_memory:
        Whether the agent models real-memory capacities (the paper's
        default).
    at:
        Simulated time of the decision.  The service advances the shared
        NWS monotonically; requests are answered grouped by instant.
    """

    problem: JacobiProblem
    userspec: UserSpecification = field(default_factory=UserSpecification)
    account_memory: bool = True
    at: float = 0.0

    def config_key(self) -> Hashable:
        """Agents are interchangeable across requests with equal keys.

        Two requests at the same instant with the same key would build
        value-identical agents, so the service answers them once.  The key
        covers every field the agent construction reads (``UserSpecification``
        is mutable, hence the frozen field-by-field image).
        """
        spec = tuple(
            (f.name, _freeze(getattr(self.userspec, f.name)))
            for f in fields(self.userspec)
        )
        return (self.problem, spec, self.account_memory)


@dataclass
class ServiceAnswer:
    """The service's reply for one request — a solo decision's observables.

    ``best``/``best_objective``/``metric``/``pruning`` mirror the fields of
    :class:`~repro.core.coordinator.ScheduleDecision`; the differential
    test harness compares them field-for-field (machines, strip rows,
    predicted times, and the evaluation count after pruning) against a
    sequential ``AppLeSAgent.schedule()`` run.
    """

    best: Schedule
    best_objective: float
    metric: str
    pruning: PruningStats
    at: float

    @classmethod
    def from_decision(cls, decision: ScheduleDecision, at: float) -> "ServiceAnswer":
        """Wrap a Coordinator decision (batched core or solo loop)."""
        return cls(
            best=decision.best,
            best_objective=decision.best_objective,
            metric=decision.metric,
            pruning=decision.pruning,
            at=at,
        )

    @property
    def machines(self) -> tuple[str, ...]:
        """The chosen schedule's machines, in strip order."""
        return self.best.resource_set

    @property
    def predicted_time(self) -> float:
        """The chosen schedule's risk-adjusted predicted time."""
        return self.best.predicted_time

    @property
    def strip_rows(self) -> tuple[int, ...]:
        """Grid rows per strip of the chosen partition (when strip-shaped)."""
        partition = self.best.metadata.get("partition")
        strips = getattr(partition, "strips", None)
        if strips is None:
            return ()
        return tuple(s.row_count for s in strips)

    @property
    def evaluations_planned(self) -> int:
        """Candidates actually planned (after lower-bound pruning)."""
        return self.pruning.planned
