"""The batched multi-decision scheduling service.

Many AppLeS agents sharing one metacomputer make their decisions from the
same Network Weather Service at the same instants (§3: contention is
*experienced*, not negotiated).  Answering each agent separately repeats
the same forecast queries, cost models, and candidate evaluations; the
:class:`SchedulingService` accepts a batch of :class:`DecisionRequest`\\ s
and answers them through one vectorised evaluation core instead.

Bit-identity contract
---------------------
Every answer equals — float for float, count for count — what the
request's own agent would have decided alone:

- one :class:`~repro.nws.snapshot.ForecastSnapshot` per decision instant
  is shared across the batch (snapshots are pure caches, so shared and
  private snapshots yield the same values);
- each unique configuration is staged by
  :meth:`~repro.core.coordinator.AppLeSAgent.stage`, and all candidate
  sets of all staged requests are evaluated at once by
  :func:`~repro.jacobi.apples.evaluate_strip_batch`, whose kernels
  replicate the scalar planner's float semantics operation-for-operation
  and *surrender* (flag for scalar planning) any row they cannot certify;
- each request is then concluded by
  :meth:`~repro.core.coordinator.AppLeSAgent.conclude`, which replays the
  Coordinator's prune-and-choose sweep over the precomputed objectives
  and materialises and cross-checks the winner with the scalar planner.

Solo ``schedule()`` runs the same stage → evaluate → conclude steps as a
batch of one, so solo and batched answers cannot drift.  Configurations
with no batch planner are answered by a solo ``schedule()`` under the
shared snapshot.

With the fast path disabled (``REPRO_NO_FASTPATH=1``) the service
degenerates to a plain sequential loop of solo ``schedule()`` calls — the
oracle the differential test harness compares against.

Cross-call reuse (the always-on daemon's amortisation)
------------------------------------------------------
A service constructed with ``reuse=True`` keeps the
:class:`~repro.nws.snapshot.ForecastSnapshot` and whole answers alive
across ``decide()`` calls while the pool state is unchanged, dropping
both the moment :attr:`ForecastSnapshot.stale` turns true (the NWS
advanced, so the pool is in a new state).  An answer is a pure function
of (configuration, snapshot), so reuse is bit-identical by the same
argument as the snapshot itself; it only changes how often the same
floats are recomputed.  Everything else lives for one decision: each
batchable configuration opens one decision scope on the shared snapshot,
held from :meth:`~repro.core.coordinator.AppLeSAgent.stage` through the
instant's one ``evaluate_strip_batch`` call to
:meth:`~repro.core.coordinator.AppLeSAgent.conclude`.  Reuse requires an
attached NWS (staleness is keyed on the NWS clock/epoch) and is inert on
the reference path.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Sequence

import numpy as np

from repro.core.coordinator import AppLeSAgent, record_pruning_stats
from repro.core.resources import ResourcePool
from repro.core.selector import ResourceSelector

# AppLeSAgent.stage/conclude call the sweep and mask helpers through their
# own modules; the names stay importable here because benchmark tooling
# wraps them on this module to time each layer.
from repro.core.sweep import (  # noqa: F401
    materialise_winner,
    objective_bounds,
    replay_sweep,
)
from repro.jacobi.apples import (  # noqa: F401
    evaluate_strip_batch,
    make_jacobi_agent,
    member_masks_over,
)
from repro.nws.service import NetworkWeatherService
from repro.obs.trace import get_tracer
from repro.service.requests import DecisionRequest, ServiceAnswer
from repro.sim.testbeds import Testbed
from repro.util import perf

__all__ = ["SchedulingService"]


class _PoolState:
    """Everything the service keeps from one pool state.

    Valid exactly while ``snapshot.stale`` is false; the service drops the
    whole object the moment the NWS advances.  ``answers`` memoises whole
    decisions per request configuration.
    """

    __slots__ = ("snapshot", "answers")

    def __init__(self, snapshot) -> None:
        self.snapshot = snapshot
        self.answers: dict = {}


class SchedulingService:
    """Answer batches of scheduling requests over one testbed + NWS.

    Parameters
    ----------
    testbed:
        The shared metacomputer.
    nws:
        The shared Network Weather Service (``None`` = agents plan from
        nominal information, like solo agents built without an NWS).
    selector:
        Resource Selector shared by every request's agent (defaults to
        the exhaustive enumerator, matching solo agents).
    reuse:
        Keep the snapshot and answers alive across ``decide()`` calls
        while the pool state is unchanged (see the module docstring).
        Requires ``nws``; the always-on daemon turns this on, the
        one-shot batch API defaults to off.
    """

    def __init__(
        self,
        testbed: Testbed,
        nws: NetworkWeatherService | None = None,
        selector: ResourceSelector | None = None,
        reuse: bool = False,
    ) -> None:
        self.testbed = testbed
        self.nws = nws
        self.selector = selector
        # Read once at construction, like AppLeSAgent: a service answers
        # every batch on the path chosen when it was built.
        self._fast = perf.fastpath_enabled()
        if reuse and nws is None:
            raise ValueError(
                "SchedulingService(reuse=True) needs an NWS: cross-call "
                "reuse is invalidated by the NWS clock, and a pool without "
                "one has no staleness signal"
            )
        self._reuse = bool(reuse) and self._fast
        # Agents are pure functions of the request configuration (the
        # dynamic state flows in per decision through the snapshot), so
        # they may be kept across pool states.
        self._agents: dict = {}
        self._state: _PoolState | None = None

    # -- public API -------------------------------------------------------
    def decide(self, requests: Sequence[DecisionRequest]) -> list[ServiceAnswer]:
        """Answer every request, grouped by decision instant (ascending).

        The shared NWS is advanced monotonically to each distinct ``at``;
        requests at one instant share one forecast snapshot.  Returns
        answers in request order.
        """
        answers: list[ServiceAnswer | None] = [None] * len(requests)
        instants = sorted({r.at for r in requests})
        tracer = get_tracer()
        with tracer.span(
            "service.batch", layer="service",
            t=instants[0] if instants else None,
            requests=len(requests), instants=len(instants),
            mode="batched" if self._fast else "sequential",
        ) as span:
            if tracer.enabled:
                span.set_end(instants[-1] if instants else 0.0)
                tracer.metrics.counter("service.batches").inc()
                tracer.metrics.histogram("service.batch_size").observe(
                    len(requests)
                )
            for at in instants:
                group = [i for i, r in enumerate(requests) if r.at == at]
                self._advance(at)
                if self._fast:
                    self._decide_group(requests, group, at, answers)
                else:
                    for i in group:
                        agent = self._agent(requests[i])
                        decision = agent.schedule()
                        if tracer.enabled:
                            self._count_solo(tracer, decision.vectorised)
                        answers[i] = ServiceAnswer.from_decision(decision, at=at)
        return [a for a in answers if a is not None]

    @staticmethod
    def _count_solo(tracer, vectorised: bool) -> None:
        """Count one decision by the path that made it.

        ``service.solo_vectorised`` vs ``service.solo_scalar``: every
        decision the service computes lands in one of the two — the
        batched core in the first, the reference sequential loop and
        configurations with no batch planner in the second — so the
        daemon's obs stream shows exactly how many decisions the batched
        core served.
        """
        name = "service.solo_vectorised" if vectorised else "service.solo_scalar"
        tracer.metrics.counter(name).inc()

    # -- internals --------------------------------------------------------
    def _advance(self, at: float) -> None:
        if self.nws is None:
            return
        if at > self.nws.now:
            self.nws.advance_to(at)
        elif at < self.nws.now:
            raise ValueError(
                f"cannot decide at t={at}: the shared NWS is already at "
                f"t={self.nws.now}"
            )

    def _agent(self, request: DecisionRequest, key=None) -> AppLeSAgent:
        if self._reuse and key is not None:
            agent = self._agents.get(key)
            if agent is not None:
                return agent
        agent = make_jacobi_agent(
            self.testbed,
            request.problem,
            self.nws,
            userspec=request.userspec,
            selector=self.selector,
            account_memory=request.account_memory,
        )
        if self._reuse and key is not None:
            self._agents[key] = agent
        return agent

    def _pool_state(self) -> _PoolState:
        """The pool-state cache for the current NWS instant.

        With reuse on, the previous state survives while its snapshot is
        fresh; :attr:`ForecastSnapshot.stale` is the sole invalidation
        signal (the NWS epoch/clock), so a mutated pool can never serve a
        stale answer.  Without reuse, every call gets a
        private state — the pre-daemon one-snapshot-per-batch behaviour.
        """
        state = self._state
        if state is not None and not state.snapshot.stale:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.metrics.counter("service.reuse.snapshot_hits").inc()
            return state
        state = _PoolState(ResourcePool(self.testbed.topology, self.nws).snapshot())
        if self._reuse:
            self._state = state
        return state

    def _decide_group(self, requests, group, at, answers) -> None:
        """Answer one instant's requests through the batched core."""
        # One snapshot for the whole instant: every agent's pool wraps the
        # same topology and NWS, so forecasts read through this snapshot
        # are the same floats each agent's private snapshot would return.
        # With reuse on, the snapshot survives from earlier calls at the
        # same pool state.
        state = self._pool_state()
        snapshot = state.snapshot
        tracer = get_tracer()

        configs: dict = {}  # config_key -> [request indices]
        for i in group:
            configs.setdefault(requests[i].config_key(), []).append(i)

        staged = []  # (indices, config key, agent, StagedDecision)
        # Each staged configuration's decision scope stays open from stage
        # to conclude: one decision, one scope, like solo schedule().
        with ExitStack() as scopes:
            # Phase A: per unique config, build the agent, enumerate
            # candidate sets (outside the decision, like schedule()) and
            # stage the decision inside its shared-snapshot scope.
            for key, idxs in configs.items():
                answer = state.answers.get(key)
                if answer is not None:
                    # This configuration was already decided at this pool
                    # state — the decision is a pure function of (config,
                    # snapshot), so the earlier answer *is* the answer.
                    if tracer.enabled:
                        tracer.metrics.counter("service.reuse.answer_hits").inc()
                    for i in idxs:
                        answers[i] = answer
                    continue
                agent = self._agent(requests[idxs[0]], key)
                if agent.batch_planner() is None:
                    # Sequential answer under the shared snapshot — still
                    # one solo decision, bit-identical by snapshot purity.
                    if tracer.enabled:
                        tracer.metrics.counter("service.scalar_configs").inc()
                    decision = agent.schedule(snapshot=snapshot)
                    if tracer.enabled:
                        self._count_solo(tracer, decision.vectorised)
                    answer = ServiceAnswer.from_decision(decision, at=at)
                    state.answers[key] = answer
                    for i in idxs:
                        answers[i] = answer
                    continue
                csets = agent.candidate_sets()
                scopes.enter_context(agent.info.decision_scope(snapshot))
                staged.append((idxs, key, agent, agent.stage(csets)))

            # Phase B: one vectorised evaluation over every candidate set
            # of every staged request, then each request's sweep replay.
            evaluations = evaluate_strip_batch([st.job for *_, st in staged])
            if tracer.enabled and evaluations:
                surrendered = sum(
                    int(np.count_nonzero(ev.fallback)) for ev in evaluations
                )
                total_rows = sum(len(ev.fallback) for ev in evaluations)
                tracer.metrics.counter("service.batched_configs").inc(
                    len(evaluations)
                )
                tracer.metrics.counter("service.rows_vectorised").inc(
                    total_rows - surrendered
                )
                tracer.metrics.counter("service.rows_surrendered").inc(
                    surrendered
                )
                tracer.event(
                    "service.evaluate_batch", layer="service", t=at,
                    configs=len(evaluations), rows=total_rows,
                    surrendered=surrendered,
                )
            for (idxs, key, agent, st), ev in zip(staged, evaluations):
                decision = agent.conclude(st, ev)
                if tracer.enabled:
                    # Batched decisions land in the same instruments as
                    # solo ones — one pruning history regardless of which
                    # path answered — and each counts as one vectorised
                    # solo decision.
                    stats = decision.pruning
                    record_pruning_stats(tracer.metrics, stats)
                    tracer.event(
                        "service.decision", layer="service", t=at,
                        candidates=stats.candidates, pruned=stats.pruned,
                        best_objective=decision.best_objective,
                    )
                    self._count_solo(tracer, True)
                answer = ServiceAnswer.from_decision(decision, at=at)
                state.answers[key] = answer
                for i in idxs:
                    answers[i] = answer
