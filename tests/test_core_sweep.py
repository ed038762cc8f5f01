"""The canonical sweep (:mod:`repro.core.sweep`): unit contracts plus the
cross-entry-point pin.

``replay_sweep`` is the one implementation of the seeded-incumbent,
epsilon-margin-pruning candidate sweep; the Coordinator's scalar loop and
its batched core (``AppLeSAgent.conclude``, which solo ``schedule()`` and
the scheduling service share) both replay it.  The unit tests pin its control flow —
seed choice, evaluation order, the pruning predicate, tie-breaking — and
the integration test pins that both entry points report the *identical*
:class:`PruningStats` for the same decision, which is the whole point of
deduplicating the loop.
"""

from __future__ import annotations

import pytest

from repro.core.sweep import (
    PRUNE_RELATIVE_EPS,
    PruningStats,
    SweepResult,
    replay_sweep,
)
from repro.jacobi.apples import make_jacobi_agent
from repro.jacobi.grid import JacobiProblem
from repro.nws import NetworkWeatherService
from repro.service import DecisionRequest, SchedulingService
from repro.sim import sdsc_pcl_testbed

INF = float("inf")


def _spy(objectives):
    """An objective callable that records its evaluation order."""
    order = []

    def objective(idx):
        order.append(idx)
        return objectives[idx]

    return objective, order


# -- replay_sweep control flow --------------------------------------------
class TestReplaySweep:
    def test_unbounded_sweep_is_the_reference_loop(self):
        objectives = [4.0, 2.0, 3.0, 2.5]
        objective, order = _spy(objectives)
        incumbents = []
        result = replay_sweep(
            4, None, objective,
            lambda idx, obj, seeded: incumbents.append((idx, obj, seeded)),
        )
        assert order == [0, 1, 2, 3]  # no bounds: strict candidate order
        assert result.best_idx == 1
        assert result.best_objective == 2.0
        assert result.seed_idx == -1
        assert result.pruned == (False,) * 4
        assert incumbents == [(0, 4.0, False), (1, 2.0, False)]

    def test_seed_candidate_evaluated_first(self):
        objectives = [4.0, 3.0, 2.0]
        bounds = [3.0, 2.0, 1.0]  # smallest bound at index 2
        objective, order = _spy(objectives)
        incumbents = []
        result = replay_sweep(
            3, bounds, objective,
            lambda idx, obj, seeded: incumbents.append((idx, obj, seeded)),
        )
        assert order[0] == 2
        assert incumbents[0] == (2, 2.0, True)  # only the seed is flagged
        assert result.seed_idx == 2
        assert result.best_idx == 2

    def test_pruning_requires_clear_relative_margin(self):
        # Seed (index 0) sets the incumbent at 10.0.  Index 1's bound sits
        # exactly on the epsilon margin (pruned); index 2's bound equals
        # the incumbent (NOT pruned: could be an exact tie).
        bounds = [0.0, 10.0 * (1.0 + PRUNE_RELATIVE_EPS), 10.0]
        objectives = [10.0, 99.0, 12.0]
        objective, order = _spy(objectives)
        result = replay_sweep(3, bounds, objective)
        assert result.pruned == (False, True, False)
        assert 1 not in order  # pruned candidates are never evaluated
        assert result.best_idx == 0

    def test_ties_go_to_the_earliest_index(self):
        # The seed evaluates index 1 first; index 0 then ties its
        # objective and must take the incumbent (reference first-minimum).
        bounds = [2.0, 1.0]
        objectives = [5.0, 5.0]
        objective, order = _spy(objectives)
        result = replay_sweep(2, bounds, objective)
        assert order == [1, 0]
        assert result.best_idx == 0
        assert result.best_objective == 5.0

    def test_all_infeasible_reports_no_winner(self):
        incumbents = []
        result = replay_sweep(
            3, [1.0, 2.0, 3.0], lambda idx: INF,
            lambda idx, obj, seeded: incumbents.append(idx),
        )
        assert result.best_idx == -1
        assert result.best_objective == INF
        assert incumbents == []  # an infinite objective is never an incumbent
        assert result.pruned == (False,) * 3  # no finite incumbent, no pruning

    def test_single_candidate_never_seeds(self):
        objective, order = _spy([7.0])
        result = replay_sweep(1, [1.0], objective)
        assert result.seed_idx == -1
        assert order == [0]
        assert result.best_idx == 0

    def test_stats_account_for_every_candidate(self):
        result = SweepResult(
            best_idx=0, best_objective=1.0, seed_idx=0,
            pruned=(False, True, True, False),
        )
        stats = result.stats(bounded=True)
        assert stats == PruningStats(candidates=4, planned=2, pruned=2, bounded=True)
        assert stats.planned + stats.pruned == stats.candidates
        assert stats.pruned_fraction == 0.5


# -- the cross-entry-point pin --------------------------------------------
AT = 420.0


def test_pruning_stats_identical_across_entry_points():
    """Coordinator ``schedule()`` and service ``decide()`` replay the same
    sweep, so the same decision yields the *identical* PruningStats —
    under whichever gate mode the suite is running."""
    problem = JacobiProblem(n=600, iterations=20)

    testbed = sdsc_pcl_testbed(seed=1996)
    nws = NetworkWeatherService.for_testbed(testbed, seed=7)
    service = SchedulingService(testbed, nws)
    (answer,) = service.decide([DecisionRequest(problem=problem, at=AT)])

    solo_bed = sdsc_pcl_testbed(seed=1996)
    solo_nws = NetworkWeatherService.for_testbed(solo_bed, seed=7)
    solo_nws.advance_to(AT)
    agent = make_jacobi_agent(solo_bed, problem, nws=solo_nws)
    decision = agent.schedule()

    assert answer.pruning == decision.pruning
    assert answer.best_objective == decision.best_objective
    assert answer.predicted_time == decision.best.predicted_time
    assert answer.machines == tuple(decision.best.resource_set)


def test_pruning_stats_is_one_class():
    """The coordinator re-exports the sweep module's PruningStats — one
    dataclass, not two replicas that happen to compare equal."""
    from repro.core.coordinator import PruningStats as coordinator_stats

    assert coordinator_stats is PruningStats


def test_sweep_matches_brute_force_minimum():
    """Whatever the bounds, the sweep's winner equals the brute-force
    first minimum over all objectives (bounds are admissible here)."""
    objectives = [3.0, 1.5, 2.0, 1.5, 9.0]
    bounds = [obj * 0.9 for obj in objectives]  # admissible by construction
    result = replay_sweep(5, bounds, objectives.__getitem__)
    best = min(objectives)
    assert result.best_objective == best
    assert result.best_idx == objectives.index(best)
    for idx, skipped in enumerate(result.pruned):
        if skipped:
            assert bounds[idx] >= best * (1.0 + PRUNE_RELATIVE_EPS)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
