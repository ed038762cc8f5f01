"""Differential suite: the batched solo decision ≡ the reference loop.

Solo ``schedule()`` on the fast path is a batch of one through the
scheduling service's core (``AppLeSAgent.stage`` → ``evaluate_strip_batch``
→ ``AppLeSAgent.conclude``), and it claims to change *nothing observable*
about a decision.  These tests force each arm explicitly — ``reference``
(``REPRO_NO_FASTPATH`` semantics) and ``fast`` — around agent
construction, so both read the same forecasts, and assert bit-identity:

- winner resource set, allocations, predicted time, objective — the
  reference loop is the ground truth;
- evaluation order (the ``core.incumbent`` event sequence), pruned rows
  and :class:`PruningStats` — against the oracle the reference decision
  implies: :func:`~repro.core.sweep.replay_sweep` over the reference's
  per-candidate objectives with the same
  :func:`~repro.core.sweep.objective_bounds` (the reference loop itself is
  unbounded by design);
- the fast arm really took the batched core (``decision.vectorised``)
  whenever the configuration has a batch planner.

A Hypothesis property drives random pools, seeds, problem shapes and user
specifications through the same oracle; CI runs this file in both ambient
gate modes, which must not matter because every arm pins its own gate.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sweep import objective_bounds, replay_sweep
from repro.core.userspec import UserSpecification
from repro.jacobi.apples import make_jacobi_agent
from repro.jacobi.grid import JacobiProblem
from repro.nws import NetworkWeatherService
from repro.obs.trace import tracing
from repro.sim import casa_testbed, nile_testbed, sdsc_pcl_testbed
from repro.util import perf

BUILDERS = {
    "sdsc_pcl": sdsc_pcl_testbed,
    "casa": casa_testbed,
}


def _decide(testbed, nws, problem, fast, userspec=None, account_memory=True):
    """One decision with the fast-path gate pinned: (agent, decision,
    ``core.incumbent`` stream)."""
    with perf.fastpath(fast), tracing() as tr:
        agent = make_jacobi_agent(
            testbed, problem, nws=nws, userspec=userspec,
            account_memory=account_memory,
        )
        decision = agent.schedule()
    incumbents = [
        (r["fields"]["idx"], r["fields"]["objective"],
         r["fields"].get("seeded", False))
        for r in tr.records()
        if r["kind"] == "event" and r["name"] == "core.incumbent"
    ]
    return agent, decision, incumbents


def _winner(decision):
    return (
        decision.best.resource_set,
        tuple((a.machine, a.work_units, a.footprint_mb)
              for a in decision.best.allocations),
        decision.best.predicted_time,
        decision.best_objective,
        decision.candidates_considered,
    )


def _pruned_rows(decision):
    return tuple(ev.pruned for ev in decision.evaluations)


def _oracle_sweep(agent, reference):
    """The bounded sweep the reference decision implies.

    Replays :func:`replay_sweep` over the reference loop's per-candidate
    objectives with the admissible bounds the fast path uses, recording
    the incumbent stream the way the Coordinator emits it.
    """
    csets = [ev.resource_set for ev in reference.evaluations]
    bounds = objective_bounds(agent, agent.planner, csets)
    objectives = [ev.objective for ev in reference.evaluations]
    incumbents = []
    result = replay_sweep(
        len(csets), bounds, objectives.__getitem__,
        lambda idx, obj, seeded: incumbents.append((idx, obj, seeded)),
    )
    return result, bounds, incumbents


def _assert_equivalent(testbed, nws, problem, userspec=None, account_memory=True):
    _, ref, _ = _decide(testbed, nws, problem, False, userspec, account_memory)
    agent, fast, fast_inc = _decide(
        testbed, nws, problem, True, userspec, account_memory
    )

    # The reference loop is the oracle for the *decision*.
    assert _winner(fast) == _winner(ref)
    assert not ref.vectorised
    assert ref.pruning.planned == ref.candidates_considered

    # ... and, replayed with bounds, for the evaluation order, the pruned
    # rows and the statistics of the bounded fast path.
    with perf.fastpath(True):
        expected, bounds, expected_inc = _oracle_sweep(agent, ref)
    assert fast_inc == expected_inc
    assert _pruned_rows(fast) == expected.pruned
    assert fast.pruning == expected.stats(bounds is not None)
    return ref, fast


@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    bed_name=st.sampled_from(sorted(BUILDERS)),
    tb_seed=st.integers(min_value=1, max_value=2**16),
    nws_seed=st.integers(min_value=1, max_value=2**16),
    n=st.sampled_from([500, 800, 1100]),
    iterations=st.integers(min_value=10, max_value=60),
    max_machines=st.one_of(st.none(), st.integers(min_value=2, max_value=6)),
    account_memory=st.booleans(),
)
def test_property_random_pools_and_specs(
    bed_name, tb_seed, nws_seed, n, iterations, max_machines, account_memory
):
    testbed = BUILDERS[bed_name](seed=tb_seed)
    nws = NetworkWeatherService.for_testbed(testbed, seed=nws_seed)
    nws.warmup(600.0)
    problem = JacobiProblem(n=n, iterations=iterations)
    userspec = (
        UserSpecification() if max_machines is None
        else UserSpecification(max_machines=max_machines)
    )
    _, fast = _assert_equivalent(testbed, nws, problem, userspec, account_memory)
    # Strip-only configurations always batch: the fast arm must have
    # actually exercised the batched core, or this suite tests nothing.
    assert fast.vectorised


def test_exhaustive_twelve_machine_pool():
    """The headline pool: nile's 4095-candidate exhaustive sweep."""
    testbed = nile_testbed(seed=1996)
    nws = NetworkWeatherService.for_testbed(testbed, seed=7)
    nws.warmup(600.0)
    _, fast = _assert_equivalent(
        testbed, nws, JacobiProblem(n=1000, iterations=40)
    )
    assert fast.vectorised
    assert fast.candidates_considered == 2**12 - 1


def test_incumbent_stream_seeds_exactly_once():
    testbed = sdsc_pcl_testbed(seed=1996)
    nws = NetworkWeatherService.for_testbed(testbed, seed=7)
    nws.warmup(600.0)
    _, _, incumbents = _decide(
        testbed, nws, JacobiProblem(n=600, iterations=20), True
    )
    assert incumbents, "a feasible decision must announce incumbents"
    assert incumbents[0][2] is True  # the warm start
    assert all(seeded is False for _, _, seeded in incumbents[1:])
    objectives = [obj for _, obj, _ in incumbents]
    assert objectives == sorted(objectives, reverse=True)


def test_multi_family_configuration_declines_to_vectorise():
    """With both decomposition families active the dispatcher cannot name
    a single batch planner, so the fast path runs the bounded scalar loop
    — and its decision and sweep still match the reference oracle."""
    testbed = sdsc_pcl_testbed(seed=1996)
    nws = NetworkWeatherService.for_testbed(testbed, seed=7)
    nws.warmup(600.0)
    problem = JacobiProblem(n=600, iterations=20)
    spec = UserSpecification(decomposition_preference=("strip", "blocked"))

    _, fast = _assert_equivalent(testbed, nws, problem, spec)
    assert not fast.vectorised
    assert fast.pruning.bounded


def test_vector_rows_expose_winner_schedule():
    """`evaluations` rows from the batched core keep the explain() contract:
    the winner row holds the materialised schedule, pruned rows hold
    their bound, and certified rows carry a finite objective."""
    testbed = sdsc_pcl_testbed(seed=1996)
    nws = NetworkWeatherService.for_testbed(testbed, seed=7)
    nws.warmup(600.0)
    _, decision, _ = _decide(
        testbed, nws, JacobiProblem(n=600, iterations=20), True
    )
    assert decision.vectorised
    rows = decision.evaluations
    winners = [ev for ev in rows if ev.schedule is decision.best]
    assert len(winners) == 1
    assert winners[0].objective == decision.best_objective
    for ev in rows:
        if ev.pruned:
            assert ev.lower_bound is not None
            assert ev.schedule is None
        elif ev is not winners[0]:
            assert ev.feasible == (ev.objective < float("inf"))
    assert "pruned by lower bound" in decision.explain()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
