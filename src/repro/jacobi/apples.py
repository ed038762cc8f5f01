"""The Jacobi2D AppLeS agent and its compile-time rivals.

Four planners, matching the schedulers compared in Figures 3–6:

- :class:`JacobiPlanner` — the AppLeS strip planner: time-balanced areas
  from NWS forecasts, memory-capacity aware, locality-ordered strips.
  "AppLeS seeks to balance time directly using dynamic and more precise
  information about CPU speed, current and predicted machine and network
  loads ..., memory availability, etc." (§5)
- :class:`StaticStripPlanner` — the Figure 4 baseline: non-uniform strips
  from *nominal* CPU speed and bandwidth, fixed at compile time.
- :class:`UniformStripPlanner` — equal strips (the naive hand schedule).
- :class:`BlockedPlanner` — the HPF Uniform/Blocked baseline: equal 2-D
  tiles over all machines, no dynamic information, no memory model.

All planners emit :class:`~repro.core.schedule.Schedule` objects whose
metadata carries the concrete partition geometry, so the runtime can both
execute the numerics and charge simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.coordinator import AppLeSAgent
from repro.core.infopool import InformationPool
from repro.core.planner import (
    balance_divisible_work,
    balance_divisible_work_batched,
    balance_prefix_exact_batched,
)
from repro.core.resources import ResourcePool
from repro.core.schedule import Allocation, Schedule
from repro.core.selector import ResourceSelector
from repro.core.userspec import UserSpecification
from repro.jacobi.cost import StripCostModel, batched_neighbor_comm_costs
from repro.jacobi.grid import JacobiProblem, jacobi_hat
from repro.jacobi.partition import (
    BlockPartition,
    StripPartition,
    apples_strip,
    batched_largest_remainder_rows,
    blocked_partition,
    generalized_block_partition,
    nonuniform_strip,
    uniform_strip,
)
from repro.nws.service import NetworkWeatherService
from repro.sim.testbeds import Testbed

__all__ = [
    "locality_order",
    "batched_locality_orders",
    "member_masks_over",
    "ApplesBlockedPlanner",
    "PreferencePlanner",
    "JacobiPlanner",
    "StaticStripPlanner",
    "UniformStripPlanner",
    "BlockedPlanner",
    "StripBatchInputs",
    "StripBatchEvaluation",
    "evaluate_strip_batch",
    "make_jacobi_agent",
    "schedule_from_strip_partition",
]

# Planner-internal iteration bound (membership can change at most once per
# machine).
_MAX_REPLAN = 32


def locality_order(pool: ResourcePool, machines: Sequence[str]) -> list[str]:
    """Order machines so strip neighbours are network-close.

    Grouping by ``(site, arch, name)`` places machines sharing a segment
    next to each other in every canned testbed, minimising the number of
    borders that cross slow links — the strip-ordering half of the
    application-specific locality notion of §3.3.
    """
    return sorted(
        machines,
        key=lambda m: (
            pool.machine_info(m).site,
            pool.machine_info(m).arch,
            m,
        ),
    )


def batched_locality_orders(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strip orders for many candidate sets at once.

    ``masks`` is a boolean ``(m, n)`` matrix over a machine universe
    *already sorted by locality rank* (``locality_order`` of the full
    pool).  Because the locality key is a strict total order, the strip
    order of any subset is simply its members in ascending rank — so one
    stable argsort that moves members ahead of non-members recovers, for
    every row at once, exactly what :func:`locality_order` returns for
    that row's member set.

    Returns ``(order_idx, counts)``: ``order_idx[i, j]`` is the rank-space
    machine index of row ``i``'s ``j``-th strip member (slots at and
    beyond ``counts[i]`` are padding, ascending over the non-members).
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2:
        raise ValueError("masks must be (m, n)")
    order_idx = np.argsort(~masks, axis=1, kind="stable")
    counts = masks.sum(axis=1)
    return order_idx, counts


def _locality_ranked(info: InformationPool, machines: list[str]) -> list[str]:
    """``locality_order`` with a per-decision rank memo.

    The locality key is a *total* order over the pool, so sorting a subset
    by the full-pool rank yields exactly ``locality_order``'s result while
    avoiding two ``machine_info`` constructions per comparison.  Outside a
    decision (or for machines outside the pool) this falls back to the
    direct sort.
    """
    cache = info.decision_cache
    if cache is None:
        return locality_order(info.pool, machines)
    rank = cache.memo.get("locality-rank")
    if rank is None:
        rank = {
            m: i
            for i, m in enumerate(
                locality_order(info.pool, info.pool.machine_names())
            )
        }
        cache.memo["locality-rank"] = rank
    try:
        return sorted(machines, key=rank.__getitem__)
    except KeyError:
        return locality_order(info.pool, machines)


def _availability_risk(machines: Sequence[str], info: InformationPool) -> float:
    """Worst relative availability-forecast error across ``machines``.

    A barrier step is the max over members, so a set's volatility exposure
    is its worst member's ``error / availability``.  Reads the decision
    snapshot when one is active (identical values, no per-call NWS query).
    """
    cache = info.decision_cache
    snap = cache.snapshot if cache is not None else None
    worst = 0.0
    for m in machines:
        if snap is not None and m in snap.availability:
            avail = snap.availability[m]
            err = snap.availability_error[m]
        else:
            avail = info.pool.predicted_availability(m)
            err = info.pool.predicted_availability_error(m)
        if avail > 0:
            worst = max(worst, err / max(avail, 0.05))
    return worst


def _member_risks(names: Sequence[str], info: InformationPool) -> list[float]:
    """Per-machine relative availability-forecast error (vector form).

    The per-member terms of :func:`_availability_risk`: a set's risk is the
    max over its members, so the min over any superset's members is an
    admissible lower bound on the risk of whatever subset a planner keeps.
    """
    cache = info.decision_cache
    snap = cache.snapshot if cache is not None else None
    risks = []
    for m in names:
        if snap is not None and m in snap.availability:
            avail = snap.availability[m]
            err = snap.availability_error[m]
        else:
            avail = info.pool.predicted_availability(m)
            err = info.pool.predicted_availability_error(m)
        risks.append(err / max(avail, 0.05) if avail > 0 else 0.0)
    return risks


def schedule_from_strip_partition(
    partition: StripPartition,
    problem: JacobiProblem,
    model: StripCostModel,
    decomposition: str,
) -> Schedule:
    """Wrap a concrete strip partition as a Schedule (prediction from ``model``)."""
    exchange = problem.border_exchange_bytes()
    strips = partition.strips
    fast = getattr(model, "_fast", False)
    allocations = []
    for idx, strip in enumerate(strips):
        if fast:
            # Direct index arithmetic instead of partition.neighbors(),
            # whose name lookup is a linear scan (quadratic over the set).
            comm = {}
            if idx > 0:
                comm[strips[idx - 1].machine] = exchange
            if idx + 1 < len(strips):
                comm[strips[idx + 1].machine] = exchange
        else:
            comm = {nbr: exchange for nbr in partition.neighbors(strip.machine)}
        area = strip.row_count * partition.n
        allocations.append(
            Allocation(
                machine=strip.machine,
                task="sweep",
                work_units=float(area),
                footprint_mb=problem.footprint_mb(area),
                comm_bytes=comm,
            )
        )
    return Schedule(
        allocations=allocations,
        predicted_time=model.execution_time(partition),
        decomposition=decomposition,
        metadata={"partition": partition, "problem": problem},
    )


class JacobiPlanner:
    """The AppLeS Jacobi2D strip planner (§5 blueprint step 2).

    For a candidate resource set: order machines by locality, predict each
    machine's point rate (NWS availability × nominal speed) and border
    cost, then balance *time* across the set, honouring real-memory
    capacities.  Machines that the balance drops (their border cost
    exceeds the balanced step time) are removed and the plan re-derived —
    the planner performs fine-grained resource selection of its own, which
    is why AppLeS sometimes schedules on a strict subset of a candidate
    set.
    """

    def __init__(
        self,
        problem: JacobiProblem,
        account_memory: bool = True,
        conservatism_sigmas: float = 1.0,
        risk_aversion: float = 2.0,
    ) -> None:
        self.problem = problem
        self.account_memory = account_memory
        if conservatism_sigmas < 0 or risk_aversion < 0:
            raise ValueError("conservatism_sigmas and risk_aversion must be >= 0")
        # How many forecast-error sigmas to discount each machine's rate by
        # when sizing its share (robust allocation) ...
        self.conservatism_sigmas = conservatism_sigmas
        # ... and how strongly candidate schedules are penalised for using
        # volatile machines when *predicting* their time (robust selection).
        # A barrier step is the max over members, so a set's exposure is its
        # worst member's relative forecast error.
        self.risk_aversion = risk_aversion

    def _risk(self, machines: Sequence[str], info: InformationPool) -> float:
        return _availability_risk(machines, info)

    def _model(self, info: InformationPool) -> StripCostModel:
        """The cost model — memoised per decision, snapshot-backed.

        Outside a decision (reference path) a fresh model is built per
        call, matching the seed implementation exactly.
        """
        cache = info.decision_cache
        if cache is None:
            return StripCostModel(
                info.pool, self.problem, self.account_memory,
                conservatism_sigmas=self.conservatism_sigmas,
            )
        key = ("jacobi-model", id(self))
        model = cache.memo.get(key)
        if model is None:
            model = StripCostModel(
                info.pool, self.problem, self.account_memory,
                conservatism_sigmas=self.conservatism_sigmas,
                snapshot=cache.snapshot,
            )
            cache.memo[key] = model
        return model

    def lower_bounds(
        self,
        candidate_sets: Sequence[Sequence[str]],
        info: InformationPool,
        member_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Admissible predicted-time lower bound per candidate set.

        ``member_mask`` optionally supplies the ``(m, n)`` membership
        matrix over ``info.pool.machine_names()`` (unusable members are
        filtered here either way) — the scheduling service builds it once
        per request and shares it with the batched evaluator, skipping the
        per-set Python loop below.  Values are unchanged.

        The planner may keep any non-empty subset of a candidate set, so
        the bound is the minimum of two relaxations that together cover
        every kept subset:

        * **Singleton**: a kept set of size 1 pays ``U / rate + sync`` per
          iteration, times that machine's exact risk multiplier (memory
          slowdown ``>= 1`` is dropped).  Bound: min over members.
        * **Multi-machine**: a kept set of size >= 2 gives every member at
          least one strip neighbour *inside the candidate set*, so each
          member's fixed cost is at least ``sync`` plus its cheapest border
          exchange with any other member.  The uncapacitated water-fill
          with those floor costs is monotone under supersets and
          cost-lowering, so it never exceeds the kept subset's true
          balanced time; the risk multiplier is bounded below by the
          minimum member risk.

        Each relaxation only lowers the value, so the bound never exceeds
        the true predicted time and pruning on it cannot change the
        Coordinator's choice.
        """
        model = self._model(info)
        names = info.pool.machine_names()
        n = len(names)
        index = {nm: j for j, nm in enumerate(names)}
        rates = np.array([model.point_rate(nm) for nm in names])
        usable = rates > 0.0
        if member_mask is not None:
            mask = np.asarray(member_mask, dtype=bool) & usable[None, :]
        else:
            mask = np.zeros((len(candidate_sets), n), dtype=bool)
            for i, rset in enumerate(candidate_sets):
                for m in rset:
                    j = index.get(m)
                    if j is not None and usable[j]:
                        mask[i, j] = True
        safe_rates = np.where(usable, rates, 1.0)
        total = float(self.problem.total_points)
        iters = self.problem.iterations
        sync = model.sync_overhead_s
        risks = np.asarray(_member_risks(names, info))

        # Singleton relaxation (exact per-machine risk).
        with np.errstate(divide="ignore"):
            single = (total / np.where(usable, rates, np.inf) + sync) * iters
        single *= 1.0 + self.risk_aversion * risks
        single_lb = np.where(mask, single[None, :], np.inf).min(axis=1)

        # Multi-machine relaxation: per-set per-member border-cost floors.
        # The pairwise matrix is shared with batch_inputs via the model's
        # memo; only member columns are read below (mask excludes unusable
        # machines), so the diagonal is the single entry that differs from
        # a neighbour cost — a machine is never its own strip neighbour,
        # and an inf diagonal keeps singleton members on the singleton
        # relaxation exactly as the original per-pair loop did.
        pair = model.comm_cost_matrix(names).copy()
        np.fill_diagonal(pair, np.inf)
        # floors[i, m] = min border exchange from m to any other member of
        # set i (inf for singleton members — the singleton bound covers
        # them, and inf marks them unusable in the water-fill).
        floors = np.where(mask[:, None, :], pair[None, :, :], np.inf).min(axis=2)
        costs = sync + floors
        result = balance_divisible_work_batched(safe_rates, costs, total, mask)
        min_risk = np.where(mask, risks, np.inf).min(axis=1)
        min_risk = np.where(np.isfinite(min_risk), min_risk, 0.0)
        multi_lb = (
            result.makespans * iters * (1.0 + self.risk_aversion * min_risk)
        )
        return np.minimum(single_lb, multi_lb)

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        model = self._model(info)
        order = _locality_ranked(info, list(resource_set))
        order = [m for m in order if model.point_rate(m) > 0.0]
        if not order:
            return None
        total = float(self.problem.total_points)

        # Plan-continuation memo: from a given machine order onward, plan()
        # is a deterministic function of that order alone — many candidate
        # sets drop members and converge onto the same ordered subset, so
        # their continuations (and final schedules) are shared.  Only valid
        # while the pool is frozen, i.e. inside a decision.
        cache = info.decision_cache
        memo = cache.memo if cache is not None else None
        visited: list[tuple[str, ...]] = []

        def _finish(schedule: Schedule | None) -> Schedule | None:
            if memo is not None:
                for key_order in visited:
                    memo[("jacobi-plan", id(self), key_order)] = schedule
            return schedule

        for _ in range(_MAX_REPLAN):
            if memo is not None:
                key = ("jacobi-plan", id(self), tuple(order))
                if key in memo:
                    hit = memo[key]
                    if visited:  # propagate to the orders that led here
                        _finish(hit)
                    if hit is None:
                        return None
                    # Fresh object per evaluation (value-identical): rows in
                    # decision.evaluations must not alias one another.
                    return replace(hit)
                visited.append(tuple(order))
            rates = [model.point_rate(m) for m in order]
            costs = model.comm_costs(order)
            # A machine reachable only over a dead link shows an infinite
            # border cost; drop it and re-derive (its neighbours' costs
            # change) rather than letting the balance collapse.
            if any(c == float("inf") for c in costs):
                if len(order) == 1:
                    return _finish(None)
                worst = max(range(len(order)), key=lambda i: costs[i])
                order.pop(worst)
                continue
            caps = (
                [model.capacity_points(m) for m in order]
                if self.account_memory
                else None
            )
            result = balance_divisible_work(rates, costs, total, caps)
            if result is None:
                return _finish(None)
            kept = [m for m, a in zip(order, result.allocations) if a > 0.0]
            if not kept:
                return _finish(None)
            if kept == order:
                areas = result.allocations
                break
            order = kept  # membership changed; neighbour costs change too
        else:  # pragma: no cover - structurally bounded
            raise RuntimeError("Jacobi planner failed to converge")

        max_rows = (
            [int(model.capacity_points(m) // self.problem.n) for m in order]
            if self.account_memory
            else None
        )
        partition = apples_strip(self.problem.n, order, areas, max_rows)
        schedule = schedule_from_strip_partition(
            partition, self.problem, model, "apples-strip"
        )
        schedule.predicted_time *= 1.0 + self.risk_aversion * self._risk(
            partition.machines, info
        )
        _finish(schedule)
        return schedule

    def batch_planner(self, info: InformationPool) -> "JacobiPlanner":
        """Opt in to the one-shot batched sweep: the strip planner batches
        itself (see :meth:`repro.core.coordinator.AppLeSAgent.batch_planner`)."""
        return self

    def batch_inputs(self, info: InformationPool) -> "StripBatchInputs":
        """Rank-space arrays for :func:`evaluate_strip_batch`.

        Captures everything :meth:`plan` reads per candidate — point
        rates, memory capacities, the pairwise border-transfer matrix,
        member risks — once per (planner, decision), in locality-rank
        order so batched candidate masks can be evaluated without any
        per-candidate queries.  Values come from the same decision-scoped
        model (and snapshot memo) the scalar path uses, so they are the
        *same floats*; inside a decision the whole bundle is memoised, so
        repeated stagings at one pool state (the daemon's reuse layer)
        rebuild nothing.
        """
        cache = info.decision_cache
        key = ("jacobi-batch-inputs", id(self))
        if cache is not None:
            memo = cache.memo.get(key)
            if memo is not None:
                return memo
        model = self._model(info)
        rank_names = locality_order(info.pool, info.pool.machine_names())
        rates = np.array([model.point_rate(m) for m in rank_names])
        caps = (
            np.array([model.capacity_points(m) for m in rank_names])
            if self.account_memory
            else None
        )
        avail_mb = np.array(
            [info.pool.machine_info(m).memory_available_mb for m in rank_names]
        )
        inputs = StripBatchInputs(
            planner=self,
            rank_names=tuple(rank_names),
            rates=rates,
            caps=caps,
            avail_mb=avail_mb,
            pair=model.comm_cost_matrix(rank_names),
            sync_overhead_s=model.sync_overhead_s,
            total_points=float(self.problem.total_points),
            grid_n=self.problem.n,
            bytes_per_point=float(self.problem.bytes_per_point),
            iterations=self.problem.iterations,
            risk_aversion=self.risk_aversion,
            risks=np.asarray(_member_risks(rank_names, info)),
            account_memory=self.account_memory,
        )
        if cache is not None:
            cache.memo[key] = inputs
        return inputs


@dataclass(frozen=True)
class StripBatchInputs:
    """One request's strip-planning ingredients in locality-rank space.

    Produced by :meth:`JacobiPlanner.batch_inputs`; consumed (possibly
    stacked with other requests') by :func:`evaluate_strip_batch`.
    """

    planner: "JacobiPlanner"
    rank_names: tuple[str, ...]
    rates: np.ndarray  # (n,) points/s per machine, 0 = unusable
    caps: np.ndarray | None  # (n,) capacity points, None when memory-blind
    avail_mb: np.ndarray  # (n,) real memory available per machine
    pair: np.ndarray  # (n, n) one-border transfer seconds
    sync_overhead_s: float
    total_points: float
    grid_n: int
    bytes_per_point: float
    iterations: int
    risk_aversion: float
    risks: np.ndarray  # (n,) member availability risks
    account_memory: bool

    def member_mask(self, resource_set: Sequence[str]) -> np.ndarray:
        """Rank-space member mask for one candidate set (usable members)."""
        return member_masks_over([resource_set], self.rank_names)[0]

    def member_masks(self, candidate_sets: Sequence[Sequence[str]]) -> np.ndarray:
        """Rank-space member masks for many candidate sets, ``(m, n)``."""
        return member_masks_over(candidate_sets, self.rank_names)


def member_masks_over(
    candidate_sets: Sequence[Sequence[str]], names: Sequence[str]
) -> np.ndarray:
    """``(m, n)`` membership matrix of ``candidate_sets`` over ``names``.

    One flat scatter instead of a per-set Python loop — with thousands of
    candidate sets the loop is a measurable slice of a whole batched
    decision.  Unknown machine names are simply absent from the mask,
    matching the per-set lookup the planners do themselves.
    """
    index = {m: j for j, m in enumerate(names)}
    m_sets = len(candidate_sets)
    masks = np.zeros((m_sets, len(names)), dtype=bool)
    lens = np.fromiter(
        (len(rset) for rset in candidate_sets), dtype=np.int64, count=m_sets
    )
    total = int(lens.sum())
    if total == 0:
        return masks
    rows = np.repeat(np.arange(m_sets), lens)
    cols = np.fromiter(
        (index.get(nm, -1) for rset in candidate_sets for nm in rset),
        dtype=np.int64,
        count=total,
    )
    known = cols >= 0
    masks[rows[known], cols[known]] = True
    return masks


@dataclass(frozen=True)
class StripBatchEvaluation:
    """Per-candidate outcomes of one job inside :func:`evaluate_strip_batch`.

    ``predicted`` is only meaningful where ``feasible & ~fallback``; rows
    flagged ``fallback`` must be answered by the scalar planner (the
    batched core refuses to approximate them), and infeasible rows mirror
    ``plan() is None``.
    """

    feasible: np.ndarray  # (m,) plan produces a schedule
    fallback: np.ndarray  # (m,) answer with the scalar planner
    predicted: np.ndarray  # (m,) risk-adjusted predicted time
    kept: np.ndarray  # (m, n) final member mask, rank space


# Structural bound on batched re-plan passes: membership shrinks by at
# least one machine per pass per row, matching the scalar _MAX_REPLAN.
_MAX_BATCH_PASSES = _MAX_REPLAN


def evaluate_strip_batch(
    jobs: Sequence[tuple[StripBatchInputs, np.ndarray]],
    chunk_rows: int = 32768,
) -> list[StripBatchEvaluation]:
    """Evaluate the candidate sets of many scheduling requests at once.

    ``jobs`` pairs each request's :class:`StripBatchInputs` with its
    ``(m_j, n)`` rank-space candidate masks.  All rows of all jobs are
    stacked into one index space and driven through NumPy replicas of the
    scalar plan pipeline — locality orders, neighbour comm costs, the
    drop/re-balance fixpoint, largest-remainder integerisation, and the
    risk-adjusted step-time prediction — in chunks of ``chunk_rows`` to
    bound peak memory.

    Bit-identity contract: every number produced for a row either equals
    the scalar ``JacobiPlanner.plan`` result for that candidate set
    exactly, or the row is flagged ``fallback`` and carries no number at
    all.  The vector code only takes arithmetic paths whose float
    semantics match the scalar code operation-for-operation (documented
    inline); every input class it cannot certify — reference water-fill
    fallbacks, binding capacities, paging slowdowns, apportionment
    overshoot — is surrendered to the scalar planner rather than
    approximated.
    """
    if not jobs:
        return []
    n = len(jobs[0][0].rank_names)
    for inputs, masks in jobs:
        if len(inputs.rank_names) != n or masks.shape[1] != n:
            raise ValueError("all jobs must share one machine universe size")

    if len(jobs) == 1:
        # Single-job lane (solo schedule(), a batch of one):
        # no cross-job stacking — per-job arrays are viewed with a length-1
        # leading axis instead of copied through np.stack, and the row→job
        # map is all zeros.  Same arrays, same floats, less batching tax.
        inputs, masks = jobs[0]
        job_rates = inputs.rates[None]
        job_caps = (
            inputs.caps if inputs.caps is not None else np.full(n, np.inf)
        )[None]
        job_avail = inputs.avail_mb[None]
        job_pair = inputs.pair[None]
        job_risks = inputs.risks[None]
        job_sync = np.array([inputs.sync_overhead_s])
        job_total = np.array([inputs.total_points])
        job_grid = np.array([inputs.grid_n], dtype=np.int64)
        job_bytes = np.array([inputs.bytes_per_point])
        job_iters = np.array([float(inputs.iterations)])
        job_ra = np.array([inputs.risk_aversion])
        job_memory = np.array([inputs.account_memory])
        all_masks = np.asarray(masks, dtype=bool)
        job_of = np.zeros(len(all_masks), dtype=np.int64)
    else:
        job_rates = np.stack([inputs.rates for inputs, _ in jobs])
        job_caps = np.stack(
            [
                inputs.caps if inputs.caps is not None else np.full(n, np.inf)
                for inputs, _ in jobs
            ]
        )
        job_avail = np.stack([inputs.avail_mb for inputs, _ in jobs])
        job_pair = np.stack([inputs.pair for inputs, _ in jobs])
        job_risks = np.stack([inputs.risks for inputs, _ in jobs])
        job_sync = np.array([inputs.sync_overhead_s for inputs, _ in jobs])
        job_total = np.array([inputs.total_points for inputs, _ in jobs])
        job_grid = np.array([inputs.grid_n for inputs, _ in jobs], dtype=np.int64)
        job_bytes = np.array([inputs.bytes_per_point for inputs, _ in jobs])
        job_iters = np.array([float(inputs.iterations) for inputs, _ in jobs])
        job_ra = np.array([inputs.risk_aversion for inputs, _ in jobs])
        job_memory = np.array([inputs.account_memory for inputs, _ in jobs])

        all_masks = np.concatenate(
            [np.asarray(masks, dtype=bool) for _, masks in jobs]
        )
        job_of = np.concatenate(
            [
                np.full(len(masks), j, dtype=np.int64)
                for j, (_, masks) in enumerate(jobs)
            ]
        )

    total_rows = all_masks.shape[0]
    feasible = np.zeros(total_rows, dtype=bool)
    fallback = np.zeros(total_rows, dtype=bool)
    predicted = np.full(total_rows, np.inf)
    kept_out = np.zeros((total_rows, n), dtype=bool)

    for lo in range(0, total_rows, chunk_rows):
        hi = min(lo + chunk_rows, total_rows)
        _evaluate_chunk(
            all_masks[lo:hi],
            job_of[lo:hi],
            job_rates,
            job_caps,
            job_avail,
            job_pair,
            job_risks,
            job_sync,
            job_total,
            job_grid,
            job_bytes,
            job_iters,
            job_ra,
            job_memory,
            feasible[lo:hi],
            fallback[lo:hi],
            predicted[lo:hi],
            kept_out[lo:hi],
        )

    results = []
    start = 0
    for _, masks in jobs:
        stop = start + len(masks)
        results.append(
            StripBatchEvaluation(
                feasible=feasible[start:stop],
                fallback=fallback[start:stop],
                predicted=predicted[start:stop],
                kept=kept_out[start:stop],
            )
        )
        start = stop
    return results


def _evaluate_chunk(
    masks,
    job_of,
    job_rates,
    job_caps,
    job_avail,
    job_pair,
    job_risks,
    job_sync,
    job_total,
    job_grid,
    job_bytes,
    job_iters,
    job_ra,
    job_memory,
    feasible,
    fallback,
    predicted,
    kept_out,
):
    """One chunk of :func:`evaluate_strip_batch` (results written in place)."""
    m, n = masks.shape
    slots = np.arange(n)[None, :]
    rates_rows = job_rates[job_of]
    # The scalar plan first filters members predicted to deliver nothing.
    member = masks & (rates_rows > 0.0)

    pending = np.ones(m, dtype=bool)
    done = np.zeros(m, dtype=bool)
    areas_rank = np.zeros((m, n))

    for _ in range(_MAX_BATCH_PASSES):
        rows = np.nonzero(pending)[0]
        if rows.size == 0:
            break
        sub = member[rows]
        cnt = sub.sum(axis=1)
        sub_jobs = job_of[rows]

        # Rows whose member list emptied: plan() returns None.
        empty = cnt == 0
        if np.any(empty):
            pending[rows[empty]] = False

        order_idx, _ = batched_locality_orders(sub)
        valid = slots < cnt[:, None]
        costs_c = batched_neighbor_comm_costs(
            job_pair, order_idx, cnt, job_sync[sub_jobs], row_pair=sub_jobs
        )
        rate_c = np.where(
            valid, np.take_along_axis(job_rates[sub_jobs], order_idx, axis=1), 0.0
        )

        # Dead links: drop the single worst-cost member and re-derive, or
        # give up on a singleton — exactly the scalar branch.
        member_inf = np.isinf(costs_c) & valid
        has_inf = member_inf.any(axis=1) & ~empty
        if np.any(has_inf):
            single = has_inf & (cnt == 1)
            pending[rows[single]] = False  # plan() returns None
            multi = has_inf & ~single
            if np.any(multi):
                mrows = np.nonzero(multi)[0]
                # First occurrence of the maximum — Python's max() tie-break.
                worst = np.argmax(costs_c[mrows], axis=1)
                drop_rank = order_idx[mrows, worst]
                member[rows[mrows], drop_rank] = False
            # Dropping leaves the row pending for the next pass.

        bal = ~has_inf & ~empty
        if not np.any(bal):
            continue
        brows = np.nonzero(bal)[0]
        res = balance_prefix_exact_batched(
            rate_c[brows], costs_c[brows], job_total[sub_jobs[brows]]
        )
        needs_ref = res.needs_reference.copy()

        # Binding capacities send the scalar path to the reference loop.
        caps_c = np.take_along_axis(job_caps[sub_jobs[brows]], order_idx[brows], axis=1)
        mem_rows = job_memory[sub_jobs[brows]]
        over_cap = (
            res.active & (res.allocations > caps_c + 1e-9)
        ).any(axis=1) & mem_rows
        needs_ref |= over_cap

        gidx = rows[brows]
        fallback[gidx[needs_ref]] = True
        pending[gidx[needs_ref]] = False

        ok = ~needs_ref
        if not np.any(ok):
            continue
        orows = np.nonzero(ok)[0]
        alloc = res.allocations[orows]
        kept_c = res.active[orows] & (alloc > 0.0)
        kvalid = valid[brows][orows]
        none_kept = ~kept_c.any(axis=1)
        converged = ~(kvalid & ~kept_c).any(axis=1) & ~none_kept

        g2 = gidx[orows]
        pending[g2[none_kept]] = False  # plan() returns None

        # Non-converged rows shrink to their kept members and re-derive.
        shrink = ~converged & ~none_kept
        if np.any(shrink):
            srows = np.nonzero(shrink)[0]
            new_member = np.zeros((srows.size, n), dtype=bool)
            np.put_along_axis(
                new_member, order_idx[brows][orows][srows], kept_c[srows], axis=1
            )
            member[g2[srows]] = new_member

        if np.any(converged):
            crows = np.nonzero(converged)[0]
            scatter = np.zeros((crows.size, n))
            np.put_along_axis(
                scatter, order_idx[brows][orows][crows], alloc[crows], axis=1
            )
            areas_rank[g2[crows]] = scatter
            kept_scatter = np.zeros((crows.size, n), dtype=bool)
            np.put_along_axis(
                kept_scatter, order_idx[brows][orows][crows], kept_c[crows], axis=1
            )
            member[g2[crows]] = kept_scatter
            done[g2[crows]] = True
            pending[g2[crows]] = False
    else:
        # Rows still pending after the structural bound: let the scalar
        # planner raise (or converge) exactly as solo would.
        fallback[pending] = True
        pending[:] = False

    drows = np.nonzero(done)[0]
    if drows.size == 0:
        return
    _finalise_rows(
        drows,
        member,
        areas_rank,
        job_of,
        job_rates,
        job_caps,
        job_avail,
        job_pair,
        job_risks,
        job_sync,
        job_grid,
        job_bytes,
        job_iters,
        job_ra,
        job_memory,
        feasible,
        fallback,
        predicted,
        kept_out,
    )


def _finalise_rows(
    drows,
    member,
    areas_rank,
    job_of,
    job_rates,
    job_caps,
    job_avail,
    job_pair,
    job_risks,
    job_sync,
    job_grid,
    job_bytes,
    job_iters,
    job_ra,
    job_memory,
    feasible,
    fallback,
    predicted,
    kept_out,
):
    """Integerise converged rows and predict their risk-adjusted times."""
    n = member.shape[1]
    slots = np.arange(n)[None, :]
    sub = member[drows]
    jobs = job_of[drows]
    order_idx, cnt = batched_locality_orders(sub)
    valid = slots < cnt[:, None]
    areas_c = np.where(
        valid, np.take_along_axis(areas_rank[drows], order_idx, axis=1), 0.0
    )
    grid = job_grid[jobs]
    rows_int, exact = batched_largest_remainder_rows(grid, areas_c, cnt)

    bad = ~exact
    # Row caps (the integer image of memory capacity): the scalar path runs
    # an order-dependent overflow shift when a cap binds — surrender those.
    caps_c = np.take_along_axis(job_caps[jobs], order_idx, axis=1)
    mem = job_memory[jobs]
    with np.errstate(invalid="ignore"):  # inf caps on memory-blind rows
        max_rows = np.floor_divide(caps_c, grid[:, None].astype(float))
    bad |= mem & (valid & (rows_int > max_rows)).any(axis=1)

    area_pts = (rows_int * grid[:, None]).astype(float)
    # Paging: rows_int <= max_rows makes every strip fit in real memory, so
    # the scalar slowdown factor is exactly 1.0 — but certify the fits
    # check itself (footprint <= available) rather than assume it.
    foot_mb = area_pts * job_bytes[jobs][:, None] / 1e6
    avail_c = np.take_along_axis(job_avail[jobs], order_idx, axis=1)
    bad |= mem & (valid & (foot_mb > avail_c)).any(axis=1)

    rate_c = np.where(
        valid, np.take_along_axis(job_rates[jobs], order_idx, axis=1), np.inf
    )
    with np.errstate(divide="ignore"):
        p_c = 1.0 / rate_c

    # Neighbour comm per strip: predecessor added before successor, ends
    # adding exactly 0.0 — StripCostModel.step_time's fast loop verbatim.
    prev_idx = np.roll(order_idx, 1, axis=1)
    next_idx = np.roll(order_idx, -1, axis=1)
    rp = jobs[:, None]
    t_prev = job_pair[rp, order_idx, prev_idx]
    t_next = job_pair[rp, order_idx, next_idx]
    has_prev = slots > 0
    has_next = slots < (cnt[:, None] - 1)
    comm = np.where(valid & has_prev, t_prev, 0.0) + np.where(
        valid & has_next, t_next, 0.0
    )
    times = area_pts * p_c + comm + job_sync[jobs][:, None]
    step = np.where(valid, times, -np.inf).max(axis=1)
    pred = step * job_iters[jobs]
    risks_c = np.where(
        valid, np.take_along_axis(job_risks[jobs], order_idx, axis=1), 0.0
    )
    risk = risks_c.max(axis=1, initial=0.0)
    pred = pred * (1.0 + job_ra[jobs] * risk)

    good = ~bad
    gd = drows[good]
    feasible[gd] = True
    predicted[gd] = pred[good]
    kept_out[gd] = sub[good]
    fallback[drows[bad]] = True


class _NominalMixin:
    """Shared helper: a nominal (NWS-free) view of the same topology.

    The compile-time baselines must not see dynamic information even when
    the experiment's Information Pool carries an NWS; they re-wrap the
    topology without it.
    """

    @staticmethod
    def nominal_pool(info: InformationPool) -> ResourcePool:
        return ResourcePool(info.pool.topology, nws=None)


class StaticStripPlanner(_NominalMixin):
    """The Figure 4 baseline: non-uniform strips from nominal capability.

    Strip heights proportional to nominal MFLOP/s ("parameterized by
    (non-uniform) CPU speeds and bandwidth for the workstation network",
    §5); all machines of the resource set participate; computed once at
    compile time, blind to load, contention and memory.
    """

    def __init__(self, problem: JacobiProblem) -> None:
        self.problem = problem

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        nominal = self.nominal_pool(info)
        model = StripCostModel(nominal, self.problem, account_memory=False)
        order = locality_order(nominal, list(resource_set))
        if not order:
            return None
        weights = [nominal.machine_info(m).speed_mflops for m in order]
        partition = nonuniform_strip(self.problem.n, order, weights)
        return schedule_from_strip_partition(partition, self.problem, model, "static-strip")


class UniformStripPlanner(_NominalMixin):
    """Equal strips over all machines of the set — the naive hand schedule."""

    def __init__(self, problem: JacobiProblem) -> None:
        self.problem = problem

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        nominal = self.nominal_pool(info)
        model = StripCostModel(nominal, self.problem, account_memory=False)
        order = locality_order(nominal, list(resource_set))
        if not order:
            return None
        if len(order) > self.problem.n:
            return None
        partition = uniform_strip(self.problem.n, order)
        return schedule_from_strip_partition(partition, self.problem, model, "uniform-strip")


class BlockedPlanner(_NominalMixin):
    """The HPF Uniform/Blocked baseline (Figures 5 and 6).

    Equal 2-D tiles over every machine in the set; "a reasonable choice for
    the user who is trying to optimize the performance of Jacobi2D at
    compile time" — and exactly the schedule that spills memory in
    Figure 6, because HPF's distribution directives carry no memory model.
    """

    def __init__(self, problem: JacobiProblem) -> None:
        self.problem = problem

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        nominal = self.nominal_pool(info)
        order = locality_order(nominal, list(resource_set))
        if not order:
            return None
        if len(order) > self.problem.n:
            return None
        partition = blocked_partition(self.problem.n, order)
        predicted = self._predict(partition, nominal)
        allocations = self._allocations(partition)
        return Schedule(
            allocations=allocations,
            predicted_time=predicted,
            decomposition="hpf-blocked",
            metadata={"partition": partition, "problem": self.problem},
        )

    def _allocations(self, partition: BlockPartition) -> list[Allocation]:
        out = []
        per_point = self.problem.border_bytes_per_point
        for i in range(partition.pr):
            for j in range(partition.pc):
                blk = partition.block_at(i, j)
                comm: dict[str, float] = {}
                for nbr in partition.neighbors(i, j):
                    shared = (
                        blk.col_count
                        if nbr.row_start != blk.row_start
                        else blk.row_count
                    )
                    comm[nbr.machine] = comm.get(nbr.machine, 0.0) + 2.0 * shared * per_point
                out.append(
                    Allocation(
                        machine=blk.machine,
                        task="sweep",
                        work_units=float(blk.area),
                        footprint_mb=self.problem.footprint_mb(blk.area),
                        comm_bytes=comm,
                    )
                )
        return out

    def _predict(self, partition: BlockPartition, nominal: ResourcePool) -> float:
        """Nominal prediction: max over tiles of compute + border time."""
        per_point = self.problem.border_bytes_per_point
        worst = 0.0
        for i in range(partition.pr):
            for j in range(partition.pc):
                blk = partition.block_at(i, j)
                speed = nominal.machine_info(blk.machine).speed_mflops
                compute = (
                    blk.area * self.problem.flop_per_point / speed if speed > 0 else float("inf")
                )
                comm = 0.0
                for nbr in partition.neighbors(i, j):
                    shared = (
                        blk.col_count if nbr.row_start != blk.row_start else blk.row_count
                    )
                    comm += nominal.predicted_transfer_time(
                        blk.machine, nbr.machine, 2.0 * shared * per_point
                    )
                worst = max(worst, compute + comm + self.problem.sync_overhead_s)
        return worst * self.problem.iterations


class ApplesBlockedPlanner(BlockedPlanner):
    """AppLeS planning over *generalised* block decompositions.

    The paper's user "specified that only strip decompositions should be
    considered during the planning of the schedule" because non-strip
    predictions were considered too non-linear (§5).  This planner is the
    deferred alternative: a heterogeneous block distribution whose tile
    areas track NWS-forecast deliverable rates, predicted with the same
    per-tile ``area·P + C`` model.  The decomposition ablation compares it
    against the strip planner.
    """

    def __init__(
        self,
        problem: JacobiProblem,
        conservatism_sigmas: float = 1.0,
        risk_aversion: float = 2.0,
    ) -> None:
        super().__init__(problem)
        if conservatism_sigmas < 0 or risk_aversion < 0:
            raise ValueError("conservatism_sigmas and risk_aversion must be >= 0")
        self.conservatism_sigmas = conservatism_sigmas
        self.risk_aversion = risk_aversion

    def _conservative_speed(self, machine: str, info: InformationPool) -> float:
        cache = info.decision_cache
        if cache is not None:
            return cache.snapshot.conservative_speed(machine, self.conservatism_sigmas)
        return info.pool.predicted_speed_conservative(machine, self.conservatism_sigmas)

    def _transfer_time(self, a: str, b: str, nbytes: float, info: InformationPool) -> float:
        cache = info.decision_cache
        if cache is not None:
            return cache.snapshot.transfer_time(a, b, nbytes)
        return info.pool.predicted_transfer_time(a, b, nbytes)

    def lower_bounds(
        self, candidate_sets: Sequence[Sequence[str]], info: InformationPool
    ) -> np.ndarray:
        """Admissible predicted-time lower bound per candidate set.

        The generalised block partition covers the whole grid, so its worst
        tile time is at least the ideal fractional time balance with every
        per-tile cost relaxed down to the sync overhead; the risk
        multiplier is at least ``1 + risk_aversion × min member risk``.
        Same argument as the strip planner's.
        """
        names = info.pool.machine_names()
        index = {n: j for j, n in enumerate(names)}
        rates = np.array(
            [
                self._conservative_speed(n, info) / self.problem.flop_per_point
                for n in names
            ]
        )
        usable = rates > 0.0
        mask = np.zeros((len(candidate_sets), len(names)), dtype=bool)
        for i, rset in enumerate(candidate_sets):
            for m in rset:
                j = index.get(m)
                if j is not None and usable[j]:
                    mask[i, j] = True
        safe_rates = np.where(usable, rates, 1.0)
        sync = np.full(len(names), self.problem.sync_overhead_s)
        result = balance_divisible_work_batched(
            safe_rates, sync, float(self.problem.total_points), mask
        )
        risks = np.asarray(_member_risks(names, info))
        min_risk = np.where(mask, risks, np.inf).min(axis=1)
        min_risk = np.where(np.isfinite(min_risk), min_risk, 0.0)
        return (
            result.makespans
            * self.problem.iterations
            * (1.0 + self.risk_aversion * min_risk)
        )

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        machines = _locality_ranked(info, list(resource_set))
        rates = [
            self._conservative_speed(m, info) for m in machines
        ]
        usable = [(m, r) for m, r in zip(machines, rates) if r > 0.0]
        if not usable:
            return None
        machines = [m for m, _ in usable]
        rates = [r for _, r in usable]
        if len(machines) > self.problem.n:
            return None
        partition = generalized_block_partition(self.problem.n, machines, rates)
        predicted = self._predict_dynamic(partition, info)
        predicted *= 1.0 + self.risk_aversion * _availability_risk(machines, info)
        return Schedule(
            allocations=self._allocations(partition),
            predicted_time=predicted,
            decomposition="apples-blocked",
            metadata={"partition": partition, "problem": self.problem},
        )

    def _predict_dynamic(self, partition: BlockPartition, info: InformationPool) -> float:
        """Per-tile ``area·P_i + C_i`` with forecast rates and bandwidths."""
        per_point = self.problem.border_bytes_per_point
        worst = 0.0
        for i in range(partition.pr):
            for j in range(partition.pc):
                blk = partition.block_at(i, j)
                speed = self._conservative_speed(blk.machine, info)
                if speed <= 0:
                    return float("inf")
                compute = blk.area * self.problem.flop_per_point / speed
                comm = 0.0
                for nbr in partition.neighbors(i, j):
                    shared = (
                        blk.col_count if nbr.row_start != blk.row_start else blk.row_count
                    )
                    comm += self._transfer_time(
                        blk.machine, nbr.machine, 2.0 * shared * per_point, info
                    )
                worst = max(worst, compute + comm + self.problem.sync_overhead_s)
        return worst * self.problem.iterations


class PreferencePlanner:
    """Dispatch on the User Specification's decomposition preference.

    The paper's user "specified that only strip decompositions should be
    considered" (§5) — the preference lives in the User Specification and
    the Planner honours it.  With several admissible families, each is
    planned and the best-predicted schedule wins.
    """

    def __init__(self, planners: dict[str, "Planner"]) -> None:  # noqa: F821
        if not planners:
            raise ValueError("need at least one family planner")
        self.planners = dict(planners)

    def _active_planners(self, info: InformationPool) -> list["Planner"]:  # noqa: F821
        families = info.userspec.decomposition_preference or tuple(self.planners)
        return [
            self.planners[family] for family in families if family in self.planners
        ]

    def batch_planner(self, info: InformationPool) -> "Planner | None":  # noqa: F821
        """The single active family's batch planner, when there is one.

        With several active families the dispatcher's predicted time is a
        min across them, which the one-shot batched sweep cannot replay —
        so only a lone batch-capable family opts the configuration in.
        """
        active = self._active_planners(info)
        if len(active) != 1:
            return None
        hook = getattr(active[0], "batch_planner", None)
        return hook(info) if hook is not None else None

    def lower_bounds(
        self, candidate_sets: Sequence[Sequence[str]], info: InformationPool
    ) -> np.ndarray | None:
        """Element-wise minimum of the active families' bounds.

        The dispatcher's predicted time is the min over families, so the
        min of admissible per-family bounds is itself admissible.  If any
        active family lacks bounds, pruning is disabled entirely (None).
        """
        bounds: np.ndarray | None = None
        planners = self._active_planners(info)
        if not planners:
            return None
        for planner in planners:
            fn = getattr(planner, "lower_bounds", None)
            if fn is None:
                return None
            family_bounds = np.asarray(fn(candidate_sets, info), dtype=float)
            bounds = (
                family_bounds
                if bounds is None
                else np.minimum(bounds, family_bounds)
            )
        return bounds

    def plan(self, resource_set: Sequence[str], info: InformationPool) -> Schedule | None:
        best: Schedule | None = None
        for planner in self._active_planners(info):
            sched = planner.plan(resource_set, info)
            if sched is None:
                continue
            if best is None or sched.predicted_time < best.predicted_time:
                best = sched
        return best


def make_jacobi_agent(
    testbed: Testbed,
    problem: JacobiProblem,
    nws: NetworkWeatherService | None = None,
    userspec: UserSpecification | None = None,
    selector: ResourceSelector | None = None,
    account_memory: bool = True,
) -> AppLeSAgent:
    """Assemble the complete Jacobi2D AppLeS agent for a testbed.

    The User Specification's ``decomposition_preference`` selects the
    planning family: the default ``("strip",)`` reproduces the paper's
    §5 restriction; ``("strip", "blocked")`` lets the agent weigh the
    generalised-block planner as well.  With ``nws=None`` the agent plans
    from nominal information only — the information ablation of the
    benchmarks.
    """
    pool = ResourcePool(testbed.topology, nws)
    info = InformationPool(
        pool=pool,
        hat=jacobi_hat(problem),
        userspec=userspec if userspec is not None else UserSpecification(),
    )
    families = {
        "strip": JacobiPlanner(problem, account_memory=account_memory),
        "blocked": ApplesBlockedPlanner(problem),
    }
    unknown = [f for f in info.userspec.decomposition_preference
               if f not in families]
    if unknown:
        raise ValueError(
            f"unknown decomposition preference(s) {unknown}; "
            f"available: {sorted(families)}"
        )
    planner = PreferencePlanner(families)
    info.register_model("jacobi-strip-cost", StripCostModel(pool, problem, account_memory))
    return AppLeSAgent(info, planner=planner, selector=selector)
