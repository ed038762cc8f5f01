"""The benchmark's workloads: fixed definitions, seeded plans, load loops.

Every offered rate, size and count in :data:`DEFINITIONS` is a constant of
the workload, never derived from a measurement of the same run, so a
faster commit is offered exactly the load a slower one was.  *What* is
asked (decision requests, arrival offsets, reservation requests, adaptive
run specs) is a pure function of the seed; only *when* answers arrive is
wall clock.  The program receives nothing but the generated requests.

All load comes from one process and one load thread.  Daemon workloads run
one ``nile`` shard with ``workers=1``, so at most two threads are busy:
the load thread and the shard thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import itertools
import json
import resource
import time
from array import array
from dataclasses import dataclass, field

from repro.core.userspec import UserSpecification
from repro.jacobi.adaptive import AdaptiveJacobiRunner
from repro.jacobi.grid import JacobiProblem
from repro.reserve import seeded_requests
from repro.reserve.repair import RepairSweep
from repro.service import (
    ANSWERED,
    BOOKED,
    REJECTED,
    SHED,
    MicroBatcher,
    SchedulingDaemon,
    SchedulingService,
    ShardSpec,
)
from repro.service.loadgen import LoadEvent, SyntheticPopulation
from repro.service.requests import DecisionRequest
from repro.sim.testbeds import nile_testbed, sdsc_pcl_testbed
from repro.util.rng import spawn_rng

SHARD = "nile"
WORLD_SEED = 7
WARMUP_S = 600.0
#: First decision instant: the clock of a freshly warmed shard world.
BASE_AT = WARMUP_S
#: Upper bound on any single wait for a ticket; a hang is a failure.
TICKET_TIMEOUT_S = 60.0

# Machine caps set a decision's cost class: on nile, none/6/5/4/3/2 sweep
# 4095/2509/1585/793/298/78 candidate sets.  decide-cold cycles through an
# odd number of classes so its latency median falls inside the middle class,
# not on the step between two classes where it would jump with the seed.
# reserve-mixed sends cheap capped decisions only, so that their cost adds
# little noise to the bookings they queue behind.
DEFINITIONS = {
    "decide-cold": {
        "why": "fresh NWS state every 4 requests, so the decision core and "
               "NWS advance block each answer and reuse does little",
        "rate_hz": 15.0,
        "caps": (None, 6, 5, 3, 2),
        "instant_every": 4,
        "step_s": 60.0,
        "open_share": 0.6,
        "round": 40,
    },
    "reserve-mixed": {
        "why": "closed-loop bookings on the shard thread beside open-loop "
               "decisions, so expansion, repair and blocked decisions show",
        "rate_hz": 20.0,
        "caps": (3, 2),
        "instant_every": 16,
        "step_s": 60.0,
        "bookings_per_s": 4.0,
    },
    "adaptive-run": {
        "why": "closed loop of adaptive Jacobi runs: solo blueprint, repair "
               "sweeps and simulated execution, no daemon or service core",
        # nile twice: with the worlds even, the run-time median fell on the
        # gap between the slowest sdsc_pcl run and the fastest nile one.
        "worlds": ("sdsc_pcl", "nile", "nile"),
        "sizes": (600, 800, 1000),
        "iterations": 1000,
        "check_every": (50, 100),
    },
}

_BUILDERS = {"sdsc_pcl": sdsc_pcl_testbed, "nile": nile_testbed}


def shard_spec() -> ShardSpec:
    """The one decision shard every daemon workload runs."""
    return ShardSpec(SHARD, nile_testbed, seed=WORLD_SEED, warmup_s=WARMUP_S)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (0..1) of ``values``; NaN when empty."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _samples() -> array:
    return array("d")


@dataclass
class Observation:
    """What one measured window saw (the raw material of every metric).

    Latency samples are flat arrays, so the benchmark's own bookkeeping
    adds little to the peak memory it reports.
    """

    traced: bool = False
    attempted: int = 0
    failed: int = 0
    decide_ms: array = field(default_factory=_samples)
    op_ms: array = field(default_factory=_samples)
    lag_ms: array = field(default_factory=_samples)
    units: int = 0
    units_wall_s: float = 0.0
    window_s: float = 0.0
    rss_mb: float = 0.0
    #: ``(request, ServiceAnswer)`` per answered open-loop decision.
    answered: list = field(default_factory=list)
    #: ``(request, ServiceAnswer)`` per answered pre-queued decision.
    saturated: list = field(default_factory=list)
    #: Traced runs only: ``(submitted, resolved)`` wall times of admitted
    #: open-loop tickets in submission order.  The shard answers FIFO, so
    #: the k-th request its ``decide()`` sees after ``open_start`` is the
    #: k-th here.
    admitted: list = field(default_factory=list)
    open_start: float = 0.0
    #: The final reservation ledger (reserve-mixed).
    ledger: object = None
    #: ``(run spec, AdaptiveResult)`` per completed run (adaptive-run).
    runs: list = field(default_factory=list)
    daemon: object = None

    @property
    def throughput(self) -> float:
        return self.units / self.units_wall_s if self.units_wall_s > 0 else 0.0


class BlockPopulation(SyntheticPopulation):
    """The loadgen population's configurations, drawn in balanced blocks.

    :class:`SyntheticPopulation` draws each request's configuration
    independently, and a request's cost is set mostly by its machine cap
    (4095 nile candidate sets uncapped, 298 with a cap of 3).  Over the few
    hundred requests a run has time for, that draw moves every percentile
    and the throughput with the seed.  Here every ``len(caps)`` consecutive
    requests hold each cap once, and every 18 consecutive requests hold
    each (size, iterations, memory policy) once, both in seeded order;
    instants advance by index exactly as in the parent.
    """

    def __init__(self, *args, caps=(None, 3, 2), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.caps = tuple(caps)
        self.shapes = [
            (n, iterations, memory)
            for n in self.sizes
            for iterations in self.iterations
            for memory in (True, False)
        ]

    def _pick(self, items, k: int, name: str):
        n = len(items)
        order = spawn_rng(self.seed, f"{name}:{k // n}").permutation(n)
        return items[int(order[k % n])]

    def request(self, k: int):
        cap = self._pick(self.caps, k, "cap")
        n, iterations, memory = self._pick(self.shapes, k, "shape")
        at = self.base_at
        if self.instant_every > 0:
            at += self.step_s * (k // self.instant_every)
        return self.shards[k % len(self.shards)], DecisionRequest(
            problem=JacobiProblem(n=n, iterations=iterations),
            userspec=UserSpecification(max_machines=cap),
            account_memory=memory,
            at=at,
        )


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True, default=repr).encode())
    return h.hexdigest()


def request_key(request) -> list:
    """A process-independent image of a DecisionRequest (no set reprs)."""
    return [repr(request.config_key()), request.at]


def stratified_events(population, rate_hz: float, n_requests: int) -> list:
    """An open-loop plan at ``rate_hz``: arrival ``k`` falls at a seeded
    uniform point of the ``k``-th slot of ``1 / rate_hz`` seconds.

    Arrivals still bunch (two can fall almost together), but every second
    carries the offered rate, so the queueing a run samples does not swing
    with the seed the way Poisson bursts make it swing over the few hundred
    arrivals a run has.
    """
    jitter = spawn_rng(population.seed, "arrivals").random(n_requests)
    events = []
    for k in range(n_requests):
        shard, request = population.request(k)
        offset = (k + float(jitter[k])) / rate_hz
        events.append(LoadEvent(offset_s=offset, shard=shard, request=request))
    return events


# -- load loops ----------------------------------------------------------------
def _daemon() -> SchedulingDaemon:
    """A shard daemon with its service built, not yet started."""
    daemon = SchedulingDaemon(
        [shard_spec()], queue_capacity=4096, batcher=MicroBatcher(), workers=1
    )
    daemon.shards[SHARD].ensure_service()
    return daemon


def _record_decision(obs: Observation, ticket, due: float | None):
    """Account one resolved decision ticket; returns its answer or None.

    ``due`` is the open-loop due time (``None`` for pre-queued requests).
    """
    reply = ticket.result(TICKET_TIMEOUT_S)
    obs.attempted += 1
    if obs.traced and due is not None and reply.status not in (SHED, REJECTED):
        obs.admitted.append(
            (ticket.submitted_wall, ticket.submitted_wall + reply.latency_s)
        )
    if reply.status != ANSWERED:
        obs.failed += 1
        return None
    if due is None:
        obs.op_ms.append(reply.latency_s * 1e3)
    else:
        obs.decide_ms.append((ticket.submitted_wall - due + reply.latency_s) * 1e3)
    return reply.answer


@contextlib.contextmanager
def _precise_sleep():
    """Shrink this thread's timer slack (Linux) while the load thread paces
    arrivals, so that oversleeping adds little to the generator lateness
    every open-loop latency includes.

    Only the calling thread is affected; the shard thread keeps its own.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        previous = libc.prctl(_PR_GET_TIMERSLACK, 0, 0, 0, 0)
    except (OSError, AttributeError):
        previous = -1
    if previous <= 0:
        yield
        return
    libc.prctl(_PR_SET_TIMERSLACK, 1000, 0, 0, 0)  # nanoseconds
    try:
        yield
    finally:
        libc.prctl(_PR_SET_TIMERSLACK, previous, 0, 0, 0)


_PR_SET_TIMERSLACK = 29
_PR_GET_TIMERSLACK = 30


def _open_loop(daemon, events, obs: Observation, client=None) -> None:
    """Submit each event at its due time; latency runs from the due time.

    ``client`` (the booking client) is served between arrivals: the load
    thread waits on its ticket until the next arrival is due, and the
    phase ends once the client's work is done.
    """
    with _precise_sleep():
        _pace(daemon, events, obs, client)


def _pace(daemon, events, obs: Observation, client) -> None:
    start = obs.open_start = time.perf_counter()
    sent = []
    for event in events:
        due = start + event.offset_s
        while True:
            now = time.perf_counter()
            if now >= due:
                break
            if client is None:
                time.sleep(due - now)
            elif client.poll():
                break
            else:
                client.wait(due - now)
        if client is not None and client.poll():
            break
        ticket = daemon.submit(event.shard, event.request)
        obs.lag_ms.append((ticket.submitted_wall - due) * 1e3)
        sent.append((ticket, due))
    while client is not None and not client.poll():
        client.wait(TICKET_TIMEOUT_S)
    for ticket, due in sent:
        answer = _record_decision(obs, ticket, due)
        if answer is not None:
            obs.answered.append((ticket.request, answer))
    obs.window_s += time.perf_counter() - start


def _saturated(daemon, next_round, seconds: float, obs: Observation) -> None:
    """Pre-queue rounds of requests on an unstarted daemon and drain each
    with :meth:`SchedulingDaemon.pump`, until ``seconds`` pass.

    Draining in the calling thread measures admission, micro-batching and
    the service without thread hand-offs.  Only submit-to-drain is timed;
    generating a round is not.
    """
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        requests = next_round()
        t0 = time.perf_counter()
        tickets = daemon.submit_many(SHARD, requests)
        daemon.pump()
        obs.units_wall_s += time.perf_counter() - t0
        for ticket in tickets:
            answer = _record_decision(obs, ticket, None)
            if answer is not None:
                obs.saturated.append((ticket.request, answer))
                obs.units += 1
    obs.window_s += obs.units_wall_s


def _stop(daemon: SchedulingDaemon, obs: Observation) -> None:
    daemon.drain(timeout=TICKET_TIMEOUT_S)
    obs.rss_mb = peak_rss_mb()
    daemon.shutdown()
    obs.daemon = daemon


# -- workloads -----------------------------------------------------------------
class Workload:
    """One named workload: a seeded plan, a set-up and a measured window."""

    name = ""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.params = dict(DEFINITIONS[self.name])
        #: Set for the traced pass: keep per-ticket timings for the layers.
        self.traced = False

    def setup(self):
        """Everything users pay once: worlds, lazy services, warm caches."""
        raise NotImplementedError

    def measure(self, state, setup_times: list) -> Observation:
        """The timed window.  Set-up work it has to repeat (adaptive-run's
        per-run worlds) is appended to ``setup_times``, not timed."""
        raise NotImplementedError

    def digest(self) -> str:
        """Hash of the plan's requests and arrival offsets."""
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Release a set-up that will not be measured."""
        if isinstance(state, SchedulingDaemon):
            state.shutdown()


class DecideCold(Workload):
    """A saturated pre-queued phase, then an open-loop phase.

    The saturated phase runs on its own unstarted daemon (drained by
    ``pump``) and world, so it draws its own stream of the population; the
    open-loop phase runs on a started daemon.
    """

    name = "decide-cold"

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        p = self.params

        def population(seed):
            return BlockPopulation(
                [SHARD], seed=seed, base_at=BASE_AT, step_s=p["step_s"],
                instant_every=p["instant_every"], caps=p["caps"],
            )

        self.open_s = self.seconds * p["open_share"]
        n_open = max(1, int(round(p["rate_hz"] * self.open_s)))
        self.events = stratified_events(population(self.seed), p["rate_hz"], n_open)
        self.saturated_population = population(self.seed + _SATURATED_SEED_OFFSET)

    def saturated_request(self, j: int):
        return self.saturated_population.request(j)[1]

    def digest(self) -> str:
        return _digest(
            [[e.offset_s] + request_key(e.request) for e in self.events]
            + [request_key(self.saturated_request(j)) for j in range(256)]
        )

    def setup(self):
        """``(daemon drained by pump, daemon for the open loop)``."""
        return _daemon(), _daemon()

    def teardown(self, state) -> None:
        for daemon in state:
            daemon.shutdown()

    def measure(self, state, setup_times: list) -> Observation:
        pumped, live = state
        obs = Observation(traced=self.traced)
        rnd = self.params["round"]
        counter = itertools.count()

        def next_round():
            return [self.saturated_request(next(counter)) for _ in range(rnd)]

        _saturated(pumped, next_round, self.seconds - self.open_s, obs)
        pumped.shutdown()
        live.start()
        _open_loop(live, self.events, obs)
        _stop(live, obs)
        return obs


#: Keeps decide-cold's saturated stream apart from its open-loop stream.
_SATURATED_SEED_OFFSET = 1_000_003


class _BookingClient:
    """Closed loop: one reservation in flight; the next is sent on resolve.

    Served from the load thread, so the client adds no thread.
    """

    def __init__(self, daemon, requests, obs: Observation) -> None:
        self.daemon = daemon
        self.pending = list(requests)
        self.obs = obs
        self.ticket = None
        self.t0 = 0.0

    def poll(self) -> bool:
        """Account a resolved booking and send the next; True when done."""
        if self.ticket is not None:
            if not self.ticket.done:
                return False
            reply = self.ticket.result(0)
            obs = self.obs
            obs.attempted += 1
            obs.units_wall_s += time.perf_counter() - self.t0
            if reply.status == BOOKED:
                obs.units += 1
                obs.op_ms.append(reply.latency_s * 1e3)
            else:
                obs.failed += 1
            self.ticket = None
        if not self.pending:
            return True
        self.t0 = time.perf_counter()
        self.ticket = self.daemon.submit_reservation(SHARD, self.pending.pop(0))
        return False

    def wait(self, timeout: float) -> None:
        """Sleep until the booking in flight resolves or ``timeout`` passes."""
        if self.ticket is None:
            time.sleep(timeout)
            return
        with contextlib.suppress(TimeoutError):
            self.ticket.result(timeout)


class ReserveMixed(Workload):
    name = "reserve-mixed"

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        p = self.params
        self.population = BlockPopulation(
            [SHARD], seed=self.seed, base_at=BASE_AT,
            step_s=p["step_s"], instant_every=p["instant_every"], caps=p["caps"],
        )
        self.bookings = seeded_requests(
            max(1, int(round(p["bookings_per_s"] * self.seconds))), seed=self.seed
        )
        # Decisions keep arriving until the last booking resolves; plan
        # for four times the nominal window so the plan never runs dry.
        n_events = max(1, int(round(p["rate_hz"] * self.seconds * 4)))
        self.events = stratified_events(self.population, p["rate_hz"], n_events)

    def digest(self) -> str:
        return _digest(
            [[e.offset_s] + request_key(e.request) for e in self.events]
            + [r.to_json_dict() for r in self.bookings]
        )

    def setup(self):
        daemon = _daemon()
        daemon.shards[SHARD].ensure_reservation_lane()
        daemon.start()
        return daemon

    def measure(self, daemon, setup_times: list) -> Observation:
        obs = Observation(traced=self.traced)
        client = _BookingClient(daemon, self.bookings, obs)
        _open_loop(daemon, self.events, obs, client)
        _stop(daemon, obs)
        obs.ledger = daemon.shards[SHARD].ledger
        return obs


@dataclass(frozen=True)
class RunSpec:
    """One adaptive run: world, problem and check interval."""

    world: str
    world_seed: int
    n: int
    iterations: int
    check_every: int

    def build(self):
        spec = ShardSpec(self.world, _BUILDERS[self.world],
                         seed=self.world_seed, warmup_s=WARMUP_S)
        return spec.build()

    def runner(self, testbed, nws) -> AdaptiveJacobiRunner:
        return AdaptiveJacobiRunner(
            testbed, JacobiProblem(n=self.n, iterations=self.iterations), nws,
            check_every=self.check_every,
        )


class _CallTimer:
    """Record the wall time of every call to ``owner.attr`` while active."""

    def __init__(self, owner, attr: str, sink: list) -> None:
        self.owner, self.attr, self.sink = owner, attr, sink
        self.original = getattr(owner, attr)

    def __enter__(self):
        original, sink = self.original, self.sink
        self.own = isinstance(self.owner, type)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                sink.append((time.perf_counter() - t0) * 1e3)

        setattr(self.owner, self.attr, timed)
        return self

    def __exit__(self, *exc) -> None:
        if self.own:
            setattr(self.owner, self.attr, self.original)
        else:  # drop the instance override; the class method shows again
            delattr(self.owner, self.attr)


class AdaptiveRun(Workload):
    name = "adaptive-run"

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        p = self.params
        self.shapes = list(itertools.product(
            p["worlds"], p["sizes"], p["check_every"]
        ))

    def run_spec(self, j: int) -> RunSpec:
        """Run ``j``: every block of ``len(shapes)`` runs holds each (world,
        size, check interval) entry once, in seeded order, so the run mix
        (nile runs cost about twice sdsc_pcl ones) does not move with the
        seed; each run gets its own seeded world."""
        n = len(self.shapes)
        order = spawn_rng(self.seed, f"adaptive-block:{j // n}").permutation(n)
        world, size, check_every = self.shapes[int(order[j % n])]
        world_seed = int(spawn_rng(self.seed, f"adaptive-world:{j}").integers(0, 10_000))
        return RunSpec(world, world_seed, size, self.params["iterations"], check_every)

    def digest(self) -> str:
        return _digest([vars(self.run_spec(j)) for j in range(256)])

    def setup(self):
        """One run's world; the measured loop builds one per run and
        reports each build as set-up time."""
        return self.run_spec(0).build()

    def measure(self, state, setup_times: list) -> Observation:
        """Whole blocks of runs until ``seconds`` pass, so that every
        measured block holds the same mix of run shapes."""
        obs = Observation()
        decide_ms = obs.decide_ms
        start = time.perf_counter()
        end = start + self.seconds
        j = 0
        with _CallTimer(RepairSweep, "decide", decide_ms):
            while time.perf_counter() < end:
                for _ in self.shapes:
                    spec = self.run_spec(j)
                    j += 1
                    t0 = time.perf_counter()
                    testbed, nws = state if j == 1 else spec.build()
                    t1 = time.perf_counter()
                    if j > 1:
                        setup_times.append(t1 - t0)
                    runner = spec.runner(testbed, nws)
                    with _CallTimer(runner.agent, "schedule", decide_ms):
                        result = runner.run(t0=WARMUP_S)
                    wall = time.perf_counter() - t1
                    obs.attempted += 1
                    obs.units += 1
                    obs.units_wall_s += wall
                    obs.op_ms.append(wall * 1e3)
                    obs.runs.append((spec, result))
        obs.window_s = time.perf_counter() - start
        obs.rss_mb = peak_rss_mb()
        return obs

    def teardown(self, state) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (DecideCold, ReserveMixed, AdaptiveRun)}


def solo_vs_batch(requests, batch: int = 64) -> dict:
    """Re-answer one multiset two ways on identical fresh worlds.

    Batch-``batch`` :meth:`SchedulingService.decide` against a loop of solo
    :meth:`AppLeSAgent.schedule` calls, each arm timed from a world already
    advanced to the first instant.  Returns both bases and the answers.
    """
    from repro.jacobi.apples import make_jacobi_agent
    from repro.service import ServiceAnswer

    testbed, nws = shard_spec().build()
    nws.advance_to(requests[0].at)
    service = SchedulingService(testbed, nws)
    t0 = time.perf_counter()
    batched = []
    for k in range(0, len(requests), batch):
        batched.extend(service.decide(requests[k:k + batch]))
    batch_s = time.perf_counter() - t0

    testbed, nws = shard_spec().build()
    nws.advance_to(requests[0].at)
    t0 = time.perf_counter()
    solo = []
    for r in requests:
        if r.at > nws.now:
            nws.advance_to(r.at)
        agent = make_jacobi_agent(
            testbed, r.problem, nws, userspec=r.userspec,
            account_memory=r.account_memory,
        )
        solo.append(ServiceAnswer.from_decision(agent.schedule(), at=r.at))
    solo_s = time.perf_counter() - t0
    return {"batch_s": batch_s, "solo_s": solo_s, "batched": batched, "solo": solo}


__all__ = [
    "DEFINITIONS",
    "WORKLOADS",
    "Observation",
    "RunSpec",
    "percentile",
    "peak_rss_mb",
    "shard_spec",
    "request_key",
    "solo_vs_batch",
]
