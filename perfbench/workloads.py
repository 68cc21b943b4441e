"""The benchmark's three workloads: seeded deployments, timed passes, checks.

Every workload places ``nodes`` sensors plus a root on the paper's
200 m x 200 m field with a 35 m radio range and drives the package only
through the names it exports.  One *pass* runs every cell of the workload
once (a cell is one algorithm run, or one serving run, on one deployment);
the benchmark repeats passes until its time is up.  All inputs derive
from ``(seed, deployment, stream)``, so a pass is fully determined by the
seed: every pass of a run must reproduce the first pass's fingerprint.

Per-round host time is taken from the benchmark's own calls: the
``values`` provider handed to ``SimulationRunner.run`` (one round runs
from one provider call to the next) and each ``step`` of the other
runners.  Output checks run outside every timed region.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro import (
    HBC,
    IQ,
    POS,
    TAG,
    LCLLHierarchical,
    LCLLSlip,
    QuerySpec,
    SimulationRunner,
    SyntheticWorkload,
    TreeNetwork,
    build_routing_tree,
    connected_random_graph,
    exact_quantile,
    quantile_rank,
)
from repro.faults import (
    ArqPolicy,
    FaultDriver,
    FaultPlan,
    IndependentLoss,
    RandomOutages,
    ScheduledChurn,
)
from repro.serving import (
    GroupByQuery,
    MultiQueryRunner,
    PhiQuery,
    QueryRegistry,
    RangeQuery,
)

FIELD_SIDE_M = 200.0
RADIO_RANGE_M = 35.0

#: The paper's line-up (Section 5.1.6), in the order the passes run it.
ALGORITHMS = (
    ("TAG", TAG),
    ("POS", POS),
    ("LCLL-H", LCLLHierarchical),
    ("LCLL-S", LCLLSlip),
    ("HBC", HBC),
    ("IQ", IQ),
)

# Independent random streams of one deployment, derived from the seed.
STREAMS = ("deployment", "dataset", "faults", "failover")


def stream(seed: int, deployment: int, kind: str, cell: int = 0) -> np.random.Generator:
    """The generator of one named stream of one deployment (and cell)."""
    return np.random.default_rng((seed, deployment, STREAMS.index(kind), cell))


@dataclass
class Deployment:
    """One seeded deployment: graph, min-hop tree and synthetic dataset."""

    index: int
    graph: object
    tree: object
    workload: SyntheticWorkload
    spec: QuerySpec


def deploy(seed: int, index: int, nodes: int) -> Deployment:
    """Sample a connected deployment of ``nodes`` sensors plus the root."""
    graph = connected_random_graph(
        nodes + 1, RADIO_RANGE_M, stream(seed, index, "deployment"), area_side=FIELD_SIDE_M
    )
    tree = build_routing_tree(graph, root=0)
    workload = SyntheticWorkload(graph.positions, stream(seed, index, "dataset"))
    spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
    return Deployment(index, graph, tree, workload, spec)


@dataclass
class Sim:
    """Simulated quantities of one pass (identical on every pass of a seed)."""

    rounds: int = 0
    trustworthy_rounds: int = 0
    energy_j: float = 0.0
    hotspot_j: float = 0.0
    bits_sent: int = 0
    lost_frames: int = 0
    retransmissions: int = 0
    data_frames: int = 0
    ok_frames: int = 0
    reinits: int = 0
    failovers: int = 0
    reattaches: int = 0
    degraded_rounds: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def add_ledger(self, ledger) -> None:
        self.energy_j += float(ledger.energy.sum())
        self.hotspot_j += ledger.max_mean_round_energy()
        self.bits_sent += int(ledger.bits_sent.sum())

    def add_driver(self, driver: FaultDriver) -> None:
        self.add_ledger(driver.ledger)
        net = driver.net
        self.lost_frames += net.lost_transmissions
        self.retransmissions += net.retransmissions
        # With ARQ on, every data frame that arrives is acknowledged once.
        self.data_frames += net.lost_transmissions + net.acks_sent
        self.ok_frames += net.acks_sent
        self.reinits += driver.reinits
        self.failovers += driver.failover.count
        self.degraded_rounds += driver.degraded_rounds
        if driver.repair is not None:
            self.reattaches += driver.repair.stats.reattach_count


@dataclass
class Recorder:
    """Round and read timings of one pass, plus its checks and digest."""

    tracer: object = None
    rounds: list = field(default_factory=list)  # [cell, index, seconds, reinit]
    reads: list = field(default_factory=list)  # seconds per history read
    busy: float = 0.0  # host seconds in the workload's own calls
    busy_refs: float = 0.0  # ``busy`` in reference intervals, cell by cell
    setup_refs: list = field(default_factory=list)  # per deployment, in reference intervals
    attempted: int = 0
    failed: int = 0
    sim: Sim = field(default_factory=Sim)
    _digest: object = field(default_factory=hashlib.sha256)
    _cell: str = ""
    _index: int = 0
    _start: float | None = None

    def cell(self, name: str) -> None:
        self._cell = name
        if self.tracer is not None:
            self.tracer.cell = name

    def begin(self, index: int) -> None:
        """Open round ``index``; closes the previous round if still open."""
        now = perf_counter()
        if self._start is not None:
            self._finish(now)
        self._index, self._start = index, now
        if self.tracer is not None:
            self.tracer.begin_round(index, now)

    def end(self) -> float:
        """Close the open round; returns its host seconds."""
        return self._finish(perf_counter())

    def _finish(self, now: float) -> float:
        if self.tracer is not None:
            self.tracer.end_round(now)
        seconds = now - self._start
        self.rounds.append([self._cell, self._index, seconds, False])
        self._start = None
        return seconds

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def feed(self, *parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                self._digest.update(np.ascontiguousarray(part).tobytes())
            else:
                self._digest.update(repr(part).encode())

    def feed_ledger(self, ledger, phase_bits) -> None:
        self.feed(
            ledger.energy,
            ledger.bits_sent,
            ledger.bits_received,
            ledger.messages_sent,
            ledger.messages_received,
            ledger.values_sent,
            sorted(phase_bits.items()),
        )

    @property
    def fingerprint(self) -> str:
        return self._digest.hexdigest()[:16]


class Workload:
    """Base: ``deployments`` seeded deployments, each set up afresh per pass."""

    name = ""
    nodes = 0
    deployments = 0
    rounds = 0

    def __init__(self, seed: int, **sizes) -> None:
        self.seed = seed
        for key, value in sizes.items():
            if not hasattr(type(self), key):
                raise TypeError(f"unknown workload size {key!r}")
            setattr(self, key, value)

    def cells(self, index: int) -> list:
        """Set up deployment ``index``: build it and its cells for one pass."""
        return self.build(deploy(self.seed, index, self.nodes))

    def build(self, dep: Deployment) -> list:
        raise NotImplementedError

    def drive(self, cell, rec: Recorder) -> None:
        raise NotImplementedError


class CleanLineup(Workload):
    """``clean-1k``: the six paper algorithms on a reliable network."""

    name = "clean-1k"
    nodes = 1000
    deployments = 6
    rounds = 12

    def build(self, dep: Deployment) -> list:
        runner = SimulationRunner(dep.tree, RADIO_RANGE_M, check=False, network_factory=_Capture())
        return [(dep, runner, name, factory(dep.spec)) for name, factory in ALGORITHMS]

    def drive(self, cell, rec: Recorder) -> None:
        dep, runner, name, algorithm = cell
        rec.cell(name)
        seen: list[np.ndarray] = []

        def provider(round_index: int) -> np.ndarray:
            rec.begin(round_index)
            values = dep.workload.values(round_index)
            seen.append(values)
            return values

        start = perf_counter()
        result = runner.run(algorithm, provider, self.rounds)
        rec.end()
        rec.busy += perf_counter() - start

        ledger, net = runner.network_factory.last
        sensors = np.asarray(dep.tree.sensor_nodes)
        k = quantile_rank(len(sensors), dep.spec.phi)
        answers = result.quantile_series
        for values, answer in zip(seen, answers):
            rec.check(answer == exact_quantile(values[sensors], k))
        rec.check(len(answers) == self.rounds)
        rec.sim.rounds += len(answers)
        rec.sim.trustworthy_rounds += len(answers)  # a reliable network never degrades
        rec.sim.add_ledger(ledger)
        rec.feed(name, dep.index, answers)
        rec.feed_ledger(ledger, net.phase_bits)


class _Capture:
    """Network factory that keeps the run's ledger for the fingerprint."""

    last = None

    def __call__(self, tree, ledger) -> TreeNetwork:
        net = TreeNetwork(tree, ledger)
        self.last = (ledger, net)
        return net


def fault_plan(seed: int, dep: Deployment, cell: int, rounds: int, outage_rate: float) -> FaultPlan:
    """Loss 0.05, transient outages and one sink kill in the middle."""
    return FaultPlan(
        loss=IndependentLoss(0.05),
        churn=ScheduledChurn({rounds // 2: (dep.tree.root,)}),
        outages=RandomOutages(outage_rate, mean_downtime=3),
        rng=stream(seed, dep.index, "faults", cell),
    )


class FaultLineup(Workload):
    """``faults-1k``: the same line-up under loss, ARQ, outages, a sink kill."""

    name = "faults-1k"
    nodes = 1000
    deployments = 4
    rounds = 10

    def build(self, dep: Deployment) -> list:
        cells = []
        for index, (name, factory) in enumerate(ALGORITHMS):
            driver = FaultDriver(
                factory,
                dep.spec,
                dep.tree,
                dep.workload,
                fault_plan(self.seed, dep, index, self.rounds, 0.002),
                ArqPolicy(max_retries=2),
                graph=dep.graph,
                repair_metric="etx",
                failover_rng=stream(self.seed, dep.index, "failover", index),
            )
            cells.append((dep, name, driver))
        return cells

    def drive(self, cell, rec: Recorder) -> None:
        dep, name, driver = cell
        rec.cell(name)
        reports = []
        for round_index in range(self.rounds):
            rec.begin(round_index)
            report = driver.step(round_index)
            rec.busy += rec.end()
            reports.append(report)
            rec.rounds[-1][3] = report is not None and report.reinitialized

        rec.check(all(report is not None for report in reports))
        reports = [report for report in reports if report is not None]
        rec.sim.rounds += len(reports)
        rec.sim.trustworthy_rounds += sum(report.trustworthy for report in reports)
        rec.sim.add_driver(driver)
        rec.feed(
            name,
            dep.index,
            [(r.answer, r.trustworthy, r.degraded_reason, r.reinitialized) for r in reports],
            driver.net.lost_transmissions,
            driver.net.retransmissions,
        )
        rec.feed_ledger(driver.ledger, driver.net.phase_bits)
        self._check_answers(dep, reports, rec)

    @staticmethod
    def _check_answers(dep: Deployment, reports: list, rec: Recorder) -> None:
        """Trustworthy rounds must equal the oracle over the participants."""
        for report in reports:
            if report.trustworthy:
                members = list(report.participating)
                values = dep.workload.values(report.round_index)
                k = quantile_rank(len(members), dep.spec.phi)
                rec.check(report.answer == exact_quantile(values[members], k))


def quadrant(vertex: int, position) -> str:
    """Group-by region: the quarter of the field a sensor stands in."""
    half = FIELD_SIDE_M / 2
    return ("S" if position[1] < half else "N") + ("W" if position[0] < half else "E")


#: Every this many rounds the range query is deregistered or registered again.
CHURN_EVERY = 10
WINDOWS = (8, 32)
HALF_LIFE = 8.0
#: The ``at_round`` panel asks for the value observed this many absorbed
#: rounds back, which the ring always still holds.
AT_ROUND_BACK = 4


class Serving(Workload):
    """``serving-300``: multi-query serving with a dashboard reading history."""

    name = "serving-300"
    nodes = 300
    deployments = 8
    rounds = 24

    def build(self, dep: Deployment) -> list:
        span = dep.spec.r_max - dep.spec.r_min
        band = RangeQuery("band", dep.spec.r_min + span // 4, dep.spec.r_min + 3 * span // 4)
        registry = QueryRegistry()
        registry.register(PhiQuery("grid", phis=(0.5, 0.9, 0.95, 0.99)))
        registry.register(GroupByQuery("quadrants", assign=quadrant))
        registry.register(band)
        runner = MultiQueryRunner(
            registry,
            dep.spec,
            dep.tree,
            dep.workload,
            fault_plan(self.seed, dep, 0, self.rounds, 0.005),
            ArqPolicy(max_retries=2),
            graph=dep.graph,
            failover_rng=stream(self.seed, dep.index, "failover"),
        )
        return [(dep, runner, band)]

    def drive(self, cell, rec: Recorder) -> None:
        dep, runner, band = cell
        rec.cell("serving")
        store = runner.history
        observed: dict[tuple[str, str], list[tuple[int, float]]] = {}
        answers_seen = []
        for round_index in range(self.rounds):
            rec.begin(round_index)
            if round_index % CHURN_EVERY == CHURN_EVERY // 2:
                if band.name in runner.registry:
                    runner.deregister(band.name)
                else:
                    runner.register(band)
            served = runner.step(round_index)
            rec.busy += rec.end()
            if served is None:
                rec.check(False)
                break
            rec.rounds[-1][3] = served.report.reinitialized
            rec.sim.rounds += 1
            rec.sim.trustworthy_rounds += served.report.trustworthy
            for answer in served.answers:
                answers_seen.append(
                    (answer.query, answer.round_index, answer.trustworthy, answer.reason,
                     tuple((i.label, i.value, i.lo, i.hi) for i in answer.items))
                )
                for item in answer.items:
                    if answer.trustworthy and item.oracle_error is not None:
                        rec.check(item.oracle_error <= answer.rank_error_budget)
                    if answer.reason != "degraded" and item.value is not None:
                        key = (answer.query, item.label)
                        observed.setdefault(key, []).append((answer.round_index, float(item.value)))
            reads = []
            for query in runner.registry.queries:
                labels = store.labels(query.name) if query.name in store.queries() else ()
                for label in labels:
                    seen = observed[(query.name, label)]
                    reads += self._dashboard(store, query.name, label, seen, rec)
            for read, expected in reads:
                rec.check(expected is None or _agrees(read, expected))

        for stats in store.cache_stats():
            rec.sim.cache_hits += stats.hits
            rec.sim.cache_misses += stats.misses
        rec.sim.add_driver(runner.driver)
        rec.feed(dep.index, answers_seen)
        rec.feed_ledger(runner.driver.ledger, runner.driver.net.phase_bits)

    @staticmethod
    def _dashboard(store, query: str, label: str, seen: list, rec: Recorder) -> list:
        """One panel refresh: cold reads, then the same panels again (cached).

        Returns (read, expected) pairs; ``expected`` is the brute-force
        answer recomputed from the answers the benchmark observed, or
        ``None`` for reads it does not check (decayed).
        """
        ring = seen[-store.window_capacity :]
        target_round = ring[max(0, len(ring) - 1 - AT_ROUND_BACK)][0]
        expect_latest = ("latest", ring[-1][1], ring[-1][0])
        expect_window = {
            n: ("window", float(np.quantile([v for _, v in ring[-n:]], 0.5)), ring[-1][0])
            for n in WINDOWS
        }
        at_value = next(v for r, v in reversed(ring) if r <= target_round)
        expect_at = ("at-round", at_value, target_round)
        calls = [
            (lambda: store.latest(query, label), expect_latest),
            *((lambda n=n: store.window(query, n, label), expect_window[n]) for n in WINDOWS),
            (lambda: store.decayed(query, HALF_LIFE, label), None),
            (lambda: store.at_round(query, target_round, label), expect_at),
            *((lambda n=n: store.window(query, n, label), expect_window[n]) for n in WINDOWS),
            (lambda: store.decayed(query, HALF_LIFE, label), None),
        ]
        out = []
        for call, expected in calls:
            start = perf_counter()
            read = call()
            elapsed = perf_counter() - start
            rec.reads.append(elapsed)
            rec.busy += elapsed
            out.append((read, expected))
        return out


def _agrees(read, expected) -> bool:
    op, value, round_index = expected
    if read.op != op or read.round_index != round_index:
        return False
    if op == "window":
        return abs(read.value - value) <= 1e-9 * max(1.0, abs(value))
    return read.value == value


WORKLOADS = {cls.name: cls for cls in (CleanLineup, FaultLineup, Serving)}
