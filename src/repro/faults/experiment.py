"""The fault study: accuracy, recovery and energy under injected faults.

This generalizes the Section-6 loss study (only the exact algorithms under
i.i.d. convergecast loss, which ``repro loss`` still prints) along three
axes:

* **algorithms** — every algorithm runs, including the sketch track
  (``SK1``/``SKQ``), whose rank bounds widen gracefully when subtrees go
  missing instead of silently pretending full coverage;
* **faults** — i.i.d. loss, Gilbert–Elliott burst loss, permanent node
  churn and *transient outages* (nodes that go down and come back), all
  through one :class:`~repro.faults.plan.FaultPlan`;
* **recovery** — per-hop ARQ with a static or per-link *adaptive* retry
  budget (:class:`~repro.faults.network.ArqPolicy` /
  :class:`~repro.faults.network.AdaptiveArqPolicy`), energy charged per
  attempt; tree repair (:class:`~repro.faults.repair.TreeRepair`) that
  re-attaches orphaned subtrees and patches the query membership instead
  of restarting; and a root-side
  :class:`~repro.faults.watchdog.RootWatchdog` as the last resort, its
  re-initializations *measured* (the TAG re-init broadcast + convergecast
  is charged to the ledger in the round it happens) instead of unhandled
  exceptions.

The round loop lives in :class:`FaultDriver` so tests can drive it one
round at a time — the differential invariant harness in ``tests/helpers.py``
steps a driver and checks the root's answer against an oracle on every
*trustworthy* round (see :attr:`RoundReport.trustworthy`).

Per (algorithm, loss rate, retry budget) cell the study reports the
exact-answer fraction, mean rank/value error against the *live* population,
protocol-failure, re-initialization and re-attach counts, repair energy,
full-collection delivery coverage, and the hotspot (max per-node mean
round) energy — the columns ``repro faults`` and
``benchmarks/bench_faults.py`` print.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.synthetic import SyntheticWorkload
from repro.errors import ConfigurationError, ProtocolError
from repro.experiments.config import AlgorithmFactory, sketch_algorithms
from repro.faults.network import (
    AdaptiveArqPolicy,
    ArqPolicy,
    FaultyTreeNetwork,
)
from repro.faults.failover import FailoverEvent, RootFailover
from repro.faults.plan import (
    CompositeChurn,
    FaultPlan,
    GilbertElliottLoss,
    IndependentLoss,
    LinkLossModel,
    RandomChurn,
    RandomOutages,
    ScheduledChurn,
)
from repro.faults.repair import RepairRound, TreeRepair
from repro.faults.watchdog import RootWatchdog
from repro.network.routing import (
    build_randomized_routing_tree,
    build_routing_tree,
)
from repro.network.topology import PhysicalGraph, connected_random_graph
from repro.network.tree import RoutingTree
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger
from repro.sim.oracle import exact_quantile, insertion_rank_error, quantile_rank
from repro.sim.runner import finite_values
from repro.types import QuerySpec, RoundOutcome


def fault_lineup(sketch_eps: float = 0.05) -> dict[str, AlgorithmFactory]:
    """All exact algorithms plus both sketch variants at one error budget."""
    from repro.experiments.config import default_algorithms

    lineup = default_algorithms()
    lineup.update(
        sketch_algorithms((sketch_eps,), kind="qdigest", gated=True, one_shot=True)
    )
    return lineup


@dataclass(frozen=True)
class FaultSeriesPoint:
    """Per-(algorithm, loss rate, retry budget) outcome of the fault study."""

    algorithm: str
    loss_rate: float
    #: Static retry budget, or ``"adp"`` for the adaptive per-link policy.
    retries: int | str
    churn_rate: float
    rounds: int
    exact_fraction: float
    mean_rank_error: float
    mean_value_error: float
    #: Query re-initializations actually executed (and charged).
    reinit_count: int
    #: Fraction of rounds whose protocol state broke down (exceptions).
    failure_rate: float
    #: Mean delivered coverage over full-collection convergecasts.
    delivered_fraction: float
    #: Max per-sensor mean round energy [mJ] — the hotspot that dies first.
    hotspot_energy_mj: float
    lost_transmissions: int
    retransmissions: int
    #: Sensors not permanently dead after the last round.
    survivors: int
    #: Orphaned subtrees successfully re-attached by the repair layer.
    reattach_count: int = 0
    #: Watchdog re-initializations cancelled because a repair landed first.
    cancelled_reinits: int = 0
    #: Energy [mJ] spent on repair traffic (probes, adopts, reports).
    repair_energy_mj: float = 0.0
    #: Per-round probability of a transient outage starting.
    transient_rate: float = 0.0
    #: Tree rotations performed (load balancing under faults).
    rotations: int = 0
    #: Rounds served in DEGRADED state (no participating sensor; the root
    #: answered with the last trustworthy value, flagged untrustworthy).
    degraded_rounds: int = 0
    #: Parked orphans whose partition healed on a later round's re-probe
    #: (re-attached, or the old parent recovered) — re-inits avoided.
    healed_partitions: int = 0
    #: Orphan-rounds spent parked (duty-cycled, awaiting a heal).
    parked_orphan_rounds: int = 0
    #: Energy [mJ] spent on re-initialization traffic, attempts that
    #: drowned included.
    reinit_energy_mj: float = 0.0
    #: Root fail-overs executed (successor elected, tree re-rooted).
    failovers: int = 0
    #: Energy [mJ] spent on fail-over traffic (election + state hand-over).
    failover_energy_mj: float = 0.0


@dataclass
class FaultExperimentResult:
    """All cells of the fault study."""

    points: list[FaultSeriesPoint]

    def series(self, algorithm: str) -> list[FaultSeriesPoint]:
        """One algorithm's cells, ordered by (loss rate, retry budget)."""
        selected = [p for p in self.points if p.algorithm == algorithm]
        return sorted(selected, key=lambda p: (p.loss_rate, str(p.retries)))

    def cell(
        self, algorithm: str, loss_rate: float, retries: int | str
    ) -> FaultSeriesPoint:
        """The single cell for one (algorithm, loss, retries) setting."""
        for point in self.points:
            if (
                point.algorithm == algorithm
                and point.loss_rate == loss_rate
                and point.retries == retries
            ):
                return point
        raise KeyError(f"no cell ({algorithm!r}, {loss_rate}, {retries})")


@dataclass(frozen=True)
class RoundReport:
    """What one driver round produced (for tests and invariant harnesses)."""

    round_index: int
    #: The root's answer this round (None only while initialization drowns
    #: or the run degrades before ever initializing).
    answer: int | None
    #: Sensors that are up this round.
    live: tuple[int, ...]
    #: Sensors the root's query currently covers (live minus detached).
    participating: tuple[int, ...]
    reinitialized: bool
    failed: bool
    #: The repair pass, when a repair layer is attached.
    repair: RepairRound | None
    #: True when the root's state is provably in sync: initialized, every
    #: convergecast since the last (re-)initialization delivered fully, no
    #: protocol failure this round, and the root's membership view matches
    #: physical reachability.  On trustworthy rounds an *exact* algorithm's
    #: answer must equal the oracle over the participating population.
    trustworthy: bool
    #: True when the query had no participating sensor this round: the
    #: algorithm did not run and ``answer`` is the last trustworthy answer
    #: the root still holds (stale by construction).
    degraded: bool = False
    #: Why the round degraded — ``"all-sensors-down"`` (nothing is up),
    #: ``"no-participants"`` (sensors are up but all detached, e.g. parked
    #: behind an unhealed partition), or ``"root-down"`` (the sink is lost
    #: and no fail-over could run yet: outage grace, or no live successor).
    #: ``None`` on normal rounds.
    degraded_reason: str | None = None
    #: The root fail-over executed this round, if any.
    failover: FailoverEvent | None = None


class FaultDriver:
    """One algorithm's round loop under a fault plan, steppable by tests.

    Owns the network, ledger, watchdog and (optionally) the tree-repair
    layer, and reproduces the recovery policy of the fault study:

    1. at round start the repair layer re-attaches orphans and patches the
       query membership (detach/rejoin);
    2. a repair fallback (orphan with no candidate parent) or a watchdog
       recommendation schedules a re-initialization; a successful re-attach
       *cancels* a pending watchdog re-init (the repair already fixed what
       the watchdog noticed);
    3. :class:`~repro.errors.ProtocolError` re-initializes immediately,
       charged in the same round;
    4. when churn leaves the query with *no* participating sensor the
       driver enters the DEGRADED state instead of raising: the algorithm
       is skipped, the root serves the last trustworthy answer
       (``RoundReport.degraded`` + reason, ``trustworthy=False``), and a
       re-initialization is scheduled so exact tracking resumes on its own
       as soon as any sensor becomes reachable again.  The loop stops only
       when every sensor is *permanently* dead.

    The coarse driver state is exposed as :attr:`state` — ``"init"``
    before the first successful initialization, then ``"tracking"`` or
    ``"degraded"`` per round.

    ``rotate_every`` adds fault-aware tree rotation on top: every that many
    rounds a fresh randomized min-hop tree is sampled over the *full* graph
    (currently-down vertices avoided as parents, sampling ETX-biased when
    ``repair_metric="etx"``) and swapped in without touching the algorithm —
    the continuous state is value-domain, so rotation needs no re-init, and
    membership (detached sensors) carries straight over.  Rotation runs
    before the repair pass, so a rotation that had no choice but to parent
    someone under a down vertex is patched by the same round's repair.
    """

    def __init__(
        self,
        factory: AlgorithmFactory,
        spec: QuerySpec,
        tree: RoutingTree,
        workload: SyntheticWorkload,
        plan: FaultPlan,
        arq: ArqPolicy | None = None,
        *,
        graph: PhysicalGraph | None = None,
        repair: bool = True,
        radio_range: float = 35.0,
        watchdog_patience: int = 2,
        repair_metric: str = "etx",
        rotate_every: int = 0,
        rotate_rng: np.random.Generator | None = None,
        heal_patience: int = 1,
        root_grace: int = 1,
        failover_rng: np.random.Generator | None = None,
    ) -> None:
        if rotate_every < 0:
            raise ConfigurationError(
                f"rotate_every must be >= 0, got {rotate_every}"
            )
        if rotate_every > 0 and graph is None:
            raise ConfigurationError(
                "tree rotation needs the physical graph (pass graph=...)"
            )
        self.factory = factory
        self.spec = spec
        self.workload = workload
        self.graph = graph
        self.repair_metric = repair_metric
        self.rotate_every = rotate_every
        self._rotate_rng = (
            rotate_rng
            if rotate_rng is not None
            else np.random.default_rng(20140324)
        )
        self.rotations = 0
        self.ledger = EnergyLedger(
            tree.num_vertices, tree.root, EnergyModel(), radio_range
        )
        self.net = FaultyTreeNetwork(tree, self.ledger, plan=plan, arq=arq)
        self.watchdog = RootWatchdog(tree, patience=watchdog_patience)
        self.repair: TreeRepair | None = None
        if repair and graph is not None:
            self.repair = TreeRepair(
                graph,
                self.net,
                self.watchdog,
                parent_metric=repair_metric,
                heal_patience=heal_patience,
            )
        self.failover = RootFailover(
            self.net,
            graph,
            grace=root_grace,
            rng=(
                failover_rng
                if failover_rng is not None
                else np.random.default_rng(20140324)
            ),
        )
        #: Extra root-side state (beyond the algorithm's own) a successor
        #: sink must inherit on fail-over.  Each entry is a zero-argument
        #: callable returning a size in bits; the serving runner registers
        #: its cached answers and history summaries here.
        self.handover_state_providers: list = []
        self.algorithm = factory(spec)
        self.last_answer: int | None = None
        self.reinits = 0
        self.cancelled_reinits = 0
        self.failures = 0
        self.exact = 0
        self.rounds_run = 0
        self.degraded_rounds = 0
        self.reinit_energy_j = 0.0
        self.rank_errors: list[int] = []
        self.value_errors: list[int] = []
        self.coverages: list[float] = []
        self.state = "init"
        self._initialized = False
        self._scheduled_reinit = False
        self._tainted = False
        self._last_trustworthy_answer: int | None = None

    # -- membership views -----------------------------------------------------

    def participating(self, live: tuple[int, ...]) -> tuple[int, ...]:
        """Live sensors the root's query currently covers (``live``
        ascending, as :meth:`~FaultyTreeNetwork.live_sensor_nodes` gives
        them)."""
        if self.repair is None or not self.repair.detached:
            return live
        covered = np.zeros(self.net.tree.num_vertices, dtype=bool)
        covered[list(live)] = True
        covered[list(self.repair.detached)] = False
        return tuple(np.flatnonzero(covered).tolist())

    # -- fault-aware rotation -------------------------------------------------

    def _rotate(self) -> None:
        """Swap in a fresh randomized min-hop tree, faults taken into account.

        Down vertices are avoided as parents (not excluded — a vertex whose
        candidates are all down gets orphaned either way and the repair pass
        re-attaches or detaches it this same round), and with the ETX metric
        the parent sampling is biased away from links observed to drop
        frames.  The algorithm state is untouched: filters and counters are
        value-domain, so nodes merely adopt new parents.  The watchdog is
        retargeted because its branch bookkeeping refers to the old tree.
        """
        assert self.graph is not None
        root = self.net.tree.root
        down = self.net._down_mask()
        avoid = (
            frozenset()
            if down is None
            else frozenset(np.flatnonzero(down).tolist()) - {root}
        )
        link_stats = (
            self.net.link_stats if self.repair_metric == "etx" else None
        )
        tree = build_randomized_routing_tree(
            self.graph,
            self._rotate_rng,
            root=root,
            link_stats=link_stats,
            avoid=avoid,
        )
        self.net.retarget(tree)
        self.rotations += 1
        members = (
            self.repair.reachable_sensors()
            if self.repair is not None
            else tree.sensor_nodes
        )
        self.watchdog.retarget(tree, members)

    # -- the round loop -------------------------------------------------------

    def step(self, round_index: int) -> RoundReport | None:
        """Run one round; ``None`` means every sensor is permanently dead.

        A round with *no participating sensor* (all down, or all detached
        behind unhealed partitions) is served in DEGRADED state: the
        algorithm is skipped, the root answers with the last trustworthy
        value, and a re-initialization is scheduled for the first round
        with anyone to plant the query on.
        """
        net = self.net
        net.begin_faults_round(round_index)
        plan = net.plan
        sensors = net.tree.sensor_mask
        if sum(1 for v in plan.dead if sensors[v]) == net.tree.num_sensor_nodes:
            # Permanent churn killed everyone; nothing can ever come back,
            # so there is no degraded service to provide — stop the loop.
            return None
        live = net.live_sensor_nodes()
        if (
            live
            and self.rotate_every
            and round_index
            and round_index % self.rotate_every == 0
        ):
            self._rotate()
        values = finite_values(self.workload.values(round_index), round_index)
        self.ledger.begin_round()
        log_start = len(net.collection_log)
        failed = reinitialized = False
        degraded_reason: str | None = None
        repair_record: RepairRound | None = None
        # Root fail-over runs before the repair pass: repair's reachability
        # walk assumes a live root, and the old root's orphaned children
        # are picked up by this same round's ordinary repair.
        root_down_reason: str | None = None
        failover_event = self.failover.maybe_failover(
            round_index,
            self.algorithm,
            repair=self.repair,
            watchdog=self.watchdog,
            state_providers=self.handover_state_providers,
        )
        if failover_event is not None:
            # The sensor set changed (old sink demoted, successor
            # promoted) — recompute who is up on the new tree.
            live = net.live_sensor_nodes()
        elif self.failover.root_unavailable() is not None:
            # The sink is lost but no fail-over could run yet (outage
            # grace, or no live successor): nothing can collect or report
            # this round.
            root_down_reason = "root-down"
        try:
            if self.repair is not None and root_down_reason is None:
                repair_record = self.repair.repair_round(self.algorithm, values)
                if repair_record.fallback:
                    # An orphan's heal_patience expired with no parent in
                    # range: only a watchdog-style re-init resynchronizes.
                    self._scheduled_reinit = True
                elif self._scheduled_reinit and repair_record.reattached:
                    # The repair restored the very subtree the watchdog was
                    # complaining about — don't also re-initialize on top.
                    self._scheduled_reinit = False
                    self.cancelled_reinits += 1
            participating = self.participating(live)
            if root_down_reason is not None:
                # DEGRADED, but the continuous state is *not* stale logic:
                # the sensors kept their filters, the root its counters —
                # no re-init is scheduled.  Tracking resumes as soon as
                # the root recovers or a fail-over lands.
                degraded_reason = root_down_reason
            elif not participating:
                # DEGRADED: churn detached the last participating sensor
                # (or everyone is down).  Skip the algorithm — there is no
                # answerable rank — and re-initialize once someone is back.
                degraded_reason = (
                    "all-sensors-down" if not live else "no-participants"
                )
                self._scheduled_reinit = True
            elif not self._initialized or self._scheduled_reinit:
                if round_index > 0:
                    self.algorithm = self.factory(self.spec)
                    reinitialized = True
                if self.repair is not None:
                    self.repair.resync_after_reinit(self.algorithm)
                    participating = self.participating(live)
                outcome = self._initialize(values, booked=reinitialized)
                if reinitialized:
                    # Counted once it completed, like the same-round retry
                    # below, which counts a drowned attempt in its place.
                    self.reinits += 1
                self._initialized = True
                self._scheduled_reinit = False
                self._tainted = False
                self.last_answer = outcome.quantile
            else:
                outcome = self.algorithm.update(net, values)
                self.last_answer = outcome.quantile
        except ProtocolError:
            # Loss/churn drove the protocol state into an impossible
            # configuration.  Re-synchronize from scratch *in this round*:
            # the re-init broadcast + convergecast is real traffic and is
            # charged to the open ledger round like everything else.
            failed = True
            if (
                repair_record is None
                and self.repair is not None
                and root_down_reason is None
            ):
                # A membership hook raised inside the repair pass, which
                # booked what it had done before re-raising.
                repair_record = self.repair.stats.rounds[-1]
            self.failures += 1
            # The raising hook may have run after the membership changed.
            participating = self.participating(live)
            if not participating:
                # Even recovery has nobody to replant the query on.  Keep
                # the (broken) algorithm for membership patching, degrade,
                # and re-initialize when a sensor becomes reachable.
                degraded_reason = (
                    "all-sensors-down" if not live else "no-participants"
                )
                self._initialized = False
                self._scheduled_reinit = True
            else:
                self.algorithm = self.factory(self.spec)
                if self.repair is not None:
                    self.repair.resync_after_reinit(self.algorithm)
                    participating = self.participating(live)
                try:
                    outcome = self._initialize(values, booked=True)
                    self.reinits += 1
                    reinitialized = True
                    self._initialized = True
                    self._scheduled_reinit = False
                    self._tainted = False
                    self.last_answer = outcome.quantile
                except ProtocolError:
                    self._scheduled_reinit = True  # even the re-init drowned
        self.ledger.end_round()
        self.rounds_run += 1

        degraded = degraded_reason is not None
        if degraded:
            self.degraded_rounds += 1
            if self._last_trustworthy_answer is not None:
                # Serve the last answer the root could still prove right.
                self.last_answer = self._last_trustworthy_answer
        round_records = net.collection_log[log_start:]
        if any(r.coverage < 1.0 for r in round_records if r.expected > 0):
            # Something since the last (re-)init failed to arrive — the
            # root's continuous state may have silently diverged.
            self._tainted = True

        # Root-side watchdog: full collections tell the root who is gone.
        # Degraded rounds run no collections, so there is nothing to watch.
        reinit_wanted = False
        if not degraded:
            full_records = [
                record
                for record in round_records
                if self.watchdog.is_full_collection(record, len(participating))
            ]
            self.coverages.extend(record.coverage for record in full_records)
            if full_records:
                if reinitialized:
                    self.watchdog.adopt(full_records[-1])
                else:
                    for record in full_records:
                        reinit_wanted |= self.watchdog.observe(record)
        if reinit_wanted:
            self._scheduled_reinit = True  # re-initialization, next round

        # Accuracy against the live population's quantile (undefined while
        # nobody is up — those rounds simply have no truth to score).
        if live:
            live_values = values[list(live)]
            k_live = quantile_rank(len(live), self.spec.phi)
            truth = exact_quantile(live_values, k_live)
            answer = self.last_answer if self.last_answer is not None else truth
            self.exact += int(answer == truth)
            self.value_errors.append(abs(answer - truth))
            self.rank_errors.append(
                insertion_rank_error(live_values, answer, k_live)
            )

        trustworthy = not degraded and self._trustworthy(
            failed, live, participating
        )
        if trustworthy and self.last_answer is not None:
            self._last_trustworthy_answer = self.last_answer
        self.state = (
            "degraded"
            if degraded
            else ("tracking" if self._initialized else "init")
        )
        report = RoundReport(
            round_index=round_index,
            answer=self.last_answer,
            live=live,
            participating=participating,
            reinitialized=reinitialized,
            failed=failed,
            repair=repair_record,
            trustworthy=trustworthy,
            degraded=degraded,
            degraded_reason=degraded_reason,
            failover=failover_event,
        )
        return report

    def run(self, num_rounds: int) -> list[RoundReport]:
        """Run the full loop; stops early only if every sensor is dead.

        Transiently-down populations do *not* stop the loop anymore — those
        rounds are served degraded and tracking resumes on recovery.
        """
        reports: list[RoundReport] = []
        for round_index in range(num_rounds):
            report = self.step(round_index)
            if report is None:
                break
            reports.append(report)
        return reports

    def _initialize(self, values: np.ndarray, *, booked: bool) -> RoundOutcome:
        """Run the algorithm's initialization.  A re-initialization's
        traffic is ``booked`` to :attr:`reinit_energy_j` even when the
        attempt raises: what it sent before drowning was spent."""
        energy_before = float(self.ledger.energy.sum())
        try:
            return self.algorithm.initialize(self.net, values)
        finally:
            if booked:
                self.reinit_energy_j += (
                    float(self.ledger.energy.sum()) - energy_before
                )

    def _trustworthy(
        self,
        failed: bool,
        live: tuple[int, ...],
        participating: tuple[int, ...],
    ) -> bool:
        if failed or self._tainted or not self._initialized:
            return False
        if self._scheduled_reinit:
            return False
        if self.repair is None:
            # Without a repair layer the root has no membership view at
            # all; only a completely fault-free network keeps it in sync
            # (``live`` holds this round's up sensors).
            return len(live) == self.net.tree.num_sensor_nodes
        # The root's view must be exactly who can report, read afresh from
        # the tree and the down set (a safety check keeps no cache).
        covered = np.zeros(self.net.tree.num_vertices, dtype=bool)
        covered[list(participating)] = True
        return np.array_equal(covered, self.repair.reachable_mask())

    def point(
        self,
        name: str,
        loss: float,
        churn_rate: float,
        transient_rate: float,
    ) -> FaultSeriesPoint:
        """Summarize the completed run as one study cell."""
        rounds_run = max(self.rounds_run, 1)
        plan = self.net.plan
        survivors = sum(
            1 for v in self.net.tree.sensor_nodes if not plan.is_dead(v)
        )
        repair_stats = self.repair.stats if self.repair is not None else None
        return FaultSeriesPoint(
            algorithm=name,
            loss_rate=loss,
            retries=self.net.arq.label,
            churn_rate=churn_rate,
            rounds=rounds_run,
            exact_fraction=self.exact / rounds_run,
            mean_rank_error=(
                float(np.mean(self.rank_errors)) if self.rank_errors else 0.0
            ),
            mean_value_error=(
                float(np.mean(self.value_errors)) if self.value_errors else 0.0
            ),
            reinit_count=self.reinits,
            failure_rate=self.failures / rounds_run,
            delivered_fraction=(
                float(np.mean(self.coverages)) if self.coverages else 1.0
            ),
            hotspot_energy_mj=self.ledger.max_mean_round_energy() * 1e3,
            lost_transmissions=self.net.lost_transmissions,
            retransmissions=self.net.retransmissions,
            survivors=survivors,
            reattach_count=(
                repair_stats.reattach_count if repair_stats is not None else 0
            ),
            cancelled_reinits=self.cancelled_reinits,
            repair_energy_mj=(
                repair_stats.repair_energy_j * 1e3
                if repair_stats is not None
                else 0.0
            ),
            transient_rate=transient_rate,
            rotations=self.rotations,
            degraded_rounds=self.degraded_rounds,
            healed_partitions=(
                repair_stats.healed_count if repair_stats is not None else 0
            ),
            parked_orphan_rounds=(
                repair_stats.parked_rounds if repair_stats is not None else 0
            ),
            reinit_energy_mj=self.reinit_energy_j * 1e3,
            failovers=self.failover.count,
            failover_energy_mj=self.failover.handover_energy_j * 1e3,
        )


def run_fault_experiment(
    algorithms: dict[str, AlgorithmFactory],
    loss_rates: tuple[float, ...] = (0.0, 0.05, 0.1),
    retry_budgets: tuple[int, ...] = (0, 2),
    churn_rate: float = 0.0,
    burst_length: float | None = None,
    transient_rate: float = 0.0,
    transient_downtime: float = 3.0,
    num_nodes: int = 100,
    num_rounds: int = 60,
    radio_range: float = 35.0,
    seed: int = 20140324,
    watchdog_patience: int = 2,
    repair: bool = True,
    adaptive_arq: bool = False,
    repair_metric: str = "etx",
    rotate_every: int = 0,
    heal_patience: int = 1,
    root_kill: int | None = None,
    root_grace: int = 1,
) -> FaultExperimentResult:
    """Sweep every algorithm over loss rates x retry budgets.

    The deployment and workload are seeded per loss rate only, so all
    algorithms *and all retry budgets* at one loss rate face the identical
    network and measurement series — the retry axis isolates the ARQ
    effect.  ``burst_length`` switches the loss process from i.i.d. to a
    Gilbert–Elliott chain matched to the same average rate.
    ``transient_rate`` adds per-round transient outages (geometric
    downtimes of mean ``transient_downtime``); ``adaptive_arq`` replaces
    the static retry sweep with one adaptive per-link policy per cell;
    ``repair=False`` disables orphan re-attach and membership patching,
    leaving the PR 2 watchdog-only baseline.  ``repair_metric`` picks how
    orphans rank candidate parents (``"etx"`` or ``"nearest"``);
    ``rotate_every`` turns on fault-aware tree rotation every that many
    rounds (0 = never), seeded per cell like the fault plan;
    ``heal_patience`` is how many consecutive rounds an unattachable orphan
    stays parked (re-probing, duty-cycled) before the re-init fallback
    fires (1 = the pre-healing same-round fallback).  ``root_kill``
    schedules the sink's death at that round on top of whatever random
    churn runs (RNG-safe: scheduled deaths draw nothing), exercising the
    fail-over path; ``root_grace`` is how many rounds a transiently-down
    root is waited out before a successor is elected.
    """
    points: list[FaultSeriesPoint] = []
    retry_axis: tuple[int | str, ...] = ("adp",) if adaptive_arq else retry_budgets
    for loss in loss_rates:
        loss_key = int(round(loss * 10_000))
        for retries in retry_axis:
            for name, factory in algorithms.items():
                deploy_rng = np.random.default_rng((seed, loss_key))
                graph = connected_random_graph(
                    num_nodes + 1, radio_range, deploy_rng
                )
                tree = build_routing_tree(graph, root=0)
                workload = SyntheticWorkload(graph.positions, deploy_rng)
                spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
                retry_key = 997 if retries == "adp" else retries
                fault_rng = np.random.default_rng(
                    (seed, loss_key, retry_key, 7)
                )
                churn = RandomChurn(churn_rate) if churn_rate > 0 else None
                if root_kill is not None:
                    churn = CompositeChurn(
                        churn, ScheduledChurn({root_kill: (tree.root,)})
                    )
                plan = FaultPlan(
                    loss=_loss_model(loss, burst_length),
                    churn=churn,
                    outages=(
                        RandomOutages(
                            transient_rate, mean_downtime=transient_downtime
                        )
                        if transient_rate > 0
                        else None
                    ),
                    rng=fault_rng,
                )
                arq: ArqPolicy = (
                    AdaptiveArqPolicy()
                    if retries == "adp"
                    else ArqPolicy(max_retries=int(retries))
                )
                driver = FaultDriver(
                    factory,
                    spec,
                    tree,
                    workload,
                    plan,
                    arq,
                    graph=graph,
                    repair=repair,
                    radio_range=radio_range,
                    watchdog_patience=watchdog_patience,
                    repair_metric=repair_metric,
                    rotate_every=rotate_every,
                    rotate_rng=np.random.default_rng(
                        (seed, loss_key, retry_key, 11)
                    ),
                    heal_patience=heal_patience,
                    root_grace=root_grace,
                    failover_rng=np.random.default_rng(
                        (seed, loss_key, retry_key, 13)
                    ),
                )
                driver.run(num_rounds)
                points.append(
                    driver.point(name, loss, churn_rate, transient_rate)
                )
    return FaultExperimentResult(points=points)


def _loss_model(loss: float, burst_length: float | None) -> LinkLossModel | None:
    if loss <= 0.0:
        return None
    if burst_length is None:
        return IndependentLoss(loss)
    return GilbertElliottLoss.from_average(loss, burst_length=burst_length)
