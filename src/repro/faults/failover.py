"""Root fail-over: elect a successor sink and re-root the live tree.

Until this module, the sink was the one vertex the fault plan refused to
touch — ``FaultPlan`` rejected root deaths and outages outright, so every
recovery path could assume a live collection point.  Real deployments
cannot: the sink's radio fails like any other.  This module removes that
protection end to end:

* **Detection** — the plan may now kill or down the root like any vertex.
  A *dead* root triggers fail-over immediately; a transiently *down* root
  is given ``grace`` rounds to come back (rounds the driver serves in
  DEGRADED state, reason ``"root-down"``) before the network gives up on
  it.

* **Election** — the successor is chosen deterministically among the live,
  attached children of the failed root (fallback: the shallowest live
  sensors anywhere).  Candidates are ranked by observed link quality (mean
  ETX over their up physical neighbourhood, from the shared
  :class:`~repro.network.linkstats.LinkQualityEstimator`), then by subtree
  size (a bigger subtree means fewer orphans to re-attach), with a seeded
  random jitter breaking exact ties.  Each candidate announces itself with
  one ACK-sized election beacon heard by the other candidates — charged
  traffic, like everything else, applied to the ledger as one ordered
  batch.

* **Hand-over** — the root-side query state migrates through the
  algorithm's :meth:`~repro.core.base.ContinuousQuantileAlgorithm.handover`
  hook: the successor's own measurement leaves the population (it is a
  sink now), the deposed root is retired permanently
  (:meth:`~repro.faults.plan.FaultPlan.retire` — the warm-standby model:
  an ex-sink does not rejoin as a battery sensor), and the successor
  floods one re-root announcement carrying the serialized root state
  (filter, counters, and whatever else the algorithm declares via
  ``handover_state_bits``).  All fail-over traffic is charged under the
  ``"failover"`` ledger phase.

* **Re-rooting** — the tree is rebuilt once, O(n), through
  :func:`~repro.network.tree.tree_multi_reparented` with ``new_root``:
  the old root's edge to the successor is reversed and the engine swaps
  the tree in (``retarget(..., allow_reroot=True)``), moving the ledger's
  sink role along.  The old root's *other* children become orphans with a
  down parent — the same round's ordinary repair pass re-attaches them,
  which is why the driver runs fail-over *before* repair (repair's
  reachability walk assumes a live root).

The migrated state is exactly a :meth:`detach` of the successor plus a
permanent detach of the (valueless) old root, so the stale-hints argument
that covers churn covers fail-over too: one round after the hand-over an
exact algorithm's answer again equals the oracle over the surviving
population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.network.tree import tree_multi_reparented
from repro.radio.message import ack_cost
from repro.sim.vectorized import ChargeLog

#: Ledger phase every fail-over charge (beacons + state flood) books under.
FAILOVER_PHASE = "failover"


@dataclass(frozen=True)
class FailoverEvent:
    """One executed root fail-over (for reports, tests and the study)."""

    round_index: int
    old_root: int
    new_root: int
    #: Every vertex that stood in the election, winner included.
    candidates: tuple[int, ...]
    #: ``"root-dead"`` (permanent churn) or ``"root-down"`` (grace expired).
    reason: str
    #: Serialized root-state size [bits] flooded to seed the successor.
    handover_bits: int
    #: Total energy [J] the fail-over charged (election + state flood).
    energy_j: float


class RootFailover:
    """Detects a lost sink and executes the election + hand-over.

    One instance per :class:`~repro.faults.experiment.FaultDriver`; the
    driver calls :meth:`maybe_failover` at the top of every round, before
    the repair pass.
    """

    def __init__(
        self,
        net,
        graph=None,
        *,
        grace: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        if grace < 0:
            raise ConfigurationError(f"grace must be >= 0, got {grace}")
        self.net = net
        self.graph = graph
        self.grace = int(grace)
        self._rng = rng if rng is not None else np.random.default_rng(20140324)
        self._down_streak = 0
        self.events: list[FailoverEvent] = []
        self.handover_energy_j = 0.0

    @property
    def count(self) -> int:
        """Number of fail-overs executed so far."""
        return len(self.events)

    # -- detection -------------------------------------------------------------

    def root_unavailable(self) -> str | None:
        """Why the current sink cannot collect this round (``None`` = fine)."""
        plan = self.net.plan
        root = self.net.tree.root
        if plan.is_dead(root):
            return "root-dead"
        if plan.is_down(root):
            return "root-down"
        return None

    def maybe_failover(
        self,
        round_index: int,
        algorithm,
        *,
        repair=None,
        watchdog=None,
        state_providers=(),
    ) -> FailoverEvent | None:
        """Fail over if the sink is lost (and, for outages, out of grace).

        Returns the executed event, or ``None`` when the root is healthy,
        still within its outage grace, or no live successor exists (the
        driver serves those rounds degraded and retries next round).
        """
        reason = self.root_unavailable()
        if reason is None:
            self._down_streak = 0
            return None
        if reason == "root-down":
            self._down_streak += 1
            if self._down_streak <= self.grace:
                return None
        candidates = self._candidates(repair)
        if not candidates:
            return None
        event = self._execute(
            round_index, candidates, reason, algorithm, repair, watchdog,
            state_providers,
        )
        self._down_streak = 0
        self.events.append(event)
        self.handover_energy_j += event.energy_j
        return event

    # -- election --------------------------------------------------------------

    def _usable(self, vertex: int, detached) -> bool:
        tree = self.net.tree
        plan = self.net.plan
        return (
            vertex != tree.root
            and vertex not in tree.relays
            and not plan.is_dead(vertex)
            and not plan.is_down(vertex)
            and vertex not in detached
        )

    def _candidates(self, repair) -> tuple[int, ...]:
        """Live, attached root children; shallowest live sensors otherwise."""
        tree = self.net.tree
        detached = repair.detached if repair is not None else frozenset()
        children = tuple(
            v for v in tree.children[tree.root] if self._usable(v, detached)
        )
        if children:
            return children
        fallback = sorted(
            (v for v in tree.sensor_nodes if self._usable(v, detached)),
            key=lambda v: (tree.depth[v], v),
        )
        return tuple(fallback[: max(1, len(tree.children[tree.root]))])

    def _elect(self, candidates: tuple[int, ...]) -> int:
        tree = self.net.tree
        mask = self.net._down_mask()
        down = [False] * tree.num_vertices if mask is None else mask.tolist()
        stats = self.net.link_stats
        # One jitter draw per candidate, in sorted order — deterministic
        # for a given seed regardless of set/dict iteration.
        jitter = {v: float(self._rng.random()) for v in sorted(candidates)}

        def score(vertex: int):
            observed = [
                stats.etx(vertex, u)
                for u in self._neighbors(vertex)
                if not down[u] and stats.link_observed(vertex, u)
            ]
            mean_etx = (
                sum(observed) / len(observed) if observed else float("inf")
            )
            return (mean_etx, -tree.subtree_size[vertex], jitter[vertex], vertex)

        return min(candidates, key=score)

    def _neighbors(self, vertex: int) -> tuple[int, ...]:
        if self.graph is not None:
            return self.graph.neighbors(vertex)
        tree = self.net.tree
        parent = tree.parent[vertex]
        up = () if parent < 0 else (parent,)
        return up + tree.children[vertex]

    # -- execution -------------------------------------------------------------

    def _execute(
        self,
        round_index: int,
        candidates: tuple[int, ...],
        reason: str,
        algorithm,
        repair,
        watchdog,
        state_providers,
    ) -> FailoverEvent:
        net = self.net
        tree = net.tree
        old_root = tree.root
        energy_before = float(net.ledger.energy.sum())

        self._charge_election(candidates)
        successor = self._elect(candidates)

        # Root-side state leaves with the old sink and re-forms on the
        # successor: the successor's value is detached (it measures no
        # more), the old root is permanently out.
        handover_bits = int(algorithm.handover(net, old_root, successor))
        for provider in state_providers:
            handover_bits += int(provider())

        distance = self._distance(old_root, successor)
        new_tree = tree_multi_reparented(
            tree, [(old_root, successor, distance)], new_root=successor
        )
        net.retarget(new_tree, allow_reroot=True)
        net.plan.retire(old_root)
        if repair is not None:
            # The deposed root enters the sensor set already detached —
            # the membership sync must not try to detach it a second time.
            repair.detached.add(old_root)

        # One flood from the new sink: the re-root announcement carrying
        # the serialized root state, charged under the fail-over phase.
        old_phase = net.phase
        net.phase = FAILOVER_PHASE
        try:
            net.broadcast(handover_bits)
        finally:
            net.phase = old_phase

        if watchdog is not None:
            members = (
                repair.reachable_sensors()
                if repair is not None
                else new_tree.sensor_nodes
            )
            watchdog.retarget(new_tree, members)

        energy_j = float(net.ledger.energy.sum()) - energy_before
        return FailoverEvent(
            round_index=round_index,
            old_root=old_root,
            new_root=successor,
            candidates=tuple(sorted(candidates)),
            reason=reason,
            handover_bits=handover_bits,
            energy_j=energy_j,
        )

    def _charge_election(self, candidates: tuple[int, ...]) -> None:
        """Each candidate beacons once; the other candidates listen.

        The beacons are logged in scalar order and reach the ledger as one
        batch before anything else of the fail-over charges or reads it.
        """
        net = self.net
        beacon = ack_cost()
        log = ChargeLog(net.ledger)
        try:
            for sender in sorted(candidates):
                log.charge_send(sender, beacon)
                log.charge_recv_each(
                    [v for v in candidates if v != sender], beacon
                )
        finally:
            log.flush()
        phase_bits = net.phase_bits
        phase_bits[FAILOVER_PHASE] = (
            phase_bits.get(FAILOVER_PHASE, 0)
            + beacon.total_bits * len(candidates)
        )

    def _distance(self, a: int, b: int) -> float:
        if self.graph is None:
            return 0.0
        pa, pb = self.graph.positions[a], self.graph.positions[b]
        return float(np.hypot(pa[0] - pb[0], pa[1] - pb[1]))
