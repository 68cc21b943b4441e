"""Tree repair: orphan re-attach and transient-churn membership patching.

PR 2's recovery story was all-or-nothing: a silent subtree could only be
*re-initialized* — the most expensive reaction the energy model knows.
This module adds the reactions a real deployment uses first:

* **Orphan re-attach** — when a vertex's tree parent goes down, the vertex
  probes its physical neighbourhood (one beacon, every up neighbour answers)
  and re-attaches its whole subtree to the best up neighbour that still
  has a fully-up path to the root and lies outside its own subtree.  "Best"
  defaults to the lowest ETX-weighted path cost to the root (the shared
  :class:`~repro.network.linkstats.LinkQualityEstimator` the ARQ layer
  feeds), falling back to plain Euclidean distance while no link has ever
  been observed — or always, with ``parent_metric="nearest"`` (the PR 3
  behaviour, kept as the comparison baseline).  All of a round's adoptions
  are applied with one batched tree rewrite
  (:func:`~repro.network.tree.tree_multi_reparented`), the engine swaps it
  in (:meth:`~repro.sim.engine.TreeNetwork.retarget`), and the adopting
  parents report the membership change up to the root.

* **Multi-round partition healing (the parked-orphan queue)** — an orphan
  with *no* eligible candidate is not re-initialized on the spot anymore.
  It is *parked*: its subtree leaves the query (detached below), its radios
  drop to a duty-cycled listen window (one ACK-sized receive per up subtree
  vertex per parked round, charged to the ledger), and it re-probes on
  every subsequent round with freshly ETX-ranked candidates as links and
  neighbours recover.  Only after ``heal_patience`` consecutive failed
  rounds does the driver fall back to the watchdog-style re-initialization
  (``heal_patience=1`` reproduces the old same-round re-init cliff).  A
  parked orphan that finds a parent in a later round — or whose original
  parent comes back — is a *healed partition*: its sensors rejoin the
  running query with their filters intact, no re-initialization needed.

* **Membership patching (detach / rejoin)** — the root tracks which sensors
  can currently report (up + connected).  Nodes that leave (death, outage,
  unreachable orphan) are *detached*: the algorithm moves their last-known
  interval label out of its counters and shrinks ``k``'s population instead
  of restarting the query.  Nodes that come back are *rejoined*: the parent
  re-pushes the current filter (one hop), the node reports its value up,
  and the root moves the label back in.  Validation filters and intervals
  survive; on a loss-free network the answers stay exactly the live
  population's quantile through arbitrary churn.

All repair traffic — probe beacons, neighbour replies, the adopt handshake,
membership reports, filter re-pushes and parked listens — is charged to the
energy ledger under the ``"repair"`` phase, so ``repro faults`` can show
what recovery actually costs next to what it saves.  The charges are
recorded in scalar order into one :class:`~repro.sim.vectorized.ChargeLog`
and reach the ledger as ordered batches, so the ledger is bit-identical to
charging them one by one.

A pass costs O(n) plus O(orphans x degree): the orphan set is read off the
down vertices' children once, and each adoption updates a per-pass working
tree (parent, children, depth, a rooted-up mask and cached ETX hop lists)
instead of rescanning the network (see ``DESIGN.md``, "Recovery pass").

The root's membership view is modelled as consistent at the end of each
repair pass (link-layer hello detection plus membership reports); reports
are only charged where an up reporting path exists.  The watchdog is
retargeted on every membership change so it awaits exactly the branches
that can still deliver — this is what stops a subtree repaired during a
watchdog grace window from being re-initialized on top (and double-charged).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import VALUE_BITS
from repro.errors import ConfigurationError
from repro.faults.network import FaultyTreeNetwork
from repro.faults.watchdog import RootWatchdog
from repro.network.topology import PhysicalGraph
from repro.network.tree import RoutingTree, tree_multi_reparented
from repro.radio.message import MessageCost, ack_cost, message_bits
from repro.sim.vectorized import ChargeLog

#: Phase label repair traffic is charged under in ``net.phase_bits``.
REPAIR_PHASE = "repair"

#: Logged charges that trigger a mid-pass flush, which keeps the batch
#: (and its memory) bounded on rounds with many orphans.
_FLUSH_AT = 1024


@dataclass(frozen=True)
class RepairRound:
    """What one repair pass did at the start of a round."""

    #: ``(orphan, new_parent)`` re-attachments performed, in order.
    reattached: tuple[tuple[int, int], ...] = ()
    #: Orphans whose ``heal_patience`` expired this round (the driver
    #: schedules the watchdog-style re-initialization fallback).
    fallback: tuple[int, ...] = ()
    #: Vertices detached from the query this round.
    detached: tuple[int, ...] = ()
    #: Vertices rejoined to the query this round.
    rejoined: tuple[int, ...] = ()
    #: Orphans parked at the end of this round (cut off, duty-cycled,
    #: awaiting a candidate parent on a later round's re-probe).
    parked: tuple[int, ...] = ()
    #: Previously parked orphans whose partition healed this round (a
    #: re-probe found a parent, or the old parent recovered).
    healed: tuple[int, ...] = ()

    @property
    def changed_membership(self) -> bool:
        return bool(self.reattached or self.detached or self.rejoined)


@dataclass
class RepairStats:
    """Cumulative repair activity over a run."""

    reattach_count: int = 0
    fallback_count: int = 0
    detach_count: int = 0
    rejoin_count: int = 0
    #: Probe beacons broadcast by orphans looking for a parent.
    probe_count: int = 0
    #: Orphan-rounds spent parked (cut off, duty-cycled, re-probing).
    parked_rounds: int = 0
    #: Parked orphans whose partition healed on a later round.
    healed_count: int = 0
    #: Total energy [J] spent on repair traffic (probes, adopts, reports).
    repair_energy_j: float = 0.0
    #: On-air bits of repair traffic.
    repair_bits: int = 0
    #: Per-round records, in order.
    rounds: list[RepairRound] = field(default_factory=list)


def _reachable(tree: RoutingTree, cut: np.ndarray | None) -> tuple[int, ...]:
    """The sensors of ``tree`` outside ``cut``.

    ``cut`` masks the vertices whose tree path to the root passes a down
    vertex, :meth:`~repro.network.tree.RoutingTree.below` of the down mask
    (``None`` when nothing is down).  The root's own state is the
    fail-over's business, so a down root cuts nothing here.
    """
    if cut is None:
        return tree.sensor_nodes
    cut_off = cut.tolist()
    return tuple(v for v in tree.sensor_nodes if not cut_off[v])


class _WorkingTree:
    """The routing tree as one repair pass rewrites it, adoption by adoption.

    Only orphans change parent, and each adopts a *rooted-up* vertex, one
    whose whole working path to the root is up.  Within a pass, therefore:

    * the orphan set cannot grow;
    * a rooted-up vertex keeps its path, so its ETX hop list is cached;
    * an orphan's own subtree hangs below a down parent, so none of it is
      rooted-up, and eligibility is one mask lookup;
    * an adoption moves one subtree: its depths shift by one constant, and
      the members whose path up to the orphan is up become rooted-up.

    Children lists are copied on write, so setting up costs a few O(n)
    copies at C speed.
    """

    __slots__ = ("root", "parent", "depth", "rooted", "_children", "_moved", "_hops")

    def __init__(self, tree: RoutingTree, cut: np.ndarray) -> None:
        self.root = tree.root
        self.parent = tree.parent_array.tolist()
        self.depth = tree.depth_array.tolist()
        self.rooted = (~cut).tolist()
        self._children = tree.children
        self._moved: dict[int, list[int]] = {}
        self._hops: dict[int, tuple[tuple[float, ...], bool]] = {}

    def children(self, vertex: int) -> list[int] | tuple[int, ...]:
        moved = self._moved.get(vertex)
        return self._children[vertex] if moved is None else moved

    def subtree(self, vertex: int) -> list[int]:
        """``vertex``'s working subtree, itself and down vertices included."""
        out, stack = [], [vertex]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self.children(v))
        return out

    def adopt(self, orphan: int, new_parent: int, down: list[bool]) -> list[int]:
        """Re-parent ``orphan`` under ``new_parent``; returns the moved subtree."""
        old_parent = self.parent[orphan]
        self._moved[old_parent] = [
            v for v in self.children(old_parent) if v != orphan
        ]
        self._moved[new_parent] = [*self.children(new_parent), orphan]
        self.parent[orphan] = new_parent
        members = self.subtree(orphan)
        depth = self.depth
        shift = depth[new_parent] + 1 - depth[orphan]
        for v in members:
            depth[v] += shift
        rooted, stack = self.rooted, [orphan]
        while stack:
            v = stack.pop()
            if not down[v]:
                rooted[v] = True
                stack.extend(self.children(v))
        return members

    def etx_path_costs(
        self, stats, orphan: int, candidates: list[int]
    ) -> tuple[list[float], bool]:
        """Per candidate: the ETX of the probe link plus the candidate's
        working path to the root.

        Also reports whether *any* link on those routes has ever been
        observed — if none has, the costs are pure prior and the caller
        prefers the distance ranking instead.  Each cost is a left fold
        from the probe link up to the root, never a ``sum()``, whose
        compensated float summation differs across Python versions.
        """
        etx, link_observed, hops = stats.etx, stats.link_observed, self._hops
        costs, any_observed = [], False
        for candidate in candidates:
            tail, observed = hops.get(candidate) or self._hop_list(stats, candidate)
            cost = etx(orphan, candidate)
            for hop in tail:
                cost += hop
            costs.append(cost)
            any_observed = (
                any_observed or observed or link_observed(orphan, candidate)
            )
        return costs, any_observed

    def _hop_list(self, stats, vertex: int) -> tuple[tuple[float, ...], bool]:
        """Per-hop ETX from ``vertex`` up to the root, and whether any of
        those links was observed; cached for the pass."""
        hops, parent, chain = self._hops, self.parent, []
        while vertex != self.root and vertex not in hops:
            chain.append(vertex)
            vertex = parent[vertex]
        entry = ((), False) if vertex == self.root else hops[vertex]
        for v in reversed(chain):
            up = parent[v]
            tail, observed = entry
            entry = (
                (stats.etx(v, up), *tail),
                observed or stats.link_observed(v, up),
            )
            hops[v] = entry
        return entry


class TreeRepair:
    """Per-round tree repair and membership maintenance for one network.

    Args:
        graph: the physical connectivity graph (candidate parents must be
            within radio range ``rho``).
        net: the fault-injecting network whose tree is repaired in place.
        watchdog: optional root watchdog to retarget on membership changes.
        parent_metric: how an orphan ranks its candidate parents —
            ``"etx"`` (default) by ETX-weighted path cost to the root using
            the network's shared link-quality estimator (Euclidean distance
            breaks ties and takes over entirely while no relevant link has
            ever been observed), or ``"nearest"`` for the pure
            nearest-neighbour adoption of PR 3.
        heal_patience: consecutive rounds an unattachable orphan stays
            *parked* (duty-cycled, re-probing) before the re-initialization
            fallback fires.  The default 1 reproduces the pre-healing
            same-round fallback; higher values trade degraded coverage for
            the chance that the partition heals on its own.
    """

    #: Valid ``parent_metric`` values.
    PARENT_METRICS = ("etx", "nearest")

    def __init__(
        self,
        graph: PhysicalGraph,
        net: FaultyTreeNetwork,
        watchdog: RootWatchdog | None = None,
        parent_metric: str = "etx",
        heal_patience: int = 1,
    ) -> None:
        if graph.num_vertices != net.tree.num_vertices:
            raise ConfigurationError(
                f"graph has {graph.num_vertices} vertices but tree has "
                f"{net.tree.num_vertices}"
            )
        if parent_metric not in self.PARENT_METRICS:
            raise ConfigurationError(
                f"parent_metric must be one of {self.PARENT_METRICS}, "
                f"got {parent_metric!r}"
            )
        if heal_patience < 1:
            raise ConfigurationError(
                f"heal_patience must be >= 1, got {heal_patience}"
            )
        self.graph = graph
        self.net = net
        self.watchdog = watchdog
        self.parent_metric = parent_metric
        self.heal_patience = heal_patience
        self.stats = RepairStats()
        #: Sensors the root currently considers outside the query.
        self.detached: set[int] = set()
        #: The parked-orphan queue: orphan -> consecutive rounds it has
        #: failed to find a parent.  Parked orphans re-probe every round;
        #: the re-init fallback fires once, when the streak reaches
        #: ``heal_patience``.  An entry disappears when the partition heals
        #: (re-attach, or the old parent recovers).
        self._parked: dict[int, int] = {}
        self._expired: list[int] = []
        self._waiting: list[int] = []
        self._healed: list[int] = []
        #: Repair charges not yet applied to the ledger, and their bits.
        self._log = ChargeLog(net.ledger)
        self._bits = 0

    # -- root-reachability ----------------------------------------------------

    def reachable_sensors(self) -> tuple[int, ...]:
        """Up sensors whose whole path to the root is up, read afresh from
        the current tree and down set."""
        tree = self.net.tree
        down = self.net._down_mask()
        return _reachable(tree, None if down is None else tree.below(down))

    # -- the per-round pass ---------------------------------------------------

    def repair_round(self, algorithm, values: np.ndarray) -> RepairRound:
        """Run one repair pass; call at round start (ledger round open).

        Order matters: re-attachments first (they restore connectivity, so
        their subtrees never need to be detached at all), then the
        membership diff against the post-repair reachable set.
        ``algorithm.detach``/``rejoin`` may raise
        :class:`~repro.errors.ProtocolError`; the internal membership set is
        updated *before* the algorithm hook so a driver that reacts by
        re-initializing can resynchronize via :meth:`resync_after_reinit`.
        The pass is booked before the error propagates: its charges reach
        the ledger, and :attr:`stats` records what it did up to the hook
        that raised (``stats.rounds[-1]``).

        The pass changes neither the dead nor the down set, so it reads the
        down mask once, and it computes the cut-off cover once for each tree
        it works on: the round's tree, and the repaired one if an orphan
        was re-attached.
        """
        energy_before = float(self.net.ledger.energy.sum())
        reattached: list[tuple[int, int]] = []
        fallback: list[int] = []
        detached: list[int] = []
        rejoined: list[int] = []
        down = self.net._down_mask()
        cut = None if down is None else self.net.tree.below(down)
        try:
            reattached = self._reattach_orphans(down, cut)
            if reattached:
                cut = self.net.tree.below(down)
            fallback = self._expired_fallbacks()
            self._sync_membership(algorithm, values, cut, detached, rejoined)
        finally:
            self._flush()
            round_record = RepairRound(
                reattached=tuple(reattached),
                fallback=tuple(fallback),
                detached=tuple(detached),
                rejoined=tuple(rejoined),
                parked=tuple(self._waiting),
                healed=tuple(self._healed),
            )
            self._book(round_record, energy_before)
        if round_record.changed_membership and self.watchdog is not None:
            tree = self.net.tree
            self.watchdog.retarget(tree, _reachable(tree, cut))
        return round_record

    def _book(self, round_record: RepairRound, energy_before: float) -> None:
        stats = self.stats
        stats.reattach_count += len(round_record.reattached)
        stats.fallback_count += len(round_record.fallback)
        stats.detach_count += len(round_record.detached)
        stats.rejoin_count += len(round_record.rejoined)
        stats.parked_rounds += len(round_record.parked)
        stats.healed_count += len(round_record.healed)
        stats.repair_energy_j += (
            float(self.net.ledger.energy.sum()) - energy_before
        )
        stats.rounds.append(round_record)

    def resync_after_reinit(self, algorithm) -> None:
        """Align a freshly constructed algorithm with current reachability.

        Called by the driver right before re-initializing: the new query is
        planted on the reachable population only.
        """
        tree = self.net.tree
        reachable = self.reachable_sensors()
        self.detached = set(tree.sensor_nodes).difference(reachable)
        algorithm.reset_participation(self.net, self.detached)
        if self.watchdog is not None:
            self.watchdog.retarget(tree, reachable)

    # -- orphan re-attach -----------------------------------------------------
    #
    # The pass works on a _WorkingTree: adoptions rewrite it, eligibility
    # reads its rooted-up mask, and the real RoutingTree is rebuilt exactly
    # once per round via tree_multi_reparented.

    def _reattach_orphans(
        self, down_mask: np.ndarray | None, cut: np.ndarray | None
    ) -> list[tuple[int, int]]:
        """Re-attach this round's orphans: up sensors whose parent is down.

        ``down_mask`` is the round's down mask and ``cut`` its cover on the
        current tree (both ``None`` when nothing is down).  Orphans probe
        shallowest working depth first, then by vertex id.  The pass's
        charges are on the ledger when this returns.
        """
        try:
            tree = self.net.tree
            if down_mask is None:
                self._settle_park_queue(None, [], set())
                return []
            down = down_mask.tolist()
            relays = tree.relays
            pending = [
                child
                for vertex in np.flatnonzero(down_mask).tolist()
                for child in tree.children[vertex]
                if not down[child] and child not in relays
            ]
            if not pending:
                self._settle_park_queue(None, down, set())
                return []
            work = _WorkingTree(tree, cut)
            depth = work.depth
            moves: list[tuple[int, int, float]] = []
            failed: set[int] = set()
            while True:
                choices = [v for v in pending if v not in failed]
                if not choices:
                    break
                orphan = min(choices, key=lambda v: (depth[v], v))
                found = self._probe_for_parent(orphan, work, down)
                if found is None:
                    failed.add(orphan)
                    continue
                candidate, distance = found
                self._charge_adopt_handshake(orphan, candidate, distance)
                pending.remove(orphan)
                moved = work.adopt(orphan, candidate, down)
                if failed:
                    # A successful adopt restores root connectivity for exactly
                    # the orphan's subtree; a previously failed orphan can only
                    # have gained an eligible candidate if it physically
                    # neighbours that subtree.  Everyone else's probe would
                    # replay the identical (charged!) beacon exchange and fail
                    # identically — don't re-probe them.
                    reconnected = set(moved)
                    neighbors = self.graph.neighbors
                    failed = {
                        v
                        for v in failed
                        if not any(n in reconnected for n in neighbors(v))
                    }
                moves.append((orphan, candidate, distance))
            if moves:
                self.net.retarget(tree_multi_reparented(tree, moves))
                # The adopting parents report the membership change up the
                # repaired tree so the root can patch its branch bookkeeping.
                for _, new_parent, _ in moves:
                    self._report_to_root(new_parent)
            self._settle_park_queue(work, down, failed)
            return [(orphan, new_parent) for orphan, new_parent, _ in moves]
        finally:
            self._flush()

    def _settle_park_queue(
        self, work: _WorkingTree | None, down: list[bool], failed: set[int]
    ) -> None:
        """Advance the parked-orphan queue after one re-attach pass.

        A previously waiting orphan (streak below ``heal_patience``) that is
        no longer cut — its re-probe found a parent, or the old parent
        recovered — is a healed partition.  Still-failed orphans advance
        their streak: the re-init fallback fires exactly when the streak
        reaches ``heal_patience``; below that the orphan waits parked, its
        subtree's up vertices each paying one duty-cycled ACK-sized listen
        window per round.  Past the fallback the orphan keeps re-probing
        (pre-healing behaviour) but is neither re-charged nor re-counted.
        Reconnected orphans leave the queue entirely, so a later relapse
        counts as a fresh failure.
        """
        previously_waiting = {
            v for v, streak in self._parked.items() if streak < self.heal_patience
        }
        self._healed = sorted(v for v in previously_waiting if v not in failed)
        for vertex in set(self._parked) - failed:
            del self._parked[vertex]
        self._expired, self._waiting = [], []
        for vertex in sorted(failed):
            streak = self._parked.get(vertex, 0) + 1
            self._parked[vertex] = streak
            if streak == self.heal_patience:
                self._expired.append(vertex)
            elif streak < self.heal_patience:
                self._waiting.append(vertex)
        ack = ack_cost()
        for vertex in self._waiting:
            # Every listen costs the same, so the order of the subtree walk
            # leaves each vertex's float sum unchanged.
            listeners = [m for m in work.subtree(vertex) if not down[m]]
            self._log.charge_recv_each(listeners, ack)
            self._maybe_flush()

    def _expired_fallbacks(self) -> list[int]:
        fresh = self._expired
        self._expired = []
        return fresh

    def _probe_for_parent(
        self, orphan: int, work: _WorkingTree, down: list[bool]
    ) -> tuple[int, float] | None:
        """One probe beacon + replies; the best eligible neighbour and its
        distance, or ``None``.

        Eligible: physically in range and rooted-up in the working tree,
        which also rules out the orphan's own subtree.  Ranking follows
        :attr:`parent_metric` — ETX-weighted path cost to the root when
        link estimates exist, Euclidean distance otherwise.
        """
        root = work.root
        rooted = work.rooted
        ack = ack_cost()
        log = self._log
        # The probe is a local broadcast at full radio range; every up
        # neighbour pays the listen, but only neighbours that actually hold
        # a working route (and are not in the orphan's own subtree) answer
        # with an ack-sized beacon — nodes without a route to offer keep
        # quiet, exactly like route advertisements in CTP/RPL.
        self.stats.probe_count += 1
        listeners = [
            v for v in self.graph.neighbors(orphan) if v == root or not down[v]
        ]
        repliers = [v for v in listeners if rooted[v]]
        distances = self._distances(orphan, repliers)
        # A listener hears the beacon before it replies, and the orphan
        # beacons before it hears a reply: grouping the charges by kind
        # keeps every vertex's own charge order, hence its float sums.
        log.charge_send(orphan, ack, link_distance=self.graph.radio_range)
        log.charge_recv_each(listeners, ack)
        log.charge_send_each(repliers, ack, distances)
        log.charge_recv_each([orphan] * len(repliers), ack)
        self._bits += (1 + len(repliers)) * ack.total_bits
        self._maybe_flush()
        if not repliers:
            return None
        if self.parent_metric == "etx":
            costs, observed = work.etx_path_costs(
                self.net.link_stats, orphan, repliers
            )
            if observed:
                _, distance, neighbor = min(zip(costs, distances, repliers))
                return neighbor, distance
        # No relevant link ever observed: ETX would just replay the prior
        # everywhere, so fall back to nearest-neighbour adoption.
        distance, neighbor = min(zip(distances, repliers))
        return neighbor, distance

    def _charge_adopt_handshake(
        self, orphan: int, new_parent: int, distance: float
    ) -> None:
        """Adopt request / accept, both ack-sized control frames."""
        ack = ack_cost()
        self._charge_send(orphan, ack, distance)
        self._charge_recv(new_parent, ack)
        self._charge_send(new_parent, ack, distance)
        self._charge_recv(orphan, ack)

    # -- membership sync ------------------------------------------------------

    def _sync_membership(
        self,
        algorithm,
        values: np.ndarray,
        cut: np.ndarray | None,
        detached: list[int],
        rejoined: list[int],
    ) -> None:
        """Detach the newly cut-off sensors and rejoin the reconnected ones,
        appending each to ``detached``/``rejoined`` before its hook runs.

        ``cut`` is the cut-off cover of the current tree (``None`` when
        nothing is down).  The hooks are root-side bookkeeping and charge
        nothing, so the logged charges keep their order around them.
        """
        tree = self.net.tree
        relays = tree.relays
        if cut is None:
            cut_off, gone = [False] * tree.num_vertices, []
        else:
            cut_off, gone = cut.tolist(), np.flatnonzero(cut).tolist()
        newly_gone = [
            v for v in gone if v not in relays and v not in self.detached
        ]
        newly_back = sorted(
            v
            for v in self.detached
            if not cut_off[v] and v != tree.root and v not in relays
        )
        try:
            for vertex in newly_gone:
                # A down node's silence is noticed by its parent; the report
                # can only travel where an up path exists.
                reporter = tree.parent[vertex]
                if not cut_off[reporter]:
                    self._report_to_root(reporter)
                self.detached.add(vertex)
                detached.append(vertex)
                algorithm.detach(self.net, vertex)

            push = message_bits(VALUE_BITS)
            for vertex in newly_back:
                # Filter re-push (one hop down), then the node reports its
                # current value up so the root can patch its counters.
                self._charge_send(
                    tree.parent[vertex], push, tree.link_distance[vertex]
                )
                self._charge_recv(vertex, push)
                self._report_to_root(vertex)
                self.detached.discard(vertex)
                rejoined.append(vertex)
                algorithm.rejoin(self.net, values, vertex)
        finally:
            self._flush()

    # -- charging helpers -----------------------------------------------------

    def _distances(self, vertex: int, others: list[int]) -> list[float]:
        """Euclidean distance from ``vertex`` to each of ``others``.

        ``np.hypot`` runs the same libm call per element as on scalars, so
        every distance is the float a per-pair call would give.
        """
        if not others:
            return []
        positions = self.graph.positions
        here, there = positions[vertex], positions[others]
        return np.hypot(here[0] - there[:, 0], here[1] - there[:, 1]).tolist()

    def _charge_send(self, sender: int, cost: MessageCost, distance: float) -> None:
        self._log.charge_send(sender, cost, link_distance=distance)
        self._bits += cost.total_bits

    def _charge_recv(self, receiver: int, cost: MessageCost) -> None:
        self._log.charge_recv(receiver, cost)

    def _maybe_flush(self) -> None:
        if len(self._log) >= _FLUSH_AT:
            self._flush()

    def _flush(self) -> None:
        """Apply the logged charges to the ledger, in logged order, and
        their on-air bits to the repair phase."""
        self._log.flush()
        if self._bits:
            self.stats.repair_bits += self._bits
            phase_bits = self.net.phase_bits
            phase_bits[REPAIR_PHASE] = (
                phase_bits.get(REPAIR_PHASE, 0) + self._bits
            )
            self._bits = 0

    def _report_to_root(self, start: int) -> None:
        """Report a membership change from ``start`` up the tree path.

        Membership reports are tiny (a vertex id and a flag) and ride
        piggybacked on the next already-scheduled frame of each hop, so they
        cost their payload bits but no extra MAC frames or headers.
        """
        tree = self.net.tree
        if start == tree.root:
            return
        cost = MessageCost(messages=0, total_bits=VALUE_BITS, payload_bits=VALUE_BITS)
        path = tree.path_to_root(start)
        senders = path[:-1]
        # Each hop is a send by the child and a receive by its parent.
        # Every vertex hears its child before it forwards, so logging all
        # receives before all sends keeps each vertex's charge order.
        self._log.charge_recv_each(path[1:], cost)
        self._log.charge_send_each(
            senders, cost, [tree.link_distance[v] for v in senders]
        )
        self._bits += cost.total_bits * len(senders)
        self._maybe_flush()
