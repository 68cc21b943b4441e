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
down vertices' children once, every candidate route is scored once (a
rooted-up vertex keeps its path for the rest of the pass), and each
adoption updates a per-pass working tree (depth, when each vertex became
rooted-up, the orphans that moved, the orphan's new uplink) and scores only
the links to the vertices it rooted up (see ``DESIGN.md``, "Recovery
pass").

The root's membership view is modelled as consistent at the end of each
repair pass (link-layer hello detection plus membership reports); reports
are only charged where an up reporting path exists.  The watchdog is
retargeted on every membership change so it awaits exactly the branches
that can still deliver — this is what stops a subtree repaired during a
watchdog grace window from being re-initialized on top (and double-charged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.constants import VALUE_BITS
from repro.errors import ConfigurationError
from repro.faults.network import FaultyTreeNetwork
from repro.faults.watchdog import RootWatchdog
from repro.network.geometry import csr_ranges
from repro.network.topology import PhysicalGraph, csr_pairs
from repro.network.tree import RoutingTree, preorder_cover, tree_multi_reparented
from repro.radio.message import MessageCost, ack_cost, message_bits
from repro.sim.vectorized import ChargeLog

#: Phase label repair traffic is charged under in ``net.phase_bits``.
REPAIR_PHASE = "repair"

#: :attr:`_WorkingTree.rooted_after` of a vertex that is cut off.
_NEVER = np.iinfo(np.int64).max


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


def _reachable(tree: RoutingTree, cut: np.ndarray | None) -> np.ndarray:
    """Mask of the sensors of ``tree`` outside ``cut``.

    ``cut`` masks the vertices whose tree path to the root passes a down
    vertex, :meth:`~repro.network.tree.RoutingTree.below` of the down mask
    (``None`` when nothing is down).  The root's own state is the
    fail-over's business, so a down root cuts nothing here.
    """
    return tree.sensor_mask if cut is None else tree.sensor_mask & ~cut


class _WorkingTree:
    """The routing tree as one repair pass rewrites it, adoption by adoption.

    Only orphans change parent, and each adopts a *rooted-up* vertex, one
    whose whole working path to the root is up.  Within a pass, therefore:

    * the orphan set cannot grow;
    * a rooted-up vertex keeps its path, so its path cost never changes;
    * an orphan's own subtree hangs below a down parent, so none of it is
      rooted-up, eligibility is one mask lookup, and nothing moves into it
      before the orphan itself moves;
    * an adoption moves one subtree: its depths shift by one constant, and
      the members whose path up to the orphan is up become rooted-up.

    So a working subtree is the vertex's range of the tree's preorder
    minus the ranges of the orphans inside it that moved out earlier in
    the pass, and the members below one of its down members are one cover
    over that range (:func:`~repro.network.tree.preorder_cover`): every
    adoption is a few array operations, however big the subtree.

    :attr:`rooted_after` records when each vertex became rooted-up: ``-1``
    for the vertices rooted-up when the pass starts, the step of the probe
    whose adoption rooted it up, or :data:`_NEVER` while it is cut off.
    The vertices rooted-up at probe ``s`` are those below ``s``.

    With ETX ranking (``hop_etx``: the bound tree's per-vertex uplink ETX
    and observed flags), :attr:`up` is each vertex's working parent (the
    root is its own) and :attr:`up_etx`/:attr:`up_seen` its uplink's ETX
    and observed flag (the root's is a zero hop, never observed).  The
    link table does not change during a pass, so an adoption only rewrites
    the orphan's own entries, and a path cost is a walk up :attr:`up`.
    """

    __slots__ = (
        "depth",
        "rooted_after",
        "up",
        "up_etx",
        "up_seen",
        "_tree",
        "_order",
        "_left",
    )

    def __init__(
        self,
        tree: RoutingTree,
        cut: np.ndarray,
        hop_etx: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self.depth = tree.depth_array.copy()
        self.rooted_after = np.where(cut, _NEVER, -1)
        self._tree = tree
        #: The vertex at each preorder position, and the positions of the
        #: orphans that have moved this pass.
        self._order = np.empty(tree.num_vertices, dtype=np.int64)
        self._order[tree.preorder] = np.arange(tree.num_vertices)
        self._left = np.zeros(tree.num_vertices, dtype=bool)
        self.up = None
        if hop_etx is not None:
            self.up = tree.parent_array.copy()
            self.up_etx, self.up_seen = (hops.copy() for hops in hop_etx)
            self.up[tree.root] = tree.root
            self.up_etx[tree.root] = 0.0
            self.up_seen[tree.root] = False

    def subtree(self, vertex: int) -> np.ndarray:
        """``vertex``'s working subtree in preorder (itself first), down
        vertices included."""
        size = self._tree.size_array
        lo = self._tree.preorder[vertex]
        inside = self._order[lo : lo + size[vertex]]
        left = np.flatnonzero(self._left[lo + 1 : lo + size[vertex]]) + 1
        if not len(left):
            return inside
        return inside[~preorder_cover(len(inside), left, size[inside[left]])]

    def adopt(
        self,
        orphan: int,
        new_parent: int,
        down: np.ndarray,
        step: int,
        hop: list[float] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Re-parent ``orphan`` under ``new_parent`` after probe ``step``;
        returns the moved subtree and the members it rooted up (``down``:
        the down mask).

        ``hop`` is the new uplink's ETX and observed flag (ETX ranking).
        """
        start, size = self._tree.preorder, self._tree.size_array
        lo = start[orphan]
        self._left[lo] = True
        if hop is not None:
            self.up[orphan] = new_parent
            self.up_etx[orphan], self.up_seen[orphan] = hop
        depth = self.depth
        if size[orphan] == 1:
            # A leaf of the round's tree (most adoptions): nothing below it
            # can have moved, and the orphan itself is up.
            depth[orphan] = depth[new_parent] + 1
            self.rooted_after[orphan] = step
            members = self._order[lo : lo + 1]
            return members, members
        members = self.subtree(orphan)
        depth[members] += depth[new_parent] + 1 - depth[orphan]
        down_here = members[down[members]]
        rooted = members
        if len(down_here):
            # Members at or below a down member stay cut off.
            cut = preorder_cover(size[orphan], start[down_here] - lo, size[down_here])
            rooted = members[~cut[start[members] - lo]]
        self.rooted_after[rooted] = step
        return members, rooted

    def path_costs(
        self, start: np.ndarray, seen: np.ndarray, at: "np.ndarray | int", hops: int
    ) -> None:
        """Fold ``hops`` steps of the working paths from rooted-up ``at``
        (or one shared vertex) up to the root onto ``start`` and ``seen``,
        in place: one hop at a time, left to right, never a pairwise or
        compensated sum, whose rounding differs.  Past the root a walk adds
        zero hops, which change no sum, so every walk takes the deepest
        one's steps."""
        up, up_etx, up_seen = self.up, self.up_etx, self.up_seen
        for _ in range(hops):
            start += up_etx[at]
            seen |= up_seen[at]
            at = up[at]


class _ProbeLinks:
    """One pass's probe links: every pending orphan's physical neighbours,
    each scored once.

    Which neighbours hear a probe, their distances and (ETX ranking) each
    link's ETX and observed flag do not change within a pass, so they are
    looked up for all orphans in one batch.  Distances are ``np.hypot`` per
    element, the float a per-pair call gives.

    A neighbour answers a probe once it is rooted-up, and from then on it
    keeps its working path (see :class:`_WorkingTree`).  So a link's score
    as a candidate route is final once computed: with ETX ranking, the ETX
    of the probe link plus its neighbour's path to the root, and whether
    any link on that route was ever observed.  The links to the vertices
    rooted-up when the pass starts are scored in one batch, and
    :meth:`offer` scores the links to the vertices an adoption rooted up,
    for every orphan at once.  A link's cost stays NaN until then (without
    ETX ranking it is zero once scored), so a probe's repliers are exactly
    its links with a cost, and one sort over its links finds the best.
    """

    __slots__ = (
        "neighbors",
        "_listen",
        "_distance",
        "_etx",
        "_observed",
        "_cost",
        "_route_observed",
        "_span",
        "_by_neighbor",
        "_neighbor_ptr",
        "_work",
    )

    def __init__(
        self,
        graph: PhysicalGraph,
        orphans: list[int],
        down: np.ndarray,
        root: int,
        work: _WorkingTree,
        stats=None,
    ) -> None:
        at = np.array(orphans, dtype=np.int64)
        indptr = graph.indptr
        counts = indptr[at + 1] - indptr[at]
        owner, neighbors = csr_pairs(indptr, graph.indices, at)
        self.neighbors = neighbors
        self._listen = (neighbors == root) | ~down[neighbors]
        x, y = graph.positions[:, 0], graph.positions[:, 1]
        self._distance = np.hypot(
            np.repeat(x[at], counts) - x[neighbors], np.repeat(y[at], counts) - y[neighbors]
        )
        ends = np.cumsum(counts).tolist()
        self._span = dict(zip(orphans, zip([0, *ends[:-1]], ends)))
        #: The links by neighbour: those to ``v`` are
        #: ``_by_neighbor[_neighbor_ptr[v]:_neighbor_ptr[v + 1]]``, in no
        #: particular order.
        self._by_neighbor = np.argsort(neighbors)
        self._neighbor_ptr = np.zeros(graph.num_vertices + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(neighbors, minlength=graph.num_vertices),
            out=self._neighbor_ptr[1:],
        )
        self._work = work
        self._etx = None
        if stats is not None:
            self._etx, self._observed = stats.link_etx(owner, neighbors)
        self._cost = np.full(len(neighbors), np.nan)
        self._route_observed = np.zeros(len(neighbors), dtype=bool)
        first = np.flatnonzero(self._listen & (work.rooted_after[neighbors] < 0))
        self._score(first, neighbors[first])

    def _score(
        self, links: np.ndarray, neighbors: "np.ndarray | int", hops: int | None = None
    ) -> None:
        """Score ``links``, whose neighbours (or one shared neighbour, at
        depth ``hops``) are rooted-up: the probe link's ETX and observed
        flag, folded with the neighbour's path up to the root."""
        if self._etx is None:
            self._cost[links] = 0.0
            return
        work = self._work
        if hops is None:
            hops = int(work.depth[neighbors].max(initial=0))
        cost, seen = self._etx[links], self._observed[links]
        work.path_costs(cost, seen, neighbors, hops)
        self._cost[links] = cost
        self._route_observed[links] = seen

    def offer(self, rooted: np.ndarray) -> None:
        """Score every orphan's links to ``rooted``, vertices an adoption
        just rooted up (each of them up, so every such link listens)."""
        ptr = self._neighbor_ptr
        if len(rooted) == 1:
            vertex = int(rooted[0])
            links = self._by_neighbor[ptr[vertex] : ptr[vertex + 1]]
            self._score(links, vertex, int(self._work.depth[vertex]))
        else:
            links = self._by_neighbor[csr_ranges(ptr[rooted], ptr[rooted + 1] - ptr[rooted])]
            self._score(links, self.neighbors[links])

    def links(self, orphan: int) -> slice:
        """The slice of ``orphan``'s links."""
        return slice(*self._span[orphan])

    def best(self, orphan: int) -> tuple[int, list[float] | None] | None:
        """The best replier to ``orphan``'s probe now and (ETX ranking)
        its link's ETX and observed flag, or ``None``.

        Ranking by ETX-weighted path cost to the root while some
        replier's route was ever observed, by Euclidean distance otherwise
        (or always, without ETX ranking); ties go to the nearer, then the
        lower-numbered neighbour.
        """
        lo, hi = self._span[orphan]
        cost = self._cost[lo:hi]
        # A NaN cost sorts last: it marks a neighbour that does not reply.
        first = int(
            np.lexsort(
                (self.neighbors[lo:hi], self._distance[lo:hi], cost)
                if self._route_observed[lo:hi].any()
                # No relevant link ever observed: ETX would just replay the
                # prior everywhere, so fall back to nearest-neighbour adoption.
                else (self.neighbors[lo:hi], self._distance[lo:hi], np.isnan(cost))
            )[0]
        )
        if math.isnan(cost[first]):
            return None
        link = lo + first
        if self._etx is None:
            return int(self.neighbors[link]), None
        return int(self.neighbors[link]), [float(self._etx[link]), float(self._observed[link])]

    def charges(self, probed: list[int], parents: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Every frame of the pass's probes, in exchange order: the vertex
        of each and whether it sends (one ACK-sized cost for all).

        Probe ``s`` of orphan ``probed[s]`` is its beacon, every listening
        neighbour hearing it, a reply from each neighbour rooted-up at
        ``s``, the orphan hearing each reply, then, if it adopted
        ``parents[s]`` (``-1``: the probe failed), the adopt request and
        accept.  Each vertex's charges keep that order.
        """
        orphans = np.array(probed, dtype=np.int64)
        parents = np.array(parents, dtype=np.int64)
        spans = [self._span[orphan] for orphan in probed]
        starts = np.array([lo for lo, _ in spans], dtype=np.int64)
        counts = np.array([hi for _, hi in spans], dtype=np.int64) - starts
        step = np.repeat(np.arange(len(probed)), counts)
        links = csr_ranges(starts, counts)
        # The probe is a local broadcast at full radio range: every up
        # neighbour pays the listen, but only neighbours that hold a working
        # route (and are not in the orphan's own subtree) answer, with an
        # ACK-sized beacon, like route advertisements in CTP or RPL.
        heard = self._listen[links]
        replied = heard & (self._work.rooted_after[self.neighbors[links]] < step)
        listeners = np.bincount(step[heard], minlength=len(probed))
        replies = np.bincount(step[replied], minlength=len(probed))
        adopted = parents >= 0
        # Each probe's frames in order, and where each part starts.
        sizes = 1 + listeners + 2 * replies + 4 * adopted
        beacon = np.cumsum(sizes) - sizes
        heard_at = beacon + 1
        replied_at = heard_at + listeners
        adopt_at = replied_at + 2 * replies
        total = int(sizes.sum())
        vertices = np.empty(total, dtype=np.int64)
        sends = np.zeros(total, dtype=bool)
        vertices[beacon] = orphans
        sends[beacon] = True
        # The k-th frame of a part sits k places after the part's start.
        steps, first = step[heard], np.cumsum(listeners) - listeners
        vertices[heard_at[steps] + np.arange(len(steps)) - first[steps]] = self.neighbors[
            links[heard]
        ]
        steps, first = step[replied], np.cumsum(replies) - replies
        at = replied_at[steps] + np.arange(len(steps)) - first[steps]
        vertices[at] = self.neighbors[links[replied]]
        sends[at] = True
        # The orphan hears each reply, in reply order, right after them.
        vertices[at + replies[steps]] = orphans[steps]
        # The adopt request, heard by the parent, and its accept, heard by
        # the orphan.
        at = adopt_at[adopted]
        vertices[at] = vertices[at + 3] = orphans[adopted]
        vertices[at + 1] = vertices[at + 2] = parents[adopted]
        sends[at] = sends[at + 2] = True
        return vertices, sends


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

    def reachable_mask(self) -> np.ndarray:
        """Mask of the up sensors whose whole path to the root is up, read
        afresh from the current tree and down set."""
        tree = self.net.tree
        down = self.net._down_mask()
        return _reachable(tree, None if down is None else tree.below(down))

    def reachable_sensors(self) -> tuple[int, ...]:
        """:meth:`reachable_mask`'s sensors, ascending."""
        return tuple(np.flatnonzero(self.reachable_mask()).tolist())

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
        network's down mask and its cut-off cover, which the network keeps
        per tree and plan stamp: the round's tree's, and the repaired
        one's if an orphan was re-attached.
        """
        energy_before = float(self.net.ledger.energy.sum())
        reattached: list[tuple[int, int]] = []
        fallback: list[int] = []
        detached: list[int] = []
        rejoined: list[int] = []
        down = self.net._down_mask()
        cut = self.net._cut_off()
        try:
            reattached = self._reattach_orphans(down, cut)
            if reattached:
                cut = self.net._cut_off()
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
            self.watchdog.retarget(tree, np.flatnonzero(_reachable(tree, cut)))
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
        reachable = self.reachable_mask()
        self.detached = set(np.flatnonzero(tree.sensor_mask & ~reachable).tolist())
        algorithm.reset_participation(self.net, self.detached)
        if self.watchdog is not None:
            self.watchdog.retarget(tree, np.flatnonzero(reachable))

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
                self._settle_park_queue(None, None, set())
                return []
            _, children = csr_pairs(
                tree.child_ptr, tree.child_index, np.flatnonzero(down_mask)
            )
            pending = children[~down_mask[children]].tolist()
            if tree.relays:
                pending = [v for v in pending if v not in tree.relays]
            if not pending:
                self._settle_park_queue(None, down_mask, set())
                return []
            etx = self.parent_metric == "etx"
            work = _WorkingTree(tree, cut, self.net.uplink_etx() if etx else None)
            probes = _ProbeLinks(
                self.graph,
                sorted(pending),
                down_mask,
                tree.root,
                work,
                self.net.link_stats if etx else None,
            )
            depth = work.depth
            pending.sort(key=lambda v: (depth[v], v))
            orphans = set(pending)
            # Each probe's orphan and adopted parent (-1: it failed).
            probed: list[int] = []
            parents: list[int] = []
            moves: list[tuple[int, int]] = []
            failed: set[int] = set()
            while True:
                orphan = next((v for v in pending if v not in failed), None)
                if orphan is None:
                    break
                found = probes.best(orphan)
                probed.append(orphan)
                if found is None:
                    parents.append(-1)
                    failed.add(orphan)
                    continue
                candidate, hop = found
                parents.append(candidate)
                moved, rooted = work.adopt(
                    orphan, candidate, down_mask, len(probed) - 1, hop
                )
                probes.offer(rooted)
                pending.remove(orphan)
                if len(moved) > 1 and not orphans.isdisjoint(moved[1:].tolist()):
                    # Pending orphans inside the moved subtree changed depth.
                    pending.sort(key=lambda v: (depth[v], v))
                if failed:
                    # A successful adopt restores root connectivity for exactly
                    # the orphan's subtree; a previously failed orphan can only
                    # have gained an eligible candidate if it physically
                    # neighbours that subtree.  Everyone else's probe would
                    # replay the identical (charged!) beacon exchange and fail
                    # identically — don't re-probe them.
                    neighbors = probes.neighbors
                    failed = {
                        v
                        for v in failed
                        if not np.isin(neighbors[probes.links(v)], moved).any()
                    }
                moves.append((orphan, candidate))
            self.stats.probe_count += len(probed)
            vertices, sends = probes.charges(probed, parents)
            ack = ack_cost()
            self._log.charge_each(vertices, sends, ack)
            self._bits += int(np.count_nonzero(sends)) * ack.total_bits
            if moves:
                self.net.retarget(tree_multi_reparented(tree, moves))
                # The adopting parents report the membership change up the
                # repaired tree so the root can patch its branch bookkeeping.
                self._report_to_root([new_parent for _, new_parent in moves])
            self._settle_park_queue(work, down_mask, failed)
            return moves
        finally:
            self._flush()

    def _settle_park_queue(
        self,
        work: _WorkingTree | None,
        down: np.ndarray | None,
        failed: set[int],
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
            members = work.subtree(vertex)
            self._log.charge_recv_each(members[~down[members]], ack)

    def _expired_fallbacks(self) -> list[int]:
        fresh = self._expired
        self._expired = []
        return fresh

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
        sensors = tree.sensor_mask
        back = np.fromiter(self.detached, dtype=np.int64, count=len(self.detached))
        newly_gone = []
        if cut is not None:
            gone = cut & sensors
            gone[back] = False
            newly_gone = np.flatnonzero(gone).tolist()
            back = back[~cut[back]]
        newly_back = np.sort(back[sensors[back]]).tolist()
        try:
            for vertex in newly_gone:
                # A down node's silence is noticed by its parent; the report
                # can only travel where an up path exists.
                reporter = tree.parent[vertex]
                if not cut[reporter]:
                    self._report_to_root([reporter])
                self.detached.add(vertex)
                detached.append(vertex)
                algorithm.detach(self.net, vertex)

            push = message_bits(VALUE_BITS)
            for vertex in newly_back:
                # Filter re-push (one hop down), then the node reports its
                # current value up so the root can patch its counters.
                self._log.charge_send(tree.parent[vertex], push)
                self._log.charge_recv(vertex, push)
                self._bits += push.total_bits
                self._report_to_root([vertex])
                self.detached.discard(vertex)
                rejoined.append(vertex)
                algorithm.rejoin(self.net, values, vertex)
        finally:
            self._flush()

    # -- charging helpers -----------------------------------------------------

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

    def _report_to_root(self, starts: list[int]) -> None:
        """Report a membership change from each of ``starts`` up its tree
        path, in order.

        Membership reports are tiny (a vertex id and a flag) and ride
        piggybacked on the next already-scheduled frame of each hop, so they
        cost their payload bits but no extra MAC frames or headers.
        """
        tree = self.net.tree
        vertices: list[int] = []
        sends: list[bool] = []
        for start in starts:
            path = tree.path_to_root(start)
            hops = len(path) - 1
            # Each hop is a send by the child and a receive by its parent.
            # Every vertex hears its child before it forwards, so logging a
            # report's receives before its sends keeps each vertex's order.
            vertices += path[1:]
            vertices += path[:-1]
            sends += [False] * hops
            sends += [True] * hops
        if vertices:
            cost = MessageCost(messages=0, total_bits=VALUE_BITS, payload_bits=VALUE_BITS)
            self._log.charge_each(vertices, sends, cost)
            self._bits += cost.total_bits * (len(vertices) // 2)
