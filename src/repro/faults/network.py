"""A TreeNetwork whose links lose frames, whose nodes die — and which
optionally fights back with per-hop ARQ.

:class:`FaultyTreeNetwork` plugs a :class:`~repro.faults.plan.FaultPlan`
into the engine's fault seam — its own batched convergecast draws from the
plan, and broadcasts and repair read the plan's down set through
``_down_mask`` — so **every** algorithm in the package (exact and sketch)
runs under injected faults without modification.  On top of the
raw faults sits the first recovery mechanism, :class:`ArqPolicy`: stop-and-
wait acknowledgements with a bounded retransmission budget, every attempt
honestly charged to the energy ledger:

* each data-frame attempt costs the child one send and the (live) parent
  one receive;
* a received frame is acknowledged with an
  :func:`~repro.radio.message.ack_cost` frame (parent pays the send, child
  the receive) — and the ACK itself can be lost, in which case the child
  retransmits a frame the parent already has (the parent de-duplicates by
  sequence number, but the energy is spent either way);
* a child whose frame was lost still listens through the ACK window in
  vain, paying the receive cost of an ACK-sized frame.

Broadcasts stay loss-free (flooding redundancy masks individual drops) but
are pruned by churn: a dead internal vertex cannot retransmit, so its whole
subtree misses the flood — see ``TreeNetwork.broadcast``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, TypeVar

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, IndependentLoss
from repro.network.linkstats import LinkQualityEstimator
from repro.network.tree import RoutingTree
from repro.radio.ledger import EnergyLedger
from repro.sim.engine import Payload, PayloadBatch, TreeNetwork, _Hops
from repro.sim.vectorized import held_vertices, preorder_rank

P = TypeVar("P", bound=Payload)


@dataclass(frozen=True)
class ArqPolicy:
    """Per-hop stop-and-wait ARQ with a bounded retry budget.

    ``max_retries == 0`` disables the protocol entirely (no ACK traffic,
    single best-effort attempt) so that retry sweeps compare against a true
    zero-overhead baseline.
    """

    max_retries: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    @property
    def enabled(self) -> bool:
        """Whether ACKs and retransmissions happen at all."""
        return self.max_retries > 0

    @property
    def max_attempts(self) -> int:
        """Data-frame transmissions allowed per hop."""
        return self.max_retries + 1

    #: Label used in result tables for the retry axis.
    @property
    def label(self) -> int | str:
        return self.max_retries

    def attempts_for(self, sender: int, receiver: int) -> int:
        """Data-frame attempts budgeted for this directed link."""
        return self.max_attempts

    def observe(self, sender: int, receiver: int, delivered: bool) -> None:
        """Feedback after one attempt (ACK-confirmed or not).

        The static policy ignores it; adaptive controllers learn from it.
        """


class AdaptiveArqPolicy(ArqPolicy):
    """Per-link ARQ whose retry budget follows an EWMA of observed loss.

    Each directed link keeps an exponentially weighted estimate ``p`` of its
    attempt-failure probability, learned from ACK-confirmed outcomes.  The
    retry budget for the link is the smallest number of attempts that
    reaches ``target_delivery`` under i.i.d. loss ``p``::

        attempts = ceil(log(1 - target_delivery) / log(p))

    clamped to ``[1, max_retries + 1]``.  Quiet links near-instantly decay
    to single attempts (no wasted retransmission slots), while a link inside
    a Gilbert-Elliott burst ramps its budget up within a few rounds — the
    per-link replacement for the global ``retries`` knob.

    The learned state lives in the policy's own
    :class:`~repro.network.linkstats.LinkQualityEstimator`
    (:attr:`estimator`).  :class:`FaultyTreeNetwork` adopts it as its
    :attr:`~FaultyTreeNetwork.link_stats`, so ARQ, tree repair and rotation
    all read the same per-link picture.

    Note: instances carry mutable learning state — use one per experiment
    cell, not a shared constant.  Consequently equality is *identity*: two
    policies with the same configuration but different learned state are
    different policies, and the inherited frozen-dataclass ``__eq__``
    (which compared ``max_retries`` only) would lie about that.
    """

    def __init__(
        self,
        max_retries: int = 5,
        target_delivery: float = 0.99,
        smoothing: float = 0.25,
        prior_loss: float = 0.05,
    ) -> None:
        if max_retries < 1:
            raise ConfigurationError(
                f"adaptive ARQ needs max_retries >= 1, got {max_retries}"
            )
        if not 0.0 < target_delivery < 1.0:
            raise ConfigurationError(
                f"target_delivery must be in (0, 1), got {target_delivery}"
            )
        object.__setattr__(self, "max_retries", max_retries)
        object.__setattr__(self, "target_delivery", target_delivery)
        object.__setattr__(
            self,
            "estimator",
            LinkQualityEstimator(smoothing=smoothing, prior_loss=prior_loss),
        )

    @property
    def smoothing(self) -> float:
        """EWMA weight of the newest loss sample (the estimator's)."""
        return self.estimator.smoothing

    @property
    def prior_loss(self) -> float:
        """Loss assumed for never-observed links (the estimator's)."""
        return self.estimator.prior_loss

    @property
    def enabled(self) -> bool:
        """Adaptive ARQ always runs the ACK protocol (it needs the feedback)."""
        return True

    @property
    def label(self) -> int | str:
        return "adp"

    def link_loss(self, sender: int, receiver: int) -> float:
        """Current loss estimate for the directed link."""
        return self.estimator.loss(sender, receiver)

    def attempts_for(self, sender: int, receiver: int) -> int:
        loss = min(max(self.link_loss(sender, receiver), 0.0), 0.999)
        if loss <= 0.0:
            attempts = 1
        else:
            attempts = math.ceil(
                math.log(1.0 - self.target_delivery) / math.log(loss)
            )
        return max(1, min(attempts, self.max_attempts))

    def observe(self, sender: int, receiver: int, delivered: bool) -> None:
        self.estimator.observe(sender, receiver, delivered)

    # The frozen-dataclass __eq__/__repr__ inherited from ArqPolicy compare
    # and print ``max_retries`` alone, silently equating policies whose
    # learned per-link state (and even target_delivery/smoothing) differ.
    def __eq__(self, other: object) -> bool:
        return self is other

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(max_retries={self.max_retries}, "
            f"target_delivery={self.target_delivery}, "
            f"smoothing={self.smoothing}, prior_loss={self.prior_loss}, "
            f"links_observed={self.estimator.num_links})"
        )


class FaultyTreeNetwork(TreeNetwork):
    """Tree network with pluggable fault injection and per-hop ARQ."""

    #: Always true: the batched faulty convergecast is the only one.  Kept
    #: as a class attribute for perfbench's
    #: ``test_tracer_keeps_hook_identities_and_restores_everything``.
    _vector_faulty_convergecast = True

    def __init__(
        self,
        tree: RoutingTree,
        ledger: EnergyLedger,
        plan: FaultPlan | None = None,
        arq: ArqPolicy | None = None,
        virtual_vertices: frozenset[int] | set[int] = frozenset(),
        link_stats: LinkQualityEstimator | None = None,
    ) -> None:
        super().__init__(tree, ledger, virtual_vertices)
        self.plan = plan if plan is not None else FaultPlan()
        self.arq = arq if arq is not None else ArqPolicy()
        if link_stats is None:
            # One shared per-link picture: an adaptive ARQ policy already
            # learns into an estimator, so repair and rotation read that
            # same one instead of keeping a private copy.
            link_stats = getattr(self.arq, "estimator", None)
        #: Per-directed-link loss/ETX estimates, fed by every ARQ exchange.
        self.link_stats = (
            link_stats if link_stats is not None else LinkQualityEstimator()
        )
        # When the policy learns into the shared estimator itself (its
        # ACK-confirmed viewpoint already covers the uplink), the network
        # must not fold the raw data-frame outcome in a second time.
        self._feeds_uplink_stats = (
            getattr(self.arq, "estimator", None) is not self.link_stats
        )
        #: Data frames that failed to reach their (live) parent, attempts
        #: counted individually.
        self.lost_transmissions = 0
        #: Extra data-frame attempts beyond the first, summed over hops.
        self.retransmissions = 0
        #: Acknowledgement frames put on the air by receiving parents.
        self.acks_sent = 0
        #: ACK frames that were lost (triggering a redundant retransmission).
        self.lost_acks = 0
        # What the network derives from the plan's down set, kept per plan
        # stamp: ``(plan, stamp, mask, per-vertex list)``, and the cut-off
        # cover per tree on top of it: ``(plan, stamp, tree, cover)``.
        self._down_state: tuple | None = None
        self._cover_state: tuple | None = None
        # Each vertex's uplink and downlink slot in ``link_stats`` on the
        # bound tree: ``(tree, link_stats, links known when synced, up,
        # down)``.
        self._slot_state: tuple | None = None

    # -- round lifecycle ------------------------------------------------------

    def begin_faults_round(self, round_index: int) -> frozenset[int]:
        """Advance the fault plan by one round; returns newly dead vertices."""
        return self.plan.begin_round(self.tree, round_index)

    def live_sensor_nodes(self) -> tuple[int, ...]:
        """Sensor nodes that are up this round (not dead, not in an outage)."""
        tree = self.tree
        mask = self._down_mask()
        if mask is None:
            return tree.sensor_nodes
        return tuple(np.flatnonzero(tree.sensor_mask & ~mask).tolist())

    # -- fault seam -----------------------------------------------------------

    def _down_mask(self) -> np.ndarray | None:
        return self._down()[0]

    def _down(self) -> tuple[np.ndarray | None, list[bool]]:
        """The down mask (``None``: nobody is down) and the same as a
        per-vertex list, both read-only and built once per plan stamp."""
        plan = self.plan
        state = self._down_state
        if state is None or state[0] is not plan or state[1] != plan.stamp:
            n = self.tree.num_vertices
            mask = None
            if plan.dead or plan.down:
                mask = np.zeros(n, dtype=bool)
                if plan.dead:
                    mask[list(plan.dead)] = True
                if plan.down:
                    mask[list(plan.down)] = True
                mask.flags.writeable = False
            down_list = [False] * n if mask is None else mask.tolist()
            state = self._down_state = (plan, plan.stamp, mask, down_list)
        return state[2], state[3]

    def _cut_off(self) -> np.ndarray | None:
        """:meth:`TreeNetwork._cut_off`, computed once per tree and plan
        stamp (read-only)."""
        mask = self._down_mask()
        if mask is None:
            return None
        plan, tree = self.plan, self.tree
        state = self._cover_state
        if (
            state is None
            or state[0] is not plan
            or state[1] != plan.stamp
            or state[2] is not tree
        ):
            cover = tree.below(mask)
            cover.flags.writeable = False
            state = self._cover_state = (plan, plan.stamp, tree, cover)
        return state[3]

    # -- link-quality slots ---------------------------------------------------

    def _link_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Per vertex of the bound tree: the ``link_stats`` slot of its
        uplink and of its downlink (``-1``: never observed).

        Kept across calls and brought up to date lazily: after a rebuild
        only the vertices whose parent changed are looked up again, and
        unseen links only when the table has grown since the last sync.
        """
        tree, stats = self.tree, self.link_stats
        state = self._slot_state
        if (
            state is not None
            and state[0] is tree
            and state[1] is stats
            and state[2] == stats.num_links
        ):
            return state[3], state[4]
        parent = tree.parent_array
        if state is None or state[1] is not stats:
            up = np.full(len(parent), -1, dtype=np.int64)
            down = up.copy()
            stale = np.arange(len(parent))
        else:
            up, down = state[3].copy(), state[4].copy()
            moved = parent != state[0].parent_array
            if state[2] != stats.num_links:
                moved |= (up < 0) | (down < 0)
            stale = np.flatnonzero(moved)
        if len(stale):
            up[stale] = stats.slots(stale, parent[stale])
            down[stale] = stats.slots(parent[stale], stale)
        self._slot_state = (tree, stats, stats.num_links, up, down)
        return up, down

    def _observe_hops(
        self,
        senders: np.ndarray,
        attempts: np.ndarray,
        frame_ok: np.ndarray,
        uplink: np.ndarray | None,
        final_ack: np.ndarray | None,
    ) -> None:
        """Fold one walk's channel samples into ``link_stats``
        (:meth:`~repro.network.linkstats.LinkQualityEstimator.observe_hops`
        over the senders' uplinks on the bound tree), reading the links'
        slots from the cache and writing first sightings back to it."""
        stats = self.link_stats
        up, down = self._link_slots()
        up_hops, down_hops = up[senders], down[senders]
        stats.observe_hops(
            senders,
            self.tree.parent_array[senders],
            attempts,
            frame_ok,
            uplink,
            final_ack,
            slots=(up_hops, down_hops),
        )
        up[senders] = up_hops
        down[senders] = down_hops
        self._slot_state = (self.tree, stats, stats.num_links, up, down)

    def uplink_etx(self) -> tuple[np.ndarray, np.ndarray]:
        """Per vertex: the ETX of its uplink on the bound tree and whether
        that link was ever observed (see
        :meth:`~repro.network.linkstats.LinkQualityEstimator.etx_at`)."""
        return self.link_stats.etx_at(*self._link_slots())

    # -- faulty convergecast --------------------------------------------------
    #
    # Loss and ARQ decide whether a hop's frame gets through, never how big
    # it is.  So the faulty network differs from the reliable one only in
    # its hop decider: :meth:`_walk_hops` makes every hop decision first —
    # loss draws, retry cut-offs, ARQ feedback, tracking only which
    # vertices hold something — and the engine's one fold merges and
    # charges along those decisions.  ``convergecast`` stays this class's
    # own one-statement method rather than a call to the base one, so an
    # instrumentation wrapper around each class's ``convergecast`` times a
    # faulty convergecast apart from a reliable one.

    def convergecast(
        self, contributions: "Mapping[int, P] | PayloadBatch"
    ) -> Optional[P]:
        return self._fold(contributions, self._walk_hops)

    def _walk_hops(self, ids: np.ndarray) -> _Hops:
        """Make every hop decision of one convergecast of ``ids``' payloads.

        Bit-identical to the per-hop reference walk's decisions.  The walk
        visits only the vertices whose subtree holds a contribution, in hop
        order, and of those only the ones a payload reaches send:

        * i.i.d. loss under a static policy compares uniforms drawn in
          blocks from the plan's generator inline.  Every start position
          of a block has its hop precomputed (:func:`_stop_and_wait`), so
          a hop is one lookup of its outcome and the next hop's start; on
          exit the generator is rewound and advanced by exactly the
          uniforms used, so its state matches one scalar draw per frame.
          Every other loss model, and any loss under a learning policy,
          draws each frame through
          :meth:`~repro.faults.plan.FaultPlan.transmission_lost`, the
          reference walk's own call;
        * a hop to a down parent is dead air: every attempt fails without
          a draw;
        * a static policy's link-quality samples are replayed after the
          walk (:meth:`~repro.network.linkstats.LinkQualityEstimator.
          observe_hops`); a learning policy (overridden ``attempts_for``
          or ``observe``) reads its estimator between hops, so its budgets
          and feedback run inline, in the reference walk's order.

        The walk books the fault counters (lost frames, retransmissions,
        ACKs sent and lost) itself, so the fold's charge knows nothing of
        faults.  The result also carries ``reach``: per vertex, the
        highest vertex a payload held there gets to along delivered
        uplinks.  A down contributor never sends, so its ``reach`` is
        itself.
        """
        tree = self.tree
        plan = self.plan
        n = tree.num_vertices
        down_arr, down_list = self._down()
        has_payload = np.zeros(n, dtype=bool)
        if down_arr is None:
            has_payload[ids] = True
        else:
            has_payload[ids[~down_arr[ids]]] = True
        hp = has_payload.tolist()
        visit = held_vertices(tree, preorder_rank(tree, ids)).tolist()
        parent = tree.parent
        virtual = self.virtual_vertices
        has_virtual = bool(virtual)
        arq = self.arq
        arq_cls = type(arq)
        fixed_budget = arq_cls.attempts_for is ArqPolicy.attempts_for
        arq_observes = arq_cls.observe is not ArqPolicy.observe
        learning = not fixed_budget or arq_observes
        enabled = arq.enabled
        budget = max(1, arq.max_attempts)
        loss = plan.loss
        inline_iid = not learning and type(loss) is IndependentLoss
        p = loss.probability if inline_iid else 0.0
        draws = inline_iid and p > 0.0
        per_frame = learning or (not inline_iid and loss is not None)

        attempts_for = arq.attempts_for
        arq_observe = arq.observe
        observe = self.link_stats.observe
        observe_up = learning and self._feeds_uplink_stats
        transmission_lost = plan.transmission_lost

        tx: list[int] = []
        pd_hops: list[int] = []
        edge_del = [False] * n
        reached: list[int] = []
        tx_append = tx.append
        reached_append = reached.append
        # The per-frame route records every attempt as it happens.
        natt: list[int] = []
        fo_flat: list[bool] = []
        final_ack: list[bool] = []
        natt_append = natt.append
        fo_append = fo_flat.append
        fa_append = final_ack.append
        # The lookup route records where each hop's outcome sits in the
        # lookup tables (-1: dead air) and reads it out after the walk.
        starts: list[int] = []
        starts_append = starts.append

        # Uniform blocks for the inline i.i.d. route.  ``Generator.random``
        # continues one stream across calls, so a refill appends the next
        # block to the unused tail.  A hop reads at most ``need`` uniforms:
        # positions past ``last`` lack the lookahead and wait for a refill.
        rng = plan.rng
        rng_random = rng.random
        need = 2 * budget if enabled else 1
        block = max(128, need)
        tables: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        buf = np.zeros(0, dtype=bool)
        table: list[int] = []
        base = bi = offset = 0
        last = -1
        state0 = rng.bit_generator.state if draws else None
        try:
            for vertex in visit:
                if not hp[vertex] or down_list[vertex]:
                    continue
                par = parent[vertex]
                if has_virtual and vertex in virtual:
                    # A device-internal link: no radio, and it delivers
                    # unless the host is down (a down vertex holds
                    # nothing, so its virtual children's data dies too).
                    if not down_list[par]:
                        edge_del[vertex] = True
                        reached_append(vertex)
                    hp[par] = True
                    continue
                tx_append(vertex)
                if down_list[par]:
                    # Dead air: every attempt fails without a draw.
                    pd_hops.append(len(tx) - 1)
                    if not per_frame:
                        starts_append(-1)
                        continue
                    k = (
                        budget
                        if fixed_budget
                        else max(1, attempts_for(vertex, par))
                    )
                    k = k if enabled else 1
                    for _ in range(k):
                        fo_append(False)
                        if arq_observes and enabled:
                            arq_observe(vertex, par, False)
                    natt_append(k)
                    fa_append(False)
                    continue
                if draws:
                    if bi > last:
                        # About two uniforms per hop still to come.
                        fresh = rng_random(2 * (len(visit) - len(tx)) + block) >= p
                        if tables:
                            offset += last + 1
                        base += bi
                        buf = np.concatenate([buf[bi:], fresh])
                        bi = 0
                        last = len(buf) - need
                        *outcome, after = _stop_and_wait(
                            buf, np.arange(last + 1), budget, enabled
                        )
                        tables.append(outcome)
                        # Per start: the next hop's start, times two, plus
                        # whether this hop's frame got through.
                        table = (2 * after + outcome[1].any(axis=1)).tolist()
                    starts_append(offset + bi)
                    step = table[bi]
                    bi = step >> 1
                    if not step & 1:
                        continue
                elif per_frame:
                    hop_budget = (
                        budget
                        if fixed_budget
                        else max(1, attempts_for(vertex, par))
                    )
                    k = 0
                    afin = False
                    delivered = False
                    while True:
                        k += 1
                        fo = not transmission_lost(vertex, par)
                        if observe_up:
                            observe(vertex, par, fo)
                        fo_append(fo)
                        if fo:
                            delivered = True
                            if not enabled:
                                break
                            afin = not transmission_lost(par, vertex)
                            if learning:
                                observe(par, vertex, afin)
                            if afin:
                                if arq_observes:
                                    arq_observe(vertex, par, True)
                                break
                        elif not enabled:
                            break
                        if arq_observes:
                            arq_observe(vertex, par, False)
                        if k == hop_budget:
                            break
                    natt_append(k)
                    fa_append(afin)
                    if not delivered:
                        continue
                else:
                    # Loss disabled or zero-probability: no randomness
                    # is consumed and the first frame always delivers.
                    starts_append(0)
                edge_del[vertex] = True
                reached_append(vertex)
                hp[par] = True
        finally:
            if tables:
                rng.bit_generator.state = state0
                consumed = base + bi
                if consumed:
                    rng_random(consumed)

        hop_i = len(tx)
        if per_frame:
            attempts = np.array(natt, dtype=np.int64)
            frame_ok = np.array(fo_flat, dtype=bool)
            acked = np.array(final_ack, dtype=bool)
        else:
            attempts, frame_ok, acked = _looked_up_hops(
                np.array(starts, dtype=np.int64), tables, draws, budget, enabled
            )
        parent_np = tree.parent_array
        # Each vertex's next stop up, then pointer jumping: after ``k``
        # jumps ``reach`` looks ``2**k`` hops ahead, and no path is longer
        # than the tree's depth.
        reach = np.arange(n, dtype=np.int64)
        up = np.array(reached, dtype=np.int64)
        reach[up] = parent_np[up]
        for _ in range((len(tree.levels) - 2).bit_length()):
            reach = reach[reach]
        parent_up = np.ones(hop_i, dtype=bool)
        if pd_hops:
            parent_up[pd_hops] = False
        senders = np.array(tx, dtype=np.int64)
        frames = len(frame_ok)
        ok_attempts = int(np.count_nonzero(frame_ok))
        self.lost_transmissions += frames - ok_attempts
        self.retransmissions += frames - hop_i
        if enabled:
            # Every delivered frame is acknowledged, and only a hop's last
            # ACK can have got through.
            self.acks_sent += ok_attempts
            self.lost_acks += ok_attempts - int(np.count_nonzero(acked))
        if hop_i and not learning:
            # A static policy's channel samples, replayed in one pass.
            self._observe_hops(
                senders,
                attempts,
                frame_ok,
                parent_up if self._feeds_uplink_stats else None,
                acked if enabled else None,
            )
        return _Hops(
            senders=senders,
            attempts=attempts,
            frame_ok=frame_ok,
            parent_up=parent_up,
            arq=enabled,
            down=down_list,
            delivered_up=edge_del,
            reach=reach,
        )


def _looked_up_hops(
    starts: np.ndarray,
    tables: list[list[np.ndarray]],
    draws: bool,
    budget: int,
    enabled: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attempts, frame outcomes (hop by hop, each hop's attempts in rank
    order) and final ACK of the lookup route's hops.

    ``starts`` is each hop's position in the walk's lookup tables, their
    :func:`_stop_and_wait` outcomes one after the other (without loss:
    one delivered frame each); ``-1`` marks dead air, whose every attempt
    failed.
    """
    width = budget if enabled else 1
    sending = starts >= 0
    attempts = np.full(len(starts), width, dtype=np.int64)
    frames = np.zeros((len(starts), width), dtype=bool)
    acked = np.zeros(len(starts), dtype=bool)
    if not draws:
        attempts[sending] = 1
        frames[sending, 0] = True
        acked[sending] = True
    elif tables:
        k, f, a = (
            tables[0]
            if len(tables) == 1
            else [np.concatenate(part) for part in zip(*tables)]
        )
        at = starts[sending]
        attempts[sending], frames[sending], acked[sending] = k[at], f[at], a[at]
    return attempts, frames[np.arange(width) < attempts[:, None]], acked


def _stop_and_wait(
    ok: np.ndarray, starts: np.ndarray, budget: int, arq: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stop-and-wait hops read off a stream of channel outcomes.

    A hop starting at ``starts[h]`` takes its outcomes from ``ok`` in
    order: one per data frame and, with ``arq`` on, one per ACK of a
    delivered frame.  It stops on an acknowledged frame or after
    ``budget`` attempts; without ARQ after its one frame.  Every start
    needs ``2 * budget`` (``1`` without ARQ) outcomes ahead of it.

    Returns per hop: the attempts, the frame outcomes (one column per
    attempt rank, ``False`` past the hop's last attempt), whether its last
    ACK got through, and the position after its last outcome.  Each rank
    is one array step over every hop: a hop keeps reading past its end,
    and the ranks after its first acknowledged frame are dropped.
    """
    count = len(starts)
    if not arq:
        return (
            np.ones(count, dtype=np.int64),
            ok[starts][:, None],
            np.zeros(count, dtype=bool),
            starts + 1,
        )
    acked_at = ok[:-1] & ok[1:]
    frames = np.empty((count, budget), dtype=bool)
    attempts = np.ones(count, dtype=np.int64)
    at = starts
    # ``done``: acknowledged at an earlier rank; ``sending``: not ``done``.
    done = after = None
    for rank in range(budget):
        frame = ok[at]
        acked = acked_at[at]
        at = at + 1 + frame
        if rank:
            sending = ~done
            np.logical_and(frame, sending, out=frames[:, rank])
            attempts += sending
            np.copyto(after, at, where=sending)
            done |= acked
        else:
            frames[:, 0] = frame
            after = at
            done = acked
    return attempts, frames, done, after
