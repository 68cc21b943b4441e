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

    # -- round lifecycle ------------------------------------------------------

    def begin_faults_round(self, round_index: int) -> frozenset[int]:
        """Advance the fault plan by one round; returns newly dead vertices."""
        return self.plan.begin_round(self.tree, round_index)

    def live_sensor_nodes(self) -> tuple[int, ...]:
        """Sensor nodes that are up this round (not dead, not in an outage)."""
        sensors = self.tree.sensor_nodes
        mask = self._down_mask()
        if mask is None:
            return sensors
        down = mask.tolist()
        return tuple(v for v in sensors if not down[v])

    # -- fault seam -----------------------------------------------------------

    def _down_mask(self) -> np.ndarray | None:
        plan = self.plan
        if not plan.dead and not plan.down:
            return None
        mask = np.zeros(self.tree.num_vertices, dtype=bool)
        if plan.dead:
            mask[list(plan.dead)] = True
        if plan.down:
            mask[list(plan.down)] = True
        return mask

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

        Bit-identical to the per-hop reference walk's decisions:

        * i.i.d. loss under a static policy compares uniforms drawn in
          blocks from the plan's generator inline; on exit the generator is
          rewound and advanced by exactly the uniforms used, so its state
          matches one scalar draw per frame.  Every other loss model, and
          any loss under a learning policy, draws each frame through
          :meth:`~repro.faults.plan.FaultPlan.transmission_lost`, the
          reference walk's own call;
        * a static policy's link-quality samples are replayed after the
          walk (:meth:`~repro.network.linkstats.LinkQualityEstimator.
          observe_hops`); a learning policy (overridden ``attempts_for``
          or ``observe``) reads its estimator between hops, so its budgets
          and feedback run inline, in the reference walk's order.

        The walk books the fault counters (lost frames, retransmissions,
        ACKs sent and lost) itself, so the fold's charge knows nothing of
        faults.  The result also carries ``reach``: per vertex, the
        highest vertex a payload held there gets to, one top-down pass
        over the levels along delivered uplinks.  A down contributor never
        sends, so its ``reach`` is itself.
        """
        tree = self.tree
        plan = self.plan
        n = tree.num_vertices
        down_arr = self._down_mask()
        has_payload = np.zeros(n, dtype=bool)
        if down_arr is None:
            has_payload[ids] = True
            down_list = [False] * n
        else:
            has_payload[ids[~down_arr[ids]]] = True
            down_list = down_arr.tolist()
        hp = has_payload.tolist()
        parent = tree.parent
        virtual = self.virtual_vertices
        arq = self.arq
        arq_cls = type(arq)
        fixed_budget = arq_cls.attempts_for is ArqPolicy.attempts_for
        arq_observes = arq_cls.observe is not ArqPolicy.observe
        learning = not fixed_budget or arq_observes
        attempts_for = arq.attempts_for
        arq_observe = arq.observe
        observe = self.link_stats.observe
        observe_up = learning and self._feeds_uplink_stats
        enabled = arq.enabled
        budget = max(1, arq.max_attempts)
        loss = plan.loss
        inline_iid = not learning and type(loss) is IndependentLoss
        p = loss.probability if inline_iid else 0.0
        draws = inline_iid and p > 0.0
        sampled = learning or (not inline_iid and loss is not None)
        transmission_lost = plan.transmission_lost

        tx: list[int] = []
        natt: list[int] = []
        fo_flat: list[bool] = []
        pd_hops: list[int] = []
        final_ack: list[bool] = []
        edge_del = [False] * n
        tx_append = tx.append
        natt_append = natt.append
        fo_append = fo_flat.append
        fa_append = final_ack.append
        lost_acks = 0
        hop_i = 0

        # Uniform blocks for the inline i.i.d. path.  ``Generator.random(n)``
        # yields the values of ``n`` scalar draws, so the ``finally`` clause
        # rewinds the generator and replays only the uniforms used: it ends
        # bit-identical to one scalar draw per frame.
        rng = plan.rng
        rng_random = rng.random
        block = max(128, 2 * len(ids))
        buf: list[float] = []
        bi = 0
        blen = 0
        nblocks = 0
        state0 = rng.bit_generator.state if draws else None
        has_virtual = bool(virtual)
        try:
            for vertex in tree.hop_order:
                if not hp[vertex]:
                    continue
                if down_list[vertex]:
                    continue
                par = parent[vertex]
                if has_virtual and vertex in virtual:
                    # A device-internal link: no radio, and it delivers
                    # unless the host is down (a down vertex holds
                    # nothing, so its virtual children's data dies too).
                    edge_del[vertex] = not down_list[par]
                    hp[par] = True
                    continue
                hop_budget = (
                    budget
                    if fixed_budget
                    else max(1, attempts_for(vertex, par))
                )
                k = 0
                delivered = False
                afin = False
                if down_list[par]:
                    # Dead air: every attempt fails without a draw.
                    k = hop_budget if enabled else 1
                    for _ in range(k):
                        fo_append(False)
                        if arq_observes and enabled:
                            arq_observe(vertex, par, False)
                    pd_hops.append(hop_i)
                elif draws:
                    while True:
                        k += 1
                        if bi == blen:
                            buf = rng_random(block).tolist()
                            bi = 0
                            blen = block
                            nblocks += 1
                        fo = buf[bi] >= p
                        bi += 1
                        fo_append(fo)
                        if fo:
                            delivered = True
                            if not enabled:
                                break
                            if bi == blen:
                                buf = rng_random(block).tolist()
                                bi = 0
                                nblocks += 1
                            afin = buf[bi] >= p
                            bi += 1
                            if afin:
                                break
                            lost_acks += 1
                        elif not enabled:
                            break
                        if k == budget:
                            break
                elif sampled:
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
                            lost_acks += 1
                        elif not enabled:
                            break
                        if arq_observes:
                            arq_observe(vertex, par, False)
                        if k == hop_budget:
                            break
                else:
                    # Loss disabled or zero-probability: no randomness
                    # is consumed and the first frame always delivers.
                    k = 1
                    fo_append(True)
                    delivered = True
                    afin = True
                tx_append(vertex)
                natt_append(k)
                fa_append(afin)
                hop_i += 1
                if delivered:
                    edge_del[vertex] = True
                    hp[par] = True
        finally:
            if nblocks:
                consumed = (nblocks - 1) * block + bi
                rng.bit_generator.state = state0
                if consumed:
                    rng_random(consumed)

        parent_np = tree.parent_array
        delivered_up = np.array(edge_del, dtype=bool)
        reach = np.arange(n, dtype=np.int64)
        for level in tree.levels[1:]:
            reach[level] = np.where(
                delivered_up[level], reach[parent_np[level]], level
            )
        parent_up = np.ones(hop_i, dtype=bool)
        if pd_hops:
            parent_up[pd_hops] = False
        senders = np.array(tx, dtype=np.int64)
        attempts = np.array(natt, dtype=np.int64)
        frame_ok = np.array(fo_flat, dtype=bool)
        ok_attempts = fo_flat.count(True)
        self.lost_transmissions += len(fo_flat) - ok_attempts
        self.retransmissions += len(fo_flat) - hop_i
        self.lost_acks += lost_acks
        if enabled:
            self.acks_sent += ok_attempts
        if hop_i and not learning:
            # A static policy's channel samples, replayed in one pass.
            self.link_stats.observe_hops(
                tx,
                parent_np[senders].tolist(),
                attempts,
                frame_ok,
                parent_up if self._feeds_uplink_stats else None,
                final_ack if enabled else None,
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
