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
from contextlib import nullcontext
from itertools import compress
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, TypeVar

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, IndependentLoss
from repro.network.linkstats import LinkQualityEstimator
from repro.network.tree import RoutingTree
from repro.radio.ledger import EnergyLedger
from repro.radio.message import ack_cost
from repro.sim.engine import (
    CollectionRecord,
    Payload,
    PayloadBatch,
    TreeNetwork,
    frame_costs,
)
from repro.sim.vectorized import expand_arq_charges, fold_columns

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

    def observe_batch(self, senders, receivers, delivered) -> None:
        """Batched feedback: equal-length outcome vectors, in attempt order.

        Must match a sample-by-sample :meth:`observe` replay exactly; the
        static policy ignores the batch like it ignores the scalars.
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

    The learned state lives in a :class:`~repro.network.linkstats.
    LinkQualityEstimator` (pass ``estimator`` to share one with other
    consumers; :class:`FaultyTreeNetwork` adopts the policy's estimator as
    its :attr:`~FaultyTreeNetwork.link_stats` so ARQ, tree repair and
    rotation all read the same per-link picture).

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
        estimator: LinkQualityEstimator | None = None,
    ) -> None:
        if max_retries < 1:
            raise ConfigurationError(
                f"adaptive ARQ needs max_retries >= 1, got {max_retries}"
            )
        if not 0.0 < target_delivery < 1.0:
            raise ConfigurationError(
                f"target_delivery must be in (0, 1), got {target_delivery}"
            )
        if estimator is None:
            estimator = LinkQualityEstimator(
                smoothing=smoothing, prior_loss=prior_loss
            )
        object.__setattr__(self, "max_retries", max_retries)
        object.__setattr__(self, "target_delivery", target_delivery)
        object.__setattr__(self, "estimator", estimator)

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

    def observe_batch(self, senders, receivers, delivered) -> None:
        # Delegates to the estimator's ordered EWMA replay, so batched
        # feedback yields bit-identical budgets to scalar feedback.
        self.estimator.observe_batch(senders, receivers, delivered)

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

    # -- vectorized faulty convergecast ---------------------------------------
    #
    # Loss and ARQ decide whether a hop's frame gets through, never how big
    # it is.  So one walk (:meth:`_walk_hops`) makes every hop decision first
    # — loss draws, retry cut-offs, ARQ feedback, tracking only which
    # vertices hold something — and the payloads are folded afterwards:
    # column batches as prefix sums (:meth:`_convergecast_faulty_batch`),
    # payload objects with ``merged_with`` (:meth:`_convergecast_faulty_vector`).
    # Both then charge the hops in one ordered batch (:meth:`_charge_hops`).

    def convergecast(
        self, contributions: "Mapping[int, P] | PayloadBatch"
    ) -> Optional[P]:
        self.exchanges += 1
        if isinstance(contributions, PayloadBatch):
            return self._convergecast_faulty_batch(contributions)
        return self._convergecast_faulty_vector(contributions)

    def _convergecast_faulty_batch(self, batch: PayloadBatch) -> Optional[Payload]:
        """Faulty convergecast of a :class:`~repro.sim.engine.PayloadBatch`.

        A sender holds its subtree's contributions minus those stuck
        strictly below it, so every hop's size comes from its column sums
        (:func:`~repro.sim.vectorized.fold_columns`, with each
        contribution's ``top`` from the walk) and no payload travels as an
        object.  The root payload folds the contributions whose ``top`` is
        an up root.
        """
        ids = batch.ids
        if not len(ids):
            return self._log_silent()
        hops = self._walk_hops(ids)
        _, sums, root_sums = fold_columns(
            self._arrays, ids, batch.columns(), holders=hops.senders, top=hops.reach[ids]
        )
        self._charge_hops(hops, *batch.hop_sizes(sums))
        reached = self._log_delivered(hops, ids, batch.contributors)
        if not reached.any():
            return None
        return batch.root_payload(root_sums, reached)

    def _convergecast_faulty_vector(
        self, contributions: Mapping[int, P]
    ) -> Optional[P]:
        """Faulty convergecast of payload objects (value sets, sketches, ...).

        After the walk, the payloads merge along the delivered uplinks in
        hop order — each sender's merged payload prices its hop — exactly
        as the per-hop reference walk merges them.
        """
        contributors: list[int] = []
        payloads: list[P] = []
        for vertex, payload in contributions.items():
            if payload.is_empty():
                continue
            contributors.append(vertex)
            payloads.append(payload)
        if not contributors:
            return self._log_silent()
        ids = np.array(contributors, dtype=np.int64)
        hops = self._walk_hops(ids)
        accumulated: list[Optional[P]] = [None] * self.tree.num_vertices
        down = hops.down
        for vertex, payload in zip(contributors, payloads):
            if not down[vertex]:
                accumulated[vertex] = payload
        parent = self.tree.parent
        virtual = self.virtual_vertices
        delivered_up = hops.delivered_up
        bits: list[int] = []
        values: list[int] = []
        # A down vertex never holds anything: its own payload stays out and
        # every frame to it is lost.
        for vertex in self._order_no_root:
            merged = accumulated[vertex]
            if merged is None:
                continue
            if vertex not in virtual:
                bits.append(merged.payload_bits())
                values.append(merged.num_values())
            if delivered_up[vertex]:
                par = parent[vertex]
                existing = accumulated[par]
                accumulated[par] = (
                    merged if existing is None else existing.merged_with(merged)
                )
        self._charge_hops(
            hops,
            np.array(bits, dtype=np.int64),
            np.array(values, dtype=np.int64),
        )
        self._log_delivered(hops, ids, None)
        return accumulated[self.tree.root]

    def _log_delivered(
        self,
        hops: "_Hops",
        ids: np.ndarray,
        everyone: "Callable[[], frozenset[int]] | None",
    ) -> np.ndarray:
        """Log which contributions reached an up root; returns that mask.

        ``everyone`` builds the set of all ``ids`` when every contribution
        got through (a batch caches it); ``None`` builds it afresh.
        """
        root = self.tree.root
        reached = hops.reach[ids] == root
        if hops.down[root]:
            reached[:] = False  # not even the root's own contribution counts
        if everyone is not None and reached.all():
            delivered = everyone()
        else:
            delivered = frozenset(ids[reached].tolist())
        self.collection_log.append(
            CollectionRecord(expected=len(ids), delivered=delivered)
        )
        return reached

    def _walk_hops(self, ids: np.ndarray) -> "_Hops":
        """Make every hop decision of one convergecast of ``ids``' payloads.

        Bit-identical to the per-hop reference walk's decisions:

        * i.i.d. loss under a static policy compares pre-drawn uniform
          blocks inline, with the same rewind-and-replay exit as
          :class:`~repro.faults.plan.UniformBlockStream`, so the generator
          state matches scalar sampling exactly; other loss models (and a
          plan overriding ``transmission_lost``) sample through the
          :meth:`~repro.faults.plan.FaultPlan.batched_sampling` shim;
        * a static policy's link-quality samples are replayed after the
          walk (:meth:`_replay_link_stats`, from :meth:`_charge_hops`); a
          learning policy (overridden ``attempts_for`` or ``observe``)
          reads its estimator between hops, so its budgets and feedback
          run inline, in the reference walk's order.

        The result also carries ``reach``: per vertex, the highest vertex
        a payload held there gets to, one top-down pass over the levels
        along delivered uplinks.  A down contributor never sends, so its
        ``reach`` is itself.
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
        custom_loss = type(plan).transmission_lost is not FaultPlan.transmission_lost
        inline_iid = (
            not learning and not custom_loss and type(loss) is IndependentLoss
        )
        p = loss.probability if inline_iid else 0.0
        draws = inline_iid and p > 0.0
        sampled = learning or (
            not inline_iid and (loss is not None or custom_loss)
        )
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

        # Local uniform-block state for the inline i.i.d. fast path: blocks
        # are drawn straight off the plan's generator and the ``finally``
        # clause rewinds-and-replays exactly like UniformBlockStream.close,
        # so the generator ends bit-identical to scalar consumption.
        rng = plan.rng
        rng_random = rng.random
        block = max(128, 2 * len(ids))
        buf: list[float] = []
        bi = 0
        blen = 0
        nblocks = 0
        state0 = rng.bit_generator.state if draws else None
        session = (
            plan.batched_sampling(block=block)
            if sampled and loss is not None
            else nullcontext()
        )
        has_virtual = bool(virtual)
        try:
            with session:
                for vertex in self._order_no_root:
                    if not hp[vertex]:
                        continue
                    if down_list[vertex]:
                        continue
                    par = parent[vertex]
                    if has_virtual and vertex in virtual:
                        edge_del[vertex] = True  # device-internal link
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

        arrays = self._arrays
        parent_np = arrays.parent
        delivered_up = np.array(edge_del, dtype=bool)
        reach = np.arange(n, dtype=np.int64)
        for level in arrays.levels[1:]:
            reach[level] = np.where(
                delivered_up[level], reach[parent_np[level]], level
            )
        parent_up = np.ones(hop_i, dtype=bool)
        if pd_hops:
            parent_up[pd_hops] = False
        return _Hops(
            senders=np.array(tx, dtype=np.int64),
            attempts=np.array(natt, dtype=np.int64),
            frame_ok=np.array(fo_flat, dtype=bool),
            parent_up=parent_up,
            final_ack=final_ack,
            lost_acks=lost_acks,
            learned=learning,
            down=down_list,
            delivered_up=edge_del,
            reach=reach,
        )

    def _charge_hops(
        self, hops: "_Hops", payload_bits: np.ndarray, values: np.ndarray
    ) -> None:
        """Charge every attempt of the walk's hops in one ordered batch.

        ``payload_bits`` and ``values`` are per hop.  A static policy's
        deferred link-quality samples are replayed here too.
        """
        n_hops = len(hops.senders)
        phase_total = 0
        if n_hops:
            enabled = self.arq.enabled
            tx_arr = hops.senders
            natt_arr = hops.attempts
            fo_arr = hops.frame_ok
            par_arr = self._arrays.parent[tx_arr]
            parent_up_arr = hops.parent_up
            if not hops.learned:
                offsets = np.zeros(n_hops, dtype=np.int64)
                np.cumsum(natt_arr[:-1], out=offsets[1:])
                nfo = (
                    np.add.reduceat(fo_arr.astype(np.int64), offsets)
                    if enabled
                    else None
                )
                self._replay_link_stats(
                    tx_arr.tolist(),
                    par_arr,
                    parent_up_arr,
                    natt_arr,
                    fo_arr,
                    offsets,
                    nfo,
                    hops.final_ack,
                    enabled,
                )
            frames, hop_bits = frame_costs(payload_bits)
            hop_index = np.repeat(np.arange(n_hops), natt_arr)
            att_child = tx_arr[hop_index]
            att_bits = hop_bits[hop_index]
            ack = ack_cost()
            send_cpb = (
                self._send_cpb_array[att_child]
                if self._send_cpb_array is not None
                else self._send_cpb
            )
            self.ledger.charge_batch(
                **expand_arq_charges(
                    att_child,
                    par_arr[hop_index],
                    att_bits,
                    frames[hop_index],
                    values[hop_index],
                    parent_up_arr[hop_index],
                    fo_arr,
                    enabled,
                    send_cpb,
                    self.ledger.model.recv_cost,
                    ack.total_bits,
                )
            )
            total_attempts = int(hop_index.shape[0])
            ok_attempts = int(fo_arr.sum())
            self.lost_transmissions += total_attempts - ok_attempts
            self.retransmissions += total_attempts - n_hops
            self.lost_acks += hops.lost_acks
            phase_total = int(att_bits.sum())
            if enabled:
                self.acks_sent += ok_attempts
                phase_total += ack.total_bits * ok_attempts
        self.phase_bits[self.phase] = (
            self.phase_bits.get(self.phase, 0) + phase_total
        )

    def _replay_link_stats(
        self,
        tx: list[int],
        par_arr: np.ndarray,
        parent_up_arr: np.ndarray,
        natt_arr: np.ndarray,
        fo_arr: np.ndarray,
        offsets: np.ndarray,
        nfo: np.ndarray | None,
        final_ack: list[bool],
        enabled: bool,
    ) -> None:
        """Replay one convergecast's deferred channel samples, bit-exactly.

        Each directed link is sampled by exactly one hop per convergecast
        (a vertex transmits at most once, so the ``(child, parent)`` and
        ``(parent, child)`` keys across hops are all distinct) and every
        sample of a link is consecutive within its hop.  Per-link EWMA
        chains are therefore independent, and folding them position-wise —
        one elementwise ``(1-s)*prev + s*sample`` array step per attempt
        index — performs the exact scalar float sequence per link.  The
        uplink chain of a hop is its per-attempt frame outcome; the
        downlink chain is one lost ACK per surviving frame except the
        last, whose outcome the walk recorded.  New links are inserted in
        hop order, uplink before downlink, matching scalar insertion
        order.
        """
        est = self.link_stats
        d = est._loss
        prior = est.prior_loss
        s = est.smoothing
        keep = 1.0 - s
        dget = d.get
        feeds_up = self._feeds_uplink_stats
        all_up = bool(parent_up_arr.all())
        par_list = par_arr.tolist()
        dn_flags = (nfo > 0).tolist() if enabled else None
        # Key tuples come straight off zip (the pair IS the key); prior
        # lookups run as map(dict.get, ...) at C speed, with a missing
        # link surfacing as None.  Missing links only appear while the
        # topology is still being explored, so the slow interleaved
        # insertion loop runs a handful of times per experiment.
        if feeds_up:
            pairs_up = zip(tx, par_list)
            up_keys = (
                list(pairs_up)
                if all_up
                else list(compress(pairs_up, parent_up_arr.tolist()))
            )
            prev_up = list(map(dget, up_keys))
        else:
            up_keys = []
            prev_up = []
        if dn_flags is not None:
            dn_keys = list(compress(zip(par_list, tx), dn_flags))
            prev_dn = list(map(dget, dn_keys))
        else:
            dn_keys = []
            prev_dn = []
        new_links = (None in prev_up) or (None in prev_dn)
        if new_links:
            prev_up = [prior if p is None else p for p in prev_up]
            prev_dn = [prior if p is None else p for p in prev_dn]
        samples = 0
        up_vals: list[float] = []
        dn_vals: list[float] = []
        if up_keys:
            up_hops = (
                np.arange(len(tx))
                if all_up
                else np.flatnonzero(parent_up_arr)
            )
            cur = np.array(prev_up, dtype=np.float64)
            lens = natt_arr[up_hops]
            starts = offsets[up_hops]
            fail = (~fo_arr).astype(np.float64)
            for j in range(int(lens.max())):
                m = lens > j
                cur[m] = keep * cur[m] + s * fail[starts[m] + j]
            up_vals = cur.tolist()
            samples += int(lens.sum())
        if dn_keys:
            assert nfo is not None
            dn_hops = np.flatnonzero(nfo > 0)
            curd = np.array(prev_dn, dtype=np.float64)
            k_arr = nfo[dn_hops]
            final_fail = (
                ~np.array(final_ack, dtype=bool)[dn_hops]
            ).astype(np.float64)
            for j in range(int(k_arr.max())):
                m = k_arr > j
                sample = np.where(k_arr[m] == j + 1, final_fail[m], 1.0)
                curd[m] = keep * curd[m] + s * sample
            dn_vals = curd.tolist()
            samples += int(k_arr.sum())
        if not new_links:
            # Every key already exists, so assignment order cannot change
            # the dict's (observable) insertion order: bulk-update.
            d.update(zip(up_keys, up_vals))
            d.update(zip(dn_keys, dn_vals))
        else:
            # First sighting of at least one link: insert in the scalar
            # walk's order — hop by hop, uplink before downlink.
            n_hops = len(tx)
            up_iter = iter(zip(up_keys, up_vals))
            dn_iter = iter(zip(dn_keys, dn_vals))
            if not feeds_up:
                up_flags = [False] * n_hops
            elif all_up:
                up_flags = [True] * n_hops
            else:
                up_flags = parent_up_arr.tolist()
            if dn_flags is None:
                dn_flags = [False] * n_hops
            for up_here, dn_here in zip(up_flags, dn_flags):
                if up_here:
                    key, val = next(up_iter)
                    d[key] = val
                if dn_here:
                    key, val = next(dn_iter)
                    d[key] = val
        est.observations += samples


@dataclass
class _Hops:
    """One faulty convergecast's hop decisions (see ``_walk_hops``)."""

    #: Transmitting vertices, in hop (bottom-up) order.
    senders: np.ndarray
    #: Data-frame attempts per hop.
    attempts: np.ndarray
    #: Per attempt: the data frame got through.
    frame_ok: np.ndarray
    #: Per hop: the receiving parent was up.
    parent_up: np.ndarray
    #: Per hop: the outcome of its last ACK.
    final_ack: list[bool]
    lost_acks: int
    #: ARQ feedback already reached the estimator during the walk.
    learned: bool
    #: Per vertex: dead or in an outage.
    down: list[bool]
    #: Per vertex: its uplink delivered (a virtual vertex's always does).
    delivered_up: list[bool]
    #: Per vertex: the highest vertex a payload held there gets to.
    reach: np.ndarray
