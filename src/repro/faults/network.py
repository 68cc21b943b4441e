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
from typing import Mapping, Optional, TypeVar

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, IndependentLoss
from repro.network.linkstats import LinkQualityEstimator
from repro.network.tree import RoutingTree
from repro.radio.ledger import EnergyLedger
from repro.radio.message import ack_cost, message_bits
from repro.sim.engine import (
    CollectionRecord,
    Payload,
    TreeNetwork,
    UniformPayload,
)
from repro.sim.vectorized import expand_arq_charges

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

    def convergecast(self, contributions: Mapping[int, P]) -> Optional[P]:
        arq = self.arq
        arq_cls = type(arq)
        static_arq = (
            arq_cls.attempts_for is ArqPolicy.attempts_for
            and arq_cls.observe is ArqPolicy.observe
        )
        # The uniform path reads plan.dead/plan.down as a mask, so a plan
        # subclass redefining is_down must keep the per-object walk.
        if (
            static_arq
            and contributions
            and type(self.plan).is_down is FaultPlan.is_down
        ):
            first = next(iter(contributions.values()))
            cls_p = type(first)
            if (
                isinstance(first, UniformPayload)
                and cls_p.uniform_leaf_values is not None
                and cls_p.is_empty is Payload.is_empty
            ):
                payloads = list(contributions.values())
                if set(map(type, payloads)) == {cls_p}:
                    contributor_idx = np.fromiter(
                        contributions.keys(),
                        dtype=np.int64,
                        count=len(payloads),
                    )
                    return self._convergecast_faulty_uniform(
                        cls_p, contributor_idx, payloads
                    )
        return self._convergecast_faulty_vector(contributions)

    def _convergecast_faulty_uniform(
        self,
        cls_p: type,
        contributor_idx: np.ndarray,
        payloads: list,
    ) -> Optional[Payload]:
        """Faulty convergecast under the ``UniformPayload`` contract.

        Bit-identical to the per-hop reference walk, like
        :meth:`_convergecast_faulty_vector`, but payload state never
        travels as objects: only the loss/ARQ *decisions* stay in a
        boolean Python loop (they consume one ordered RNG stream), and
        everything derived from them is folded as arrays afterwards —

        * subtree value counts and the delivered-contributor set are
          per-vertex folds over the delivered edges, one topological
          level at a time (int sums commute, so level order equals hop
          order);
        * the root answer comes from ``vector_reduce`` over the payloads
          whose whole path delivered (the contract makes that equal to
          the reference walk's tree-order ``merged_with`` fold);
        * i.i.d. loss draws compare pre-drawn uniform blocks inline, with
          the same rewind-and-replay exit as
          :class:`~repro.faults.plan.UniformBlockStream`, so the
          generator state matches scalar sampling exactly (other loss
          models keep the :meth:`~repro.faults.plan.FaultPlan.batched_sampling`
          shim);
        * deferred link-quality samples replay through a position-wise
          EWMA fold (:meth:`_replay_uniform_link_stats`) — valid because
          each directed link is sampled by exactly one hop per
          convergecast, so per-link chains are independent;
        * charges expand per attempt through
          :func:`~repro.sim.vectorized.expand_arq_charges` into one
          ordered ``charge_batch``.

        Only reached for static ARQ policies (the caller checks), so no
        estimator feedback is read mid-walk.
        """
        tree = self.tree
        self.exchanges += 1
        plan = self.plan
        arrays = self._arrays
        assert arrays is not None
        n = tree.num_vertices
        expected = len(payloads)
        down_arr = self._down_mask()
        if down_arr is None:
            live_idx = contributor_idx
            down_list = [False] * n
        else:
            live_idx = contributor_idx[~down_arr[contributor_idx]]
            down_list = down_arr.tolist()
        has_payload = np.zeros(n, dtype=bool)
        has_payload[live_idx] = True
        hp = has_payload.tolist()
        parent = tree.parent
        virtual = self.virtual_vertices
        arq = self.arq
        enabled = arq.enabled
        budget = max(1, arq.max_attempts)
        loss = plan.loss
        inline_iid = (
            type(plan).transmission_lost is FaultPlan.transmission_lost
            and type(loss) is IndependentLoss
        )
        p = loss.probability if inline_iid else 0.0
        draws = inline_iid and p > 0.0
        shim_mode = loss is not None and not inline_iid
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
        block = max(128, 2 * expected)
        buf: list[float] = []
        bi = 0
        blen = 0
        nblocks = 0
        state0 = rng.bit_generator.state if draws else None
        session = (
            plan.batched_sampling(block=block) if shim_mode else nullcontext()
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
                    k = 0
                    delivered = False
                    afin = False
                    if down_list[par]:
                        # Dead air: every attempt fails without a draw.
                        k = budget if enabled else 1
                        for _ in range(k):
                            fo_append(False)
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
                    elif shim_mode:
                        while True:
                            k += 1
                            fo = not transmission_lost(vertex, par)
                            fo_append(fo)
                            if fo:
                                delivered = True
                                if not enabled:
                                    break
                                afin = not transmission_lost(par, vertex)
                                if afin:
                                    break
                                lost_acks += 1
                            elif not enabled:
                                break
                            if k == budget:
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

        n_hops = hop_i
        parent_np = arrays.parent
        edge_del_arr = np.array(edge_del, dtype=bool)
        values = np.zeros(n, dtype=np.int64)
        values[live_idx] = cls_p.uniform_leaf_values
        for level in reversed(arrays.levels[1:]):  # deepest level first
            m = edge_del_arr[level]
            if m.any():
                lv = level[m]
                np.add.at(values, parent_np[lv], values[lv])
        path_ok = np.zeros(n, dtype=bool)
        path_ok[tree.root] = True
        for level in arrays.levels[1:]:
            path_ok[level] = path_ok[parent_np[level]] & edge_del_arr[level]
        delivered_mask = path_ok[contributor_idx]

        phase_total = 0
        if n_hops:
            tx_arr = np.array(tx, dtype=np.int64)
            natt_arr = np.array(natt, dtype=np.int64)
            fo_arr = np.array(fo_flat, dtype=bool)
            par_arr = parent_np[tx_arr]
            parent_up_arr = np.ones(n_hops, dtype=bool)
            if pd_hops:
                parent_up_arr[pd_hops] = False
            offsets = np.zeros(n_hops, dtype=np.int64)
            np.cumsum(natt_arr[:-1], out=offsets[1:])
            nfo = (
                np.add.reduceat(fo_arr.astype(np.int64), offsets)
                if enabled
                else None
            )
            self._replay_uniform_link_stats(
                tx,
                par_arr,
                parent_up_arr,
                natt_arr,
                fo_arr,
                offsets,
                nfo,
                final_ack,
                enabled,
            )
            hop_index = np.repeat(np.arange(n_hops), natt_arr)
            att_child = tx_arr[hop_index]
            att_parent = par_arr[hop_index]
            cost = message_bits(cls_p.uniform_bits)
            ack = ack_cost()
            total_attempts = int(hop_index.shape[0])
            att_bits = np.full(total_attempts, cost.total_bits, dtype=np.int64)
            att_frames = np.full(total_attempts, cost.messages, dtype=np.int64)
            send_cpb = (
                self._send_cpb_array[att_child]
                if self._send_cpb_array is not None
                else self._send_cpb
            )
            self.ledger.charge_batch(
                **expand_arq_charges(
                    att_child,
                    att_parent,
                    att_bits,
                    att_frames,
                    values[att_child],
                    parent_up_arr[hop_index],
                    fo_arr,
                    enabled,
                    send_cpb,
                    self.ledger.model.recv_cost,
                    ack.total_bits,
                )
            )
            ok_attempts = int(fo_arr.sum())
            self.lost_transmissions += total_attempts - ok_attempts
            self.retransmissions += total_attempts - n_hops
            self.lost_acks += lost_acks
            phase_total = cost.total_bits * total_attempts
            if enabled:
                self.acks_sent += ok_attempts
                phase_total += ack.total_bits * ok_attempts

        self.phase_bits[self.phase] = (
            self.phase_bits.get(self.phase, 0) + phase_total
        )
        delivered_sources = frozenset(
            contributor_idx[delivered_mask].tolist()
        )
        self.collection_log.append(
            CollectionRecord(expected=expected, delivered=delivered_sources)
        )
        if not delivered_mask.any():
            return None
        kept = [
            payload
            for payload, ok in zip(payloads, delivered_mask.tolist())
            if ok
        ]
        return cls_p.vector_reduce(kept)

    def _replay_uniform_link_stats(
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

    def _convergecast_faulty_vector(
        self, contributions: Mapping[int, P]
    ) -> Optional[P]:
        """Batched loss/ARQ convergecast, bit-identical to the per-hop walk.

        The per-hop *decisions* (loss draws, retry cut-offs, payload
        merges) still run in a lean Python loop — they are sequential by
        nature: every draw consumes the plan's single RNG stream and every
        merge feeds the next hop.  Everything else is batched:

        * uniforms come block-wise from :meth:`FaultPlan.batched_sampling`,
          which leaves the generator in the exact state scalar sampling
          would (so the stream never diverges from the reference walk's);
        * under a static ARQ policy the link-quality observations are
          deferred and replayed once via ``observe_batch`` (same per-link
          EWMA order — nothing reads the estimator mid-convergecast);
        * all radio charges expand per attempt through
          :func:`~repro.sim.vectorized.expand_arq_charges` into a single
          ordered :meth:`~repro.radio.ledger.EnergyLedger.charge_batch`.

        An adaptive policy (overridden ``attempts_for``/``observe``) reads
        its estimator between hops, so its feedback stays inline; only the
        charge accounting is batched in that case.
        """
        tree = self.tree
        self.exchanges += 1
        plan = self.plan
        is_down = plan.is_down
        accumulated: list[Optional[P]] = [None] * tree.num_vertices
        expected = 0
        sources: dict[int, set[int]] = {}
        for vertex, payload in contributions.items():
            if payload.is_empty():
                continue
            expected += 1
            if is_down(vertex):
                continue
            accumulated[vertex] = payload
            sources[vertex] = {vertex}

        arq = self.arq
        arq_cls = type(arq)
        fixed_budget = arq_cls.attempts_for is ArqPolicy.attempts_for
        arq_observes = arq_cls.observe is not ArqPolicy.observe
        defer_stats = fixed_budget and not arq_observes
        enabled = arq.enabled
        budget_const = max(1, arq.max_attempts) if fixed_budget else 0
        feeds_up = self._feeds_uplink_stats
        observe = self.link_stats.observe
        transmission_lost = plan.transmission_lost
        virtual = self.virtual_vertices
        parent = tree.parent
        ack = ack_cost()

        # (frames, total_bits) per distinct payload size — message_bits is
        # pure, and a convergecast usually carries very few distinct sizes.
        cost_cache: dict[int, tuple[int, int]] = {}
        hop_child: list[int] = []
        hop_parent: list[int] = []
        hop_bits: list[int] = []
        hop_frames: list[int] = []
        hop_values: list[int] = []
        hop_attempts: list[int] = []
        hop_parent_up: list[bool] = []
        frame_oks: list[bool] = []
        stat_senders: list[int] = []
        stat_receivers: list[int] = []
        stat_delivered: list[bool] = []
        fo_append = frame_oks.append
        lost_acks = 0

        session = (
            plan.batched_sampling(block=max(128, 2 * expected))
            if plan.loss is not None
            else nullcontext()
        )
        with session:
            for vertex in self._order_no_root:
                merged = accumulated[vertex]
                if merged is None:
                    continue
                if is_down(vertex):
                    continue  # forwarded state dies with the forwarding node
                par = parent[vertex]
                if vertex in virtual:
                    delivered = True  # device-internal link, no radio
                else:
                    size = merged.payload_bits()
                    entry = cost_cache.get(size)
                    if entry is None:
                        cost = message_bits(size)
                        entry = (cost.messages, cost.total_bits)
                        cost_cache[size] = entry
                    parent_up = not is_down(par)
                    budget = (
                        budget_const
                        if fixed_budget
                        else max(1, arq.attempts_for(vertex, par))
                    )
                    delivered = False
                    attempts = 0
                    for _ in range(budget):
                        attempts += 1
                        if parent_up:
                            frame_ok = not transmission_lost(vertex, par)
                            if feeds_up:
                                if defer_stats:
                                    stat_senders.append(vertex)
                                    stat_receivers.append(par)
                                    stat_delivered.append(frame_ok)
                                else:
                                    observe(vertex, par, frame_ok)
                        else:
                            frame_ok = False
                        fo_append(frame_ok)
                        if frame_ok:
                            delivered = True
                        if not enabled:
                            break
                        if frame_ok:
                            ack_ok = not transmission_lost(par, vertex)
                            if defer_stats:
                                stat_senders.append(par)
                                stat_receivers.append(vertex)
                                stat_delivered.append(ack_ok)
                            else:
                                observe(par, vertex, ack_ok)
                            if ack_ok:
                                if arq_observes:
                                    arq.observe(vertex, par, True)
                                break
                            lost_acks += 1
                        if arq_observes:
                            arq.observe(vertex, par, False)
                    hop_child.append(vertex)
                    hop_parent.append(par)
                    hop_frames.append(entry[0])
                    hop_bits.append(entry[1])
                    hop_values.append(merged.num_values())
                    hop_attempts.append(attempts)
                    hop_parent_up.append(parent_up)
                if not delivered:
                    continue
                existing = accumulated[par]
                accumulated[par] = (
                    merged if existing is None else existing.merged_with(merged)
                )
                sources.setdefault(par, set()).update(sources.get(vertex, ()))

        if stat_senders:
            self.link_stats.observe_batch(
                stat_senders, stat_receivers, stat_delivered
            )

        phase_total = 0
        n_hops = len(hop_child)
        if n_hops:
            attempt_counts = np.array(hop_attempts, dtype=np.int64)
            hop_index = np.repeat(np.arange(n_hops), attempt_counts)
            att_child = np.array(hop_child, dtype=np.int64)[hop_index]
            att_parent = np.array(hop_parent, dtype=np.int64)[hop_index]
            att_bits = np.array(hop_bits, dtype=np.int64)[hop_index]
            att_frames = np.array(hop_frames, dtype=np.int64)[hop_index]
            att_values = np.array(hop_values, dtype=np.int64)[hop_index]
            att_parent_up = np.array(hop_parent_up, dtype=bool)[hop_index]
            att_frame_ok = np.array(frame_oks, dtype=bool)
            send_cpb = (
                self._send_cpb_array[att_child]
                if self._send_cpb_array is not None
                else self._send_cpb
            )
            self.ledger.charge_batch(
                **expand_arq_charges(
                    att_child,
                    att_parent,
                    att_bits,
                    att_frames,
                    att_values,
                    att_parent_up,
                    att_frame_ok,
                    enabled,
                    send_cpb,
                    self.ledger.model.recv_cost,
                    ack.total_bits,
                )
            )
            total_attempts = int(att_frame_ok.shape[0])
            ok_attempts = int(att_frame_ok.sum())
            self.lost_transmissions += total_attempts - ok_attempts
            self.retransmissions += total_attempts - n_hops
            self.lost_acks += lost_acks
            phase_total = int(att_bits.sum())
            if enabled:
                self.acks_sent += ok_attempts
                phase_total += ack.total_bits * ok_attempts

        self.phase_bits[self.phase] = (
            self.phase_bits.get(self.phase, 0) + phase_total
        )
        delivered_sources = frozenset(sources.get(tree.root, set()))
        self.collection_log.append(
            CollectionRecord(expected=expected, delivered=delivered_sources)
        )
        return accumulated[tree.root]
