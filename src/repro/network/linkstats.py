"""Per-link quality estimation: EWMA loss -> ETX.

Every recovery decision in the fault layer ultimately asks the same
question — *how good is this link, really?* — and before this module each
consumer answered it privately: :class:`~repro.faults.network.AdaptiveArqPolicy`
kept its own ``_loss_ewma`` dict, while tree repair ignored link quality
entirely and adopted parents by pure Euclidean distance (happily re-attaching
a subtree through the lossiest link in range).

:class:`LinkQualityEstimator` is the one shared answer.  It keeps an
exponentially weighted loss estimate per *directed* link, fed with raw
channel outcomes by the ARQ exchanges of
:meth:`~repro.faults.network.FaultyTreeNetwork.convergecast` (data frames
update the uplink, ACK frames the downlink), and derives the
classical ETX metric of De Couto et al.::

    ETX(a, b) = 1 / ((1 - p_up) * (1 - p_down))

the expected number of data transmissions (ACK included) to get one frame
across.  Consumers:

* :class:`~repro.faults.network.AdaptiveArqPolicy` sizes per-link retry
  budgets from the uplink estimate;
* :class:`~repro.faults.repair.TreeRepair` ranks candidate parents by
  ETX-weighted path cost to the root (distance remains the tie-break and
  the fallback while no estimate exists);
* :class:`~repro.faults.failover.RootFailover` scores successor
  candidates by the mean ETX of their observed links;
* :func:`~repro.network.routing.build_randomized_routing_tree` biases
  rotation's parent sampling away from known-bad links.

The estimates live in one ``float64`` array.  A link's *slot* in it is its
first-observation rank, so slot order is the table's insertion order, and
batch readers and writers work on slots: :meth:`LinkQualityEstimator.slots`
looks them up, :meth:`~LinkQualityEstimator.etx_at` reads ETX as gathers,
:meth:`~LinkQualityEstimator.link_etx` answers a neighbourhood's pairs and
:meth:`~LinkQualityEstimator.observe_hops` folds a convergecast's channel
samples in place.  Nothing is sized by the graph's edge count: the array
grows with the links actually observed.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.errors import ConfigurationError
from repro.network.geometry import csr_ranges

#: Loss estimates are clamped below this when inverted into ETX so a
#: fully-black link yields a large-but-finite cost.
MAX_LOSS_FOR_ETX = 0.999


def _link_key(sender, receiver):
    """The directed link ``sender -> receiver`` as one integer, for vertex
    ids (or arrays of them) that fit in 32 signed bits."""
    return (sender << 32) | (receiver & 0xFFFFFFFF)


class LinkQualityEstimator:
    """EWMA loss estimate per directed link, with ETX derivation.

    Args:
        smoothing: EWMA weight of the newest sample, in ``(0, 1]``.
        prior_loss: loss assumed for links never observed, in ``[0, 1)``.

    Instances carry mutable learning state — share one per network, not
    across experiment cells.
    """

    def __init__(self, smoothing: float = 0.25, prior_loss: float = 0.05) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ConfigurationError(
                f"smoothing must be in (0, 1], got {smoothing}"
            )
        if not 0.0 <= prior_loss < 1.0:
            raise ConfigurationError(
                f"prior_loss must be in [0, 1), got {prior_loss}"
            )
        self.smoothing = smoothing
        self.prior_loss = prior_loss
        #: Each observed directed link's slot, its first-observation rank,
        #: by :func:`_link_key`.
        self._slot: dict[int, int] = {}
        #: Per slot: the link's sender and receiver, and its loss estimate;
        #: capacity beyond ``num_links`` is unused.
        self._ends = np.empty((64, 2), dtype=np.int64)
        self._values = np.empty(64, dtype=np.float64)
        #: Total channel samples folded in (all links).
        self.observations = 0

    # -- scalar API -----------------------------------------------------------

    def observe(self, sender: int, receiver: int, delivered: bool) -> None:
        """Fold one channel outcome on ``sender -> receiver`` into the EWMA."""
        slot = self._slot.get(_link_key(sender, receiver))
        if slot is None:
            slot = self._insert(np.array([sender]), np.array([receiver]))
            previous = self.prior_loss
        else:
            previous = self._values.item(slot)
        sample = 0.0 if delivered else 1.0
        self._values[slot] = (
            (1.0 - self.smoothing) * previous + self.smoothing * sample
        )
        self.observations += 1

    def loss(self, sender: int, receiver: int) -> float:
        """Current loss estimate for the directed link (prior if unseen)."""
        slot = self._slot.get(_link_key(sender, receiver))
        return self.prior_loss if slot is None else self._values.item(slot)

    def has_estimate(self, sender: int, receiver: int) -> bool:
        """Whether the directed link has ever been observed."""
        return _link_key(sender, receiver) in self._slot

    def link_observed(self, a: int, b: int) -> bool:
        """Whether either direction of the ``a <-> b`` link has samples."""
        return self.has_estimate(a, b) or self.has_estimate(b, a)

    def etx(self, a: int, b: int) -> float:
        """Expected transmissions for one acknowledged frame ``a -> b``.

        ``1 / ((1 - p_up) * (1 - p_down))`` with both directions' loss
        clamped to :data:`MAX_LOSS_FOR_ETX`; a never-observed link scores
        the prior-based constant, keeping unknown links comparable.
        """
        p_up = min(self.loss(a, b), MAX_LOSS_FOR_ETX)
        p_down = min(self.loss(b, a), MAX_LOSS_FOR_ETX)
        return 1.0 / ((1.0 - p_up) * (1.0 - p_down))

    @property
    def num_links(self) -> int:
        """Number of directed links with at least one sample."""
        return len(self._slot)

    def table(self) -> list[tuple[tuple[int, int], float]]:
        """``[((sender, receiver), loss), ...]`` in first-observation order."""
        count = len(self._slot)
        return list(
            zip(
                map(tuple, self._ends[:count].tolist()),
                self._values[:count].tolist(),
            )
        )

    # -- batch API ------------------------------------------------------------

    def slots(self, senders, receivers) -> np.ndarray:
        """Per directed link ``senders[i] -> receivers[i]``: its slot, or
        ``-1`` while it has never been observed."""
        keys = _link_key(
            np.asarray(senders, dtype=np.int64),
            np.asarray(receivers, dtype=np.int64),
        )
        return np.fromiter(
            map(self._slot.get, keys.tolist(), repeat(-1)),
            dtype=np.int64,
            count=len(keys),
        )

    def etx_at(
        self, up_slots: np.ndarray, down_slots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`etx` and :meth:`link_observed` of the links whose uplink
        and downlink sit in ``up_slots`` and ``down_slots`` (``-1``:
        unseen), as gathers.  Each value is the scalar one: the array
        operations are the scalar formula's, element by element."""
        values, prior = self._values, self.prior_loss
        p_up = np.where(up_slots >= 0, values[up_slots], prior)
        p_down = np.where(down_slots >= 0, values[down_slots], prior)
        np.minimum(p_up, MAX_LOSS_FOR_ETX, out=p_up)
        np.minimum(p_down, MAX_LOSS_FOR_ETX, out=p_down)
        etx = 1.0 / ((1.0 - p_up) * (1.0 - p_down))
        return etx, (up_slots >= 0) | (down_slots >= 0)

    def link_etx(self, senders, receivers) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`etx` and :meth:`link_observed` per pair
        ``senders[i] -> receivers[i]`` (see :meth:`etx_at`).

        Made for neighbourhoods, where the senders are a few vertices (an
        orphan's probe links, an election's candidates): both directions
        of a pair touch its sender, so only the table's links with an end
        among the senders can match.  Those few are searched among the
        pairs' sorted keys, each as the uplink of its own pair and as the
        downlink of the reversed one.  Pairs listed sender by sender with
        ascending receivers are sorted already, which the stable sort
        notices in one pass.
        """
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        ends = self._ends[: len(self._slot)]
        touched = np.zeros(1 + max(ends.max(initial=0), senders.max(initial=0)), dtype=bool)
        touched[senders] = True
        near = np.flatnonzero(touched[ends[:, 0]] | touched[ends[:, 1]])
        pairs = _link_key(senders, receivers)
        order = np.argsort(pairs, kind="stable")
        pairs = pairs[order]

        def slots(keys: np.ndarray) -> np.ndarray:
            """Per pair: the slot of the near link whose key is the pair's
            (``keys``, per near link), or ``-1``."""
            first = np.searchsorted(pairs, keys, side="left")
            count = np.searchsorted(pairs, keys, side="right") - first
            out = np.full(len(pairs), -1, dtype=np.int64)
            out[order[csr_ranges(first, count)]] = np.repeat(near, count)
            return out

        return self.etx_at(
            slots(_link_key(ends[near, 0], ends[near, 1])),
            slots(_link_key(ends[near, 1], ends[near, 0])),
        )

    def observe_hops(
        self,
        senders,
        receivers,
        attempts: np.ndarray,
        frame_ok: np.ndarray,
        uplink: np.ndarray | None,
        final_ack,
        slots: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Fold the channel samples of a batch of stop-and-wait hops.

        Hop ``h`` sends ``attempts[h]`` data frames from ``senders[h]`` to
        ``receivers[h]``; ``frame_ok`` holds every frame's outcome, hop by
        hop.  When ``uplink[h]`` is set, each frame is one sample of the
        uplink (``None``: no hop samples its uplink).  With ARQ on, every
        delivered frame is acknowledged and each ACK samples the downlink:
        all of a hop's ACKs but the last were lost, and the last one's
        outcome is ``final_ack[h]`` (``None``: ARQ is off, no ACK).

        ``slots`` are the hops' uplink and downlink slots when the caller
        keeps them (``-1``: unseen); they are looked up otherwise.  Links
        seen for the first time get their slots in one bulk step, hop by
        hop and uplink before downlink, as the scalar calls would insert
        them, and those slots are written into ``slots``.

        Contract: each directed link is sampled by at most one hop of the
        batch, and a hop's samples of a link are consecutive.  Per-link
        EWMA chains are then independent: the estimates are gathered, each
        attempt rank is folded in over the links that have a sample of
        that rank, one ``(1-s)*prev + s*sample`` array step each, and the
        results are scattered back.  That is exactly the float sequence of
        :meth:`observe` called in hop order.
        """
        n_hops = len(senders)
        if not n_hops:
            return
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        attempts = np.asarray(attempts, dtype=np.int64)
        frame_ok = np.asarray(frame_ok, dtype=bool)
        if slots is None:
            slots = (
                self.slots(senders, receivers),
                self.slots(receivers, senders),
            )
        up_slot, dn_slot = slots
        # One row of channel samples per hop, rank by rank: its frames'
        # losses (1.0), zero past its last attempt.
        width = int(attempts.max())
        ranks = np.arange(width)
        lost = np.zeros((n_hops, width))
        lost[ranks < attempts[:, None]] = ~frame_ok
        no_hops = np.zeros(0, dtype=np.int64)
        up_hops = no_hops if uplink is None else np.flatnonzero(uplink)
        if final_ack is None:
            dn_hops = no_hops
        else:
            acks = attempts - np.count_nonzero(lost, axis=1)
            dn_hops = np.flatnonzero(acks)
        self._insert_first_sightings(
            senders, receivers, up_hops, dn_hops, up_slot, dn_slot
        )
        # An uplink's samples are its frames'; a downlink's are its ACKs',
        # of which all but the last were lost.
        slot = [up_slot[up_hops]]
        lens = [attempts[up_hops]]
        samples = [lost[up_hops]]
        if len(dn_hops):
            acked = acks[dn_hops]
            last_lost = ~np.asarray(final_ack, dtype=bool)[dn_hops]
            slot.append(dn_slot[dn_hops])
            lens.append(acked)
            samples.append(
                np.where(
                    ranks == acked[:, None] - 1, last_lost[:, None], True
                ).astype(np.float64)
            )
        slot, lens, samples = (
            np.concatenate(slot), np.concatenate(lens), np.concatenate(samples)
        )
        s = self.smoothing
        keep = 1.0 - s
        sampled = lens[:, None] > ranks
        weighted = s * samples
        cur = self._values[slot]
        for rank in range(width):
            np.copyto(cur, keep * cur + weighted[:, rank], where=sampled[:, rank])
        self._values[slot] = cur
        self.observations += int(lens.sum())

    # -- storage --------------------------------------------------------------

    def _insert(self, senders: np.ndarray, receivers: np.ndarray) -> int:
        """Give the unseen links ``senders[i] -> receivers[i]`` the next
        slots, in order, each starting at the prior; returns the first new
        slot."""
        first = len(self._slot)
        end = first + len(senders)
        if end > len(self._values):
            capacity = max(end, 2 * len(self._values))
            values = np.empty(capacity, dtype=np.float64)
            values[:first] = self._values[:first]
            ends = np.empty((capacity, 2), dtype=np.int64)
            ends[:first] = self._ends[:first]
            self._values, self._ends = values, ends
        self._values[first:end] = self.prior_loss
        self._ends[first:end, 0] = senders
        self._ends[first:end, 1] = receivers
        keys = _link_key(self._ends[first:end, 0], self._ends[first:end, 1])
        self._slot.update(zip(keys.tolist(), range(first, end)))
        return first

    def _insert_first_sightings(
        self,
        senders: np.ndarray,
        receivers: np.ndarray,
        up_hops: np.ndarray,
        dn_hops: np.ndarray,
        up_slot: np.ndarray,
        dn_slot: np.ndarray,
    ) -> None:
        """Insert the sampled links that have no slot yet, hop by hop and
        uplink before downlink, and write their slots into ``up_slot`` and
        ``dn_slot``."""
        if up_slot.min() >= 0 and dn_slot.min() >= 0:
            return
        new_up = up_hops[up_slot[up_hops] < 0]
        new_dn = dn_hops[dn_slot[dn_hops] < 0]
        if not len(new_up) and not len(new_dn):
            return
        hops = np.concatenate([new_up, new_dn])
        is_dn = np.zeros(len(hops), dtype=bool)
        is_dn[len(new_up):] = True
        order = np.lexsort((is_dn, hops))
        hops, is_dn = hops[order], is_dn[order]
        first = self._insert(
            np.where(is_dn, receivers[hops], senders[hops]),
            np.where(is_dn, senders[hops], receivers[hops]),
        )
        new = np.arange(first, first + len(hops), dtype=np.int64)
        up_slot[hops[~is_dn]] = new[~is_dn]
        dn_slot[hops[is_dn]] = new[is_dn]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkQualityEstimator(smoothing={self.smoothing}, "
            f"prior_loss={self.prior_loss}, links={self.num_links}, "
            f"observations={self.observations})"
        )
