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
* :func:`~repro.network.routing.build_randomized_routing_tree` biases
  rotation's parent sampling away from known-bad links.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

from repro.errors import ConfigurationError

#: Loss estimates are clamped below this when inverted into ETX so a
#: fully-black link yields a large-but-finite cost.
MAX_LOSS_FOR_ETX = 0.999


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
        self._loss: dict[tuple[int, int], float] = {}
        #: Total channel samples folded in (all links).
        self.observations = 0

    def observe(self, sender: int, receiver: int, delivered: bool) -> None:
        """Fold one channel outcome on ``sender -> receiver`` into the EWMA."""
        key = (sender, receiver)
        previous = self._loss.get(key, self.prior_loss)
        sample = 0.0 if delivered else 1.0
        self._loss[key] = (
            (1.0 - self.smoothing) * previous + self.smoothing * sample
        )
        self.observations += 1

    def observe_hops(
        self,
        senders: list[int],
        receivers: list[int],
        attempts: np.ndarray,
        frame_ok: np.ndarray,
        uplink: np.ndarray | None,
        final_ack: list[bool] | None,
    ) -> None:
        """Fold the channel samples of a batch of stop-and-wait hops.

        Hop ``h`` sends ``attempts[h]`` data frames from ``senders[h]`` to
        ``receivers[h]``; ``frame_ok`` holds every frame's outcome, hop by
        hop.  When ``uplink[h]`` is set, each frame is one sample of the
        uplink (``None``: no hop samples its uplink).  With ARQ on, every
        delivered frame is acknowledged and each ACK samples the downlink:
        all of a hop's ACKs but the last were lost, and the last one's
        outcome is ``final_ack[h]`` (``None``: ARQ is off, no ACK).

        Contract: each directed link is sampled by at most one hop of the
        batch, and a hop's samples of a link are consecutive.  Per-link
        EWMA chains are then independent, so folding them attempt rank by
        attempt rank, one ``(1-s)*prev + s*sample`` array step each, runs
        exactly the float sequence of :meth:`observe` called in hop order.
        Links seen for the first time enter the table in hop order, uplink
        before downlink, as the scalar calls would insert them.
        """
        loss = self._loss
        prior = self.prior_loss
        s = self.smoothing
        keep = 1.0 - s
        dget = loss.get
        n_hops = len(senders)
        offsets = np.zeros(n_hops, dtype=np.int64)
        np.cumsum(attempts[:-1], out=offsets[1:])
        all_up = uplink is not None and bool(uplink.all())
        # Key tuples come straight off zip (the pair IS the key); prior
        # lookups run as map(dict.get, ...) at C speed, with a missing
        # link surfacing as None.  Missing links only appear while the
        # topology is still being explored, so the slow interleaved
        # insertion loop runs a handful of times per experiment.
        if uplink is not None:
            pairs_up = zip(senders, receivers)
            up_keys = (
                list(pairs_up)
                if all_up
                else list(compress(pairs_up, uplink.tolist()))
            )
        else:
            up_keys = []
        acks = (
            np.add.reduceat(frame_ok.astype(np.int64), offsets)
            if final_ack is not None
            else None
        )
        dn_flags = (acks > 0).tolist() if acks is not None else None
        if dn_flags is not None:
            dn_keys = list(compress(zip(receivers, senders), dn_flags))
        else:
            dn_keys = []
        prev_up = list(map(dget, up_keys))
        prev_dn = list(map(dget, dn_keys))
        new_links = (None in prev_up) or (None in prev_dn)
        if new_links:
            prev_up = [prior if p is None else p for p in prev_up]
            prev_dn = [prior if p is None else p for p in prev_dn]
        samples = 0
        up_vals: list[float] = []
        dn_vals: list[float] = []
        if up_keys:
            up_hops = np.arange(n_hops) if all_up else np.flatnonzero(uplink)
            cur = np.array(prev_up, dtype=np.float64)
            lens = attempts[up_hops]
            starts = offsets[up_hops]
            fail = (~frame_ok).astype(np.float64)
            for j in range(int(lens.max())):
                m = lens > j
                cur[m] = keep * cur[m] + s * fail[starts[m] + j]
            up_vals = cur.tolist()
            samples += int(lens.sum())
        if dn_keys:
            dn_hops = np.flatnonzero(acks > 0)
            curd = np.array(prev_dn, dtype=np.float64)
            k_arr = acks[dn_hops]
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
            loss.update(zip(up_keys, up_vals))
            loss.update(zip(dn_keys, dn_vals))
        else:
            # First sighting of at least one link: insert in the scalar
            # order — hop by hop, uplink before downlink.
            up_iter = iter(zip(up_keys, up_vals))
            dn_iter = iter(zip(dn_keys, dn_vals))
            if uplink is None:
                up_flags = [False] * n_hops
            elif all_up:
                up_flags = [True] * n_hops
            else:
                up_flags = uplink.tolist()
            if dn_flags is None:
                dn_flags = [False] * n_hops
            for up_here, dn_here in zip(up_flags, dn_flags):
                if up_here:
                    key, val = next(up_iter)
                    loss[key] = val
                if dn_here:
                    key, val = next(dn_iter)
                    loss[key] = val
        self.observations += samples

    def loss(self, sender: int, receiver: int) -> float:
        """Current loss estimate for the directed link (prior if unseen)."""
        return self._loss.get((sender, receiver), self.prior_loss)

    def has_estimate(self, sender: int, receiver: int) -> bool:
        """Whether the directed link has ever been observed."""
        return (sender, receiver) in self._loss

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
        return len(self._loss)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkQualityEstimator(smoothing={self.smoothing}, "
            f"prior_loss={self.prior_loss}, links={self.num_links}, "
            f"observations={self.observations})"
        )
