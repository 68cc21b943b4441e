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

    def observe_batch(self, senders, receivers, delivered) -> None:
        """Fold a batch of channel outcomes, sample by sample, in order.

        Accepts any equal-length sequences (lists or numpy arrays).  Each
        element goes through the exact scalar EWMA recurrence of
        :meth:`observe`, so per-link estimates, dict insertion order and
        the :attr:`observations` counter are bit-identical to the
        equivalent sequence of scalar calls — the EWMA is order-dependent,
        so no closed-form fold is attempted.  The vectorized faulty
        convergecast uses this to replay its deferred observations once
        per phase instead of once per hop.
        """
        loss = self._loss
        prior = self.prior_loss
        weight = self.smoothing
        count = 0
        for sender, receiver, ok in zip(senders, receivers, delivered):
            key = (sender, receiver)
            previous = loss.get(key, prior)
            sample = 0.0 if ok else 1.0
            loss[key] = (1.0 - weight) * previous + weight * sample
            count += 1
        self.observations += count

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
