"""TAG: centralized exact quantiles via in-network pruned collection [17].

TAG has no continuous state: every round all measurements flow to the root,
where the quantile is computed centrally.  Following Section 5.1.6, the root
is assumed to know ``|N|`` and broadcasts ``k`` once at query dissemination,
so intermediate vertices only forward the ``k`` smallest values of their
subtree (per-node worst case ``O(|N|)`` transmitted values, the paper's
baseline complexity).
"""

from __future__ import annotations

import numpy as np

from repro.constants import VALUE_BITS
from repro.core.base import ContinuousQuantileAlgorithm, request_values
from repro.errors import ProtocolError
from repro.sim.engine import TreeNetwork
from repro.types import RoundOutcome


class TAG(ContinuousQuantileAlgorithm):
    """Exact quantiles by full (k-pruned) collection every round."""

    name = "TAG"

    def initialize(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        # Query dissemination: broadcast k into the tree once.
        net.phase = "initialization"
        net.broadcast(VALUE_BITS)
        return self._collect(net, values)

    def update(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        return self._collect(net, values)

    def _collect(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        net.phase = "collection"
        k = self.rank(net)
        received = request_values(net, values, self.participating_sensors(net), keep=k)
        if not received:
            raise ProtocolError("TAG collection delivered no values at all")
        # On a reliable tree at least k values always arrive.  Under message
        # loss (the Section 6 extension) the root answers best-effort from
        # whatever reached it — the introduced rank error is exactly what
        # ``repro loss`` measures.
        quantile = received[min(k, len(received)) - 1]
        self.current_quantile = quantile
        return RoundOutcome(quantile=quantile)
