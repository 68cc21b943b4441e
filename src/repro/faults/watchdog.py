"""Root-side silent-subtree detection.

The root cannot observe faults directly — it only sees what arrives.  For
*full collections* (initialization, TAG rounds, sketch refreshes: every
live sensor is supposed to contribute) the root does know what "everyone"
should look like, so :class:`RootWatchdog` watches exactly those rounds:

* overall coverage collapsing well below the adopted baseline, or
* a top-level subtree (a root child's branch) that used to deliver going
  completely silent,

sustained for ``patience`` consecutive full collections, triggers a query
re-initialization instead of letting the root's counters rot silently.
After a re-initialization the watchdog *adopts* the fresh collection as the
new baseline — permanently dead branches stop re-triggering it, turning
node churn into a one-time recovery cost rather than a re-init loop.

Validation convergecasts are deliberately not watched: in the gated
algorithms silence is the *normal* steady state (no transitions, no
messages), so only mandatory-response rounds carry signal.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.network.tree import RoutingTree
from repro.sim.engine import CollectionRecord

#: A collection is suspicious when its coverage falls below this fraction
#: of the baseline coverage.
COVERAGE_DROP = 0.5

#: Fraction of the believed-live population a convergecast must target to
#: count as a full collection.
FULL_FRACTION = 0.9


class RootWatchdog:
    """Detects persistently silent subtrees from full-collection outcomes.

    Args:
        tree: the routing tree (to map contributors to root branches).
        patience: consecutive suspicious full collections before a
            re-initialization is recommended.
    """

    def __init__(self, tree: RoutingTree, patience: int = 2) -> None:
        if patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience}")
        self.tree = tree
        self.patience = patience
        self._baseline_coverage = 1.0
        self._baseline_branches = self._branches(np.flatnonzero(tree.sensor_mask))
        self._streak = 0
        #: Re-initializations recommended so far.
        self.triggered = 0

    def _branches(self, vertices: "Iterable[int] | np.ndarray") -> frozenset[int]:
        """The branches (root children, :attr:`RoutingTree.branch`) that
        host ``vertices``: one scatter marks them, and only the few marked
        ids become Python ints.

        The tree's branch array covers every vertex, so only an id outside
        the tree can miss it; such an id counts as its own branch, which no
        awaited branch ever is.
        """
        ids = (
            vertices
            if isinstance(vertices, np.ndarray)
            else np.fromiter(vertices, dtype=np.int64)
        )
        branch = self.tree.branch
        inside = (ids >= 0) & (ids < len(branch))
        hit = np.zeros(len(branch), dtype=bool)
        hit[branch[ids[inside]]] = True
        return frozenset(np.flatnonzero(hit).tolist()).union(ids[~inside].tolist())

    def is_full_collection(self, record: CollectionRecord, live: int) -> bool:
        """Whether ``record`` targeted (nearly) the whole live population."""
        return live > 0 and record.expected >= FULL_FRACTION * live

    def observe(self, record: CollectionRecord) -> bool:
        """Feed one full-collection record; True recommends re-initializing.

        Parked subtrees never show up here: the repair layer detaches them
        and retargets the watchdog onto the reachable members only, so a
        partition waiting out its ``heal_patience`` is not also re-initd
        from this side.  With no awaited branch at all (total churn) the
        watchdog stays quiet — the driver's degraded state owns that case.
        """
        if record.expected == 0 or not self._baseline_branches:
            return False
        coverage = record.coverage
        silent_branches = self._baseline_branches - self._branches(
            record.delivered_ids
        )
        suspicious = (
            coverage < COVERAGE_DROP * self._baseline_coverage
            or bool(silent_branches)
        )
        if not suspicious:
            self._streak = 0
            # A healthy round sharpens the notion of normal coverage.
            self._baseline_coverage = max(self._baseline_coverage, coverage)
            return False
        self._streak += 1
        if self._streak < self.patience:
            return False
        self._streak = 0
        self.triggered += 1
        return True

    def retarget(
        self, tree: RoutingTree, members: "Iterable[int] | np.ndarray | None" = None
    ) -> None:
        """Adopt a repaired routing tree (and optionally a member set).

        Called by the repair layer after an orphan re-attach: the branch
        bookkeeping is rebuilt for the new topology and the suspicion streak
        is forgiven, because the strikes referred to a tree that no longer
        exists.  Without this, a subtree repaired during the grace window
        would still trigger the re-initialization it just made unnecessary
        (double-charging the recovery energy).

        ``members`` narrows the awaited branches to those hosting the given
        vertices (e.g. the reachable live sensors); by default every branch
        of the new tree is awaited.

        The coverage baseline is reset too: it described collections over
        the *old* topology and membership, and since it only ever ratchets
        upward during healthy rounds, a shrunken population (repair,
        rotation, root fail-over) would otherwise be judged forever
        against a coverage it can no longer reach.  Starting from zero
        disarms the coverage-drop criterion until the first healthy
        collection on the new tree re-arms it at an honest level.
        """
        self.tree = tree
        if members is None:
            members = np.flatnonzero(tree.sensor_mask)
        self._baseline_branches = self._branches(members)
        self._baseline_coverage = 0.0
        self._streak = 0

    def adopt(self, record: CollectionRecord) -> None:
        """Accept a (re-)initialization collection as the new baseline.

        Called right after a re-initialization: whatever that mandatory
        round delivered *is* the reachable network now, so branches that
        stayed silent through it are presumed dead and no longer awaited.
        """
        if record.expected == 0:
            return
        self._baseline_coverage = record.coverage
        self._baseline_branches = self._branches(record.delivered_ids)
        self._streak = 0
