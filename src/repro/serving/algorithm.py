"""MultiQuerySketch: one gated convergecast serving every registered query.

This generalizes the single-filter validation gate of
:class:`~repro.core.sketchq.SketchQuantile` to a *matrix* of boundaries:
one gate target per (scope, φ) and (scope, range-endpoint) the registry
plans (:class:`~repro.serving.registry.ServingPlan`).  The round loop:

1. **Refresh** (initialization, drift exhaustion, or plan change): one
   shared :class:`~repro.sketch.payload.TaggedSketchPayload` convergecast
   at the plan's ``sketch_eps`` ships per-cell q-digests up the tree; the
   root decodes *every* target from the merged digest of its cells and
   re-anchors sound rank bounds per target.  One flood re-disseminates the
   new boundary values.
2. **Validation** (all other rounds): each sensor compares its measurement
   against every boundary whose scope contains it and reports exact
   transition counters for the boundaries it crossed
   (:class:`GridValidationPayload`) — nothing when nothing crossed.  The
   root shifts each target's bounds exactly and re-uses every cached
   answer while all targets' worst-case errors stay inside their budgets.

The per-target guarantee is exactly SKQ's: the sketch runs at half the
tightest eps, drift is counted exactly, and a refresh fires before any
target's worst case exceeds ``eps_t * |scope_t|``.  k queries therefore
cost about one gated collection, not k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from repro.constants import COUNTER_BITS, REFINEMENT_REQUEST_BITS, VALUE_BITS
from repro.core.base import (
    EQ,
    GT,
    LT,
    ContinuousQuantileAlgorithm,
    classify,
    classify_array,
)
from repro.core.sketchq import RankBounds
from repro.errors import ProtocolError
from repro.serving.registry import DEFAULT_CELL, PlanTarget, QueryRegistry, ServingPlan
from repro.sim.engine import Payload, TreeNetwork
from repro.sim.oracle import quantile_rank
from repro.sketch import QDigest, TaggedSketchPayload, one_value_digests
from repro.sketch.payload import TAG_BITS
from repro.types import QuerySpec, RoundOutcome

#: On-air bits naming one gate target in a validation message; 8 bits cover
#: 256 simultaneous targets, far beyond any realistic dashboard.
TARGET_ID_BITS = 8


@dataclass(frozen=True, slots=True)
class GridValidationPayload(Payload):
    """Per-target transition counters, summed tree-wise.

    ``counts`` holds ``(target_index, into_lt, outof_lt, into_gt,
    outof_gt)`` tuples, sorted by target index, only for targets some
    sensor in the subtree crossed this round; each target appears at most
    once.  The hot path builds instances with :func:`_grid_validation`.
    """

    counts: tuple[tuple[int, int, int, int, int], ...]

    def merged_with(self, other: "GridValidationPayload") -> "GridValidationPayload":
        # Both rows ascend by target: one merge-join sums the shared ones.
        a, b = self.counts, other.counts
        i = j = 0
        merged = []
        while i < len(a) and j < len(b):
            x, y = a[i], b[j]
            if x[0] < y[0]:
                merged.append(x)
                i += 1
            elif y[0] < x[0]:
                merged.append(y)
                j += 1
            else:
                merged.append((x[0], x[1] + y[1], x[2] + y[2], x[3] + y[3], x[4] + y[4]))
                i += 1
                j += 1
        merged += a[i:]
        merged += b[j:]
        return _grid_validation(tuple(merged))

    def payload_bits(self) -> int:
        # Sparse encoding: a 4-bit presence mask per entry, then only the
        # nonzero counters.  A typical single-sensor crossing carries two
        # nonzero counters, a pure one-sided shift just one.
        nonzero = 0
        for _, a, b, c, d in self.counts:
            nonzero += (a != 0) + (b != 0) + (c != 0) + (d != 0)
        return len(self.counts) * (TARGET_ID_BITS + 4) + nonzero * COUNTER_BITS

    def num_values(self) -> int:
        return 0

    def is_empty(self) -> bool:
        return not self.counts


_new = object.__new__
_set_counts = GridValidationPayload.counts.__set__


def _grid_validation(
    counts: tuple[tuple[int, int, int, int, int], ...],
) -> GridValidationPayload:
    """``GridValidationPayload(counts)``, with the slot written through its
    descriptor instead of the frozen ``__init__``."""
    payload = _new(GridValidationPayload)
    _set_counts(payload, counts)
    return payload


#: A transition's four counters ``(into_lt, outof_lt, into_gt,
#: outof_gt)``, at ``(old - LT) * 3 + (new - LT)`` for states ``LT, EQ, GT
#: = -1, 0, 1``.
_COUNTERS = tuple(
    (int(new == LT), int(old == LT), int(new == GT), int(old == GT))
    for old in (LT, EQ, GT)
    for new in (LT, EQ, GT)
)


@dataclass(kw_only=True)
class GateTarget(RankBounds):
    """Root-side state of one boundary the gate tracks.

    The :class:`~repro.core.sketchq.RankBounds` soundly bound the number of
    scope values below and at ``value``: digest bounds re-anchored at the
    last refresh and moved exactly by transition counters and membership
    patches since.  Boundary targets read only ``l_lo``/``l_hi``.  ``value
    is None`` means the scope was empty or delivered no data at the last
    refresh — answers flag it instead of serving garbage.
    """

    plan: PlanTarget
    index: int
    #: The plan's read-only vertex mask of the scope, shared by every
    #: target over it for the whole plan version.
    scope_mask: np.ndarray
    value: int | None = None
    value_lo: int | None = None
    value_hi: int | None = None
    state: np.ndarray | None = None
    #: Scope had no participating sensors at the last refresh.
    empty_scope: bool = field(default=False)
    #: Boundary targets only: sensors whose refresh-time value sat within
    #: the exemption band of the boundary.  They are counted as permanently
    #: uncertain (the bounds carry their worst case) and never report
    #: flutter.
    exempt: np.ndarray | None = None

    @property
    def eps(self) -> float:
        return self.plan.eps


class MultiQuerySketch(ContinuousQuantileAlgorithm):
    """The serving layer's network algorithm: a gate over a target matrix.

    Plugs into the fault driver like any other
    :class:`~repro.core.base.ContinuousQuantileAlgorithm`: the driver's own
    φ (``spec.phi``) is always tracked as a global target and feeds
    :attr:`current_quantile`, so repair, degraded rounds and the
    differential harness all work unchanged.  The registry is shared state
    *outside* the algorithm — a watchdog re-initialization builds a fresh
    gate against the same registry, so registered queries survive re-init.
    """

    exact = False
    name = "MQS"

    def __init__(
        self,
        spec: QuerySpec,
        registry: QueryRegistry,
        positions: np.ndarray | None = None,
    ) -> None:
        super().__init__(spec)
        self.registry = registry
        self.positions = positions
        self.plan: ServingPlan | None = None
        #: The plan's array form, compiled once per plan version (see
        #: :meth:`_ensure_plan`): per plan target, the number of its scope;
        #: per scope, one read-only vertex mask every target over it shares.
        self.scope_of_target: tuple[int, ...] = ()
        self.scope_masks: tuple[np.ndarray, ...] = ()
        #: Every vertex's cell as a code into :attr:`cell_names`, the sorted
        #: cell tags; vertices outside the plan sit in the default cell.
        self.cell_codes: np.ndarray | None = None
        self.cell_names: tuple[str, ...] = ()
        self.targets: dict[tuple, GateTarget] = {}
        #: Full refresh collections performed (initialization included).
        self.refreshes = 0
        #: Selective refreshes: collections restricted to the cells of the
        #: violated targets only (cheap when a small region drifts alone).
        self.partial_refreshes = 0
        #: Last broadcast boundary value per target key (delta broadcasts).
        self._broadcast_values: dict[tuple, int] = {}

    @property
    def eps(self) -> float:
        """Tightest tracked budget — what the harness checks answers against."""
        if self.plan is not None:
            return self.plan.min_eps
        return self.registry.plan((), None, self.spec.phi).min_eps

    # -- rounds ---------------------------------------------------------------

    def initialize(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        self._ensure_plan(net)
        net.phase = "initialization"
        net.broadcast(VALUE_BITS)  # query dissemination: the plan version
        collected = self._collect(net, values)
        self._rebuild(net, values, collected)
        return RoundOutcome(quantile=self._primary(), filter_broadcast=True)

    def update(self, net: TreeNetwork, values: np.ndarray) -> RoundOutcome:
        if not self.targets:
            raise ProtocolError("update() called before initialize()")
        if self._ensure_plan(net):
            # Mid-run (de)registration: one refresh re-anchors the new
            # target matrix — no network re-initialization.
            return self._refresh(net, values)
        assert self._mask is not None

        # Validation: exact per-target transition counters (exempt sensors
        # are inside the bounds already and never report).
        new_states = {}
        for target in self.targets.values():
            if target.value is None or target.state is None:
                continue
            tracked = target.scope_mask & self._mask
            if target.exempt is not None:
                tracked = tracked & ~target.exempt
            new_states[target.index] = classify_array(
                values, target.value, None, tracked
            )
        net.phase = "validation"
        merged = net.convergecast(self._transition_contributions(new_states))
        if merged is not None:
            self._apply_counters(merged)
        by_index = {t.index: t for t in self.targets.values()}
        for index, state in new_states.items():
            by_index[index].state = state

        violated = self._violated_targets()
        if not violated:
            return RoundOutcome(quantile=self._primary())

        cells_needed = frozenset().union(*(t.plan.cells for t in violated))
        all_cells = frozenset().union(
            *(pt.cells for pt in self.plan.targets)
        )
        if cells_needed >= all_cells:
            return self._refresh(net, values)
        return self._partial_refresh(net, values, cells_needed)

    # -- refresh / rebuild ----------------------------------------------------

    def _ensure_plan(self, net: TreeNetwork) -> bool:
        """(Re)compile the plan if the registry changed; True if it did.

        Compiling also builds the plan's array form once for the whole
        version: one read-only vertex mask per distinct target scope and
        every vertex's cell code, which each collection and refresh reads.
        """
        if self.plan is not None and self.plan.version == self.registry.version:
            return False
        plan = self.plan = self.registry.plan(
            net.tree.sensor_nodes, self.positions, self.spec.phi
        )
        num_vertices = net.tree.num_vertices
        numbers: dict[tuple[int, ...], int] = {}
        masks: list[np.ndarray] = []
        for target in plan.targets:
            if target.scope not in numbers:
                mask = np.zeros(num_vertices, dtype=bool)
                mask[np.fromiter(target.scope, np.int64, len(target.scope))] = True
                mask.flags.writeable = False
                numbers[target.scope] = len(masks)
                masks.append(mask)
        self.scope_of_target = tuple(numbers[target.scope] for target in plan.targets)
        self.scope_masks = tuple(masks)
        self.cell_names = tuple(sorted({DEFAULT_CELL, *plan.cell_of.values()}))
        code = {name: i for i, name in enumerate(self.cell_names)}
        codes = np.full(num_vertices, code[DEFAULT_CELL], dtype=np.int64)
        codes[np.fromiter(plan.cell_of, np.int64, len(plan.cell_of))] = [
            code[cell] for cell in plan.cell_of.values()
        ]
        codes.flags.writeable = False
        self.cell_codes = codes
        return True

    def _refresh(
        self, net: TreeNetwork, values: np.ndarray, request: bool = True
    ) -> RoundOutcome:
        if request:
            net.phase = "refinement"
            net.broadcast(REFINEMENT_REQUEST_BITS)
        collected = self._collect(net, values)
        self._rebuild(net, values, collected)
        return RoundOutcome(
            quantile=self._primary(), refinements=1, filter_broadcast=True
        )

    def _collect(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        cells: frozenset[str] | None = None,
    ) -> TaggedSketchPayload | None:
        """One shared convergecast: per-cell one-value q-digests, merged.

        With ``cells``, only sensors inside those cells contribute — the
        selective-refresh path.  Returns ``None`` only for a restricted
        collection with no eligible sensor; a *full* collection delivering
        nothing is a protocol failure (the driver re-initializes).  The
        contributors are a mask over the vertices and their tags the
        compiled cell codes; the digests travel as a column batch while no
        hop can compress (:func:`~repro.sketch.payload.one_value_digests`).
        """
        assert self.plan is not None and self.cell_codes is not None
        net.phase = "collection"
        eligible = self.participation_mask(net)
        if cells is not None:
            wanted = np.zeros(len(self.cell_names), dtype=bool)
            wanted[[self.cell_names.index(cell) for cell in cells]] = True
            eligible = eligible & wanted[self.cell_codes]
        ids = np.flatnonzero(eligible)
        if cells is not None and not len(ids):
            return None
        spec = self.spec
        merged = net.convergecast(
            one_value_digests(
                ids,
                values[ids],
                self.plan.sketch_eps,
                spec.r_min,
                spec.r_max,
                self.cell_codes[ids],
                self.cell_names,
            )
        )
        if merged is None and cells is None:
            raise ProtocolError("serving convergecast delivered nothing")
        return merged

    def _rebuild(
        self,
        net: TreeNetwork,
        values: np.ndarray,
        collected: TaggedSketchPayload,
    ) -> None:
        """Decode every plan target from the merged payload and re-anchor."""
        assert self.plan is not None
        self.refreshes += 1
        mask = self.participation_mask(net)
        targets: dict[tuple, GateTarget] = {}
        scopes: dict[int, tuple[QDigest | None, np.ndarray, int]] = {}
        for index, plan_target in enumerate(self.plan.targets):
            targets[plan_target.key] = self._build_target(
                plan_target, index, collected, values, mask, scopes
            )
        self.targets = targets
        self._broadcast_filters(net)

    def _build_target(
        self,
        plan_target: PlanTarget,
        index: int,
        collected: TaggedSketchPayload,
        values: np.ndarray,
        mask: np.ndarray,
        scopes: dict[int, tuple[QDigest | None, np.ndarray, int]],
    ) -> GateTarget:
        """Fresh gate state for one plan target from a collected payload.

        ``scopes`` caches, per scope number for the current refresh, the
        merged digest of the scope's cells and its participating members,
        so targets sharing a scope share one merge, one query index and
        one membership mask.
        """
        number = self.scope_of_target[index]
        scope_mask = self.scope_masks[number]
        target = GateTarget(
            plan=plan_target, index=index, scope_mask=scope_mask
        )
        if number not in scopes:
            participating = scope_mask & mask
            scopes[number] = (
                collected.merged_cells(plan_target.cells),
                participating,
                int(participating.sum()),
            )
        sub, participating, n_scope = scopes[number]
        if n_scope == 0:
            target.empty_scope = True
        elif sub is None or sub.n == 0:
            # Scope populated but nothing arrived (loss/partition ate the
            # cells): answerless until data flows again.  The driver marks
            # such rounds untrustworthy via coverage.
            pass
        else:
            missing = max(0, n_scope - sub.n)
            self._anchor(target, sub, n_scope, missing, values, participating)
        return target

    def _partial_refresh(
        self, net: TreeNetwork, values: np.ndarray, cells: frozenset[str]
    ) -> RoundOutcome:
        """Re-anchor only the targets whose cells all sit inside ``cells``.

        When a small region drifts past its budget while everything else
        holds, re-collecting the whole network is waste: the request names
        the cells, only their sensors answer, and only targets fully
        covered by the restricted payload re-anchor — the rest keep their
        exactly-tracked gate state.
        """
        assert self.plan is not None and self._mask is not None
        net.phase = "refinement"
        net.broadcast(REFINEMENT_REQUEST_BITS + len(cells) * TAG_BITS)
        collected = self._collect(net, values, cells=cells)
        if collected is not None:
            self.partial_refreshes += 1
            scopes: dict[int, tuple[QDigest | None, np.ndarray, int]] = {}
            for index, plan_target in enumerate(self.plan.targets):
                if plan_target.cells and plan_target.cells <= cells:
                    self.targets[plan_target.key] = self._build_target(
                        plan_target, index, collected, values, self._mask, scopes
                    )
            self._broadcast_filters(net)
        return RoundOutcome(
            quantile=self._primary(), refinements=1, filter_broadcast=True
        )

    def _broadcast_filters(self, net: TreeNetwork) -> None:
        """Flood only the boundary values that changed since the last flood.

        Range endpoints are constants and φ boundaries move slowly, so a
        full per-target flood every refresh would waste the whole saving —
        each changed value costs its id plus the value, and an unchanged
        matrix costs nothing.
        """
        changed = 0
        for target in self.targets.values():
            if target.value is None:
                continue
            if self._broadcast_values.get(target.plan.key) != target.value:
                changed += 1
                self._broadcast_values[target.plan.key] = target.value
        if changed:
            net.phase = "filter"
            net.broadcast(changed * (TARGET_ID_BITS + VALUE_BITS))

    def _anchor(
        self,
        target: GateTarget,
        sub,
        n_scope: int,
        missing: int,
        values: np.ndarray,
        participating: np.ndarray,
    ) -> None:
        """Seed one target's value, bounds and state from its sub-digest.

        Missing values could lie on either side of the boundary: the upper
        bounds widened by the shortfall stay sound for the full scope, at
        the cost of head-room.
        """
        plan_target = target.plan
        tracked = participating
        if plan_target.kind == "phi":
            k = min(quantile_rank(n_scope, plan_target.phi), sub.n)
            value = int(sub.quantile(k))
            target.anchor(sub, value, missing)
            target.value_lo, target.value_hi = sub.value_bounds(k)
        else:
            value = int(plan_target.boundary)
            l_lo, l_hi = sub.rank_bounds(value)
            l_hi += missing
            # A boundary target's count is tracked exactly, so drift never
            # widens its bounds — the whole budget can buy an *exemption
            # band*: sensors currently within ``band`` of the boundary are
            # absorbed into the bounds as permanently uncertain and never
            # report noise flutter across the boundary.
            budget = plan_target.eps * n_scope
            band, uncertain = self._exemption_band(sub, value, l_hi - l_lo, budget)
            if band >= 0:
                exempt = (
                    participating
                    & (values > value - band)
                    & (values <= value + band)
                )
                target.exempt = exempt
                l_lo = max(0, l_lo - uncertain)
                l_hi = l_hi + uncertain
                tracked = participating & ~exempt
            target.l_lo, target.l_hi = l_lo, l_hi
        target.value = value
        target.state = classify_array(values, value, None, tracked)

    def _exemption_band(
        self, sub, boundary: int, width: int, budget: float
    ) -> tuple[int, int]:
        """Widest band with ``width + 2 * uncertain(band) <= budget`` and its
        ``uncertain(band)``, or ``(-1, 0)``.

        ``uncertain(band)`` (an upper bound on the sensors inside the band,
        from the digest's own rank bounds) is monotone in the band radius,
        so a binary search finds the widest affordable one.  -1 means even
        exempting only the boundary's exact ties would blow the budget —
        the target then tracks every sensor exactly, like the φ targets.
        """

        def uncertain(band: int) -> int:
            return max(
                0,
                sub.rank_bounds(boundary + band + 1)[1]
                - sub.rank_bounds(boundary - band + 1)[0],
            )

        count = uncertain(0)
        if width + 2 * count > budget:
            return -1, 0
        lo, hi = 0, max(0, int(sub.r_max) - int(sub.r_min))
        while lo < hi:
            mid = (lo + hi + 1) // 2
            inside = uncertain(mid)
            if width + 2 * inside <= budget:
                lo, count = mid, inside
            else:
                hi = mid - 1
        return lo, count

    def _primary(self) -> int:
        """The driver-facing answer: the global target at ``spec.phi``."""
        assert self.plan is not None
        target = self.targets.get(self.plan.primary_key)
        if target is None or target.value is None:
            raise ProtocolError("primary target has no answer")
        self.current_quantile = target.value
        return target.value

    # -- validation helpers ---------------------------------------------------

    def _transition_contributions(
        self, new_states: dict[int, np.ndarray]
    ) -> dict[int, GridValidationPayload]:
        """Per-sensor validation messages across all targets at once.

        The validated targets' old and new states stack into vertex x
        target tables, targets by ascending index.  Their changed cells,
        in row-major order, are every (vertex, target, old, new) transition
        sorted by vertex, then target, so each vertex's run of them is its
        counter rows ``(target, into_lt, outof_lt, into_gt, outof_gt)`` in
        order.
        """
        validated = sorted(
            (
                (target.index, target.state)
                for target in self.targets.values()
                if target.state is not None and target.index in new_states
            ),
            key=itemgetter(0),
        )
        if not validated:
            return {}
        indices, states = zip(*validated)
        old = np.stack(states, axis=1)
        new = np.stack([new_states[index] for index in indices], axis=1)
        changed = np.flatnonzero(old != new)
        vertex, column = np.divmod(changed, len(indices))
        transition = (old.ravel()[changed] - LT) * 3 + new.ravel()[changed] - LT
        rows: dict[int, tuple[tuple[int, int, int, int, int], ...]] = {}
        for v, c, t in zip(vertex.tolist(), column.tolist(), transition.tolist()):
            row = (indices[c], *_COUNTERS[t])
            earlier = rows.get(v)
            rows[v] = (row,) if earlier is None else earlier + (row,)
        return {v: _grid_validation(counts) for v, counts in rows.items()}

    def _apply_counters(self, merged: GridValidationPayload) -> None:
        by_index = {t.index: t for t in self.targets.values()}
        for tid, into_lt, outof_lt, into_gt, outof_gt in merged.counts:
            target = by_index.get(tid)
            if target is not None and target.value is not None:
                target.shift(into_lt, outof_lt, into_gt, outof_gt)

    def _violated_targets(self) -> list[GateTarget]:
        """Targets whose worst-case error has left their budget."""
        assert self._mask is not None
        violated: list[GateTarget] = []
        for target in self.targets.values():
            n_now = int((target.scope_mask & self._mask).sum())
            if target.value is None:
                # An empty scope that repopulated needs a refresh to get an
                # answer; a populated-but-dataless scope retries only via
                # the next natural refresh (retrying every round would burn
                # energy against a persistent partition for nothing).
                if target.empty_scope and n_now > 0:
                    violated.append(target)
                continue
            if n_now == 0:
                continue  # answers flag the empty scope; nothing to validate
            if target.plan.kind == "phi":
                k = quantile_rank(n_now, target.plan.phi)
                if target.worst_rank_error(k) > target.eps * n_now:
                    violated.append(target)
            elif (target.l_hi - target.l_lo) > target.eps * n_now:
                violated.append(target)
        return violated

    # -- answer access (root-side, no radio) ----------------------------------

    def gate_target(self, key: tuple) -> GateTarget | None:
        """The gate state for one plan target key, or None if unplanned."""
        return self.targets.get(key)

    def scope_view(
        self, target: GateTarget, values: np.ndarray | None
    ) -> tuple[int, np.ndarray | None]:
        """The currently participating sensors inside the target's scope:
        their number and, given ``values``, their values in vertex order
        (``None`` without, or while the scope is empty before the first
        participation mask)."""
        if self._mask is None:
            return 0, None
        members = target.scope_mask & self._mask
        if values is None:
            return int(np.count_nonzero(members)), None
        selected = values[members]
        return len(selected), selected

    # -- repair hooks (repro.faults.repair) -----------------------------------

    def detach(self, net: TreeNetwork, vertex: int) -> None:
        super().detach(net, vertex)
        for target in self.targets.values():
            if target.state is None or not target.scope_mask[vertex]:
                continue
            if target.exempt is not None and target.exempt[vertex]:
                # Uncertain member of a boundary target leaves: it may or
                # may not have counted below the boundary, so only the
                # lower bound moves.
                target.exempt[vertex] = False
                target.l_lo = max(0, target.l_lo - 1)
                continue
            target.move(int(target.state[vertex]), -1)
            target.state[vertex] = EQ

    def rejoin(self, net: TreeNetwork, values: np.ndarray, vertex: int) -> None:
        super().rejoin(net, values, vertex)
        for target in self.targets.values():
            if (
                target.state is None
                or target.value is None
                or not target.scope_mask[vertex]
            ):
                continue
            label = classify(int(values[vertex]), target.value)
            target.move(label, 1)
            target.state[vertex] = label

    def handover_state_bits(self) -> int:
        # Per registered target: the served value plus the four sound rank
        # bounds the successor continues from.
        return super().handover_state_bits() + 5 * VALUE_BITS * len(self.targets)
