"""The query registry: typed queries in, one shared collection plan out.

:class:`QueryRegistry` is the root-side front door of the serving layer.
Clients register/deregister :class:`~repro.serving.queries.PhiQuery`,
:class:`~repro.serving.queries.GroupByQuery` and
:class:`~repro.serving.queries.RangeQuery` objects at any time — including
mid-run, without re-initializing the network — and the registry compiles
them into one :class:`ServingPlan`:

* **eps planning rule** — the shared sketch runs at
  ``min(eps_q over all queries, default) / 2``: half the tightest budget
  pays for the sketch's positional ambiguity, the other half is head-room
  for exactly-counted drift between refreshes (the same split the gated
  single-query algorithm uses).  One collection therefore satisfies every
  registered budget simultaneously.
* **cells** — sensors are partitioned into the common refinement of every
  group-by partition; the shared payload tags sub-digests per cell
  (:class:`~repro.sketch.payload.TaggedSketchPayload`), so any region is
  the merge of whole cells and any global query the merge of everything.
* **targets** — every (scope, φ) and (scope, boundary) the registered
  queries need, *deduplicated* across queries (two dashboards asking for
  the global p95 share one target) with the tightest eps winning.

The registry also fans answers out: :meth:`QueryRegistry.answers` reads
the gate state maintained by
:class:`~repro.serving.algorithm.MultiQuerySketch` and emits one
:class:`~repro.serving.queries.QueryAnswer` per registered query, flagging
empty group-by regions and untrusted rounds instead of dividing by zero or
silently serving stale values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.serving.queries import (
    DEFAULT_EPS,
    AnswerItem,
    GroupByQuery,
    PhiQuery,
    Query,
    QueryAnswer,
    RangeQuery,
    phi_label,
)
from repro.sim.oracle import exact_quantile, quantile_rank, rank_error

if TYPE_CHECKING:  # pragma: no cover
    from repro.serving.algorithm import GateTarget, MultiQuerySketch

#: A target's participating population and, with the true values, their
#: values (:meth:`MultiQuerySketch.scope_view`).
ScopeView = Callable[["GateTarget"], "tuple[int, np.ndarray | None]"]

#: Scope id of whole-population targets.
GLOBAL_SCOPE = "*"

#: Cell tag used when no group-by query partitions the sensors.
DEFAULT_CELL = "*"


@dataclass(frozen=True)
class PlanTarget:
    """One boundary the shared gate must track.

    ``key`` identifies the target across plan versions and is what answer
    fan-out looks up: ``("phi", scope_id, phi)`` for quantile targets,
    ``("boundary", scope_id, boundary_value)`` for range endpoints.
    """

    key: tuple
    kind: str  # "phi" | "boundary"
    scope_id: str
    phi: float | None
    boundary: int | None
    eps: float
    scope: tuple[int, ...]
    cells: frozenset[str]

    @property
    def is_global(self) -> bool:
        """True for whole-population targets."""
        return self.scope_id == GLOBAL_SCOPE


@dataclass(frozen=True)
class PlannedItem:
    """One answer item of a query: its label and the target keys feeding it."""

    label: str
    keys: tuple[tuple, ...]


@dataclass(frozen=True)
class QueryPlan:
    """How one registered query maps onto the shared targets."""

    query: Query
    items: tuple[PlannedItem, ...]


@dataclass(frozen=True)
class ServingPlan:
    """The compiled collection plan for one registry version."""

    version: int
    #: Error budget of the shared sketch collection (min eps / 2).
    sketch_eps: float
    #: Tightest registered per-query budget (the primary target's eps).
    min_eps: float
    #: Cell tag per sensor vertex (common refinement of all partitions).
    cell_of: dict[int, str]
    targets: tuple[PlanTarget, ...]
    query_plans: tuple[QueryPlan, ...]
    #: Key of the driver's own global φ target (always present).
    primary_key: tuple = ()

    def target(self, key: tuple) -> PlanTarget:
        """Look up one plan target by key."""
        for target in self.targets:
            if target.key == key:
                return target
        raise KeyError(f"no plan target {key!r}")


class QueryRegistry:
    """Mutable set of registered queries, versioned for plan invalidation.

    ``version`` increments on every register/deregister; the serving
    algorithm compares it against the version its current plan was built
    from and re-plans (one refresh collection, no network re-init) when
    they differ.
    """

    def __init__(self) -> None:
        self._queries: dict[str, Query] = {}
        self.version = 0

    # -- lifecycle ------------------------------------------------------------

    def register(self, query: Query) -> None:
        """Add a query; duplicate names are a configuration error."""
        if query.name in self._queries:
            raise ConfigurationError(
                f"query {query.name!r} is already registered"
            )
        self._queries[query.name] = query
        self.version += 1

    def deregister(self, name: str) -> None:
        """Remove a query by name; unknown names are a configuration error."""
        if name not in self._queries:
            raise ConfigurationError(f"no registered query named {name!r}")
        del self._queries[name]
        self.version += 1

    @property
    def queries(self) -> tuple[Query, ...]:
        """Registered queries, in registration order."""
        return tuple(self._queries.values())

    def query(self, name: str) -> Query:
        """One registered query by name."""
        if name not in self._queries:
            raise ConfigurationError(f"no registered query named {name!r}")
        return self._queries[name]

    def __len__(self) -> int:
        return len(self._queries)

    def __contains__(self, name: str) -> bool:
        return name in self._queries

    # -- planning -------------------------------------------------------------

    def plan(
        self,
        sensors: tuple[int, ...],
        positions: np.ndarray | None,
        primary_phi: float,
    ) -> ServingPlan:
        """Compile the current queries into one collection plan.

        ``primary_phi`` is the driver's own φ (the algorithm's
        :class:`~repro.types.QuerySpec`); it is always tracked as a global
        target so the fault driver's answer/accuracy bookkeeping keeps
        working even with an empty registry.
        """
        group_bys = [q for q in self._queries.values() if isinstance(q, GroupByQuery)]
        cell_of: dict[int, str] = {}
        region_of: dict[str, dict[int, str]] = {q.name: {} for q in group_bys}
        for vertex in sensors:
            position = None if positions is None else positions[vertex]
            parts = []
            for q in group_bys:
                region = str(q.assign(vertex, position))
                region_of[q.name][vertex] = region
                parts.append(region)
            cell_of[vertex] = "|".join(parts) if parts else DEFAULT_CELL

        min_eps = min(
            (q.eps for q in self._queries.values()), default=DEFAULT_EPS
        )
        all_cells = frozenset(cell_of.values())
        targets: dict[tuple, PlanTarget] = {}

        def add_target(
            kind: str,
            scope_id: str,
            param: float | int,
            eps: float,
            scope: tuple[int, ...],
            cells: frozenset[str],
        ) -> tuple:
            # Dedup by scope *content*, not name: two dashboards asking for
            # the same φ over the same sensors share one target even when
            # their group-by queries (or labels) differ.
            key = (kind, tuple(sorted(scope)), param)
            existing = targets.get(key)
            if existing is None or eps < existing.eps:
                targets[key] = PlanTarget(
                    key=key,
                    kind=kind,
                    scope_id=existing.scope_id if existing else scope_id,
                    phi=float(param) if kind == "phi" else None,
                    boundary=int(param) if kind == "boundary" else None,
                    eps=min(eps, existing.eps) if existing else eps,
                    scope=scope,
                    cells=cells,
                )
            return key

        # The driver's own φ is always tracked at the tightest budget.
        primary_key = add_target(
            "phi", GLOBAL_SCOPE, primary_phi, min_eps, sensors, all_cells
        )

        query_plans: list[QueryPlan] = []
        for q in self._queries.values():
            items: list[PlannedItem] = []
            if isinstance(q, PhiQuery):
                for phi in q.phis:
                    key = add_target(
                        "phi", GLOBAL_SCOPE, phi, q.eps, sensors, all_cells
                    )
                    items.append(PlannedItem(label=phi_label(phi), keys=(key,)))
            elif isinstance(q, GroupByQuery):
                regions: dict[str, list[int]] = {}
                for vertex in sensors:
                    regions.setdefault(region_of[q.name][vertex], []).append(vertex)
                for region in sorted(regions):
                    members = tuple(regions[region])
                    cells = frozenset(cell_of[v] for v in members)
                    scope_id = f"{q.name}/{region}"
                    for phi in q.phis:
                        key = add_target(
                            "phi", scope_id, phi, q.eps, members, cells
                        )
                        items.append(
                            PlannedItem(
                                label=f"{region}:{phi_label(phi)}", keys=(key,)
                            )
                        )
            elif isinstance(q, RangeQuery):
                low_key = add_target(
                    "boundary", GLOBAL_SCOPE, q.low, q.eps, sensors, all_cells
                )
                high_key = add_target(
                    "boundary", GLOBAL_SCOPE, q.high + 1, q.eps, sensors, all_cells
                )
                items.append(
                    PlannedItem(
                        label=f"frac[{q.low},{q.high}]",
                        keys=(low_key, high_key),
                    )
                )
            else:  # pragma: no cover - the Query union is closed
                raise ConfigurationError(f"unknown query type {type(q).__name__}")
            query_plans.append(QueryPlan(query=q, items=tuple(items)))

        return ServingPlan(
            version=self.version,
            sketch_eps=min_eps / 2.0,
            min_eps=min_eps,
            cell_of=cell_of,
            targets=tuple(targets.values()),
            query_plans=tuple(query_plans),
            primary_key=primary_key,
        )

    # -- answer fan-out -------------------------------------------------------

    def answers(
        self,
        algorithm: "MultiQuerySketch",
        round_index: int,
        *,
        round_trustworthy: bool,
        values: np.ndarray | None = None,
        energy_share_mj: float = 0.0,
    ) -> tuple[QueryAnswer, ...]:
        """One :class:`QueryAnswer` per registered query, from the gate state.

        Root-side only — fanning k answers out of one gate costs no radio
        traffic, which is the whole point of the shared collection.
        ``values`` (the true measurement vector) is optional diagnostics:
        when given, each item carries its measured oracle error.  Each
        scope's population and values are read once per call.
        """
        plan = algorithm.plan
        if plan is None or plan.version != self.version:
            # The gate has not absorbed the latest (de)registrations yet;
            # nothing sound can be said about queries it never planned for.
            return tuple(
                QueryAnswer(
                    query=q.name,
                    kind=q.kind,
                    round_index=round_index,
                    items=(),
                    trustworthy=False,
                    reason="stale",
                    rank_error_budget=0.0,
                    energy_share_mj=energy_share_mj,
                )
                for q in self._queries.values()
            )

        views: dict[int, tuple[int, np.ndarray | None]] = {}

        def scope(target: "GateTarget") -> tuple[int, np.ndarray | None]:
            number = algorithm.scope_of_target[target.index]
            view = views.get(number)
            if view is None:
                view = views[number] = algorithm.scope_view(target, values)
            return view

        out: list[QueryAnswer] = []
        for query_plan in plan.query_plans:
            q = query_plan.query
            if q.name not in self._queries:  # deregistered since planning
                continue
            items: list[AnswerItem] = []
            reason: str | None = None
            budget = 0.0
            for planned in query_plan.items:
                if isinstance(q, RangeQuery):
                    item, item_reason, item_budget = self._range_item(
                        algorithm, q, planned, scope
                    )
                else:
                    item, item_reason, item_budget = self._phi_item(
                        algorithm, q, planned, scope
                    )
                items.append(item)
                reason = reason or item_reason
                budget = max(budget, item_budget)
            if reason is None and not round_trustworthy:
                reason = "untrusted-round"
            out.append(
                QueryAnswer(
                    query=q.name,
                    kind=q.kind,
                    round_index=round_index,
                    items=tuple(items),
                    trustworthy=reason is None,
                    reason=reason,
                    rank_error_budget=budget,
                    energy_share_mj=energy_share_mj,
                )
            )
        return tuple(out)

    def _phi_item(
        self,
        algorithm: "MultiQuerySketch",
        q: PhiQuery | GroupByQuery,
        planned: PlannedItem,
        scope: ScopeView,
    ) -> tuple[AnswerItem, str | None, float]:
        target = algorithm.gate_target(planned.keys[0])
        if target is None:
            return AnswerItem(label=planned.label, value=None), "stale", 0.0
        population, scope_values = scope(target)
        if population == 0:
            reason = (
                "empty-population"
                if target.plan.is_global
                else f"empty-region:{planned.label}"
            )
            return AnswerItem(label=planned.label, value=None), reason, 0.0
        if target.value is None:
            reason = (
                "no-data"
                if target.plan.is_global
                else f"no-region-data:{planned.label}"
            )
            return AnswerItem(label=planned.label, value=None), reason, 0.0
        k = quantile_rank(population, target.plan.phi)
        worst = float(target.worst_rank_error(k))
        oracle_error: float | None = None
        if scope_values is not None:
            oracle_error = float(rank_error(scope_values, int(target.value), k))
        item = AnswerItem(
            label=planned.label,
            value=float(target.value),
            lo=float(target.value_lo) if target.value_lo is not None else None,
            hi=float(target.value_hi) if target.value_hi is not None else None,
            rank_error_bound=worst,
            oracle_error=oracle_error,
        )
        return item, None, q.eps * population

    def _range_item(
        self,
        algorithm: "MultiQuerySketch",
        q: RangeQuery,
        planned: PlannedItem,
        scope: ScopeView,
    ) -> tuple[AnswerItem, str | None, float]:
        low_t = algorithm.gate_target(planned.keys[0])
        high_t = algorithm.gate_target(planned.keys[1])
        if low_t is None or high_t is None:
            return AnswerItem(label=planned.label, value=None), "stale", 0.0
        population, scope_values = scope(low_t)
        if population == 0:
            return (
                AnswerItem(label=planned.label, value=None),
                "empty-population",
                0.0,
            )
        if low_t.value is None or high_t.value is None:
            return AnswerItem(label=planned.label, value=None), "no-data", 0.0
        count_lo = max(0, high_t.l_lo - low_t.l_hi)
        count_hi = min(population, high_t.l_hi - low_t.l_lo)
        count_hi = max(count_hi, count_lo)
        lo = count_lo / population
        hi = count_hi / population
        estimate = (lo + hi) / 2.0
        oracle_error: float | None = None
        if scope_values is not None:
            # The fraction inside [low, high], the correctly rounded
            # quotient of two integers, as ``np.mean`` of the mask is.
            inside = np.count_nonzero(
                (scope_values >= q.low) & (scope_values <= q.high)
            )
            oracle_error = abs(estimate - inside / population)
        item = AnswerItem(
            label=planned.label,
            value=estimate,
            lo=lo,
            hi=hi,
            rank_error_bound=(hi - lo) / 2.0,
            oracle_error=oracle_error,
        )
        return item, None, q.eps


def oracle_grid(
    values: np.ndarray, members: Iterable[int], phis: tuple[float, ...]
) -> tuple[int, ...]:
    """Centralized ground truth for a φ-grid over ``members`` — test helper."""
    selected = values[list(members)]
    return tuple(
        exact_quantile(selected, quantile_rank(len(selected), phi))
        for phi in phis
    )
