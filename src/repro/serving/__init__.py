"""Multi-query serving: many continuous queries over one convergecast.

The subsystem that turns the single-query tracker into a serving layer: a
:class:`QueryRegistry` at the root accepts typed continuous queries
(φ-grids, group-by regions, range predicates), compiles them into one
shared collection plan (min-eps, per-cell tagged sub-digests), and
:class:`MultiQuerySketch` tracks the whole target matrix behind one
SKQ-style validation gate — so k registered queries cost about one gated
convergecast instead of k independent runs.  :class:`MultiQueryRunner`
composes the gate with the fault layer and fans out per-round
:class:`QueryAnswer` records.
"""

from repro.serving.algorithm import GridValidationPayload, MultiQuerySketch
from repro.serving.history import (
    PRIMARY_LABEL,
    PRIMARY_TRACK,
    CacheStats,
    HistoryRead,
    HistoryStore,
    IncrementalQuantile,
)
from repro.serving.queries import (
    DEFAULT_EPS,
    AnswerItem,
    GroupByQuery,
    PhiQuery,
    Query,
    QueryAnswer,
    RangeQuery,
    RegionAssigner,
    phi_label,
)
from repro.serving.registry import (
    PlannedItem,
    PlanTarget,
    QueryPlan,
    QueryRegistry,
    ServingPlan,
    oracle_grid,
)
from repro.serving.runner import MultiQueryRunner, QueryStats, ServingRound

__all__ = [
    "DEFAULT_EPS",
    "PRIMARY_LABEL",
    "PRIMARY_TRACK",
    "AnswerItem",
    "CacheStats",
    "GridValidationPayload",
    "GroupByQuery",
    "HistoryRead",
    "HistoryStore",
    "IncrementalQuantile",
    "MultiQueryRunner",
    "MultiQuerySketch",
    "PhiQuery",
    "PlanTarget",
    "PlannedItem",
    "Query",
    "QueryAnswer",
    "QueryPlan",
    "QueryRegistry",
    "QueryStats",
    "RangeQuery",
    "RegionAssigner",
    "ServingPlan",
    "ServingRound",
    "oracle_grid",
    "phi_label",
]
