"""MultiQueryRunner: the serving layer composed with the fault driver.

Wraps a :class:`~repro.faults.experiment.FaultDriver` running a
:class:`~repro.serving.algorithm.MultiQuerySketch` and, after each round,
fans the gate state out into per-query
:class:`~repro.serving.queries.QueryAnswer` records.  The registry lives
in the runner, *outside* the algorithm instance, so answers survive
everything the fault layer throws at the network: tree repair and
rotation carry the gate state over unchanged, a watchdog
re-initialization rebuilds a fresh gate against the same registry, and
degraded rounds (no participating sensor) are served from the last cached
answers, re-flagged ``trustworthy=False`` with reason ``"degraded"``.

Queries can be registered and deregistered between any two rounds — the
gate notices the registry version change and re-anchors with one refresh
collection; the network is never re-initialized for it.  Deregistering
also evicts the query's cached degraded-round answer (a re-registered
query with the same name must never be served the old query's values);
its *history* survives in the runner's :class:`HistoryStore`, which
absorbs every round's answers — including the driver's own answer as the
``__primary__`` track — and serves window/decay/at-round reads at zero
radio cost.  On root fail-over the successor sink inherits the cached
answers and the history summaries; the runner registers their size with
the driver, so the hand-over flood pays for them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.constants import VALUE_BITS
from repro.faults.experiment import FaultDriver, RoundReport
from repro.faults.plan import FaultPlan
from repro.serving.algorithm import MultiQuerySketch
from repro.serving.history import HistoryStore
from repro.serving.queries import Query, QueryAnswer
from repro.serving.registry import QueryRegistry
from repro.types import QuerySpec


@dataclass(frozen=True)
class ServingRound:
    """One served round: the driver's report plus every query's answer."""

    report: RoundReport
    answers: tuple[QueryAnswer, ...]


@dataclass(frozen=True)
class QueryStats:
    """Per-query aggregate over a run — the dashboard summary line."""

    query: str
    kind: str
    rounds: int
    answered_rounds: int
    trustworthy_fraction: float
    mean_oracle_error: float
    max_oracle_error: float
    total_energy_mj: float

    @property
    def mean_energy_mj(self) -> float:
        """Amortized per-round energy share of this query."""
        return self.total_energy_mj / self.rounds if self.rounds else 0.0


class MultiQueryRunner:
    """Step a fault-injected network and serve every registered query.

    Args:
        registry: the (possibly pre-populated) query registry; shared with
            the gate algorithm and mutable mid-run.
        spec: the driver's own quantile query (universe bounds included).
        tree: routing tree; ``graph`` enables repair/rotation.
        workload: per-round measurement source.
        plan: fault plan (defaults to a fault-free network).
        positions: sensor coordinates handed to group-by region assigners;
            defaults to ``graph.positions`` when a graph is given.
        history: the root-side history store fed with every round's
            answers; a default-configured one is created when omitted.

    Remaining keyword arguments go to
    :class:`~repro.faults.experiment.FaultDriver` verbatim.
    """

    def __init__(
        self,
        registry: QueryRegistry,
        spec: QuerySpec,
        tree,
        workload,
        plan: FaultPlan | None = None,
        arq=None,
        *,
        graph=None,
        positions: np.ndarray | None = None,
        history: HistoryStore | None = None,
        **driver_kwargs,
    ) -> None:
        if positions is None and graph is not None:
            positions = graph.positions
        self.registry = registry
        self.history = history if history is not None else HistoryStore()

        def factory(s: QuerySpec) -> MultiQuerySketch:
            return MultiQuerySketch(s, registry=registry, positions=positions)

        self.driver = FaultDriver(
            factory,
            spec,
            tree,
            workload,
            plan if plan is not None else FaultPlan(),
            arq,
            graph=graph,
            **driver_kwargs,
        )
        self.rounds: list[ServingRound] = []
        self._cache: dict[str, QueryAnswer] = {}
        self.driver.handover_state_providers.append(self._handover_bits)

    def _handover_bits(self) -> int:
        """Serialized size [bits] of the root-side serving state: the
        cached answers (last good value + eps per query) and every history
        summary."""
        history = self.history
        retained = sum(history.size_items(query) for query in history.queries())
        return VALUE_BITS * (2 * len(self._cache) + retained)

    # -- registry passthrough -------------------------------------------------

    def register(self, query: Query) -> None:
        """Register a query; takes effect with the next round's refresh."""
        self.registry.register(query)

    def deregister(self, name: str) -> None:
        """Deregister a query; its targets are dropped at the next refresh.

        The degraded-round answer cache is evicted with it: a query later
        re-registered under the same name must never be served the old
        query's values, and the cache must not grow without bound under
        register/deregister churn.  History is *kept* — the store's past
        is still truthful after the query is gone.
        """
        self.registry.deregister(name)
        self._cache.pop(name, None)

    # -- round loop -----------------------------------------------------------

    def step(self, round_index: int) -> ServingRound | None:
        """Run one round; ``None`` means every sensor is permanently dead."""
        report = self.driver.step(round_index)
        if report is None:
            return None
        self.history.absorb_report(report)
        history = self.driver.ledger.round_energy_history
        round_energy_mj = float(history[-1].sum()) * 1e3 if history else 0.0
        share = round_energy_mj / max(1, len(self.registry))

        if report.degraded:
            answers = self._degraded_answers(report, share)
        else:
            values = self.driver.workload.values(round_index)
            answers = self.registry.answers(
                self.driver.algorithm,
                round_index,
                round_trustworthy=report.trustworthy,
                values=values,
                energy_share_mj=share,
            )
            for answer in answers:
                if any(item.value is not None for item in answer.items):
                    self._cache[answer.query] = answer

        self.history.absorb_answers(report.round_index, answers)
        served = ServingRound(report=report, answers=answers)
        self.rounds.append(served)
        return served

    def run(self, num_rounds: int) -> list[ServingRound]:
        """Run the full loop; stops early only if every sensor is dead."""
        out: list[ServingRound] = []
        for round_index in range(num_rounds):
            served = self.step(round_index)
            if served is None:
                break
            out.append(served)
        return out

    def _degraded_answers(
        self, report: RoundReport, share: float
    ) -> tuple[QueryAnswer, ...]:
        """Last cached answers, honestly re-flagged as stale and untrusted."""
        answers: list[QueryAnswer] = []
        for query in self.registry.queries:
            cached = self._cache.get(query.name)
            if cached is None:
                answers.append(
                    QueryAnswer(
                        query=query.name,
                        kind=query.kind,
                        round_index=report.round_index,
                        items=(),
                        trustworthy=False,
                        reason="degraded",
                        rank_error_budget=0.0,
                        energy_share_mj=share,
                    )
                )
            else:
                answers.append(
                    replace(
                        cached,
                        round_index=report.round_index,
                        trustworthy=False,
                        reason="degraded",
                        energy_share_mj=share,
                        # The values were observed at the cached answer's
                        # round; stamp the distance so consumers can tell
                        # how stale the re-served answer is.
                        age_rounds=report.round_index - cached.round_index,
                    )
                )
        return tuple(answers)

    # -- aggregates -----------------------------------------------------------

    def stats(self) -> list[QueryStats]:
        """Per-query aggregates over every round served so far, in order of
        each query's first answer."""
        by_query: dict[str, list[QueryAnswer]] = {}
        for served in self.rounds:
            for answer in served.answers:
                by_query.setdefault(answer.query, []).append(answer)
        out: list[QueryStats] = []
        for name, answers in by_query.items():
            # Summed in round order with ``+=``: ``sum()`` of floats rounds
            # differently from Python 3.12 on.
            energy = 0.0
            errors: list[float] = []
            for answer in answers:
                energy += answer.energy_share_mj
                errors.extend(
                    i.oracle_error for i in answer.items if i.oracle_error is not None
                )
            out.append(
                QueryStats(
                    query=name,
                    kind=answers[0].kind,
                    rounds=len(answers),
                    answered_rounds=sum(
                        any(i.value is not None for i in answer.items)
                        for answer in answers
                    ),
                    trustworthy_fraction=(
                        sum(answer.trustworthy for answer in answers) / len(answers)
                    ),
                    mean_oracle_error=float(np.mean(errors)) if errors else 0.0,
                    max_oracle_error=float(np.max(errors)) if errors else 0.0,
                    total_energy_mj=energy,
                )
            )
        return out
