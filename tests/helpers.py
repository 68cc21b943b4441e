"""Shared helpers for algorithm tests: drive algorithms over value sequences.

Besides the fault-free :func:`drive` loop, this module hosts the
*differential invariant harness* (:func:`assert_differential_invariant`):
it steps every given algorithm through the fault driver on one shared
deployment and value stream, and asserts that on every **trustworthy**
round (full delivery since the last re-init, membership in sync — see
``repro.faults.experiment.RoundReport.trustworthy``) an exact algorithm's
answer equals the oracle's quantile over the participating population.
Run it with no faults and again with faults at a generous retry budget:
the answers must match the oracle either way, which pins the whole
repair/rejoin bookkeeping to the ground truth.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.base import ContinuousQuantileAlgorithm
from repro.faults import (
    ArqPolicy,
    CompositeChurn,
    FaultDriver,
    FaultPlan,
    RoundReport,
    ScheduledChurn,
)
from repro.network.topology import PhysicalGraph
from repro.network.tree import RoutingTree
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger
from repro.serving.algorithm import MultiQuerySketch
from repro.sim.engine import TreeNetwork
from repro.sim.oracle import exact_quantile, quantile_rank, rank_error
from repro.types import QuerySpec, RoundOutcome

from tests.reference_engine import reference_drivers


def drive(
    algorithm: ContinuousQuantileAlgorithm,
    tree: RoutingTree,
    rounds: list[np.ndarray],
    radio_range: float = 35.0,
    check: bool = True,
) -> tuple[list[RoundOutcome], TreeNetwork]:
    """Run ``algorithm`` over explicit per-round value arrays.

    With ``check`` every round's answer is asserted against the oracle.
    Returns the outcomes and the network (for traffic inspection).
    """
    ledger = EnergyLedger(
        num_vertices=tree.num_vertices,
        root=tree.root,
        model=EnergyModel(),
        radio_range=radio_range,
    )
    net = TreeNetwork(tree, ledger)
    k = quantile_rank(tree.num_sensor_nodes, algorithm.spec.phi)
    sensors = list(tree.sensor_nodes)

    outcomes: list[RoundOutcome] = []
    for index, values in enumerate(rounds):
        values = np.asarray(values)
        ledger.begin_round()
        if index == 0:
            outcome = algorithm.initialize(net, values)
        else:
            outcome = algorithm.update(net, values)
        ledger.end_round()
        if check:
            truth = exact_quantile(values[sensors], k)
            assert outcome.quantile == truth, (
                f"{algorithm.name} round {index}: got {outcome.quantile}, "
                f"oracle says {truth}"
            )
        outcomes.append(outcome)
    return outcomes, net


class SequenceWorkload:
    """Adapter: explicit per-round value arrays behind the workload API."""

    def __init__(self, rounds: Sequence[np.ndarray]) -> None:
        self.rounds = [np.asarray(r) for r in rounds]

    def values(self, round_index: int) -> np.ndarray:
        return self.rounds[round_index % len(self.rounds)]


def assert_differential_invariant(
    factories: dict[str, Callable[[QuerySpec], ContinuousQuantileAlgorithm]],
    graph: PhysicalGraph,
    tree: RoutingTree,
    rounds: Sequence[np.ndarray],
    spec: QuerySpec,
    plan_factory: Callable[[], FaultPlan],
    retries: int = 8,
    radio_range: float | None = None,
    min_trustworthy: int = 1,
    rotate_every: int = 0,
    rotate_seed: int = 0,
    repair_metric: str = "etx",
    heal_patience: int = 1,
    reference: bool = False,
    root_failover: int | None = None,
    root_grace: int = 1,
) -> dict[str, list[RoundReport]]:
    """Differential invariant: exact algorithms == oracle on trustworthy rounds.

    Every factory runs through a fresh :class:`~repro.faults.FaultDriver`
    over the *same* deployment and value stream, against a fresh (and
    therefore identically seeded) plan from ``plan_factory`` — so all
    algorithms face the exact same fault schedule.  On every round the
    driver flags as trustworthy, the answer is asserted equal to the
    oracle's quantile over the participating population.  Rounds that lost
    traffic or left membership out of sync are exempt (the root cannot know
    better), but at least ``min_trustworthy`` rounds must qualify, so the
    invariant cannot pass vacuously.

    ``rotate_every`` adds fault-aware tree rotation to the schedule (seeded
    by ``rotate_seed`` so every algorithm sees identical rotations);
    ``repair_metric`` selects the orphan-adoption ranking under test;
    ``heal_patience`` lets parked orphans wait that many rounds for a heal
    before the re-init fallback (the near-total-churn axis exercises it);
    ``reference`` runs every driver on the per-hop reference walk
    (``tests/reference_engine.py``) instead of the array paths, so the same
    invariant can be asserted against either — the fuzz axis in
    ``tests/test_vectorized.py`` runs both.

    ``root_failover`` schedules the sink's death at that round on top of
    whatever the plan injects (RNG-safe: scheduled churn draws nothing),
    so the invariant spans a root fail-over — the elected successor must
    keep serving oracle-exact answers over the survivor population;
    ``root_grace`` is forwarded to the driver's fail-over controller.
    """
    workload = SequenceWorkload(rounds)
    reports_by_name: dict[str, list[RoundReport]] = {}
    for name, factory in factories.items():
        plan = plan_factory()
        if root_failover is not None:
            plan.churn = CompositeChurn(
                plan.churn, ScheduledChurn({root_failover: (tree.root,)})
            )
        with reference_drivers(reference):
            driver = FaultDriver(
                factory,
                spec,
                tree,
                workload,
                plan,
                ArqPolicy(max_retries=retries),
                graph=graph,
                repair=True,
                radio_range=(
                    radio_range if radio_range is not None else graph.radio_range
                ),
                repair_metric=repair_metric,
                rotate_every=rotate_every,
                rotate_rng=np.random.default_rng(rotate_seed),
                heal_patience=heal_patience,
                root_grace=root_grace,
            )
        reports = driver.run(len(rounds))
        algorithm = driver.algorithm
        trustworthy = 0
        last_trusted: RoundReport | None = None
        for report in reports:
            if not report.trustworthy:
                continue
            trustworthy += 1
            last_trusted = report
            participants = list(report.participating)
            values = workload.values(report.round_index)[participants]
            k = quantile_rank(len(participants), spec.phi)
            if algorithm.exact:
                truth = exact_quantile(values, k)
                assert report.answer == truth, (
                    f"{name} round {report.round_index}: answered "
                    f"{report.answer}, oracle over the {len(participants)} "
                    f"participating sensors says {truth}"
                )
            else:
                # Approximate algorithms promise bounded rank error instead
                # of equality — the differential form of the same invariant.
                budget = algorithm.eps * len(participants)
                error = rank_error(values, report.answer, k)
                assert error <= budget, (
                    f"{name} round {report.round_index}: rank error "
                    f"{error} exceeds the eps*n budget {budget}"
                )
        assert trustworthy >= min_trustworthy, (
            f"{name}: only {trustworthy} trustworthy rounds out of "
            f"{len(reports)} — the invariant would be vacuous"
        )
        if last_trusted is not None and last_trusted is reports[-1]:
            _assert_phi_grid_invariant(name, algorithm, workload, last_trusted)
        reports_by_name[name] = reports
    return reports_by_name


def _assert_phi_grid_invariant(
    name: str,
    algorithm: ContinuousQuantileAlgorithm,
    workload: "SequenceWorkload",
    report: RoundReport,
) -> None:
    """The φ-grid axis: every served grid point is monotone and in budget.

    The multi-query serving gate gets its whole global φ-grid
    (:func:`grid_answers`) checked against the oracle on the final
    trustworthy round: values non-decreasing in φ, every value within its
    own ``eps * n`` rank budget.
    """
    if not isinstance(algorithm, MultiQuerySketch):
        return
    grid = grid_answers(algorithm)
    participants = list(report.participating)
    values = workload.values(report.round_index)[participants]
    previous_value = None
    for phi in sorted(grid):
        value, eps = grid[phi]
        if value is None:
            continue
        if previous_value is not None:
            assert value >= previous_value, (
                f"{name}: φ-grid not monotone at phi={phi}: "
                f"{value} < {previous_value}"
            )
        previous_value = value
        k = quantile_rank(len(participants), phi)
        error = rank_error(values, value, k)
        assert error <= eps * len(participants), (
            f"{name}: φ-grid point phi={phi} rank error {error} exceeds "
            f"budget {eps * len(participants)}"
        )


def random_rounds(
    rng: np.random.Generator,
    num_vertices: int,
    num_rounds: int,
    low: int,
    high: int,
    drift: float = 0.0,
) -> list[np.ndarray]:
    """Random integer value sequences, optionally with a shared linear drift."""
    base = rng.integers(low, high + 1, size=num_vertices)
    rounds = []
    for t in range(num_rounds):
        noise = rng.integers(-3, 4, size=num_vertices)
        values = np.clip(base + noise + int(round(drift * t)), low, high)
        rounds.append(values.astype(np.int64))
    return rounds


def grid_answers(
    sketch: MultiQuerySketch,
) -> dict[float, tuple[int | None, float]]:
    """Global φ targets' ``(value, eps)`` — the harness's φ-grid axis."""
    out: dict[float, tuple[int | None, float]] = {}
    for target in sketch.targets.values():
        if target.plan.kind == "phi" and target.plan.is_global:
            out[float(target.plan.phi)] = (target.value, target.eps)
    return out


def depletion_round(ledger: EnergyLedger) -> int | None:
    """First archived round index at which some sensor battery ran dry.

    Exact replay over the ledger's archived per-round history; ``None``
    when all sensor nodes survive every archived round.
    """
    if not ledger.round_energy_history:
        return None
    cumulative = np.zeros(ledger.num_vertices)
    mask = ledger.sensor_mask()
    for index, round_energy in enumerate(ledger.round_energy_history):
        cumulative += round_energy
        if (cumulative[mask] > ledger.model.initial_energy).any():
            return index
    return None


def internal_counts_bounded(digest) -> bool:
    """True when every internal node of a q-digest respects the
    ``n // kappa`` bound.

    This is the soundness invariant behind the deterministic error
    guarantee; tests assert it after arbitrary merge trees.
    """
    leaf_base = 1 << digest.levels
    bound = digest.n // digest.kappa
    return all(
        count <= bound for node, count in digest.entries if node < leaf_base
    )


def states_equal(a, b) -> bool:
    """Recursive bit-generator state comparison.

    MT19937's state dict embeds numpy arrays, so a plain ``==`` on the
    dicts is ambiguous; compare leaves with ``np.array_equal``.
    """
    if isinstance(a, dict):
        return set(a) == set(b) and all(states_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b
