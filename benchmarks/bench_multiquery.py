"""Multi-query serving: amortization of k queries over one convergecast.

Sweeps registered-query count against the error budget eps and compares
the serving layer's per-round radio energy with (a) one single-query SKQ
tracker on the same deployment and (b) the k-independent-runs estimate
(k x the single tracker).  The headline acceptance cell is pinned at the
issue's setting — 32 registered queries, 300 nodes — where the serving
layer must stay within 2x the single-query baseline (vs ~32x for
independent runs).  Results land in ``BENCH_multiquery.json`` alongside
the text table.

Each cell's serving run lasts tens of milliseconds, so one timing swings
with the host's momentary speed.  Every cell therefore times
:data:`TIMED_RUNS` fresh runners and gates the median; the record lists
every run's rate next to it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from benchmarks.common import archive, bench_scale, emit_perf, run_once
from repro.core.sketchq import SketchQuantile
from repro.datasets.synthetic import SyntheticWorkload
from repro.faults.experiment import FaultDriver
from repro.faults.plan import FaultPlan
from repro.network.routing import build_routing_tree
from repro.network.topology import connected_random_graph
from repro.serving import (
    GroupByQuery,
    MultiQueryRunner,
    PhiQuery,
    QueryRegistry,
    RangeQuery,
)
from repro.types import QuerySpec

QUERY_COUNTS = (1, 8, 32)
EPS_VALUES = (0.05, 0.1)

# Pinned acceptance cell (issue headline): 32 queries, 300 nodes, eps 0.05.
# Like bench_faults' ETX_CELL this is deliberately *not* scaled — the claim
# is a seeded measurement on one deployment, not a sweep.
HEADLINE = dict(num_queries=32, num_nodes=300, num_rounds=40, eps=0.05)

SEED = 3
HISTOGRAM_EDGES = (0, 200, 400, 600, 800)

#: Fresh serving runners timed per cell; ``rounds_per_sec`` is the median.
TIMED_RUNS = 5


def sector_of(vertex, position):
    """Region assigner for the group-by queries: 100 m x-stripes."""
    if position is None:
        return "s0"
    return f"s{int(position[0] // 100)}"


def dashboard_registry(num_queries: int, eps: float) -> QueryRegistry:
    """The first ``num_queries`` of the 32-query dashboard mix.

    The full mix interleaves a phi-grid (p50/p90/p95/p99 spread over 24
    subscriptions), four sector group-bys and a four-bucket histogram of
    range predicates, so every prefix is a representative dashboard.
    """
    phis = (0.5, 0.9, 0.95, 0.99)
    registry = QueryRegistry()
    group_index = 0
    range_index = 0
    phi_index = 0
    for slot in range(num_queries):
        position = slot % 8
        if position == 5 and group_index < 4:
            registry.register(
                GroupByQuery(f"sector{group_index}", assign=sector_of, eps=eps)
            )
            group_index += 1
        elif position == 7 and range_index < 4:
            low = HISTOGRAM_EDGES[range_index]
            high = HISTOGRAM_EDGES[range_index + 1] - 1
            registry.register(
                RangeQuery(f"bucket{range_index}", low=low, high=high, eps=eps)
            )
            range_index += 1
        else:
            registry.register(
                PhiQuery(
                    f"phi{slot}", phis=(phis[phi_index % 4],), eps=eps
                )
            )
            phi_index += 1
    return registry


def deployment(num_nodes: int):
    rng = np.random.default_rng(SEED)
    graph = connected_random_graph(num_nodes + 1, 35.0, rng)
    tree = build_routing_tree(graph, root=0)
    workload = SyntheticWorkload(graph.positions, rng)
    spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
    return graph, tree, workload, spec


def mj_per_round(ledger, num_rounds: int) -> float:
    total = float(np.sum(ledger.round_energy_history, axis=0).sum())
    return total / num_rounds * 1e3


def ledger_arrays(ledger) -> list[np.ndarray]:
    """A run's ledger counters and per-round energies, for comparing runs."""
    return [
        ledger.energy,
        ledger.messages_sent,
        ledger.messages_received,
        ledger.bits_sent,
        ledger.bits_received,
        ledger.values_sent,
        np.array(ledger.round_energy_history),
    ]


def run_cell(num_queries, num_nodes, num_rounds, eps, baseline=None):
    """One sweep cell: serving runs + single-SKQ baseline on one deployment.

    The serving run repeats on :data:`TIMED_RUNS` fresh runners.  Every
    column but the rates comes from the first, and each repeat must
    reproduce its ledger.  A finished runner is dropped before the next
    one starts, so peak RSS covers one runner.
    """
    graph, tree, workload, spec = deployment(num_nodes)
    if baseline is None:
        driver = FaultDriver(
            lambda s: SketchQuantile(s, eps=eps),
            spec,
            tree,
            workload,
            FaultPlan(),
            graph=graph,
        )
        driver.run(num_rounds)
        baseline = mj_per_round(driver.ledger, num_rounds)

    cell = None
    first_ledger: list[np.ndarray] = []
    rates = []
    for _ in range(TIMED_RUNS):
        registry = dashboard_registry(num_queries, eps)
        runner = MultiQueryRunner(registry, spec, tree, workload, graph=graph)
        start = time.perf_counter()
        runner.run(num_rounds)
        rates.append(num_rounds / (time.perf_counter() - start))
        ledger = ledger_arrays(runner.driver.ledger)
        if cell is None:
            cell = serving_columns(runner, num_queries, num_nodes, num_rounds, eps, baseline)
            first_ledger = ledger
        else:
            assert all(np.array_equal(a, b) for a, b in zip(first_ledger, ledger))
        del runner
        gc.collect()
    cell["rounds_per_sec"] = statistics.median(rates)
    cell["rounds_per_sec_runs"] = rates
    return cell


def serving_columns(runner, num_queries, num_nodes, num_rounds, eps, baseline):
    """Energy, refresh and accuracy columns of one finished serving run."""
    multi = mj_per_round(runner.driver.ledger, num_rounds)

    phi_errors = [
        item.oracle_error
        for served in runner.rounds
        for answer in served.answers
        if answer.kind in ("phi", "group-by")
        for item in answer.items
        if item.oracle_error is not None
    ]
    range_errors = [
        item.oracle_error
        for served in runner.rounds
        for answer in served.answers
        if answer.kind == "range"
        for item in answer.items
        if item.oracle_error is not None
    ]
    algorithm = runner.driver.algorithm
    return {
        "num_queries": num_queries,
        "num_nodes": num_nodes,
        "num_rounds": num_rounds,
        "eps": eps,
        "mj_per_round": multi,
        "baseline_mj_per_round": baseline,
        "ratio_vs_single": multi / baseline,
        "ratio_vs_independent": multi / (baseline * num_queries),
        "per_query_mj_per_round": multi / num_queries,
        "full_refreshes": algorithm.refreshes,
        "partial_refreshes": algorithm.partial_refreshes,
        "targets": len(algorithm.plan.targets),
        "max_phi_rank_error": max(phi_errors) if phi_errors else 0.0,
        "max_range_fraction_error": max(range_errors) if range_errors else 0.0,
    }


def compute():
    scale = bench_scale()
    sweep_nodes = max(60, round(300 * scale))
    sweep_rounds = max(20, round(120 * scale))
    cells = []
    for eps in EPS_VALUES:
        baseline = None
        for num_queries in QUERY_COUNTS:
            cell = run_cell(num_queries, sweep_nodes, sweep_rounds, eps, baseline)
            baseline = cell["baseline_mj_per_round"]
            cells.append(cell)
    headline = run_cell(**HEADLINE)
    return {"sweep": cells, "headline": headline}


def format_table(data) -> str:
    lines = [
        "multi-query serving: per-round energy vs single-SKQ and "
        "k-independent-runs baselines",
        f"{'cell':>9s} {'k':>4s} {'eps':>5s} {'nodes':>6s} "
        f"{'mJ/rnd':>8s} {'1xSKQ':>7s} {'vs 1x':>6s} {'vs kx':>6s} "
        f"{'mJ/q':>6s} {'full':>5s} {'part':>5s} {'maxerr':>7s}",
    ]
    for label, cell in [("sweep", c) for c in data["sweep"]] + [
        ("HEADLINE", data["headline"])
    ]:
        lines.append(
            f"{label:>9s} {cell['num_queries']:4d} {cell['eps']:5.2f} "
            f"{cell['num_nodes']:6d} {cell['mj_per_round']:8.3f} "
            f"{cell['baseline_mj_per_round']:7.3f} "
            f"{cell['ratio_vs_single']:6.2f} "
            f"{cell['ratio_vs_independent']:6.3f} "
            f"{cell['per_query_mj_per_round']:6.3f} "
            f"{cell['full_refreshes']:5d} {cell['partial_refreshes']:5d} "
            f"{cell['max_phi_rank_error']:7.1f}"
        )
    return "\n".join(lines) + "\n"


def test_multiquery_amortization(benchmark):
    data = run_once(benchmark, compute)
    text = format_table(data)
    print("\n" + text)
    archive("multiquery", text)
    emit_perf("multiquery", data)

    headline = data["headline"]
    # The issue's acceptance gate: 32 queries at 300 nodes within 2x the
    # single-query SKQ tracker (independent runs would pay ~32x).
    assert headline["ratio_vs_single"] <= 2.0
    assert headline["ratio_vs_independent"] < 0.1
    # Answers stay inside their budgets while amortizing.
    budget = headline["eps"] * headline["num_nodes"]
    assert headline["max_phi_rank_error"] <= budget
    assert headline["max_range_fraction_error"] <= headline["eps"]
    for cell in data["sweep"]:
        # Every swept cell beats running its queries independently.
        if cell["num_queries"] > 1:
            assert cell["ratio_vs_single"] < cell["num_queries"]
        # A single registered query costs about one tracker.
        if cell["num_queries"] == 1:
            assert cell["ratio_vs_single"] < 1.6
