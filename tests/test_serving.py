"""Multi-query serving: registry lifecycle, planning, grid math, answers.

The fault-free half of the serving tests: registering typed queries,
compiling them into one shared plan (eps planning rule, content-based
target dedup, group-by cells), decoding a φ-grid and its value bounds from
one q-digest, and serving a whole dashboard from a single gated
convergecast — including mid-run (de)registration without re-initializing
the network.  The faulted half lives in ``test_serving_faults.py``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import COUNTER_BITS
from repro.datasets.synthetic import SyntheticWorkload
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, RandomOutages
from repro.network.routing import build_routing_tree
from repro.network.topology import connected_random_graph
from repro.serving import (
    GroupByQuery,
    MultiQueryRunner,
    PhiQuery,
    QueryRegistry,
    RangeQuery,
    oracle_grid,
    phi_label,
)
from repro.serving.algorithm import (
    TARGET_ID_BITS,
    GridValidationPayload,
    MultiQuerySketch,
    _grid_validation,
)
from repro.serving.registry import DEFAULT_CELL
from repro.sim.oracle import exact_quantile, quantile_rank, rank_error
from repro.sketch import QDigest
from repro.types import QuerySpec


def make_deployment(num_nodes=30, seed=11, radio_range=60.0):
    rng = np.random.default_rng(seed)
    graph = connected_random_graph(num_nodes + 1, radio_range, rng)
    tree = build_routing_tree(graph, root=0)
    workload = SyntheticWorkload(graph.positions, rng)
    spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
    return graph, tree, workload, spec


def halves(vertex, position):
    if position is None:
        return "west"
    return "east" if position[0] > 100.0 else "west"


class TestRegistryLifecycle:
    def test_register_deregister_roundtrip(self):
        registry = QueryRegistry()
        q = PhiQuery("grid", phis=(0.5, 0.95))
        registry.register(q)
        assert len(registry) == 1
        assert "grid" in registry
        assert registry.query("grid") is q
        assert registry.queries == (q,)
        registry.deregister("grid")
        assert len(registry) == 0
        assert "grid" not in registry

    def test_version_increments_on_every_mutation(self):
        registry = QueryRegistry()
        v0 = registry.version
        registry.register(PhiQuery("a"))
        registry.register(RangeQuery("b", low=10, high=20))
        registry.deregister("a")
        assert registry.version == v0 + 3

    def test_duplicate_name_rejected(self):
        registry = QueryRegistry()
        registry.register(PhiQuery("a"))
        with pytest.raises(ConfigurationError):
            registry.register(RangeQuery("a", low=0, high=1))

    def test_unknown_name_rejected(self):
        registry = QueryRegistry()
        with pytest.raises(ConfigurationError):
            registry.deregister("ghost")
        with pytest.raises(ConfigurationError):
            registry.query("ghost")

    def test_query_validation(self):
        with pytest.raises(ConfigurationError):
            PhiQuery("bad", phis=(1.5,))
        with pytest.raises(ConfigurationError):
            PhiQuery("bad", phis=())
        with pytest.raises(ConfigurationError):
            PhiQuery("bad", eps=0.0)
        with pytest.raises(ConfigurationError):
            RangeQuery("bad", low=10, high=5)


class TestPlanning:
    def test_eps_planning_rule_min_over_queries(self):
        registry = QueryRegistry()
        registry.register(PhiQuery("loose", eps=0.2))
        registry.register(PhiQuery("tight", phis=(0.9,), eps=0.02))
        plan = registry.plan((1, 2, 3), None, 0.5)
        assert plan.min_eps == 0.02
        assert plan.sketch_eps == 0.01

    def test_empty_registry_falls_back_to_default_eps(self):
        registry = QueryRegistry()
        plan = registry.plan((1, 2), None, 0.5)
        assert plan.min_eps == 0.05
        # The driver's own phi is still tracked.
        assert plan.target(plan.primary_key).phi == 0.5

    def test_content_dedup_shares_targets_and_tightens_eps(self):
        registry = QueryRegistry()
        registry.register(PhiQuery("a", phis=(0.95,), eps=0.1))
        registry.register(PhiQuery("b", phis=(0.95,), eps=0.02))
        plan = registry.plan((1, 2, 3), None, 0.95)
        # Primary + both queries all collapse onto one global p95 target.
        phi_targets = [t for t in plan.targets if t.kind == "phi"]
        assert len(phi_targets) == 1
        assert phi_targets[0].eps == 0.02

    def test_group_by_cells_are_common_refinement(self):
        registry = QueryRegistry()
        registry.register(GroupByQuery("h", assign=halves))
        positions = np.array([[0.0, 0.0]] + [[x, 0.0] for x in (50, 150, 250)])
        plan = registry.plan((1, 2, 3), positions, 0.5)
        assert plan.cell_of == {1: "west", 2: "east", 3: "east"}
        labels = {
            item.label
            for qp in plan.query_plans
            for item in qp.items
        }
        assert labels == {"west:p50", "east:p50"}

    def test_range_query_plans_two_boundaries(self):
        registry = QueryRegistry()
        registry.register(RangeQuery("r", low=100, high=199))
        plan = registry.plan((1, 2), None, 0.5)
        boundaries = sorted(
            t.boundary for t in plan.targets if t.kind == "boundary"
        )
        assert boundaries == [100, 200]


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.integers(0, 1023), min_size=1, max_size=120),
    eps=st.sampled_from([0.02, 0.05, 0.1]),
)
def test_phi_grid_monotone_and_bounds_contain_oracle(values, eps):
    """Property: a decoded φ-grid is monotone and its bounds hold the oracle.

    For any value multiset and budget, the grid decoded from one q-digest
    (``QDigest.quantile`` per φ, as the gate anchors its φ targets) must be
    non-decreasing in φ, every grid point must be within ``eps * n`` ranks
    of the true quantile, and every per-φ value interval from
    :meth:`QDigest.value_bounds` must contain the oracle's exact quantile.
    """
    array = np.asarray(values)
    sketch = QDigest.from_values(tuple(values), eps, 0, 1023)
    phis = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    grid = [sketch.quantile(quantile_rank(sketch.n, phi)) for phi in phis]
    assert grid == sorted(grid)
    for phi, value in zip(phis, grid):
        k = quantile_rank(len(values), phi)
        assert rank_error(array, value, k) <= eps * len(values)
        lo, hi = sketch.value_bounds(k)
        oracle = exact_quantile(array, k)
        assert lo <= oracle <= hi


def dict_merged_counts(a, b):
    """The gate's counter merge as a dict and a sort (the old formula)."""
    merged: dict[int, list[int]] = {}
    for tid, w, x, y, z in a + b:
        entry = merged.setdefault(tid, [0, 0, 0, 0])
        entry[0] += w
        entry[1] += x
        entry[2] += y
        entry[3] += z
    return tuple((tid, *merged[tid]) for tid in sorted(merged))


def generator_bits(counts):
    """The gate payload's size with a generator count (the old formula)."""
    bits = 0
    for _, w, x, y, z in counts:
        nonzero = sum(1 for counter in (w, x, y, z) if counter)
        bits += TARGET_ID_BITS + 4 + nonzero * COUNTER_BITS
    return bits


#: Counter rows as ``_transition_contributions`` builds them and merges
#: keep them: each target at most once, ascending.
gate_rows = st.lists(
    st.tuples(st.integers(0, 20), *[st.integers(0, 4)] * 4),
    max_size=10,
    unique_by=lambda entry: entry[0],
).map(lambda entries: tuple(sorted(entries)))


class TestGridValidationPayload:
    """The slotted gate payload's merge-join and size against the dict,
    sort and generator formulas they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(gate_rows, gate_rows)
    def test_merge_join_matches_dict_and_sort(self, a, b):
        merged = GridValidationPayload(a).merged_with(_grid_validation(b))
        expected = GridValidationPayload(dict_merged_counts(a, b))
        assert merged == expected
        assert hash(merged) == hash(expected)
        assert repr(merged) == repr(expected)
        for payload in (merged, GridValidationPayload(a), GridValidationPayload(b)):
            assert payload.payload_bits() == generator_bits(payload.counts)

    @settings(max_examples=100, deadline=None)
    @given(gate_rows)
    def test_hot_constructor_equals_dataclass(self, counts):
        hot = _grid_validation(counts)
        built = GridValidationPayload(counts=counts)
        assert type(hot) is GridValidationPayload
        assert hot == built
        assert hash(hot) == hash(built)
        assert repr(hot) == repr(built)
        with pytest.raises(FrozenInstanceError):
            hot.counts = ()


class TestServingFaultFree:
    def dashboard(self):
        registry = QueryRegistry()
        registry.register(PhiQuery("grid", phis=(0.5, 0.95, 0.99)))
        registry.register(GroupByQuery("halves", assign=halves))
        registry.register(RangeQuery("mid", low=200, high=599))
        return registry

    def test_all_queries_served_within_budget(self):
        graph, tree, workload, spec = make_deployment()
        registry = self.dashboard()
        runner = MultiQueryRunner(registry, spec, tree, workload, graph=graph)
        rounds = runner.run(20)
        assert len(rounds) == 20
        population = tree.num_sensor_nodes
        for served in rounds:
            assert {a.query for a in served.answers} == {
                "grid", "halves", "mid"
            }
            for answer in served.answers:
                assert answer.trustworthy, answer.reason
                for item in answer.items:
                    assert item.value is not None
                    if answer.kind == "range":
                        assert item.oracle_error <= 0.05
                        assert item.lo <= item.value <= item.hi
                    else:
                        assert item.oracle_error <= 0.05 * population

    def test_group_by_answers_match_region_oracle(self):
        graph, tree, workload, spec = make_deployment(seed=5)
        registry = self.dashboard()
        runner = MultiQueryRunner(registry, spec, tree, workload, graph=graph)
        rounds = runner.run(10)
        regions = {
            vertex: halves(vertex, graph.positions[vertex])
            for vertex in tree.sensor_nodes
        }
        for served in rounds:
            values = workload.values(served.report.round_index)
            answer = next(a for a in served.answers if a.query == "halves")
            for region in ("west", "east"):
                members = [v for v, r in regions.items() if r == region]
                if not members:
                    continue
                item = answer.item(f"{region}:p50")
                (truth,) = oracle_grid(values, members, (0.5,))
                k = quantile_rank(len(members), 0.5)
                assert (
                    rank_error(values[members], int(item.value), k)
                    <= 0.05 * len(members)
                )
                assert truth >= 0

    def test_energy_share_is_amortized_across_queries(self):
        graph, tree, workload, spec = make_deployment()
        registry = self.dashboard()
        runner = MultiQueryRunner(registry, spec, tree, workload, graph=graph)
        runner.run(8)
        stats = runner.stats()
        assert len(stats) == 3
        total = sum(s.total_energy_mj for s in stats)
        shares = {round(s.total_energy_mj, 9) for s in stats}
        assert len(shares) == 1  # equal split of the shared convergecast
        assert total > 0.0

    def test_mid_run_registration_without_reinit(self):
        graph, tree, workload, spec = make_deployment()
        registry = QueryRegistry()
        registry.register(PhiQuery("grid", phis=(0.5,)))
        runner = MultiQueryRunner(registry, spec, tree, workload, graph=graph)
        runner.run(5)

        runner.register(PhiQuery("p99", phis=(0.99,), eps=0.04))
        served = runner.step(5)
        assert {a.query for a in served.answers} == {"grid", "p99"}
        p99 = next(a for a in served.answers if a.query == "p99")
        assert p99.trustworthy
        assert p99.items[0].value is not None
        # The tighter new budget re-plans the shared sketch...
        assert runner.driver.algorithm.plan.min_eps == 0.04
        # ...through one refresh, never a network re-initialization.
        assert runner.driver.reinits == 0

        runner.deregister("p99")
        served = runner.step(6)
        assert {a.query for a in served.answers} == {"grid"}
        assert runner.driver.reinits == 0

    def test_answers_flag_stale_plan_instead_of_guessing(self):
        graph, tree, workload, spec = make_deployment()
        registry = QueryRegistry()
        registry.register(PhiQuery("grid"))
        runner = MultiQueryRunner(registry, spec, tree, workload, graph=graph)
        runner.run(2)
        # Mutate the registry and fan out *without* stepping the gate.
        registry.register(PhiQuery("late", phis=(0.9,)))
        answers = registry.answers(
            runner.driver.algorithm, 2, round_trustworthy=True
        )
        assert all(not a.trustworthy for a in answers)
        assert all(a.reason == "stale" for a in answers)


def quadrant(vertex, position):
    """The quarter of the 200 m field a sensor stands in."""
    return ("S" if position[1] < 100.0 else "N") + (
        "W" if position[0] < 100.0 else "E"
    )


def test_one_merge_per_scope_per_refresh(monkeypatch):
    """Targets sharing a scope share one merged digest per refresh.

    A φ-grid, a 4-quadrant group-by and a range query plan 10 targets
    over 5 distinct cell sets: 6 global targets over all 4 quadrant cells
    (3 merges, once) and 4 single-cell quadrant targets (no merge).
    Merging per target instead would cost 6 * 3 = 18 merges.
    """
    graph, tree, workload, spec = make_deployment(num_nodes=60)
    registry = QueryRegistry()
    registry.register(PhiQuery("grid", phis=(0.5, 0.9, 0.95, 0.99)))
    registry.register(GroupByQuery("quadrants", assign=quadrant))
    registry.register(RangeQuery("band", low=spec.r_min + 100, high=spec.r_min + 300))
    runner = MultiQueryRunner(registry, spec, tree, workload, graph=graph)

    merged = QDigest.merged
    rebuild = MultiQuerySketch._rebuild
    merges: list[int] = []

    def counting_merged(digest, other):
        merges[-1] += 1
        return merged(digest, other)

    def counting_rebuild(self, *args):
        merges.append(0)
        with monkeypatch.context() as patch:
            patch.setattr(QDigest, "merged", counting_merged)
            rebuild(self, *args)

    monkeypatch.setattr(MultiQuerySketch, "_rebuild", counting_rebuild)
    runner.step(0)

    plan = runner.driver.algorithm.plan
    assert len(plan.targets) == 10
    assert len({target.cells for target in plan.targets}) == 5
    assert merges == [3]


def sparse(vertex, position):
    """Every ninth sensor in a small region that outages can empty."""
    return "sparse" if vertex % 9 == 0 else "dense"


#: Queries a registry sequence draws from: φ-grids, group-bys (one with a
#: region few sensors share) and ranges.
QUERY_POOL = (
    PhiQuery("grid", phis=(0.5, 0.9, 0.99)),
    PhiQuery("tails", phis=(0.05, 0.95), eps=0.04),
    GroupByQuery("quadrants", assign=quadrant),
    GroupByQuery("sparse", assign=sparse, phis=(0.5, 0.9)),
    RangeQuery("band", low=300, high=599),
    RangeQuery("low", low=0, high=199, eps=0.1),
)


@settings(max_examples=12, deadline=None)
@given(
    toggles=st.lists(st.integers(0, len(QUERY_POOL) - 1), min_size=1, max_size=6),
    seed=st.integers(0, 50),
)
def test_compiled_masks_and_codes_equal_the_plan(toggles, seed):
    """Under random register/deregister sequences (each toggle registers or
    deregisters one pooled query, then serves a round under outages), every
    gate target's scope mask is its ``PlanTarget.scope`` as a read-only
    vertex mask, shared by every target over that scope and kept for the
    whole plan version, and the cell codes name ``ServingPlan.cell_of``
    (the default cell off the plan)."""
    graph, tree, workload, spec = make_deployment(num_nodes=40, seed=seed)
    registry = QueryRegistry()
    runner = MultiQueryRunner(
        registry,
        spec,
        tree,
        workload,
        FaultPlan(outages=RandomOutages(0.15), seed=seed),
        graph=graph,
    )
    compiled = {}
    for round_index, toggle in enumerate(toggles):
        query = QUERY_POOL[toggle]
        if query.name in registry:
            runner.deregister(query.name)
        else:
            runner.register(query)
        runner.step(round_index)
        gate = runner.driver.algorithm
        plan = gate.plan
        if plan is None:
            continue
        masks = compiled.setdefault((id(gate), plan.version), gate.scope_masks)
        assert gate.scope_masks is masks
        assert len(masks) == len({target.scope for target in plan.targets})
        by_scope = {}
        for index, planned in enumerate(plan.targets):
            mask = masks[gate.scope_of_target[index]]
            assert np.flatnonzero(mask).tolist() == sorted(planned.scope)
            assert not mask.flags.writeable
            assert by_scope.setdefault(planned.scope, mask) is mask
            target = gate.gate_target(planned.key)
            if target is not None:
                assert target.scope_mask is mask
        assert list(gate.cell_names) == sorted(set(gate.cell_names))
        assert not gate.cell_codes.flags.writeable
        assert [gate.cell_names[code] for code in gate.cell_codes.tolist()] == [
            plan.cell_of.get(vertex, DEFAULT_CELL) for vertex in range(tree.num_vertices)
        ]


def test_phi_label():
    assert phi_label(0.5) == "p50"
    assert phi_label(0.99) == "p99"
    assert phi_label(0.999) == "p99.9"
