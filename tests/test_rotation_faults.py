"""Fault-aware tree rotation: ETX-biased sampling, rotation × churn × loss.

The tentpole claim of the rotation/repair composition: rotating the
routing tree while faults, repair and the watchdog are all active never
corrupts a trustworthy answer.  The deterministic half pins the ETX bias
and the ``avoid`` semantics of :func:`build_randomized_routing_tree`; the
differential half drives every exact algorithm through rotation + outage +
loss schedules (scripted and hypothesis-fuzzed) against the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.config import default_algorithms
from repro.faults import (
    ArqPolicy,
    FaultDriver,
    FaultPlan,
    IndependentLoss,
    ScheduledOutages,
    run_fault_experiment,
)
from repro.network.linkstats import LinkQualityEstimator
from repro.network.routing import (
    build_randomized_routing_tree,
    build_routing_tree,
)
from repro.network.topology import build_physical_graph, connected_random_graph
from repro.sim.oracle import exact_quantile, quantile_rank
from repro.types import QuerySpec

from tests.helpers import (
    SequenceWorkload,
    assert_differential_invariant,
    random_rounds,
)

SPEC = QuerySpec(r_min=0, r_max=127)


def _deployment(num_vertices: int = 16, seed: int = 7):
    rng = np.random.default_rng(seed)
    graph = connected_random_graph(
        num_vertices, radio_range=45.0, rng=rng, area_side=100.0
    )
    tree = build_routing_tree(graph, root=0)
    return graph, tree


# -- ETX-biased and fault-avoiding tree sampling ------------------------------


@pytest.fixture
def diamond():
    """Vertex 3 can parent either 1 or 2 (both depth 1, both 8 m away)."""
    positions = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]])
    return build_physical_graph(positions, 10.0)


class TestEtxBiasedSampling:
    def test_sampling_shuns_the_lossy_link(self, diamond):
        stats = LinkQualityEstimator()
        for _ in range(30):  # link 3 <-> 1 is near-black
            stats.observe(3, 1, delivered=False)
            stats.observe(1, 3, delivered=False)
        rng = np.random.default_rng(0)
        picks = [
            build_randomized_routing_tree(
                diamond, rng, root=0, link_stats=stats
            ).parent[3]
            for _ in range(200)
        ]
        # Uniform sampling would split ~100/100; the ETX weights make the
        # clean parent overwhelmingly likely, the lossy one never excluded.
        assert picks.count(2) > 190

    def test_unobserved_links_sample_uniformly(self, diamond):
        rng = np.random.default_rng(0)
        stats = LinkQualityEstimator()  # nothing observed: priors everywhere
        picks = [
            build_randomized_routing_tree(
                diamond, rng, root=0, link_stats=stats
            ).parent[3]
            for _ in range(200)
        ]
        assert 60 < picks.count(1) < 140

    def test_avoid_excludes_down_parents_when_possible(self, diamond):
        rng = np.random.default_rng(1)
        for _ in range(20):
            tree = build_randomized_routing_tree(
                diamond, rng, root=0, avoid=frozenset({1})
            )
            assert tree.parent[3] == 2
        # With every candidate avoided the sampler falls back to the full
        # candidate set instead of failing — the repair layer deals with it.
        tree = build_randomized_routing_tree(
            diamond, rng, root=0, avoid=frozenset({1, 2})
        )
        assert tree.parent[3] in (1, 2)


# -- rotation under faults: the differential invariant ------------------------


class TestRotationUnderFaults:
    SCHEDULE = {2: [(3, 2), (7, 3)], 6: [(5, 2), (11, 1)]}

    @pytest.fixture(scope="class")
    def deployment(self):
        return _deployment()

    @pytest.fixture(scope="class")
    def rounds(self, deployment):
        graph, _ = deployment
        rng = np.random.default_rng(99)
        return random_rounds(rng, graph.num_vertices, 12, 10, 117, drift=0.5)

    def test_all_exact_algorithms_survive_rotation_and_churn(
        self, deployment, rounds
    ):
        graph, tree = deployment
        assert_differential_invariant(
            default_algorithms(),
            graph,
            tree,
            rounds,
            SPEC,
            plan_factory=lambda: FaultPlan(
                outages=ScheduledOutages(self.SCHEDULE)
            ),
            rotate_every=3,
            min_trustworthy=5,
        )

    def test_rotation_survives_loss_too(self, deployment, rounds):
        graph, tree = deployment
        assert_differential_invariant(
            default_algorithms(),
            graph,
            tree,
            rounds,
            SPEC,
            plan_factory=lambda: FaultPlan(
                loss=IndependentLoss(0.05),
                outages=ScheduledOutages(self.SCHEDULE),
                seed=20140324,
            ),
            retries=8,
            rotate_every=2,
            min_trustworthy=3,
        )

    def test_nearest_metric_survives_rotation_as_well(
        self, deployment, rounds
    ):
        graph, tree = deployment
        assert_differential_invariant(
            {"POS": default_algorithms()["POS"]},
            graph,
            tree,
            rounds,
            SPEC,
            plan_factory=lambda: FaultPlan(
                outages=ScheduledOutages(self.SCHEDULE)
            ),
            rotate_every=3,
            repair_metric="nearest",
            min_trustworthy=5,
        )

    def test_rotation_validation(self, deployment):
        graph, tree = deployment
        workload = SequenceWorkload(
            random_rounds(np.random.default_rng(1), graph.num_vertices, 2, 0, 99)
        )
        factory = default_algorithms()["POS"]
        with pytest.raises(ConfigurationError):
            FaultDriver(
                factory, SPEC, tree, workload, FaultPlan(),
                graph=graph, rotate_every=-1,
            )
        with pytest.raises(ConfigurationError):
            FaultDriver(
                factory, SPEC, tree, workload, FaultPlan(), rotate_every=2,
            )


FUZZ_GRAPH, FUZZ_TREE = _deployment(num_vertices=12, seed=11)
FUZZ_ROUNDS = random_rounds(
    np.random.default_rng(5), FUZZ_GRAPH.num_vertices, 8, 10, 117
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rotate_every=st.integers(min_value=1, max_value=4),
    schedule=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=6),  # outage start round
            st.integers(min_value=1, max_value=11),  # sensor vertex
            st.integers(min_value=1, max_value=3),  # downtime in rounds
        ),
        max_size=6,
    ),
)
def test_fuzzed_rotation_and_outage_schedules_stay_oracle_exact(
    rotate_every, schedule
):
    """Property: no rotation cadence × outage schedule corrupts an answer.

    Rotation may orphan a subtree mid-outage, repair may re-attach it onto
    a tree that rotates away next round — whatever the interleaving, every
    round the driver calls trustworthy must match the oracle over the
    participating sensors.
    """
    by_round: dict[int, list[tuple[int, int]]] = {}
    for start, vertex, duration in schedule:
        by_round.setdefault(start, []).append((vertex, duration))
    assert_differential_invariant(
        {"POS": default_algorithms()["POS"], "HBC": default_algorithms()["HBC"]},
        FUZZ_GRAPH,
        FUZZ_TREE,
        FUZZ_ROUNDS,
        SPEC,
        plan_factory=lambda: FaultPlan(outages=ScheduledOutages(by_round)),
        rotate_every=rotate_every,
        rotate_seed=3,
        min_trustworthy=1,
    )


# -- rotation through the fault driver ----------------------------------------


class TestDriverRotation:
    def test_rotates_and_stays_exact_under_faults(self):
        graph, _ = _deployment()
        rounds = random_rounds(
            np.random.default_rng(17), graph.num_vertices, 20, 10, 117
        )
        workload = SequenceWorkload(rounds)
        # One generator seeds the randomized start tree and every rotation.
        rng = np.random.default_rng(2)
        driver = FaultDriver(
            default_algorithms()["POS"],
            SPEC,
            build_randomized_routing_tree(graph, rng, root=0),
            workload,
            FaultPlan(
                loss=IndependentLoss(0.05),
                outages=ScheduledOutages({4: [(3, 2)]}),
                seed=7,
            ),
            ArqPolicy(max_retries=8),
            graph=graph,
            radio_range=graph.radio_range,
            rotate_every=5,
            rotate_rng=rng,
        )
        reports = driver.run(20)
        assert driver.rotations == 3  # rounds 5, 10 and 15
        trustworthy = [r for r in reports if r.trustworthy]
        assert len(trustworthy) >= 5
        for report in trustworthy:
            participants = list(report.participating)
            k = quantile_rank(len(participants), SPEC.phi)
            truth = exact_quantile(
                workload.values(report.round_index)[participants], k
            )
            assert report.answer == truth


class TestExperimentRotationAxis:
    def test_rotations_are_counted_per_cell(self):
        result = run_fault_experiment(
            {"POS": default_algorithms()["POS"]},
            loss_rates=(0.05,),
            retry_budgets=(2,),
            num_nodes=20,
            num_rounds=9,
            radio_range=60.0,
            rotate_every=3,
        )
        (point,) = result.points
        assert point.rotations == 2  # rounds 3 and 6
        assert point.exact_fraction > 0.5

    def test_no_rotation_by_default(self):
        result = run_fault_experiment(
            {"POS": default_algorithms()["POS"]},
            loss_rates=(0.0,),
            retry_budgets=(0,),
            num_nodes=15,
            num_rounds=4,
            radio_range=60.0,
        )
        (point,) = result.points
        assert point.rotations == 0
