"""Unit tests for the simulation runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.pos import POS
from repro.baselines.tag import TAG
from repro.core.base import ContinuousQuantileAlgorithm
from repro.errors import ConfigurationError, ProtocolError
from repro.sim.runner import SimulationRunner
from repro.types import QuerySpec, RoundOutcome


def static_provider(values: np.ndarray):
    return lambda _round: values


class BrokenAlgorithm(ContinuousQuantileAlgorithm):
    """Returns a wrong quantile to exercise the oracle check."""

    name = "BROKEN"

    def initialize(self, net, values) -> RoundOutcome:
        return RoundOutcome(quantile=-999)

    def update(self, net, values) -> RoundOutcome:  # pragma: no cover
        return RoundOutcome(quantile=-999)


class TestSimulationRunner:
    def test_runs_and_records_rounds(self, small_tree):
        values = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        runner = SimulationRunner(small_tree, radio_range=35.0)
        result = runner.run(TAG(QuerySpec(r_max=100)), static_provider(values), 5)
        assert result.num_rounds == 5
        assert result.all_exact
        assert result.quantile_series == [30] * 5
        assert result.algorithm == "TAG"

    def test_oracle_check_catches_wrong_answers(self, small_tree):
        values = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        runner = SimulationRunner(small_tree, radio_range=35.0, check=True)
        with pytest.raises(ProtocolError):
            runner.run(BrokenAlgorithm(QuerySpec()), static_provider(values), 1)

    def test_check_disabled_records_mismatch(self, small_tree):
        values = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        runner = SimulationRunner(small_tree, radio_range=35.0, check=False)
        result = runner.run(BrokenAlgorithm(QuerySpec()), static_provider(values), 1)
        assert not result.all_exact
        assert result.rounds[0].rank_error_value == abs(-999 - 30)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_measurement_refused(self, small_tree, bad):
        """A float measurement that is not finite stops the run at its
        round and vertex; an ``int64`` cast would have made it the
        smallest value."""
        values = np.array([0.0, 10.5, 20, 30, 40, 50, 60, 70])
        broken = values.copy()
        broken[5] = bad
        runner = SimulationRunner(small_tree, radio_range=35.0)

        def provider(round_index):
            return broken if round_index == 2 else values

        with pytest.raises(
            ConfigurationError, match=rf"round 2: vertex 5 measured {bad}, not a finite"
        ):
            runner.run(TAG(QuerySpec(r_max=100)), provider, 4)

    def test_per_round_counters_are_differences(self, small_tree):
        values = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        runner = SimulationRunner(small_tree, radio_range=35.0)
        result = runner.run(TAG(QuerySpec(r_max=100)), static_provider(values), 3)
        # TAG sends the same traffic every round (after dissemination).
        assert result.rounds[1].messages_sent == result.rounds[2].messages_sent
        assert result.rounds[1].values_sent == result.rounds[2].values_sent
        assert result.rounds[1].values_sent > 0

    def test_lifetime_and_energy_positive(self, small_tree):
        values = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        runner = SimulationRunner(small_tree, radio_range=35.0)
        result = runner.run(POS(QuerySpec(r_max=100)), static_provider(values), 4)
        assert result.max_mean_round_energy_j > 0
        assert 0 < result.lifetime_rounds < float("inf")
        assert result.totals is not None and result.totals.energy > 0

    def test_zero_rounds_rejected(self, small_tree):
        runner = SimulationRunner(small_tree, radio_range=35.0)
        with pytest.raises(ProtocolError):
            runner.run(TAG(QuerySpec()), static_provider(np.zeros(8)), 0)

    def test_refinement_totals_aggregate(self, small_tree, rng):
        rounds = {}
        for t in range(6):
            base = rng.integers(0, 1000, size=8)
            rounds[t] = base
        runner = SimulationRunner(small_tree, radio_range=35.0)
        result = runner.run(
            POS(QuerySpec(r_max=1000)), lambda t: rounds[t], 6
        )
        assert result.total_refinements == sum(
            r.outcome.refinements for r in result.rounds
        )


class TestFaultPlans:
    """The runner never advances a fault plan: only loss may ride along."""

    @staticmethod
    def faulty_factory(plan):
        from repro.faults import FaultyTreeNetwork

        return lambda tree, ledger: FaultyTreeNetwork(tree, ledger, plan=plan)

    def test_churn_and_outages_refused(self, random_deployment, rng):
        """Regression: a churn plan used to be dropped without a word.

        Thirty sensors scheduled to die in round 1 never died: the runner
        never called ``begin_faults_round``, every sensor delivered and
        the run reported ``all_exact``.
        """
        from repro.faults import FaultPlan, RandomOutages, ScheduledChurn

        _, tree = random_deployment
        assert tree.num_vertices == 61
        values = rng.integers(0, 1000, size=tree.num_vertices)
        plans = [
            FaultPlan(churn=ScheduledChurn({1: tuple(tree.sensor_nodes[:30])})),
            FaultPlan(outages=RandomOutages(0.2)),
        ]
        for plan in plans:
            runner = SimulationRunner(
                tree, 35.0, network_factory=self.faulty_factory(plan)
            )
            with pytest.raises(ConfigurationError, match="FaultDriver"):
                runner.run(TAG(QuerySpec(r_max=1000)), static_provider(values), 5)
            assert not plan.dead and not plan.down

    def test_loss_alone_still_runs(self, random_deployment, rng):
        from repro.faults import FaultPlan, IndependentLoss

        _, tree = random_deployment
        values = rng.integers(0, 1000, size=tree.num_vertices)
        plan = FaultPlan(loss=IndependentLoss(0.2), rng=np.random.default_rng(3))
        runner = SimulationRunner(
            tree, 35.0, check=False, network_factory=self.faulty_factory(plan)
        )
        result = runner.run(TAG(QuerySpec(r_max=1000)), static_provider(values), 5)
        assert result.num_rounds == 5
