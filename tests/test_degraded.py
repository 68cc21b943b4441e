"""Degraded rounds, multi-round partition healing, sole-survivor tracking.

Pins the PR 5 contract: total churn must never crash the driver.  When the
query has no participating sensor left, the round is served DEGRADED — the
algorithm is skipped, the root answers with the last trustworthy value,
the report carries ``degraded=True`` with a reason and
``trustworthy=False`` — and exact tracking resumes automatically once any
sensor is reachable again.  Orphans that cannot re-attach are *parked* for
``heal_patience`` rounds (duty-cycled, re-probing) instead of triggering
the same-round re-init cliff; partitions that heal in a later round cost
no re-initialization at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import default_algorithms
from repro.faults import (
    FaultPlan,
    ScheduledOutages,
    TreeRepair,
    run_fault_experiment,
)
from repro.network.tree import tree_from_parents
from repro.sim.oracle import exact_quantile, quantile_rank
from repro.types import QuerySpec

from tests.conftest import make_network
from tests.helpers import drive
from tests.test_repair import chain_rounds, deployment, make_driver

SPEC = QuerySpec(r_min=0, r_max=127)


# -- the ROADMAP reproducer ---------------------------------------------------


class TestRoadmapReproducer:
    """Regression: the exact sweep that used to raise ``ProtocolError:
    cannot detach the last participating sensor`` now runs to completion
    and reports its blackout rounds as degraded."""

    def test_seed_42_transient_churn_completes(self):
        result = run_fault_experiment(
            {"POS": default_algorithms()["POS"]},
            seed=42,
            loss_rates=(0.08,),
            retry_budgets=(2,),
            transient_rate=0.05,
            num_nodes=60,
            num_rounds=60,
        )
        (point,) = result.points
        assert point.rounds == 60  # no early stop, no escaped exception
        assert point.degraded_rounds >= 1
        assert point.survivors == 60  # transient churn kills nobody


# -- the degraded state machine, scripted -------------------------------------


class TestDegradedRounds:
    def test_total_outage_degrades_and_recovers(self):
        """The only sensor goes dark: the root keeps serving the last
        trustworthy answer, flags it, and re-initializes on recovery."""
        graph, tree = deployment([(0.0, 0.0), (8.0, 0.0)], [-1, 0])
        rounds = chain_rounds(2, 6)
        plan = FaultPlan(outages=ScheduledOutages({2: [(1, 2)]}))
        driver = make_driver(graph, tree, rounds, plan)
        reports = driver.run(6)

        assert len(reports) == 6  # transient blackout must not stop the run
        for index in (0, 1):
            assert reports[index].trustworthy
            assert reports[index].answer == rounds[index][1]
        stale = reports[1].answer
        for index in (2, 3):
            report = reports[index]
            assert report.degraded
            assert report.degraded_reason == "all-sensors-down"
            assert not report.trustworthy
            assert report.live == ()
            assert report.answer == stale  # last trustworthy answer, served
        assert driver.degraded_rounds == 2
        # Recovery: membership re-initializes without operator intervention.
        assert reports[4].reinitialized
        assert not reports[4].degraded
        for index in (4, 5):
            assert reports[index].trustworthy
            assert reports[index].answer == rounds[index][1]

    def test_unreachable_participants_reason(self):
        """Sensors can be up yet unreachable: parked behind a partition the
        whole query is gone — reason ``no-participants``, not all-down."""
        graph, tree = deployment(
            [(0.0, 0.0), (8.0, 0.0), (16.0, 0.0)], [-1, 0, 1]
        )
        rounds = chain_rounds(3, 7)
        plan = FaultPlan(outages=ScheduledOutages({2: [(1, 3)]}))
        driver = make_driver(graph, tree, rounds, plan, heal_patience=10)
        reports = driver.run(7)

        for index in (2, 3, 4):
            report = reports[index]
            assert report.degraded
            assert report.degraded_reason == "no-participants"
            assert report.live == (2,)  # vertex 2 is up, just cut off
            assert report.participating == ()
        # The parked orphan heals when its old parent recovers: both rejoin
        # and one re-init replants the query — no fallback ever fired.
        healed_round = reports[5]
        assert healed_round.repair.healed == (2,)
        assert set(healed_round.repair.rejoined) == {1, 2}
        assert healed_round.reinitialized
        assert driver.repair.stats.fallback_count == 0
        assert driver.repair.stats.healed_count == 1
        assert reports[6].trustworthy

    def test_sole_survivor_keeps_answering_exactly(self):
        """Population 1 is not degraded: the query tracks the survivor."""
        graph, tree = deployment(
            [(0.0, 0.0), (8.0, 0.0), (16.0, 0.0), (24.0, 0.0)],
            [-1, 0, 1, 2],
        )
        rounds = chain_rounds(4, 6)
        plan = FaultPlan(outages=ScheduledOutages({2: [(2, 2)]}))
        driver = make_driver(graph, tree, rounds, plan)
        reports = driver.run(6)

        # Rounds 2-3: vertices 2 (down) and 3 (unreachable) are out; the
        # query keeps running on the sole survivor, whose value IS the
        # quantile at every phi.
        for index in (2, 3):
            report = reports[index]
            assert not report.degraded
            assert report.participating == (1,)
            assert report.answer == rounds[index][1]
        assert driver.degraded_rounds == 0


# -- multi-round partition healing --------------------------------------------


class TestPartitionHealing:
    def scenario(self, heal_patience, downtime=2):
        """Chain 0-1-2-3: vertex 2 down for ``downtime`` rounds strands 3
        with no candidate parent (its only other neighbour is down 2)."""
        graph, tree = deployment(
            [(0.0, 0.0), (8.0, 0.0), (16.0, 0.0), (24.0, 0.0)],
            [-1, 0, 1, 2],
        )
        rounds = chain_rounds(4, downtime + 4)
        plan = FaultPlan(outages=ScheduledOutages({2: [(2, downtime)]}))
        driver = make_driver(
            graph, tree, rounds, plan, heal_patience=heal_patience
        )
        return driver, driver.run(downtime + 4), rounds

    def test_parked_orphan_heals_without_reinit(self):
        driver, reports, rounds = self.scenario(heal_patience=3)

        # Rounds 2-3: orphan 3 is parked (streak 1, then 2) — no fallback,
        # no re-init, the query keeps tracking the survivor exactly.
        for index in (2, 3):
            assert reports[index].repair.parked == (3,)
            assert reports[index].repair.fallback == ()
            assert reports[index].participating == (1,)
            assert reports[index].answer == rounds[index][1]
        # Round 4: vertex 2 recovers, the partition heals, everyone rejoins.
        assert reports[4].repair.healed == (3,)
        assert set(reports[4].repair.rejoined) == {2, 3}
        assert driver.reinits == 0  # the whole episode cost no re-init
        stats = driver.repair.stats
        assert stats.fallback_count == 0
        assert stats.healed_count == 1
        assert stats.parked_rounds == 2
        assert reports[5].trustworthy

    def test_patience_expiry_still_falls_back(self):
        driver, reports, _ = self.scenario(heal_patience=2, downtime=4)

        # Streak 1 at round 2: parked.  Streak 2 at round 3: patience
        # expires, the fallback fires exactly once.
        assert reports[2].repair.parked == (3,)
        assert reports[2].repair.fallback == ()
        assert reports[3].repair.fallback == (3,)
        assert reports[3].reinitialized
        assert reports[4].repair.fallback == ()  # never re-fires
        assert driver.repair.stats.fallback_count == 1

    def test_parked_subtree_duty_cycle_is_charged(self):
        """Parking is not free: the cut subtree keeps a duty-cycled listen
        window open (one ACK-sized receive per up member per round).

        Both patience settings probe identically while vertex 3 is cut, so
        the *only* difference at the parked vertex itself is the listen
        charge — it must show up in the ledger, and in the repair phase.
        """
        def orphan_energy(heal_patience):
            driver, _, _ = self.scenario(heal_patience=heal_patience)
            return float(driver.ledger.energy[3]), driver.repair.stats

        legacy, legacy_stats = orphan_energy(1)
        parked, parked_stats = orphan_energy(3)
        assert parked > legacy
        assert parked_stats.repair_energy_j > legacy_stats.repair_energy_j
        assert parked_stats.parked_rounds == 2
        assert legacy_stats.parked_rounds == 0

    def test_watchdog_never_triggers_on_parked_subtree(self):
        driver, reports, _ = self.scenario(heal_patience=3)
        # The repair layer narrows the watchdog onto reachable members, so
        # the parked branch's silence is expected, not suspicious.
        assert driver.watchdog.triggered == 0
        assert driver.cancelled_reinits == 0

    def test_heal_patience_validation(self):
        graph, tree = deployment([(0.0, 0.0), (8.0, 0.0)], [-1, 0])
        net = make_network(tree)
        with pytest.raises(ConfigurationError):
            TreeRepair(graph, net, heal_patience=0)


# -- single-participant coverage for every exact algorithm --------------------


class TestSingleParticipant:
    """Every exact algorithm answers correctly with population == 1."""

    @pytest.mark.parametrize("name", sorted(default_algorithms()))
    def test_population_of_one_tracks_the_survivor(self, name):
        tree = tree_from_parents(0, [-1, 0])
        factory = default_algorithms()[name]
        algorithm = factory(SPEC)
        rng = np.random.default_rng(7)
        rounds = [
            np.array([0, v]) for v in rng.integers(5, 120, size=8)
        ]
        outcomes, _ = drive(algorithm, tree, rounds, check=False)
        for index, outcome in enumerate(outcomes):
            assert outcome.quantile == rounds[index][1], (
                f"{name} round {index}: population 1 must answer the "
                f"survivor's value"
            )

    @pytest.mark.parametrize("name", sorted(default_algorithms()))
    def test_churn_down_to_one_participant(self, name, small_net):
        """Detach all sensors but one: rank 1 of the survivor is exact."""
        values = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        algorithm = default_algorithms()[name](SPEC)
        algorithm.initialize(small_net, values)
        survivor = 5
        for vertex in small_net.tree.sensor_nodes:
            if vertex != survivor:
                algorithm.detach(small_net, vertex)
        assert algorithm.population(small_net) == 1
        k = quantile_rank(1, SPEC.phi)
        assert exact_quantile(values[[survivor]], k) == values[survivor]
        outcome = algorithm.update(small_net, values)
        assert outcome.quantile == values[survivor]
