"""Sketch algorithms under message loss: partial merges stay *sound*.

The issue's acceptance behaviour: q-digest/KLL merges with missing subtrees
must yield valid (possibly widened) rank bounds, and the SK1/SKQ drivers
must clamp query ranks to what the sketch actually saw instead of raising.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sketchq import SketchQuantile
from repro.faults import ArqPolicy, FaultPlan, FaultyTreeNetwork, IndependentLoss
from repro.network.routing import build_routing_tree
from repro.network.topology import connected_random_graph
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger
from repro.sketch import KLLSketch, QDigest
from repro.types import QuerySpec


def make_lossy_net(tree, loss, seed=0, retries=0):
    ledger = EnergyLedger(tree.num_vertices, tree.root, EnergyModel(), 35.0)
    ledger.begin_round()
    plan = FaultPlan(
        loss=IndependentLoss(loss) if loss > 0 else None,
        rng=np.random.default_rng(seed),
    )
    return FaultyTreeNetwork(
        tree, ledger, plan=plan, arq=ArqPolicy(max_retries=retries)
    )


class TestPartialMergeBounds:
    """Merging only the surviving subtrees keeps every guarantee honest."""

    def survivors_digest(self, values, survivors, eps=0.1, r=(0, 100)):
        parts = [
            QDigest.from_values((int(values[i]),), eps, r[0], r[1])
            for i in survivors
        ]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merged(part)
        return merged

    def test_qdigest_partial_merge_counts_only_survivors(self):
        values = np.arange(1, 21)
        survivors = range(0, 20, 2)  # half the subtrees went missing
        merged = self.survivors_digest(values, survivors)
        assert merged.n == 10

    def test_qdigest_partial_bounds_remain_valid(self):
        values = np.arange(1, 21)
        survivors = list(range(0, 20, 2))
        merged = self.survivors_digest(values, survivors)
        delivered = values[survivors]
        for x in (1, 5, 11, 20):
            lo, hi = merged.rank_bounds(x)
            true_less = int((delivered < x).sum())
            assert lo <= true_less <= hi

    def test_qdigest_clamped_rank_answers(self):
        values = np.arange(1, 21)
        merged = self.survivors_digest(values, range(5))  # only 5 survive
        # Rank 10 of the full population exceeds what the sketch saw;
        # clamping to n answers from the delivered distribution.
        assert merged.quantile(min(10, merged.n)) <= 20

    def test_kll_partial_merge_counts_only_survivors(self):
        parts = [
            KLLSketch.from_values((v,), k=32, seed=v) for v in range(1, 11)
        ]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merged(part)
        assert merged.n == 10
        lo, hi = merged.rank_bounds(6)
        assert lo <= 5 <= hi


class TestSketchQuantileUnderLoss:
    @pytest.fixture
    def deployment(self):
        rng = np.random.default_rng(42)
        graph = connected_random_graph(41, radio_range=60.0, rng=rng)
        tree = build_routing_tree(graph, root=0)
        values = rng.integers(0, 1000, size=tree.num_vertices)
        return tree, values

    def spec(self):
        return QuerySpec(r_min=0, r_max=1023)

    def test_one_shot_survives_heavy_loss(self, deployment):
        tree, values = deployment
        algorithm = SketchQuantile(self.spec(), eps=0.1, gated=False)
        net = make_lossy_net(tree, loss=0.3, seed=1)
        outcome = algorithm.initialize(net, values)
        # Whole subtrees are missing, yet the answer comes from a valid
        # (clamped) rank in the delivered sub-population.
        assert 0 <= outcome.quantile <= 1023
        for round_index in range(5):
            outcome = algorithm.update(net, values)
            assert 0 <= outcome.quantile <= 1023

    def test_gated_bounds_widened_by_missing(self, deployment):
        tree, values = deployment
        algorithm = SketchQuantile(self.spec(), eps=0.1, gated=True)
        net = make_lossy_net(tree, loss=0.25, seed=3)
        algorithm.initialize(net, values)
        record = net.collection_log[-1]
        missing = record.expected - len(record.delivered)
        assert missing > 0  # the premise: loss actually ate subtrees
        # The widened bounds must still contain the full-population truth.
        sensor_values = values[list(tree.sensor_nodes)]
        f = algorithm._filter
        bounds = algorithm._bounds
        assert bounds.l_lo <= int((sensor_values < f).sum()) <= bounds.l_hi
        assert bounds.le_lo <= int((sensor_values <= f).sum()) <= bounds.le_hi

    def test_gated_updates_never_raise_under_loss(self, deployment):
        tree, values = deployment
        algorithm = SketchQuantile(self.spec(), eps=0.1, gated=True)
        net = make_lossy_net(tree, loss=0.2, seed=5)
        rng = np.random.default_rng(9)
        algorithm.initialize(net, values)
        for round_index in range(10):
            drifted = values + rng.integers(-20, 21, size=values.shape)
            outcome = algorithm.update(net, np.clip(drifted, 0, 1023))
            assert 0 <= outcome.quantile <= 1023

    def test_kll_backend_survives_loss(self, deployment):
        tree, values = deployment
        algorithm = SketchQuantile(self.spec(), eps=0.1, kind="kll", gated=False)
        net = make_lossy_net(tree, loss=0.3, seed=11)
        outcome = algorithm.initialize(net, values)
        assert 0 <= outcome.quantile <= 1023

    def test_arq_restores_sketch_coverage(self, deployment):
        tree, values = deployment
        spec = self.spec()
        bare = SketchQuantile(spec, eps=0.1, gated=False)
        net_bare = make_lossy_net(tree, loss=0.15, seed=2, retries=0)
        bare.initialize(net_bare, values)
        arq = SketchQuantile(spec, eps=0.1, gated=False)
        net_arq = make_lossy_net(tree, loss=0.15, seed=2, retries=3)
        arq.initialize(net_arq, values)
        assert (
            net_arq.collection_log[-1].coverage
            >= net_bare.collection_log[-1].coverage
        )
        assert net_arq.collection_log[-1].coverage == pytest.approx(1.0)
