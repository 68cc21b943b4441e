"""LinkQualityEstimator: EWMA convergence, ETX derivation, burst tracking.

The estimator is the shared per-link picture behind adaptive ARQ, ETX
repair and fault-aware rotation, so its numerics are pinned directly:
priors for unseen links, per-directed-link independence, convergence to a
Bernoulli rate, the De Couto ETX formula with clamping, and responsiveness
through Gilbert–Elliott style loss bursts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.faults.network import FaultyTreeNetwork
from repro.network.linkstats import MAX_LOSS_FOR_ETX, LinkQualityEstimator
from repro.network.tree import tree_from_parents
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger


class TestValidation:
    def test_smoothing_bounds(self):
        with pytest.raises(ConfigurationError):
            LinkQualityEstimator(smoothing=0.0)
        with pytest.raises(ConfigurationError):
            LinkQualityEstimator(smoothing=1.5)
        LinkQualityEstimator(smoothing=1.0)  # inclusive upper bound

    def test_prior_bounds(self):
        with pytest.raises(ConfigurationError):
            LinkQualityEstimator(prior_loss=-0.1)
        with pytest.raises(ConfigurationError):
            LinkQualityEstimator(prior_loss=1.0)
        LinkQualityEstimator(prior_loss=0.0)


class TestEwma:
    def test_unseen_links_report_the_prior(self):
        est = LinkQualityEstimator(prior_loss=0.07)
        assert est.loss(1, 2) == pytest.approx(0.07)
        assert not est.has_estimate(1, 2)
        assert not est.link_observed(1, 2)
        assert est.num_links == 0

    def test_single_update_arithmetic(self):
        est = LinkQualityEstimator(smoothing=0.5, prior_loss=0.1)
        est.observe(1, 2, delivered=False)
        # (1 - 0.5) * 0.1 + 0.5 * 1.0
        assert est.loss(1, 2) == pytest.approx(0.55)
        est.observe(1, 2, delivered=True)
        assert est.loss(1, 2) == pytest.approx(0.275)
        assert est.observations == 2

    def test_directions_are_independent(self):
        est = LinkQualityEstimator()
        for _ in range(30):
            est.observe(1, 2, delivered=False)
        assert est.loss(1, 2) > 0.9
        assert est.loss(2, 1) == pytest.approx(est.prior_loss)
        assert est.has_estimate(1, 2)
        assert not est.has_estimate(2, 1)
        # Either direction makes the undirected link count as observed.
        assert est.link_observed(2, 1)
        assert est.num_links == 1

    def test_converges_to_bernoulli_rate(self):
        rng = np.random.default_rng(13)
        est = LinkQualityEstimator(smoothing=0.05)
        rate = 0.3
        for _ in range(2000):
            est.observe(4, 0, delivered=bool(rng.random() >= rate))
        assert est.loss(4, 0) == pytest.approx(rate, abs=0.1)

    def test_adaptive_arq_budget_follows_scalar_feedback(self):
        """Pinned budgets: a loss burst ramps the retry count to the cap."""
        from repro.faults import AdaptiveArqPolicy

        policy = AdaptiveArqPolicy(
            max_retries=5, target_delivery=0.99, smoothing=0.5, prior_loss=0.05
        )
        for ok in [False, False, True, False, False, False]:
            policy.observe(3, 0, ok)
        # Loss after the burst: 0.05 -> .525 -> .7625 -> .38125 -> .690625
        # -> .8453125 -> .92265625; ceil(log(.01)/log(p)) = 57, clamped to
        # the max_retries+1 = 6 attempt budget.
        assert policy.estimator.loss(3, 0) == 0.92265625
        assert policy.attempts_for(3, 0) == 6
        # A quiet link decays back to a single attempt.
        for _ in range(8):
            policy.observe(3, 0, True)
        assert policy.attempts_for(3, 0) == 1


class TestObserveHops:
    """The replay of a batch of stop-and-wait hops is ``observe`` in hop order."""

    @staticmethod
    def stop_and_wait(rng, hops: int, arq: bool):
        """Random hops over distinct links, as the faulty walk records them."""
        senders = rng.permutation(np.arange(1, 40))[:hops].tolist()
        receivers = [s + 100 for s in senders]
        attempts, frame_ok, acks, final_ack = [], [], [], []
        for _ in range(hops):
            k = delivered = 0
            last_ack = False
            while True:
                k += 1
                ok = bool(rng.random() < 0.6)
                frame_ok.append(ok)
                if ok:
                    delivered += 1
                    if not arq:
                        break
                    last_ack = bool(rng.random() < 0.7)
                    if last_ack:
                        break
                elif not arq:
                    break
                if k == 3:
                    break
            attempts.append(k)
            acks.append(delivered)
            final_ack.append(last_ack)
        return senders, receivers, attempts, frame_ok, acks, final_ack

    @pytest.mark.parametrize("arq", [False, True])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_matches_scalar_observe_in_hop_order(self, seed, arq):
        rng = np.random.default_rng(seed)
        senders, receivers, attempts, frame_ok, acks, final_ack = (
            self.stop_and_wait(rng, 25, arq)
        )
        uplink = rng.random(25) < 0.8
        scalar = LinkQualityEstimator(smoothing=0.3, prior_loss=0.08)
        # Known links already in the table, in a scrambled order.
        for s in senders[::3]:
            scalar.observe(s, s + 100, True)
        batched = LinkQualityEstimator(smoothing=0.3, prior_loss=0.08)
        for s in senders[::3]:
            batched.observe(s, s + 100, True)

        i = 0
        for h, (s, r) in enumerate(zip(senders, receivers)):
            seen_acks = 0
            for ok in frame_ok[i : i + attempts[h]]:
                if uplink[h]:
                    scalar.observe(s, r, ok)
                if arq and ok:
                    seen_acks += 1
                    last = seen_acks == acks[h]
                    scalar.observe(r, s, final_ack[h] if last else False)
            i += attempts[h]
        batched.observe_hops(
            senders,
            receivers,
            np.array(attempts, dtype=np.int64),
            np.array(frame_ok, dtype=bool),
            uplink,
            final_ack if arq else None,
        )
        # Values, insertion order and the sample counter all identical.
        assert scalar.table() == batched.table()
        assert scalar.observations == batched.observations


class TestEtx:
    def test_formula_from_both_directions(self):
        est = LinkQualityEstimator(smoothing=1.0, prior_loss=0.0)
        # smoothing=1 pins the estimate to the last sample exactly; mix
        # computed EWMA values in via a second estimator below.
        est.observe(1, 2, delivered=True)
        est.observe(2, 1, delivered=True)
        assert est.etx(1, 2) == pytest.approx(1.0)

        mixed = LinkQualityEstimator(smoothing=0.5, prior_loss=0.1)
        mixed.observe(1, 2, delivered=False)  # p_up  = 0.55
        p_up, p_down = 0.55, 0.1  # downlink unseen: the prior
        assert mixed.etx(1, 2) == pytest.approx(
            1.0 / ((1.0 - p_up) * (1.0 - p_down))
        )
        # ETX is direction-sensitive: 2 -> 1 swaps the roles.
        assert mixed.etx(2, 1) == pytest.approx(
            1.0 / ((1.0 - p_down) * (1.0 - p_up))
        )

    def test_black_link_is_clamped_finite(self):
        est = LinkQualityEstimator(smoothing=1.0)
        est.observe(1, 2, delivered=False)  # loss estimate exactly 1.0
        assert est.loss(1, 2) == pytest.approx(1.0)
        expected = 1.0 / (
            (1.0 - MAX_LOSS_FOR_ETX) * (1.0 - est.prior_loss)
        )
        assert est.etx(1, 2) == pytest.approx(expected)
        assert np.isfinite(est.etx(1, 2))

    def test_unseen_link_scores_the_prior_constant(self):
        est = LinkQualityEstimator(prior_loss=0.05)
        assert est.etx(7, 8) == pytest.approx(1.0 / (0.95 * 0.95))


class TestBurstTracking:
    """The estimator must ramp inside a loss burst and decay after it."""

    def test_deterministic_burst_ramp_and_decay(self):
        est = LinkQualityEstimator(smoothing=0.25)
        for _ in range(30):  # long quiet stretch
            est.observe(3, 0, delivered=True)
        assert est.loss(3, 0) < 0.01
        for _ in range(10):  # a Gilbert–Elliott style black burst
            est.observe(3, 0, delivered=False)
        assert est.loss(3, 0) > 0.9  # ramped within the burst
        for _ in range(10):  # burst over
            est.observe(3, 0, delivered=True)
        assert est.loss(3, 0) < 0.1  # decayed back within a few rounds

    def test_tracks_gilbert_elliott_chain_states(self):
        """Sampling a two-state Markov chain, the estimate separates states.

        The mean estimate while the chain sits in the bad state must be
        well above the mean estimate in the good state — the property the
        adaptive retry budget and ETX repair both rely on.
        """
        rng = np.random.default_rng(42)
        est = LinkQualityEstimator(smoothing=0.25)
        p_enter, p_exit = 0.05, 0.2
        loss_good, loss_bad = 0.02, 0.95
        bad = False
        good_estimates, bad_estimates = [], []
        for _ in range(3000):
            bad = (rng.random() < p_enter) if not bad else (
                rng.random() >= p_exit
            )
            loss = loss_bad if bad else loss_good
            est.observe(5, 0, delivered=bool(rng.random() >= loss))
            (bad_estimates if bad else good_estimates).append(est.loss(5, 0))
        assert np.mean(bad_estimates) > 0.5
        assert np.mean(good_estimates) < 0.25
        assert np.mean(bad_estimates) > np.mean(good_estimates) + 0.3


# -- the array store against a scalar observe sequence ------------------------


@st.composite
def replays(draw):
    """A vertex set, then batches of stop-and-wait hops, each on a random
    tree over the same vertices (rooted at 0, re-parented between batches,
    so a link first seen as a downlink may later be an uplink)."""
    n = draw(st.integers(3, 14))
    arq = draw(st.booleans())
    budget = draw(st.integers(1, 3))
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        if batches and draw(st.booleans()):
            # The same tree again, every link of it known already.
            parent = batches[-1][0]
        else:
            order = [0] + draw(st.permutations(range(1, n)))
            parent = [-1] * n
            for i, vertex in enumerate(order[1:], start=1):
                parent[vertex] = order[draw(st.integers(0, i - 1))]
        senders = draw(st.lists(st.integers(1, n - 1), unique=True, min_size=1))
        if draw(st.booleans()):
            senders = list(range(1, n))
        hops = []
        for _ in senders:
            frames = draw(
                st.lists(st.booleans(), min_size=1, max_size=budget if arq else 1)
            )
            hops.append((frames, draw(st.booleans()), draw(st.booleans())))
        batches.append((parent, senders, hops))
    return n, arq, batches


def scalar_replay(est, parent, senders, hops, arq):
    """The batch's samples through ``observe``, hop by hop in hop order."""
    for sender, (frames, uplink, last_ack) in zip(senders, hops):
        receiver = parent[sender]
        acks = sum(frames)
        seen = 0
        for ok in frames:
            if uplink:
                est.observe(sender, receiver, ok)
            if arq and ok:
                seen += 1
                est.observe(receiver, sender, last_ack if seen == acks else False)


@settings(max_examples=150, deadline=None)
@given(replays())
def test_array_store_is_the_scalar_store(replay):
    """Batches replayed through a network's per-tree slot cache into the
    array store leave the same table (values and insertion order), the
    same sample count and the same scalar and batch reads on every
    ordered pair, unseen pairs included, as ``observe`` called sample by
    sample."""
    n, arq, batches = replay
    scalar = LinkQualityEstimator(smoothing=0.3, prior_loss=0.08)
    batched = LinkQualityEstimator(smoothing=0.3, prior_loss=0.08)
    ledger = EnergyLedger(n, 0, EnergyModel(), 35.0)
    net = None
    for parent, senders, hops in batches:
        tree = tree_from_parents(0, parent)
        if net is None:
            net = FaultyTreeNetwork(tree, ledger, link_stats=batched)
        else:
            net.retarget(tree)
        scalar_replay(scalar, parent, senders, hops, arq)
        net._observe_hops(
            np.array(senders, dtype=np.int64),
            np.array([len(frames) for frames, _, _ in hops], dtype=np.int64),
            np.array([ok for frames, _, _ in hops for ok in frames], dtype=bool),
            np.array([uplink for _, uplink, _ in hops], dtype=bool),
            np.array([last for _, _, last in hops], dtype=bool) if arq else None,
        )
        assert batched.table() == scalar.table()
        assert batched.observations == scalar.observations
        assert batched.num_links == scalar.num_links
        up, down = net._link_slots()
        vertices = np.arange(n)
        parents = np.array(parent)
        assert up.tolist() == batched.slots(vertices, parents).tolist()
        assert down.tolist() == batched.slots(parents, vertices).tolist()
    a, b = (pairs.ravel() for pairs in np.meshgrid(np.arange(n), np.arange(n)))
    etx, observed = batched.link_etx(a, b)
    for i, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        assert batched.loss(x, y) == scalar.loss(x, y)
        assert batched.etx(x, y) == scalar.etx(x, y) == etx[i]
        assert batched.has_estimate(x, y) == scalar.has_estimate(x, y)
        assert batched.link_observed(x, y) == scalar.link_observed(x, y) == observed[i]
