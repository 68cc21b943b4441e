"""Unit tests for the shared algorithm machinery (repro.core.base)."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.lcll import LCLLHierarchical, LCLLSlip
from repro.baselines.pos import POS
from repro.core.base import (
    EQ,
    GT,
    LT,
    ContinuousQuantileAlgorithm,
    FilterQuantile,
    RootCounters,
    build_validation,
    classify,
    classify_interval,
    hint_bounds,
    request_values,
    sensor_mask,
    tag_initialization,
)
from repro.core.hbc import HBC
from repro.core.iq import IQ
from repro.core.payloads import ValidationPayload, ValueSetPayload
from repro.core.sketchq import SketchQuantile
from repro.errors import MembershipError, ProtocolError
from repro.faults import ArqPolicy, FaultPlan, FaultyTreeNetwork, IndependentLoss
from repro.faults.plan import ScheduledOutages
from repro.network.routing import build_routing_tree
from repro.network.topology import connected_random_graph
from repro.network.tree import tree_from_parents, tree_multi_reparented
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger
from repro.sim.engine import TreeNetwork
from repro.sim.oracle import rank_of_value
from repro.types import QuerySpec

from tests.batch_kinds import largest_branch, value_set_folds


class TestClassify:
    def test_single_value_filter(self):
        assert classify(4, 5) == LT
        assert classify(5, 5) == EQ
        assert classify(6, 5) == GT

    def test_interval_filter(self):
        assert classify_interval(1, 3, 7) == LT
        assert classify_interval(3, 3, 7) == EQ
        assert classify_interval(7, 3, 7) == EQ
        assert classify_interval(8, 3, 7) == GT


class TestRootCounters:
    def test_position_of_rank(self):
        counters = RootCounters(l=4, e=2, g=4)
        assert counters.position_of_rank(4) == LT
        assert counters.position_of_rank(5) == EQ
        assert counters.position_of_rank(6) == EQ
        assert counters.position_of_rank(7) == GT

    def test_is_valid(self):
        counters = RootCounters(l=2, e=1, g=2)
        assert counters.is_valid(3)
        assert not counters.is_valid(2)
        assert not counters.is_valid(4)

    def test_apply_validation(self):
        counters = RootCounters(l=3, e=2, g=5)
        counters.apply_validation(
            ValidationPayload(into_lt=2, outof_lt=1, into_gt=0, outof_gt=3)
        )
        assert (counters.l, counters.e, counters.g) == (4, 4, 2)
        assert counters.total == 10

    def test_negative_counts_rejected(self):
        counters = RootCounters(l=0, e=1, g=1)
        with pytest.raises(ProtocolError):
            counters.apply_validation(ValidationPayload(outof_lt=1))

    def test_rank_out_of_range_rejected(self):
        with pytest.raises(ProtocolError):
            RootCounters(l=1, e=1, g=1).position_of_rank(4)


class TestBuildValidation:
    def test_only_changed_nodes_contribute(self, small_net):
        values = np.array([0, 10, 20, 30, 40, 50, 60, 70])
        old_state = np.array([0, -1, -1, 1, 1, 0, -1, 1], dtype=np.int8)
        new_state = np.array([0, -1, 1, 1, -1, 0, -1, 1], dtype=np.int8)
        batch = build_validation(
            small_net, values, old_state, new_state, hint_values=2
        )
        assert batch.ids.tolist() == [2, 4]
        contributions = batch.payloads()
        assert len(batch) == len(contributions) == 2
        # Vertex 2 moved lt -> gt.
        payload = contributions[2]
        assert payload.outof_lt == 1 and payload.into_gt == 1
        assert payload.into_lt == payload.outof_gt == 0
        assert payload.hint_min == payload.hint_max == 20
        assert payload.hint_values == 2 and payload.values == ()
        # Vertex 4 moved gt -> lt.
        payload = contributions[4]
        assert payload.outof_gt == 1 and payload.into_lt == 1
        assert payload.hint_min == payload.hint_max == 40
        # The batch folds to what merging its payloads gives.
        merged = payload.merged_with(contributions[2])
        assert batch.root_payload(batch.columns().sum(axis=0), None) == merged

    def test_counter_semantics_match_root_update(self, small_net, rng):
        """Applying merged validation reproduces the true (l, e, g)."""
        filter_value = 50
        old_values = rng.integers(0, 100, size=8)
        new_values = rng.integers(0, 100, size=8)
        old_state = np.sign(old_values - filter_value).astype(np.int8)
        new_state = np.sign(new_values - filter_value).astype(np.int8)
        old_state[0] = new_state[0] = 0  # root has no sensor

        sensors = list(small_net.tree.sensor_nodes)
        less, equal, greater = rank_of_value(old_values[sensors], filter_value)
        counters = RootCounters(l=less, e=equal, g=greater)

        contributions = build_validation(
            small_net, new_values, old_state, new_state, hint_values=2
        )
        merged = small_net.convergecast(contributions)
        if merged is not None:
            counters.apply_validation(merged)
        truth = rank_of_value(new_values[sensors], filter_value)
        assert (counters.l, counters.e, counters.g) == truth


class TestHintBounds:
    def spec(self) -> QuerySpec:
        return QuerySpec(r_min=0, r_max=1000)

    def test_no_payload_falls_back_to_universe(self):
        assert hint_bounds(None, 500, 500, self.spec(), symmetric=False) == (0, 1000)

    def test_no_hint_falls_back_to_universe(self):
        payload = ValidationPayload(into_lt=1, hint_values=0)
        assert hint_bounds(payload, 500, 500, self.spec(), symmetric=False) == (
            0,
            1000,
        )

    def test_two_sided(self):
        payload = ValidationPayload(hint_min=480, hint_max=530)
        assert hint_bounds(payload, 500, 500, self.spec(), symmetric=False) == (
            480,
            530,
        )

    def test_two_sided_never_shrinks_past_filter(self):
        payload = ValidationPayload(hint_min=510, hint_max=520)
        low, high = hint_bounds(payload, 500, 500, self.spec(), symmetric=False)
        assert low == 500 and high == 520

    def test_symmetric_uses_max_difference(self):
        payload = ValidationPayload(hint_min=470, hint_max=510)
        # max diff = 30 below the filter -> [470, 530].
        assert hint_bounds(payload, 500, 500, self.spec(), symmetric=True) == (
            470,
            530,
        )

    def test_symmetric_interval_filter(self):
        payload = ValidationPayload(hint_min=480, hint_max=560)
        # Filter interval [490, 520]: max diff = max(10, 40) = 40.
        assert hint_bounds(payload, 490, 520, self.spec(), symmetric=True) == (
            450,
            560,
        )

    def test_clamped_to_universe(self):
        payload = ValidationPayload(hint_min=-50, hint_max=2000)
        assert hint_bounds(payload, 500, 500, self.spec(), symmetric=False) == (
            0,
            1000,
        )


class TestTagInitialization:
    def test_quantile_and_counters(self, small_net):
        values = np.array([0, 10, 20, 30, 30, 50, 60, 70])
        k = 3
        quantile, counters, smallest = tag_initialization(small_net, values, k)
        assert quantile == 30
        # values < 30: 10, 20 -> l=2; equal: two 30s -> e=2; greater: 3.
        assert (counters.l, counters.e, counters.g) == (2, 2, 3)
        # The k smallest plus ties of the k-th.
        assert smallest == (10, 20, 30, 30)

    def test_counters_match_oracle(self, small_net, rng):
        values = rng.integers(0, 40, size=8)
        sensors = list(small_net.tree.sensor_nodes)
        for k in (1, 4, 7):
            net = _fresh_net(small_net.tree)
            quantile, counters, _ = tag_initialization(net, values, k)
            truth = rank_of_value(values[sensors], quantile)
            assert (counters.l, counters.e, counters.g) == truth

    def test_traffic_is_charged(self, small_net):
        values = np.arange(8) * 10
        tag_initialization(small_net, values, 4)
        # Every sensor node transmits during a TAG collection.
        for vertex in small_net.tree.sensor_nodes:
            assert small_net.ledger.messages_sent[vertex] >= 1


def _fresh_net(tree):
    from tests.conftest import make_network

    return make_network(tree)


class TestMembershipContract:
    """detach/rejoin misuse raises one symmetric, debuggable error family.

    Both directions of the contract violation — detaching twice, rejoining
    a vertex that never left — raise :class:`MembershipError` (a
    :class:`ProtocolError`), and both messages carry the vertex id and the
    current participating population, so a churn schedule can be debugged
    from the traceback alone.
    """

    VALUES = np.array([0, 10, 20, 30, 40, 50, 60, 70])

    def _initialized_pos(self, small_net):
        from repro.experiments.config import default_algorithms

        algorithm = default_algorithms()["POS"](QuerySpec(r_min=0, r_max=127))
        algorithm.initialize(small_net, self.VALUES)
        return algorithm

    def test_double_detach_raises_membership_error(self, small_net):
        algorithm = self._initialized_pos(small_net)
        algorithm.detach(small_net, 3)
        with pytest.raises(MembershipError) as excinfo:
            algorithm.detach(small_net, 3)
        message = str(excinfo.value)
        assert "vertex 3" in message
        assert "population 6 of 7" in message

    def test_rejoin_never_detached_raises_membership_error(self, small_net):
        algorithm = self._initialized_pos(small_net)
        with pytest.raises(MembershipError) as excinfo:
            algorithm.rejoin(small_net, self.VALUES, 4)
        message = str(excinfo.value)
        assert "vertex 4" in message
        assert "population 7 of 7" in message

    def test_membership_error_is_a_protocol_error(self):
        # Callers that caught ProtocolError before the split keep working.
        assert issubclass(MembershipError, ProtocolError)

    def test_population_may_legally_reach_zero(self, small_net):
        """The last-participant guard is gone: total churn detaches all."""
        algorithm = self._initialized_pos(small_net)
        for vertex in small_net.tree.sensor_nodes:
            algorithm.detach(small_net, vertex)
        assert algorithm.population(small_net) == 0

    def test_reset_participation_rejects_empty_population(self, small_net):
        algorithm = self._initialized_pos(small_net)
        everyone = set(small_net.tree.sensor_nodes)
        with pytest.raises(MembershipError) as excinfo:
            algorithm.reset_participation(small_net, everyone)
        assert "7 of 7 sensors detached" in str(excinfo.value)


class TestParticipationMaskCache:
    """The base class's cached participation mask follows membership.

    Random valid sequences of :meth:`detach`, :meth:`rejoin`,
    :meth:`reset_participation` (followed by the re-initialization the
    driver runs) and update rounds, on the 8-vertex tree.  After every step
    the mask equals a fresh :func:`sensor_mask` with the detached set
    cleared, and the filter family's counters equal the oracle's counts
    below, inside and above :meth:`filter_bounds` over the participating
    values.
    """

    PARENTS = [-1, 0, 0, 1, 1, 2, 4, 2]
    SPEC = QuerySpec(r_min=0, r_max=63)

    sensor_values = st.lists(st.integers(0, 40), min_size=7, max_size=7)
    steps = st.lists(
        st.tuples(
            st.sampled_from(["detach", "rejoin", "reset", "update"]),
            st.integers(0, 2**7 - 1),
            sensor_values,
        ),
        max_size=12,
    )

    @pytest.mark.parametrize(
        "factory",
        [
            POS,
            HBC,
            # Without the direct request HBC keeps tracking an interval.
            partial(HBC, direct_request_limit=0),
            IQ,
            LCLLHierarchical,
            LCLLSlip,
            SketchQuantile,
        ],
        ids=["POS", "HBC", "HBC-interval", "IQ", "LCLL-H", "LCLL-S", "SKQ"],
    )
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(first=sensor_values, steps=steps)
    def test_mask_and_counters_follow_membership(self, factory, first, steps):
        net = _fresh_net(tree_from_parents(0, self.PARENTS))
        sensors = list(net.tree.sensor_nodes)
        algorithm = factory(self.SPEC)
        current = np.array([0] + first, dtype=np.int64)
        algorithm.initialize(net, current)
        detached: set[int] = set()
        self._check(algorithm, net, current, detached)
        for kind, pick, fresh in steps:
            inside = [v for v in sensors if v not in detached]
            outside = sorted(detached)
            if kind == "detach":
                if not inside:
                    continue
                vertex = inside[pick % len(inside)]
                algorithm.detach(net, vertex)
                detached.add(vertex)
            elif kind == "rejoin":
                if not outside:
                    continue
                vertex = outside[pick % len(outside)]
                # The node may come back with a value it measured while away.
                current[vertex] = fresh[vertex - 1]
                algorithm.rejoin(net, current, vertex)
                detached.discard(vertex)
            elif kind == "reset":
                chosen = {v for v in sensors if pick >> (v - 1) & 1}
                if len(chosen) == len(sensors):
                    continue
                detached = chosen
                algorithm.reset_participation(net, detached)
                current = np.array([0] + fresh, dtype=np.int64)
                algorithm.initialize(net, current)
            else:
                if not inside:
                    continue
                current = np.array([0] + fresh, dtype=np.int64)
                algorithm.update(net, current)
            self._check(algorithm, net, current, detached)

    @staticmethod
    def _check(algorithm, net, values, detached):
        expected = sensor_mask(net)
        expected[sorted(detached)] = False
        assert np.array_equal(algorithm.participation_mask(net), expected)
        if not isinstance(algorithm, FilterQuantile):
            return
        low, high = algorithm.filter_bounds()
        participating = values[expected]
        counters = algorithm.counters
        assert (counters.l, counters.e, counters.g) == (
            int(np.count_nonzero(participating < low)),
            int(np.count_nonzero((participating >= low) & (participating <= high))),
            int(np.count_nonzero(participating > high)),
        )


def request_values_oracle(
    net, values, participants, low=None, high=None, keep=None, keep_largest=False
):
    """:func:`request_values` one participant at a time: ``int()`` per
    value and the dataclass constructor per contribution."""
    if low is not None:
        participants = [v for v in participants if low <= int(values[v]) <= high]
    merged = net.convergecast(
        {
            v: ValueSetPayload(
                values=(int(values[v]),), keep=keep, keep_largest=keep_largest
            )
            for v in participants
        }
    )
    return merged.values if merged is not None else ()


#: A 41-vertex deployment for the value-set request tests.
REQUEST_TREE = build_routing_tree(
    connected_random_graph(41, 45.0, np.random.default_rng(3)), root=0
)


def request_contributors(values, participants, low, high) -> list[int]:
    """The participants whose truncated value lies in ``[low, high]``."""
    return [v for v in participants if low is None or low <= int(values[v]) <= high]


@st.composite
def value_requests(draw):
    """``(values, participants, low, high, keep, keep_largest)`` on
    :data:`REQUEST_TREE`: int64 or float64 values with negatives, a random
    subset of sensors (possibly empty, in any order, some repeated) as a
    tuple, a list or an array, bounds drawn partly from the truncated
    values, and ``keep`` anywhere up to one past the participants or
    within two of the largest root branch the contributors fill, so the
    requests fold as a batch and merge as objects in every test run."""
    n = REQUEST_TREE.num_vertices
    if draw(st.booleans()):
        values = np.array(draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n)))
    else:
        floats = st.floats(-60.0, 60.0, allow_nan=False)
        values = np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=np.float64)
    chosen = draw(st.lists(st.sampled_from(REQUEST_TREE.sensor_nodes), unique=True))
    chosen += draw(st.lists(st.sampled_from(chosen), max_size=3)) if chosen else []
    form = draw(st.sampled_from([tuple, list, partial(np.array, dtype=np.int64)]))
    low = high = None
    if draw(st.booleans()):
        edge = st.sampled_from([int(x) for x in values]) | st.integers(-70, 70)
        low, high = sorted((draw(edge), draw(edge)))
    largest = largest_branch(REQUEST_TREE, request_contributors(values, chosen, low, high))
    keep = draw(
        st.integers(max(largest - 2, 1), largest + 2)
        | st.integers(1, len(chosen) + 1)
        | st.none()
    )
    return values, form(chosen), low, high, keep, draw(st.booleans())


class TestRequestValues:
    """The array-filtered :func:`request_values` against the per-participant
    oracle, on a reliable network, under loss 0.05 with ARQ 2, and with
    outages on top that take the root down in half the draws: equal received
    values, ledger arrays, phase bits and collection logs.  Each request
    folds a batch exactly when no root branch holds more than ``keep`` of
    the contributors left after the bounds."""

    @staticmethod
    def network(faults: str, seed: int) -> TreeNetwork:
        tree = REQUEST_TREE
        ledger = EnergyLedger(tree.num_vertices, tree.root, EnergyModel(), 35.0)
        ledger.begin_round()
        if faults == "reliable":
            net = TreeNetwork(tree, ledger)
        else:
            rng = np.random.default_rng(seed)
            down = rng.choice(tree.sensor_nodes, 3, replace=False).tolist()
            down += [tree.root] if rng.random() < 0.5 else []
            outages = ScheduledOutages({0: tuple((v, 2) for v in down)})
            plan = FaultPlan(
                loss=IndependentLoss(0.05),
                outages=outages if faults == "outages" else None,
                rng=rng,
            )
            net = FaultyTreeNetwork(tree, ledger, plan, ArqPolicy(max_retries=2))
            net.begin_faults_round(0)
        net.phase = "refinement"
        return net

    @pytest.mark.parametrize("faults", ["reliable", "loss-arq", "outages"])
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(request=value_requests(), seed=st.integers(0, 2**16))
    def test_matches_per_participant_oracle(self, faults, request, seed):
        net, oracle_net = self.network(faults, seed), self.network(faults, seed)
        folded = value_set_folds(net)
        values, participants, low, high, keep, _ = request
        contributors = request_contributors(values, participants, low, high)
        batch = keep is None or largest_branch(REQUEST_TREE, contributors) <= keep
        # Twice on the same networks: the second request draws on from
        # wherever the first left the loss stream.
        for _ in range(2):
            assert request_values(net, *request) == request_values_oracle(
                oracle_net, *request
            )
        assert folded == [batch, batch]
        for name, array in vars(net.ledger).items():
            if isinstance(array, np.ndarray):
                assert np.array_equal(array, getattr(oracle_net.ledger, name)), name
        assert net.phase_bits == oracle_net.phase_bits
        assert net.collection_log == oracle_net.collection_log

    @pytest.mark.parametrize("keep", [None, 1])
    def test_repeated_participant_sends_once(self, keep):
        """Like a ``{vertex: payload}`` mapping, a repeated participant
        contributes one value, on the batch path and on the objects path."""
        values = np.arange(REQUEST_TREE.num_vertices) - 20
        sensors = list(REQUEST_TREE.sensor_nodes)
        net, once = self.network("reliable", 0), self.network("reliable", 0)
        folded = value_set_folds(net)
        received = request_values(net, values, sensors + sensors[::2], keep=keep)
        assert received == request_values(once, values, sensors, keep=keep)
        assert folded == [keep is None]
        assert net.collection_log[-1].expected == len(sensors)
        assert np.array_equal(net.ledger.energy, once.ledger.energy)


class _Members(ContinuousQuantileAlgorithm):
    """The base class's membership bookkeeping and nothing else."""

    def initialize(self, net, values):
        raise NotImplementedError

    def update(self, net, values):
        raise NotImplementedError


class TestParticipatingSensors:
    """:meth:`participating_sensors` read off the cached mask equals the
    generator over the tree's sensors it replaced, across random detach,
    rejoin, root hand-over (with the re-root fail-over runs next) and
    reset sequences, whether or not the mask was cached in between."""

    steps = st.lists(
        st.tuples(
            st.sampled_from(["detach", "rejoin", "handover", "reset", "mask"]),
            st.integers(0, 2**20),
        ),
        max_size=25,
    )

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 20), steps=steps)
    def test_matches_generator(self, seed, steps):
        tree = build_routing_tree(
            connected_random_graph(21, 60.0, np.random.default_rng(seed)), root=0
        )
        net = _fresh_net(tree)
        algorithm = _Members(QuerySpec(r_min=0, r_max=63))
        retired: set[int] = set()
        for kind, pick in steps:
            detached = algorithm._detached_vertices
            sensors = net.tree.sensor_nodes
            inside = [v for v in sensors if v not in detached]
            back = sorted(detached - retired)
            if kind == "detach" and inside:
                algorithm.detach(net, inside[pick % len(inside)])
            elif kind == "rejoin" and back:
                algorithm.rejoin(net, np.zeros(tree.num_vertices), back[pick % len(back)])
            elif kind == "handover":
                root = net.tree.root
                children = [v for v in net.tree.children[root] if v not in detached]
                if not children:
                    continue
                successor = children[pick % len(children)]
                algorithm.handover(net, root, successor)
                net.retarget(
                    tree_multi_reparented(net.tree, [(root, successor)], new_root=successor),
                    allow_reroot=True,
                )
                retired.add(root)
            elif kind == "reset":
                chosen = {v for v in sensors if pick >> (v % 20) & 1} | retired
                if len(chosen - retired) < len(sensors) - len(retired):
                    algorithm.reset_participation(net, chosen)
            elif kind == "mask":
                algorithm.participation_mask(net)
            assert algorithm.participating_sensors(net) == tuple(
                v for v in net.tree.sensor_nodes if v not in algorithm._detached_vertices
            )
