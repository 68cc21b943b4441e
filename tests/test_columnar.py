"""The columnar convergecast: which path runs, and that it equals the walk.

The paper's validation counters, histograms and bucket deltas travel as
column batches (:class:`~repro.sim.PayloadBatch`) and fold as integer
columns on both networks.  These tests pin:

* that each paper algorithm stays on that fold on the reliable network and
  under static and learning ARQ — merging one of the three payload classes
  or expanding a batch anywhere fails here instead of hiding under a perf
  gate — and that TAG's collections and the TAG-style initializations and
  direct requests fold their value sets as a count column;
* the value-set rule: the count column while no root branch holds more
  than ``keep`` contributors, payload objects from one more on;
* that every batch kind equals the per-hop reference walk over its
  expanded payloads, on random trees with virtual vertices, a root-keyed
  contribution, loss, static and learning ARQ, outages and dead forwarders;
* which form each q-digest collection of the gated sketch tracker and the
  serving gate takes: the digest batch while every cell has fewer than
  ``kappa`` contributors, payload objects from ``kappa`` on and for KLL;
* the fixes that came with it: a down root's own contribution is not
  delivered, a down host delivers nothing of its virtual children, and a
  fault plan overriding ``is_down`` is refused.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import GT, LT, request_values
from repro.core.payloads import (
    BucketDeltaBatch,
    BucketDeltaPayload,
    HistogramBatch,
    HistogramPayload,
    ValidationBatch,
    ValidationPayload,
    ValueSetBatch,
    ValueSetPayload,
)
from repro.core.sketchq import SketchQuantile
from repro.datasets.synthetic import SyntheticWorkload
from repro.errors import ConfigurationError
from repro.experiments.config import default_algorithms
from repro.faults import AdaptiveArqPolicy, ArqPolicy, FaultDriver, FaultPlan
from repro.faults.network import FaultyTreeNetwork
from repro.faults.plan import (
    IndependentLoss,
    RandomOutages,
    ScheduledChurn,
    ScheduledOutages,
)
from repro.network.routing import build_routing_tree
from repro.network.topology import connected_random_graph
from repro.network.tree import tree_from_parents, tree_multi_reparented
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger
from repro.serving import (
    GroupByQuery,
    MultiQueryRunner,
    PhiQuery,
    QueryRegistry,
    RangeQuery,
)
from repro.serving.algorithm import GridValidationPayload, MultiQuerySketch
from repro.sim.engine import TreeNetwork
from repro.sketch import DigestBatch, one_value_digests
from repro.types import QuerySpec

from tests import test_vectorized
from tests.batch_kinds import (
    KINDS,
    CountBatch,
    StringTagDigestBatch,
    digest_inputs,
    make_batch,
    value_set_folds,
)
from tests.helpers import drive
from tests.reference_engine import ReferenceFaultyTreeNetwork
from tests.reference_topology import subtree_vertices
from tests.test_fault_sampling import states_equal
from tests.test_vectorized import (
    RADIO_RANGE,
    SizedPayload,
    assert_networks_identical,
    make_net,
    random_tree,
)

COLUMNAR_PAYLOADS = (ValidationPayload, HistogramPayload, BucketDeltaPayload)
COLUMNAR_BATCHES = (ValidationBatch, HistogramBatch, BucketDeltaBatch)
PAPER_LINEUP = ("TAG", "POS", "LCLL-H", "LCLL-S", "HBC", "IQ")


#: The batch kinds each paper algorithm folds (more than 64 sensors, so
#: refinements take histograms and binary-search probes, not only direct
#: value requests).  No root branch of the deployment holds more than
#: ``k`` sensors, so TAG's collections and the TAG-style initializations
#: and direct requests fold their value sets (LCLL-H initializes with
#: histograms).
FOLDS = {
    "TAG": {"ValueSetBatch"},
    "POS": {"ValidationBatch", "ValueSetBatch"},
    "LCLL-H": {"HistogramBatch", "BucketDeltaBatch"},
    "LCLL-S": {"HistogramBatch", "BucketDeltaBatch", "ValueSetBatch"},
    "HBC": {"ValidationBatch", "HistogramBatch", "ValueSetBatch"},
    "IQ": {"ValidationBatch", "ValueSetBatch"},
}


class TestPaperAlgorithmsStayColumnar:
    """Dropping off the columnar fold fails here, not under a perf gate."""

    @pytest.fixture
    def paths(self, monkeypatch) -> dict[str, int]:
        """Refuse object merges of the columnar payloads and batch
        expansion; count value-set merges and folded batches by kind
        (value-set batches may expand: IQ's small refinements prune)."""

        def refuse(*args, **kwargs):
            raise AssertionError("a columnar payload left the columnar fold")

        for cls in COLUMNAR_PAYLOADS:
            monkeypatch.setattr(cls, "merged_with", refuse)
        counts: dict[str, int] = {}

        def counting(name, method):
            def counted(self, *args):
                counts[name] = counts.get(name, 0) + 1
                return method(self, *args)

            return counted

        for cls in COLUMNAR_BATCHES:
            monkeypatch.setattr(cls, "payloads", refuse)
            monkeypatch.setattr(cls, "columns", counting(cls.__name__, cls.columns))
        monkeypatch.setattr(
            ValueSetBatch, "columns", counting("ValueSetBatch", ValueSetBatch.columns)
        )
        monkeypatch.setattr(
            ValueSetPayload,
            "merged_with",
            counting("ValueSetPayload", ValueSetPayload.merged_with),
        )
        return counts

    @staticmethod
    def deployment(seed: int = 5, nodes: int = 150):
        rng = np.random.default_rng(seed)
        graph = connected_random_graph(nodes + 1, 40.0, rng, area_side=150.0)
        tree = build_routing_tree(graph, root=0)
        workload = SyntheticWorkload(graph.positions, rng, area_side=150.0)
        spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
        return graph, tree, workload, spec

    @staticmethod
    def assert_paths(name: str, paths: dict[str, int]) -> None:
        assert set(paths) - {"ValueSetPayload"} == FOLDS[name]
        if name == "TAG":
            assert "ValueSetPayload" not in paths

    @pytest.mark.parametrize("name", PAPER_LINEUP)
    def test_reliable_network(self, name, paths):
        _, tree, workload, spec = self.deployment()
        rounds = [workload.values(t) for t in range(8)]
        drive(default_algorithms()[name](spec), tree, rounds)
        self.assert_paths(name, paths)

    @pytest.mark.parametrize("arq", ["static", "adaptive"])
    @pytest.mark.parametrize("name", PAPER_LINEUP)
    def test_faulty_network(self, name, arq, paths):
        graph, tree, workload, spec = self.deployment()
        plan = FaultPlan(
            loss=IndependentLoss(0.1),
            outages=RandomOutages(0.03, mean_downtime=2.0),
            rng=np.random.default_rng(8),
        )
        policy = (
            AdaptiveArqPolicy(max_retries=3)
            if arq == "adaptive"
            else ArqPolicy(max_retries=2)
        )
        driver = FaultDriver(
            default_algorithms()[name],
            spec,
            tree,
            workload,
            plan,
            policy,
            graph=graph,
            repair=True,
            radio_range=40.0,
        )
        driver.run(8)
        self.assert_paths(name, paths)


#: Universe [0, 15] has L = 4 levels, so a digest at sketch eps 0.25 (the
#: gated trackers below, eps 0.5) has kappa = ceil(4 / 0.25) = 16.
KAPPA_SPEC = QuerySpec(r_min=0, r_max=15)
KAPPA = 16
#: What the fold sees of a collection that folds as columns, of one that
#: compresses (``one_value_digests`` expands its batch into payload
#: objects) and of KLL sketches.
BATCH = {"batch"}
OBJECTS = {"payloads()", "objects"}
KLL_OBJECTS = {"objects"}


def gated_sketch():
    return SketchQuantile(KAPPA_SPEC, eps=0.5)


def serving_gate(first_cell: int):
    """The serving gate over two cells: vertices ``1..first_cell`` and the
    rest."""
    registry = QueryRegistry()
    registry.register(
        GroupByQuery(
            "split",
            assign=lambda vertex, position: "a" if vertex <= first_cell else "b",
            eps=0.5,
        )
    )
    return MultiQuerySketch(KAPPA_SPEC, registry)


class TestSketchCollectionPaths:
    """q-digest collections fold as a batch exactly while no hop can
    compress, and equal the reference walk on both paths."""

    @pytest.fixture
    def forms(self, monkeypatch) -> list[str]:
        """The form each collection reaches the fold in (``batch`` or
        ``objects``), and ``payloads()`` for every batch expansion."""
        forms: list[str] = []
        fold = TreeNetwork._fold

        def spy(net, contributions, decide):
            if net.phase == "collection":
                batch = isinstance(contributions, DigestBatch)
                forms.append("batch" if batch else "objects")
            return fold(net, contributions, decide)

        expand = DigestBatch.payloads

        def expanded(batch):
            forms.append("payloads()")
            return expand(batch)

        monkeypatch.setattr(TreeNetwork, "_fold", spy)
        monkeypatch.setattr(DigestBatch, "payloads", expanded)
        return forms

    @staticmethod
    def run(factory, sensors: int, reference: bool = False):
        """Four rounds of random values over ``sensors`` sensors, so the
        gates refresh; returns the outcomes and the network."""
        tree = random_tree(sensors + 1, seed=sensors)
        net = make_net(reference, tree)
        rng = np.random.default_rng(sensors)
        algorithm = factory()
        outcomes = []
        for round_index in range(4):
            values = rng.integers(0, 16, tree.num_vertices)
            step = algorithm.update if round_index else algorithm.initialize
            outcomes.append(step(net, values))
        return outcomes, net

    def assert_path(self, forms, factory, sensors: int, expected: set[str]) -> None:
        outcomes, net = self.run(factory, sensors)
        assert forms and set(forms) == expected
        forms.clear()
        reference_outcomes, reference = self.run(factory, sensors, reference=True)
        assert outcomes == reference_outcomes
        assert_networks_identical(reference, net)

    @pytest.mark.parametrize(
        ("sensors", "expected"), [(KAPPA - 1, BATCH), (KAPPA, OBJECTS)], ids=["batch", "objects"]
    )
    def test_gated_sketch(self, forms, sensors, expected):
        self.assert_path(forms, gated_sketch, sensors, expected)

    @pytest.mark.parametrize(
        ("largest", "expected"), [(KAPPA - 1, BATCH), (KAPPA, OBJECTS)], ids=["batch", "objects"]
    )
    def test_serving_gate_largest_cell_decides(self, forms, largest, expected):
        """Cell ``a`` holds ``largest`` sensors, cell ``b`` five: the batch
        needs every cell below kappa, not the whole collection (20 or 21
        sensors), and one cell at kappa sends all of it to objects."""
        self.assert_path(forms, lambda: serving_gate(largest), largest + 5, expected)

    def test_kll_sketch_stays_on_objects(self, forms):
        self.assert_path(
            forms, lambda: SketchQuantile(KAPPA_SPEC, eps=0.5, kind="kll"), 6, KLL_OBJECTS
        )

    @pytest.mark.parametrize("sensors", [KAPPA - 1, KAPPA])
    @pytest.mark.parametrize("tags", [None, "a"])
    def test_out_of_universe_value_refused_on_both_paths(self, sensors, tags):
        values = np.arange(sensors) % 16
        values[sensors // 2] = 16
        with pytest.raises(ConfigurationError, match="value 16 outside universe"):
            one_value_digests(
                np.arange(1, sensors + 1),
                values,
                0.25,
                KAPPA_SPEC.r_min,
                KAPPA_SPEC.r_max,
                None if tags is None else np.zeros(sensors, dtype=np.int64),
                () if tags is None else (tags,),
            )


#: Three root branches of three sensors: 0 <- {1, 2, 3}, 1 <- {4, 5},
#: 2 <- {6, 7}, 3 <- {8, 9}.
THREE_BRANCHES = tree_from_parents(0, [-1, 0, 0, 0, 1, 1, 2, 2, 3, 3])
#: Negative values with ties: every cut has duplicates of its boundary.
TIED_VALUES = np.array([9, 5, -3, 5, 2, -3, 7, 5, 1, -3])


class TestValueSetRule:
    """A value-set request folds as a count column exactly while no root
    branch holds more than ``keep`` of its contributors, and equals the
    reference walk on both paths."""

    @staticmethod
    def request(tree, participants, keep, keep_largest=False, reroot=None):
        """``request_values`` on the array path and on the reference walk,
        after re-rooting both at ``reroot`` if given.  Returns the values
        received and whether the array path folded a batch."""
        answers = []
        nets = [make_net(reference, tree) for reference in (True, False)]
        folded = value_set_folds(nets[1])
        for net in nets:
            if reroot is not None:
                net.retarget(
                    tree_multi_reparented(tree, [(tree.root, reroot)], new_root=reroot),
                    allow_reroot=True,
                )
            answers.append(
                request_values(
                    net, TIED_VALUES, participants, keep=keep, keep_largest=keep_largest
                )
            )
        assert answers[0] == answers[1]
        assert_networks_identical(*nets)
        assert len(folded) == 1
        return answers[1], folded[0]

    @pytest.mark.parametrize("keep_largest", [False, True])
    def test_largest_branch_at_keep_takes_the_batch(self, keep_largest):
        received, folded = self.request(THREE_BRANCHES, range(1, 10), 3, keep_largest)
        assert folded
        # The root prunes nine values to three plus the boundary's ties.
        assert received == ((-3, -3, -3) if not keep_largest else (5, 5, 5, 7))

    @pytest.mark.parametrize("keep_largest", [False, True])
    def test_one_more_contributor_than_keep_takes_objects(self, keep_largest):
        received, folded = self.request(THREE_BRANCHES, range(1, 10), 2, keep_largest)
        assert not folded
        assert received == ((-3, -3, -3) if not keep_largest else (5, 5, 5, 7))

    def test_keep_none_takes_the_batch(self):
        received, folded = self.request(THREE_BRANCHES, range(1, 10), None)
        assert folded
        assert received == tuple(sorted(TIED_VALUES[1:].tolist()))

    def test_root_keyed_row_is_not_counted(self):
        """One branch holds ``keep`` sensors; the root's own row makes the
        rows one more than ``keep`` but rides no hop."""
        chain = tree_from_parents(0, [-1, 0, 1, 1])
        received, folded = self.request(chain, [0, 1, 2, 3], 3)
        assert folded
        assert received == (-3, 5, 5)

    def test_new_tree_branches_decide_after_failover(self):
        """Re-rooted at vertex 1, the old root's branch holds the six
        sensors of branches 2 and 3: keep 3 takes objects, keep 6 the batch."""
        sensors = range(2, 10)
        assert self.request(THREE_BRANCHES, sensors, 3)[1]
        assert not self.request(THREE_BRANCHES, sensors, 3, reroot=1)[1]
        received, folded = self.request(THREE_BRANCHES, sensors, 6, reroot=1)
        assert folded
        assert received == (-3, -3, -3, 1, 2, 5, 5)


def test_preorder_ranges_are_subtrees():
    tree = random_tree(40, seed=7)
    start = tree.preorder
    end = start + tree.size_array
    assert sorted(start.tolist()) == list(range(tree.num_vertices))
    for vertex in range(tree.num_vertices):
        inside = {
            v for v in range(tree.num_vertices) if start[vertex] <= start[v] < end[vertex]
        }
        assert inside == set(subtree_vertices(tree, vertex))


def faulty_pair(tree, plan_factory, arq_factory, virtual=frozenset()):
    nets = []
    for cls in (ReferenceFaultyTreeNetwork, FaultyTreeNetwork):
        ledger = EnergyLedger(
            num_vertices=tree.num_vertices,
            root=tree.root,
            model=EnergyModel(),
            radio_range=RADIO_RANGE,
        )
        nets.append(
            cls(
                tree,
                ledger,
                plan=plan_factory(),
                arq=arq_factory(),
                virtual_vertices=virtual,
            )
        )
    return nets


def assert_faulty_identical(reference, net) -> None:
    assert_networks_identical(reference, net)
    test_vectorized.TestFaultyEquivalence.assert_fault_counters_equal(reference, net)
    assert reference.link_stats.table() == net.link_stats.table()
    assert reference.link_stats.observations == net.link_stats.observations
    assert states_equal(
        reference.plan.rng.bit_generator.state, net.plan.rng.bit_generator.state
    )


def test_down_root_delivers_nothing():
    """A root in an outage receives nothing, its own contribution included."""
    tree = random_tree(30, seed=4)
    answers = []
    nets = faulty_pair(
        tree,
        lambda: FaultPlan(outages=ScheduledOutages({0: ((tree.root, 2),)})),
        ArqPolicy,
    )
    for net in nets:
        net.begin_faults_round(0)
        answers.append(
            net.convergecast(CountBatch({v: 1 for v in range(tree.num_vertices)}))
        )
    assert answers == [None, None]
    assert nets[1].collection_log[-1].delivered == frozenset()
    assert nets[1].collection_log[-1].expected == tree.num_vertices
    assert_faulty_identical(*nets)


def test_virtual_leaf_under_down_host_delivers_nothing():
    """Regression: a down host used to count as a sender for its virtual
    child's payload, so the object fold priced the hops off by one."""
    # 0 <- 6 <- 1 <- {2 (virtual), 5}, 0 <- 3 <- 4; vertex 1 dies, and its
    # parent 6 sends after it.
    tree = tree_from_parents(0, [-1, 6, 1, 0, 3, 1, 0])
    nets = faulty_pair(
        tree,
        lambda: FaultPlan(churn=ScheduledChurn({0: (1,)})),
        lambda: ArqPolicy(max_retries=1),
        virtual=frozenset({2}),
    )
    contributions = {
        v: SizedPayload(frozenset(range(10 * v, 10 * v + v))) for v in range(1, 7)
    }
    answers = []
    for net in nets:
        net.begin_faults_round(0)
        answers.append(net.convergecast(contributions))
    assert answers[0] == answers[1]
    assert nets[1].collection_log[-1].delivered == frozenset({3, 4, 6})
    assert_faulty_identical(*nets)


@pytest.mark.parametrize(
    "hook, seam",
    [("is_down", "_down_mask"), ("transmission_lost", "LinkLossModel")],
    ids=["is_down", "transmission_lost"],
)
def test_fault_plan_is_down_override_refused(hook, seam):
    with pytest.raises(TypeError, match=f"FaultPlan.{hook}, .*{seam}"):
        type("Overrider", (FaultPlan,), {hook: lambda self, *args: False})


NETWORKS = ("clean", "reliable", "lossy-static", "lossy-adaptive", "dead-forwarders")


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=2, max_value=45),
    kind=st.sampled_from(KINDS),
    network=st.sampled_from(NETWORKS),
)
def test_batch_fold_equals_reference_walk(seed, size, kind, network):
    """Every batch kind folds exactly like ``merged_with`` over its payloads,
    and so does the object fold over those payloads."""
    rng = np.random.default_rng(seed)
    parents = [-1] + [int(rng.integers(0, v)) for v in range(1, size)]
    rng.uniform(0.0, 30.0, size=(size, 2))  # unused: keeps the later draws
    tree = tree_from_parents(0, parents)
    leaves = [v for v in tree.sensor_nodes if tree.is_leaf(v)]
    virtual = frozenset(v for v in leaves if rng.random() < 0.3)
    internal = [v for v in tree.sensor_nodes if not tree.is_leaf(v)]
    dead = tuple(v for v in internal if rng.random() < 0.25)

    def plan():
        if network == "reliable":
            return FaultPlan()
        return FaultPlan(
            loss=IndependentLoss(0.3),
            churn=ScheduledChurn({0: dead}) if network == "dead-forwarders" else None,
            outages=RandomOutages(0.1, mean_downtime=2.0),
            rng=np.random.default_rng(seed + 1),
        )

    retries = int(rng.integers(0, 3))

    def arq():
        if network == "lossy-adaptive":
            return AdaptiveArqPolicy(max_retries=3)
        return ArqPolicy(max_retries=retries)

    if network == "clean":
        nets = [make_net(reference, tree, virtual=virtual) for reference in (True, False)]
    else:
        nets = faulty_pair(tree, plan, arq, virtual)
    null_pair = []
    if network == "reliable":
        # The reliable network and the faulty one under a null plan differ
        # only in their hop decider, so they must fold every payload form
        # identically; one network class relies on this.
        null_pair = [
            make_net(False, tree, virtual=virtual),
            FaultyTreeNetwork(
                tree,
                EnergyLedger(tree.num_vertices, tree.root, EnergyModel(), RADIO_RANGE),
                plan=FaultPlan(),
                arq=ArqPolicy(),
                virtual_vertices=virtual,
            ),
        ]
    # Root included: a root-keyed contribution merges without radio cost.
    answers = [[], []]
    for r in range(3):
        batch = make_batch(kind, np.random.default_rng((seed, r)), tree)
        for net, out in zip(nets, answers):
            if network != "clean":
                net.begin_faults_round(r)
            # The batch, then the payload objects it stands for.
            out.append(net.convergecast(batch))
            out.append(net.convergecast(batch.payloads()))
        if null_pair:
            for form in (batch, batch.payloads()):
                reliable, null_plan = (net.convergecast(form) for net in null_pair)
                assert reliable == null_plan
            for net in null_pair:
                net.broadcast(16 * r)
    assert answers[0] == answers[1]
    if network == "clean":
        assert_networks_identical(*nets)
    else:
        assert_faulty_identical(*nets)
    if null_pair:
        assert_networks_identical(*null_pair)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=2, max_value=45),
    lossy=st.booleans(),
)
def test_digest_batch_codes_equal_the_string_tag_build(seed, size, lossy):
    """A digest batch built from values and cell codes is the batch the
    former string-tag constructor built: tags, columns, hop sizes, root
    payloads and payload objects.  Its convergecast equals the old batch's
    and the reference walk over the old batch's payloads."""
    rng = np.random.default_rng(seed)
    tree = random_tree(size, seed=seed)
    vertices = np.arange(tree.num_vertices)
    ids = np.sort(vertices[rng.random(len(vertices)) < 0.7]).astype(np.int64)
    ids, values, eps, r_min, r_max, codes, names = digest_inputs(rng, ids)
    batch = DigestBatch(ids, values, eps, r_min, r_max, codes, names)
    tags = None if codes is None else [names[code] for code in codes.tolist()]
    old = StringTagDigestBatch(ids, values, eps, r_min, r_max, tags)
    assert batch.tags == old.tags
    assert batch.lossless == old.lossless
    assert np.array_equal(batch.columns(), old.columns())
    held = rng.random((6, len(ids))) < 0.5
    sums = held.astype(np.int64) @ batch.columns()
    for new_part, old_part in zip(batch.hop_sizes(sums), old.hop_sizes(sums)):
        assert np.array_equal(new_part, old_part)
    if len(ids):
        for reached in (None, held[0] | (np.arange(len(ids)) == 0)):
            assert batch.root_payload(sums[:1], reached) == old.root_payload(sums[:1], reached)
    assert batch.payloads() == old.payloads()

    def plan():
        if not lossy:
            return FaultPlan()
        return FaultPlan(
            loss=IndependentLoss(0.3),
            outages=RandomOutages(0.1, mean_downtime=2.0),
            rng=np.random.default_rng(seed + 1),
        )

    def arq():
        return ArqPolicy(max_retries=2)

    reference, net = faulty_pair(tree, plan, arq)
    old_net = faulty_pair(tree, plan, arq)[1]
    for r in range(2):
        for each in (reference, net, old_net):
            each.begin_faults_round(r)
        merged = net.convergecast(batch)
        assert merged == old_net.convergecast(old)
        assert merged == reference.convergecast(old.payloads())
    assert_faulty_identical(reference, net)
    assert_faulty_identical(old_net, net)


def loop_transition_contributions(gate, new_states):
    """The gate's validation messages as the per-target, per-vertex loop
    that the stacked state tables replaced built them."""
    per_vertex = {}
    for target in gate.targets.values():
        if target.state is None or target.index not in new_states:
            continue
        new_state = new_states[target.index]
        for vertex in np.flatnonzero(target.state != new_state):
            vertex = int(vertex)
            old = int(target.state[vertex])
            new = int(new_state[vertex])
            per_vertex.setdefault(vertex, []).append(
                (
                    target.index,
                    1 if new == LT else 0,
                    1 if old == LT else 0,
                    1 if new == GT else 0,
                    1 if old == GT else 0,
                )
            )
    return {
        vertex: GridValidationPayload(tuple(sorted(entries)))
        for vertex, entries in per_vertex.items()
    }


def test_transition_contributions_equal_the_loop_and_fold_in_any_order(monkeypatch):
    """Every validation round of a faulted dashboard run builds the old
    loop's keys and equal payloads; and a convergecast of the mapping on a
    lossy network (loss 0.05, ARQ 2) is the same whatever its key order:
    ascending, the loop's, or reversed."""
    rng = np.random.default_rng(4)
    graph = connected_random_graph(61, 60.0, rng)
    tree = build_routing_tree(graph, root=0)
    workload = SyntheticWorkload(graph.positions, rng)
    spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
    registry = QueryRegistry()
    registry.register(GroupByQuery("halves", assign=lambda v, p: "w" if p[0] < 100 else "e"))
    registry.register(PhiQuery("grid", phis=(0.1, 0.5, 0.9)))
    registry.register(RangeQuery("band", low=300, high=600))
    runner = MultiQueryRunner(
        registry,
        spec,
        tree,
        workload,
        FaultPlan(loss=IndependentLoss(0.05), outages=RandomOutages(0.03), seed=4),
        ArqPolicy(max_retries=2),
        graph=graph,
    )
    built = MultiQuerySketch._transition_contributions
    mappings = []

    def checked(gate, new_states):
        mapping = built(gate, new_states)
        expected = loop_transition_contributions(gate, new_states)
        assert list(mapping) == sorted(expected)
        assert mapping == expected
        for vertex, payload in expected.items():
            assert repr(mapping[vertex]) == repr(payload)
            assert hash(mapping[vertex]) == hash(payload)
        mappings.append((mapping, expected))
        return mapping

    monkeypatch.setattr(MultiQuerySketch, "_transition_contributions", checked)
    runner.run(16)
    assert sum(len(mapping) > 1 for mapping, _ in mappings) >= 5
    for call, (mapping, expected) in enumerate(mappings):
        orders = (mapping, expected, dict(reversed(list(mapping.items()))))
        nets = []
        for contributions in orders:
            net = FaultyTreeNetwork(
                tree,
                EnergyLedger(tree.num_vertices, tree.root, EnergyModel(), RADIO_RANGE),
                plan=FaultPlan(loss=IndependentLoss(0.05), seed=call),
                arq=ArqPolicy(max_retries=2),
            )
            net.begin_faults_round(0)
            nets.append((net, net.convergecast(contributions)))
        (first, merged), *others = nets
        for net, other in others:
            assert other == merged
            assert_faulty_identical(first, net)
