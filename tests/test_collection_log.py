"""The collection log: one compact record per convergecast.

A :class:`~repro.sim.engine.CollectionRecord` keeps the delivered
contributor ids as one read-only ``int64`` array.  These tests pin:

* the record's value semantics: built from a set, a list or an array it
  compares and hashes alike, ``delivered`` is the id set and ``coverage``
  the delivered fraction;
* that a record owns its ids: writing into the batch's id array after the
  convergecast leaves the logged record unchanged;
* that the array paths log the reference walk's records for every batch
  kind and the value-set mapping, on the reliable network and under loss,
  ARQ and outages, with full and with partial delivery;
* the log's memory: a few bytes per delivered id, not a hash-set entry
  plus an int object.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.tag import TAG
from repro.core.payloads import value_set
from repro.faults import ArqPolicy, FaultPlan
from repro.faults.plan import IndependentLoss, RandomOutages, ScheduledOutages
from repro.network.tree import RoutingTree
from repro.sim.engine import CollectionRecord
from repro.types import QuerySpec

from tests.batch_kinds import KINDS, CountBatch, make_batch
from tests.helpers import drive
from tests.test_columnar import assert_faulty_identical, faulty_pair
from tests.test_vectorized import assert_networks_identical, make_net, random_tree

#: Every contribution form: the batch kinds and the value-set mapping
#: (TAG's and the refinements' payload objects).
FORMS = KINDS + ("value-set",)


def contributions(form: str, rng: np.random.Generator, tree: RoutingTree):
    """One random convergecast's contributions of ``form``."""
    if form != "value-set":
        return make_batch(form, rng, tree)
    vertices = np.arange(tree.num_vertices)
    chosen = vertices[rng.random(len(vertices)) < 0.7].tolist()
    # Some sets are empty: the fold skips them and they are not expected.
    return {
        vertex: value_set(
            tuple(sorted(rng.integers(0, 50, int(rng.integers(0, 3))).tolist())),
            None,
            False,
        )
        for vertex in chosen
    }


def faulty_nets(tree, plan_factory):
    """A reference walk and the array path under the same fault plan,
    ARQ with two retries."""
    return faulty_pair(tree, plan_factory, lambda: ArqPolicy(max_retries=2))


@settings(max_examples=100, deadline=None)
@given(
    ids=st.sets(st.integers(min_value=0, max_value=5000), max_size=40),
    extra=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_record_forms_compare_and_hash_alike(ids, extra, seed):
    """A record built from a frozenset, a shuffled list with repeats or a
    shuffled int64 array is one record: equal, hashing alike, with the
    set as ``delivered``, the delivered fraction as ``coverage`` and a
    read-only int64 id array."""
    rng = np.random.default_rng(seed)
    expected = len(ids) + extra
    order = rng.permutation(sorted(ids)).astype(np.int64) if ids else np.empty(0, np.int64)
    repeated = order.tolist() + order[: len(order) // 2].tolist()
    records = [
        CollectionRecord(expected, frozenset(ids)),
        CollectionRecord(expected, repeated),
        CollectionRecord(expected=expected, delivered=order),
    ]
    for record in records:
        assert record == records[0]
        assert hash(record) == hash(records[0])
        assert record.delivered == frozenset(ids)
        assert record.coverage == (len(ids) / expected if expected else 1.0)
        assert record.delivered_ids.dtype == np.int64
        assert len(record.delivered_ids) == len(ids)
        assert not record.delivered_ids.flags.writeable
        if len(ids):
            with pytest.raises(ValueError):
                record.delivered_ids[0] = -1
    assert records[0] != CollectionRecord(expected + 1, ids)
    assert records[0] != CollectionRecord(expected, ids | {5001})
    assert len({*records}) == 1


def test_record_copies_the_array_it_is_given():
    ids = np.array([4, 1, 7], dtype=np.int64)
    record = CollectionRecord(5, ids)
    ids[:] = 0
    assert record.delivered == frozenset({1, 4, 7})
    assert record.coverage == 3 / 5


def test_silent_convergecast_logs_an_empty_record():
    tree = random_tree(10)
    net = make_net(False, tree)
    assert net.convergecast({}) is None
    record = net.collection_log[-1]
    assert record == CollectionRecord(expected=0, delivered=frozenset())
    assert record.coverage == 1.0 and record.delivered == frozenset()


@pytest.mark.parametrize("network", ["reliable", "faulty-full", "faulty-partial"])
def test_record_keeps_its_ids_when_the_batch_ids_change(network):
    """Writing into the id array a batch was built from, after its
    convergecast, leaves the logged record as it was: when every
    contribution arrived (the record holds all the batch's ids) and when
    an outage cut a subtree off (it holds the delivered ones)."""
    tree = random_tree(40, seed=3)
    forwarder = next(
        v for v in tree.sensor_nodes if len(tree.children[v]) and v != tree.root
    )
    if network == "reliable":
        net = make_net(False, tree)
    else:
        outages = {0: ((forwarder, 2),)} if network == "faulty-partial" else {}
        net = faulty_nets(tree, lambda: FaultPlan(outages=ScheduledOutages(outages)))[1]
        net.begin_faults_round(0)
    batch = CountBatch({v: 1 for v in tree.sensor_nodes})
    net.convergecast(batch)
    record = net.collection_log[-1]
    before = (record.expected, record.delivered, record.delivered_ids.copy())
    assert (record.coverage < 1.0) == (network == "faulty-partial")
    batch.ids += 1000
    assert (record.expected, record.delivered) == before[:2]
    assert np.array_equal(record.delivered_ids, before[2])
    assert record == CollectionRecord(before[0], before[1])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=2, max_value=45),
    form=st.sampled_from(FORMS),
    faulty=st.booleans(),
)
def test_records_equal_the_reference_walk(seed, size, form, faulty):
    """Every batch kind and the value-set mapping log the reference walk's
    records, on the reliable network and under loss 0.05, ARQ 2 and
    outages."""
    tree = random_tree(size, seed=seed)
    if faulty:
        nets = faulty_nets(
            tree,
            lambda: FaultPlan(
                loss=IndependentLoss(0.05),
                outages=RandomOutages(0.1, mean_downtime=2.0),
                rng=np.random.default_rng(seed + 1),
            ),
        )
    else:
        nets = [make_net(reference, tree) for reference in (True, False)]
    for r in range(4):
        rng = np.random.default_rng((seed, r))
        contributed = contributions(form, rng, tree)
        for net in nets:
            if faulty:
                net.begin_faults_round(r)
            net.convergecast(contributed)
    assert nets[0].collection_log == nets[1].collection_log
    if faulty:
        assert_faulty_identical(*nets)
    else:
        assert_networks_identical(*nets)
        assert all(record.coverage == 1.0 for record in nets[1].collection_log)


@pytest.mark.parametrize("form", FORMS)
def test_partial_delivery_records_equal_the_reference_walk(form):
    """A forwarder in an outage cuts its subtree off: every form logs the
    reference walk's partial record."""
    tree = random_tree(40, seed=11)
    forwarder = max(
        (v for v in tree.sensor_nodes if v != tree.root),
        key=lambda v: int(tree.size_array[v]),
    )
    nets = faulty_nets(
        tree,
        lambda: FaultPlan(
            loss=IndependentLoss(0.05),
            outages=ScheduledOutages({0: ((forwarder, 3),)}),
            rng=np.random.default_rng(2),
        ),
    )
    partial = 0
    for r in range(3):
        contributed = contributions(form, np.random.default_rng((7, r)), tree)
        for net in nets:
            net.begin_faults_round(r)
            net.convergecast(contributed)
        record = nets[1].collection_log[-1]
        partial += 0 < record.expected and record.coverage < 1.0
    assert nets[0].collection_log == nets[1].collection_log
    assert partial == 3
    assert_faulty_identical(*nets)


def test_log_keeps_a_few_bytes_per_delivered_id():
    """Thirty TAG rounds on a 300-node tree: the log holds each delivered
    id in about eight bytes (a set entry plus an int object cost tens)."""
    tree = random_tree(301, seed=8)
    rng = np.random.default_rng(8)
    rounds = [rng.integers(0, 1000, tree.num_vertices) for _ in range(30)]
    gc.collect()
    tracemalloc.start()
    try:
        _, net = drive(TAG(QuerySpec(r_min=0, r_max=1000)), tree, rounds)
        gc.collect()
        with_log = tracemalloc.get_traced_memory()[0]
        ids = sum(len(record.delivered_ids) for record in net.collection_log)
        net.collection_log.clear()
        gc.collect()
        without_log = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ids == 30 * tree.num_sensor_nodes
    assert (with_log - without_log) / ids < 12
