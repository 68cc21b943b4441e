"""Pinned simulated results: one SHA-256 per seeded scenario.

The equivalence suite pins the array walk to the per-hop reference, but
not an algorithm's own traffic from one change to the next.  This module
runs a fixed set of seeded scenarios and hashes everything they simulate:

* every ledger array (energy, message, bit and value counters) and the
  archived per-round energies;
* ``phase_bits`` and the answer series;
* the fault counters and the link-quality table;
* for ``FaultDriver`` runs, each round's trustworthy flag and degraded
  reason.

Scenarios: the six paper algorithms through ``SimulationRunner`` on a
reliable network; the same six through ``FaultDriver`` under loss 0.05,
ARQ 2, outages and a sink kill; two ``MultiQueryRunner`` runs (``serving``
and ``serving/dashboard``, which also hashes every history read, the
read-cache counters and the per-query stats); and the stdout of the
``repro queries`` and ``repro history`` commands (``cli/...``).  Option
variants (POS and IQ without hints, HBC without interval tracking or with
recomputed buckets, direct requests off), the adaptive switcher and the
gated sketch tracker add ``clean/`` and ``faults/`` cells of their own, and
``snapshot/bary`` runs the b-ary snapshot search every round.  Two cells
pin what the tree builders feed: ``faults/HBC-rotate3`` rotates the tree
every 3 rounds with ETX-weighted parent sampling
(``build_randomized_routing_tree`` and its generator draws), and
``clean/IQ-pressure`` runs IQ on an air-pressure deployment, whose SOM
positions sit on a jittered lattice that does not start at the origin.  The sketch
collections of all these stay below the q-digest's ``kappa`` and fold as
column batches; ``clean/SKQ-eps0.1``, ``faults/SKQ-eps0.1`` and
``serving/eps0.1`` run at sketch eps 0.05 (``kappa`` = 200 < 250 sensors),
so their top hops compress and merge digests as objects.  The digests
live in ``tests/pinned_results.json`` and ``tests/test_pinned_results.py``
compares against them.

A change that alters any simulated quantity on purpose regenerates them::

    PYTHONPATH=src python -m tests.pinned_results --write

and gives the reason in ``CHANGES.md``.  Integers are hashed exactly and
floats at 12 significant digits, so the digests do not depend on how a
numpy or Python version rounds the last bits of a float reduction.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
from dataclasses import astuple
from functools import partial
from pathlib import Path

import numpy as np

from repro import (
    HBC,
    IQ,
    POS,
    TAG,
    EnergyLedger,
    EnergyModel,
    LCLLHierarchical,
    LCLLSlip,
    QuerySpec,
    SimulationRunner,
    SketchQuantile,
    SyntheticWorkload,
    TreeNetwork,
    build_routing_tree,
    connected_random_graph,
    quantile_rank,
)
from repro.extensions.adaptive import AdaptiveQuantile
from repro.faults import (
    ArqPolicy,
    FaultDriver,
    FaultPlan,
    IndependentLoss,
    RandomOutages,
    ScheduledChurn,
)
from repro.cli import main as cli_main
from repro.datasets.pressure import PressureWorkload, suggested_radio_range
from repro.errors import ConfigurationError
from repro.experiments.runner import _pressure_graph
from repro.serving import (
    GroupByQuery,
    MultiQueryRunner,
    PhiQuery,
    QueryRegistry,
    RangeQuery,
)
from repro.snapshot.bary import bary_snapshot

PINNED = Path(__file__).with_name("pinned_results.json")

NODES = 250
ROUNDS = 12
RADIO_RANGE = 35.0
AREA_SIDE = 140.0
LINEUP = (
    ("TAG", TAG),
    ("POS", POS),
    ("LCLL-H", LCLLHierarchical),
    ("LCLL-S", LCLLSlip),
    ("HBC", HBC),
    ("IQ", IQ),
)
#: Option variants and extensions on the reliable network.
CLEAN_VARIANTS = (
    ("POS-nohints", partial(POS, use_hints=False)),
    ("POS-nohints-nodirect", partial(POS, use_hints=False, direct_request_limit=0)),
    ("HBC-notracking", partial(HBC, interval_tracking=False)),
    (
        "HBC-recompute-nodirect",
        partial(HBC, recompute_buckets=True, direct_request_limit=0),
    ),
    ("IQ-nohints", partial(IQ, use_hints=False)),
    (
        "ADAPT",
        partial(
            AdaptiveQuantile, candidates=[IQ, HBC, POS], probe_every=4, probe_rounds=2
        ),
    ),
    ("SKQ", partial(SketchQuantile, eps=0.05)),
    ("SKQ-eps0.1", partial(SketchQuantile, eps=0.1)),
)
#: Variants under the fault plan; their cells follow the lineup's and the
#: serving run's.
FAULT_VARIANTS = (
    ("POS-nohints", partial(POS, use_hints=False)),
    ("HBC-notracking", partial(HBC, interval_tracking=False)),
    ("SKQ", partial(SketchQuantile, eps=0.05)),
)


#: Significant digits a float is hashed at.
DIGITS = 12


def rounded(part):
    """``part`` with every float (also inside lists and tuples) written at
    :data:`DIGITS` significant digits."""
    if isinstance(part, float):
        return f"{part:.{DIGITS - 1}e}"
    if isinstance(part, (list, tuple)):
        return [rounded(item) for item in part]
    return part


class Digest:
    """SHA-256 over integer arrays (raw bytes) and other values (``repr``
    of :func:`rounded`)."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def feed(self, *parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                self._sha.update(f"{part.dtype}{part.shape}".encode())
                if part.dtype.kind != "f":
                    self._sha.update(np.ascontiguousarray(part).tobytes())
                    continue
                part = part.ravel().tolist()
            self._sha.update(repr(rounded(part)).encode())

    def ledger(self, ledger, phase_bits) -> None:
        self.feed(
            ledger.energy,
            ledger.messages_sent,
            ledger.messages_received,
            ledger.bits_sent,
            ledger.bits_received,
            ledger.values_sent,
            np.array(ledger.round_energy_history),
            sorted(phase_bits.items()),
        )

    def faults(self, net) -> None:
        self.feed(
            net.lost_transmissions,
            net.retransmissions,
            net.acks_sent,
            net.lost_acks,
            net.link_stats.table(),
            net.link_stats.observations,
        )

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def deployment(seed: int = 2014):
    rng = np.random.default_rng(seed)
    graph = connected_random_graph(NODES + 1, RADIO_RANGE, rng, area_side=AREA_SIDE)
    tree = build_routing_tree(graph, root=0)
    workload = SyntheticWorkload(graph.positions, rng, area_side=AREA_SIDE)
    spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
    return graph, tree, workload, spec


def fault_plan(tree, cell: int) -> FaultPlan:
    """Loss 0.05, transient outages and the sink killed mid-run."""
    return FaultPlan(
        loss=IndependentLoss(0.05),
        churn=ScheduledChurn({ROUNDS // 2: (tree.root,)}),
        outages=RandomOutages(0.01, mean_downtime=3),
        rng=np.random.default_rng((2014, cell)),
    )


def pressure_deployment(seed: int = 2014):
    """An air-pressure deployment: SOM-placed sensors, the root next to the
    middle trace node, and the graph the pressure experiment builds."""
    workload = PressureWorkload(
        np.random.default_rng(seed),
        num_nodes=NODES,
        num_rounds=ROUNDS,
        root_node=NODES // 2,
    )
    radio_range = suggested_radio_range(NODES)
    graph = _pressure_graph(workload, radio_range)
    tree = build_routing_tree(graph, root=workload.root)
    spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
    return graph, tree, workload, spec, radio_range


def clean_digest(name: str, factory, deployed=None, radio_range=RADIO_RANGE) -> str:
    _, tree, workload, spec = deployment() if deployed is None else deployed
    captured = []

    def network(tree, ledger):
        net = TreeNetwork(tree, ledger)
        captured.append(net)
        return net

    runner = SimulationRunner(tree, radio_range, network_factory=network)
    result = runner.run(factory(spec), workload.values, ROUNDS)
    net = captured[-1]
    digest = Digest()
    digest.feed(name, result.quantile_series, [r.exchanges for r in result.rounds])
    digest.ledger(net.ledger, net.phase_bits)
    return digest.hexdigest()


def faulty_digest(cell: int, factory, **options) -> str:
    """``options`` go to ``FaultDriver`` (e.g. ``rotate_every``)."""
    graph, tree, workload, spec = deployment()
    driver = FaultDriver(
        factory,
        spec,
        tree,
        workload,
        fault_plan(tree, cell),
        ArqPolicy(max_retries=2),
        graph=graph,
        failover_rng=np.random.default_rng((2014, cell, 1)),
        **options,
    )
    reports = driver.run(ROUNDS)
    digest = Digest()
    digest.feed(
        [
            (r.answer, r.trustworthy, r.degraded_reason, r.reinitialized, r.failed)
            for r in reports
        ],
        driver.reinits,
        driver.failover.count,
    )
    digest.faults(driver.net)
    digest.ledger(driver.ledger, driver.net.phase_bits)
    return digest.hexdigest()


def grid_and_band(spec: QuerySpec) -> tuple:
    """The ``serving`` scenario's queries: a φ grid and a range count."""
    span = spec.r_max - spec.r_min
    return (
        PhiQuery("grid", phis=(0.5, 0.9, 0.99)),
        RangeQuery("band", spec.r_min + span // 4, spec.r_min + 3 * span // 4),
    )


def serving_digest(queries=grid_and_band, cell: int = len(LINEUP)) -> str:
    graph, tree, workload, spec = deployment()
    registry = QueryRegistry()
    for query in queries(spec):
        registry.register(query)
    runner = MultiQueryRunner(
        registry,
        spec,
        tree,
        workload,
        fault_plan(tree, cell),
        ArqPolicy(max_retries=2),
        graph=graph,
        failover_rng=np.random.default_rng((2014, cell, 1)),
    )
    served = runner.run(ROUNDS)
    digest = Digest()
    for round_ in served:
        report = round_.report
        digest.feed(
            report.answer,
            report.trustworthy,
            report.degraded_reason,
            [
                (a.query, a.trustworthy, a.reason, [(i.label, i.value, i.lo, i.hi) for i in a.items])
                for a in round_.answers
            ],
        )
    driver = runner.driver
    digest.faults(driver.net)
    digest.ledger(driver.ledger, driver.net.phase_bits)
    return digest.hexdigest()


def quadrant(vertex, position) -> str:
    """Group-by assigner: the field's four quadrants."""
    half = AREA_SIDE / 2
    return f"q{int(position[0] >= half)}{int(position[1] >= half)}"


def history_reads(store, query: str, label: str, round_index: int):
    """Every history read kind for one label, in a fixed order; a read the
    store refuses is hashed as its error message."""
    reads = (
        lambda: store.latest(query, label),
        lambda: store.window(query, 4, label),
        lambda: store.window(query, 8, label, phi=0.9),
        lambda: store.decayed(query, 4.0, label),
        lambda: store.at_round(query, round_index - 3, label),
        lambda: store.at_round(query, round_index, label),
        lambda: store.summary_quantile(query, 0.5, label),
    )
    out = []
    for read in reads:
        try:
            out.append(astuple(read()))
        except ConfigurationError as error:
            out.append(str(error))
    return out


#: Fault cells after the variants': the dashboard's, then the compressing
#: sketch scenarios'.
DASHBOARD_CELL = len(LINEUP) + len(FAULT_VARIANTS) + 1
COMPRESSING_SKQ_CELL = DASHBOARD_CELL + 1
COMPRESSING_SERVING_CELL = DASHBOARD_CELL + 2
ROTATING_CELL = DASHBOARD_CELL + 3


def dashboard_digest() -> str:
    """A served dashboard under the fault plan: a φ grid reaching below its
    ε, a 4-quadrant group-by, and a range query deregistered at round 3 and
    re-registered at round 7, after the sink kill."""
    graph, tree, workload, spec = deployment()
    span = spec.r_max - spec.r_min
    band = RangeQuery("band", spec.r_min + span // 4, spec.r_min + 3 * span // 4)
    registry = QueryRegistry()
    registry.register(PhiQuery("grid", phis=(0.01, 0.5, 0.9, 0.99)))
    registry.register(GroupByQuery("quadrants", assign=quadrant, phis=(0.5, 0.9)))
    registry.register(band)
    cell = DASHBOARD_CELL
    runner = MultiQueryRunner(
        registry,
        spec,
        tree,
        workload,
        fault_plan(tree, cell),
        ArqPolicy(max_retries=2),
        graph=graph,
        failover_rng=np.random.default_rng((2014, cell, 1)),
    )
    store = runner.history
    digest = Digest()
    for round_index in range(ROUNDS):
        if round_index == 3:
            runner.deregister("band")
        if round_index == 7:
            runner.register(band)
        served = runner.step(round_index)
        report = served.report
        digest.feed(
            round_index,
            report.answer,
            report.trustworthy,
            report.degraded_reason,
            report.reinitialized,
            report.failed,
            astuple(report.failover) if report.failover is not None else None,
            [astuple(answer) for answer in served.answers],
        )
        for query in store.queries():
            for label in store.labels(query):
                digest.feed(query, label, history_reads(store, query, label, round_index))
    driver = runner.driver
    digest.feed(
        [astuple(stats) for stats in runner.stats()],
        [astuple(stats) for stats in store.cache_stats()],
        [astuple(event) for event in driver.failover.events],
        driver.reinits,
    )
    digest.faults(driver.net)
    digest.ledger(driver.ledger, driver.net.phase_bits)
    return digest.hexdigest()


#: The CI smoke arguments of the two served-deployment commands.
CLI_RUNS = {
    "queries": (
        "queries --phis 0.5 0.95 0.99 --regions 2 --range 200 399 "
        "--loss 0.05 --retries 2 --nodes 24 --rounds 10 --range-radio 60 --seed 7"
    ),
    "history": (
        "history --phis 0.5 0.95 --windows 4 8 --half-lives 4 16 --at-round 5 "
        "--reads 2000 --loss 0.05 --retries 2 --nodes 24 --rounds 10 "
        "--range-radio 60 --seed 7"
    ),
}


def cli_digest(command: str) -> str:
    """The command's stdout, minus the wall-clock ``reads/sec`` line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(CLI_RUNS[command].split()) == 0
    lines = [line for line in out.getvalue().splitlines() if "reads/sec" not in line]
    digest = Digest()
    digest.feed(lines)
    return digest.hexdigest()


def bary_digest() -> str:
    """``bary_snapshot`` every round, with and without the direct request,
    charged to one ledger."""
    _, tree, workload, spec = deployment()
    ledger = EnergyLedger(
        num_vertices=tree.num_vertices,
        root=tree.root,
        model=EnergyModel(),
        radio_range=RADIO_RANGE,
    )
    net = TreeNetwork(tree, ledger)
    k = quantile_rank(net.num_sensor_nodes, spec.phi)
    digest = Digest()
    for round_index in range(ROUNDS):
        values = workload.values(round_index)
        ledger.begin_round()
        for limit in (0, 64):
            result = bary_snapshot(
                net, values, k, spec.r_min, spec.r_max, direct_request_limit=limit
            )
            counters = result.counters
            digest.feed(
                limit,
                result.quantile,
                (counters.l, counters.e, counters.g),
                result.received_values,
                result.refinements,
            )
        ledger.end_round()
    digest.ledger(ledger, net.phase_bits)
    return digest.hexdigest()


def scenario_digests() -> dict[str, str]:
    """Every scenario's digest, keyed ``clean/<alg>``, ``faults/<alg>``,
    ``serving``, ``serving/dashboard``, ``serving/eps0.1``,
    ``cli/<command>`` and ``snapshot/bary``."""
    out = {}
    for name, factory in LINEUP + CLEAN_VARIANTS:
        out[f"clean/{name}"] = clean_digest(name, factory)
    for cell, (name, factory) in enumerate(LINEUP):
        out[f"faults/{name}"] = faulty_digest(cell, factory)
    out["serving"] = serving_digest()
    for cell, (name, factory) in enumerate(FAULT_VARIANTS, start=len(LINEUP) + 1):
        out[f"faults/{name}"] = faulty_digest(cell, factory)
    out["snapshot/bary"] = bary_digest()
    out["serving/dashboard"] = dashboard_digest()
    out["faults/SKQ-eps0.1"] = faulty_digest(
        COMPRESSING_SKQ_CELL, partial(SketchQuantile, eps=0.1)
    )
    out["serving/eps0.1"] = serving_digest(
        lambda spec: (PhiQuery("median", eps=0.1),), COMPRESSING_SERVING_CELL
    )
    for command in CLI_RUNS:
        out[f"cli/{command}"] = cli_digest(command)
    out["faults/HBC-rotate3"] = faulty_digest(ROTATING_CELL, HBC, rotate_every=3)
    *pressure, radio_range = pressure_deployment()
    out["clean/IQ-pressure"] = clean_digest("IQ", IQ, pressure, radio_range)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help=f"rewrite {PINNED.name}"
    )
    args = parser.parse_args(argv)
    digests = scenario_digests()
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    if args.write:
        PINNED.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
