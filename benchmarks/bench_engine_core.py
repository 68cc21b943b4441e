"""Engine hot-path microbenchmark: the array core vs the per-hop reference.

Times lossless convergecast rounds (the paper's dominant primitive) on
random recursive trees at 300 / 3 000 / 30 000 vertices, on the package's
array convergecast and on the per-hop reference walk in
``tests/reference_engine.py`` (the ``object_*`` columns), plus the array
full round (convergecast + broadcast) and the per-round ledger-batch
overhead.  The node counts are
the trajectory axis and stay fixed across scales; ``REPRO_BENCH_SCALE``
only controls how many rounds are timed.  Results land in
``BENCH_engine.json`` (results dir + repo root) — the machine-readable
perf trajectory that ``benchmarks/check_perf.py`` gates CI on.

The acceptance headline is the 3 000-vertex cell: the committed record
must show the array core >= 5x the reference walk on lossless
convergecast.  The in-test assertion uses a 3x floor so a noisy CI
runner cannot flake a genuinely fast core.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from benchmarks.common import archive, bench_scale, emit_perf, peak_rss_kb, run_once
from repro.network.tree import RoutingTree, tree_from_parents
from repro.radio.energy import EnergyModel
from repro.radio.ledger import EnergyLedger
from repro.sim.engine import Payload, PayloadBatch, TreeNetwork
from tests.reference_engine import ReferenceTreeNetwork

SIZES = (300, 3_000, 30_000)
#: Timed rounds per size at scale 1; multiplied by the benchmark scale.
BASE_ROUNDS = {300: 400, 3_000: 120, 30_000: 20}
HEADLINE_SIZE = 3_000
RADIO_RANGE = 35.0
BROADCAST_BITS = 64


#: On-air size [bits] of one count payload, leaf or merged.
COUNT_BITS = 32


@dataclass(frozen=True)
class CountPayload(Payload):
    """Fixed-size counter payload: every sensor contributes one reading.

    This is the paper's canonical convergecast workload.  The per-hop
    reference walk merges these objects; the array core folds the
    equivalent :class:`CountBatch`.
    """

    count: int

    def merged_with(self, other: "CountPayload") -> "CountPayload":
        return CountPayload(self.count + other.count)

    def payload_bits(self) -> int:
        return COUNT_BITS

    def num_values(self) -> int:
        return self.count


class CountBatch(PayloadBatch):
    """One reading per contributing vertex, as one add-fold column: the
    array core's form of ``{v: CountPayload(1) for v in vertices}``."""

    def __init__(self, vertices: Sequence[int]) -> None:
        super().__init__(np.asarray(vertices, dtype=np.int64))

    def columns(self) -> np.ndarray:
        return np.ones((len(self.ids), 1), dtype=np.int64)

    def hop_sizes(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.full(sums.shape[0], COUNT_BITS, dtype=np.int64), sums[:, 0]

    def root_payload(self, sums: np.ndarray, reached) -> CountPayload:
        return CountPayload(int(sums[0]))

    def payloads(self) -> dict[int, CountPayload]:
        return {vertex: CountPayload(1) for vertex in self.ids.tolist()}


def random_recursive_tree(n: int, seed: int = 29) -> RoutingTree:
    """Uniform random recursive tree — O(n), no physical graph needed."""
    rng = np.random.default_rng(seed)
    parents = [-1] + [int(rng.integers(0, v)) for v in range(1, n)]
    return tree_from_parents(0, parents)


def fresh_net(tree: RoutingTree, reference: bool = False) -> TreeNetwork:
    ledger = EnergyLedger(
        num_vertices=tree.num_vertices,
        root=tree.root,
        model=EnergyModel(),
        radio_range=RADIO_RANGE,
    )
    cls = ReferenceTreeNetwork if reference else TreeNetwork
    return cls(tree, ledger)


#: Timed repeats per measurement; best-of is reported.  Wall-clock noise is
#: one-sided (GC pauses, scheduler preemption only ever slow a run down),
#: so the fastest repeat is the stablest throughput estimate — this keeps
#: the CI perf gate from flaking on a single unlucky window.
REPEATS = 3


def time_rounds(net: TreeNetwork, contributions, rounds: int, broadcast: bool):
    """Best-of-``REPEATS`` rounds/sec over ``rounds`` timed engine rounds."""
    net.convergecast(contributions)  # warmup: numpy one-time costs, caches
    if broadcast:
        net.broadcast(BROADCAST_BITS)
    best = 0.0
    gc_was_enabled = gc.isenabled()
    gc.disable()  # a collection pause inside a short window dwarfs the work
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(rounds):
                net.convergecast(contributions)
                if broadcast:
                    net.broadcast(BROADCAST_BITS)
            elapsed = time.perf_counter() - start
            best = max(best, rounds / elapsed)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def time_ledger_batch(tree: RoutingTree, rounds: int) -> float:
    """Milliseconds one convergecast's worth of ledger batching costs."""
    ledger = EnergyLedger(
        num_vertices=tree.num_vertices,
        root=tree.root,
        model=EnergyModel(),
        radio_range=RADIO_RANGE,
    )
    senders = tree.bottom_up
    receivers = tree.parent_array[senders]
    m = len(senders)
    bits = np.full(m, 56, dtype=np.int64)
    frames = np.ones(m, dtype=np.int64)
    joules = bits * 1e-9
    energy_vertices = np.empty(2 * m, dtype=np.int64)
    energy_vertices[0::2] = senders
    energy_vertices[1::2] = receivers
    energy_joules = np.empty(2 * m, dtype=np.float64)
    energy_joules[0::2] = joules
    energy_joules[1::2] = joules
    iterations = max(10, rounds)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(iterations):
            ledger.charge_batch(
                energy_vertices=energy_vertices,
                energy_joules=energy_joules,
                send_vertices=senders,
                send_messages=frames,
                send_bits=bits,
                send_values=frames,
                recv_vertices=receivers,
                recv_messages=frames,
                recv_bits=bits,
            )
        best = min(best, (time.perf_counter() - start) / iterations * 1e3)
    return best


def measure_size(n: int, rounds: int) -> dict:
    tree = random_recursive_tree(n)
    contributions = {v: CountPayload(1) for v in tree.sensor_nodes}
    batch = CountBatch(tree.sensor_nodes)
    object_rps = time_rounds(
        fresh_net(tree, reference=True), contributions, rounds, broadcast=False
    )
    vector_rps = time_rounds(
        fresh_net(tree),
        batch,
        # The array core is fast enough to time many more rounds for the
        # same wall-clock budget, which stabilizes the measurement.
        rounds * 10,
        broadcast=False,
    )
    full_round_rps = time_rounds(
        fresh_net(tree), batch, rounds * 10, broadcast=True
    )
    return {
        "num_vertices": n,
        "timed_rounds": rounds,
        "object_convergecast_rounds_per_sec": object_rps,
        "vector_convergecast_rounds_per_sec": vector_rps,
        "vector_full_round_rounds_per_sec": full_round_rps,
        "speedup": vector_rps / object_rps,
        "ledger_batch_ms_per_round": time_ledger_batch(tree, rounds),
        "peak_rss_kb": peak_rss_kb(),
    }


def compute() -> dict:
    scale = bench_scale()
    sizes = {}
    for n in SIZES:
        # The floor of 4 keeps the smallest timed window (30k vertices at
        # the CI scale 0.05) long enough that the perf gate doesn't flake.
        rounds = max(4, round(BASE_ROUNDS[n] * scale))
        sizes[str(n)] = measure_size(n, rounds)
    return {
        "sizes": sizes,
        "headline_speedup": sizes[str(HEADLINE_SIZE)]["speedup"],
    }


def format_table(data: dict) -> str:
    lines = [
        "engine core: lossless convergecast rounds/sec, object vs vectorized",
        f"{'n':>7s} {'rounds':>7s} {'object r/s':>11s} {'vector r/s':>11s} "
        f"{'speedup':>8s} {'full r/s':>10s} {'ledger ms':>10s} {'rss MB':>7s}",
    ]
    for n in SIZES:
        cell = data["sizes"][str(n)]
        lines.append(
            f"{n:7d} {cell['timed_rounds']:7d} "
            f"{cell['object_convergecast_rounds_per_sec']:11.1f} "
            f"{cell['vector_convergecast_rounds_per_sec']:11.1f} "
            f"{cell['speedup']:8.1f} "
            f"{cell['vector_full_round_rounds_per_sec']:10.1f} "
            f"{cell['ledger_batch_ms_per_round']:10.3f} "
            f"{cell['peak_rss_kb'] / 1024:7.0f}"
        )
    return "\n".join(lines) + "\n"


def test_engine_core(benchmark):
    data = run_once(benchmark, compute)
    text = format_table(data)
    print("\n" + text)
    archive("engine", text)
    emit_perf("engine", data)

    # Acceptance: the committed record must show >= 5x at 3k vertices; the
    # in-test floor is 3x so CI noise cannot flake a genuinely fast core.
    assert data["headline_speedup"] >= 3.0
    for n in SIZES:
        cell = data["sizes"][str(n)]
        # Batched accounting must stay a small fraction of the round.
        assert (
            cell["ledger_batch_ms_per_round"]
            < 1e3 / cell["vector_convergecast_rounds_per_sec"]
        )
