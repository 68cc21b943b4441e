"""End-to-end benchmark of the quantile simulator, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload clean-1k --seed 1 --seconds 30 --trace 0

The run repeats whole passes until ``--seconds`` have passed: each pass
builds the workload's deployments from the seed (timed as ``setup_s``)
and drives all of their cells.  It checks every output and prints a
report followed by one JSON line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates traced and untraced passes, so its tracing overhead is
measured within the same run; its spans are written to
``.perfbench_out/``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Seconds the reference loop takes at the nominal machine speed:
#: ``setup_s`` is set-up time rescaled to that speed.
NOMINAL_REFERENCE_S = 0.010


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def reference_seconds() -> float:
    """Time of one run of a fixed calibration loop on this core, right now.

    The loop is benchmark code the program never changes: Python integer
    and dict work plus small NumPy scatter-adds, the mix a simulated round
    runs.  Timed between any two timed steps (see :class:`Laps`), it
    tracks how fast the machine runs at that moment, which on a shared
    host swings by up to 2x within seconds.
    """
    start = perf_counter()
    table, total = {}, 0
    for i in range(60_000):
        total += i * i
        table[i & 1023] = total
    values, index = np.arange(1001.0), np.arange(0, 1000, 7)
    for _ in range(300):
        np.add.at(values, index, 1.0)
        values.sum()
    return perf_counter() - start


class Laps:
    """Host times in reference intervals.

    The reference loop runs once between any two timed steps (one
    deployment's set-up, or one cell), and each step's seconds are
    divided by the mean of the loop's times on either side of it.
    """

    def __init__(self) -> None:
        self.reference = reference_seconds()

    def __call__(self, seconds: float) -> float:
        after = reference_seconds()
        value = seconds / ((self.reference + after) / 2)
        self.reference = after
        return value


def run_pass(workload, rec) -> None:
    """One pass: set up every deployment afresh, then drive every cell,
    traced while ``rec.tracer`` is set.  Set-up samples go to
    ``rec.setup_refs`` and the cells' busy time to ``rec.busy_refs``,
    both in reference intervals."""
    lap, cells = Laps(), []
    for index in range(workload.deployments):
        start = perf_counter()
        cells += workload.cells(index)
        rec.setup_refs.append(lap(perf_counter() - start))
    if rec.tracer is not None:
        rec.tracer.install()
    try:
        for cell in cells:
            busy = rec.busy
            workload.drive(cell, rec)
            rec.busy_refs += lap(rec.busy - busy)
    finally:
        if rec.tracer is not None:
            rec.tracer.uninstall()


def measure(workload, seconds: float, tracer_cls=None):
    """Run passes until ``seconds`` have passed; returns them and their
    tracers.

    Without ``tracer_cls`` every pass is untraced.  With it, passes
    alternate traced and untraced, starting with a traced one, and at
    least one of each runs.  Every pass must reproduce the first pass's
    fingerprint.
    """
    from workloads import Recorder

    passes = []
    start = perf_counter()
    while True:
        traced = tracer_cls is not None and len(passes) % 2 == 0
        rec = Recorder(tracer=tracer_cls(workload.name) if traced else None)
        run_pass(workload, rec)
        passes.append(rec)
        # Drop the finished pass's runners now, so peak memory reflects one
        # pass's working set rather than when the collector happened to run.
        gc.collect()
        if perf_counter() - start >= seconds and (tracer_cls is None or len(passes) >= 2):
            return passes, [rec.tracer for rec in passes if rec.tracer is not None]


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def round_times(recs) -> list[float]:
    """Each round's host time, the median over the passes that ran it.

    Every pass repeats the same rounds, so the median drops the bursts
    of machine noise that hit one repetition of a round.
    """
    count = min(len(rec.rounds) for rec in recs)
    return [statistics.median(rec.rounds[i][2] for rec in recs) for i in range(count)]


def rounds_per_sec(recs) -> float:
    """Rounds per host second of one pass over the whole workload: the
    median round times plus the median of the pass's other timed calls
    (history reads, registry churn, per-run set-up inside ``run``)."""
    times = round_times(recs)
    rest = statistics.median(rec.busy - sum(r[2] for r in rec.rounds) for rec in recs)
    return len(times) / (sum(times) + rest)


def rounds_per_ref(recs) -> float:
    """Rounds per reference interval (the calibration loop's time at that
    moment), the median over passes: throughput with the machine's
    momentary speed divided out."""
    return statistics.median(len(rec.rounds) / rec.busy_refs for rec in recs)


def end_to_end(passes) -> dict:
    """The gated end-to-end metrics, over every pass of an untraced run."""
    sim = passes[0].sim
    setup = statistics.median(s for rec in passes for s in rec.setup_refs)
    return {
        "setup_s": (setup * NOMINAL_REFERENCE_S, "s"),
        "rounds_per_ref": (rounds_per_ref(passes), "rounds/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_energy_mj_per_round": (sim.energy_j * 1e3 / sim.rounds, "mJ"),
    }


def round_ms(passes, q: int) -> float:
    """The ``q``-th percentile host time per round over the untraced passes."""
    return percentile(round_times([rec for rec in passes if rec.tracer is None]), q) * 1e3


def reads_per_sec(passes) -> float:
    """History reads per host second of read time (untraced passes)."""
    reads = [t for rec in passes if rec.tracer is None for t in rec.reads]
    return len(reads) / sum(reads) if reads else 0.0


def checks(passes) -> tuple[int, int]:
    """(attempted, failed): output checks plus one fingerprint check per
    pass after the first."""
    repeats = [rec.fingerprint == passes[0].fingerprint for rec in passes[1:]]
    attempted = sum(rec.attempted for rec in passes) + len(repeats)
    return attempted, sum(rec.failed for rec in passes) + repeats.count(False)


def wrong_answer_frac(passes) -> float:
    attempted, failed = checks(passes)
    return failed / attempted


def trustworthy_frac(passes) -> float:
    return passes[0].sim.trustworthy_rounds / passes[0].sim.rounds


def per_layer(passes, tracers) -> dict:
    """Per-layer metrics from the traced passes (sim counts from pass 0)."""
    from tracer import CONVERGECASTS, END, NAME, PARENT, SIZE, START
    from workloads import ALGORITHMS

    traced = [rec for rec in passes if rec.tracer is not None]
    untraced = [rec for rec in passes if rec.tracer is None]
    traces = [t for tracer in tracers for t in tracer.round_traces()]
    n = len(traces)
    sim = passes[0].sim

    def self_ms(*prefixes) -> float:
        total = sum(
            seconds
            for t in traces
            for name, seconds in t.self_time.items()
            if name.startswith(prefixes)
        )
        return total * 1e3 / n

    def calls(name) -> float:
        return sum(t.counts.get(name, 0) for t in traces) / n

    def hot(name, index) -> float:
        return sum(t.hot.get(name, (0, 0.0))[index] for t in traces) / n

    spans = [s for tracer in tracers for s in tracer.spans]
    # (tracer, span) of every convergecast not nested in another one.
    casts = [
        (tracer, s)
        for tracer in tracers
        for s in tracer.spans
        if s[NAME] in CONVERGECASTS
        and (s[PARENT] < 0 or tracer.spans[s[PARENT]][NAME] not in CONVERGECASTS)
    ]
    outer_casts = [s for _, s in casts]
    reads = [s[END] - s[START] for s in spans if s[NAME] == "history.read"]
    failovers = [
        s[END] - s[START] for s in spans if s[NAME] == "recovery.failover" and s[SIZE] == 1
    ]
    reinit_rounds = [r[2] for rec in traced for r in rec.rounds if r[3]]
    traced_rps, untraced_rps = rounds_per_sec(traced), rounds_per_sec(untraced)
    traced_rpr, untraced_rpr = rounds_per_ref(traced), rounds_per_ref(untraced)
    lookups = sim.cache_hits + sim.cache_misses

    def p50_ms(values) -> float:
        return statistics.median(values) * 1e3 if values else 0.0

    def algorithm_layer(tracer, span) -> str:
        while span[PARENT] >= 0:
            span = tracer.spans[span[PARENT]]
            if span[NAME].startswith(("core.", "serving.gate.")):
                return span[NAME].split(".", 1)[0]
        return ""

    core_casts = [s for tracer, s in casts if algorithm_layer(tracer, s) == "core"]
    metrics = {
        "datasets.values_ms_per_round": (self_ms("datasets."), "ms"),
        "core.self_ms_per_round": (self_ms("core."), "ms"),
        "core.contributions_per_round": (sum(s[SIZE] for s in core_casts) / n, "count"),
    }
    for name, _ in ALGORITHMS:
        cell_rounds = [r[2] for rec in traced for r in rec.rounds if r[0] == name]
        metrics[f"core.{name}.round_ms_p50"] = (p50_ms(cell_rounds), "ms")
    metrics.update(
        {
            "payloads.merges_per_round": (hot("payloads.merge", 0), "count"),
            "payloads.merge_ms_per_round": (hot("payloads.merge", 1) * 1e3, "ms"),
            "sim.convergecasts_per_round": (len(outer_casts) / n, "count"),
            "sim.broadcasts_per_round": (calls("sim.broadcast"), "count"),
            "sim.contributors_per_convergecast_p50": (
                statistics.median(s[SIZE] for s in outer_casts) if outer_casts else 0.0,
                "count",
            ),
            "sim.convergecast_self_ms_per_round": (self_ms("sim.convergecast"), "ms"),
            "sim.broadcast_ms_per_round": (self_ms("sim.broadcast"), "ms"),
            "sim.oracle_ms_per_round": (self_ms("sim.oracle"), "ms"),
            "radio.batch_charges_per_round": (calls("radio.charge_batch"), "count"),
            "radio.scalar_charges_per_round": (hot("radio.charge", 0), "count"),
            "radio.ledger_ms_per_round": (self_ms("radio.") + hot("radio.charge", 1) * 1e3, "ms"),
            "radio.kbits_per_round": (sim.bits_sent / sim.rounds / 1e3, "kbit"),
            "faults.plan_ms_per_round": (self_ms("faults.plan"), "ms"),
            "faults.convergecast_self_ms_per_round": (self_ms("faults.convergecast"), "ms"),
            "faults.live_set_ms_per_round": (self_ms("faults.live_set"), "ms"),
            "faults.frames_per_delivered_hop": (
                sim.data_frames / sim.ok_frames if sim.ok_frames else 0.0,
                "ratio",
            ),
            "faults.lost_frames_per_round": (sim.lost_frames / sim.rounds, "count"),
            "faults.retransmissions_per_round": (sim.retransmissions / sim.rounds, "count"),
            "recovery.repair_ms_per_round": (self_ms("recovery.repair"), "ms"),
            "recovery.watchdog_ms_per_round": (self_ms("recovery.watchdog"), "ms"),
            "recovery.failover_ms_per_event": (
                statistics.fmean(failovers) * 1e3 if failovers else 0.0,
                "ms",
            ),
            "recovery.reinit_round_ms_p50": (p50_ms(reinit_rounds), "ms"),
            "recovery.reattaches": (sim.reattaches, "count"),
            "recovery.reinits": (sim.reinits, "count"),
            "recovery.failovers": (sim.failovers, "count"),
            "recovery.degraded_rounds": (sim.degraded_rounds, "count"),
            "serving.gate_ms_per_round": (self_ms("serving.gate."), "ms"),
            "serving.answers_ms_per_round": (self_ms("serving.answers"), "ms"),
            "serving.plan_builds": (
                sum(s[NAME] == "serving.plan" for s in spans) / len(traced),
                "count",
            ),
            "sketch.rank_queries_per_round": (calls("sketch.rank_bounds"), "count"),
            "sketch.rank_ms_per_round": (self_ms("sketch.rank_bounds"), "ms"),
            "history.absorb_ms_per_round": (self_ms("history.absorb"), "ms"),
            "history.read_us_p50": (statistics.median(reads) * 1e6 if reads else 0.0, "us"),
            "history.read_us_p95": (percentile(reads, 95) * 1e6 if reads else 0.0, "us"),
            "history.hit_rate": (sim.cache_hits / lookups if lookups else 0.0, "ratio"),
            "history.reads_per_sec": (reads_per_sec(passes), "reads/s"),
            "trace.overhead_frac": (1.0 - traced_rpr / untraced_rpr, "ratio"),
            "trace.unattributed_ms_per_round": (
                sum(t.unattributed for t in traces) * 1e3 / n,
                "ms",
            ),
            "trace.traced_rounds_per_sec": (traced_rps, "rounds/s"),
            "trace.untraced_rounds_per_sec": (untraced_rps, "rounds/s"),
            "rounds_per_sec": (rounds_per_sec(untraced), "rounds/s"),
            "round_ms_p50": (round_ms(passes, 50), "ms"),
            "round_ms_p95": (round_ms(passes, 95), "ms"),
            "sim_hotspot_mj_per_round": (sim.hotspot_j * 1e3, "mJ"),
            "sim_trustworthy_frac": (trustworthy_frac(passes), "ratio"),
            "wrong_answer_frac": (wrong_answer_frac(passes), "ratio"),
        }
    )
    return metrics


def dominant_layers(passes, tracers) -> list[str]:
    """Per cell: untraced and traced rounds/s and the largest self-time layer."""
    lines = [
        f"{'cell':<8} {'rounds/s':>9} {'traced':>8}  {'dominant layer':<15} "
        f"{'share':>6} {'unattr':>7}"
    ]
    traces = [t for tracer in tracers for t in tracer.round_traces()]
    untraced = [r for rec in passes if rec.tracer is None for r in rec.rounds]
    for cell in dict.fromkeys(t.cell for t in traces):
        mine = [t for t in traces if t.cell == cell]
        wall = sum(t.wall for t in mine)
        layers: dict[str, float] = {}
        for t in mine:
            for layer, seconds in t.layer_self().items():
                layers[layer] = layers.get(layer, 0.0) + seconds
        top = max(layers, key=layers.get)
        plain = [r[2] for r in untraced if r[0] == cell]
        lines.append(
            f"{cell:<8} {len(plain) / sum(plain):9.1f} {len(mine) / wall:8.1f}  {top:<15} "
            f"{layers[top] / wall:6.1%} {sum(t.unattributed for t in mine) / wall:7.1%}"
        )
    return lines


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import HEADER, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        known = ", ".join(WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; pick one of {known}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    passes, tracers = measure(workload, args.seconds, Tracer if args.trace else None)

    attempted, failed = checks(passes)
    times = round_times([rec for rec in passes if rec.tracer is None])
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}")
    beyond = sum(t > percentile(times, 95) for t in times)
    print(f"{len(times)} rounds per pass, {beyond} beyond p95")
    rates = ", ".join(f"{rounds_per_sec([rec]):.1f}" for rec in passes)
    refs = ", ".join(f"{len(rec.rounds) / rec.busy_refs:.3f}" for rec in passes)
    print(f"rounds/s of each pass: {rates}; rounds/ref: {refs}")
    print(f"fingerprint {passes[0].fingerprint}  checks {attempted}  failed {failed}")
    if args.trace:
        metrics = per_layer(passes, tracers)
        print("\n".join(dominant_layers(passes, tracers)))
        path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        path.parent.mkdir(exist_ok=True)
        with path.open("w") as out:
            out.write(HEADER)
            for index, tracer in enumerate(tracers):
                tracer.write(out, index)
        print(f"spans written to {path.relative_to(ROOT)}")
        shown = metrics
    else:
        metrics = end_to_end(passes)
        # Everything the notes list as end-to-end, gated in the JSON or not.
        shown = {
            **metrics,
            "rounds_per_sec": (rounds_per_sec(passes), "rounds/s"),
            "round_ms_p50": (round_ms(passes, 50), "ms"),
            "round_ms_p95": (round_ms(passes, 95), "ms"),
            "reads_per_sec": (reads_per_sec(passes), "reads/s"),
            "sim_hotspot_mj_per_round": (passes[0].sim.hotspot_j * 1e3, "mJ"),
            "sim_trustworthy_frac": (trustworthy_frac(passes), "ratio"),
            "wrong_answer_frac": (failed / attempted, "ratio"),
        }
    for name, (value, unit) in shown.items():
        print(f"  {name:<40} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
