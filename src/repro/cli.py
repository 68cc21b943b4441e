"""Command-line interface: run the paper's experiments from a shell.

Subcommands:

* ``run``     — one configuration, all algorithms, comparison table.
* ``sweep``   — one figure's parameter sweep (Figures 6-9).
* ``pressure``— the air-pressure sampling-rate sweep (Figure 10).
* ``xi-trace``— IQ's Ξ trace (Figure 4) as a text chart.
* ``loss``    — the message-loss rank-error study (future work, Section 6).
* ``faults``  — the full fault-injection study: loss x retry-budget matrix
  over every algorithm (exact + sketch), with optional burst loss and node
  churn, per-hop ARQ and the root watchdog (``repro.faults``).
* ``sketch``  — approximate quantiles: the energy-vs-rank-error sweep over
  the sketch family's error budget ε (``repro.sketch``).
* ``queries`` — multi-query serving: register a φ-grid, group-by regions
  and range predicates, serve them all from one shared gated convergecast
  and compare the energy with a single-query tracker (``repro.serving``).
* ``history`` — the root-side history service: run a served deployment,
  absorb every round into bounded-memory summaries and answer
  latest/window/decayed/at-round reads at zero radio cost, with read-cache
  hit rates and staleness reported (``repro.serving.history``).
* ``report``  — regenerate the whole evaluation as one markdown document.

Examples::

    python -m repro run --nodes 200 --rounds 60
    python -m repro sweep period --scale 0.2
    python -m repro pressure --pessimistic
    python -m repro xi-trace --rounds 125
    python -m repro loss --rates 0 0.05 0.1
    python -m repro faults --loss 0.05 --retries 2
    python -m repro faults --loss 0.05 0.1 --retries 0 2 --burst 8 --churn 0.01
    python -m repro sketch --eps 0.02 0.05 0.1
    python -m repro queries --phis 0.5 0.95 0.99 --regions 2 --range 200 399
    python -m repro history --phis 0.5 0.95 --windows 8 32 --half-lives 4 16
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.experiments.config import ExperimentConfig, default_algorithms
from repro.experiments.figures import fig4_xi_trace
from repro.experiments.report import format_comparison, format_sweep_table
from repro.experiments.runner import run_synthetic_experiment
from repro.experiments.sweeps import SWEEP_VARIABLES, sweep, sweep_pressure


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Continuous quantile queries in WSNs (EDBT 2014 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one configuration, all algorithms")
    run.add_argument("--nodes", type=int, default=150)
    run.add_argument("--rounds", type=int, default=60)
    run.add_argument("--runs", type=int, default=3)
    run.add_argument("--period", type=int, default=60)
    run.add_argument("--noise", type=float, default=5.0)
    run.add_argument("--range", type=float, default=35.0, dest="radio_range")
    run.add_argument("--phi", type=float, default=0.5)
    run.add_argument("--seed", type=int, default=20140324)

    sweep_cmd = sub.add_parser("sweep", help="one figure's parameter sweep")
    sweep_cmd.add_argument("variable", choices=sorted(SWEEP_VARIABLES))
    sweep_cmd.add_argument("--scale", type=float, default=None)
    sweep_cmd.add_argument(
        "--metric",
        choices=("max_energy_mj", "lifetime_rounds", "refinements_per_round"),
        default="max_energy_mj",
    )
    sweep_cmd.add_argument(
        "--chart", action="store_true", help="append an ASCII chart"
    )

    pressure = sub.add_parser("pressure", help="Figure 10 sampling-rate sweep")
    pressure.add_argument("--pessimistic", action="store_true")
    pressure.add_argument("--scale", type=float, default=None)

    xi = sub.add_parser("xi-trace", help="Figure 4: IQ's band over time")
    xi.add_argument("--rounds", type=int, default=125)
    xi.add_argument("--nodes", type=int, default=200)

    loss = sub.add_parser("loss", help="rank error under message loss")
    loss.add_argument(
        "--rates", type=float, nargs="+", default=[0.0, 0.05, 0.1, 0.2]
    )
    loss.add_argument("--nodes", type=int, default=100)
    loss.add_argument("--rounds", type=int, default=60)

    faults = sub.add_parser(
        "faults",
        help="fault injection: loss x ARQ retries over all algorithms",
    )
    faults.add_argument(
        "--loss", type=float, nargs="+", default=[0.0, 0.05, 0.1],
        help="link loss rates to sweep",
    )
    faults.add_argument(
        "--retries", type=int, nargs="+", default=[0, 2],
        help="per-hop ARQ retry budgets to sweep (0 disables ARQ)",
    )
    faults.add_argument(
        "--burst", type=float, default=None, metavar="LEN",
        help="use Gilbert-Elliott burst loss with this mean burst length "
        "(default: i.i.d. loss)",
    )
    faults.add_argument(
        "--churn", type=float, default=0.0,
        help="per-round probability of each live sensor dying permanently",
    )
    faults.add_argument(
        "--transient", type=float, default=0.0,
        help="per-round probability of each up sensor starting a transient "
        "outage (it comes back after a geometric downtime)",
    )
    faults.add_argument(
        "--downtime", type=float, default=3.0,
        help="mean rounds a transient outage lasts",
    )
    faults.add_argument(
        "--no-repair", action="store_true",
        help="disable orphan re-attach and membership patching (PR 2 "
        "watchdog-only baseline)",
    )
    faults.add_argument(
        "--adaptive-arq", action="store_true",
        help="replace the static retry sweep with the per-link adaptive "
        "ARQ controller (one 'adp' cell per loss rate)",
    )
    faults.add_argument(
        "--heal-patience", type=int, default=1, metavar="N",
        help="rounds an unattachable orphan stays parked (duty-cycled, "
        "re-probing) before the re-init fallback fires; 1 = the legacy "
        "same-round fallback",
    )
    faults.add_argument(
        "--rotate", type=int, default=0, metavar="N",
        help="rotate to a fresh randomized min-hop tree every N rounds "
        "(0 = never); rotation avoids down parents and composes with repair",
    )
    faults.add_argument(
        "--etx", action=argparse.BooleanOptionalAction, default=True,
        help="rank repair candidates (and bias rotation) by ETX-weighted "
        "path cost from the shared link-quality estimator; --no-etx falls "
        "back to nearest-neighbour adoption and unbiased rotation",
    )
    faults.add_argument(
        "--root-kill", type=int, default=None, metavar="ROUND",
        help="kill the sink at this round: a successor is elected among its "
        "live children, the tree re-roots, and the root state hands over",
    )
    faults.add_argument(
        "--root-grace", type=int, default=1, metavar="N",
        help="rounds a transiently-down root is waited out (served "
        "degraded) before fail-over elects a successor",
    )
    faults.add_argument("--nodes", type=int, default=100)
    faults.add_argument("--rounds", type=int, default=60)
    faults.add_argument("--range", type=float, default=35.0, dest="radio_range")
    faults.add_argument(
        "--patience", type=int, default=2,
        help="suspicious full collections before the watchdog re-initializes",
    )
    faults.add_argument(
        "--sketch-eps", type=float, default=0.05,
        help="error budget for the SKQ/SK1 entries in the lineup",
    )
    faults.add_argument("--seed", type=int, default=20140324)

    sketch = sub.add_parser(
        "sketch", help="approximate quantiles: energy vs rank error over eps"
    )
    sketch.add_argument(
        "--eps", type=float, nargs="+", default=[0.02, 0.05, 0.1],
        help="rank-error budgets to sweep (fraction of |N|)",
    )
    sketch.add_argument(
        "--kind", choices=("qdigest", "kll"), default="qdigest"
    )
    sketch.add_argument(
        "--one-shot", action="store_true",
        help="also run the ungated one-sketch-per-round variant",
    )
    sketch.add_argument("--nodes", type=int, default=150)
    sketch.add_argument("--rounds", type=int, default=40)
    sketch.add_argument("--runs", type=int, default=2)
    sketch.add_argument("--range", type=float, default=35.0, dest="radio_range")
    sketch.add_argument("--phi", type=float, default=0.5)
    sketch.add_argument("--seed", type=int, default=20140324)

    # The flags of a served deployment, shared by ``queries`` and ``history``.
    served = argparse.ArgumentParser(add_help=False)
    served.add_argument(
        "--eps", type=float, default=0.05,
        help="per-query rank-error budget (fraction of the population)",
    )
    served.add_argument(
        "--loss", type=float, default=0.0,
        help="i.i.d. link loss rate for the fault layer",
    )
    served.add_argument(
        "--retries", type=int, default=2,
        help="per-hop ARQ retry budget (0 disables ARQ)",
    )
    served.add_argument(
        "--transient", type=float, default=0.0,
        help="per-round probability of each sensor starting a transient "
        "outage",
    )
    served.add_argument("--range-radio", type=float, default=35.0,
                        dest="radio_range", metavar="M",
                        help="radio range in metres")
    served.add_argument("--seed", type=int, default=20140324)

    queries = sub.add_parser(
        "queries",
        parents=[served],
        help="multi-query serving: a phi-grid, group-by regions and range "
        "predicates over one shared convergecast (repro.serving)",
    )
    queries.add_argument(
        "--phis", type=float, nargs="+", default=[0.5, 0.95, 0.99],
        help="the phi-grid to serve (one PhiQuery per phi)",
    )
    queries.add_argument(
        "--regions", type=int, default=0, metavar="N",
        help="add a group-by query over N vertical position stripes "
        "(0 = no group-by)",
    )
    queries.add_argument(
        "--range", type=float, nargs=2, action="append", default=None,
        dest="ranges", metavar=("LO", "HI"),
        help="add a range query for the fraction of readings in [LO, HI] "
        "(repeatable)",
    )
    queries.add_argument(
        "--no-baseline", action="store_true",
        help="skip the single-query SKQ amortization comparison run",
    )
    queries.add_argument("--nodes", type=int, default=120)
    queries.add_argument("--rounds", type=int, default=30)

    history = sub.add_parser(
        "history",
        parents=[served],
        help="root-side history service: windows, decay and cached reads "
        "over a served run (repro.serving.history)",
    )
    history.add_argument(
        "--phis", type=float, nargs="+", default=[0.5, 0.95],
        help="the phi-grid to serve and absorb (one PhiQuery per phi)",
    )
    history.add_argument(
        "--windows", type=int, nargs="+", default=[8, 32],
        help="window sizes (rounds) to read back",
    )
    history.add_argument(
        "--half-lives", type=float, nargs="+", default=[4.0, 16.0],
        help="half-lives (rounds) for the decayed reads",
    )
    history.add_argument(
        "--at-round", type=int, nargs="+", default=None, metavar="R",
        help="historical point reads to answer via the checkpoint index",
    )
    history.add_argument(
        "--reads", type=int, default=10_000,
        help="cached reads to replay against the store for the "
        "throughput/hit-rate report",
    )
    history.add_argument("--nodes", type=int, default=80)
    history.add_argument("--rounds", type=int, default=40)

    report = sub.add_parser(
        "report", help="regenerate the paper's full evaluation as markdown"
    )
    report.add_argument("--out", type=str, default=None)
    report.add_argument("--scale", type=float, default=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    command = args.command

    if command == "run":
        config = ExperimentConfig(
            num_nodes=args.nodes,
            rounds=args.rounds,
            runs=args.runs,
            period=args.period,
            noise_percent=args.noise,
            radio_range=args.radio_range,
            phi=args.phi,
            seed=args.seed,
        )
        metrics = run_synthetic_experiment(config, default_algorithms())
        print(
            format_comparison(
                metrics,
                title=(
                    f"synthetic: {config.num_nodes} nodes, "
                    f"{config.rounds} rounds x {config.runs} runs, "
                    f"tau={config.period}, psi={config.noise_percent}%"
                ),
            )
        )
        return 0

    if command == "sweep":
        result = sweep(args.variable, scale=args.scale)
        print(format_sweep_table(result, metric=args.metric))
        if args.chart:
            from repro.experiments.report import METRICS
            from repro.viz.ascii import render_series

            getter = METRICS[args.metric]
            series = {
                name: [getter(point) for point in points]
                for name, points in result.series.items()
            }
            print()
            print(
                render_series(
                    result.xs,
                    series,
                    title=f"{args.metric} vs {args.variable}",
                )
            )
        return 0

    if command == "pressure":
        result = sweep_pressure(pessimistic=args.pessimistic, scale=args.scale)
        label = "pessimistic" if args.pessimistic else "optimistic"
        print(
            format_sweep_table(
                result, title=f"air pressure ({label} range scaling)"
            )
        )
        return 0

    if command == "xi-trace":
        trace = fig4_xi_trace(num_rounds=args.rounds, num_nodes=args.nodes)
        from repro.viz.ascii import render_xi_trace

        print(render_xi_trace(trace.rounds))
        print(
            f"band-contains-next-quantile ratio: "
            f"{trace.band_contains_next_quantile_ratio:.3f}"
        )
        return 0

    if command == "sketch":
        from repro.baselines import TAG
        from repro.core import HBC, IQ
        from repro.experiments.config import sketch_algorithms

        config = ExperimentConfig(
            num_nodes=args.nodes,
            rounds=args.rounds,
            runs=args.runs,
            radio_range=args.radio_range,
            phi=args.phi,
            seed=args.seed,
        )
        lineup = {"TAG": TAG, "HBC": HBC, "IQ": IQ}
        lineup.update(
            sketch_algorithms(
                tuple(args.eps),
                kind=args.kind,
                gated=True,
                one_shot=args.one_shot,
            )
        )
        metrics = run_synthetic_experiment(config, lineup)
        print(
            format_comparison(
                metrics,
                title=(
                    f"approximate quantiles ({args.kind}): "
                    f"{config.num_nodes} nodes, {config.rounds} rounds x "
                    f"{config.runs} runs — rank-err is mean rank distance, "
                    f"budget eps*|N|"
                ),
            )
        )
        return 0

    if command == "queries":
        return _run_queries(args)

    if command == "history":
        return _run_history(args)

    if command == "report":
        from repro.experiments.paper import generate_report

        result = generate_report(scale=args.scale)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(result.markdown)
            print(f"report written to {args.out}")
        else:
            print(result.markdown)
        return 0

    if command == "faults":
        from repro.experiments.report import format_fault_table
        from repro.faults import fault_lineup, run_fault_experiment

        result = run_fault_experiment(
            fault_lineup(sketch_eps=args.sketch_eps),
            loss_rates=tuple(args.loss),
            retry_budgets=tuple(args.retries),
            churn_rate=args.churn,
            burst_length=args.burst,
            transient_rate=args.transient,
            transient_downtime=args.downtime,
            num_nodes=args.nodes,
            num_rounds=args.rounds,
            radio_range=args.radio_range,
            seed=args.seed,
            watchdog_patience=args.patience,
            repair=not args.no_repair,
            adaptive_arq=args.adaptive_arq,
            repair_metric="etx" if args.etx else "nearest",
            rotate_every=args.rotate,
            heal_patience=args.heal_patience,
            root_kill=args.root_kill,
            root_grace=args.root_grace,
        )
        loss_kind = (
            f"Gilbert-Elliott bursts (mean length {args.burst:g})"
            if args.burst is not None
            else "i.i.d. loss"
        )
        repair_kind = "off" if args.no_repair else (
            "on (etx)" if args.etx else "on (nearest)"
        )
        rotate_kind = (
            f", rotate every {args.rotate}" if args.rotate else ""
        )
        heal_kind = (
            f", heal-patience {args.heal_patience}"
            if args.heal_patience > 1
            else ""
        )
        if args.root_kill is not None:
            heal_kind += (
                f", root killed @{args.root_kill} "
                f"(grace {args.root_grace})"
            )
        print(
            format_fault_table(
                result,
                title=(
                    f"fault injection: {args.nodes} nodes, {args.rounds} "
                    f"rounds, {loss_kind}, churn={args.churn:g}/round, "
                    f"transient={args.transient:g}/round, repair "
                    f"{repair_kind}{rotate_kind}{heal_kind}"
                ),
            )
        )
        return 0

    if command == "loss":
        from repro.faults import run_fault_experiment

        result = run_fault_experiment(
            default_algorithms(),
            loss_rates=tuple(args.rates),
            retry_budgets=(0,),
            num_nodes=args.nodes,
            num_rounds=args.rounds,
        )
        print(
            f"{'algorithm':10s} {'loss':>5s} {'exact':>7s} "
            f"{'rank-err':>9s} {'value-err':>10s} {'failures':>9s}"
        )
        for name in sorted({p.algorithm for p in result.points}):
            for point in result.series(name):
                print(
                    f"{name:10s} {point.loss_rate:5.2f} "
                    f"{point.exact_fraction:7.2f} {point.mean_rank_error:9.2f} "
                    f"{point.mean_value_error:10.2f} {point.failure_rate:9.2f}"
                )
        return 0

    raise AssertionError(f"unhandled command {command!r}")  # pragma: no cover


def _served_deployment(args):
    """The deployment ``queries`` and ``history`` serve, from their shared
    flags: a random field, one :class:`~repro.serving.PhiQuery` per
    ``--phis`` value, the fault plan and the ARQ policy.

    Returns the serving runner and ``fault_driver(factory)``, which builds a
    second driver on the same deployment under a fresh fault plan.
    """
    import numpy as np

    from repro.datasets.synthetic import SyntheticWorkload
    from repro.faults import ArqPolicy, FaultDriver, FaultPlan
    from repro.faults.plan import IndependentLoss, RandomOutages
    from repro.network.routing import build_routing_tree
    from repro.network.topology import connected_random_graph
    from repro.serving import MultiQueryRunner, PhiQuery, QueryRegistry, phi_label
    from repro.types import QuerySpec

    rng = np.random.default_rng(args.seed)
    graph = connected_random_graph(args.nodes + 1, args.radio_range, rng)
    tree = build_routing_tree(graph, root=0)
    workload = SyntheticWorkload(graph.positions, rng)
    spec = QuerySpec(r_min=workload.r_min, r_max=workload.r_max)
    registry = QueryRegistry()
    for phi in args.phis:
        registry.register(PhiQuery(phi_label(phi), phis=(phi,), eps=args.eps))
    arq = ArqPolicy(max_retries=args.retries) if args.retries > 0 else None

    def make_plan():
        return FaultPlan(
            loss=IndependentLoss(args.loss) if args.loss > 0 else None,
            outages=(
                RandomOutages(args.transient) if args.transient > 0 else None
            ),
            seed=args.seed,
        )

    def fault_driver(factory):
        return FaultDriver(
            factory, spec, tree, workload, make_plan(), arq,
            graph=graph, radio_range=args.radio_range,
        )

    runner = MultiQueryRunner(
        registry, spec, tree, workload, make_plan(), arq,
        graph=graph, radio_range=args.radio_range,
    )
    return runner, fault_driver


def _run_queries(args) -> int:
    """The ``queries`` subcommand: serve a small dashboard and report it."""
    import numpy as np

    from repro.core.sketchq import SketchQuantile
    from repro.experiments.report import format_query_table
    from repro.serving import GroupByQuery, RangeQuery

    runner, fault_driver = _served_deployment(args)
    registry = runner.registry
    if args.regions > 0:
        span = float(runner.driver.graph.positions[:, 0].max()) + 1e-9
        width = span / args.regions

        def stripe(vertex, position, _w=width):
            if position is None:
                return "r0"
            return f"r{int(position[0] // _w)}"

        registry.register(
            GroupByQuery("regions", assign=stripe, eps=args.eps)
        )
    for low, high in args.ranges or ():
        registry.register(
            RangeQuery(
                f"frac[{low:g},{high:g}]",
                low=int(low),
                high=int(high),
                eps=args.eps,
            )
        )
    runner.run(args.rounds)

    def mj_per_round(ledger):
        return (
            float(np.sum(ledger.round_energy_history, axis=0).sum())
            / args.rounds * 1e3
        )

    total = mj_per_round(runner.driver.ledger)
    print(
        format_query_table(
            runner.stats(),
            title=(
                f"multi-query serving: {len(registry)} queries, "
                f"{args.nodes} nodes, {args.rounds} rounds, "
                f"eps={args.eps:g}, loss={args.loss:g}, "
                f"transient={args.transient:g}"
            ),
        )
    )
    print(f"\ntotal radio energy: {total:.3f} mJ/round "
          f"({total / max(1, len(registry)):.3f} mJ/round per query)")

    if not args.no_baseline:
        baseline_driver = fault_driver(lambda s: SketchQuantile(s, eps=args.eps))
        baseline_driver.run(args.rounds)
        baseline = mj_per_round(baseline_driver.ledger)
        k = len(registry)
        print(
            f"single-query SKQ baseline: {baseline:.3f} mJ/round — "
            f"{k} queries served at {total / baseline:.2f}x one tracker "
            f"(independent runs would cost ~{k}x)"
        )
    return 0


def _run_history(args) -> int:
    """The ``history`` subcommand: serve a run, then read its past back."""
    import time

    runner, _ = _served_deployment(args)
    runner.run(args.rounds)
    store = runner.history

    print(
        f"history service: {len(runner.registry)} queries, {args.nodes} nodes, "
        f"{args.rounds} rounds, loss={args.loss:g}, "
        f"transient={args.transient:g} — all reads root-side, zero radio"
    )
    window_heads = "".join(f" {'win' + str(n):>9s}" for n in args.windows)
    decay_heads = "".join(f" {'hl' + f'{h:g}':>9s}" for h in args.half_lives)
    print(
        f"{'query':>12s} {'latest':>8s} {'age':>4s} {'trust':>5s}"
        f"{window_heads}{decay_heads} {'all-time':>9s}"
    )
    for query in store.queries():
        for label in store.labels(query):
            latest = store.latest(query, label)
            windows = "".join(
                f" {store.window(query, n, label).value:9.1f}"
                for n in args.windows
            )
            decays = "".join(
                f" {store.decayed(query, h, label).value:9.1f}"
                for h in args.half_lives
            )
            alltime = store.summary_quantile(query, 0.5, label).value
            name = query if query == label or query == "__primary__" else (
                f"{query}/{label}"
            )
            print(
                f"{name:>12s} {latest.value:8.1f} {latest.age_rounds:4d} "
                f"{'yes' if latest.trustworthy else 'NO':>5s}"
                f"{windows}{decays} {alltime:9.1f}"
            )
    for r in args.at_round or ():
        for query in store.queries():
            label = store.labels(query)[0]
            read = store.at_round(query, r, label)
            print(
                f"at round {r}: {query}/{label} = {read.value:g} "
                f"(observed round {read.round_index}, "
                f"age {read.age_rounds} rounds, "
                f"{'trusted' if read.trustworthy else 'untrusted'})"
            )

    # Replay a read-heavy client against the warm cache: the serving
    # story is thousands of dashboard reads per absorbed round.
    queries = [q for q in store.queries() if store.labels(q)]
    reads = max(1, args.reads)
    start = time.perf_counter()
    for index in range(reads):
        query = queries[index % len(queries)]
        label = store.labels(query)[0]
        n = args.windows[index % len(args.windows)]
        half_life = args.half_lives[index % len(args.half_lives)]
        store.window(query, n, label)
        store.decayed(query, half_life, label)
        store.latest(query, label)
    elapsed = time.perf_counter() - start
    total = sum(s.hits + s.misses for s in store.cache_stats())
    hits = sum(s.hits for s in store.cache_stats())
    items = max(store.size_items(q) for q in queries)
    print(
        f"\nread replay: {3 * reads} reads in {elapsed * 1e3:.1f} ms "
        f"({3 * reads / elapsed:,.0f} reads/sec), cache hit rate "
        f"{hits / total:.1%} ({hits}/{total}), "
        f"<= {items} retained items per query"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
