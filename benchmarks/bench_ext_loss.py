"""Extension E-ext2: rank error under message loss (Section 6 future work).

Sweeps the per-transmission loss probability and reports, per algorithm,
how often the answer was still exact, how far off it was in rank and value,
and how often the protocol state broke down entirely (requiring a re-sync).
"""

from __future__ import annotations

from repro.experiments.config import default_algorithms

from benchmarks.common import archive, bench_scale, run_once
from repro.faults import run_fault_experiment

LOSS_RATES = (0.0, 0.01, 0.05, 0.1, 0.2)


def compute():
    scale = bench_scale()
    algorithms = {
        name: factory
        for name, factory in default_algorithms().items()
        if name in ("TAG", "POS", "HBC", "IQ")
    }
    # Message loss alone: i.i.d. loss with no ARQ retries, no churn.
    return run_fault_experiment(
        algorithms,
        loss_rates=LOSS_RATES,
        retry_budgets=(0,),
        num_nodes=max(50, round(500 * scale)),
        num_rounds=max(25, round(250 * scale)),
    )


def test_ext_loss_rank_error(benchmark):
    result = run_once(benchmark, compute)

    lines = [
        f"{'algorithm':10s} {'loss':>5s} {'exact':>7s} {'rank-err':>9s} "
        f"{'value-err':>10s} {'failures':>9s}"
    ]
    algorithms = sorted({p.algorithm for p in result.points})
    for name in algorithms:
        for point in result.series(name):
            lines.append(
                f"{name:10s} {point.loss_rate:5.2f} "
                f"{point.exact_fraction:7.2f} {point.mean_rank_error:9.2f} "
                f"{point.mean_value_error:10.2f} {point.failure_rate:9.2f}"
            )
    text = "\n".join(lines) + "\n"
    print("\n" + text)
    archive("ext_loss", text)

    for name in algorithms:
        series = result.series(name)
        # Lossless operation is exact; errors grow with the loss rate.
        assert series[0].exact_fraction == 1.0
        assert series[0].mean_rank_error == 0.0
        assert series[-1].exact_fraction < 1.0
        assert series[-1].mean_rank_error >= series[0].mean_rank_error
