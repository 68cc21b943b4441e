"""Vector/object simulation-core speed ratio per paper algorithm (clean-1k).

A one-off measurement for ``NOTES.md``, not a benchmark workload: the
object core it compares against is due to be deleted.  Each algorithm runs
``--rounds`` rounds on the first clean-1k deployment of ``--seed`` under
``REPRO_SIM_CORE=object`` and ``=vector`` in turn, ``--repeats`` times
with the order alternating, and the medians are compared.

    python3 perfbench/core_ratio.py --seed 1 --rounds 20 --repeats 5
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import SimulationRunner  # noqa: E402
from workloads import ALGORITHMS, RADIO_RANGE_M, deploy  # noqa: E402

CORE_ENV = "REPRO_SIM_CORE"


def rounds_per_sec(dep, factory, core: str, rounds: int) -> float:
    os.environ[CORE_ENV] = core
    runner = SimulationRunner(dep.tree, RADIO_RANGE_M)
    start = perf_counter()
    runner.run(factory(dep.spec), dep.workload.values, rounds)
    return rounds / (perf_counter() - start)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    dep = deploy(args.seed, 0, 1000)
    previous = os.environ.get(CORE_ENV)
    print(f"{'algorithm':<8} {'object r/s':>10} {'vector r/s':>10} {'ratio':>6}")
    try:
        for name, factory in ALGORITHMS:
            rates = {"object": [], "vector": []}
            for repeat in range(args.repeats):
                order = ("object", "vector") if repeat % 2 == 0 else ("vector", "object")
                for core in order:
                    rates[core].append(rounds_per_sec(dep, factory, core, args.rounds))
            obj, vec = (statistics.median(rates[c]) for c in ("object", "vector"))
            print(f"{name:<8} {obj:10.1f} {vec:10.1f} {vec / obj:6.2f}")
    finally:
        if previous is None:
            os.environ.pop(CORE_ENV, None)
        else:
            os.environ[CORE_ENV] = previous


if __name__ == "__main__":
    main()
