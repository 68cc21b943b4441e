"""Round-based WSN simulation engine."""

from repro.sim.engine import Payload, PayloadBatch, TreeNetwork
from repro.sim.oracle import exact_quantile, quantile_rank
from repro.sim.runner import RunResult, SimulationRunner

__all__ = [
    "Payload",
    "PayloadBatch",
    "RunResult",
    "SimulationRunner",
    "TreeNetwork",
    "exact_quantile",
    "quantile_rank",
]
