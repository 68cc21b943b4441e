"""Fault injection and recovery: lossy links, node churn, ARQ, watchdog.

This package is the single seam through which *every* algorithm (exact and
sketch) runs under injected faults: :class:`FaultyTreeNetwork` plugs a
:class:`FaultPlan` into the engine's fault seam, :class:`ArqPolicy` adds
per-hop acknowledgements with a bounded retry budget, and
:class:`RootWatchdog` turns persistently silent subtrees into measured
re-initializations.  :class:`TreeRepair` reacts *before* the watchdog has
to: orphaned subtrees re-attach to in-range neighbours and transient
leavers are detached from / rejoined to the query with their filters
intact, while :class:`AdaptiveArqPolicy` tunes each link's retry budget to
its observed loss.  Even the sink may fail: :class:`RootFailover` elects a
successor among the live root children, migrates the root-side query
state in one charged flood, and re-roots the tree in place (the plan no
longer special-cases the root).  ``run_fault_experiment`` sweeps all of
it (the :class:`FaultDriver` round loop is steppable by tests).
"""

from repro.faults.experiment import (
    FaultDriver,
    FaultExperimentResult,
    FaultSeriesPoint,
    RoundReport,
    fault_lineup,
    run_fault_experiment,
)
from repro.faults.network import (
    AdaptiveArqPolicy,
    ArqPolicy,
    FaultyTreeNetwork,
)
from repro.faults.failover import FailoverEvent, RootFailover
from repro.faults.plan import (
    ChurnModel,
    CompositeChurn,
    FaultPlan,
    GilbertElliottLoss,
    IndependentLoss,
    LinkLossModel,
    OutageModel,
    RandomChurn,
    RandomOutages,
    ScheduledChurn,
    ScheduledOutages,
)
from repro.faults.repair import RepairRound, RepairStats, TreeRepair
from repro.faults.watchdog import RootWatchdog
from repro.sim.oracle import insertion_rank_error

__all__ = [
    "AdaptiveArqPolicy",
    "ArqPolicy",
    "ChurnModel",
    "CompositeChurn",
    "FailoverEvent",
    "FaultDriver",
    "FaultExperimentResult",
    "FaultPlan",
    "FaultSeriesPoint",
    "FaultyTreeNetwork",
    "GilbertElliottLoss",
    "IndependentLoss",
    "LinkLossModel",
    "OutageModel",
    "RandomChurn",
    "RandomOutages",
    "RepairRound",
    "RootFailover",
    "RepairStats",
    "RootWatchdog",
    "RoundReport",
    "ScheduledChurn",
    "ScheduledOutages",
    "TreeRepair",
    "fault_lineup",
    "insertion_rank_error",
    "run_fault_experiment",
]
