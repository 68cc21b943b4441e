"""Span tracer for the end-to-end benchmark's traced runs.

The tracer wraps the public entry points of each package layer from the
outside (class attributes and module functions, patched on ``install`` and
restored on ``uninstall``), so the program itself carries no tracing code.
Every wrapped call opens a span holding its name, start, end, parent span,
round and algorithm; spans stay in memory and are written out at the end.

Two kinds of boundary exist:

* span boundaries (convergecast, broadcast, algorithm rounds, repair, ...):
  one span per call, nested under the span that was open when the call
  started;
* hot boundaries (payload ``merged_with`` and the scalar ledger charges),
  called once per hop: they add a count and summed time to the round and
  to the enclosing span instead of a span of their own, which keeps the
  overhead bounded.  Calls made inside a hot call are not traced again.

Self time is a span's duration minus its child spans and the hot time
spent directly inside it.  The round span's self time is the round's
unattributed time, so per round the layer self times plus the
unattributed time add up to the round's traced wall time.

The engine compares a few hook methods by identity and silently drops to
a slower path when they differ, so the tracer never wraps them
(:data:`NEVER_WRAP`); ``install`` refuses a boundary table that would.
``install`` also refuses to run when a boundary is missing from the
package (a method moved or renamed), because its layer would then read 0
and its time would show up in another layer without warning.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from time import perf_counter

#: (owner dotted path, attribute) pairs the engine compares by identity.
#: Wrapping any of them would reroute the simulation onto another path.
NEVER_WRAP = frozenset(
    {
        ("repro.sim.engine.TreeNetwork", "_vertex_down"),
        ("repro.sim.engine.TreeNetwork", "_hop_delivered"),
        ("repro.sim.engine.TreeNetwork", "_down_mask"),
        ("repro.sim.engine.Payload", "is_empty"),
        ("repro.faults.plan.FaultPlan", "is_down"),
        ("repro.faults.plan.FaultPlan", "transmission_lost"),
        ("repro.faults.network.ArqPolicy", "attempts_for"),
        ("repro.faults.network.ArqPolicy", "observe"),
    }
)

#: Fixed span boundaries: (module, class or "" for a module function,
#: attribute, span name).  The span name's first component is its layer.
FIXED_SPANS = (
    ("repro.sim.engine", "TreeNetwork", "convergecast", "sim.convergecast"),
    ("repro.sim.engine", "TreeNetwork", "broadcast", "sim.broadcast"),
    ("repro.sim.runner", "", "exact_quantile", "sim.oracle"),
    ("repro.sim.runner", "", "rank_error", "sim.oracle"),
    ("repro.faults.experiment", "", "exact_quantile", "sim.oracle"),
    ("repro.faults.experiment", "", "insertion_rank_error", "sim.oracle"),
    ("repro.serving.registry", "", "rank_error", "sim.oracle"),
    ("repro.radio.ledger", "EnergyLedger", "charge_batch", "radio.charge_batch"),
    ("repro.radio.ledger", "EnergyLedger", "begin_round", "radio.round"),
    ("repro.radio.ledger", "EnergyLedger", "end_round", "radio.round"),
    ("repro.faults.plan", "FaultPlan", "begin_round", "faults.plan"),
    ("repro.faults.network", "FaultyTreeNetwork", "convergecast", "faults.convergecast"),
    ("repro.faults.network", "FaultyTreeNetwork", "live_sensor_nodes", "faults.live_set"),
    ("repro.faults.repair", "TreeRepair", "repair_round", "recovery.repair"),
    ("repro.faults.watchdog", "RootWatchdog", "observe", "recovery.watchdog"),
    ("repro.faults.failover", "RootFailover", "maybe_failover", "recovery.failover"),
    ("repro.serving.registry", "QueryRegistry", "answers", "serving.answers"),
    ("repro.serving.registry", "QueryRegistry", "plan", "serving.plan"),
    ("repro.sketch.qdigest", "QDigest", "rank_bounds", "sketch.rank_bounds"),
    ("repro.sketch.qdigest", "QDigest", "quantile", "sketch.quantile"),
    ("repro.sketch.qdigest", "QDigest", "merged", "sketch.merged"),
    ("repro.serving.history", "HistoryStore", "absorb_answers", "history.absorb"),
    ("repro.serving.history", "HistoryStore", "absorb_report", "history.absorb"),
    ("repro.serving.history", "HistoryStore", "latest", "history.read"),
    ("repro.serving.history", "HistoryStore", "window", "history.read"),
    ("repro.serving.history", "HistoryStore", "decayed", "history.read"),
    ("repro.serving.history", "HistoryStore", "at_round", "history.read"),
    ("repro.serving.history", "HistoryStore", "summary_quantile", "history.read"),
    ("repro.serving.history", "HistoryStore", "cache_stats", "history.cache_stats"),
)

#: Fixed hot boundaries (counted and timed, no span per call).
FIXED_HOT = (
    ("repro.radio.ledger", "EnergyLedger", "charge_send", "radio.charge"),
    ("repro.radio.ledger", "EnergyLedger", "charge_recv", "radio.charge"),
)

ROUND = "round"
#: Column names of :meth:`Tracer.write` (times in µs from the pass's first span).
HEADER = "pass\tid\tparent\tname\tstart_us\tend_us\tround\tworkload\talgorithm\n"
CONVERGECASTS = ("sim.convergecast", "faults.convergecast")

# Span record layout (lists, for cheap in-place updates).
NAME, START, END, PARENT, ROOT, ROUND_ID, CELL, HOT, SIZE = range(9)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


#: Names every :func:`_dynamic_boundaries` search must find at least once.
DYNAMIC_NAMES = (
    "datasets.values",
    "core.initialize",
    "core.update",
    "serving.gate.initialize",
    "serving.gate.update",
    "payloads.merge",
)


def _dynamic_boundaries():
    """Boundaries found by class hierarchy, so renamed or added algorithm,
    workload and payload classes stay traced without editing this file."""
    import repro.serving  # noqa: F401  (registers the serving subclasses)
    from repro import ContinuousQuantileAlgorithm, Workload
    from repro.sim import Payload

    spans, hot = [], []
    for cls in _subclasses(Workload):
        if "values" in vars(cls):
            spans.append((cls, "values", "datasets.values"))
    for cls in _subclasses(ContinuousQuantileAlgorithm):
        layer = "serving.gate" if cls.__module__.startswith("repro.serving") else "core"
        for attr in ("initialize", "update"):
            if attr in vars(cls):
                spans.append((cls, attr, f"{layer}.{attr}"))
    for cls in _subclasses(Payload):
        if "merged_with" in vars(cls):
            hot.append((cls, "merged_with", "payloads.merge"))
    return spans, hot


def _resolve(module: str, owner: str):
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(mod, owner, None) if owner else mod


def _fixed_boundaries():
    """(targets, missing) of the fixed tables: ``missing`` names every
    entry whose module, class or own attribute the package lacks."""
    targets, missing = [], []
    for table, is_hot in ((FIXED_SPANS, False), (FIXED_HOT, True)):
        for module, owner, attr, name in table:
            resolved = _resolve(module, owner)
            if resolved is None or attr not in vars(resolved):
                missing.append(".".join(filter(None, (module, owner, attr))))
            else:
                targets.append((resolved, attr, name, is_hot))
    return targets, missing


def _dotted(owner) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    return owner.__name__


def _guarded(owner, attr: str) -> bool:
    """True when patching ``owner.attr`` would break an identity check."""
    if not isinstance(owner, type):
        return False
    names = {_dotted(c) for c in owner.__mro__}
    return any(cls in names and attr == name for cls, name in NEVER_WRAP)


@dataclass
class RoundTrace:
    """One traced round: wall time split into per-boundary self times."""

    cell: str
    index: int
    wall: float
    self_time: dict[str, float] = field(default_factory=dict)
    hot: dict[str, list] = field(default_factory=dict)  # name -> [count, seconds]
    counts: dict[str, int] = field(default_factory=dict)  # span name -> calls
    unattributed: float = 0.0

    def layer_self(self) -> dict[str, float]:
        """Self time per layer (span and hot time), unattributed excluded."""
        out: dict[str, float] = {}
        for name, seconds in self.self_time.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds
        for name, (_, seconds) in self.hot.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out


class Tracer:
    """Records spans and hot counters while installed.

    ``cell`` names the algorithm (or query run) the benchmark is driving;
    every span records it.  Rounds are opened and closed by the benchmark
    (:meth:`begin_round` / :meth:`end_round`) around its own calls.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.cell = ""
        self.spans: list[list] = []
        self.rounds: list[tuple[str, int, int]] = []  # (cell, index, span id)
        self.hot: dict[tuple[int, str], list] = {}
        self._stack: list[int] = []
        self._round_id = -1
        self._in_round = False
        self._hot_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; raises, wrapping nothing, when a boundary is
        missing from the package or is an identity-compared hook."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets, missing = _fixed_boundaries()
        spans, hot = _dynamic_boundaries()
        targets += [(o, a, n, False) for o, a, n in spans]
        targets += [(o, a, n, True) for o, a, n in hot]
        found = {name for _, _, name, _ in targets}
        missing += [name for name in DYNAMIC_NAMES if name not in found]
        if missing:
            raise RuntimeError(f"boundaries missing from the package: {', '.join(missing)}")
        for owner, attr, _, _ in targets:
            if _guarded(owner, attr):
                raise RuntimeError(f"refusing to wrap {_dotted(owner)}.{attr}")
        for owner, attr, name, is_hot in targets:
            original = vars(owner)[attr]
            wrapper = self._hot_wrapper if is_hot else self._span_wrapper
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper(name, original))

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self
        sized_by_args = name in CONVERGECASTS  # contributions mapping
        sized_by_result = name == "recovery.failover"  # event or None

        def traced(*args, **kwargs):
            if tracer._hot_depth:
                return fn(*args, **kwargs)
            span = tracer.spans[tracer._open(name)]
            if sized_by_args:
                span[SIZE] = len(args[1])
            try:
                result = fn(*args, **kwargs)
                if sized_by_result:
                    span[SIZE] = int(result is not None)
                return result
            finally:
                tracer._close(span)

        return traced

    def _hot_wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._hot_depth:
                return fn(*args, **kwargs)
            tracer._hot_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._hot_depth = 0
                tracer._add_hot(name, elapsed)

        return traced

    # -- span bookkeeping -----------------------------------------------------

    def _open(self, name: str, start: float | None = None) -> int:
        stack = self._stack
        sid = len(self.spans)
        parent = stack[-1] if stack else -1
        root = stack[0] if stack else sid
        round_id = self._round_id if self._in_round else -1
        span = [name, 0.0, 0.0, parent, root, round_id, self.cell, 0.0, -1]
        self.spans.append(span)
        stack.append(sid)
        span[START] = perf_counter() if start is None else start
        return sid

    def _close(self, span: list, end: float | None = None) -> None:
        span[END] = perf_counter() if end is None else end
        self._stack.pop()

    def _add_hot(self, name: str, elapsed: float) -> None:
        stack = self._stack
        if stack:
            self.spans[stack[-1]][HOT] += elapsed
        key = (self._round_id if self._in_round and stack else -1, name)
        entry = self.hot.get(key)
        if entry is None:
            self.hot[key] = [1, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed

    def begin_round(self, index: int, start: float) -> None:
        """Open the round span at the benchmark's own timestamp."""
        if self._stack:
            raise RuntimeError("a round opened inside an open span")
        self._round_id = len(self.rounds)
        self._in_round = True
        sid = self._open(ROUND, start)
        self.rounds.append((self.cell, index, sid))

    def end_round(self, end: float) -> None:
        """Close the open round span at the benchmark's own timestamp."""
        self._close(self.spans[self.rounds[self._round_id][2]], end)
        self._in_round = False

    # -- derived numbers ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span (duration minus children and hot time)."""
        spans = self.spans
        own = [s[END] - s[START] - s[HOT] for s in spans]
        for s in spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def round_traces(self) -> list[RoundTrace]:
        """Per-round self-time breakdown, in round order."""
        spans = self.spans
        traces = [
            RoundTrace(cell=cell, index=index, wall=spans[sid][END] - spans[sid][START])
            for cell, index, sid in self.rounds
        ]
        by_sid = {sid: i for i, (_, _, sid) in enumerate(self.rounds)}
        for sid, (span, own) in enumerate(zip(spans, self.self_times())):
            trace_index = by_sid.get(span[ROOT])
            if trace_index is None:
                continue
            trace = traces[trace_index]
            name = span[NAME]
            if name == ROUND and span[ROOT] == sid:
                trace.unattributed = own
                continue
            trace.self_time[name] = trace.self_time.get(name, 0.0) + own
            trace.counts[name] = trace.counts.get(name, 0) + 1
        for (round_id, name), (count, seconds) in self.hot.items():
            if 0 <= round_id < len(traces):
                entry = traces[round_id].hot.setdefault(name, [0, 0.0])
                entry[0] += count
                entry[1] += seconds
        return traces

    def write(self, out, traced_pass: int) -> None:
        """Write every span as one tab-separated line (see :data:`HEADER`)."""
        origin = self.spans[0][START] if self.spans else 0.0
        for sid, s in enumerate(self.spans):
            round_index = self.rounds[s[ROUND_ID]][1] if s[ROUND_ID] >= 0 else -1
            start, end = (s[START] - origin) * 1e6, (s[END] - origin) * 1e6
            out.write(
                f"{traced_pass}\t{sid}\t{s[PARENT]}\t{s[NAME]}\t{start:.1f}\t{end:.1f}\t"
                f"{round_index}\t{self.workload}\t{s[CELL]}\n"
            )
