"""The benchmark's own tests: determinism, fingerprints, tracer hygiene.

Small deployments keep them fast; run with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tracing
import workloads
from workloads import Recorder

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: Per-workload sizes small enough for a test, large enough to keep a
#: 35 m-range deployment connected and to reach the mid-run sink kill.
SMALL = {
    "clean-1k": {"nodes": 120, "deployments": 1, "rounds": 6},
    "faults-1k": {"nodes": 120, "deployments": 1, "rounds": 8},
    "serving-300": {"nodes": 120, "deployments": 1, "rounds": 16},
}


def one_pass(name: str, seed: int, tracer=None) -> Recorder:
    rec = Recorder(tracer=tracer)
    run.run_pass(workloads.WORKLOADS[name](seed, **SMALL[name]), rec)
    return rec


@pytest.mark.parametrize("name", sorted(SMALL))
def test_one_seed_repeats_its_fingerprint_and_checks_pass(name):
    first, second = one_pass(name, 3), one_pass(name, 3)
    assert first.fingerprint == second.fingerprint
    assert first.sim == second.sim
    assert first.attempted > 0 and first.failed == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_passes_share_the_fingerprint(name):
    plain = one_pass(name, 4)
    traced = one_pass(name, 4, tracing.Tracer(name))
    assert traced.fingerprint == plain.fingerprint
    assert traced.sim == plain.sim


def test_a_different_seed_changes_every_stream():
    a, b = workloads.deploy(1, 0, 120), workloads.deploy(2, 0, 120)
    assert not np.array_equal(a.graph.positions, b.graph.positions)
    assert not np.array_equal(a.workload.values(3), b.workload.values(3))
    again = workloads.deploy(1, 0, 120)
    assert np.array_equal(a.graph.positions, again.graph.positions)
    assert np.array_equal(a.workload.values(3), again.workload.values(3))
    # On one deployment, the seed alone still changes the fault stream.
    fingerprints = []
    for seed in (1, 2):
        lineup = workloads.FaultLineup(seed, **SMALL["faults-1k"])
        rec = Recorder()
        for cell in lineup.build(a)[:1]:
            lineup.drive(cell, rec)
        fingerprints.append(rec.fingerprint)
    assert fingerprints[0] != fingerprints[1]
    for name in SMALL:
        assert one_pass(name, 1).fingerprint != one_pass(name, 2).fingerprint


def _never_wrap_targets():
    import importlib

    for owner, attr in sorted(tracing.NEVER_WRAP):
        module, cls = owner.rsplit(".", 1)
        yield getattr(importlib.import_module(module), cls), attr


def test_tracer_keeps_hook_identities_and_restores_everything():
    from repro import EnergyLedger, EnergyModel, TreeNetwork
    from repro.faults import FaultyTreeNetwork

    hooks = [(owner, attr, vars(owner)[attr]) for owner, attr in _never_wrap_targets()]
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        patched = list(tracer._patches)
        assert patched, "the tracer wrapped nothing"
        for owner, attr, original in hooks:
            assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} was wrapped"
        dep = workloads.deploy(1, 0, 120)
        ledger = EnergyLedger(dep.tree.num_vertices, dep.tree.root, EnergyModel(), 35.0)
        assert TreeNetwork(dep.tree, ledger)._vector_convergecast
        assert FaultyTreeNetwork(dep.tree, ledger)._vector_faulty_convergecast
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original


def test_every_fixed_boundary_resolves():
    targets, missing = tracing._fixed_boundaries()
    assert missing == []
    assert len(targets) == len(tracing.FIXED_SPANS) + len(tracing.FIXED_HOT)
    found = {name for _, _, name in sum(tracing._dynamic_boundaries(), [])}
    assert set(tracing.DYNAMIC_NAMES) <= found


def test_tracer_refuses_a_missing_boundary(monkeypatch):
    moved = ("repro.sim.engine", "TreeNetwork", "no_such_method", "sim.convergecast")
    monkeypatch.setattr(tracing, "FIXED_SPANS", tracing.FIXED_SPANS + (moved,))
    tracer = tracing.Tracer("test")
    with pytest.raises(RuntimeError, match="repro.sim.engine.TreeNetwork.no_such_method"):
        tracer.install()
    assert not tracer._patches


def test_tracer_refuses_an_identity_compared_hook(monkeypatch):
    guarded = ("repro.faults.plan", "FaultPlan", "is_down", "faults.down")
    monkeypatch.setattr(tracing, "FIXED_SPANS", tracing.FIXED_SPANS + (guarded,))
    tracer = tracing.Tracer("test")
    with pytest.raises(RuntimeError, match="refusing to wrap"):
        tracer.install()
    assert not tracer._patches


@pytest.mark.parametrize("name", ["faults-1k", "serving-300"])
def test_spans_nest_and_round_self_times_add_up(name):
    tracer = tracing.Tracer(name)
    rec = one_pass(name, 5, tracer)
    spans = tracer.spans
    assert len(tracer.rounds) == len(rec.rounds)
    for span in spans:
        assert span[tracing.START] <= span[tracing.END]
        if span[tracing.PARENT] >= 0:
            parent = spans[span[tracing.PARENT]]
            assert parent[tracing.START] <= span[tracing.START]
            assert span[tracing.END] <= parent[tracing.END]
    layers = set()
    for trace, (cell, index, seconds, _) in zip(tracer.round_traces(), rec.rounds):
        assert (trace.cell, trace.index) == (cell, index)
        assert trace.wall == seconds
        total = sum(trace.layer_self().values()) + trace.unattributed
        assert total == pytest.approx(trace.wall, rel=1e-9, abs=1e-12)
        layers |= set(trace.layer_self())
    expected = {"datasets", "sim", "radio", "faults", "recovery", "payloads"}
    expected |= {"core"} if name == "faults-1k" else {"serving", "sketch", "history"}
    assert expected <= layers


def test_wrong_answers_are_counted_not_raised(monkeypatch):
    from repro import TAG

    class OffByOne(TAG):
        def update(self, net, values):
            outcome = super().update(net, values)
            return type(outcome)(quantile=outcome.quantile + 1)

    monkeypatch.setattr(workloads, "ALGORITHMS", (("TAG", OffByOne),))
    rec = one_pass("clean-1k", 1)
    rounds = SMALL["clean-1k"]["rounds"]
    assert rec.failed == rounds - 1  # every round after the initialization


def test_history_read_check_rejects_a_disagreeing_read():
    from repro.serving import HistoryRead

    read = HistoryRead("q", "p50", "window", 10.0, 7, 0, True, 8)
    assert workloads._agrees(read, ("window", 10.0, 7))
    assert not workloads._agrees(read, ("window", 10.5, 7))
    assert not workloads._agrees(read, ("window", 10.0, 6))
    assert not workloads._agrees(read, ("latest", 10.0, 7))


def test_every_declared_metric_is_emitted():
    small = dict(SMALL["faults-1k"], rounds=6)
    passes, tracers = run.measure(workloads.FaultLineup(2, **small), 0.0, tracing.Tracer)
    assert [rec.tracer is not None for rec in passes] == [True, False]
    end_to_end = run.end_to_end(passes)
    per_layer = run.per_layer(passes, tracers)
    assert list(end_to_end) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(per_layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for name, (value, unit) in {**end_to_end, **per_layer}.items():
        assert unit == units[name]
        assert np.isfinite(value)
    for name, (value, _) in end_to_end.items():
        assert value > 0, name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_missing_package_source_fails_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", Path(__file__).resolve().parent / "no-such-src")
    assert run.main(["--workload", "clean-1k", "--seed", "1", "--seconds", "1"]) != 0
    assert "{" not in capsys.readouterr().out
