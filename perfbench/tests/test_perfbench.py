"""Tests of the benchmark's own code, on batches small enough to run in seconds.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import PER_LAYER, Gate, Tracer, layer_metrics  # noqa: E402
from workloads import Isolate, Mincut, Outcome, Sfm, exact_mincut_value  # noqa: E402


def recorded(w):
    """``w`` with a two-entry pool recorded from the current code."""
    w.pool = w.record(run.import_isocut(), 2)
    return w


def small_mincut():
    return recorded(Mincut(n=6, units=2, pool=[]))


def small_sfm():
    return recorded(Sfm(n=6, pool=[]))


@pytest.fixture(scope="module")
def workloads():
    return [small_mincut(), small_sfm(), recorded(Isolate(40, (5, 10), pool=[]))]


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_pinned_pools_match_the_generators():
    mods = run.import_isocut()
    for make in (Mincut, Sfm):  # isolate's pool is checked by every isolate run
        w = make()
        assert len(w.pool) == 32
        for seed in (0, 1, 31):
            assert w.pinned(seed, w.make_inputs(mods, seed)) == [], (w.name, seed)


def test_inputs_are_byte_identical_for_a_seed(workloads):
    for w in workloads:
        first = json.dumps(w.make_inputs(run.import_isocut(), 5)).encode()
        again = json.dumps(w.make_inputs(run.import_isocut(), 5)).encode()
        other = json.dumps(w.make_inputs(run.import_isocut(), 6)).encode()
        assert first == again, w.name
        assert first != other, w.name


def test_exact_reference_matches_brute_force():
    mods = run.import_isocut()
    for seed in range(5):
        h, _, _ = mods.top.gen_planted(7, 14, 3, 5, np.random.default_rng(seed))
        _, value = mods.top.bruteforce_nontrivial_min(mods.top.CutOracle(h))
        assert exact_mincut_value(h) == value


def test_runs_are_correct_and_counters_repeat(workloads, tmp_path):
    counts = {name for name, unit in PER_LAYER if unit in ("count", "bytes_computed")}
    for w in workloads:
        plain, contexts = zip(*(run.run(w, 3, 0.01, False, tmp_path) for _ in range(2)))
        traced = [run.run(w, 3, 0.01, True, tmp_path)[0] for _ in range(2)]
        for res in plain + tuple(traced):
            assert res["correct"] and res["failed"] == 0, (w.name, res)
        assert all(c["setups"] >= run.SETUP_REPS for c in contexts)
        assert plain[0]["metrics"]["wall_s"]["value"] == pytest.approx(sum(contexts[0]["unit_s"]))
        # a unit's fastest pass is a sum of segments, each no faster than its best
        for c in contexts:
            assert all(s <= b * (1 + 1e-9) for s, b in zip(c["unit_s"], c["unit_best_s"]))
        assert plain[0]["metrics"]["blackbox_calls"] == plain[1]["metrics"]["blackbox_calls"]
        assert set(traced[0]["metrics"]) == {name for name, _ in PER_LAYER}
        for name in counts:
            assert traced[0]["metrics"][name] == traced[1]["metrics"][name], (w.name, name)
        assert (tmp_path / f"trace-{w.name}.npz").is_file()


class Corrupted:
    """Wraps a workload so that every unit's answer is damaged by ``damage``."""

    def __init__(self, inner, damage):
        self.inner, self.damage = inner, damage
        self.name = inner.name

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def setup(self, mods, inputs):
        units, parse_s = self.inner.setup(mods, inputs)
        return [lambda u=u: self.damage(u()) for u in units], parse_s


def _wrong_value(out: Outcome) -> Outcome:
    value, side = out.raw
    return Outcome((value + 1, side), out.blackbox_calls, out.oracle_queries)


def _wrong_isolating_value(out: Outcome) -> Outcome:
    res = out.raw
    v = min(res.values)
    values = {**res.values, v: res.values[v] + 1}
    return Outcome(type(res)(res.cells, res.isolating_sets, values, res.stats), out.blackbox_calls, out.oracle_queries)


def _wrong_call_count(out: Outcome) -> Outcome:
    return Outcome(out.raw, out.blackbox_calls + 1, out.oracle_queries)


@pytest.mark.parametrize("damage", [_wrong_value, _wrong_call_count])
def test_gate_flags_a_corrupted_mincut_or_sfm_answer(damage, tmp_path):
    for w in (small_mincut(), small_sfm()):
        res, context = run.run(Corrupted(w, damage), 3, 0.01, False, tmp_path)
        assert not res["correct"]
        assert res["failed"] == res["attempted"]
        assert context["errors"]


def test_gate_flags_a_corrupted_isolating_answer(workloads, tmp_path):
    res, context = run.run(Corrupted(workloads[2], _wrong_isolating_value), 3, 0.01, False, tmp_path)
    assert not res["correct"] and res["failed"] == res["attempted"]
    assert any("recorded digest" in e for e in context["errors"])


def test_inputs_that_differ_from_the_pool_fail_the_run(tmp_path):
    w = small_mincut()
    w.pool = [{"inputs": "0" * 64}] * len(w.pool)
    res, context = run.run(w, 3, 0.01, False, tmp_path)
    assert not res["correct"] and res["failed"] == res["attempted"]
    assert "recorded pool entry" in context["errors"][0]


def test_a_blackbox_the_gate_cannot_wrap_fails_the_run(monkeypatch, tmp_path):
    patch = Tracer.patch

    def renamed(self, label, owners, attr, make):
        if label == "BruteForceBlackbox.__call__":
            self.missing.add(label)
        else:
            patch(self, label, owners, attr, make)

    monkeypatch.setattr(Tracer, "patch", renamed)
    res, context = run.run(small_sfm(), 3, 0.01, False, tmp_path)
    assert not res["correct"] and res["failed"] == res["attempted"]
    assert "cannot wrap BruteForceBlackbox.__call__" in context["errors"][0]
    # mincut never calls that blackbox, so its gate still holds
    assert run.run(small_mincut(), 3, 0.01, False, tmp_path)[0]["correct"]


def test_an_inherited_call_is_wrapped_and_restored():
    class Base:
        def __call__(self):
            return 1

    class Sub(Base):
        pass

    gate = Gate()
    gate.patch("Sub.__call__", [Sub], "__call__", gate.spanned("sub", (("sub.calls", lambda a, k, out: out),)))
    assert Sub()() == 1 and gate.counts["sub.calls"] == 1
    assert len(gate.start) == 0  # the gate keeps counters, not spans
    gate.restore()
    assert "__call__" not in vars(Sub)
    assert Sub()() == 1 and gate.counts["sub.calls"] == 1
    assert tracing._lookup(type("NoCall", (), {}), "__call__") is None


def test_segments_cover_each_unit_and_must_line_up(workloads):
    w = workloads[0]
    mods = run.import_isocut()
    units, _ = w.setup(mods, w.make_inputs(mods, 2))
    gate = Gate()
    gate.install_gate(mods)
    try:
        first = run.run_pass(units, [], gate)
    finally:
        gate.restore()
    for seg, t in zip(first.segments, first.times):
        assert len(seg) > 1 and (seg >= 0).all()
        assert seg.sum() == pytest.approx(t)
    best, errors = [], []
    run.fold_segments(best, first, errors)
    assert not first.segments and not errors
    other = run.Pass(0.0, segments=[b[:-1].copy() for b in best])
    run.fold_segments(best, other, errors)
    assert other.flagged == set(range(len(units))) and len(errors) == len(units)


def test_self_times_are_within_their_span(workloads):
    for w in workloads:
        mods = run.import_isocut()
        units, _ = w.setup(mods, w.make_inputs(mods, 2))
        tracer = Tracer()
        tracer.install_all(mods)
        try:
            run.run_pass(units, [])
        finally:
            tracer.restore()
        dur, self_t = tracer.durations()
        assert len(dur) > 0
        assert (self_t >= 0).all(), w.name
        assert (self_t <= dur).all(), w.name


def test_a_removed_name_drops_its_metrics_without_crashing():
    tracer = Tracer()
    tracer.patch("hypergraph.cut_value", [SimpleNamespace()], "cut_value", tracer.spanned("hypergraph.cut_value"))
    tracer.patch("hypergraph.cut_value", [None], "cut_value", tracer.spanned("hypergraph.cut_value"))
    metrics = layer_metrics(tracer, 0.0, 1.0)
    assert "hypergraph.cut_value.calls" not in metrics
    assert "hypergraph.cut_value.s" not in metrics
    assert "kernels.solve.calls" in metrics
