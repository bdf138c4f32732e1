#!/usr/bin/env python3
"""Benchmark for isocut: one seeded workload, timed, checked, optionally traced.

    python3 perfbench/run.py --workload mincut --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout without installing anything: the
package is imported from ``src/``.  The run

1. generates the workload's inputs from the seed;
2. times set-up (import, parse, build oracles): once before the timed
   passes, once after each, and again until there are ``SETUP_REPS``;
   the fastest counts;
3. solves the first unit once, untimed, as a warm-up;
4. runs timed passes over the batch for about ``--seconds`` seconds, counting
   blackbox calls: every ``isolating_sets`` call must make exactly
   ceil(log2 |R|) + |R| of them, and a run whose blackbox or
   ``isolating_sets`` cannot be wrapped for counting fails.  The entries to
   and exits from those calls cut each unit into segments of a fraction of
   a millisecond, and each segment's fastest time over the passes counts;
5. with ``--trace 1``, runs one more pass with spans at every layer boundary;
6. checks that the inputs match the recorded pool and every answer against
   an independent reference.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
The line before it records the run context.  A failed check exits with 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 15
SUBMODULES = ("core", "driver", "isolating", "sfm", "hypergraph")

sys.path.insert(0, str(HERE))

from tracing import PER_LAYER, Gate, Tracer, layer_metrics  # noqa: E402
from workloads import Isolate, Mincut, Sfm  # noqa: E402

WORKLOADS = {"mincut": Mincut, "isolate": Isolate, "sfm": Sfm}
END_TO_END = {"wall_s": "s", "solve_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB", "blackbox_calls": "count"}


def import_isocut() -> SimpleNamespace:
    """Import the package afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "isocut" or m.startswith("isocut.")]:
        del sys.modules[name]
    top = importlib.import_module("isocut")
    return SimpleNamespace(top=top, **{name: getattr(top, name, None) for name in SUBMODULES})


def speed_probe() -> float:
    """Best of five runs of a fixed pure-Python loop: machine-state context."""
    best = float("inf")
    for _ in range(5):
        start = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i & 7
        best = min(best, perf_counter() - start)
    return best


@dataclass
class Pass:
    wall: float
    times: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    flagged: set = field(default_factory=set)
    # per unit, the durations of its segments (timed passes only)
    segments: list = field(default_factory=list)


def run_pass(units, errors: list, gate: Tracer | None = None) -> Pass:
    """Run every unit once.  A raised exception is recorded, not propagated.
    With ``gate``, each unit's counted blackbox calls must match its report;
    a ``Gate`` also cuts each unit into segments at its marks."""
    p = Pass(0.0)
    segmented = isinstance(gate, Gate)
    start = perf_counter()
    for i, unit in enumerate(units):
        if gate is not None:
            calls0, errors0 = gate.counts.get("blackbox.calls", 0), len(gate.gate_errors)
        if segmented:
            del gate.marks[:]
        u0 = perf_counter()
        try:
            out = unit()
        except Exception:
            out = None
            errors.append(f"unit {i} raised: {traceback.format_exc()}")
        u1 = perf_counter()
        p.times.append(u1 - u0)
        if segmented:
            p.segments.append(np.diff(np.concatenate(([u0], gate.marks, [u1]))))
        p.outcomes.append(out)
        if gate is not None and out is not None:
            made = gate.counts.get("blackbox.calls", 0) - calls0
            if made != out.blackbox_calls:
                gate.gate_errors.append(f"unit {i} reported {out.blackbox_calls} blackbox calls, made {made}")
            if len(gate.gate_errors) > errors0:
                p.flagged.add(i)
    p.wall = perf_counter() - start
    return p


def fold_segments(best: list, p: Pass, errors: list) -> None:
    """Lower ``best`` (per unit, each segment's fastest time so far) to the
    pass's segments, and drop them from the pass.  A unit whose segments do
    not line up with earlier passes made different calls: it is flagged."""
    for i, seg in enumerate(p.segments):
        if len(best) <= i:
            best.append(seg)
        elif best[i].shape == seg.shape:
            np.minimum(best[i], seg, out=best[i])
        else:
            errors.append(f"unit {i}: {len(seg)} segments, {len(best[i])} in an earlier pass")
            p.flagged.add(i)
    p.segments.clear()


def timed_setup(workload, inputs):
    """One set-up: fresh import, parse, build oracles.
    Returns (seconds, parse seconds, modules, units)."""
    start = perf_counter()
    mods = import_isocut()
    units, parse_s = workload.setup(mods, inputs)
    return perf_counter() - start, parse_s, mods, units


def grade(workload, mods, seed, inputs, passes, errors: list) -> int:
    """Number of unit executions that failed; reasons go to ``errors``.

    A unit fails if it raised, if its answer changed between passes, if the
    call-count gate flagged it, or if the reference check rejects it.
    """
    failed = 0
    for i in range(len(inputs)):
        outs = [p.outcomes[i] for p in passes]
        done = [o for o in outs if o is not None]
        problems = []
        if len({workload.key(o) for o in done}) > 1:
            problems.append("answer differs between passes")
        if any(i in p.flagged for p in passes):
            problems.append("blackbox call count gate failed")
        if done:
            problems += workload.check(mods, seed, inputs, i, done[0].raw)
        errors.extend(f"unit {i}: {msg}" for msg in problems)
        failed += len(outs) if problems else len(outs) - len(done)
    return failed


def run(workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT):
    """One benchmark run; returns (result, context)."""
    probe_before = speed_probe()
    mods = import_isocut()
    inputs = workload.make_inputs(mods, seed)
    setup_s, parse_s, mods, units = timed_setup(workload, inputs)
    setups, parses = [setup_s], [parse_s]
    errors: list[str] = []

    def setup_again() -> None:
        # only the first set-up's units run
        s, p, _, _ = timed_setup(workload, inputs)
        setups.append(s)
        parses.append(p)

    # first-call costs (a JIT backend compiles here) stay out of the timing
    run_pass(units[:1], [])
    gate = Gate()
    gate.install_gate(mods)
    # problems that fail every unit: unpinned inputs, or a gate that cannot count
    broken = workload.pinned(seed, inputs) + [
        f"call-count gate cannot wrap {label}" for label in workload.gate if label in gate.missing
    ]
    timed: list[Pass] = []
    # per unit, each segment's fastest time so far
    best: list[np.ndarray] = []
    try:
        start = perf_counter()
        while not timed or perf_counter() - start + timed[-1].wall / 2 < seconds:
            p = run_pass(units, errors, gate)
            timed.append(p)
            fold_segments(best, p, errors)
            # set-ups are spread over the run, so that they see the same
            # machine states as the passes
            setup_again()
    finally:
        gate.restore()
    while len(setups) < SETUP_REPS:
        setup_again()
    errors += gate.gate_errors
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    passes = list(timed)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install_all(mods)
        try:
            traced = run_pass(units, errors, tracer)
        finally:
            tracer.restore()
        passes.append(traced)
        errors += tracer.gate_errors
        tracer.write(out_dir / f"trace-{workload.name}.npz")

    failed = grade(workload, mods, seed, inputs, passes, errors)
    attempted = sum(len(p.outcomes) for p in passes)
    if broken:
        errors[:0] = broken
        failed = attempted
    # each segment's fastest pass, and the fastest set-up: load from other
    # processes on a shared machine only ever adds time, in bursts far
    # shorter than a unit, so the minimum over short pieces is the estimate
    # it disturbs least
    unit_s = [float(b.sum()) for b in best]
    wall_s = sum(unit_s)
    first = [o for o in timed[0].outcomes if o is not None]

    if trace:
        metrics = layer_metrics(tracer, min(parses), traced.wall / wall_s)
        units_of = dict(PER_LAYER)
    else:
        metrics = {
            "wall_s": wall_s,
            "solve_s.p50": statistics.median(unit_s),
            "setup_s": min(setups),
            "peak_rss_mb": peak_rss_mb,
            "blackbox_calls": sum(o.blackbox_calls for o in first),
        }
        units_of = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }
    context = {
        "workload": workload.name,
        "seed": seed,
        "backend": mods.top.BACKEND,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "probe_before_s": probe_before,
        "probe_after_s": speed_probe(),
        "units": len(units),
        "timed_passes": len(timed),
        "solve_s.p50_samples": len(unit_s),
        "unit_s": unit_s,
        "unit_segments": [len(b) for b in best],
        "unit_best_s": [min(p.times[i] for p in timed) for i in range(len(units))],
        "unit_median_s": [statistics.median(p.times[i] for p in timed) for i in range(len(units))],
        "setups": len(setups),
        "setup_median_s": statistics.median(setups),
        "oracle_queries": sum(o.oracle_queries for o in first),
        "errors": errors[:20],
    }
    if tracer is not None:
        context.update(
            traced_wall_s=traced.wall,
            spans=len(tracer.start),
            missing=sorted(tracer.missing),
            broken_counters=tracer.broken,
        )
    return result, context


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "isocut" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'isocut'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import isocut

    if SRC.resolve() not in Path(isocut.__file__).resolve().parents:
        print(f"perfbench: imported isocut from {isocut.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result, context = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
