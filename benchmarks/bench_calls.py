#!/usr/bin/env python3
"""Blackbox calls against n, replayed from the driver's draws with no oracle.

``find_nontrivial_minimizer`` charges each trial that reaches
``isolating_sets`` ceil(log2 |R|) + |R| blackbox calls, whatever the oracle,
and the terminal sample R comes from the seed alone.  So the calls of a run
on a connected input follow from n, the seed and the repetitions.  This
script replays those draws: for each n in ``SIZES`` it sweeps
``geometric_schedule(n)``, takes the samples of the trials the driver runs
at each k from ``trial_samples``, and counts per row:

- ``trials``: repetitions per k times the schedule length, the driver's
  ``trials_run``;
- ``trials_run``: the trials that were not skipped and reached
  ``isolating_sets``;
- ``charged_calls``: ceil(log2 |R|) + |R| per trial run, as the driver
  counts them;
- ``paper_calls``: ceil(log2 |R|) + 1 per trial run, with round 2 as one
  call, and that count divided by log2(n)^3;
- ``naive_calls``: n - 1, the calls of the exact naive sweep, which fixes
  element 0 and minimizes once with each other element forced out.

The record also holds two fitted exponents: the least-squares slope of
log(paper calls) against log(log2 n), and of log(charged calls) against
log(n log2 n).  ``paper_calls_below_naive_from`` and
``charged_calls_below_naive_from`` are the smallest n in ``SIZES`` from
which every row's count is below its ``naive_calls`` (null if the largest
row's is not).  Run from the repository root (no options):

    python benchmarks/bench_calls.py

It writes the record to ``BENCH_calls.json`` in the current directory and
prints it as its last line.
"""

from __future__ import annotations

import json
import math
import platform

import numpy as np

from isocut import DriverConfig, geometric_schedule, trial_samples

SIZES = (16, 30, 60, 240, 1_000, 4_000, 16_000, 64_000)
RNG_SEED = 1
OUTPUT = "BENCH_calls.json"


def replay(n: int) -> dict:
    """One row: the trials and calls of a default-config run on n vertices."""
    cfg = DriverConfig(rng_seed=RNG_SEED)
    reps = cfg.resolved_repetitions(n)
    schedule = geometric_schedule(n)
    trials_run = charged = paper = 0
    for k in schedule:
        for sample in trial_samples(n, k, cfg):
            r = len(sample)
            bits = (r - 1).bit_length()  # ceil(log2 r)
            trials_run += 1
            charged += bits + r
            paper += bits + 1
    return {
        "n": n,
        "reps_per_k": reps,
        "schedule_len": len(schedule),
        "trials": reps * len(schedule),
        "trials_run": trials_run,
        "charged_calls": charged,
        "paper_calls": paper,
        "paper_per_log2_n_cubed": round(paper / math.log2(n) ** 3, 3),
        "naive_calls": n - 1,
    }


def slope(x: list[float], y: list[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return round(float(np.polyfit(np.log(x), np.log(y), 1)[0]), 4)


def below_naive_from(rows: list[dict], key: str) -> int | None:
    """Smallest n from which every row's ``key`` count is below ``naive_calls``, or None."""
    start = None
    for row in rows:
        if row[key] >= row["naive_calls"]:
            start = None
        elif start is None:
            start = row["n"]
    return start


def main() -> None:
    rows = []
    print(f"{'n':>6} {'reps/k':>6} {'ks':>3} {'trials':>6} {'run':>6} {'charged':>10} {'paper':>7} {'paper/log2^3':>12} {'naive':>6}")
    for n in SIZES:
        row = replay(n)
        rows.append(row)
        print(f"{n:>6} {row['reps_per_k']:>6} {row['schedule_len']:>3} {row['trials']:>6} {row['trials_run']:>6}"
              f" {row['charged_calls']:>10} {row['paper_calls']:>7} {row['paper_per_log2_n_cubed']:>12} {row['naive_calls']:>6}")
    log_n = [math.log2(n) for n in SIZES]
    record = {
        "rng_seed": RNG_SEED,
        "rows": rows,
        "paper_calls_exponent_vs_log2_n": slope(log_n, [r["paper_calls"] for r in rows]),
        "charged_calls_exponent_vs_n_log2_n": slope([n * b for n, b in zip(SIZES, log_n)],
                                                    [r["charged_calls"] for r in rows]),
        "paper_calls_below_naive_from": below_naive_from(rows, "paper_calls"),
        "charged_calls_below_naive_from": below_naive_from(rows, "charged_calls"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with open(OUTPUT, "w") as out:
        json.dump(record, out, indent=1)
        out.write("\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
