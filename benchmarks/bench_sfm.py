#!/usr/bin/env python3
"""Benchmark the brute-force SFM blackbox: microseconds per oracle query.

Runs ``sfm_bruteforce`` on a fixed seeded batch of contractions, the way
``BruteForceBlackbox`` calls it: one element forced in, one forced out, so
each call enumerates every subset of the n - 2 free elements (n in 12..16).
Two oracle kinds run on the same contractions: the cut function of a random
hypergraph, and the concave-of-cardinality function min(|S|, n - |S|).
Oracles and contractions are built outside the timed region, and each kind
runs ``PASSES`` timed passes over them in this one process, so that the
spread between processes does not enter a comparison.  The record holds
oracle queries per pass and microseconds per query in the median pass for
each kind, the Python and numpy versions, and ``speed_probe_s``: the best
of five runs of a fixed pure-Python loop, taken before the oracles run (the
same probe as ``perfbench/run.py``).  The probe rescales a record made on a
faster or slower machine state: compare ``us_per_query / speed_probe_s``.
Run from the repository root:

    python benchmarks/bench_sfm.py [--calls 20] [--seed 0]

It writes the record to ``BENCH_sfm.json`` in the current directory and
prints it as its last line.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time

import numpy as np

from isocut import CutOracle, GroundSet, SubmodularOracle, contract, sfm_bruteforce
from isocut.generate import gen_uniform

PASSES = 15  # timed passes per oracle kind; the median pass is reported
OUTPUT = "BENCH_sfm.json"


def speed_probe() -> float:
    """Best of five runs of a fixed pure-Python loop: machine-state context."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i & 7
        best = min(best, time.perf_counter() - start)
    return best


def make_jobs(count: int, rng: np.random.Generator):
    """(n, hypergraph, forced-in vertex, forced-out vertex) per call."""
    jobs = []
    for _ in range(count):
        n = int(rng.integers(12, 17))
        h = gen_uniform(n, 3 * n, 3, 10, rng)
        picks = rng.choice(n, size=2, replace=False)
        jobs.append((n, h, int(picks[0]), int(picks[1])))
    return jobs


def oracle(kind: str, n: int, h):
    if kind == "cut":
        return CutOracle(h)
    return SubmodularOracle(GroundSet(n), lambda s: min(len(s), n - len(s)), symmetric=True)


def run_kind(kind: str, jobs):
    contracted = []
    for n, h, s, t in jobs:
        f = oracle(kind, n, h)
        contracted.append(contract(f, f.ground.subset([s]), f.ground.subset([t])))
    times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        for g in contracted:
            sfm_bruteforce(g)
        times.append(time.perf_counter() - start)
    # every pass makes the same queries, each counted on its contraction's root
    queries = sum(g.query_count for g in contracted) // PASSES
    elapsed = statistics.median(times)
    per_query = elapsed / queries * 1e6
    print(f"{kind:>8}: {elapsed:8.3f} s per pass   {queries:9d} queries   {per_query:7.2f} us/query")
    return queries, per_query


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--calls", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.calls < 1:
        parser.error("--calls must be >= 1")

    probe = speed_probe()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    jobs = make_jobs(args.calls, rng)
    print(f"{args.calls} contractions per oracle kind, 10 to 14 free elements each, median of {PASSES} passes\n")
    queries, us_per_query = {}, {}
    for kind in ("cut", "concave"):
        queries[kind], us_per_query[kind] = run_kind(kind, jobs)
    record = {
        "queries": queries,
        "us_per_query": us_per_query,
        "speed_probe_s": probe,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with open(OUTPUT, "w") as out:
        json.dump(record, out, indent=1)
        out.write("\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
