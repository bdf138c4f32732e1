#!/usr/bin/env python3
"""Benchmark the max-flow kernel: microseconds per solve.

Solves a seeded batch of random split-vertex hypergraph networks with
``solve_max_flow`` followed by ``residual_reachable`` from local vertex 0 to
1, the way the hypergraph blackbox does; each network is built from a
``contracted_instance`` outside the timed region.  The last line is one JSON
record: the package's backend, the solve count, microseconds per solve, and
the Python and numpy versions.  Run directly:

    python benchmarks/bench_maxflow.py [--solves 400]
"""

from __future__ import annotations

import argparse
import json
import platform
import time

import numpy as np

from isocut import ElementSubset
from isocut._kernels import BACKEND, residual_reachable, solve_max_flow
from isocut.generate import gen_uniform
from isocut.hypergraph import _split_network, contracted_instance


def make_instances(count: int, rng: np.random.Generator):
    jobs = []
    for _ in range(count):
        n = int(rng.integers(8, 30))
        m = int(rng.integers(10, 40))
        h = gen_uniform(n, m, min(5, n), 10, rng)
        picks = rng.choice(n, size=2, replace=False)
        sources = ElementSubset.of(n, [int(picks[0])])
        sinks = ElementSubset.of(n, [int(picks[1])])
        node_count, *star = _split_network(contracted_instance(h, sources, sinks))
        jobs.append((node_count, 0, 1, *star))
    return jobs


def run(jobs) -> float:
    start = time.perf_counter()
    for node_count, s, t, to, cap, head, nxt in jobs:
        residual = cap.copy()
        solve_max_flow(node_count, s, t, to, residual, head, nxt)
        residual_reachable(node_count, s, to, residual, head, nxt)
    elapsed = time.perf_counter() - start
    per_solve = elapsed / len(jobs) * 1e6
    print(f"{BACKEND:>8}: {elapsed:8.3f} s total   {per_solve:9.1f} us/solve")
    return per_solve


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--solves", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.solves < 1:
        parser.error("--solves must be >= 1")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    jobs = make_instances(args.solves, rng)
    print(f"{args.solves} split-vertex networks, up to ~100 nodes each\n")

    us_per_solve = run(jobs)
    print(json.dumps({
        "backend": BACKEND,
        "solves": args.solves,
        "us_per_solve": {"python": us_per_solve},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }))


if __name__ == "__main__":
    main()
