#!/usr/bin/env python3
"""Benchmark the max-flow kernel: microseconds per solve.

Solves a seeded batch of random reduced hypergraph networks
(``hypergraph._split_network``) with ``solve_max_flow`` from local vertex 0
to 1, the way the hypergraph blackbox does: its last BFS levels are the
min-cut side, so no second BFS is timed.  Each network is built from a
``contracted_instance`` outside the timed region.  The last line is one
JSON record: the package's backend, the solve count, microseconds per solve,
the mean node and residual-arc counts per network, and the Python and numpy
versions.  Run directly:

    python benchmarks/bench_maxflow.py [--solves 400]
"""

from __future__ import annotations

import argparse
import json
import platform
import time

import numpy as np

from isocut import ElementSubset
from isocut._kernels import BACKEND, solve_max_flow
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
        _, node_count, *star = _split_network(contracted_instance(h, sources, sinks))
        jobs.append((node_count, 0, 1, *star))
    return jobs


def run(jobs) -> float:
    start = time.perf_counter()
    for node_count, s, t, to, cap, head, nxt in jobs:
        residual = cap.copy()
        solve_max_flow(node_count, s, t, to, residual, head, nxt)
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
    nodes_per_solve = sum(job[0] for job in jobs) / len(jobs)
    arcs_per_solve = sum(len(job[3]) for job in jobs) / len(jobs)
    print(f"{args.solves} reduced networks, {nodes_per_solve:.1f} nodes and {arcs_per_solve:.1f} arcs on average\n")

    us_per_solve = run(jobs)
    print(json.dumps({
        "backend": BACKEND,
        "solves": args.solves,
        "us_per_solve": us_per_solve,
        "nodes_per_solve": nodes_per_solve,
        "arcs_per_solve": arcs_per_solve,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }))


if __name__ == "__main__":
    main()
