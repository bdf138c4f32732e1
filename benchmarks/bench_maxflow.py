#!/usr/bin/env python3
"""Benchmark the max-flow layer: microseconds per network build and per solve.

Builds a seeded batch of random reduced hypergraph networks with
``hypergraph._flow_network``, the builder the hypergraph blackbox uses (arc
pairs from two rules, a complete graph on each image of two or three
vertices and a node gadget on each larger one, then every adjacency chain
linked in one loop), and solves each with ``solve_max_flow`` from local
vertex 0 to 1, the way the blackbox does: its last BFS levels are the
min-cut side, so no second BFS is timed.  Building and solving are timed
apart, over ``PASSES`` passes in this one process, so that the spread
between processes does not enter a comparison; a solve consumes its
network's capacities, so each pass builds the networks afresh.  The record
holds the package's backend, the solve count, microseconds per build and
per solve in the median pass, the mean node and residual-arc counts per
network, and the Python and numpy versions.  Run from the repository root:

    python benchmarks/bench_maxflow.py [--solves 400] [--seed 0]

It writes the record to ``BENCH_maxflow.json`` in the current directory and
prints it as its last line.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time

import numpy as np

from isocut import ElementSubset
from isocut._kernels import BACKEND, solve_max_flow
from isocut.generate import gen_uniform
from isocut.hypergraph import _flow_network

PASSES = 15  # timed build-and-solve passes; the median of each is reported
OUTPUT = "BENCH_maxflow.json"


def make_queries(count: int, rng: np.random.Generator):
    """``(h, sources, sinks)`` with one random vertex on each side."""
    queries = []
    for _ in range(count):
        n = int(rng.integers(8, 30))
        m = int(rng.integers(10, 40))
        h = gen_uniform(n, m, min(5, n), 10, rng)
        picks = rng.choice(n, size=2, replace=False)
        queries.append((h, ElementSubset.of(n, [int(picks[0])]), ElementSubset.of(n, [int(picks[1])])))
    return queries


def build(queries):
    """``(networks, us_per_build)``; each network is ``(node_count, to, cap, head, nxt)``."""
    start = time.perf_counter()
    networks = [_flow_network(h, sources, sinks)[3:] for h, sources, sinks in queries]
    return networks, (time.perf_counter() - start) / len(queries) * 1e6


def solve(networks) -> float:
    """Solve every network once, consuming its capacities; microseconds per solve."""
    start = time.perf_counter()
    for node_count, to, cap, head, nxt in networks:
        solve_max_flow(node_count, 0, 1, to, cap, head, nxt)
    return (time.perf_counter() - start) / len(networks) * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--solves", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.solves < 1:
        parser.error("--solves must be >= 1")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    queries = make_queries(args.solves, rng)
    builds, solves = [], []
    for _ in range(PASSES):
        networks, us = build(queries)
        builds.append(us)
        solves.append(solve(networks))
    us_per_build, us_per_solve = statistics.median(builds), statistics.median(solves)
    # a solve changes only capacities, so the sizes are read after it
    nodes_per_solve = sum(net[0] for net in networks) / len(networks)
    arcs_per_solve = sum(len(net[1]) for net in networks) / len(networks)
    print(f"{args.solves} reduced networks, {nodes_per_solve:.1f} nodes and {arcs_per_solve:.1f} arcs on average,"
          f" median of {PASSES} passes\n")
    print(f"{BACKEND:>8}: {us_per_build:9.1f} us/build   {us_per_solve:9.1f} us/solve")
    record = {
        "backend": BACKEND,
        "solves": args.solves,
        "us_per_build": us_per_build,
        "us_per_solve": us_per_solve,
        "nodes_per_solve": nodes_per_solve,
        "arcs_per_solve": arcs_per_solve,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with open(OUTPUT, "w") as out:
        json.dump(record, out, indent=1)
        out.write("\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
