#!/usr/bin/env python3
"""Benchmark the Dinic kernel: numba-compiled vs pure Python.

Solves the same batch of random split-vertex hypergraph networks with both
backends, each on its own containers (Python lists for the interpreter,
int64 arrays for numba), and reports per-solve times and the speedup.
Without numba only the Python kernel runs.  The last line is one JSON
record: the package's active backend, the solve count, microseconds per
solve for each kernel run, and the Python and numpy versions.  Run directly:

    python benchmarks/bench_maxflow.py [--solves 400]
"""

from __future__ import annotations

import argparse
import json
import platform
import time

import numpy as np

from isocut import ElementSubset
from isocut._kernels import (
    BACKEND,
    INF,
    dinic_numba,
    dinic_python,
    extend_forward_star,
    reachable_numba,
    reachable_python,
)
from isocut.generate import gen_uniform
from isocut.hypergraph import _SplitNetwork


def make_instances(count: int, rng: np.random.Generator):
    jobs = []
    for _ in range(count):
        n = int(rng.integers(8, 30))
        m = int(rng.integers(10, 40))
        h = gen_uniform(n, m, min(5, n), 10, rng)
        net = _SplitNetwork(h)
        picks = rng.choice(n, size=2, replace=False)
        sources = ElementSubset.of(n, [int(picks[0])])
        sinks = ElementSubset.of(n, [int(picks[1])])
        extra = [(net.super_source, v, INF) for v in sources]
        extra += [(v, net.super_sink, INF) for v in sinks]
        star = [[int(x) for x in seq] for seq in extend_forward_star(*net._base, extra)]
        jobs.append((net.node_count, net.super_source, net.super_sink, *star))
    return jobs


def as_arrays(jobs):
    return [(*job[:3], *(np.array(seq, np.int64) for seq in job[3:])) for job in jobs]


def run_backend(name, dinic, reachable, jobs):
    flows = []
    start = time.perf_counter()
    for node_count, s, t, to, cap, head, nxt in jobs:
        residual = cap.copy()
        flow = int(dinic(node_count, s, t, to, residual, head, nxt))
        reachable(node_count, s, to, residual, head, nxt)
        flows.append(flow)
    elapsed = time.perf_counter() - start
    per_solve = elapsed / len(jobs) * 1e6
    print(f"{name:>8}: {elapsed:8.3f} s total   {per_solve:9.1f} us/solve")
    return flows, elapsed, per_solve


def report(solves: int, us_per_solve: dict) -> None:
    print(json.dumps({
        "backend": BACKEND,
        "solves": solves,
        "us_per_solve": us_per_solve,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }))


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

    if dinic_numba is None:
        print("numba unavailable; benchmarking the Python kernel only")
        _, _, us_py = run_backend("python", dinic_python, reachable_python, jobs)
        report(args.solves, {"python": us_py})
        return

    array_jobs = as_arrays(jobs)
    # warm the JIT outside the timed region
    warm = array_jobs[0]
    dinic_numba(warm[0], warm[1], warm[2], warm[3], warm[4].copy(), warm[5], warm[6])
    reachable_numba(warm[0], warm[1], warm[3], warm[4].copy(), warm[5], warm[6])

    flows_numba, t_numba, us_numba = run_backend("numba", dinic_numba, reachable_numba, array_jobs)
    flows_py, t_py, us_py = run_backend("python", dinic_python, reachable_python, jobs)
    assert flows_numba == flows_py, "backends disagree"
    print(f"\nspeedup: {t_py / t_numba:.1f}x (identical flow values on all solves)")
    report(args.solves, {"numba": us_numba, "python": us_py})


if __name__ == "__main__":
    main()
