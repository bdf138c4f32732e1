#!/usr/bin/env python3
"""Measured miss rates of the driver against its exact bound, ``isocut.miss_bound``.

A run misses when no trial's sample isolates an optimal side S: exactly one
sampled vertex in S and at least one outside, or the other way round.  At
rate 1/k a trial does so with probability q_k(|S|)
(``isocut.isolation_probability``), so a run with ``reps`` trials per k
misses with probability at most prod_k (1 - q_k(|S|))**reps, with equality
when S is the only optimal side.  Two parts check this:

- ``end_to_end``: ``hypergraph_mincut`` with 1 and 2 repetitions per k on
  fixed hypergraphs at n = 12 and 16 whose only optimal side has 1, 2 or
  n/2 vertices, each row over its own block of ``runs`` seeds, so that rows
  share no draws.  The truth comes from the cut of every
  subset, enumerated with numpy bitmasks, not from the driver.  A row gives
  the misses, the rate and its standard error, the bound for that side size
  and the worst-case bound over all sizes (what ``miss_bound`` reports).
- ``sampling``: for n up to 240 and every k of ``geometric_schedule(n)``,
  ``draws`` trials from the driver's own stream (``trial_samples`` with
  ``draws`` repetitions per k) and the frequency of the isolating event
  among them, the trials the driver skips counted as misses, against q_k(s)
  for s = 1, 2 and n/2.  A row's ``z`` is (freq - q) / sqrt(q (1 - q) /
  draws), left null where fewer than 10 hits are expected and the normal
  score means little.

Run from the repository root:

    python benchmarks/bench_missrate.py [--runs 4000] [--draws 20000]

It writes the record to ``BENCH_missrate.json`` in the current directory and
prints it as its last line; ``all_within_bound_plus_3se`` is true when every
end-to-end rate is at most its bound plus three standard errors.
"""

from __future__ import annotations

import argparse
import json
import math
import platform

import numpy as np

from isocut import (
    DriverConfig,
    Hypergraph,
    NoCandidateError,
    geometric_schedule,
    hypergraph_mincut,
    isolation_probability,
    miss_bound,
    trial_samples,
)

END_TO_END_SIZES = (12, 16)
SAMPLING_SIZES = (12, 16, 60, 240)
REPS = (1, 2)
RNG_SEED = 1
HEAVY = 3  # weight of each part's path: any cut through a part costs >= HEAVY
OUTPUT = "BENCH_missrate.json"


def planted(n: int, s: int, rng: np.random.Generator) -> Hypergraph:
    """Vertices 0..s-1 against the rest, joined by one unit edge.

    Each part is a path of weight ``HEAVY`` plus, from three vertices on,
    twice as many random edges of rank 2-4 inside it, so the planted side, of
    value 1, is the only minimum.
    """
    edges = [((0, s), 1)]
    for part in (list(range(s)), list(range(s, n))):
        edges += [((a, a + 1), HEAVY) for a in part[:-1]]
        for _ in range(2 * len(part) if len(part) > 2 else 0):
            rank = int(rng.integers(2, min(4, len(part)) + 1))
            verts = tuple(sorted(int(v) for v in rng.choice(part, size=rank, replace=False)))
            edges.append((verts, int(rng.integers(1, 6))))
    return Hypergraph(n, edges)


def enumerate_minimum(h: Hypergraph) -> tuple[int, list[int]]:
    """The nontrivial minimum cut and the sizes of all its sides, from every bitmask."""
    masks = np.arange(1 << h.n, dtype=np.int64)
    cut = np.zeros(1 << h.n, dtype=np.int64)
    for verts, w in h.edges:
        em = sum(1 << v for v in verts)
        inside = masks & em
        cut += w * ((inside != 0) & (inside != em))
    value = int(cut[1:-1].min())
    sides = [int(m).bit_count() for m in np.flatnonzero(cut == value) if 0 < m < (1 << h.n) - 1]
    return value, sides


def sig(x: float) -> float:
    return float(f"{x:.6g}")


def end_to_end(runs: int) -> list[dict]:
    rows = []
    for n in END_TO_END_SIZES:
        for s in (1, 2, n // 2):
            h = planted(n, s, np.random.Generator(np.random.Philox(n * 100 + s)))
            truth, sides = enumerate_minimum(h)
            if truth != 1 or sorted(sides) != sorted([s, n - s]):
                raise RuntimeError(f"n={n}, s={s}: the planted side is not the only minimum")
            for reps in REPS:
                misses = 0
                for seed in range(len(rows) * runs, (len(rows) + 1) * runs):
                    try:
                        misses += hypergraph_mincut(h, DriverConfig(rng_seed=seed, repetitions_per_k=reps)).value != truth
                    except NoCandidateError:  # every trial skipped: no side at all
                        misses += 1
                rate = misses / runs
                se = math.sqrt(rate * (1 - rate) / runs)
                bound = miss_bound(n, reps, s)
                rows.append({
                    "n": n, "side_size": s, "m": h.m, "reps_per_k": reps, "runs": runs,
                    "misses": misses, "rate": sig(rate), "se": sig(se),
                    "bound": sig(bound), "worst_case_bound": sig(miss_bound(n, reps)),
                    "within_bound_plus_3se": rate <= bound + 3 * se,
                })
                print(f"{n:>4} {s:>3} {reps:>4} {misses:>6}/{runs:<6} {rate:>8.4f} {se:>7.4f} {bound:>8.4f}")
    return rows


def isolates(mask: int, side: int) -> bool:
    """Whether a sample the driver runs isolates the side."""
    inside = (mask & side).bit_count()
    # a sample the driver runs has two or more elements, so the other part is nonempty
    return inside == 1 or mask.bit_count() - inside == 1


def sampling(draws: int) -> list[dict]:
    rows = []
    for n in SAMPLING_SIZES:
        sizes = sorted({1, 2, n // 2})
        cfg = DriverConfig(rng_seed=RNG_SEED, repetitions_per_k=draws)
        for k in geometric_schedule(n):
            hits = dict.fromkeys(sizes, 0)
            for sample in trial_samples(n, k, cfg):
                for s in sizes:
                    hits[s] += isolates(sample.mask, (1 << s) - 1)
            for s in sizes:
                q = float(isolation_probability(n, k, s))
                freq = hits[s] / draws
                z = (freq - q) / math.sqrt(q * (1 - q) / draws) if draws * q >= 10 else None
                rows.append({
                    "n": n, "k": k, "side_size": s, "draws": draws, "hits": hits[s],
                    "freq": sig(freq), "q": sig(q), "z": None if z is None else round(z, 3),
                })
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=4000, help="seeded runs per end-to-end row")
    parser.add_argument("--draws", type=int, default=20000, help="samples per (n, k) in the sampling part")
    args = parser.parse_args()
    print(f"{'n':>4} {'s':>3} {'reps':>4} {'misses/runs':>13} {'rate':>8} {'se':>7} {'bound':>8}")
    rows = end_to_end(args.runs)
    per_k = sampling(args.draws)
    record = {
        "rng_seed": RNG_SEED,
        "end_to_end": rows,
        "all_within_bound_plus_3se": all(r["within_bound_plus_3se"] for r in rows),
        "sampling": per_k,
        "sampling_max_abs_z": max((abs(r["z"]) for r in per_k if r["z"] is not None), default=None),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with open(OUTPUT, "w") as out:
        json.dump(record, out, indent=1)
        out.write("\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
