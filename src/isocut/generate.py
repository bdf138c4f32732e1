"""Random hypergraph generators for the CLI and the test suite."""

from __future__ import annotations

import numpy as np

from .core import ElementSubset
from .hypergraph import MAX_TOTAL_WEIGHT, MAX_VERTICES, Hypergraph, cut_value

__all__ = ["gen_uniform", "gen_planted"]


def _check_params(n: int, m: int, max_rank: int, max_weight: int) -> None:
    if not 2 <= n <= MAX_VERTICES:
        raise ValueError(f"need 2 <= n <= {MAX_VERTICES} (the parsers' limit), got {n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if not 2 <= max_rank <= n:
        raise ValueError(f"need 2 <= max_rank <= n, got max_rank={max_rank}, n={n}")
    if not 1 <= max_weight < MAX_TOTAL_WEIGHT:
        raise ValueError(f"need 1 <= max_weight < {MAX_TOTAL_WEIGHT} (the total-weight limit), got {max_weight}")


def gen_uniform(n: int, m: int, max_rank: int, max_weight: int, rng: np.random.Generator) -> Hypergraph:
    """m hyperedges with uniform rank in [2, max_rank] and weight in [1, max_weight]."""
    _check_params(n, m, max_rank, max_weight)
    edges = []
    for _ in range(m):
        rank = int(rng.integers(2, max_rank + 1))
        verts = tuple(int(v) for v in rng.choice(n, size=rank, replace=False))
        w = int(rng.integers(1, max_weight + 1))
        edges.append((verts, w))
    return Hypergraph(n, edges)


def gen_planted(
    n: int, m: int, max_rank: int, max_weight: int, rng: np.random.Generator
) -> tuple[Hypergraph, ElementSubset, int]:
    """Embed a low-weight bipartition: heavy edges inside each half, a few
    unit-weight edges across.  Returns (hypergraph, planted side, its cut value)."""
    _check_params(n, m, max_rank, max_weight)
    if n < 4:
        raise ValueError("planted model needs n >= 4 so both halves can host edges")
    perm = [int(v) for v in rng.permutation(n)]
    half_a = sorted(perm[: n // 2])
    half_b = sorted(perm[n // 2:])
    crossing = max(1, m // 6)
    edges = []
    for i in range(m - crossing):
        side = half_a if i % 2 == 0 else half_b
        rank = int(rng.integers(2, min(max_rank, len(side)) + 1))
        verts = tuple(side[int(j)] for j in rng.choice(len(side), size=rank, replace=False))
        w = int(rng.integers(1, max_weight + 1))
        edges.append((verts, w))
    for _ in range(crossing):
        rank = int(rng.integers(2, max_rank + 1))
        a = half_a[int(rng.integers(len(half_a)))]
        b = half_b[int(rng.integers(len(half_b)))]
        verts = {a, b}
        while len(verts) < rank:
            verts.add(int(rng.integers(n)))
        edges.append((tuple(sorted(verts)), 1))
    h = Hypergraph(n, edges)
    side = ElementSubset.of(n, half_a)
    return h, side, cut_value(h, side)
