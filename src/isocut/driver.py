"""Randomized search for the cheapest nontrivial side of a symmetric oracle.

Terminals are sampled at rate 1/k; if k is within a factor 1.5 of the true
optimal side's size, a sampled terminal set isolates it with constant
probability, so repeating ceil(12 log2 n) times per k and sweeping k over a
geometric schedule finds the optimum with high probability.  Every candidate
the driver returns is a genuine nontrivial side with its exact value, even
on the unlucky runs where it is not the minimum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ElementSubset
from .isolating import IsolatingStats, TerminalSet, isolating_sets

__all__ = [
    "REPETITION_CONSTANT",
    "DriverConfig",
    "AtKResult",
    "MinimizerResult",
    "geometric_schedule",
    "sample_terminals",
    "canonical_side",
    "find_nontrivial_minimizer_at_k",
    "find_nontrivial_minimizer",
]

# chosen so a conservative 0.1 per-trial success probability drives the
# failure rate below 1/n for n >= 4
REPETITION_CONSTANT = 12


def geometric_schedule(n: int) -> tuple[int, ...]:
    """ceil(1.5**i) for i = 1, 2, ... while the value is <= n (strictly increasing).

    k = 1 (i = 0) comes first only when n <= 2: rate 1 samples the whole
    ground set, and for n > 2 the driver skips every such trial without a
    blackbox call.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    ks: list[int] = []
    i = 0 if n <= 2 else 1
    while True:
        k = -(-(3**i) // (2**i))  # exact ceil(1.5**i)
        if k > n:
            break
        ks.append(k)
        i += 1
    return tuple(ks)


@dataclass(frozen=True)
class DriverConfig:
    """Sampling configuration; the seed fully determines every draw."""

    rng_seed: int = 0
    repetitions_per_k: Optional[int] = None

    def __post_init__(self) -> None:
        # integers only, as in Hypergraph; frozen, so stored past __setattr__
        object.__setattr__(self, "rng_seed", operator.index(self.rng_seed))
        if self.repetitions_per_k is not None:
            object.__setattr__(self, "repetitions_per_k", operator.index(self.repetitions_per_k))
        if not 0 <= self.rng_seed < (1 << 64):
            raise ValueError("rng_seed must fit in 64 bits")
        if self.repetitions_per_k is not None and self.repetitions_per_k < 1:
            raise ValueError("repetitions_per_k must be >= 1")

    def resolved_repetitions(self, n: int) -> int:
        if self.repetitions_per_k is not None:
            return self.repetitions_per_k
        return math.ceil(REPETITION_CONSTANT * math.log2(n))


def sample_terminals(n: int, k: int, rng: np.random.Generator) -> ElementSubset:
    """Include each of the n elements independently with probability 1/k."""
    n, k = operator.index(n), operator.index(k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    hits = rng.integers(0, k, size=n) == 0
    # element i is bit i: little-endian bits, then little-endian bytes
    mask = int.from_bytes(np.packbits(hits, bitorder="little").tobytes(), "little")
    return ElementSubset(n, mask)


def canonical_side(s: ElementSubset) -> ElementSubset:
    """The side of size <= n/2; exact-half ties pick the smaller bitmask."""
    c = s.complement()
    if len(s) != len(c):
        return s if len(s) < len(c) else c
    return s if s.mask <= c.mask else c


@dataclass(frozen=True)
class AtKResult:
    """Best side at rate 1/k; ``trial_stats`` has one entry per trial not skipped."""

    k: int
    best_set: Optional[ElementSubset]
    best_value: Optional[int]
    trials_run: int
    trials_skipped: int
    blackbox_calls: int
    trial_stats: tuple[IsolatingStats, ...]


@dataclass(frozen=True)
class MinimizerResult:
    """Best nontrivial side seen across the whole sweep, plus accounting."""

    best_set: ElementSubset
    best_value: int
    trials_run: int
    blackbox_calls_total: int
    per_k_breakdown: tuple[AtKResult, ...]


def _candidate_key(candidate: tuple[int, ElementSubset]) -> tuple[int, int, int]:
    value, side = candidate
    return (value, len(side), side.mask)


def _trial_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
    )


def find_nontrivial_minimizer_at_k(f, k: int, cfg: DriverConfig, blackbox) -> AtKResult:
    """Run the repetitions for one sampling rate 1/k and keep the best side.

    Trials whose sample has fewer than two terminals are counted as failed
    and skipped, as are full-ground samples when n > 2 (for n == 2 the full
    sample is the only informative one and is kept).
    """
    n = f.ground.n
    if n < 2:
        raise ValueError("driver needs a ground set with n >= 2")
    k = operator.index(k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    reps = cfg.resolved_repetitions(n)
    rng = _trial_rng(cfg.rng_seed, k)

    stats: list[IsolatingStats] = []
    candidates: list[tuple[int, ElementSubset]] = []
    for _ in range(reps):
        sample = sample_terminals(n, k, rng)
        if len(sample) < 2 or (len(sample) == n and n > 2):
            continue
        iso = isolating_sets(f, TerminalSet(sample), blackbox)
        stats.append(iso.stats)
        candidates += [(iso.values[v], canonical_side(s_v))
                       for v, s_v in iso.isolating_sets.items() if 0 < len(s_v) < n]
    best_value, best_set = min(candidates, key=_candidate_key, default=(None, None))

    return AtKResult(
        k=k,
        best_set=best_set,
        best_value=best_value,
        trials_run=reps,
        trials_skipped=reps - len(stats),
        blackbox_calls=sum(s.step1_calls + s.step2_calls for s in stats),
        trial_stats=tuple(stats),
    )


def find_nontrivial_minimizer(f, cfg: DriverConfig, blackbox) -> MinimizerResult:
    """Sweep the geometric k schedule and return the cheapest side seen anywhere.

    Deterministic for a fixed (oracle, config) pair: per-trial randomness is
    keyed by (seed, k), and the merge uses the (value, size, bitmask) order.
    """
    n = f.ground.n
    if n < 2:
        raise ValueError("driver needs a ground set with n >= 2")
    per_k = [find_nontrivial_minimizer_at_k(f, k, cfg, blackbox) for k in geometric_schedule(n)]
    found = [(r.best_value, r.best_set) for r in per_k if r.best_set is not None]
    if not found:
        raise RuntimeError("no trial produced a candidate; increase repetitions_per_k")
    best_value, best_set = min(found, key=_candidate_key)
    return MinimizerResult(
        best_set=best_set,
        best_value=best_value,
        trials_run=sum(r.trials_run for r in per_k),
        blackbox_calls_total=sum(r.blackbox_calls for r in per_k),
        per_k_breakdown=tuple(per_k),
    )
