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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ElementSubset
from .isolating import IsolatingResult, TerminalSet, isolating_sets

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

TrialObserver = Callable[[TerminalSet, IsolatingResult], None]


def geometric_schedule(n: int) -> tuple[int, ...]:
    """Deduplicated ceil(1.5**i) for i = 0, 1, ... while the value is <= n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ks: list[int] = []
    i = 0
    while True:
        k = -(-(3**i) // (2**i))  # exact ceil(1.5**i)
        if k > n:
            break
        if not ks or ks[-1] != k:
            ks.append(k)
        i += 1
    return tuple(ks)


@dataclass(frozen=True)
class DriverConfig:
    """Sampling configuration; the seed fully determines every draw."""

    rng_seed: int = 0
    repetitions_per_k: Optional[int] = None
    k_schedule: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not 0 <= self.rng_seed < (1 << 64):
            raise ValueError("rng_seed must fit in 64 bits")
        if self.repetitions_per_k is not None and self.repetitions_per_k < 1:
            raise ValueError("repetitions_per_k must be >= 1")
        if self.k_schedule is not None:
            object.__setattr__(self, "k_schedule", tuple(int(k) for k in self.k_schedule))
            if not self.k_schedule or any(k < 1 for k in self.k_schedule):
                raise ValueError("k_schedule entries must be >= 1")

    def resolved_repetitions(self, n: int) -> int:
        if self.repetitions_per_k is not None:
            return self.repetitions_per_k
        return math.ceil(REPETITION_CONSTANT * math.log2(n))

    def resolved_schedule(self, n: int) -> tuple[int, ...]:
        if self.k_schedule is None:
            return geometric_schedule(n)
        if any(k > n for k in self.k_schedule):
            raise ValueError("k_schedule entries must be <= n")
        return self.k_schedule


def sample_terminals(n: int, k: int, rng: np.random.Generator) -> ElementSubset:
    """Include each of the n elements independently with probability 1/k."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    hits = rng.integers(0, k, size=n) == 0
    mask = 0
    for i in np.flatnonzero(hits):
        mask |= 1 << int(i)
    return ElementSubset(n, mask)


def canonical_side(s: ElementSubset) -> ElementSubset:
    """The side of size <= n/2; exact-half ties pick the smaller bitmask."""
    c = s.complement()
    if len(s) != len(c):
        return s if len(s) < len(c) else c
    return s if s.mask <= c.mask else c


@dataclass(frozen=True)
class AtKResult:
    k: int
    best_set: Optional[ElementSubset]
    best_value: Optional[int]
    trials_run: int
    trials_skipped: int
    blackbox_calls: int


@dataclass(frozen=True)
class MinimizerResult:
    """Best nontrivial side seen across the whole sweep, plus accounting."""

    best_set: ElementSubset
    best_value: int
    trials_run: int
    blackbox_calls_total: int
    per_k_breakdown: tuple[AtKResult, ...]


def _candidate_key(value: int, side: ElementSubset) -> tuple[int, int, int]:
    return (value, len(side), side.mask)


def _trial_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
    )


def find_nontrivial_minimizer_at_k(
    f,
    k: int,
    cfg: DriverConfig,
    blackbox,
    observer: Optional[TrialObserver] = None,
) -> AtKResult:
    """Run the repetitions for one sampling rate 1/k and keep the best side.

    Trials whose sample has fewer than two terminals are counted as failed
    and skipped, as are full-ground samples when n > 2 (for n == 2 the full
    sample is the only informative one and is kept).
    """
    n = f.ground.n
    if n < 2:
        raise ValueError("driver needs a ground set with n >= 2")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    reps = cfg.resolved_repetitions(n)
    rng = _trial_rng(cfg.rng_seed, k)

    best_key = None
    best: Optional[tuple[ElementSubset, int]] = None
    calls = 0
    skipped = 0
    for _ in range(reps):
        sample = sample_terminals(n, k, rng)
        if len(sample) < 2 or (len(sample) == n and n > 2):
            skipped += 1
            continue
        terminals = TerminalSet(sample)
        iso = isolating_sets(f, terminals, blackbox)
        if observer is not None:
            observer(terminals, iso)
        calls += iso.stats.step1_calls + iso.stats.step2_calls
        for v, s_v in iso.isolating_sets.items():
            if not 0 < len(s_v) < n:
                continue
            cand = canonical_side(s_v)
            key = _candidate_key(iso.values[v], cand)
            if best_key is None or key < best_key:
                best_key = key
                best = (cand, iso.values[v])

    return AtKResult(
        k=k,
        best_set=best[0] if best else None,
        best_value=best[1] if best else None,
        trials_run=reps,
        trials_skipped=skipped,
        blackbox_calls=calls,
    )


def find_nontrivial_minimizer(
    f,
    cfg: DriverConfig,
    blackbox,
    observer: Optional[TrialObserver] = None,
) -> MinimizerResult:
    """Sweep the k schedule and return the cheapest side seen anywhere.

    Deterministic for a fixed (oracle, config) pair: per-trial randomness is
    keyed by (seed, k), and the merge uses the (value, size, bitmask) order.
    """
    n = f.ground.n
    if n < 2:
        raise ValueError("driver needs a ground set with n >= 2")
    schedule = cfg.resolved_schedule(n)

    per_k: list[AtKResult] = []
    best_key = None
    best: Optional[tuple[ElementSubset, int]] = None
    trials = 0
    calls = 0
    for k in schedule:
        res = find_nontrivial_minimizer_at_k(f, k, cfg, blackbox, observer=observer)
        per_k.append(res)
        trials += res.trials_run
        calls += res.blackbox_calls
        if res.best_set is not None:
            key = _candidate_key(res.best_value, res.best_set)
            if best_key is None or key < best_key:
                best_key = key
                best = (res.best_set, res.best_value)

    if best is None:
        raise RuntimeError(
            "no trial produced a candidate; increase repetitions_per_k or widen k_schedule"
        )
    return MinimizerResult(
        best_set=best[0],
        best_value=best[1],
        trials_run=trials,
        blackbox_calls_total=calls,
        per_k_breakdown=tuple(per_k),
    )
