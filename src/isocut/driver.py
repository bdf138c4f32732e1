"""Randomized search for the cheapest nontrivial side of a symmetric oracle.

Terminals are sampled at rate 1/k; a sample isolates an optimal side S when
it holds exactly one element of S and at least one outside it, or the other
way round, and then that element's minimum isolating set is an optimal side.
The chance of this per trial has a closed form, q_k(|S|)
(:func:`isolation_probability`), so the chance that a sweep of k over a
geometric schedule misses S is at most prod_k (1 - q_k(|S|))**reps, and the
default repetitions per k are the fewest whose worst case over |S| is at most
``MISS_TARGET`` (:func:`miss_bound`).  Every candidate the driver returns is
a genuine nontrivial side with its exact value, even on the unlucky runs
where it is not the minimum.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ElementSubset
from .isolating import IsolatingStats, TerminalSet, isolating_sets

__all__ = [
    "MISS_TARGET",
    "NoCandidateError",
    "DriverConfig",
    "AtKResult",
    "MinimizerResult",
    "geometric_schedule",
    "isolation_probability",
    "miss_bound",
    "sample_terminals",
    "trial_samples",
    "canonical_side",
    "find_nontrivial_minimizer_at_k",
    "find_nontrivial_minimizer",
]

# the default worst-case chance that a run misses every optimal side; it is
# below n**-1.5, so below the promised 1/n, for every n up to MAX_VERTICES
MISS_TARGET = 2**-30


class NoCandidateError(RuntimeError):
    """Every trial of a sweep was skipped (fewer than two terminals, or all n), so no side was seen."""


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
        """The override, else the fewest repetitions per k with ``miss_bound`` <= ``MISS_TARGET``."""
        if self.repetitions_per_k is not None:
            return self.repetitions_per_k
        return max(1, math.ceil(math.log(MISS_TARGET) / _worst_log_miss(n)))


def isolation_probability(n: int, k: int, s):
    """q_k(s): the chance that one trial at rate 1/k isolates a given side of size s.

    That is, its sample holds exactly one element of the side and at least one
    outside it, or the other way round, and the driver does not skip it.
    ``s`` may be an integer array; the result is a float array of its shape.
    """
    n, k = operator.index(n), operator.index(k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    s, p = np.asarray(s), 1 / k
    if s.dtype.kind not in "iu":
        raise TypeError(f"side sizes must be integers, got dtype {s.dtype}")
    if not np.all((1 <= s) & (s < n)):
        raise ValueError(f"need 1 <= s < n for every side size s, got n={n}")
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.exp(np.arange(n - 1.0) * np.log1p(-p))  # r[t] = (1 - p)**t
    r[0] = 1.0  # 0**0 at k = 1
    # a(t) = t p (1 - p)**(t - 1) (1 - (1 - p)**(n - t)); with u and v the
    # powers t - 1 at t = s and t = n - s, q = a(s) + a(n - s) - s (n - s) p**2 u v
    u, v = r[s - 1], r[n - s - 1]
    q = p * (s * u * (1 - (1 - p) * v) + (n - s) * v * (1 - (1 - p) * u) - p * s * (n - s) * u * v)
    if n > 2:  # the full sample, which isolates a singleton, is skipped
        q = q - np.where((s == 1) | (s == n - 1), p**n, 0.0)
    return q


def _log_miss(n: int, s):
    """ln prod_k (1 - q_k(s)) over the schedule of n: one repetition per k."""
    with np.errstate(divide="ignore"):  # q = 1 at n = 2, k = 1
        return sum(np.log1p(-isolation_probability(n, k, s)) for k in geometric_schedule(n))


@functools.lru_cache
def _worst_log_miss(n: int) -> float:
    if n < 2:
        raise ValueError("driver needs a ground set with n >= 2")
    return float(np.max(_log_miss(n, np.arange(1, n // 2 + 1))))


def miss_bound(n: int, reps: int, s: Optional[int] = None) -> float:
    """The chance that no trial of a run with ``reps`` trials per k isolates a given optimal side.

    It is prod_k (1 - q_k(s))**reps over ``geometric_schedule(n)`` for a side
    of size ``s``, and the worst case over every size when ``s`` is None; the
    chance that the run misses the minimum is at most this.  A run of no
    trials misses with chance 1.
    """
    n, reps = operator.index(n), operator.index(reps)
    if reps < 0:
        raise ValueError(f"reps must be >= 0, got {reps}")
    if reps == 0:  # exp(0 * -inf) at n = 2 would be nan
        return 1.0
    log = _worst_log_miss(n) if s is None else float(_log_miss(n, s))
    return math.exp(reps * log)


def sample_terminals(n: int, k: int, rng: np.random.Generator) -> ElementSubset:
    """Include each of the n elements independently with probability 1/k."""
    n, k = operator.index(n), operator.index(k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    hits = rng.integers(0, k, size=n) == 0
    # element i is bit i: little-endian bits, then little-endian bytes
    mask = int.from_bytes(np.packbits(hits, bitorder="little").tobytes(), "little")
    return ElementSubset(n, mask)


def _trial_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
    )


def trial_samples(n: int, k: int, cfg: DriverConfig):
    """Yield the terminal sample of each trial at rate 1/k that the driver runs, in draw order.

    There are ``cfg.resolved_repetitions(n)`` draws from one stream keyed by
    ``(cfg.rng_seed, k)``.  A sample of fewer than two elements is skipped,
    as is the full ground set when n > 2 (for n == 2 the full sample is the
    only informative one and is kept).
    """
    rng = _trial_rng(cfg.rng_seed, k)
    for _ in range(cfg.resolved_repetitions(n)):
        sample = sample_terminals(n, k, rng)
        if len(sample) >= 2 and (len(sample) < n or n == 2):
            yield sample


def canonical_side(s: ElementSubset) -> ElementSubset:
    """The side of size <= n/2; exact-half ties pick the smaller bitmask."""
    c = s.complement()
    if len(s) != len(c):
        return s if len(s) < len(c) else c
    return s if s.mask <= c.mask else c


@dataclass(frozen=True)
class AtKResult:
    """Best side at rate 1/k; ``trial_stats`` has one entry per trial not skipped.

    ``trials_run`` is the repetitions per k: every trial drawn, skipped ones
    included, so it is ``trials_skipped`` plus the trials that reached
    ``isolating_sets`` (the count ``BENCH_calls.json`` calls ``trials_run``).
    """

    k: int
    best_set: Optional[ElementSubset]
    best_value: Optional[int]
    trials_run: int
    trials_skipped: int
    blackbox_calls: int
    trial_stats: tuple[IsolatingStats, ...]


@dataclass(frozen=True)
class MinimizerResult:
    """Best nontrivial side seen across the whole sweep, plus accounting.

    ``trials_run`` is the sum of the per-k ``trials_run``: every trial drawn,
    skipped ones included, as the CLI prints it under ``trials``.
    ``miss_bound`` is :func:`miss_bound` at the repetitions used: at most this
    chance that the sweep missed the minimum.
    """

    best_set: ElementSubset
    best_value: int
    trials_run: int
    blackbox_calls_total: int
    per_k_breakdown: tuple[AtKResult, ...]
    miss_bound: float


def _candidate_key(candidate: tuple[int, ElementSubset]) -> tuple[int, int, int]:
    value, side = candidate
    return (value, len(side), side.mask)


def find_nontrivial_minimizer_at_k(f, k: int, cfg: DriverConfig, blackbox) -> AtKResult:
    """Run the repetitions for one sampling rate 1/k and keep the best side.

    The trials that ``trial_samples`` leaves out are counted as skipped.
    """
    n = f.ground.n
    if n < 2:
        raise ValueError("driver needs a ground set with n >= 2")
    k = operator.index(k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    reps = cfg.resolved_repetitions(n)

    stats: list[IsolatingStats] = []
    candidates: list[tuple[int, ElementSubset]] = []
    for sample in trial_samples(n, k, cfg):
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
        raise NoCandidateError("no trial produced a candidate; increase repetitions_per_k")
    best_value, best_set = min(found, key=_candidate_key)
    return MinimizerResult(
        best_set=best_set,
        best_value=best_value,
        trials_run=sum(r.trials_run for r in per_k),
        blackbox_calls_total=sum(r.blackbox_calls for r in per_k),
        per_k_breakdown=tuple(per_k),
        miss_bound=miss_bound(n, cfg.resolved_repetitions(n)),
    )
