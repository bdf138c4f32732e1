"""Sampling, per-k trials, and the geometric-schedule sweep."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from isocut import (
    MISS_TARGET,
    BruteForceBlackbox,
    CutOracle,
    DriverConfig,
    ElementSubset,
    GroundSet,
    Hypergraph,
    NoCandidateError,
    SubmodularOracle,
    canonical_side,
    find_nontrivial_minimizer,
    find_nontrivial_minimizer_at_k,
    geometric_schedule,
    hypergraph_mincut,
    isolation_probability,
    miss_bound,
    sample_terminals,
    trial_samples,
)
from isocut.hypergraph import MAX_VERTICES

from conftest import brute_min_nontrivial, philox, random_hypergraph


def dumbbell():
    # two unit triangles joined by a single unit edge; min cut 1 at the bridge
    return Hypergraph(6, [
        ((0, 1), 1), ((1, 2), 1), ((0, 2), 1),
        ((3, 4), 1), ((4, 5), 1), ((3, 5), 1),
        ((2, 3), 1),
    ])


class TestSchedule:
    def test_geometric_values(self):
        # k = 1 samples the whole ground set, which only n <= 2 can use
        assert geometric_schedule(12) == (2, 3, 4, 6, 8, 12)
        assert geometric_schedule(3) == (2, 3)
        assert geometric_schedule(2) == (1, 2)
        assert geometric_schedule(1) == (1,)

    def test_schedule_is_deduplicated_and_capped(self):
        for n in range(1, 200):
            ks = geometric_schedule(n)
            assert len(set(ks)) == len(ks)
            assert all(1 <= k <= n for k in ks)
            assert ks[0] == (1 if n <= 2 else 2)
        ks = geometric_schedule(MAX_VERTICES)
        assert all(a < b for a, b in zip(ks, ks[1:]))

    @pytest.mark.parametrize("n", [8.5, 8.0, "8"])
    def test_non_integer_n_rejected(self, n):
        # 8.5 used to give the schedule of 8
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            geometric_schedule(n)


class TestConfig:
    def test_default_repetitions(self):
        # the fewest with a worst-case miss bound <= 2**-30; at n = 2, k = 1 always isolates
        table = {2: 1, 3: 47, 12: 13, 16: 13, 60: 11, 240: 11, 1000: 11}
        assert {n: DriverConfig().resolved_repetitions(n) for n in table} == table

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 12, 16, 33, 60, 240, 1000])
    def test_default_repetitions_are_the_fewest_that_meet_the_target(self, n):
        reps = DriverConfig().resolved_repetitions(n)
        assert miss_bound(n, reps) <= MISS_TARGET
        assert reps == 1 or miss_bound(n, reps - 1) > MISS_TARGET

    def test_validation(self):
        with pytest.raises(ValueError):
            DriverConfig(rng_seed=-1)
        with pytest.raises(ValueError):
            DriverConfig(repetitions_per_k=0)

    @pytest.mark.parametrize("field, value", [
        ("rng_seed", 1.5), ("rng_seed", 2.0), ("rng_seed", "3"), ("rng_seed", None),
        ("repetitions_per_k", 1.5), ("repetitions_per_k", 2.0), ("repetitions_per_k", "3"),
    ])
    def test_integer_fields_reject_non_integers(self, field, value):
        # before running anything: numpy's SeedSequence or range() would fail later
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            DriverConfig(**{field: value})

    def test_integer_fields_are_stored_as_ints(self):
        cfg = DriverConfig(rng_seed=np.uint64(7), repetitions_per_k=np.int32(3))
        assert (cfg.rng_seed, cfg.repetitions_per_k) == (7, 3)
        assert type(cfg.rng_seed) is type(cfg.repetitions_per_k) is int


def exact_isolation_probability(n: int, k: int, s: int) -> Fraction:
    """P(a trial isolates the side 0..s-1), summed over all 2**n samples."""
    p, side, total = Fraction(1, k), (1 << s) - 1, Fraction(0)
    for mask in range(1 << n):
        r, inside = mask.bit_count(), (mask & side).bit_count()
        if r < 2 or (r == n and n > 2):  # the driver's skip rule
            continue
        if inside == 1 or r - inside == 1:
            total += p**r * (1 - p) ** (n - r)
    return total


class TestMissBound:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_isolation_probability_matches_enumeration(self, n):
        for k in range(1, n + 1):
            sizes = list(range(1, n))
            q = isolation_probability(n, k, sizes)
            for s, q_s in zip(sizes, q):
                assert q_s == pytest.approx(float(exact_isolation_probability(n, k, s)), abs=1e-12), (k, s)

    def test_isolation_probability_rejects_trivial_sides(self):
        for s in (0, 12, [1, 12]):
            with pytest.raises(ValueError, match="1 <= s < n"):
                isolation_probability(12, 3, s)

    @pytest.mark.parametrize("k", [0, -2, 13])
    def test_isolation_probability_rejects_rates_outside_one_to_n(self, k):
        with pytest.raises(ValueError, match="1 <= k <= n"):
            isolation_probability(12, k, 1)

    @pytest.mark.parametrize("n, k, s", [(12.0, 2, 1), (12, 2.0, 1), (12, 2, 1.5), (12, 2, [1.0, 2.0])])
    def test_isolation_probability_rejects_non_integers(self, n, k, s):
        with pytest.raises(TypeError):
            isolation_probability(n, k, s)

    def test_miss_bound_rejects_negative_repetitions(self):
        with pytest.raises(ValueError, match="reps must be >= 0"):
            miss_bound(12, -1)

    @pytest.mark.parametrize("n, reps, s", [(12, 1.5, None), (12.0, 1, None), (12, 1, 1.5)])
    def test_miss_bound_rejects_non_integers(self, n, reps, s):
        with pytest.raises(TypeError):
            miss_bound(n, reps, s)

    def test_no_repetitions_always_miss(self):
        # at n = 2 one trial cannot miss, so 0 * log(0) must not turn into nan
        assert miss_bound(2, 0) == miss_bound(12, 0) == miss_bound(12, 0, 3) == 1.0

    def test_bound_is_the_product_over_the_schedule(self):
        n, reps = 12, 3
        for s in range(1, n):
            expect = math.prod((1 - float(isolation_probability(n, k, s))) ** reps for k in geometric_schedule(n))
            assert miss_bound(n, reps, s) == pytest.approx(expect, rel=1e-12)
        assert miss_bound(n, reps) == max(miss_bound(n, reps, s) for s in range(1, n))

    def test_n_two_cannot_miss(self):
        assert miss_bound(2, 1) == 0.0

    def test_results_report_the_bound_of_the_repetitions_run(self):
        f = CutOracle(dumbbell())
        for cfg in (DriverConfig(rng_seed=3), DriverConfig(rng_seed=3, repetitions_per_k=2)):
            res = find_nontrivial_minimizer(f, cfg, BruteForceBlackbox())
            assert res.miss_bound == miss_bound(6, cfg.resolved_repetitions(6))
        assert res.miss_bound > MISS_TARGET  # 2 repetitions per k are below the default

    def test_seeded_miss_rate_at_one_repetition_is_within_the_bound(self):
        # two 6-vertex paths of weight 3 joined by one unit edge: the only
        # minimum is one path, of value 1 and size n/2
        n, runs = 12, 400
        h = Hypergraph(n, [((v, v + 1), 3) for v in range(n - 1) if v != 5] + [((0, 6), 1)])
        assert brute_min_nontrivial(h) == 1
        misses = sum(hypergraph_mincut(h, DriverConfig(rng_seed=seed, repetitions_per_k=1)).value != 1
                     for seed in range(runs))
        rate = misses / runs
        assert rate <= miss_bound(n, 1, 6) + 3 * math.sqrt(rate * (1 - rate) / runs)


class TestSampling:
    def test_k_one_selects_everything(self):
        rng = philox(1)
        for _ in range(20):
            assert sample_terminals(9, 1, rng) == GroundSet(9).full()

    def test_k_equals_n_mean_size(self):
        rng = philox(2)
        n = 40
        trials = 10_000
        total = sum(len(sample_terminals(n, n, rng)) for _ in range(trials))
        mean = total / trials
        sigma = math.sqrt(n * (1 / n) * (1 - 1 / n) / trials)
        assert abs(mean - 1.0) <= 3 * sigma

    def test_exactly_one_hit_probability(self):
        # planted set of size 2k/3 at k = 30; asymptotic rate (2/3) e^(-2/3)
        rng = philox(3)
        k, n = 30, 120
        planted = set(range(20))
        trials = 20_000
        hits = 0
        for _ in range(trials):
            sample = sample_terminals(n, k, rng)
            if sum(1 for v in sample if v in planted) == 1:
                hits += 1
        assert abs(hits / trials - (2 / 3) * math.exp(-2 / 3)) <= 0.05

    def test_mask_is_the_hit_loop_mask(self):
        # the bit-packed mask equals one OR per hit on the same draws, past
        # 64 elements and at sizes that are not a multiple of 8
        for seed in (0, 1, 9):
            for n in range(1, 201):
                for k in {1, 2, 3, 7, n}:
                    if k > n:
                        continue
                    ours, ref = philox(seed * 1000 + n), philox(seed * 1000 + n)
                    hits = ref.integers(0, k, size=n) == 0
                    mask = 0
                    for i in np.flatnonzero(hits):
                        mask |= 1 << int(i)
                    assert sample_terminals(n, k, ours) == ElementSubset(n, mask)

    def test_bad_k_rejected(self):
        rng = philox(4)
        with pytest.raises(ValueError):
            sample_terminals(5, 0, rng)
        with pytest.raises(ValueError):
            sample_terminals(5, 6, rng)

    @pytest.mark.parametrize("n, k", [(9, 2.5), (9.0, 3), (9, 2.0), (9, "3")])
    def test_non_integer_n_or_k_rejected(self, n, k):
        # numpy would draw integers(0, 2.5) as if k were 2, and fail on n = 9.0
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            sample_terminals(n, k, philox(4))

    def test_numpy_integers_draw_as_ints(self):
        assert sample_terminals(np.int64(40), np.int32(3), philox(5)) == sample_terminals(40, 3, philox(5))


class TestCanonicalSide:
    def test_prefers_small_side_then_small_mask(self):
        s = ElementSubset.of(5, [0, 1, 2, 3])
        assert canonical_side(s) == ElementSubset.of(5, [4])
        tie = ElementSubset.of(4, [2, 3])
        assert canonical_side(tie) == ElementSubset.of(4, [0, 1])
        assert canonical_side(ElementSubset.of(4, [0, 1])) == ElementSubset.of(4, [0, 1])


class TestAtK:
    def test_two_element_ground(self):
        f = CutOracle(Hypergraph(2, [((0, 1), 1)]))
        res = find_nontrivial_minimizer_at_k(f, 1, DriverConfig(rng_seed=5), BruteForceBlackbox())
        assert res.best_value == 1
        assert res.best_set == ElementSubset.of(2, [0])
        assert res.trials_skipped == 0

    def test_full_samples_skipped_above_two(self):
        f = CutOracle(dumbbell())
        res = find_nontrivial_minimizer_at_k(f, 1, DriverConfig(rng_seed=5), BruteForceBlackbox())
        # k = 1 always samples the whole ground set, which is skipped for n > 2
        assert res.trials_skipped == res.trials_run
        assert res.best_set is None
        assert res.blackbox_calls == 0

    def test_dumbbell_at_matched_k(self):
        f = CutOracle(dumbbell())
        res = find_nontrivial_minimizer_at_k(f, 3, DriverConfig(rng_seed=9), BruteForceBlackbox())
        assert res.best_value == 1
        assert set(res.best_set) in ({0, 1, 2}, {3, 4, 5})

    @pytest.mark.parametrize("k", [2.5, 2.0, "2"])
    def test_non_integer_k_rejected(self, k):
        # 2.5 used to fail inside numpy's SeedSequence with "seed must be integer"
        f = CutOracle(dumbbell())
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            find_nontrivial_minimizer_at_k(f, k, DriverConfig(rng_seed=5), BruteForceBlackbox())

    def test_trials_run_are_the_trial_samples(self):
        f = CutOracle(dumbbell())
        for k in (1, 2, 3, 6):
            cfg = DriverConfig(rng_seed=11, repetitions_per_k=40)
            samples = list(trial_samples(6, k, cfg))
            res = find_nontrivial_minimizer_at_k(f, k, cfg, BruteForceBlackbox())
            assert len(samples) == res.trials_run - res.trials_skipped
            # a trial on |R| terminals makes ceil(log2 |R|) + |R| blackbox calls
            assert [t.step1_calls + t.step2_calls for t in res.trial_stats] == [
                (len(r) - 1).bit_length() + len(r) for r in samples]
            assert all(2 <= len(r) < 6 for r in samples)
        # at n = 2 the full sample is the only one that can isolate, so it is kept
        assert list(trial_samples(2, 1, DriverConfig(repetitions_per_k=3))) == [GroundSet(2).full()] * 3

    def test_call_accounting_via_trial_stats(self):
        f = CutOracle(dumbbell())
        res = find_nontrivial_minimizer_at_k(f, 2, DriverConfig(rng_seed=11), BruteForceBlackbox())
        assert len(res.trial_stats) == res.trials_run - res.trials_skipped > 0
        assert res.blackbox_calls == sum(s.step1_calls + s.step2_calls for s in res.trial_stats)
        for stats in res.trial_stats:
            r = stats.step2_calls  # one round-2 call per terminal
            assert r >= 2
            assert stats.step1_calls == (r - 1).bit_length()


class TestSweep:
    def test_dumbbell_sweep(self):
        f = CutOracle(dumbbell())
        res = find_nontrivial_minimizer(f, DriverConfig(rng_seed=0), BruteForceBlackbox())
        assert res.best_value == 1
        assert set(res.best_set) == {0, 1, 2}  # canonical: smaller bitmask of the two triangles

    def test_dumbbell_many_seeds(self):
        f = CutOracle(dumbbell())
        wins = sum(
            find_nontrivial_minimizer(f, DriverConfig(rng_seed=s), BruteForceBlackbox()).best_value == 1
            for s in range(60)
        )
        assert wins >= 59

    def test_star_returns_a_leaf(self):
        # center 0 with three unit spokes: every leaf singleton costs 1, the center 3
        f = CutOracle(Hypergraph(4, [((0, 1), 1), ((0, 2), 1), ((0, 3), 1)]))
        res = find_nontrivial_minimizer(f, DriverConfig(rng_seed=2), BruteForceBlackbox())
        assert res.best_value == 1
        assert len(res.best_set) == 1
        assert 0 not in res.best_set

    def test_two_element_ground(self):
        f = CutOracle(Hypergraph(2, [((0, 1), 4)]))
        res = find_nontrivial_minimizer(f, DriverConfig(rng_seed=0), BruteForceBlackbox())
        assert res.best_value == 4
        assert res.best_set == ElementSubset.of(2, [0])

    def test_trials_per_k_and_no_rate_one_above_two(self):
        # reps trials at each k of the schedule; k = 1 only when n = 2
        cfg = DriverConfig(rng_seed=0)
        res = find_nontrivial_minimizer(CutOracle(dumbbell()), cfg, BruteForceBlackbox())
        assert [r.k for r in res.per_k_breakdown] == [2, 3, 4, 6]
        assert res.trials_run == 4 * cfg.resolved_repetitions(6)
        pair = find_nontrivial_minimizer(CutOracle(Hypergraph(2, [((0, 1), 4)])), cfg, BruteForceBlackbox())
        assert [r.k for r in pair.per_k_breakdown] == [1, 2]
        assert pair.trials_run == 2 * cfg.resolved_repetitions(2)

    def test_determinism(self):
        f1 = CutOracle(dumbbell())
        f2 = CutOracle(dumbbell())
        cfg = DriverConfig(rng_seed=1234)
        a = find_nontrivial_minimizer(f1, cfg, BruteForceBlackbox())
        b = find_nontrivial_minimizer(f2, cfg, BruteForceBlackbox())
        assert a == b

    def test_soundness_on_randoms(self):
        rng = philox(41)
        for seed in range(8):
            h = random_hypergraph(rng, n_lo=4, n_hi=8)
            f = CutOracle(h)
            res = find_nontrivial_minimizer(f, DriverConfig(rng_seed=seed), BruteForceBlackbox())
            assert 0 < len(res.best_set) < h.n
            assert CutOracle(h).evaluate(res.best_set) == res.best_value
            assert res.best_value >= brute_min_nontrivial(h)
            assert res.blackbox_calls_total == sum(r.blackbox_calls for r in res.per_k_breakdown)
            assert res.trials_run == sum(r.trials_run for r in res.per_k_breakdown)

    def test_non_cut_symmetric_oracle(self):
        n = 8
        f = SubmodularOracle(
            GroundSet(n), lambda s: min(len(s), n - len(s)),
            symmetric=True,
        )
        res = find_nontrivial_minimizer(f, DriverConfig(rng_seed=7), BruteForceBlackbox())
        assert res.best_value == 1
        assert len(res.best_set) == 1

    def test_all_trials_skipped_raises_no_candidate(self):
        # n = 3 at one repetition: seed 0 samples one terminal at k = 2 and none at k = 3
        f = SubmodularOracle(GroundSet(3), lambda s: min(len(s), 3 - len(s)), symmetric=True)
        with pytest.raises(NoCandidateError, match="no trial produced a candidate"):
            find_nontrivial_minimizer(f, DriverConfig(rng_seed=0, repetitions_per_k=1), BruteForceBlackbox())

    def test_small_ground_rejected(self):
        f = SubmodularOracle(GroundSet(1), lambda s: 0, symmetric=True)
        with pytest.raises(ValueError):
            find_nontrivial_minimizer(f, DriverConfig(), BruteForceBlackbox())


REIMPORT = """
import gc, importlib, sys, weakref

def fresh():
    for name in [m for m in sys.modules if m == "isocut" or m.startswith("isocut.")]:
        del sys.modules[name]
    return importlib.import_module("isocut")

first = weakref.ref(fresh().ElementSubset)
fresh()
gc.collect()
assert first() is None, "a re-import left the previous copy of the package alive"
"""


def test_reimport_frees_previous_copy():
    # run apart: re-importing replaces the classes the other tests hold
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", REIMPORT], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
