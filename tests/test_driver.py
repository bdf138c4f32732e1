"""Sampling, per-k trials, and the geometric-schedule sweep."""

import math

import pytest

from isocut import (
    BruteForceBlackbox,
    CutOracle,
    DriverConfig,
    ElementSubset,
    GroundSet,
    Hypergraph,
    SubmodularOracle,
    canonical_side,
    find_nontrivial_minimizer,
    find_nontrivial_minimizer_at_k,
    geometric_schedule,
    sample_terminals,
)

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
        assert geometric_schedule(12) == (1, 2, 3, 4, 6, 8, 12)
        assert geometric_schedule(2) == (1, 2)
        assert geometric_schedule(1) == (1,)

    def test_schedule_is_deduplicated_and_capped(self):
        for n in range(1, 200):
            ks = geometric_schedule(n)
            assert len(set(ks)) == len(ks)
            assert all(1 <= k <= n for k in ks)
            assert ks[0] == 1


class TestConfig:
    def test_default_repetitions(self):
        assert DriverConfig().resolved_repetitions(2) == 12
        assert DriverConfig().resolved_repetitions(8) == 36
        assert DriverConfig().resolved_repetitions(12) == math.ceil(12 * math.log2(12))

    def test_validation(self):
        with pytest.raises(ValueError):
            DriverConfig(rng_seed=-1)
        with pytest.raises(ValueError):
            DriverConfig(repetitions_per_k=0)
        with pytest.raises(ValueError):
            DriverConfig(k_schedule=(0,))
        with pytest.raises(ValueError):
            DriverConfig(k_schedule=(9,)).resolved_schedule(4)


class TestSampling:
    def test_k_one_selects_everything(self):
        rng = philox(1)
        for _ in range(20):
            assert sample_terminals(9, 1, rng) == ElementSubset.full(9)

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

    def test_bad_k_rejected(self):
        rng = philox(4)
        with pytest.raises(ValueError):
            sample_terminals(5, 0, rng)
        with pytest.raises(ValueError):
            sample_terminals(5, 6, rng)


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

    def test_call_accounting_via_observer(self):
        f = CutOracle(dumbbell())
        seen = []
        res = find_nontrivial_minimizer_at_k(
            f, 2, DriverConfig(rng_seed=11), BruteForceBlackbox(),
            observer=lambda ts, iso: seen.append((len(ts), iso.stats)),
        )
        assert len(seen) == res.trials_run - res.trials_skipped
        expected = sum((r - 1).bit_length() + r for r, _ in seen)
        assert res.blackbox_calls == expected
        for r, stats in seen:
            assert stats.step1_calls == (r - 1).bit_length()
            assert stats.step2_calls == r


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

    def test_small_ground_rejected(self):
        f = SubmodularOracle(GroundSet(1), lambda s: 0, symmetric=True)
        with pytest.raises(ValueError):
            find_nontrivial_minimizer(f, DriverConfig(), BruteForceBlackbox())

    def test_custom_schedule_respected(self):
        f = CutOracle(dumbbell())
        cfg = DriverConfig(rng_seed=3, k_schedule=(2, 3), repetitions_per_k=20)
        res = find_nontrivial_minimizer(f, cfg, BruteForceBlackbox())
        assert [r.k for r in res.per_k_breakdown] == [2, 3]
        assert res.trials_run == 40
