"""Brute-force and flow-based SFM: both must return the minimal minimizer."""

import pytest

from isocut import (
    BruteForceBlackbox,
    CutOracle,
    ElementSubset,
    GroundSet,
    Hypergraph,
    HypergraphFlowBlackbox,
    OracleContractError,
    SizeLimitError,
    SubmodularOracle,
    contract,
    cut_value,
    sfm_bruteforce,
)

from conftest import philox, random_hypergraph, raw_cut


def triangle_oracle():
    return CutOracle(Hypergraph(3, [((0, 1), 1), ((1, 2), 1), ((0, 2), 1)]))


class TestBruteforce:
    def test_triangle_minimum_is_empty_set(self):
        res = sfm_bruteforce(triangle_oracle())
        assert res.value == 0
        assert len(res.minimizer) == 0

    def test_triangle_contraction(self):
        f = triangle_oracle()
        g = contract(f, f.ground.subset([0]), f.ground.subset([1]))
        # over A subseteq {c}: f({a}) = 2, f({a, c}) = 2; minimal tie is empty
        res = sfm_bruteforce(g)
        assert res.value == 2
        assert len(res.minimizer) == 0

    def test_folded_cardinality(self):
        f = SubmodularOracle(GroundSet(3), lambda s: min(len(s), 3 - len(s)), symmetric=True)
        res = sfm_bruteforce(f)
        assert res.value == 0
        assert len(res.minimizer) == 0

    def test_size_cap(self):
        f = SubmodularOracle(GroundSet(25), lambda s: 0)
        with pytest.raises(SizeLimitError):
            sfm_bruteforce(f)

    def test_query_accounting(self):
        f = triangle_oracle()
        before = f.query_count
        sfm_bruteforce(f)
        # 2^3 enumerated subsets plus the final verification evaluation
        assert f.query_count - before == 9

    def test_query_sequence_on_contraction(self):
        # every S of the free elements once, in Gray-code order: query i holds
        # the sorted free elements picked by the bits of i ^ (i >> 1), glued
        # to forced_in; then the minimizer once
        rng = philox(41)
        for _ in range(8):
            h = random_hypergraph(rng, n_lo=3, n_hi=8)
            picks = [int(v) for v in rng.permutation(h.n)]
            for k in range(1, h.n):  # k = 1 leaves no free element: 2 queries
                queries = []
                f = SubmodularOracle(GroundSet(h.n), lambda s: queries.append(s) or cut_value(h, s))
                forced_in = f.ground.subset(picks[:1])
                before = f.query_count
                res = sfm_bruteforce(contract(f, forced_in, f.ground.subset(picks[k:])))
                free = sorted(picks[1:k])
                gray = [i ^ (i >> 1) for i in range(1 << len(free))]
                subsets = [[e for j, e in enumerate(free) if g >> j & 1] for g in gray]
                expected = [forced_in | f.ground.subset(c) for c in subsets] + [forced_in | res.minimizer]
                assert queries == expected
                assert len(queries) == f.query_count - before == 2 ** len(free) + 1
                assert res.rep_size == len(free)

    def test_non_submodular_oracle_detected(self):
        # minimum 0 at {0} and {1} but their intersection costs 5
        values = {0: 5, 1: 0, 2: 0, 3: 1}
        f = SubmodularOracle(GroundSet(2), lambda s: values[s.mask])
        with pytest.raises(OracleContractError):
            sfm_bruteforce(f)

    def test_returns_lattice_minimal_minimizer(self):
        rng = philox(23)
        for _ in range(25):
            h = random_hypergraph(rng, n_lo=3, n_hi=8)
            f = CutOracle(h)
            g = contract(f, f.ground.subset([0]), f.ground.subset([h.n - 1]))
            res = sfm_bruteforce(g)
            # re-derive the minimizer family exhaustively
            free = list(g.free)
            masks = []
            best = None
            for bits in range(1 << len(free)):
                mask = sum(1 << free[i] for i in range(len(free)) if (bits >> i) & 1)
                v = raw_cut(h, mask | 1)  # forced_in = {0}
                if best is None or v < best:
                    best, masks = v, [mask]
                elif v == best:
                    masks.append(mask)
            assert res.value == best
            meet = masks[0]
            for m in masks[1:]:
                meet &= m
            assert res.minimizer.mask == meet
            # lattice closure: meets and joins of minimizers stay minimizers
            for a in masks:
                for b in masks:
                    assert raw_cut(h, (a & b) | 1) == best
                    assert raw_cut(h, (a | b) | 1) == best

    def test_no_proper_subset_matches_value(self):
        rng = philox(29)
        for _ in range(15):
            h = random_hypergraph(rng, n_lo=3, n_hi=7)
            f = CutOracle(h)
            g = contract(f, f.ground.subset([0]), f.ground.empty())
            res = sfm_bruteforce(g)
            mz = res.minimizer.mask
            sub = (mz - 1) & mz
            while mz:
                if sub != mz:
                    assert raw_cut(h, sub | 1) > res.value or sub == mz
                if sub == 0:
                    break
                sub = (sub - 1) & mz


def flow_sfm(h, forced_in, forced_out):
    return HypergraphFlowBlackbox(h)(CutOracle(h), forced_in, forced_out)


class TestCutFunctionBlackbox:
    def test_single_hyperedge(self):
        h = Hypergraph(3, [((0, 1, 2), 5)])
        res = flow_sfm(h, ElementSubset.of(3, [0]), ElementSubset.of(3, [2]))
        # over A subseteq {1}: both sides cost 5; the minimal tie is empty
        assert res.value == 5
        assert len(res.minimizer) == 0
        assert res.rep_size == h.p

    def test_path(self):
        h = Hypergraph(3, [((0, 1), 1), ((1, 2), 1)])
        res = flow_sfm(h, ElementSubset.of(3, [0]), ElementSubset.of(3, [2]))
        assert res.value == 1
        assert len(res.minimizer) == 0

    def test_equal_sides_rejected(self):
        h = Hypergraph(3, [((0, 1), 1)])
        s = ElementSubset.of(3, [0])
        with pytest.raises(ValueError):
            flow_sfm(h, s, s)

    def test_empty_side_rejected(self):
        h = Hypergraph(3, [((0, 1), 1)])
        with pytest.raises(ValueError):
            flow_sfm(h, ElementSubset.of(3, [0]), GroundSet(3).empty())
        with pytest.raises(ValueError):
            flow_sfm(h, GroundSet(3).empty(), ElementSubset.of(3, [0]))


class TestOracleEquivalence:
    def test_flow_matches_bruteforce_exactly(self):
        # dual-route check: value AND minimizer must agree on 200 instances
        rng = philox(31)
        for _ in range(200):
            h = random_hypergraph(rng, n_lo=3, n_hi=10, m_lo=2, m_hi=15)
            f = CutOracle(h)
            picks = rng.choice(h.n, size=2, replace=False)
            forced_in = f.ground.subset([int(picks[0])])
            forced_out = f.ground.subset([int(picks[1])])
            flow_res = HypergraphFlowBlackbox(h)(f, forced_in, forced_out)
            brute_res = sfm_bruteforce(contract(f, forced_in, forced_out))
            assert flow_res.value == brute_res.value
            assert flow_res.minimizer == brute_res.minimizer

    def test_multi_terminal_sides(self):
        rng = philox(37)
        for _ in range(60):
            h = random_hypergraph(rng, n_lo=4, n_hi=9)
            f = CutOracle(h)
            picks = [int(v) for v in rng.choice(h.n, size=4, replace=False)]
            forced_in = f.ground.subset(picks[:2])
            forced_out = f.ground.subset(picks[2:])
            flow_res = HypergraphFlowBlackbox(h)(f, forced_in, forced_out)
            brute_res = sfm_bruteforce(contract(f, forced_in, forced_out))
            assert flow_res.value == brute_res.value
            assert flow_res.minimizer == brute_res.minimizer


def test_blackbox_callable_contract():
    h = Hypergraph(3, [((0, 1), 1), ((1, 2), 1)])
    f = CutOracle(h)
    res = BruteForceBlackbox()(f, f.ground.subset([0]), f.ground.subset([2]))
    assert res.value == 1 and len(res.minimizer) == 0
