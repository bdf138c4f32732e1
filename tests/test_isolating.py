"""Terminal bipartitions, cells, and the isolating sets themselves."""

import pytest

from isocut import (
    BruteForceBlackbox,
    CutOracle,
    ElementSubset,
    GroundSet,
    Hypergraph,
    HypergraphFlowBlackbox,
    OracleContractError,
    SubmodularOracle,
    TerminalSet,
    bipartitions,
    isolating_sets,
)

from conftest import brute_isolating, philox, random_hypergraph


def terminal_set(n, members):
    return TerminalSet(ElementSubset.of(n, members))


class TestBipartitions:
    def test_three_terminals(self):
        ts = terminal_set(5, [0, 2, 4])  # labels 0, 1, 2 in ascending order
        parts = bipartitions(ts)
        assert len(parts) == 2
        assert (set(parts[0][0]), set(parts[0][1])) == ({0, 4}, {2})
        assert (set(parts[1][0]), set(parts[1][1])) == ({0, 2}, {4})

    def test_two_terminals(self):
        ts = terminal_set(4, [1, 3])
        parts = bipartitions(ts)
        assert len(parts) == 1
        assert (set(parts[0][0]), set(parts[0][1])) == ({1}, {3})

    def test_every_pair_separated(self):
        rng = philox(3)
        for _ in range(30):
            n = int(rng.integers(2, 14))
            size = int(rng.integers(2, n + 1))
            members = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
            ts = terminal_set(n, members)
            parts = bipartitions(ts)
            assert len(parts) == (len(members) - 1).bit_length()
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    assert any((u in s) != (v in s) for s, _ in parts)
            for s_part, t_part in parts:
                assert s_part and t_part
                assert (s_part | t_part) == ts.terminals

    def test_single_terminal_rejected(self):
        with pytest.raises(ValueError):
            terminal_set(4, [2])


def star_oracle():
    # center 3, leaves 0, 1, 2
    return CutOracle(Hypergraph(4, [((3, 0), 1), ((3, 1), 1), ((3, 2), 1)]))


BLACKBOXES = ["brute", "flow"]


def make_blackbox(kind, oracle):
    if kind == "brute":
        return BruteForceBlackbox()
    return HypergraphFlowBlackbox(oracle.hypergraph)


class TestIsolatingSets:
    @pytest.mark.parametrize("kind", BLACKBOXES)
    def test_star_leaf_terminals(self, kind):
        f = star_oracle()
        res = isolating_sets(f, terminal_set(4, [0, 1]), make_blackbox(kind, f))
        assert set(res.isolating_sets[0]) == {0}
        assert set(res.isolating_sets[1]) == {1}
        assert res.values == {0: 1, 1: 1}

    @pytest.mark.parametrize("kind", BLACKBOXES)
    def test_path_endpoints_tie_break_to_singletons(self, kind):
        f = CutOracle(Hypergraph(3, [((0, 1), 1), ((1, 2), 1)]))
        res = isolating_sets(f, terminal_set(3, [0, 2]), make_blackbox(kind, f))
        # {0} and {0, 1} both cost 1; inclusion minimality forces the singleton
        assert set(res.isolating_sets[0]) == {0}
        assert set(res.isolating_sets[2]) == {2}
        assert res.values == {0: 1, 2: 1}

    @pytest.mark.parametrize("kind", BLACKBOXES)
    def test_two_hyperedges_asymmetric_weights(self, kind):
        # one cheap 3-edge and one heavy 2-edge sharing a vertex
        h = Hypergraph(4, [((0, 1, 2), 1), ((2, 3), 3)])
        f = CutOracle(h)
        res = isolating_sets(f, terminal_set(4, [0, 3]), make_blackbox(kind, f))
        expected = brute_isolating(h, [0, 3])
        for v in (0, 3):
            assert res.values[v] == expected[v][0]
            assert res.isolating_sets[v].mask == expected[v][1]
        # the cheap edge lets terminal 3 absorb vertex 2 rather than pay 3
        assert set(res.isolating_sets[3]) == {2, 3}
        assert res.values[3] == 1

    def test_requires_symmetric_claim(self):
        f = SubmodularOracle(GroundSet(3), lambda s: len(s))
        with pytest.raises(OracleContractError):
            isolating_sets(f, terminal_set(3, [0, 1]), BruteForceBlackbox())

    def test_terminals_must_match_ground(self):
        f = star_oracle()
        with pytest.raises(ValueError):
            isolating_sets(f, terminal_set(5, [0, 1]), BruteForceBlackbox())


class TestAgainstBruteForce:
    @pytest.mark.parametrize("kind", BLACKBOXES)
    def test_matches_minimal_brute_force_and_containment(self, kind):
        rng = philox(71)
        for _ in range(25):
            h = random_hypergraph(rng, n_lo=3, n_hi=8, m_lo=2, m_hi=10)
            f = CutOracle(h)
            size = int(rng.integers(2, h.n + 1))
            members = sorted(int(v) for v in rng.choice(h.n, size=size, replace=False))
            ts = terminal_set(h.n, members)
            res = isolating_sets(f, ts, make_blackbox(kind, f))
            expected = brute_isolating(h, members)
            for v in members:
                assert res.values[v] == expected[v][0]
                assert res.isolating_sets[v].mask == expected[v][1]
                assert res.isolating_sets[v] <= res.cells[v]

    def test_min_over_terminals_matches_global_single_intersection(self):
        rng = philox(73)
        for _ in range(10):
            h = random_hypergraph(rng, n_lo=4, n_hi=9)
            f = CutOracle(h)
            size = int(rng.integers(2, h.n + 1))
            members = sorted(int(v) for v in rng.choice(h.n, size=size, replace=False))
            res = isolating_sets(f, terminal_set(h.n, members), HypergraphFlowBlackbox(h))
            expected = brute_isolating(h, members)
            assert min(res.values.values()) == min(v for v, _ in expected.values())


class TestStructure:
    def test_cells_and_call_accounting(self):
        rng = philox(79)
        for _ in range(20):
            h = random_hypergraph(rng, n_lo=3, n_hi=9)
            f = CutOracle(h)
            size = int(rng.integers(2, h.n + 1))
            members = sorted(int(v) for v in rng.choice(h.n, size=size, replace=False))
            ts = terminal_set(h.n, members)
            res = isolating_sets(f, ts, HypergraphFlowBlackbox(h))
            assert res.stats.step1_calls == (len(members) - 1).bit_length()
            assert res.stats.step2_calls == len(members)
            total = 0
            for i, u in enumerate(members):
                cell = res.cells[u]
                assert u in cell
                assert cell & ts.terminals == ElementSubset.of(h.n, [u])
                total += len(cell)
                for v in members[i + 1:]:
                    assert not (cell & res.cells[v])
            assert total <= h.n
            assert res.stats.step2_ground_total == total - len(members)

    def test_submodularity_inequality_on_cut_sides(self):
        # f(S_v) + f(C) >= f(S_v | C) + f(S_v & C) for every round-1 side C
        rng = philox(83)
        for _ in range(10):
            h = random_hypergraph(rng, n_lo=4, n_hi=8)
            f = CutOracle(h)
            members = sorted(int(v) for v in rng.choice(h.n, size=3, replace=False))
            ts = terminal_set(h.n, members)
            blackbox = HypergraphFlowBlackbox(h)
            sides = [s | blackbox(f, s, t).minimizer for s, t in bipartitions(ts)]
            res = isolating_sets(f, ts, blackbox)
            for v in members:
                s_v = res.isolating_sets[v]
                for side in sides:
                    c = side if v in side else side.complement()
                    assert (
                        f.evaluate(s_v) + f.evaluate(c)
                        >= f.evaluate(s_v | c) + f.evaluate(s_v & c)
                    )
