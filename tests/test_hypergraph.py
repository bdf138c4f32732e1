"""Hypergraph model, file formats, flow reduction, and global min cut."""

import pytest

import isocut.hypergraph
from isocut import (
    CutOracle,
    DriverConfig,
    ElementSubset,
    Hypergraph,
    HypergraphFlowBlackbox,
    HypergraphParseError,
    check_submodular,
    check_symmetric,
    connected_components,
    contracted_instance,
    cut_value,
    gen_planted,
    gen_uniform,
    hypergraph_mincut,
    parse_hypergraph,
    parse_hypergraph_json,
    serialize_hypergraph,
    st_mincut,
)
from isocut.hypergraph import MAX_VERTICES

from conftest import brute_min_nontrivial, brute_st_cut, philox, random_hypergraph, raw_cut


class TestModel:
    def test_duplicate_edges_merge_by_weight(self):
        h = Hypergraph(3, [((0, 1), 2), ((1, 0), 3), ((1, 2), 1)])
        assert h.m == 2
        assert h.edges[0] == ((0, 1), 5)
        assert h.p == 4

    def test_rank_one_edges_are_legal_and_never_cut(self):
        h = Hypergraph(3, [((1,), 7), ((0, 2), 1)])
        assert h.p == 3
        for mask in range(1, 7):
            assert cut_value(h, ElementSubset(3, mask)) in (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [((0, 3), 1)])
        with pytest.raises(ValueError):
            Hypergraph(3, [((0, 1), 0)])
        with pytest.raises(ValueError):
            Hypergraph(3, [((), 1)])
        with pytest.raises(ValueError):
            Hypergraph(2, [((0, 1), 1 << 61)])


class TestCutValue:
    def test_single_hyperedge(self):
        h = Hypergraph(3, [((0, 1, 2), 5)])
        assert cut_value(h, ElementSubset.of(3, [0])) == 5
        assert cut_value(h, ElementSubset.empty(3)) == 0
        assert cut_value(h, ElementSubset.full(3)) == 0

    def test_shared_vertex(self):
        h = Hypergraph(3, [((0, 1), 1), ((1, 2), 1)])
        assert cut_value(h, ElementSubset.of(3, [1])) == 2

    def test_oracle_is_symmetric_submodular(self):
        rng = philox(17)
        for _ in range(6):
            f = CutOracle(random_hypergraph(rng, n_lo=4, n_hi=10))
            assert check_submodular(f, mode="exhaustive").ok
            assert check_symmetric(f, mode="exhaustive").ok


class TestParser:
    def test_minimal_unweighted(self):
        h = parse_hypergraph("1 3\n1 2 3\n")
        assert h.n == 3 and h.m == 1
        assert h.edges == (((0, 1, 2), 1),)
        assert h.p == 3

    def test_weighted(self):
        h = parse_hypergraph("2 3 1\n5 1 2\n2 2 3\n")
        assert h.edges == (((0, 1), 5), ((1, 2), 2))
        assert h.p == 4

    def test_comments_and_blank_lines(self):
        text = "% generated\n\n2 3 1\n% first edge\n5 1 2\n2 2 3\n"
        assert parse_hypergraph(text).m == 2

    def test_missing_edges_reported(self):
        with pytest.raises(HypergraphParseError, match="expected 3 hyperedge lines, found 2"):
            parse_hypergraph("3 3\n1 2\n2 3\n")

    def test_extra_edges_reported_with_line(self):
        with pytest.raises(HypergraphParseError, match="line 4"):
            parse_hypergraph("2 3\n1 2\n2 3\n1 3\n")

    def test_vertex_out_of_range_with_line(self):
        with pytest.raises(HypergraphParseError, match="line 3.*vertex 4"):
            parse_hypergraph("2 3\n1 2\n2 4\n")

    def test_non_positive_weight(self):
        with pytest.raises(HypergraphParseError, match="non-positive weight"):
            parse_hypergraph("1 3 1\n0 1 2\n")

    def test_unsupported_fmt(self):
        with pytest.raises(HypergraphParseError, match="unsupported fmt"):
            parse_hypergraph("1 3 11\n1 1 2\n")

    def test_missing_header(self):
        with pytest.raises(HypergraphParseError, match="header"):
            parse_hypergraph("% nothing here\n")

    def test_roundtrip(self):
        rng = philox(19)
        for _ in range(10):
            h = random_hypergraph(rng)
            assert parse_hypergraph(serialize_hypergraph(h)) == h

    def test_json_mirror(self):
        text = '{"n": 3, "edges": [{"verts": [1, 2], "w": 5}, {"verts": [2, 3]}]}'
        h = parse_hypergraph_json(text)
        assert h.edges == (((0, 1), 5), ((1, 2), 1))
        with pytest.raises(HypergraphParseError):
            parse_hypergraph_json('{"n": 2}')
        with pytest.raises(HypergraphParseError):
            parse_hypergraph_json('{"n": 2, "edges": [{"verts": [3]}]}')
        with pytest.raises(HypergraphParseError, match="invalid JSON"):
            parse_hypergraph_json("{nope")

    def test_vertex_count_limit(self):
        # rejected from the header alone, before anything is sized by n
        n = 2**40
        with pytest.raises(HypergraphParseError, match=f"line 2: vertex count {n} exceeds the limit of {MAX_VERTICES}"):
            parse_hypergraph(f"% huge\n1 {n}\n1 2\n")
        with pytest.raises(HypergraphParseError, match=f"vertex count {n} exceeds the limit of {MAX_VERTICES}"):
            parse_hypergraph_json(f'{{"n": {n}, "edges": [{{"verts": [1, 2]}}]}}')
        assert parse_hypergraph(f"1 {MAX_VERTICES}\n1 {MAX_VERTICES}\n").n == MAX_VERTICES
        assert parse_hypergraph_json(f'{{"n": {MAX_VERTICES}, "edges": []}}').n == MAX_VERTICES


class TestStMincut:
    def test_single_hyperedge(self):
        h = Hypergraph(3, [((0, 1, 2), 5)])
        value, side = st_mincut(h, ElementSubset.of(3, [0]), ElementSubset.of(3, [2]))
        assert value == 5
        assert set(side) == {0}

    def test_path_prefers_minimal_side(self):
        h = Hypergraph(3, [((0, 1), 1), ((1, 2), 1)])
        value, side = st_mincut(h, ElementSubset.of(3, [0]), ElementSubset.of(3, [2]))
        assert value == 1
        assert set(side) == {0}

    def test_overlapping_sides_rejected(self):
        h = Hypergraph(3, [((0, 1), 1)])
        s = ElementSubset.of(3, [0])
        with pytest.raises(ValueError):
            st_mincut(h, s, s)

    def test_matches_enumeration(self):
        rng = philox(23)
        for _ in range(60):
            h = random_hypergraph(rng, n_lo=3, n_hi=9)
            picks = rng.choice(h.n, size=2, replace=False)
            s_mask, t_mask = 1 << int(picks[0]), 1 << int(picks[1])
            value, side = st_mincut(h, ElementSubset(h.n, s_mask), ElementSubset(h.n, t_mask))
            expect_value, expect_side = brute_st_cut(h, s_mask, t_mask)
            assert value == expect_value
            assert side.mask == expect_side

    def test_edge_order_does_not_matter(self):
        rng = philox(29)
        for _ in range(15):
            h = random_hypergraph(rng, n_lo=4, n_hi=8)
            edges = list(h.edges)
            perm = [int(i) for i in rng.permutation(len(edges))]
            h2 = Hypergraph(h.n, [edges[i] for i in perm])
            s = ElementSubset.of(h.n, [0])
            t = ElementSubset.of(h.n, [h.n - 1])
            v1, side1 = st_mincut(h, s, t)
            v2, side2 = st_mincut(h2, s, t)
            assert v1 == v2
            assert side1 == side2  # the minimal side is unique, hence order-free


class TestContractedInstance:
    def test_path_single_vertex_cell(self):
        h = Hypergraph(3, [((0, 1), 1), ((1, 2), 1)])
        ci = contracted_instance(h, 0, ElementSubset.of(3, [0]))
        assert ci.hypergraph.n == 2
        assert ci.hypergraph.edges == (((0, 1), 1),)  # the b-c edge collapses away
        value, _ = st_mincut(
            ci.hypergraph,
            ElementSubset.of(2, [ci.source]),
            ElementSubset.of(2, [ci.sink]),
        )
        assert value == raw_cut(h, 0b001)

    def test_big_edge_image(self):
        h = Hypergraph(4, [((0, 1, 2, 3), 2)])
        ci = contracted_instance(h, 0, ElementSubset.of(4, [0, 1]))
        assert ci.hypergraph.edges == (((0, 1, 2), 2),)
        assert ci.sink == 2

    def test_full_cell_rejected(self):
        h = Hypergraph(3, [((0, 1), 1)])
        with pytest.raises(ValueError):
            contracted_instance(h, 0, ElementSubset.full(3))
        with pytest.raises(ValueError):
            contracted_instance(h, 0, ElementSubset.of(3, [1]))

    def test_cut_values_preserved(self):
        rng = philox(31)
        for _ in range(25):
            h = random_hypergraph(rng, n_lo=4, n_hi=9)
            cell_size = int(rng.integers(1, h.n))
            members = sorted(int(x) for x in rng.choice(h.n, size=cell_size, replace=False))
            v = members[0]
            cell = ElementSubset.of(h.n, members)
            ci = contracted_instance(h, v, cell)
            local = {orig: i for i, orig in enumerate(ci.vertex_ids)}
            inner = [u for u in members if u != v]
            for bits in range(1 << len(inner)):
                chosen = [v] + [inner[i] for i in range(len(inner)) if (bits >> i) & 1]
                orig_mask = sum(1 << u for u in chosen)
                local_mask = sum(1 << local[u] for u in chosen)
                assert raw_cut(h, orig_mask) == raw_cut(ci.hypergraph, local_mask)

    def test_aggregate_size_over_disjoint_cells(self):
        # cells from actual runs stay within the 4 (p + |R|) budget
        rng = philox(37)
        for _ in range(10):
            h = random_hypergraph(rng, n_lo=5, n_hi=10)
            f = CutOracle(h)
            from isocut import TerminalSet, isolating_sets
            size = int(rng.integers(2, h.n))
            members = sorted(int(x) for x in rng.choice(h.n, size=size, replace=False))
            res = isolating_sets(f, TerminalSet(ElementSubset.of(h.n, members)), HypergraphFlowBlackbox(h))
            assert res.stats.step2_rep_total is not None
            assert res.stats.step2_rep_total <= 4 * (h.p + size)


@pytest.mark.parametrize("gen", [gen_uniform, gen_planted])
def test_generators_stop_at_the_parsers_vertex_limit(gen):
    with pytest.raises(ValueError, match=f"n <= {MAX_VERTICES}"):
        gen(MAX_VERTICES + 1, 6, 3, 10, philox(1))


class TestFlowBlackbox:
    def test_matches_generic_cut_sfm(self):
        rng = philox(41)
        for _ in range(40):
            h = random_hypergraph(rng, n_lo=3, n_hi=9)
            f = CutOracle(h)
            picks = [int(x) for x in rng.choice(h.n, size=2, replace=False)]
            forced_in = f.ground.subset(picks[:1])
            forced_out = f.ground.subset(picks[1:])
            a = HypergraphFlowBlackbox(h)(f, forced_in, forced_out)
            # the blackbox solves a contraction; st_mincut the full network
            flow, side = st_mincut(h, forced_in, forced_out)
            assert (a.value, a.minimizer) == (flow, side - forced_in)
            assert a.rep_size <= h.p

    def test_cached_full_network_serves_distinct_queries(self):
        # multi-vertex forced_in goes through the one network the blackbox
        # builds and keeps; each solve must extend it without changing it
        h = gen_planted(10, 30, 3, 10, philox(43))[0]
        f = CutOracle(h)
        bb = HypergraphFlowBlackbox(h)
        rng = philox(44)
        seen = set()
        while len(seen) < 20:
            k_in = int(rng.integers(2, h.n - 1))
            k_out = int(rng.integers(1, h.n - k_in + 1))
            picks = [int(x) for x in rng.permutation(h.n)[: k_in + k_out]]
            forced_in, forced_out = f.ground.subset(picks[:k_in]), f.ground.subset(picks[k_in:])
            if (forced_in, forced_out) in seen:
                continue
            seen.add((forced_in, forced_out))
            res = bb(f, forced_in, forced_out)
            flow, side = st_mincut(h, forced_in, forced_out)
            assert (res.value, res.minimizer) == (flow, side - forced_in)
        assert bb.flow_solves == 20
        assert bb._net._base == isocut.hypergraph._SplitNetwork(h)._base

    def test_rejects_foreign_oracle(self):
        h1 = Hypergraph(3, [((0, 1), 1)])
        h2 = Hypergraph(3, [((0, 1), 1)])
        f = CutOracle(h1)
        with pytest.raises(ValueError):
            HypergraphFlowBlackbox(h2)(f, f.ground.subset([0]), f.ground.subset([1]))


@pytest.fixture
def flow_solve_count(monkeypatch):
    """Counts calls of the max-flow kernel the blackbox solves with."""
    count = [0]
    solve = isocut.hypergraph.solve_max_flow

    def counted(*args):
        count[0] += 1
        return solve(*args)

    monkeypatch.setattr(isocut.hypergraph, "solve_max_flow", counted)
    return count


class TestFlowBlackboxMemo:
    @pytest.mark.parametrize("forced", [([0], [3]), ([0, 5], [2, 3])], ids=["contracted", "full-network"])
    def test_repeat_query_is_not_solved_again(self, flow_solve_count, forced):
        h = gen_planted(8, 24, 3, 10, philox(5))[0]
        f = CutOracle(h)
        forced_in, forced_out = (f.ground.subset(part) for part in forced)
        bb = HypergraphFlowBlackbox(h)
        first = bb(f, forced_in, forced_out)
        again = bb(f, forced_in, forced_out)
        assert flow_solve_count[0] == bb.flow_solves == 1
        fresh = HypergraphFlowBlackbox(h)(f, forced_in, forced_out)
        assert again == first == fresh

    def test_flow_solves_counts_kernel_solves(self, flow_solve_count):
        h = gen_planted(12, 36, 3, 10, philox(7))[0]
        res = hypergraph_mincut(h, DriverConfig(rng_seed=1))
        assert res.flow_solves == flow_solve_count[0]
        assert 0 < res.flow_solves < res.blackbox_calls

    def test_no_answers_carry_across_runs(self):
        h = gen_planted(12, 36, 3, 10, philox(8))[0]
        a = hypergraph_mincut(h, DriverConfig(rng_seed=2))
        b = hypergraph_mincut(h, DriverConfig(rng_seed=2))
        assert a.flow_solves == b.flow_solves > 0
        assert (a.value, a.side, a.blackbox_calls) == (b.value, b.side, b.blackbox_calls)


class TestComponents:
    def test_isolated_vertices_are_components(self):
        h = Hypergraph(4, [((0, 1), 1)])
        comps = connected_components(h)
        assert [set(c) for c in comps] == [{0, 1}, {2}, {3}]

    def test_connected(self):
        h = Hypergraph(3, [((0, 1), 1), ((1, 2), 1)])
        assert len(connected_components(h)) == 1


class TestGlobalMincut:
    def test_dumbbell(self):
        h = Hypergraph(6, [
            ((0, 1), 1), ((1, 2), 1), ((0, 2), 1),
            ((3, 4), 1), ((4, 5), 1), ((3, 5), 1),
            ((2, 3), 1),
        ])
        res = hypergraph_mincut(h, DriverConfig(rng_seed=0))
        assert res.value == 1
        assert set(res.side) == {0, 1, 2}
        assert res.blackbox_calls > 0
        assert res.step2_rep_bound_ok

    def test_single_hyperedge_all_cuts_equal(self):
        h = Hypergraph(3, [((0, 1, 2), 5)])
        res = hypergraph_mincut(h, DriverConfig(rng_seed=0))
        assert res.value == 5
        assert len(res.side) == 1

    def test_disconnected_shortcut(self):
        h = Hypergraph(5, [((0, 1), 3), ((3, 4), 2)])
        res = hypergraph_mincut(h, DriverConfig(rng_seed=0))
        assert res.value == 0
        assert res.blackbox_calls == 0 and res.trials == 0 and res.flow_solves == 0
        assert 0 < len(res.side) < 5
        assert cut_value(h, res.side) == 0

    def test_matches_bruteforce_on_randoms(self):
        rng = philox(43)
        for seed in range(12):
            h = random_hypergraph(rng, n_lo=4, n_hi=9)
            res = hypergraph_mincut(h, DriverConfig(rng_seed=seed))
            assert res.value == brute_min_nontrivial(h)
            assert cut_value(h, res.side) == res.value

    def test_tiny_ground_rejected(self):
        with pytest.raises(ValueError):
            hypergraph_mincut(Hypergraph(1, [((0,), 1)]), DriverConfig())
