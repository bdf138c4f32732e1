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
from isocut.hypergraph import MAX_TOTAL_WEIGHT, MAX_VERTICES

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


def random_sides(rng, n: int) -> tuple[int, int]:
    """Disjoint non-empty (forced_in, forced_out) masks, either of any size."""
    perm = [int(x) for x in rng.permutation(n)]
    k_in = int(rng.integers(1, n))
    k_out = int(rng.integers(1, n - k_in + 1))
    return sum(1 << u for u in perm[:k_in]), sum(1 << u for u in perm[k_in:k_in + k_out])


class TestContractedInstance:
    def test_path_single_vertex_cell(self):
        h = Hypergraph(3, [((0, 1), 1), ((1, 2), 1)])
        ci = contracted_instance(h, ElementSubset.of(3, [0]), ElementSubset.of(3, [1, 2]))
        assert (ci.n, ci.vertex_ids, ci.p) == (2, (), 2)
        assert ci.edges == (((0, 1), 1),)  # the b-c edge collapses away
        assert raw_cut(ci, 0b01) == raw_cut(h, 0b001)

    def test_big_edge_image(self):
        h = Hypergraph(4, [((0, 1, 2, 3), 2)])
        ci = contracted_instance(h, ElementSubset.of(4, [0]), ElementSubset.of(4, [2, 3]))
        assert ci.edges == (((0, 1, 2), 2),)
        assert ci.vertex_ids == (1,)

    def test_merge_order_is_first_seen_and_small_images_drop(self):
        # local 0 = {0, 1}, local 1 = {3, 4}, local 2 = vertex 2
        h = Hypergraph(5, [
            ((0, 1), 1),  # image {0}: dropped
            ((2, 3), 4),  # (1, 2), first seen
            ((0, 2), 2),  # (0, 2)
            ((3, 4), 6),  # image {1}: dropped
            ((2, 4), 8),  # merges into (1, 2)
            ((1, 2), 5),  # merges into (0, 2)
            ((0, 3), 1),  # (0, 1)
            ((2,), 9),  # rank one: dropped
        ])
        ci = contracted_instance(h, ElementSubset.of(5, [0, 1]), ElementSubset.of(5, [3, 4]))
        assert ci.edges == (((1, 2), 12), ((0, 2), 7), ((0, 1), 1))
        assert (ci.n, ci.vertex_ids, ci.p) == (3, (2,), 6)

    def test_full_cell_rejected(self):
        # no sink side, no source side, overlapping sides, another universe
        h = Hypergraph(3, [((0, 1), 1)])
        one, two, empty = ElementSubset.of(3, [0]), ElementSubset.of(3, [1]), ElementSubset.empty(3)
        for forced_in, forced_out in [(one, empty), (empty, two), (one, one | two), (ElementSubset.of(2, [0]), two)]:
            with pytest.raises(ValueError):
                contracted_instance(h, forced_in, forced_out)

    def test_cut_values_preserved(self):
        # every A with forced_in <= A <= V - forced_out, sides of any size
        rng = philox(31)
        for _ in range(40):
            h = random_hypergraph(rng, n_lo=3, n_hi=9)
            in_mask, out_mask = random_sides(rng, h.n)
            ci = contracted_instance(h, ElementSubset(h.n, in_mask), ElementSubset(h.n, out_mask))
            free = ci.vertex_ids
            assert free == tuple(u for u in range(h.n) if not (in_mask | out_mask) >> u & 1)
            for bits in range(1 << len(free)):
                orig_mask = in_mask | sum(1 << free[i] for i in range(len(free)) if bits >> i & 1)
                assert raw_cut(h, orig_mask) == raw_cut(ci, 1 | bits << 2)

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


@pytest.mark.parametrize("gen", [gen_uniform, gen_planted])
def test_generators_stop_at_the_total_weight_limit(gen):
    # one draw could reach the cut accounting's limit; from 2**63 up, numpy's
    # own bound check would fire first and name no parameter
    for max_weight in (MAX_TOTAL_WEIGHT, 1 << 63):
        with pytest.raises(ValueError, match=f"max_weight < {MAX_TOTAL_WEIGHT}"):
            gen(8, 6, 3, max_weight, philox(1))
    gen(4, 1, 2, MAX_TOTAL_WEIGHT - 1, philox(1))  # one edge: just under the limit


class TestFlowBlackbox:
    def test_matches_generic_cut_sfm(self):
        # exhaustive SFM of the cut function, for one-vertex and larger sides
        rng = philox(41)
        for trial in range(80):
            h = random_hypergraph(rng, n_lo=3, n_hi=9)
            f = CutOracle(h)
            if trial % 2:
                in_mask, out_mask = random_sides(rng, h.n)
            else:
                picks = [int(x) for x in rng.choice(h.n, size=2, replace=False)]
                in_mask, out_mask = 1 << picks[0], 1 << picks[1]
            res = HypergraphFlowBlackbox(h)(f, ElementSubset(h.n, in_mask), ElementSubset(h.n, out_mask))
            value, side = brute_st_cut(h, in_mask, out_mask)
            assert (res.value, res.minimizer.mask) == (value, side & ~in_mask)
            assert res.rep_size <= h.p

    def test_one_blackbox_serves_distinct_queries(self):
        # one instance answers many multi-vertex queries, each solved afresh
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
            value, side = brute_st_cut(h, forced_in.mask, forced_out.mask)
            assert (res.value, res.minimizer.mask) == (value, side & ~forced_in.mask)
        assert bb.flow_solves == 20

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
    @pytest.mark.parametrize("forced", [([0], [3]), ([0, 5], [2, 3])], ids=["one-vertex-side", "multi-vertex-sides"])
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
