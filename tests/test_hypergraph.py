"""Hypergraph model, file formats, flow reduction, and global min cut."""

import itertools
import math

import pytest

import isocut.hypergraph
from isocut import (
    BruteForceBlackbox,
    CutOracle,
    DriverConfig,
    ElementSubset,
    GroundSet,
    Hypergraph,
    HypergraphFlowBlackbox,
    HypergraphParseError,
    TerminalSet,
    canonical_side,
    check_submodular,
    check_symmetric,
    contract,
    contracted_instance,
    cut_value,
    gen_planted,
    gen_uniform,
    hypergraph_mincut,
    isolating_sets,
    parse_hypergraph,
    parse_hypergraph_json,
    serialize_hypergraph,
    st_mincut,
)
from isocut._kernels import INF, build_forward_star, solve_max_flow
from isocut.hypergraph import MAX_TOTAL_WEIGHT, MAX_VERTICES, _flow_cut, _flow_network

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

    @pytest.mark.parametrize("edge", [((0, 1.7), 2), ((0, 1), 2.9), ((0, 1.0), 2), ((0, 1), 2.0)])
    def test_non_integer_vertex_or_weight_is_a_type_error(self, edge):
        # int() would truncate 1.7 to 1 and 2.9 to 2 and build a different edge
        with pytest.raises(TypeError):
            Hypergraph(3, [edge])


    def test_non_integer_vertex_count_is_a_type_error(self):
        with pytest.raises(TypeError):
            Hypergraph(2.5, [((0, 1), 1)])

    @pytest.mark.parametrize("digits", [4000, 5000])
    @pytest.mark.parametrize("args, problem", [
        (lambda big: (big, []), "n <= "),
        (lambda big: (3, [((0, big), 1)]), "hyperedge vertex "),
        (lambda big: (3, [((-big, 1), 1)]), "hyperedge vertex -"),
        (lambda big: (3, [((0, 1), -big)]), "non-positive weight -"),
    ], ids=["n", "vertex", "negative-vertex", "weight"])
    def test_huge_int_message_is_short(self, digits, args, problem):
        # past 4,300 digits repr(int) raises, so the message names the bit length instead
        with pytest.raises(ValueError, match=problem) as info:
            Hypergraph(*args(10**digits))
        assert len(str(info.value)) < 200

    def test_vertex_count_limit(self):
        # the parsers' limit holds for library callers too; no oracle is built
        with pytest.raises(ValueError, match=f"n <= {MAX_VERTICES}, got {MAX_VERTICES + 1}"):
            Hypergraph(MAX_VERTICES + 1, [((0, 1), 1)])
        assert Hypergraph(MAX_VERTICES, [((0, 1), 1)]).n == MAX_VERTICES


class TestCutValue:
    def test_single_hyperedge(self):
        h = Hypergraph(3, [((0, 1, 2), 5)])
        assert cut_value(h, ElementSubset.of(3, [0])) == 5
        assert cut_value(h, GroundSet(3).empty()) == 0
        assert cut_value(h, GroundSet(3).full()) == 0

    def test_shared_vertex(self):
        h = Hypergraph(3, [((0, 1), 1), ((1, 2), 1)])
        assert cut_value(h, ElementSubset.of(3, [1])) == 2

    def test_oracle_is_symmetric_submodular(self):
        rng = philox(17)
        for _ in range(6):
            f = CutOracle(random_hypergraph(rng, n_lo=4, n_hi=10))
            assert check_submodular(f).ok
            assert check_symmetric(f).ok


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

    @pytest.mark.parametrize("text", ["1 1_0\n1 2\n", "1 ١٠\n1 2\n", "1 3\n1 1_0\n", "1 3\n1 ٢\n"],
                             ids=["header-underscore", "header-arabic-indic", "edge-underscore", "edge-arabic-indic"])
    def test_only_ascii_decimal_tokens(self, text):
        # int() alone reads 1_0 as 10 and Arabic-Indic digits as their values
        with pytest.raises(HypergraphParseError, match="must be integers"):
            parse_hypergraph(text)

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


def mixed_sides(rng, n: int, trial: int) -> tuple[int, int]:
    """One vertex a side on even trials, which leaves large free images
    common, and ``random_sides`` on odd ones."""
    if trial % 2:
        return random_sides(rng, n)
    picks = [int(x) for x in rng.choice(n, size=2, replace=False)]
    return 1 << picks[0], 1 << picks[1]


def reference_images(h: Hypergraph, in_mask: int, out_mask: int):
    """(sorted local images with weights, p) by the set rule: each vertex maps
    to 0 (forced in), 1 (forced out) or its local id, images of fewer than
    two vertices drop, and equal images merge by weight, first-seen."""
    free = [u for u in range(h.n) if not (in_mask | out_mask) >> u & 1]
    local = {u: i for i, u in enumerate(free, 2)}
    local.update({u: 0 for u in range(h.n) if in_mask >> u & 1})
    local.update({u: 1 for u in range(h.n) if out_mask >> u & 1})
    merged = {}
    for verts, w in h.edges:
        image = tuple(sorted({local[u] for u in verts}))
        if len(image) >= 2:
            merged[image] = merged.get(image, 0) + w
    return tuple(merged.items()), sum(len(image) for image in merged)


def free_ids(ci) -> tuple[int, ...]:
    """The original ids of ``ci``'s free vertices, ascending: local ids 2, 3, ..."""
    return tuple(u for u in range(ci.free.bit_length()) if ci.free >> u & 1)


def local_n(ci) -> int:
    """Local vertex count: 0, 1 and the free vertices."""
    return ci.free.bit_count() + 2


def local_images(ci) -> tuple:
    """``ci.images`` as sorted local images, leaving out those of fewer than
    two vertices: 0 and 1 from the flags, then the local ids of the free
    vertices in the key."""
    local = {u: i for i, u in enumerate(free_ids(ci), 2)}
    out = []
    for key, w in ci.images.items():
        part = key >> 2
        image = [0] * (key >> 1 & 1) + [1] * (key & 1) + [local[u] for u in range(part.bit_length()) if part >> u & 1]
        if len(image) >= 2:
            out.append((tuple(image), w))
    return tuple(out)


def rep_size(ci) -> int:
    """p of the contraction: the sum of the sizes of its images of two or more vertices."""
    return sum(len(image) for image, _ in local_images(ci))


class TestContractedInstance:
    def test_path_single_vertex_cell(self):
        h = Hypergraph(3, [((0, 1), 1), ((1, 2), 1)])
        ci = contracted_instance(h, ElementSubset.of(3, [0]), ElementSubset.of(3, [1, 2]))
        assert (local_n(ci), free_ids(ci), rep_size(ci)) == (2, (), 2)
        assert local_images(ci) == (((0, 1), 1),)  # the b-c edge collapses away
        assert (local_images(ci), rep_size(ci)) == reference_images(h, 0b001, 0b110)
        assert raw_cut(Hypergraph(local_n(ci), local_images(ci)), 0b01) == raw_cut(h, 0b001)

    def test_big_edge_image(self):
        h = Hypergraph(4, [((0, 1, 2, 3), 2)])
        ci = contracted_instance(h, ElementSubset.of(4, [0]), ElementSubset.of(4, [2, 3]))
        assert ci == (0b0010, {0b0010 << 2 | 0b11: 2})  # free vertex 1, both sides met
        assert local_images(ci) == (((0, 1, 2), 2),)
        assert free_ids(ci) == (1,)
        assert (local_images(ci), rep_size(ci)) == reference_images(h, 0b0001, 0b1100)

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
        # images of fewer than two vertices stay, in first-seen order
        assert list(ci.images.values()) == [1, 12, 7, 6, 1, 9]
        assert local_images(ci) == (((1, 2), 12), ((0, 2), 7), ((0, 1), 1))
        assert (local_n(ci), free_ids(ci), rep_size(ci)) == (3, (2,), 6)
        assert (local_images(ci), rep_size(ci)) == reference_images(h, 0b00011, 0b11000)

    def test_full_cell_rejected(self):
        # no sink side, no source side, overlapping sides, another universe
        h = Hypergraph(3, [((0, 1), 1)])
        one, two, empty = ElementSubset.of(3, [0]), ElementSubset.of(3, [1]), GroundSet(3).empty()
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
            assert (local_images(ci), rep_size(ci)) == reference_images(h, in_mask, out_mask)
            free = free_ids(ci)
            assert free == tuple(u for u in range(h.n) if not (in_mask | out_mask) >> u & 1)
            image = Hypergraph(local_n(ci), local_images(ci))
            for bits in range(1 << len(free)):
                orig_mask = in_mask | sum(1 << free[i] for i in range(len(free)) if bits >> i & 1)
                assert raw_cut(h, orig_mask) == raw_cut(image, 1 | bits << 2)

    def test_aggregate_size_over_disjoint_cells(self):
        # cells from actual runs stay within the 4 (p + |R|) budget
        rng = philox(37)
        for _ in range(10):
            h = random_hypergraph(rng, n_lo=5, n_hi=10)
            f = CutOracle(h)
            size = int(rng.integers(2, h.n))
            members = sorted(int(x) for x in rng.choice(h.n, size=size, replace=False))
            res = isolating_sets(f, TerminalSet(ElementSubset.of(h.n, members)), HypergraphFlowBlackbox(h))
            assert res.stats.step2_rep_total <= 4 * (h.p + size)

    def test_bruteforce_aggregate_size_is_cell_sizes(self):
        # the brute-force blackbox enumerates |U_v| - 1 free elements per cell
        rng = philox(38)
        for _ in range(10):
            h = random_hypergraph(rng, n_lo=5, n_hi=10)
            size = int(rng.integers(2, h.n))
            members = sorted(int(x) for x in rng.choice(h.n, size=size, replace=False))
            res = isolating_sets(CutOracle(h), TerminalSet(ElementSubset.of(h.n, members)), BruteForceBlackbox())
            expected = sum(len(res.cells[v]) - 1 for v in members)
            assert res.stats.step2_rep_total == expected <= h.n - size


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
    def test_rejects_a_contraction_of_its_cut_oracle(self):
        # a contraction is not the cut oracle, so it cannot pass as its base
        h = gen_planted(6, 12, 3, 10, philox(9))[0]
        f = CutOracle(h)
        g = contract(f, f.ground.subset([0]), f.ground.subset([5]))
        with pytest.raises(ValueError, match="not the cut oracle"):
            HypergraphFlowBlackbox(h)(g, f.ground.subset([1]), f.ground.subset([4]))

    def test_matches_generic_cut_sfm(self):
        # exhaustive SFM of the cut function, for one-vertex and larger sides
        rng = philox(41)
        for trial in range(80):
            h = random_hypergraph(rng, n_lo=3, n_hi=9)
            f = CutOracle(h)
            in_mask, out_mask = mixed_sides(rng, h.n, trial)
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


def edge_class(image: tuple[int, ...]) -> str:
    """Which rule a sorted contracted image gets; local 0 is the source, 1 the sink.

    Images of two and three vertices are complete graphs, larger ones gadgets.
    """
    if image[:2] == (0, 1):
        return "both terminals"
    end = {0: "source", 1: "sink"}.get(image[0], "free")
    if len(image) < 4:
        return f"{end} {'pair' if len(image) == 2 else 'triangle'}"
    return {"source": "source node", "sink": "sink node", "free": "split pair"}[end]


class TestReducedNetwork:
    WEIGHT = MAX_TOTAL_WEIGHT >> 5

    def test_each_edge_class_gets_its_gadget(self):
        # forced_in {0, 1} is local 0, forced_out {6, 7} is local 1, 2..5 are free
        w = self.WEIGHT
        h = Hypergraph(8, [
            ((0, 7), w),  # both terminals
            ((0, 2, 3, 6), w - 1),  # both terminals, rank 4
            ((0, 1), 5),  # image {0}: dropped
            ((1, 2), w - 2),  # source pair
            ((3, 6), w - 3),  # sink pair
            ((2, 3), w - 4),  # free pair
            ((1, 4, 5), w - 5),  # source triangle
            ((2, 5, 7), w - 6),  # sink triangle
            ((2, 4, 5), w - 7),  # free triangle
            ((1, 2, 3, 4), w - 8),  # source node
            ((3, 4, 5, 6), w - 9),  # sink node
            ((2, 3, 4, 5), w - 10),  # split pair
        ])
        forced_in, forced_out = ElementSubset.of(8, [0, 1]), ElementSubset.of(8, [6, 7])
        ci = contracted_instance(h, forced_in, forced_out)
        uncut, p, _, node_count, to, cap, head, nxt = _flow_network(h, forced_in, forced_out)
        assert (uncut, p) == (2 * (2 * w - 1), rep_size(ci))
        # no node for a triangle, one per one-node gadget, two per split gadget
        assert node_count == local_n(ci) + 1 + 1 + 2
        # one arc pair per two-vertex image, three per triangle, one per
        # vertex of a one-node gadget, 2r + 1 per split gadget
        assert len(to) == 2 * (3 + 3 * 3 + 4 + 4 + 9)
        # capacities are doubled, so a triangle side carries the edge weight
        assert sorted(c for c in cap if c not in (0, INF)) == sorted(
            [2 * (w - 2), 2 * (w - 3)] + [2 * (w - 4)] * 2 + [w - 5] * 4 + [w - 6] * 4 + [w - 7] * 6
            + [2 * (w - 8), 2 * (w - 9), 2 * (w - 10)])
        res = _flow_cut(h, forced_in, forced_out)
        value, side = brute_st_cut(h, forced_in.mask, forced_out.mask)
        assert (res.value, res.minimizer.mask, res.rep_size) == (value, side & ~forced_in.mask, rep_size(ci))

    def test_flow_cut_matches_enumeration(self):
        # rank up to 5, sides of any size, weights near the total-weight limit
        rng = philox(47)
        seen = set()
        for _ in range(150):
            h = random_hypergraph(rng, n_lo=3, n_hi=10, max_rank=5, max_weight=self.WEIGHT)
            in_mask, out_mask = random_sides(rng, h.n)
            forced_in, forced_out = ElementSubset(h.n, in_mask), ElementSubset(h.n, out_mask)
            ci = contracted_instance(h, forced_in, forced_out)
            assert (local_images(ci), rep_size(ci)) == reference_images(h, in_mask, out_mask)
            seen.update(edge_class(image) for image, _ in local_images(ci))
            res = _flow_cut(h, forced_in, forced_out)
            value, side = brute_st_cut(h, in_mask, out_mask)
            assert (res.value, res.minimizer.mask, res.rep_size) == (value, side & ~in_mask, rep_size(ci))
        assert len(seen) == 10

    def test_network_matches_a_reference_packing(self):
        # the builder against the complete-graph and gadget rules packed
        # with build_forward_star (every arc linked), and against enumeration
        rng = philox(53)
        seen = set()
        for trial in range(150):
            h = random_hypergraph(rng, n_lo=3, n_hi=10, max_rank=5, max_weight=self.WEIGHT)
            in_mask, out_mask = mixed_sides(rng, h.n, trial)
            forced_in, forced_out = ElementSubset(h.n, in_mask), ElementSubset(h.n, out_mask)
            ci = contracted_instance(h, forced_in, forced_out)
            seen.update(edge_class(image) for image, _ in local_images(ci))
            uncut, p, local, node_count, to, cap, head, nxt = _flow_network(h, forced_in, forced_out)
            # key bit 0 (holds 1) is node 1, bit 1 (holds 0) node 0, free u's bit u + 2 its node
            assert list(local.items()) == [(1, 1), (2, 0)] + [(1 << (u + 2), i) for i, u in enumerate(free_ids(ci), 2)]
            ref_uncut, ref_count, arcs = reference_network(ci)
            assert (uncut, p, node_count) == (ref_uncut, rep_size(ci), ref_count)
            ref = build_forward_star(ref_count, arcs)
            assert arc_slots(to, cap) == arc_slots(*ref[:2])
            # same chains in the same order, so Dinic does the same work
            assert chain_arcs(node_count, to, cap, head, nxt) == chain_arcs(ref_count, *ref)
            flow, level = solve_max_flow(node_count, 0, 1, to, cap, head, nxt)
            ref_flow, ref_level = solve_max_flow(ref_count, 0, 1, *ref)
            side = sum(bit for bit, i in local.items() if level[i] >= 0) >> 2
            ref_side = sum(1 << u for i, u in enumerate(free_ids(ci), 2) if ref_level[i] >= 0)
            value, brute_side = brute_st_cut(h, in_mask, out_mask)
            # the network cuts cost twice the hypergraph cuts
            assert (uncut + flow, side) == (ref_uncut + ref_flow, ref_side) == (2 * value, brute_side & ~in_mask)
        assert len(seen) == 10

    def test_rank_three_inputs_add_no_node(self):
        # every image has at most three vertices, so the network is the
        # local vertices alone, one arc pair per pair of vertices in an image
        rng = philox(67)
        for _ in range(60):
            h = random_hypergraph(rng, n_lo=3, n_hi=10, max_rank=3)
            in_mask, out_mask = random_sides(rng, h.n)
            forced_in, forced_out = ElementSubset(h.n, in_mask), ElementSubset(h.n, out_mask)
            ci = contracted_instance(h, forced_in, forced_out)
            _, _, _, node_count, to, *_ = _flow_network(h, forced_in, forced_out)
            assert node_count == 2 + ci.free.bit_count()
            pairs = sum(math.comb(len(image), 2) for image, _ in local_images(ci) if image[:2] != (0, 1))
            assert len(to) == 2 * pairs

    def test_odd_triangle_weights_near_the_limit_stay_exact(self):
        # a triangle side carries the whole weight of its edge and every
        # other capacity is doubled, so odd weights need no rounding; the
        # weight is mostly on rank-3 edges and totals MAX_TOTAL_WEIGHT - 1,
        # and the rank-4 and rank-5 edges bring INF arcs
        rng = philox(71)
        odd_triangles = with_inf = 0
        for trial in range(40):
            n = int(rng.integers(6, 10))
            small = [(tuple(int(v) for v in rng.choice(n, size=r, replace=False)), int(rng.integers(1, 50)) * 2)
                     for r in (2, 4, 5, 4)]
            triples = set()
            while len(triples) < 5:
                triples.add(tuple(sorted(int(v) for v in rng.choice(n, size=3, replace=False))))
            # four odd weights, and the fifth odd too: the small weights are even
            big = [int(rng.integers(1, MAX_TOTAL_WEIGHT >> 4)) | 1 for _ in range(4)]
            big.append(MAX_TOTAL_WEIGHT - 1 - sum(w for _, w in small) - sum(big))
            h = Hypergraph(n, small + list(zip(sorted(triples), big)))
            assert sum(w for _, w in h.edges) == MAX_TOTAL_WEIGHT - 1
            in_mask, out_mask = mixed_sides(rng, n, trial)
            forced_in, forced_out = ElementSubset(n, in_mask), ElementSubset(n, out_mask)
            ci = contracted_instance(h, forced_in, forced_out)
            odd_triangles += sum(len(image) == 3 and w % 2 for image, w in local_images(ci))
            uncut, _, _, node_count, to, cap, head, nxt = _flow_network(h, forced_in, forced_out)
            inf_slots = [a for a, c in enumerate(cap) if c == INF]
            with_inf += bool(inf_slots)
            flow, _ = solve_max_flow(node_count, 0, 1, to, cap, head, nxt)
            assert all(cap[a] > 0 for a in inf_slots)
            res = _flow_cut(h, forced_in, forced_out)
            value, side = brute_st_cut(h, in_mask, out_mask)
            assert uncut + flow == 2 * value
            assert (res.value, res.minimizer.mask) == (value, side & ~in_mask)
        assert odd_triangles >= 100 and with_inf >= 20

    def test_no_chain_reaches_an_arc_into_the_source(self):
        # every arc not into node 0 sits in its tail's chain exactly once;
        # arcs into node 0 sit in none
        rng = philox(61)
        for _ in range(150):
            h = random_hypergraph(rng, n_lo=3, n_hi=10, max_rank=5)
            in_mask, out_mask = random_sides(rng, h.n)
            *_, node_count, to, cap, head, nxt = _flow_network(h, ElementSubset(h.n, in_mask), ElementSubset(h.n, out_mask))
            chained = []
            for v in range(node_count):
                a = head[v]
                while a != -1:
                    assert to[a ^ 1] == v and to[a] != 0
                    chained.append(a)
                    a = nxt[a]
            assert sorted(chained) == [a for a in range(len(to)) if to[a] != 0]


def arc_slots(to, cap) -> list[tuple[int, int, int]]:
    """Sorted ``(tail, head, capacity)`` of every arc slot; arc ``a``'s tail
    is the head of its pair ``a ^ 1``."""
    return sorted((to[a ^ 1], to[a], cap[a]) for a in range(len(to)))


def chain_arcs(node_count, to, cap, head, nxt) -> list[list[tuple[int, int, int]]]:
    """Each node's adjacency chain in order, as ``(tail, head, capacity)`` of
    its arcs, leaving out arcs into node 0."""
    chains = []
    for v in range(node_count):
        chain, a = [], head[v]
        while a != -1:
            if to[a]:
                chain.append((to[a ^ 1], to[a], cap[a]))
            a = nxt[a]
        chains.append(chain)
    return chains


def reference_network(ci):
    """``(uncut, node_count, arcs)`` of ``ci``'s reduced network, written from
    the rules on sorted local images, as ``(u, v, c, rc)`` quadruples.
    Capacities are scaled by two, which leaves each side of a triangle the
    whole weight of its edge."""
    uncut, node, arcs = 0, local_n(ci), []
    for image, w in local_images(ci):
        kind = edge_class(image)
        if kind == "both terminals":
            uncut += 2 * w
        elif len(image) < 4:  # complete graph; no capacity into 0 or out of 1
            c = 2 * w // (len(image) - 1)
            for u, v in itertools.combinations(image, 2):
                arcs.append((v, 1, c, 0) if u == 1 else (u, v, c, 0 if u == 0 else c))
        elif kind == "source node":
            arcs += [(0, node, 2 * w, 0)] + [(node, v, INF, 0) for v in image[1:]]
            node += 1
        elif kind == "sink node":
            arcs += [(node, 1, 2 * w, 0)] + [(v, node, INF, 0) for v in image[1:]]
            node += 1
        else:
            arcs += [(node, node + 1, 2 * w, 0)] + [arc for v in image for arc in ((v, node, INF, 0), (node + 1, v, INF, 0))]
            node += 2
    return uncut, node, arcs


def count_calls(monkeypatch, name: str) -> list[int]:
    """Counts calls of the module global ``isocut.hypergraph.<name>``."""
    count = [0]
    original = getattr(isocut.hypergraph, name)

    def counted(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(isocut.hypergraph, name, counted)
    return count


@pytest.fixture
def flow_solve_count(monkeypatch):
    """Counts calls of the max-flow kernel the blackbox solves with."""
    return count_calls(monkeypatch, "solve_max_flow")


@pytest.fixture
def contraction_count(monkeypatch):
    """Counts calls of the contraction every flow query builds its network from."""
    return count_calls(monkeypatch, "contracted_instance")


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

    def test_memo_hit_needs_the_same_universe(self):
        # the memo key includes each subset's n, not just its mask
        h = gen_planted(6, 12, 3, 10, philox(6))[0]
        f = CutOracle(h)
        bb = HypergraphFlowBlackbox(h)
        bb(f, ElementSubset(6, 0b1), ElementSubset(6, 0b10))
        with pytest.raises(ValueError, match="do not live on this hypergraph"):
            bb(f, ElementSubset(7, 0b1), ElementSubset(7, 0b10))
        assert bb.flow_solves == 1

    def test_flow_solves_counts_kernel_solves(self, flow_solve_count, contraction_count):
        h = gen_planted(12, 36, 3, 10, philox(7))[0]
        res = hypergraph_mincut(h, DriverConfig(rng_seed=1))
        # one contraction per solve: no second contraction path
        assert res.flow_solves == flow_solve_count[0] == contraction_count[0]
        assert 0 < res.flow_solves < res.blackbox_calls

    def test_no_answers_carry_across_runs(self):
        h = gen_planted(12, 36, 3, 10, philox(8))[0]
        a = hypergraph_mincut(h, DriverConfig(rng_seed=2))
        b = hypergraph_mincut(h, DriverConfig(rng_seed=2))
        assert a.flow_solves == b.flow_solves > 0
        assert (a.value, a.side, a.blackbox_calls) == (b.value, b.side, b.blackbox_calls)


def component_of_zero(h):
    """Vertices joined to 0 by hyperedges, by union-find."""
    parent = list(range(h.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for verts, _ in h.edges:
        for v in verts[1:]:
            parent[find(v)] = find(verts[0])
    return ElementSubset.of(h.n, [v for v in range(h.n) if find(v) == find(0)])


class TestDisconnectedShortcut:
    @pytest.mark.parametrize("h, side", [
        (Hypergraph(4, [((1, 2, 3), 1)]), {0}),
        (Hypergraph(3, []), {0}),
        (Hypergraph(3, [((0,), 5), ((1, 2), 1)]), {0}),
        (Hypergraph(5, [((0, 1, 2), 1), ((3, 4), 1)]), {3, 4}),
    ], ids=["vertex-0-isolated", "edgeless", "rank-1-edge", "larger-component-of-0"])
    def test_side_is_canonical_component_of_zero(self, h, side):
        res = hypergraph_mincut(h, DriverConfig(rng_seed=0))
        assert (res.value, set(res.side)) == (0, side)
        assert res.blackbox_calls == res.flow_solves == res.trials == 0
        assert cut_value(h, res.side) == 0

    def test_random_disconnected_inputs(self):
        rng = philox(53)
        disconnected = 0
        for _ in range(60):
            h = random_hypergraph(rng, n_lo=3, n_hi=9, m_lo=1, m_hi=5)
            comp = component_of_zero(h)
            if len(comp) == h.n:
                continue
            disconnected += 1
            res = hypergraph_mincut(h, DriverConfig(rng_seed=0))
            assert (res.value, res.side, res.trials) == (0, canonical_side(comp), 0)
        assert disconnected >= 30


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
        assert res.step2_rep_total == sum(
            s.step2_rep_total for r in res.driver.per_k_breakdown for s in r.trial_stats
        ) > 0

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

    # (n, seed, value, side mask, blackbox_calls, flow_solves, step2_rep_total)
    # of seeded gen_planted runs, recorded from an earlier version of the flow
    # reduction and the sweep at its then default of ceil(12 log2 n)
    # repetitions per k, now passed explicitly; a faster flow path must not
    # move any of them
    @pytest.mark.parametrize("n, seed, value, side, calls, solves, rep_total", [
        (12, 1, 4, 1, 1102, 498, 13926),
        (12, 2, 2, 256, 1033, 458, 12451),
        (20, 3, 10, 471849, 2190, 1088, 37156),
        (20, 4, 10, 146266, 2192, 1077, 37549),
        (30, 6, 11, 1, 3740, 1745, 78878),
        (30, 7, 8, 65536, 3679, 1751, 70522),
    ])
    def test_golden_runs(self, n, seed, value, side, calls, solves, rep_total):
        h = gen_planted(n, 3 * n, 3, 10, philox(seed))[0]
        res = hypergraph_mincut(h, DriverConfig(rng_seed=seed, repetitions_per_k=math.ceil(12 * math.log2(n))))
        assert (res.value, res.side.mask, res.blackbox_calls, res.flow_solves, res.step2_rep_total) == (
            value, side, calls, solves, rep_total)
