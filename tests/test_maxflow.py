"""Max-flow kernel against exhaustive cut enumeration.

Networks are plain ``(node_count, arcs, source, sink)`` data, packed with
``build_forward_star`` and solved with ``solve_max_flow``, whose last BFS
levels mark the minimal source side.  Reduced hypergraph networks come from
``hypergraph._flow_network``, which writes the same lists itself.
"""

from isocut import ElementSubset, _kernels
from isocut._kernels import INF, build_forward_star, extend_forward_star, residual_reachable, solve_max_flow
from isocut.hypergraph import MAX_TOTAL_WEIGHT, _flow_network

from conftest import philox, random_hypergraph


def one_way(arcs):
    """``(u, v, c)`` arcs as the packer's quadruples, with no reverse capacity."""
    return [(u, v, c, 0) for u, v, c in arcs]


def kernel_cut(node_count, arcs, source, sink):
    """(flow value, minimal source side, residual capacities) from the kernel."""
    to, cap, head, nxt = build_forward_star(node_count, one_way(arcs))
    flow, level = solve_max_flow(node_count, source, sink, to, cap, head, nxt)
    return flow, frozenset(i for i in range(node_count) if level[i] >= 0), cap


def enumerate_min_cut(node_count, arcs, source, sink):
    """(min cut value, minimal source-side set) by trying every bipartition."""
    movable = [i for i in range(node_count) if i not in (source, sink)]
    best = None
    sides = []
    for bits in range(1 << len(movable)):
        side = {source}
        for j, node in enumerate(movable):
            if (bits >> j) & 1:
                side.add(node)
        value = 0
        for u, v, c in arcs:
            if u in side and v not in side:
                if c == INF:
                    value = None
                    break
                value += c
        if value is None:
            continue
        if best is None or value < best:
            best, sides = value, [side]
        elif value == best:
            sides.append(side)
    minimal = set.intersection(*sides)
    assert minimal in sides  # cut sides form a lattice; the meet is optimal
    return best, frozenset(minimal)


def random_network(rng, max_nodes=12, arc_prob=0.35, max_cap=20):
    """``(node_count, arcs, source, sink)`` with source 0 and sink n - 1."""
    n = int(rng.integers(4, max_nodes + 1))
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < arc_prob:
                arcs.append((u, v, int(rng.integers(0, max_cap + 1))))
    if not arcs:
        arcs.append((0, 1, 1))
    return n, tuple(arcs), 0, n - 1


class TestExamples:
    def test_single_arc(self):
        flow, side, cap = kernel_cut(2, ((0, 1, 7),), 0, 1)
        assert flow == 7
        assert side == frozenset({0})
        assert cap[0] == 0  # the forward slot is saturated

    def test_two_hop_bottleneck(self):
        flow, side, _ = kernel_cut(3, ((0, 1, 3), (1, 2, 5)), 0, 2)
        assert flow == 3
        assert side == frozenset({0})

    def test_two_parallel_paths(self):
        flow, _, _ = kernel_cut(4, ((0, 1, 2), (1, 3, 2), (0, 2, 4), (2, 3, 4)), 0, 3)
        assert flow == 6

    def test_disconnected_sink(self):
        flow, side, _ = kernel_cut(3, ((0, 1, 4),), 0, 2)
        assert flow == 0
        assert side == frozenset({0, 1})

    def test_zero_capacity_arcs(self):
        flow, side, _ = kernel_cut(2, ((0, 1, 0),), 0, 1)
        assert flow == 0
        assert side == frozenset({0})


class TestInfArcs:
    def test_inf_arcs_never_saturate(self):
        flow, side, cap = kernel_cut(4, ((0, 1, INF), (1, 2, 6), (2, 3, INF)), 0, 3)
        assert flow == 6
        assert cap[2] == 0  # the finite arc is used up
        assert cap[0] > 0 and cap[4] > 0  # INF is an ordinary capacity that outlasts any flow
        assert side == frozenset({0, 1})

    def test_split_networks_bound_every_flow(self):
        # INF needs no special case: every 0 -> 1 path of a reduced network
        # crosses a finite edge arc, and the total weight stays below 2^60,
        # so a flow, twice a cut, stays below 2^61
        rng = philox(77)
        for _ in range(40):
            h = random_hypergraph(rng, n_lo=3, n_hi=9, max_rank=5, max_weight=MAX_TOTAL_WEIGHT >> 5)
            picks = rng.choice(h.n, size=2, replace=False)
            forced_in, forced_out = (ElementSubset.of(h.n, [int(v)]) for v in picks)
            node_count, to, cap, head, nxt = _flow_network(h, forced_in, forced_out)[3:]
            inf_only = [c if c == INF else 0 for c in cap]
            assert residual_reachable(node_count, 0, to, inf_only, head, nxt)[1] < 0
            inf_slots = [a for a, c in enumerate(cap) if c == INF]
            flow, level = solve_max_flow(node_count, 0, 1, to, cap, head, nxt)
            assert flow < 2 * MAX_TOTAL_WEIGHT
            assert all(cap[a] > 0 for a in inf_slots)
            assert level == residual_reachable(node_count, 0, to, cap, head, nxt)


class TestAgainstEnumeration:
    def test_value_and_minimal_side_match_on_randoms(self):
        rng = philox(101)
        for _ in range(80):
            net = random_network(rng, max_nodes=8)
            flow, side, _ = kernel_cut(*net)
            assert (flow, side) == enumerate_min_cut(*net)

    def test_levels_are_the_final_residual_bfs(self):
        rng = philox(101)
        for _ in range(80):
            node_count, arcs, source, sink = random_network(rng, max_nodes=8)
            to, cap, head, nxt = build_forward_star(node_count, one_way(arcs))
            _, level = solve_max_flow(node_count, source, sink, to, cap, head, nxt)
            assert level == residual_reachable(node_count, source, to, cap, head, nxt)

    def test_reverse_capacity_is_the_paired_arc(self):
        # (u, v, c, rc) is the arcs u -> v of capacity c and v -> u of capacity rc
        rng = philox(59)
        for _ in range(60):
            node_count, arcs, source, sink = random_network(rng, max_nodes=8)
            pairs = [(u, v, c, int(rng.integers(0, 21))) for u, v, c in arcs]
            to, cap, head, nxt = build_forward_star(node_count, pairs)
            flow, level = solve_max_flow(node_count, source, sink, to, cap, head, nxt)
            side = frozenset(i for i in range(node_count) if level[i] >= 0)
            both_ways = [arc for u, v, c, rc in pairs for arc in ((u, v, c), (v, u, rc))]
            assert (flow, side) == enumerate_min_cut(node_count, both_ways, source, sink)

    def test_conservation_and_capacity(self):
        rng = philox(55)
        for _ in range(30):
            node_count, arcs, source, sink = random_network(rng, max_nodes=7)
            to, cap, head, nxt = build_forward_star(node_count, one_way(arcs))
            orig = cap.copy()
            flow, _ = solve_max_flow(node_count, source, sink, to, cap, head, nxt)
            assert flow >= 0
            # per-arc flow = cap decrease on the forward slot
            net_out = [0] * node_count
            for i, (u, v, c) in enumerate(arcs):
                used = orig[2 * i] - cap[2 * i]
                assert 0 <= used <= c
                net_out[u] += used
                net_out[v] -= used
            assert net_out[source] == flow
            assert net_out[sink] == -flow
            for node in range(node_count):
                if node not in (source, sink):
                    assert net_out[node] == 0


def split_networks(rng, count):
    """``(node_count, to, cap, head, nxt)`` reduced networks of random hypergraphs,
    with forced sides of one vertex or more."""
    for _ in range(count):
        h = random_hypergraph(rng, n_lo=3, n_hi=9, max_rank=5)
        perm = [int(v) for v in rng.permutation(h.n)]
        k_in = int(rng.integers(1, h.n))
        k_out = int(rng.integers(1, h.n - k_in + 1))
        forced_in, forced_out = ElementSubset.of(h.n, perm[:k_in]), ElementSubset.of(h.n, perm[k_in:k_in + k_out])
        yield _flow_network(h, forced_in, forced_out)[3:]


def networks_with_sinks():
    """``(node_count, source, sink, to, cap, head, nxt)``: the ``philox(101)``
    random networks, then reduced networks from 0 to 1."""
    rng = philox(101)
    for _ in range(80):
        node_count, arcs, source, sink = random_network(rng, max_nodes=8)
        yield (node_count, source, sink, *build_forward_star(node_count, one_way(arcs)))
    for node_count, *star in split_networks(philox(103), 60):
        yield (node_count, 0, 1, *star)


class TestEarlyExit:
    def test_bfs_stops_with_the_sink_levelled(self):
        for node_count, source, sink, to, cap, head, nxt in networks_with_sinks():
            full = residual_reachable(node_count, source, to, cap, head, nxt)
            early = residual_reachable(node_count, source, to, cap, head, nxt, sink)
            if full[sink] < 0:
                assert early == full
                continue
            d = full[sink]
            assert early[sink] == d
            # below the sink's level every node is labelled as in a full BFS;
            # at or beyond it, only at the sink's level and only partly
            for v in range(node_count):
                if full[v] < d:
                    assert early[v] == full[v]
                else:
                    assert early[v] in (-1, d) and (early[v] < 0 or full[v] == d)

    def test_solve_matches_full_bfs_phases(self, monkeypatch):
        # flow, final levels and residual capacities are the same when every
        # Dinic phase runs its BFS to the end
        nets = list(networks_with_sinks())
        early = []
        for node_count, source, sink, to, cap, head, nxt in nets:
            cap = cap.copy()
            early.append((solve_max_flow(node_count, source, sink, to, cap, head, nxt), cap))
        bfs = _kernels.residual_reachable

        def full_bfs(n_nodes, src, to, cap, head, nxt, dst=-1):
            return bfs(n_nodes, src, to, cap, head, nxt)

        monkeypatch.setattr(_kernels, "residual_reachable", full_bfs)
        for (node_count, source, sink, to, cap, head, nxt), expected in zip(nets, early):
            cap = cap.copy()
            assert (solve_max_flow(node_count, source, sink, to, cap, head, nxt), cap) == expected


def test_extend_forward_star_leaves_base_untouched():
    to, cap, head, nxt = build_forward_star(3, [(0, 1, 5, 0)])
    before = [list(x) for x in (to, cap, head, nxt)]
    to2, cap2, head2, nxt2 = extend_forward_star(to, cap, head, nxt, [(1, 2, 7, 3)])
    to2[0] = cap2[0] = head2[0] = nxt2[0] = 2
    assert [list(x) for x in (to, cap, head, nxt)] == before
    assert len(to2) == len(to) + 2
