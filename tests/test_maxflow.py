"""Flow solver against exhaustive cut enumeration."""

import pytest

from isocut import INF, FlowNetwork, max_flow
from isocut._kernels import build_forward_star, extend_forward_star, solve_max_flow

from conftest import philox


def enumerate_min_cut(net: FlowNetwork):
    """(min cut value, minimal source-side set) by trying every bipartition."""
    movable = [i for i in range(net.node_count) if i not in (net.source, net.sink)]
    best = None
    sides = []
    for bits in range(1 << len(movable)):
        side = {net.source}
        for j, node in enumerate(movable):
            if (bits >> j) & 1:
                side.add(node)
        value = 0
        for u, v, c in net.arcs:
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
    n = int(rng.integers(4, max_nodes + 1))
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < arc_prob:
                arcs.append((u, v, int(rng.integers(0, max_cap + 1))))
    if not arcs:
        arcs.append((0, 1, 1))
    return FlowNetwork(n, tuple(arcs), 0, n - 1)


class TestExamples:
    def test_single_arc(self):
        res = max_flow(FlowNetwork(2, ((0, 1, 7),), 0, 1))
        assert res.flow_value == 7
        assert res.source_side == frozenset({0})
        assert res.saturated_arcs == (0,)

    def test_two_hop_bottleneck(self):
        res = max_flow(FlowNetwork(3, ((0, 1, 3), (1, 2, 5)), 0, 2))
        assert res.flow_value == 3
        assert res.source_side == frozenset({0})

    def test_two_parallel_paths(self):
        net = FlowNetwork(4, ((0, 1, 2), (1, 3, 2), (0, 2, 4), (2, 3, 4)), 0, 3)
        assert max_flow(net).flow_value == 6

    def test_disconnected_sink(self):
        res = max_flow(FlowNetwork(3, ((0, 1, 4),), 0, 2))
        assert res.flow_value == 0
        assert res.source_side == frozenset({0, 1})

    def test_zero_capacity_arcs(self):
        res = max_flow(FlowNetwork(2, ((0, 1, 0),), 0, 1))
        assert res.flow_value == 0
        assert res.saturated_arcs == ()


class TestInfArcs:
    def test_inf_arcs_never_saturate(self):
        net = FlowNetwork(4, ((0, 1, INF), (1, 2, 6), (2, 3, INF)), 0, 3)
        res = max_flow(net)
        assert res.flow_value == 6
        assert res.saturated_arcs == (1,)
        assert res.source_side == frozenset({0, 1})

    def test_all_inf_path_is_unbounded(self):
        net = FlowNetwork(3, ((0, 1, INF), (1, 2, INF)), 0, 2)
        with pytest.raises(ValueError, match="unbounded"):
            max_flow(net)


class TestValidation:
    def test_source_equals_sink(self):
        with pytest.raises(ValueError):
            FlowNetwork(2, (), 0, 0)

    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            FlowNetwork(2, ((0, 1, -1),), 0, 1)

    def test_arc_out_of_range(self):
        with pytest.raises(ValueError):
            FlowNetwork(2, ((0, 2, 1),), 0, 1)

    def test_overflowing_total(self):
        big = (1 << 59) + 1
        with pytest.raises(ValueError):
            FlowNetwork(3, ((0, 1, big), (1, 2, big)), 0, 2)


class TestAgainstEnumeration:
    def test_value_and_minimal_side_match_on_randoms(self):
        rng = philox(101)
        for _ in range(80):
            net = random_network(rng, max_nodes=8)
            res = max_flow(net)
            value, minimal = enumerate_min_cut(net)
            assert res.flow_value == value
            assert res.source_side == minimal

    def test_conservation_and_capacity(self):
        rng = philox(55)
        for _ in range(30):
            net = random_network(rng, max_nodes=7)
            to, cap, head, nxt = build_forward_star(net.node_count, net.arcs)
            orig = cap.copy()
            flow = solve_max_flow(net.node_count, net.source, net.sink, to, cap, head, nxt)
            assert flow >= 0
            # per-arc flow = cap decrease on the forward slot
            net_out = [0] * net.node_count
            for i, (u, v, c) in enumerate(net.arcs):
                used = orig[2 * i] - cap[2 * i]
                assert 0 <= used <= c
                net_out[u] += used
                net_out[v] -= used
            assert net_out[net.source] == flow
            assert net_out[net.sink] == -flow
            for node in range(net.node_count):
                if node not in (net.source, net.sink):
                    assert net_out[node] == 0


def test_extend_forward_star_leaves_base_untouched():
    to, cap, head, nxt = build_forward_star(3, [(0, 1, 5)])
    before = [list(x) for x in (to, cap, head, nxt)]
    to2, cap2, head2, nxt2 = extend_forward_star(to, cap, head, nxt, [(1, 2, 7)])
    to2[0] = cap2[0] = head2[0] = nxt2[0] = 2
    assert [list(x) for x in (to, cap, head, nxt)] == before
    assert len(to2) == len(to) + 2
