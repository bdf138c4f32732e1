"""Exact integer max-flow / min-cut on directed networks.

The solver returns the flow value together with the *minimal* source-side
cut: the set of nodes reachable from the source in the residual network,
which is the unique inclusion-wise least min cut.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernels import (
    INF,
    build_forward_star,
    residual_reachable,
    solve_max_flow,
)

__all__ = ["INF", "FlowNetwork", "CutResult", "max_flow"]

# finite capacities (and their sum) must stay clear of the INF sentinel
MAX_TOTAL_CAPACITY = 1 << 60


@dataclass(frozen=True)
class FlowNetwork:
    """Directed capacitated network; ``INF`` marks uncuttable arcs."""

    node_count: int
    arcs: tuple[tuple[int, int, int], ...]
    source: int
    sink: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", tuple((int(u), int(v), int(c)) for u, v, c in self.arcs))
        if self.node_count < 2:
            raise ValueError("network needs at least 2 nodes")
        if not (0 <= self.source < self.node_count and 0 <= self.sink < self.node_count):
            raise ValueError("source/sink out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        finite_total = 0
        for u, v, c in self.arcs:
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"arc ({u}, {v}) out of range")
            if c < 0:
                raise ValueError(f"negative capacity on arc ({u}, {v})")
            if c != INF:
                if c >= MAX_TOTAL_CAPACITY:
                    raise ValueError("finite capacity too large; use INF for uncuttable arcs")
                finite_total += c
        if finite_total >= MAX_TOTAL_CAPACITY:
            raise ValueError("total finite capacity would overflow 64-bit accounting")


@dataclass(frozen=True)
class CutResult:
    """Max-flow value, minimal source side, and the saturated input arcs."""

    flow_value: int
    source_side: frozenset[int]
    saturated_arcs: tuple[int, ...]


def max_flow(net: FlowNetwork) -> CutResult:
    """Solve ``net`` exactly; deterministic for a fixed arc order."""
    to, cap, head, nxt = build_forward_star(net.node_count, net.arcs)
    flow = solve_max_flow(net.node_count, net.source, net.sink, to, cap, head, nxt)
    reach = residual_reachable(net.node_count, net.source, to, cap, head, nxt)
    side = frozenset(i for i in range(net.node_count) if reach[i])
    saturated = tuple(
        i for i, (_, _, c) in enumerate(net.arcs)
        if c != INF and c > 0 and cap[2 * i] == 0
    )
    return CutResult(flow, side, saturated)
