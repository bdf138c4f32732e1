"""Weighted hypergraphs: cut oracle, file formats, and flow-backed min-cut.

The s-t machinery uses the split-vertex reduction: each hyperedge becomes an
internal arc of its weight, wired to its vertices with uncuttable arcs, so a
directed s-t min cut of the network equals the hypergraph s-t cut.  A rank-r
hyperedge contributes O(r) to the network, keeping the reduction linear in
the representation size p.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from ._kernels import INF, build_forward_star, extend_forward_star, residual_reachable, solve_max_flow
from .core import ElementSubset, GroundSet, SubmodularOracle
from .driver import DriverConfig, MinimizerResult, canonical_side, find_nontrivial_minimizer
from .sfm import SfmResult

__all__ = [
    "HypergraphParseError",
    "Hypergraph",
    "CutOracle",
    "parse_hypergraph",
    "parse_hypergraph_json",
    "serialize_hypergraph",
    "cut_value",
    "st_mincut",
    "ContractedInstance",
    "contracted_instance",
    "HypergraphFlowBlackbox",
    "connected_components",
    "HypergraphMincutResult",
    "hypergraph_mincut",
    "MAX_TOTAL_WEIGHT",
]

MAX_TOTAL_WEIGHT = 1 << 60


class HypergraphParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Hypergraph:
    """Weighted hyperedges over vertices 0..n-1.

    Edges keep their first-seen order (flow reductions iterate them in input
    order); duplicates are merged by weight addition.  ``p`` is the
    representation size, the sum of edge ranks.
    """

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError("hypergraph needs n >= 1")
        self.n = n
        merged: dict[tuple[int, ...], int] = {}
        order: list[tuple[int, ...]] = []
        total = 0
        for verts, w in edges:
            vs = tuple(sorted(set(int(v) for v in verts)))
            if not vs:
                raise ValueError("hyperedge with no vertices")
            if vs[0] < 0 or vs[-1] >= n:
                raise ValueError(f"hyperedge {vs} has a vertex outside 0..{n - 1}")
            w = int(w)
            if w < 1:
                raise ValueError(f"hyperedge {vs} has non-positive weight {w}")
            total += w
            if total >= MAX_TOTAL_WEIGHT:
                raise ValueError("total edge weight would overflow 64-bit cut accounting")
            if vs in merged:
                merged[vs] += w
            else:
                merged[vs] = w
                order.append(vs)
        # Tuples on the per-call path are built from lists, not generators:
        # CPython sizes tuple(<generator>) from its 10-slot free list and
        # frees the result to the list of its final size, so millions of
        # calls drain one free list into the others and the process keeps
        # ~3 MB more memory than it needs.
        self.edges: tuple[tuple[tuple[int, ...], int], ...] = tuple([(vs, merged[vs]) for vs in order])
        self.p = sum(len(vs) for vs, _ in self.edges)
        self._masks = tuple([(sum(1 << v for v in vs), w) for vs, w in self.edges])

    @property
    def m(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and sorted(self.edges) == sorted(other.edges)

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.m}, p={self.p})"


def cut_value(h: Hypergraph, subset: ElementSubset) -> int:
    """Total weight of hyperedges with vertices on both sides of the split."""
    if subset.n != h.n:
        raise ValueError("subset does not live on this hypergraph's vertices")
    inside = subset.mask
    outside = inside ^ ((1 << h.n) - 1)
    return sum(w for em, w in h._masks if em & inside and em & outside)


class CutOracle(SubmodularOracle):
    """Counting oracle for the cut function of a hypergraph."""

    def __init__(self, h: Hypergraph):
        self.hypergraph = h
        super().__init__(GroundSet(h.n), lambda s: cut_value(h, s), symmetric=True)


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse hMETIS-style text: ``m n [fmt]`` header, then one line per edge.

    fmt 1 prefixes each edge line with its weight; fmt 0 (or absent) means
    unit weights.  Vertices are 1-indexed in files, 0-indexed in memory.
    Lines starting with '%' are comments.
    """
    data: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        data.append((lineno, stripped.split()))

    if not data:
        raise HypergraphParseError("missing header line")
    header_line, header = data[0]
    if len(header) not in (2, 3):
        raise HypergraphParseError("header must be 'm n [fmt]'", header_line)
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise HypergraphParseError("header fields must be integers", header_line) from None
    if n < 1 or m < 0:
        raise HypergraphParseError(f"bad header counts m={m}, n={n}", header_line)
    fmt = header[2] if len(header) == 3 else "0"
    if fmt not in ("0", "1"):
        raise HypergraphParseError(f"unsupported fmt {fmt!r} (only edge weights, fmt 1, are supported)", header_line)
    weighted = fmt == "1"

    body = data[1:]
    if len(body) < m:
        raise HypergraphParseError(f"expected {m} hyperedge lines, found {len(body)} before end of file")
    if len(body) > m:
        raise HypergraphParseError(f"expected {m} hyperedge lines, found extra data", body[m][0])

    edges = []
    total = 0
    for lineno, parts in body:
        try:
            nums = [int(tok) for tok in parts]
        except ValueError:
            raise HypergraphParseError("hyperedge fields must be integers", lineno) from None
        if weighted:
            if not nums:
                raise HypergraphParseError("empty hyperedge line", lineno)
            w, verts = nums[0], nums[1:]
        else:
            w, verts = 1, nums
        if w < 1:
            raise HypergraphParseError(f"non-positive weight {w}", lineno)
        total += w
        if total >= MAX_TOTAL_WEIGHT:
            raise HypergraphParseError("total edge weight would overflow 64-bit cut accounting", lineno)
        if not verts:
            raise HypergraphParseError("hyperedge with no vertices", lineno)
        for v in verts:
            if not 1 <= v <= n:
                raise HypergraphParseError(f"vertex {v} outside 1..{n}", lineno)
        edges.append((tuple(v - 1 for v in verts), w))
    return Hypergraph(n, edges)


def serialize_hypergraph(h: Hypergraph) -> str:
    """Weighted hMETIS text; ``parse_hypergraph`` round-trips it exactly."""
    lines = [f"{h.m} {h.n} 1"]
    for verts, w in h.edges:
        lines.append(" ".join([str(w)] + [str(v + 1) for v in verts]))
    return "\n".join(lines) + "\n"


def parse_hypergraph_json(text: str) -> Hypergraph:
    """JSON mirror of the text format: {"n": ., "edges": [{"verts": [...], "w": .}]}.

    Vertices are 1-indexed, matching the text files.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise HypergraphParseError(f"invalid JSON: {e.msg}", e.lineno) from None
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise HypergraphParseError("JSON hypergraph needs fields 'n' and 'edges'")
    n = obj["n"]
    if not _is_json_int(n) or n < 1:
        raise HypergraphParseError(f"bad vertex count {n!r}")
    if not isinstance(obj["edges"], list):
        raise HypergraphParseError("'edges' must be a list")
    edges = []
    total = 0
    for i, e in enumerate(obj["edges"]):
        if not isinstance(e, dict) or "verts" not in e:
            raise HypergraphParseError(f"edge {i} needs a 'verts' field")
        verts = e["verts"]
        if not isinstance(verts, list) or not verts:
            raise HypergraphParseError(f"edge {i} needs a non-empty 'verts' list, got {verts!r}")
        w = e.get("w", 1)
        if not _is_json_int(w) or w < 1:
            raise HypergraphParseError(f"edge {i} has bad weight {w!r}")
        total += w
        if total >= MAX_TOTAL_WEIGHT:
            raise HypergraphParseError(f"edge {i}: total edge weight would overflow 64-bit cut accounting")
        for v in verts:
            if not _is_json_int(v) or not 1 <= v <= n:
                raise HypergraphParseError(f"edge {i} has vertex {v!r} outside 1..{n}")
        edges.append((tuple(v - 1 for v in verts), w))
    return Hypergraph(n, edges)


def _is_json_int(x) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(x, int) and not isinstance(x, bool)


class _SplitNetwork:
    """Split-vertex flow network of a hypergraph, with two reserved terminals.

    Nodes: 0..n-1 original vertices, then an in/out pair per hyperedge, then
    the merged super-source and super-sink.  Terminal wiring is appended per
    solve so one built network serves many (sources, sinks) pairs.
    """

    def __init__(self, h: Hypergraph):
        self.h = h
        n, m = h.n, h.m
        self.node_count = n + 2 * m + 2
        self.super_source = n + 2 * m
        self.super_sink = n + 2 * m + 1
        arcs = []
        for j, (verts, w) in enumerate(h.edges):
            e_in = n + 2 * j
            e_out = e_in + 1
            arcs.append((e_in, e_out, w))
            for v in verts:
                arcs.append((v, e_in, INF))
                arcs.append((e_out, v, INF))
        self._base = build_forward_star(self.node_count, arcs)

    def solve(self, sources: ElementSubset, sinks: ElementSubset) -> tuple[int, ElementSubset]:
        extra = [(self.super_source, v, INF) for v in sources]
        extra += [(v, self.super_sink, INF) for v in sinks]
        to, cap, head, nxt = extend_forward_star(*self._base, extra)
        flow = solve_max_flow(self.node_count, self.super_source, self.super_sink, to, cap, head, nxt)
        reach = residual_reachable(self.node_count, self.super_source, to, cap, head, nxt)
        mask = 0
        for v in range(self.h.n):
            if reach[v]:
                mask |= 1 << v
        return flow, ElementSubset(self.h.n, mask)


def _check_terminal_sides(h: Hypergraph, sources: ElementSubset, sinks: ElementSubset) -> None:
    if sources.n != h.n or sinks.n != h.n:
        raise ValueError("terminal sets do not live on this hypergraph's vertices")
    if not sources or not sinks:
        raise ValueError("sources and sinks must both be non-empty")
    if sources & sinks:
        raise ValueError("sources and sinks overlap")


def st_mincut(h: Hypergraph, sources: ElementSubset, sinks: ElementSubset) -> tuple[int, ElementSubset]:
    """Exact s-t min cut; returns (value, minimal source side).

    The side is the residual-reachable set restricted to original vertices,
    i.e. the unique inclusion-least minimizer among all optimal source sides.
    """
    _check_terminal_sides(h, sources, sinks)
    return _SplitNetwork(h).solve(sources, sinks)


@dataclass(frozen=True)
class ContractedInstance:
    """A cell's private min-cut instance: cell vertices plus one sink vertex.

    ``vertex_ids`` maps local ids back to original ones; the sink (local id
    ``sink``) is the image of everything outside the cell.
    """

    hypergraph: Hypergraph
    source: int
    sink: int
    vertex_ids: tuple[int, ...]


def contracted_instance(h: Hypergraph, v: int, cell: ElementSubset) -> ContractedInstance:
    """Contract everything outside ``cell`` into a single sink vertex.

    Edges map to their cell part plus the sink when they leave the cell;
    images with fewer than two vertices disappear, and duplicate images merge
    by weight.  Cuts (A, rest) with v in A inside the cell keep their value.
    """
    if cell.n != h.n:
        raise ValueError("cell does not live on this hypergraph's vertices")
    if v not in cell:
        raise ValueError(f"vertex {v} is not in its own cell")
    if len(cell) >= h.n:
        raise ValueError("cell must leave at least one vertex to contract into the sink")
    keep = tuple([*cell])  # from a list: see Hypergraph.__init__
    local = {orig: i for i, orig in enumerate(keep)}
    sink = len(keep)
    edges = []
    for verts, w in h.edges:
        image = set()
        leaves = False
        for u in verts:
            if u in cell:
                image.add(local[u])
            else:
                leaves = True
        if leaves:
            image.add(sink)
        if len(image) >= 2:
            edges.append((tuple(sorted(image)), w))
    return ContractedInstance(
        hypergraph=Hypergraph(sink + 1, edges),
        source=local[v],
        sink=sink,
        vertex_ids=keep,
    )


class HypergraphFlowBlackbox:
    """SFM blackbox for cut oracles, answered by exact max flow.

    Single-element ``forced_in`` calls solve on the contraction of everything
    forced out (this is the per-cell round, whose instances stay small);
    multi-element calls solve on the full split network, built once and
    reused.
    """

    def __init__(self, h: Hypergraph):
        self.h = h
        self._net: Optional[_SplitNetwork] = None

    def __call__(self, f, forced_in: ElementSubset, forced_out: ElementSubset) -> SfmResult:
        if getattr(f, "hypergraph", None) is not self.h:
            raise ValueError("oracle is not the cut oracle of this blackbox's hypergraph")
        _check_terminal_sides(self.h, forced_in, forced_out)
        if len(forced_in) == 1:
            (v,) = forced_in
            ci = contracted_instance(self.h, v, forced_out.complement())
            g = ci.hypergraph
            flow, side_local = _SplitNetwork(g).solve(
                ElementSubset.of(g.n, (ci.source,)),
                ElementSubset.of(g.n, (ci.sink,)),
            )
            members = [ci.vertex_ids[u] for u in side_local if u != ci.source]
            return SfmResult(
                ElementSubset.of(self.h.n, members), flow,
                oracle_queries_used=0, rep_size=g.p,
            )
        if self._net is None:
            self._net = _SplitNetwork(self.h)
        flow, side = self._net.solve(forced_in, forced_out)
        return SfmResult(side - forced_in, flow, oracle_queries_used=0, rep_size=self.h.p)


def connected_components(h: Hypergraph) -> list[ElementSubset]:
    """Components ordered by smallest vertex; isolated vertices are singletons."""
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for j, (verts, _) in enumerate(h.edges):
        for v in verts:
            incident[v].append(j)
    seen = [False] * h.n
    comps = []
    for start in range(h.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        mask = 0
        while stack:
            u = stack.pop()
            mask |= 1 << u
            for j in incident[u]:
                for w in h.edges[j][0]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
        comps.append(ElementSubset(h.n, mask))
    return comps


@dataclass(frozen=True)
class HypergraphMincutResult:
    """Global min cut plus the blackbox-call and instance-size accounting."""

    value: int
    side: ElementSubset
    n: int
    m: int
    p: int
    blackbox_calls: int
    trials: int
    oracle_queries: int
    step2_rep_total: int
    step2_rep_max_ratio: float
    step2_rep_bound_ok: bool
    driver: Optional[MinimizerResult]


def hypergraph_mincut(h: Hypergraph, cfg: DriverConfig = DriverConfig()) -> HypergraphMincutResult:
    """Global hypergraph min cut via the randomized driver over flow solves.

    Disconnected inputs short-circuit to value 0 with a component as the
    side.  Per terminal-set invocation, the per-cell instances are audited
    against the 4 * (p + |R|) aggregate-size bound.
    """
    if h.n < 2:
        raise ValueError("min cut needs at least 2 vertices")
    comps = connected_components(h)
    if len(comps) > 1:
        side = canonical_side(comps[0])
        return HypergraphMincutResult(
            value=0, side=side, n=h.n, m=h.m, p=h.p,
            blackbox_calls=0, trials=0, oracle_queries=0,
            step2_rep_total=0, step2_rep_max_ratio=0.0, step2_rep_bound_ok=True,
            driver=None,
        )

    oracle = CutOracle(h)
    blackbox = HypergraphFlowBlackbox(h)
    audit = {"total": 0, "max_ratio": 0.0, "ok": True}

    def observe(terminals, iso):
        rep = iso.stats.step2_rep_total or 0
        bound_base = h.p + len(terminals)
        audit["total"] += rep
        ratio = rep / bound_base
        if ratio > audit["max_ratio"]:
            audit["max_ratio"] = ratio
        if rep > 4 * bound_base:
            audit["ok"] = False

    res = find_nontrivial_minimizer(oracle, cfg, blackbox, observer=observe)
    return HypergraphMincutResult(
        value=res.best_value,
        side=res.best_set,
        n=h.n,
        m=h.m,
        p=h.p,
        blackbox_calls=res.blackbox_calls_total,
        trials=res.trials_run,
        oracle_queries=oracle.query_count,
        step2_rep_total=audit["total"],
        step2_rep_max_ratio=audit["max_ratio"],
        step2_rep_bound_ok=audit["ok"],
        driver=res,
    )
