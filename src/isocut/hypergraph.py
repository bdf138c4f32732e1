"""Weighted hypergraphs: cut oracle, file formats, and flow-backed min-cut.

The s-t machinery uses the split-vertex reduction: each hyperedge becomes an
internal arc of its weight, wired to its vertices with uncuttable arcs, so a
directed s-t min cut of the network equals the hypergraph s-t cut.  A rank-r
hyperedge contributes O(r) to the network, keeping the reduction linear in
the representation size p.  Every s-t query first merges its source side and
its sink side into one vertex each, and solves on that contraction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

# extend_forward_star is unused here, but perfbench/tracing.py wraps it by name
from ._kernels import INF, build_forward_star, extend_forward_star, residual_reachable, solve_max_flow
from .core import ElementSubset, GroundSet, SubmodularOracle, _unchecked_subset
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
    "MAX_VERTICES",
]

MAX_TOTAL_WEIGHT = 1 << 60
# Parsers reject larger vertex counts before anything is sized by n: the
# pipeline builds O(n) lists and (1 << n) masks.
MAX_VERTICES = 1 << 20
# parse errors echo at most this much of an offending value's repr
_ECHO_CHARS = 40


def _echo(value) -> str:
    """``repr(value)`` for an error message, cut to a short prefix if long."""
    text = repr(value)
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:_ECHO_CHARS]}... ({len(text)} chars)"


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
    total = 0
    for em, w in h._masks:
        # the edge crosses iff it meets the inside without lying in it
        x = em & inside
        if x and x != em:
            total += w
    return total


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
        raise HypergraphParseError(f"bad header counts m={_echo(m)}, n={_echo(n)}", header_line)
    if n > MAX_VERTICES:
        raise HypergraphParseError(f"vertex count {_echo(n)} exceeds the limit of {MAX_VERTICES}", header_line)
    fmt = header[2] if len(header) == 3 else "0"
    if fmt not in ("0", "1"):
        raise HypergraphParseError(f"unsupported fmt {_echo(fmt)} (only edge weights, fmt 1, are supported)", header_line)
    weighted = fmt == "1"

    body = data[1:]
    if len(body) < m:
        raise HypergraphParseError(f"expected {_echo(m)} hyperedge lines, found {len(body)} before end of file")
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
            raise HypergraphParseError(f"non-positive weight {_echo(w)}", lineno)
        total += w
        if total >= MAX_TOTAL_WEIGHT:
            raise HypergraphParseError("total edge weight would overflow 64-bit cut accounting", lineno)
        if not verts:
            raise HypergraphParseError("hyperedge with no vertices", lineno)
        for v in verts:
            if not 1 <= v <= n:
                raise HypergraphParseError(f"vertex {_echo(v)} outside 1..{n}", lineno)
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
    except RecursionError:
        raise HypergraphParseError("invalid JSON: nested too deeply") from None
    except ValueError:
        # int() refuses literals past sys.get_int_max_str_digits()
        raise HypergraphParseError("invalid JSON: integer literal too long") from None
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise HypergraphParseError("JSON hypergraph needs fields 'n' and 'edges'")
    n = obj["n"]
    if not _is_json_int(n) or n < 1:
        raise HypergraphParseError(f"bad vertex count {_echo(n)}")
    if n > MAX_VERTICES:
        raise HypergraphParseError(f"vertex count {_echo(n)} exceeds the limit of {MAX_VERTICES}")
    if not isinstance(obj["edges"], list):
        raise HypergraphParseError("'edges' must be a list")
    edges = []
    total = 0
    for i, e in enumerate(obj["edges"]):
        if not isinstance(e, dict) or "verts" not in e:
            raise HypergraphParseError(f"edge {i} needs a 'verts' field")
        verts = e["verts"]
        if not isinstance(verts, list) or not verts:
            raise HypergraphParseError(f"edge {i} needs a non-empty 'verts' list, got {_echo(verts)}")
        w = e.get("w", 1)
        if not _is_json_int(w) or w < 1:
            raise HypergraphParseError(f"edge {i} has bad weight {_echo(w)}")
        total += w
        if total >= MAX_TOTAL_WEIGHT:
            raise HypergraphParseError(f"edge {i}: total edge weight would overflow 64-bit cut accounting")
        for v in verts:
            if not _is_json_int(v) or not 1 <= v <= n:
                raise HypergraphParseError(f"edge {i} has vertex {_echo(v)} outside 1..{n}")
        edges.append((tuple(v - 1 for v in verts), w))
    return Hypergraph(n, edges)


def _is_json_int(x) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(x, int) and not isinstance(x, bool)


def _check_terminal_sides(h: Hypergraph, sources: ElementSubset, sinks: ElementSubset) -> None:
    if sources.n != h.n or sinks.n != h.n:
        raise ValueError("terminal sets do not live on this hypergraph's vertices")
    if not sources or not sinks:
        raise ValueError("sources and sinks must both be non-empty")
    if sources & sinks:
        raise ValueError("sources and sinks overlap")


def st_mincut(h: Hypergraph, sources: ElementSubset, sinks: ElementSubset) -> tuple[int, ElementSubset]:
    """Exact s-t min cut; returns (value, minimal source side).

    The side is the unique inclusion-least minimizer among all optimal
    source sides.
    """
    res = _flow_cut(h, sources, sinks)
    return res.value, sources | res.minimizer


@dataclass(frozen=True)
class ContractedInstance:
    """An s-t min-cut instance with each forced side merged into one vertex.

    Local vertex 0 is the image of ``forced_in`` and 1 that of
    ``forced_out``; local vertex ``i + 2`` is the free vertex
    ``vertex_ids[i]``.  ``edges`` holds sorted local images with their
    merged weights, and ``p`` is the sum of their sizes.
    """

    n: int
    edges: tuple[tuple[tuple[int, ...], int], ...]
    vertex_ids: tuple[int, ...]
    p: int


def contracted_instance(h: Hypergraph, forced_in: ElementSubset, forced_out: ElementSubset) -> ContractedInstance:
    """Merge ``forced_in`` into local vertex 0 and ``forced_out`` into 1.

    Images with fewer than two vertices disappear, and duplicate images merge
    by weight in first-seen order.  Every cut (A, rest) with forced_in inside
    A and forced_out outside it keeps its value.
    """
    _check_terminal_sides(h, forced_in, forced_out)
    keep = tuple([*(forced_in | forced_out).complement()])  # from a list: see Hypergraph.__init__
    local = [1] * h.n
    for u in forced_in:
        local[u] = 0
    for i, u in enumerate(keep, 2):
        local[u] = i
    merged: dict[tuple[int, ...], int] = {}
    for verts, w in h.edges:
        image = {local[u] for u in verts}
        if len(image) >= 2:
            key = tuple(sorted(image))
            merged[key] = merged.get(key, 0) + w
    return ContractedInstance(
        n=len(keep) + 2,
        edges=tuple(merged.items()),
        vertex_ids=keep,
        p=sum(len(vs) for vs in merged),
    )


def _split_network(ci: ContractedInstance):
    """Split-vertex network of ``ci``: ``(node_count, to, cap, head, nxt)``.

    Nodes 0..n-1 are the local vertices, then an in/out pair per edge.
    """
    n = ci.n
    arcs = []
    e_in = n
    for verts, w in ci.edges:
        arcs.append((e_in, e_in + 1, w))
        for v in verts:
            arcs.append((v, e_in, INF))
            arcs.append((e_in + 1, v, INF))
        e_in += 2
    return (e_in, *build_forward_star(e_in, arcs))


def _flow_cut(h: Hypergraph, forced_in: ElementSubset, forced_out: ElementSubset) -> SfmResult:
    """Minimal minimizer over the free vertices, by max flow from 0 to 1."""
    ci = contracted_instance(h, forced_in, forced_out)
    node_count, to, cap, head, nxt = _split_network(ci)
    flow = solve_max_flow(node_count, 0, 1, to, cap, head, nxt)
    reach = residual_reachable(node_count, 0, to, cap, head, nxt)
    mask = 0
    for i, u in enumerate(ci.vertex_ids, 2):
        if reach[i]:
            mask |= 1 << u
    return SfmResult(_unchecked_subset(h.n, mask), flow, oracle_queries_used=0, rep_size=ci.p)


class HypergraphFlowBlackbox:
    """SFM blackbox for cut oracles, answered by exact max flow.

    Each call contracts ``forced_in`` and ``forced_out`` to one vertex each
    and solves the s-t min cut of that contraction.  Each distinct
    ``(forced_in, forced_out)`` is solved once per instance: the minimal
    minimizer is unique, so a repeated call is answered from memory (and
    still counts as a blackbox call to its caller).
    """

    def __init__(self, h: Hypergraph):
        self.h = h
        self._answers: dict[tuple[int, int], SfmResult] = {}

    @property
    def flow_solves(self) -> int:
        """Distinct queries solved so far, i.e. max-flow solves run."""
        return len(self._answers)

    def __call__(self, f, forced_in: ElementSubset, forced_out: ElementSubset) -> SfmResult:
        if getattr(f, "hypergraph", None) is not self.h:
            raise ValueError("oracle is not the cut oracle of this blackbox's hypergraph")
        _check_terminal_sides(self.h, forced_in, forced_out)
        key = (forced_in.mask, forced_out.mask)
        res = self._answers.get(key)
        if res is None:
            res = self._answers[key] = _flow_cut(self.h, forced_in, forced_out)
        return res


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
    """Global min cut plus the blackbox-call and instance-size accounting.

    ``blackbox_calls`` counts calls as the paper charges them; ``flow_solves``
    counts the max-flow solves actually run, one per distinct call.
    """

    value: int
    side: ElementSubset
    n: int
    m: int
    p: int
    blackbox_calls: int
    flow_solves: int
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
            blackbox_calls=0, flow_solves=0, trials=0, oracle_queries=0,
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
        flow_solves=blackbox.flow_solves,
        trials=res.trials_run,
        oracle_queries=oracle.query_count,
        step2_rep_total=audit["total"],
        step2_rep_max_ratio=audit["max_ratio"],
        step2_rep_bound_ok=audit["ok"],
        driver=res,
    )
