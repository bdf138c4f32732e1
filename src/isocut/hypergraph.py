"""Weighted hypergraphs: cut oracle, file formats, and flow-backed min-cut.

Every s-t query merges its source side and its sink side into one vertex
each, local vertices 0 and 1, and solves a max flow from 0 to 1 on that
contraction.  ``contracted_instance`` validates the sides once, reads each
edge bitmask once and merges edges on one int key, the edge's free vertices
shifted left by two plus a bit each for meeting either side;
``_flow_network`` writes the query's network straight from those images,
with no arc list in between.  Capacities are scaled by two, so that each
cut of the network costs exactly twice the hypergraph cut it stands for and
every capacity stays an integer; ``_flow_cut`` halves the result.  Each
contracted edge of weight ``w`` becomes the smallest gadget that costs
``2w`` in a minimum cut exactly when the edge crosses the vertex
bipartition:

- an edge holding both 0 and 1 crosses every bipartition, so ``2w`` is
  added to a constant and no arc is built;
- an edge of two or three vertices is the complete graph on its vertices,
  with ``2w / (r - 1)`` on each of its pairs: ``2w`` on a pair and ``w`` on
  each side of a triangle, since every split of three vertices cuts two of
  the three sides (Veldt, Benson & Kleinberg, SIAM Review 2022).  Each
  pair is an arc pair of that capacity each way, less the arcs into 0 and
  out of 1.  No node is added;
- any larger edge is one weight arc ``a -> b`` of capacity ``2w``.  ``a``
  is 0 if the edge holds 0 and otherwise a new in-node, with an uncuttable
  arc ``v -> a`` from each free ``v``; ``b`` is 1 if the edge holds 1 and
  otherwise a new out-node, with an uncuttable arc ``b -> v`` to each free
  ``v``.  With both nodes new this is the split-vertex gadget (Lawler,
  Networks 1973).

Arcs into 0 and out of 1 carry no capacity: no flow and no source-side
reachability can use them.  An arc into 0 keeps its slot, as the pair of the
arc out of 0 whose flow it records, but is linked into no adjacency chain,
so neither BFS nor the blocking flow scans it.  A rank-r hyperedge
contributes O(r) to the network, keeping the reduction linear in the
representation size p.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
    "HypergraphMincutResult",
    "hypergraph_mincut",
    "MAX_TOTAL_WEIGHT",
    "MAX_VERTICES",
]

MAX_TOTAL_WEIGHT = 1 << 60
# Hypergraph and both parsers reject larger vertex counts before anything is
# sized by n: the pipeline builds O(n) lists and (1 << n) masks.
MAX_VERTICES = 1 << 20
# parse errors echo at most this much of an offending value's repr
_ECHO_CHARS = 40
_DECIMAL_CHARS = re.compile(r"[0-9+-]*")


def _parse_ints(tokens: list[str]) -> list[int]:
    """``int`` of each token, for ASCII ``[+-]?[0-9]+`` tokens only; else ``ValueError``.

    Bare ``int`` also reads ``1_0`` as 10, non-ASCII digits and padded
    tokens.  On ASCII digits and signs alone it accepts exactly
    ``[+-]?[0-9]+``, so one character check covers a whole line.
    """
    if not _DECIMAL_CHARS.fullmatch("".join(tokens)):
        raise ValueError("tokens must be ASCII decimal integers")
    return [int(tok) for tok in tokens]


def _echo(value) -> str:
    """``repr(value)`` for an error message, cut to a short prefix if long; an
    int past Python's int-to-str digit limit, whose ``repr`` raises, by its bit length."""
    try:
        text = repr(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"
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
        n = operator.index(n)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"hypergraph needs 1 <= n <= {MAX_VERTICES}, got {_echo(n)}")
        self.n = n
        merged: dict[tuple[int, ...], int] = {}
        total = 0
        for verts, w in edges:
            vs = tuple(sorted(set(map(operator.index, verts))))
            if not vs:
                raise ValueError("hyperedge with no vertices")
            if vs[0] < 0 or vs[-1] >= n:
                raise ValueError(f"hyperedge vertex {_echo(vs[0] if vs[0] < 0 else vs[-1])} outside 0..{n - 1}")
            w = operator.index(w)
            if w < 1:
                raise ValueError(f"hyperedge has non-positive weight {_echo(w)}")
            total += w
            if total >= MAX_TOTAL_WEIGHT:
                raise ValueError("total edge weight would overflow 64-bit cut accounting")
            merged[vs] = merged.get(vs, 0) + w
        # Tuples on the per-call path are built from lists or dict views, not
        # generators: CPython sizes tuple(<generator>) from its 10-slot free
        # list and frees the result to the list of its final size, so
        # millions of calls drain one free list into the others and the
        # process keeps ~3 MB more memory than it needs.
        self.edges: tuple[tuple[tuple[int, ...], int], ...] = tuple(merged.items())
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
        m, n = _parse_ints(header[:2])
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
            nums = _parse_ints(parts)
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


class ContractedInstance(NamedTuple):
    """An s-t min-cut instance with each forced side merged into one vertex.

    Local vertex 0 is the image of ``forced_in`` and 1 that of
    ``forced_out``.  ``free`` is the bitmask of the other vertices, in their
    original ids.  ``images`` maps each edge's contracted image to its
    weight, equal images merged, in first-seen order.  An image's key is
    ``part << 2 | meets_in << 1 | meets_out``: ``part`` is the bitmask of
    the edge's free vertices, and the flags say whether the image holds 0
    and 1.  Images of fewer than two vertices cross no cut but are kept.
    """

    free: int
    images: dict[int, int]


def contracted_instance(h: Hypergraph, forced_in: ElementSubset, forced_out: ElementSubset) -> ContractedInstance:
    """Merge ``forced_in`` into local vertex 0 and ``forced_out`` into 1.

    Every cut (A, rest) with forced_in inside A and forced_out outside it
    keeps its value.  Every flow query builds its network from this.
    """
    _check_terminal_sides(h, forced_in, forced_out)
    fin, fout = forced_in.mask, forced_out.mask
    free = ((1 << h.n) - 1) ^ fin ^ fout
    images: dict[int, int] = {}
    for em, w in h._masks:
        key = (em & free) << 2 | (em & fin and 2) | (em & fout and 1)
        images[key] = images.get(key, 0) + w
    return ContractedInstance(free, images)


def _flow_network(h: Hypergraph, forced_in: ElementSubset, forced_out: ElementSubset):
    """Reduced flow network of the contraction, built from its images.

    Returns ``(uncut, p, local, node_count, to, cap, head, nxt)``.
    ``local`` maps each bit of an image key to its node: bit 0 (the image
    holds 1) to node 1, bit 1 (it holds 0) to node 0, and free vertex
    ``u``'s bit ``1 << (u + 2)`` to 2, 3, ... in ascending order of ``u``.
    Then come the in- and out-nodes of the gadgets of four or more vertices,
    in image order.  Capacities are doubled (see the module docstring).  An
    image holding 0 and 1 adds ``2w`` to ``uncut``, which every source side
    cuts: ``(uncut + flow) >> 1`` is the minimum cut.  An image of two or
    three vertices is the complete graph on its nodes ``a``, ``b`` (and
    ``d``), read off its key lowest bit first, so only ``a`` can be 0 or 1.
    A larger one is a gadget over its free bits, ``key & ~3``.  ``p`` is
    the sum of the image sizes.  Each image first writes its arc pairs,
    ``to`` and ``cap`` only; one loop then links every arc into its tail's
    chain, in slot order, except the arcs into 0.
    """
    free, images = contracted_instance(h, forced_in, forced_out)
    local = {1: 1, 2: 0}
    node_count = 2
    free <<= 2
    while free:
        low = free & -free
        free ^= low
        local[low] = node_count
        node_count += 1
    # arcs come in pairs: x (even) runs from to[x + 1] to to[x] with capacity
    # cap[x], and x + 1 is its reverse
    to: list[int] = []
    cap: list[int] = []
    uncut = p = 0
    for key, w in images.items():
        size = key.bit_count()  # free vertices plus one per flag
        if size < 2:
            continue
        p += size
        if key & 3 == 3:
            uncut += w << 1
        elif size < 4:  # complete graph: a first, then b and d, all but a free
            low = key & -key
            a = local[low]
            key ^= low
            c = w << 1 if size == 2 else w
            ab = 0 if a == 1 else c  # a -> b and a -> d; none out of 1
            ba = c if a else 0  # b -> a and d -> a; none into 0
            if size == 2:
                to += (local[key], a)
                cap += (ab, ba)
            else:
                low = key & -key
                b = local[low]
                d = local[key ^ low]
                to += (b, a, d, a, d, b)
                cap += (ab, ba, ab, ba, c, c)
        else:  # weight arc a -> b: a is 0 or a new in-node, b is 1 or a new out-node
            a = 0
            if not key & 2:
                a = node_count
                node_count += 1
            b = 1
            if not key & 1:
                b = node_count
                node_count += 1
            to += (b, a)
            cap += (w << 1, 0)
            key &= ~3
            while key:
                low = key & -key
                key ^= low
                v = local[low]
                if a:  # v -> a uncuttable
                    to += (a, v)
                    cap += (INF, 0)
                if b != 1:  # b -> v uncuttable
                    to += (v, b)
                    cap += (INF, 0)
    head = [-1] * node_count
    nxt = [-1] * len(to)
    for x in range(0, len(to), 2):
        u = to[x + 1]
        nxt[x] = head[u]
        head[u] = x
        if u:  # x + 1 runs into u; an arc into 0 is in no chain
            v = to[x]
            nxt[x + 1] = head[v]
            head[v] = x + 1
    return uncut, p, local, node_count, to, cap, head, nxt


def _flow_cut(h: Hypergraph, forced_in: ElementSubset, forced_out: ElementSubset) -> SfmResult:
    """Minimal minimizer over the free vertices, by max flow from 0 to 1."""
    uncut, p, local, node_count, to, cap, head, nxt = _flow_network(h, forced_in, forced_out)
    flow, level = solve_max_flow(node_count, 0, 1, to, cap, head, nxt)
    mask = 0
    for bit, i in local.items():
        if level[i] >= 0:
            mask |= bit
    return SfmResult(_unchecked_subset(h.n, mask >> 2), (uncut + flow) >> 1, p)


class HypergraphFlowBlackbox:
    """SFM blackbox for cut oracles, answered by exact max flow.

    Each call contracts ``forced_in`` and ``forced_out`` to one vertex each
    and solves the s-t min cut of that contraction.  Each distinct
    ``(forced_in, forced_out)`` is validated and solved once per instance:
    the minimal minimizer is unique, so a repeated call is answered from
    memory (and still counts as a blackbox call to its caller).
    """

    def __init__(self, h: Hypergraph):
        self.h = h
        self._answers: dict[tuple[int, int, int, int], SfmResult] = {}

    @property
    def flow_solves(self) -> int:
        """Distinct queries solved so far, i.e. max-flow solves run."""
        return len(self._answers)

    def __call__(self, f, forced_in: ElementSubset, forced_out: ElementSubset) -> SfmResult:
        if getattr(f, "hypergraph", None) is not self.h:
            raise ValueError("oracle is not the cut oracle of this blackbox's hypergraph")
        # n and mask determine a subset, so a hit is a pair validated on its
        # first call; plain ints keep the memo out of the cyclic GC's way
        key = (forced_in.n, forced_in.mask, forced_out.n, forced_out.mask)
        res = self._answers.get(key)
        if res is None:
            res = self._answers[key] = _flow_cut(self.h, forced_in, forced_out)
        return res


@dataclass(frozen=True)
class HypergraphMincutResult:
    """Global min cut plus the blackbox-call and instance-size accounting.

    ``blackbox_calls`` counts calls as the paper charges them; ``flow_solves``
    counts the max-flow solves actually run, one per distinct call.
    ``miss_bound`` is the driver's bound on the chance of missing the minimum
    (0.0 on a disconnected input, which is answered exactly).
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
    miss_bound: float
    driver: Optional[MinimizerResult]


def hypergraph_mincut(h: Hypergraph, cfg: DriverConfig = DriverConfig()) -> HypergraphMincutResult:
    """Global hypergraph min cut via the randomized driver over flow solves.

    Disconnected inputs short-circuit to value 0, with the component of
    vertex 0 (or its complement, whichever ``canonical_side`` picks) as the
    side.  ``step2_rep_total`` sums the representation sizes of every
    round-2 instance solved; per-trial sums are in the driver's
    ``trial_stats``.
    """
    if h.n < 2:
        raise ValueError("min cut needs at least 2 vertices")
    # the component of vertex 0, by BFS over the vertex-edge incidence
    # network: node n + j stands for edge j
    incidence = [(v, h.n + j, 1, 1) for j, (verts, _) in enumerate(h.edges) for v in verts]
    level = residual_reachable(h.n + h.m, 0, *build_forward_star(h.n + h.m, incidence))
    reached = [v for v in range(h.n) if level[v] >= 0]
    if len(reached) < h.n:
        side = canonical_side(ElementSubset.of(h.n, reached))
        return HypergraphMincutResult(
            value=0, side=side, n=h.n, m=h.m, p=h.p,
            blackbox_calls=0, flow_solves=0, trials=0, oracle_queries=0,
            step2_rep_total=0, miss_bound=0.0, driver=None,
        )

    oracle = CutOracle(h)
    blackbox = HypergraphFlowBlackbox(h)
    res = find_nontrivial_minimizer(oracle, cfg, blackbox)
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
        step2_rep_total=sum(s.step2_rep_total for r in res.per_k_breakdown for s in r.trial_stats),
        miss_bound=res.miss_bound,
        driver=res,
    )
