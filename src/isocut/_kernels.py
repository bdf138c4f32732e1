"""Max-flow inner loops: Dinic and residual reachability on Python lists.

``residual_reachable`` is the one BFS.  ``solve_max_flow`` runs it once per
Dinic phase and returns ``(flow, level)``: ``level`` is the last phase's BFS,
the one on the final residual that finds the sink unreachable, so its nodes
at level >= 0 are the minimal source side of a minimum cut.

Each phase's BFS stops as soon as the sink is labelled, at level d say.  By
then every node below level d has its level, and a node still unlabelled
would sit at level d or deeper: no shortest augmenting path passes through
it, so the blocking-flow DFS could only have entered it as a dead end.  The
flows, the residual capacities and the final ``level`` are the same as with
full BFS; the final BFS never reaches the sink and so still runs in full.

The forward-star containers (``to``, ``cap``, ``head``, ``nxt``) are plain
lists of ints, indexed one element at a time (indexing a numpy array
element-wise from Python is several times slower than indexing a list).

Arc layout: arcs come in pairs, arc ``a`` and ``a ^ 1`` are mutual reverses.
Adjacency is a forward-star: ``head[v]`` is the first arc out of ``v`` and
``nxt[a]`` chains to the next one, -1 terminating.  An arc may be left out
of every chain and still hold its slot, so that ``cap[a ^ 1]`` of its pair
is there to take back flow: the hypergraph networks leave out every arc
into the source.  No search needs them: the source sits at level 0, and
both BFS and the blocking flow only follow arcs into an unlabelled node or
one level up.

``INF`` is an ordinary capacity, large enough never to saturate: a
``Hypergraph`` keeps its total weight below ``MAX_TOTAL_WEIGHT`` = 2^60,
and a cut of a reduced hypergraph network costs twice the hypergraph cut it
stands for, so no flow reaches 2^61; and every source-sink path of such a
network crosses a finite edge arc: every arc out of the source is the weight
arc or a complete-graph arc of an edge holding it.
"""

from __future__ import annotations

INF = 1 << 62

# read by the ``mincut`` stderr line and the benchmark's context record
BACKEND = "python"

__all__ = [
    "INF",
    "BACKEND",
    "solve_max_flow",
    "residual_reachable",
    "build_forward_star",
    "extend_forward_star",
]


def solve_max_flow(n_nodes, src, dst, to, cap, head, nxt) -> tuple[int, list[int]]:
    """Run Dinic to completion, mutating ``cap`` into the residual; returns ``(flow, level)``."""
    total = 0
    while True:
        level = residual_reachable(n_nodes, src, to, cap, head, nxt, dst)
        if level[dst] < 0:
            return total, level
        # blocking flow: iterative DFS with current-arc pointers
        cur = head.copy()
        path = []
        u = src
        while True:
            if u == dst:
                f = min([cap[a] for a in path])
                for a in path:
                    cap[a] -= f
                    cap[a ^ 1] += f
                total += f
                # retreat to the tail of the first saturated arc
                for d, a in enumerate(path):
                    if cap[a] == 0:
                        del path[d:]
                        break
                u = to[path[-1]] if path else src
                continue
            a = cur[u]
            ahead = level[u] + 1
            while a != -1 and (cap[a] == 0 or level[to[a]] != ahead):
                a = nxt[a]
            cur[u] = a
            if a != -1:
                path.append(a)
                u = to[a]
            elif u == src:
                break
            else:
                level[u] = -1  # dead end for this phase
                path.pop()
                u = to[path[-1]] if path else src


def residual_reachable(n_nodes, src, to, cap, head, nxt, dst=-1) -> list[int]:
    """BFS levels from ``src`` over arcs with positive residual; -1 if unreachable.

    Returns as soon as ``dst`` is labelled: the nodes below its level are
    then all labelled, the others are only partly.  The default ``dst`` of -1
    is no node, so the search runs to the end.
    """
    level = [-1] * n_nodes
    level[src] = 0
    queue = [src]
    for u in queue:  # grows while it is read: breadth-first order
        d = level[u] + 1
        a = head[u]
        while a != -1:
            v = to[a]
            if cap[a] > 0 and level[v] < 0:
                level[v] = d
                if v == dst:
                    return level
                queue.append(v)
            a = nxt[a]
    return level


def build_forward_star(n_nodes: int, arcs):
    """Pack ``(u, v, capacity, reverse_capacity)`` quadruples into paired-arc
    forward-star lists: arc ``u -> v`` holds ``capacity`` and its pair
    ``v -> u`` holds ``reverse_capacity``."""
    return extend_forward_star([], [], [-1] * n_nodes, [], arcs)


def extend_forward_star(to, cap, head, nxt, extra_arcs):
    """Copy a forward-star and append more arc pairs (base lists untouched)."""
    head = head.copy()
    fwd = len(to)
    to_tail, cap_tail, nxt_tail = [], [], []
    for u, v, c, rc in extra_arcs:
        to_tail += (v, u)
        cap_tail += (c, rc)
        nxt_tail.append(head[u])
        head[u] = fwd
        nxt_tail.append(head[v])
        head[v] = fwd + 1
        fwd += 2
    return to + to_tail, cap + cap_tail, head, nxt + nxt_tail
