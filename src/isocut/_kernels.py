"""Max-flow inner loops: Dinic and residual reachability on Python lists.

The forward-star containers (``to``, ``cap``, ``head``, ``nxt``) are plain
lists of ints, indexed one element at a time (indexing a numpy array
element-wise from Python is several times slower than indexing a list).

Arc layout: arcs come in pairs, arc ``a`` and ``a ^ 1`` are mutual reverses.
Adjacency is a forward-star: ``head[v]`` is the first arc out of ``v`` and
``nxt[a]`` chains to the next one, -1 terminating.

``INF`` is a sentinel, not saturating arithmetic: residual updates on INF
arcs keep INF, so they are genuinely uncuttable.
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


def solve_max_flow(n_nodes, src, dst, to, cap, head, nxt) -> int:
    """Run Dinic to completion; ``cap`` is mutated into the residual.

    Raises if an augmenting path consists purely of INF arcs (unbounded flow).
    """
    inf = INF
    level = [0] * n_nodes
    cur = [0] * n_nodes
    queue = [0] * n_nodes
    path = [0] * (n_nodes + 1)
    total = 0
    while True:
        # BFS over residual arcs builds the level graph
        for i in range(n_nodes):
            level[i] = -1
        level[src] = 0
        queue[0] = src
        qh, qt = 0, 1
        while qh < qt:
            u = queue[qh]
            qh += 1
            a = head[u]
            while a != -1:
                v = to[a]
                if cap[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue[qt] = v
                    qt += 1
                a = nxt[a]
        if level[dst] < 0:
            return total
        for i in range(n_nodes):
            cur[i] = head[i]
        # blocking flow: iterative DFS with current-arc pointers
        depth = 0
        u = src
        while True:
            if u == dst:
                f = inf
                for d in range(depth):
                    a = path[d]
                    if cap[a] != inf and cap[a] < f:
                        f = cap[a]
                if f == inf:
                    raise ValueError("max flow is unbounded: infinite-capacity source-sink path")
                for d in range(depth):
                    a = path[d]
                    if cap[a] != inf:
                        cap[a] -= f
                    r = a ^ 1
                    if cap[r] != inf:
                        cap[r] += f
                total += f
                retreat = depth
                for d in range(depth):
                    if cap[path[d]] == 0:
                        retreat = d
                        break
                depth = retreat
                u = src if depth == 0 else to[path[depth - 1]]
                continue
            advanced = False
            a = cur[u]
            while a != -1:
                v = to[a]
                if cap[a] > 0 and level[v] == level[u] + 1:
                    path[depth] = a
                    depth += 1
                    u = v
                    advanced = True
                    break
                a = nxt[a]
                cur[u] = a
            if not advanced:
                if u == src:
                    break
                level[u] = -1  # dead end for this phase
                depth -= 1
                u = src if depth == 0 else to[path[depth - 1]]


def residual_reachable(n_nodes, src, to, cap, head, nxt) -> list[bool]:
    """Per-node flags: reachable from ``src`` over arcs with positive residual."""
    seen = [False] * n_nodes
    queue = [0] * n_nodes
    seen[src] = True
    queue[0] = src
    qh, qt = 0, 1
    while qh < qt:
        u = queue[qh]
        qh += 1
        a = head[u]
        while a != -1:
            v = to[a]
            if cap[a] > 0 and not seen[v]:
                seen[v] = True
                queue[qt] = v
                qt += 1
            a = nxt[a]
    return seen


def build_forward_star(n_nodes: int, arcs):
    """Pack ``(u, v, capacity)`` triples into paired-arc forward-star lists."""
    return extend_forward_star([], [], [-1] * n_nodes, [], arcs)


def extend_forward_star(to, cap, head, nxt, extra_arcs):
    """Copy a forward-star and append more arc pairs (base lists untouched)."""
    head = head.copy()
    fwd = len(to)
    to_tail, cap_tail, nxt_tail = [], [], []
    for u, v, c in extra_arcs:
        to_tail += (v, u)
        cap_tail += (c, 0)
        nxt_tail.append(head[u])
        head[u] = fwd
        nxt_tail.append(head[v])
        head[v] = fwd + 1
        fwd += 2
    return to + to_tail, cap + cap_tail, head, nxt + nxt_tail
