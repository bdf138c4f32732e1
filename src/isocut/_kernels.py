"""Max-flow inner loops: numba-compiled by default, pure Python on demand.

One implementation, written against flat integer sequences indexed one
element at a time, so the same source runs under ``@njit`` on int64 arrays
and under the plain interpreter on Python lists (indexing a numpy array
element-wise from Python is several times slower than indexing a list).
The kernels take their scratch buffers as arguments; the backend wrappers
allocate them.  numba is an optional extra: without it, or with
``ISOCUT_NUMBA=0``, the interpreted path runs.  Both paths perform the
identical augmentation sequence and leave identical residuals.

The forward-star containers (``to``, ``cap``, ``head``, ``nxt``) are Python
lists on the interpreted backend and int64 arrays on the numba backend.

Arc layout: arcs come in pairs, arc ``a`` and ``a ^ 1`` are mutual reverses.
Adjacency is a forward-star: ``head[v]`` is the first arc out of ``v`` and
``nxt[a]`` chains to the next one, -1 terminating.

``INF`` is a sentinel, not saturating arithmetic: residual updates on INF
arcs keep INF, so they are genuinely uncuttable.
"""

from __future__ import annotations

import os

import numpy as np

INF = 1 << 62

__all__ = [
    "INF",
    "BACKEND",
    "solve_max_flow",
    "residual_reachable",
    "build_forward_star",
    "extend_forward_star",
    "dinic_python",
    "dinic_numba",
    "reachable_python",
    "reachable_numba",
]


def _dinic_impl(n_nodes, src, dst, to, cap, head, nxt, level, cur, queue, path):
    # level, cur and queue hold n_nodes entries and path n_nodes + 1; their
    # contents on entry are never read
    big = 1 << 62
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
            break
        for i in range(n_nodes):
            cur[i] = head[i]
        # blocking flow: iterative DFS with current-arc pointers
        depth = 0
        u = src
        while True:
            if u == dst:
                f = big
                for d in range(depth):
                    a = path[d]
                    if cap[a] != big and cap[a] < f:
                        f = cap[a]
                if f == big:
                    return -1  # augmenting path of infinite arcs: flow unbounded
                for d in range(depth):
                    a = path[d]
                    if cap[a] != big:
                        cap[a] -= f
                    r = a ^ 1
                    if cap[r] != big:
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
    return total


def _reachable_impl(n_nodes, src, to, cap, head, nxt, seen, queue):
    # seen must enter all false; queue holds n_nodes entries
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


def dinic_python(n_nodes, src, dst, to, cap, head, nxt):
    return _dinic_impl(
        n_nodes, src, dst, to, cap, head, nxt,
        [0] * n_nodes, [0] * n_nodes, [0] * n_nodes, [0] * (n_nodes + 1),
    )


def reachable_python(n_nodes, src, to, cap, head, nxt):
    return _reachable_impl(n_nodes, src, to, cap, head, nxt, [False] * n_nodes, [0] * n_nodes)


try:
    from numba import njit
except ImportError:  # pragma: no cover - exercised only without numba installed
    dinic_numba = None
    reachable_numba = None
    _HAVE_NUMBA = False
else:
    _dinic_jit = njit(cache=True, nogil=True)(_dinic_impl)
    _reachable_jit = njit(cache=True, nogil=True)(_reachable_impl)

    def dinic_numba(n_nodes, src, dst, to, cap, head, nxt):
        return _dinic_jit(
            n_nodes, src, dst, to, cap, head, nxt,
            np.empty(n_nodes, np.int64), np.empty(n_nodes, np.int64),
            np.empty(n_nodes, np.int64), np.empty(n_nodes + 1, np.int64),
        )

    def reachable_numba(n_nodes, src, to, cap, head, nxt):
        return _reachable_jit(
            n_nodes, src, to, cap, head, nxt, np.zeros(n_nodes, np.bool_), np.empty(n_nodes, np.int64),
        )

    _HAVE_NUMBA = True


def _pick_backend() -> str:
    flag = os.environ.get("ISOCUT_NUMBA", "").strip().lower()
    if flag in ("0", "false", "off", "no"):
        return "python"
    return "numba" if _HAVE_NUMBA else "python"


BACKEND = _pick_backend()

if BACKEND == "numba":
    _dinic = dinic_numba
    _reachable = reachable_numba

    def _join(base, tail):
        # the one place forward-star data becomes int64 arrays
        return np.concatenate((np.asarray(base, np.int64), np.asarray(tail, np.int64)))
else:
    _dinic = dinic_python
    _reachable = reachable_python

    def _join(base, tail):
        return base + tail


def solve_max_flow(n_nodes, src, dst, to, cap, head, nxt) -> int:
    """Run Dinic to completion; ``cap`` is mutated into the residual.

    Raises if an augmenting path consists purely of INF arcs (unbounded flow).
    """
    flow = int(_dinic(n_nodes, src, dst, to, cap, head, nxt))
    if flow < 0:
        raise ValueError("max flow is unbounded: infinite-capacity source-sink path")
    return flow


def residual_reachable(n_nodes, src, to, cap, head, nxt):
    """Per-node flags: reachable from ``src`` over arcs with positive residual."""
    return _reachable(n_nodes, src, to, cap, head, nxt)


def build_forward_star(n_nodes: int, arcs):
    """Pack ``(u, v, capacity)`` triples into paired-arc forward-star containers."""
    empty = _join([], [])
    return extend_forward_star(empty, empty, _join([], [-1] * n_nodes), empty, arcs)


def extend_forward_star(to, cap, head, nxt, extra_arcs):
    """Copy a forward-star and append more arc pairs (base containers untouched)."""
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
    return _join(to, to_tail), _join(cap, cap_tail), head, _join(nxt, nxt_tail)
