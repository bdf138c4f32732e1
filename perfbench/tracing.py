"""Spans around isocut's public functions, installed from outside the package.

A ``Tracer`` replaces module and class attributes with thin wrappers that
record one span per call (name, start, end, parent) in flat in-memory arrays
and add counters read from the call's arguments and result.  ``restore``
puts the originals back.  Nothing inside ``src/`` is edited, so a later
change to the package can move the numbers but not the instrument.

A name a later change removes is skipped: the metrics built from it are left
out of the report instead of crashing the run.
"""

from __future__ import annotations

import functools
import traceback
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (name, unit) of every per-layer metric, in report order.  BENCHMARK.json's
# per_layer list mirrors this table; a test keeps the two in step.
PER_LAYER = (
    ("driver.self_s", "s"),
    ("driver.trials", "count"),
    ("driver.trials_skipped", "count"),
    ("isolating.calls", "count"),
    ("isolating.call_s.p50", "s"),
    ("isolating.call_s.p99", "s"),
    ("isolating.self_s", "s"),
    ("isolating.cell_size_total", "count"),
    ("isolating.round1.calls", "count"),
    ("isolating.round1.s", "s"),
    ("isolating.round2.calls", "count"),
    ("isolating.round2.s", "s"),
    ("hypergraph.blackbox.self_s", "s"),
    ("hypergraph.contract.calls", "count"),
    ("hypergraph.contract.s", "s"),
    ("hypergraph.rep_size_total", "count"),
    ("hypergraph.cut_value.calls", "count"),
    ("hypergraph.cut_value.s", "s"),
    ("hypergraph.parse.s", "s"),
    ("kernels.solve.calls", "count"),
    ("kernels.solve.s", "s"),
    ("kernels.solve_s.p50", "s"),
    ("kernels.solve_s.p99", "s"),
    ("kernels.reach.s", "s"),
    ("kernels.build.calls", "count"),
    ("kernels.build.s", "s"),
    ("kernels.nodes_total", "count"),
    ("kernels.arcs_total", "count"),
    ("kernels.array_bytes", "bytes_computed"),
    ("sfm.calls", "count"),
    ("sfm.s", "s"),
    ("sfm.free_total", "count"),
    ("core.evaluate.calls", "count"),
    ("core.evaluate.s", "s"),
    ("core.contract.calls", "count"),
    ("trace_overhead", "ratio"),
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


_INHERITED = object()  # marks a patched attribute the owner only inherited


def _lookup(owner, attr: str):
    """``attr`` as a module holds it, or as a class or one of its bases
    defines it; None if absent.  Class attributes are read from ``vars`` so
    that a class without ``__call__`` does not yield ``type.__call__``."""
    for space in getattr(owner, "__mro__", (owner,)):
        found = vars(space).get(attr)
        if found is not None:
            return found
    return None


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    Spans live in parallel arrays indexed by span id; ``parent`` is -1 for a
    root.  Calls run on one thread, so spans nest and a stack gives parents.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: set[str] = set()
        self.broken: dict[str, str] = {}
        self.gate_errors: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        # one frame per open isolating_sets call: [round-1 calls left, calls made, calls expected]
        self._isolating: list[list[int]] = []

    # -- span recording -------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def _count(self, counter: str, read, *call) -> None:
        if counter in self.broken:
            return
        try:
            self.add(counter, read(*call))
        except Exception:  # a later signature change must not stop the run
            self.broken[counter] = traceback.format_exc(limit=1).strip().splitlines()[-1]

    # -- wrappers ---------------------------------------------------------
    def spanned(self, name: str, counters=()):
        """Wrapper factory: one span per call, then ``counters`` as
        ``(counter, read(args, kwargs, result))`` pairs."""

        def make(fn):
            nid = self.name_id(name)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = self.begin(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.finish(i)
                for counter, read in counters:
                    self._count(counter, read, args, kwargs, out)
                return out

            return traced

        return make

    def isolating(self, fn):
        """``isolating_sets(f, terminals, blackbox)``: opens a frame that tells
        round-1 from round-2 blackbox calls and checks their total.

        Round 1 is the first ceil(log2 |R|) calls.  Position is used rather
        than |forced_in| because with |R| = 2 the one round-1 call also forces
        a single terminal in.
        """
        nid = self.name_id("isolating")

        @functools.wraps(fn)
        def traced(f, terminals, *args, **kwargs):
            r = len(terminals)
            bits = (r - 1).bit_length()
            frame = [bits, 0, bits + r]
            self._isolating.append(frame)
            i = self.begin(nid)
            try:
                out = fn(f, terminals, *args, **kwargs)
            finally:
                self.finish(i)
                self._isolating.pop()
            if frame[1] != frame[2]:
                self.gate_errors.append(
                    f"isolating_sets with |R|={r} made {frame[1]} blackbox calls, expected {frame[2]}"
                )
            self._count("isolating.cell_size_total", lambda res: sum(len(c) for c in res.cells.values()), out)
            return out

        return traced

    def blackbox(self, layer: str, counters=()):
        """``Blackbox.__call__(self, f, forced_in, forced_out)``; spans are
        named ``<layer>/round1`` or ``<layer>/round2``, and ``counters`` are
        ``(counter, read(result))`` pairs."""

        def make(fn):
            ids = {1: self.name_id(f"{layer}/round1"), 2: self.name_id(f"{layer}/round2")}

            @functools.wraps(fn)
            def traced(bb, f, forced_in, *args, **kwargs):
                if self._isolating:
                    frame = self._isolating[-1]
                    frame[1] += 1
                    rnd = 1 if frame[0] > 0 else 2
                    if rnd == 1:
                        frame[0] -= 1
                else:
                    rnd = 1 if len(forced_in) >= 2 else 2
                i = self.begin(ids[rnd])
                try:
                    out = fn(bb, f, forced_in, *args, **kwargs)
                finally:
                    self.finish(i)
                self.add("blackbox.calls", 1)
                for counter, read in counters:
                    self._count(counter, read, out)
                return out

            return traced

        return make

    # -- installation ---------------------------------------------------
    def patch(self, label: str, owners, attr: str, make) -> None:
        """Wrap ``attr`` of the first owner (a module, or a class that holds it
        itself or through a base) and install the wrapper on every owner that
        resolves ``attr`` to that same object.  A missing owner or name is
        recorded under ``label``."""
        owners = [o for o in owners if o is not None]
        original = _lookup(owners[0], attr) if owners else None
        if original is None:
            self.missing.add(label)
            return
        wrapped = make(original)
        for owner in owners:
            if _lookup(owner, attr) is original:
                self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
                setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def install_gate(self, mods) -> None:
        """Only what the call-count gate needs: isolating_sets and the blackboxes."""
        self.patch("driver.isolating_sets", [mods.driver, mods.isolating, mods.top], "isolating_sets",
                   self.isolating)
        self.patch("HypergraphFlowBlackbox.__call__", [getattr(mods.hypergraph, "HypergraphFlowBlackbox", None)],
                   "__call__", self.blackbox("hypergraph.blackbox", (
                       ("hypergraph.rep_size_total", lambda res: res.rep_size or 0),
                   )))
        self.patch("BruteForceBlackbox.__call__", [getattr(mods.sfm, "BruteForceBlackbox", None)],
                   "__call__", self.blackbox("sfm.blackbox"))

    def install_all(self, mods) -> None:
        """Every layer boundary, on the attribute each caller looks up."""
        self.install_gate(mods)
        hg, sfm = mods.hypergraph, mods.sfm
        self.patch("hypergraph.find_nontrivial_minimizer", [hg, mods.driver, mods.top],
                   "find_nontrivial_minimizer", self.spanned("driver", (
                       ("driver.trials", lambda a, k, res: res.trials_run),
                       ("driver.trials_skipped", lambda a, k, res: sum(r.trials_skipped for r in res.per_k_breakdown)),
                   )))
        self.patch("hypergraph.contracted_instance", [hg], "contracted_instance", self.spanned("hypergraph.contract"))
        self.patch("hypergraph.cut_value", [hg], "cut_value", self.spanned("hypergraph.cut_value"))
        self.patch("hypergraph.solve_max_flow", [hg], "solve_max_flow", self.spanned("kernels.solve", (
            ("kernels.nodes_total", lambda a, k, res: int(a[0])),
            ("kernels.arcs_total", lambda a, k, res: len(a[3])),
            # 8 bytes per int64 entry of to, cap, head and nxt
            ("kernels.array_bytes", lambda a, k, res: 8 * sum(len(x) for x in a[3:7])),
        )))
        self.patch("hypergraph.residual_reachable", [hg], "residual_reachable", self.spanned("kernels.reach"))
        self.patch("hypergraph.build_forward_star", [hg], "build_forward_star", self.spanned("kernels.build"))
        self.patch("hypergraph.extend_forward_star", [hg], "extend_forward_star", self.spanned("kernels.build"))
        self.patch("sfm.sfm_bruteforce", [sfm], "sfm_bruteforce", self.spanned("sfm.bruteforce", (
            ("sfm.free_total", lambda a, k, res: len(a[0].free)),
        )))
        self.patch("sfm.contract", [sfm], "contract", self.spanned("core.contract"))
        self.patch("SubmodularOracle.evaluate", [getattr(mods.core, "SubmodularOracle", None)], "evaluate",
                   self.spanned("core.evaluate"))

    # -- analysis -------------------------------------------------------
    def durations(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) per span.  Children run inside their parent on
        one thread, so the covered part of a parent is the sum of its
        children's durations."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return dur, dur - covered

    def by_name(self):
        """name -> (durations, self times) as arrays."""
        dur, self_t = self.durations()
        names = np.frombuffer(self.name, dtype=np.uint16)
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = (dur[sel], self_t[sel])
        return out

    def write(self, path: Path) -> None:
        """Write every span: names table plus the four parallel arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class Gate(Tracer):
    """The call-count gate of the timed passes: the same wrappers and
    counters, but no spans, so that timed passes neither pay for span records
    nor grow memory with them.

    Instead of spans it keeps ``marks``: a timestamp at every entry to and
    exit from a wrapped call, which cut a solve unit into short segments.
    The caller empties ``marks`` before each unit.
    """

    def __init__(self):
        super().__init__()
        self.marks = array("d")

    def begin(self, nid: int) -> int:
        self.marks.append(perf_counter())
        return -1

    def finish(self, i: int) -> None:
        self.marks.append(perf_counter())


def layer_metrics(tracer: Tracer, parse_s: float, trace_overhead: float) -> dict[str, float]:
    """Per-layer metrics from one traced pass, in ``PER_LAYER`` order.

    A metric whose wrapped name is missing, or whose counter broke, is left
    out.  ``.s`` is inclusive span time, ``self_s`` exclusive.
    """
    spans = tracer.by_name()
    empty = (np.zeros(0), np.zeros(0))

    def get(name):
        return spans.get(name, empty)

    def total(*names):
        return float(sum(get(n)[0].sum() for n in names))

    def self_total(*names):
        return float(sum(get(n)[1].sum() for n in names))

    def calls(*names):
        return int(sum(len(get(n)[0]) for n in names))

    flow = ("hypergraph.blackbox/round1", "hypergraph.blackbox/round2")
    r1 = ("hypergraph.blackbox/round1", "sfm.blackbox/round1")
    r2 = ("hypergraph.blackbox/round2", "sfm.blackbox/round2")
    iso = get("isolating")[0].tolist()
    solve = get("kernels.solve")[0].tolist()
    c = tracer.counts
    values = {
        "driver.self_s": self_total("driver"),
        "driver.trials": c.get("driver.trials", 0),
        "driver.trials_skipped": c.get("driver.trials_skipped", 0),
        "isolating.calls": len(iso),
        "isolating.call_s.p50": percentile(iso, 50),
        "isolating.call_s.p99": percentile(iso, 99),
        "isolating.self_s": self_total("isolating"),
        "isolating.cell_size_total": c.get("isolating.cell_size_total", 0),
        "isolating.round1.calls": calls(*r1),
        "isolating.round1.s": total(*r1),
        "isolating.round2.calls": calls(*r2),
        "isolating.round2.s": total(*r2),
        "hypergraph.blackbox.self_s": self_total(*flow),
        "hypergraph.contract.calls": calls("hypergraph.contract"),
        "hypergraph.contract.s": total("hypergraph.contract"),
        "hypergraph.rep_size_total": c.get("hypergraph.rep_size_total", 0),
        "hypergraph.cut_value.calls": calls("hypergraph.cut_value"),
        "hypergraph.cut_value.s": total("hypergraph.cut_value"),
        "hypergraph.parse.s": parse_s,
        "kernels.solve.calls": len(solve),
        "kernels.solve.s": float(sum(solve)),
        "kernels.solve_s.p50": percentile(solve, 50),
        "kernels.solve_s.p99": percentile(solve, 99),
        "kernels.reach.s": total("kernels.reach"),
        "kernels.build.calls": calls("kernels.build"),
        "kernels.build.s": total("kernels.build"),
        "kernels.nodes_total": c.get("kernels.nodes_total", 0),
        "kernels.arcs_total": c.get("kernels.arcs_total", 0),
        "kernels.array_bytes": c.get("kernels.array_bytes", 0),
        "sfm.calls": calls("sfm.bruteforce"),
        "sfm.s": total("sfm.bruteforce"),
        "sfm.free_total": c.get("sfm.free_total", 0),
        "core.evaluate.calls": calls("core.evaluate"),
        "core.evaluate.s": total("core.evaluate"),
        "core.contract.calls": calls("core.contract"),
        "trace_overhead": trace_overhead,
    }
    lost = set(tracer.missing) | set(tracer.broken)
    return {
        metric: values[metric]
        for metric, _unit in PER_LAYER
        if not lost.intersection(_SOURCES.get(metric, ()))
    }


_DRIVER = ("hypergraph.find_nontrivial_minimizer",)
_ISOLATING = ("driver.isolating_sets",)
_SOLVE = ("hypergraph.solve_max_flow",)
# metric -> the wrapped names and counters it is built from; a metric is left
# out of the report when any of them is missing or broke
_SOURCES = {
    "driver.self_s": _DRIVER,
    "driver.trials": _DRIVER + ("driver.trials",),
    "driver.trials_skipped": _DRIVER + ("driver.trials_skipped",),
    "isolating.calls": _ISOLATING,
    "isolating.call_s.p50": _ISOLATING,
    "isolating.call_s.p99": _ISOLATING,
    "isolating.self_s": _ISOLATING,
    "isolating.cell_size_total": _ISOLATING + ("isolating.cell_size_total",),
    "isolating.round1.calls": _ISOLATING,
    "isolating.round1.s": _ISOLATING,
    "isolating.round2.calls": _ISOLATING,
    "isolating.round2.s": _ISOLATING,
    "hypergraph.blackbox.self_s": ("HypergraphFlowBlackbox.__call__",),
    "hypergraph.contract.calls": ("hypergraph.contracted_instance",),
    "hypergraph.contract.s": ("hypergraph.contracted_instance",),
    "hypergraph.rep_size_total": ("HypergraphFlowBlackbox.__call__", "hypergraph.rep_size_total"),
    "hypergraph.cut_value.calls": ("hypergraph.cut_value",),
    "hypergraph.cut_value.s": ("hypergraph.cut_value",),
    "kernels.solve.calls": _SOLVE,
    "kernels.solve.s": _SOLVE,
    "kernels.solve_s.p50": _SOLVE,
    "kernels.solve_s.p99": _SOLVE,
    "kernels.reach.s": ("hypergraph.residual_reachable",),
    "kernels.build.calls": ("hypergraph.build_forward_star", "hypergraph.extend_forward_star"),
    "kernels.build.s": ("hypergraph.build_forward_star", "hypergraph.extend_forward_star"),
    "kernels.nodes_total": _SOLVE + ("kernels.nodes_total",),
    "kernels.arcs_total": _SOLVE + ("kernels.arcs_total",),
    "kernels.array_bytes": _SOLVE + ("kernels.array_bytes",),
    "sfm.calls": ("sfm.sfm_bruteforce",),
    "sfm.s": ("sfm.sfm_bruteforce",),
    "sfm.free_total": ("sfm.sfm_bruteforce", "sfm.free_total"),
    "core.evaluate.calls": ("SubmodularOracle.evaluate",),
    "core.evaluate.s": ("SubmodularOracle.evaluate",),
    "core.contract.calls": ("sfm.contract",),
}
