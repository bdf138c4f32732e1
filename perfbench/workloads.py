"""The three workloads: seeded inputs, solve units and correctness gates.

Each workload turns ``--seed`` into plain data (hypergraph texts, terminal
lists, driver seeds); only that data reaches the program.  ``setup`` parses
it with the freshly imported package and returns one zero-argument callable
per solve unit.  ``check`` compares one unit's answer with a reference that
does not come from the code path being timed.

The inputs are made by the package's own generators, so they are pinned: the
seed picks entry ``seed % len(pool)`` of a pool recorded in ``pinned.json``,
and a run whose generated inputs no longer hash to that entry fails.  This
keeps a change to ``generate.py`` from silently changing what is measured.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

PINNED = Path(__file__).resolve().parent / "pinned.json"
POOL = 32  # recorded input batches per workload
MAX_WEIGHT = 10


@dataclass(frozen=True)
class Outcome:
    """One solve unit's answer and what it cost in the paper's terms."""

    raw: object
    blackbox_calls: int
    oracle_queries: int


def _rng(tag: int, seed: int, unit: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed, unit])


def _driver_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 1 << 63))


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _parse_all(mods, texts):
    start = perf_counter()
    graphs = [mods.top.parse_hypergraph(t) for t in texts]
    return graphs, perf_counter() - start


def exact_mincut_value(h) -> int:
    """Minimum nontrivial cut by enumerating every side, vectorised over
    bitmasks.  Uses only ``h.n`` and ``h.edges``: no flow, no driver."""
    n = h.n
    # every side without vertex n-1; its complement covers the rest
    sides = np.arange(1, 1 << (n - 1), dtype=np.int64)
    cut = np.zeros(sides.shape, dtype=np.int64)
    for verts, w in h.edges:
        em = 0
        for v in verts:
            em |= 1 << v
        hit = sides & em
        cut += w * ((hit != 0) & (hit != em))
    return int(cut.min())


class Workload:
    """Pool handling shared by the workloads.  ``gate`` names the wrapped
    entry points every unit's blackbox calls pass through; the call-count
    gate needs all of them."""

    name: str
    tag: int
    gate: tuple[str, ...]

    def __init__(self, pool: list[dict] | None = None):
        self.pool = json.loads(PINNED.read_text())[self.name] if pool is None else pool

    def pool_index(self, seed: int) -> int:
        if not self.pool:
            raise ValueError(f"{self.name} workload has no recorded pool")
        return seed % len(self.pool)

    def make_inputs(self, mods, seed: int) -> list[dict]:
        return self.inputs_for(mods, self.pool_index(seed))

    def pinned(self, seed: int, inputs: list[dict]) -> list[str]:
        """Problems with the generated inputs as a whole."""
        if self.pool[self.pool_index(seed)]["inputs"] != _sha(inputs):
            return ["generated inputs differ from the recorded pool entry"]
        return []

    def record(self, mods, count: int) -> list[dict]:
        """Pool entries for the first ``count`` indices, from the current code."""
        return [{"inputs": _sha(self.inputs_for(mods, index))} for index in range(count)]


class Mincut(Workload):
    """``hypergraph_mincut`` on planted hypergraphs, default driver settings."""

    name = "mincut"
    tag = 1
    gate = ("driver.isolating_sets", "HypergraphFlowBlackbox.__call__")
    max_rank = 3

    def __init__(self, n: int = 12, units: int = 4, pool: list[dict] | None = None):
        super().__init__(pool)
        self.n, self.units = n, units

    def inputs_for(self, mods, index: int) -> list[dict]:
        out = []
        for i in range(self.units):
            rng = _rng(self.tag, index, i)
            h, _, _ = mods.top.gen_planted(self.n, 3 * self.n, self.max_rank, MAX_WEIGHT, rng)
            out.append({"text": mods.top.serialize_hypergraph(h), "rng_seed": _driver_seed(rng)})
        return out

    def setup(self, mods, inputs):
        graphs, parse_s = _parse_all(mods, [x["text"] for x in inputs])
        return [self._unit(mods, h, x["rng_seed"]) for h, x in zip(graphs, inputs)], parse_s

    @staticmethod
    def _unit(mods, h, rng_seed):
        def solve() -> Outcome:
            res = mods.top.hypergraph_mincut(h, mods.top.DriverConfig(rng_seed=rng_seed))
            return Outcome((res.value, res.side), res.blackbox_calls, res.oracle_queries)
        return solve

    @staticmethod
    def key(out: Outcome) -> tuple:
        """What must repeat exactly on every pass."""
        value, side = out.raw
        return value, side.mask, out.blackbox_calls

    def check(self, mods, seed, inputs, i, raw) -> list[str]:
        value, side = raw
        h = mods.top.parse_hypergraph(inputs[i]["text"])
        errors = []
        expected = exact_mincut_value(h)
        if value != expected:
            errors.append(f"value {value} != exact {expected}")
        if not 0 < len(side) < h.n:
            errors.append(f"side of size {len(side)} is trivial")
        elif mods.top.cut_value(h, side) != value:
            errors.append(f"cut_value(side) = {mods.top.cut_value(h, side)} != reported {value}")
        return errors


def isolating_digest(res) -> str:
    """Digest of the isolating sets and values; unique, so stable across code."""
    return _sha([[v, list(res.isolating_sets[v]), res.values[v]] for v in sorted(res.isolating_sets)])


class Isolate(Workload):
    """``isolating_sets`` with the flow blackbox on large uniform hypergraphs.

    Its pool also holds the digest of every unit's answer, so each answer is
    compared with the recorded one.
    """

    name = "isolate"
    tag = 2
    gate = ("driver.isolating_sets", "HypergraphFlowBlackbox.__call__")
    max_rank = 4

    def __init__(self, n: int = 600, terminals: tuple[int, ...] = (75, 150, 300), pool: list[dict] | None = None):
        super().__init__(pool)
        self.n, self.terminals = n, tuple(terminals)

    def inputs_for(self, mods, index: int) -> list[dict]:
        out = []
        for i, r in enumerate(self.terminals):
            rng = _rng(self.tag, index, i)
            h = mods.top.gen_uniform(self.n, 3 * self.n, self.max_rank, MAX_WEIGHT, rng)
            terms = sorted(int(v) for v in rng.choice(self.n, size=r, replace=False))
            out.append({"text": mods.top.serialize_hypergraph(h), "terminals": terms})
        return out

    def setup(self, mods, inputs):
        graphs, parse_s = _parse_all(mods, [x["text"] for x in inputs])
        units = []
        for h, x in zip(graphs, inputs):
            oracle = mods.top.CutOracle(h)
            terms = mods.top.TerminalSet(mods.top.ElementSubset.of(h.n, x["terminals"]))
            units.append(self._unit(mods, h, oracle, terms))
        return units, parse_s

    @staticmethod
    def _unit(mods, h, oracle, terms):
        def solve() -> Outcome:
            # a fresh blackbox per call: its round-1 network is built lazily,
            # and a user's isolate run pays that build once
            before = oracle.query_count
            res = mods.top.isolating_sets(oracle, terms, mods.top.HypergraphFlowBlackbox(h))
            calls = res.stats.step1_calls + res.stats.step2_calls
            return Outcome(res, calls, oracle.query_count - before)
        return solve

    @staticmethod
    def key(out: Outcome) -> tuple:
        return isolating_digest(out.raw), out.blackbox_calls

    def check(self, mods, seed, inputs, i, res) -> list[str]:
        x = inputs[i]
        h = mods.top.parse_hypergraph(x["text"])
        terms = set(x["terminals"])
        errors = []
        if set(res.isolating_sets) != terms:
            return [f"isolating sets cover {len(res.isolating_sets)} terminals, expected {len(terms)}"]
        seen = 0
        for v in sorted(terms):
            s_v, cell = res.isolating_sets[v], res.cells[v]
            members = set(s_v)
            if v not in members:
                errors.append(f"terminal {v} not in its own set")
            if members & terms != {v}:
                errors.append(f"set of {v} holds other terminals")
            if not s_v <= cell:
                errors.append(f"set of {v} leaves its cell")
            if seen & cell.mask:
                errors.append(f"cell of {v} overlaps another cell")
            seen |= cell.mask
            if mods.top.cut_value(h, s_v) != res.values[v]:
                errors.append(f"cut_value of set of {v} != reported {res.values[v]}")
        if self.pool[self.pool_index(seed)]["outputs"][i] != isolating_digest(res):
            errors.append("isolating sets or values differ from the recorded digest")
        return errors

    def record(self, mods, count: int) -> list[dict]:
        """Pool entries with the digests of the current code's answers."""
        pool = super().record(mods, count)
        for index, entry in enumerate(pool):
            units, _ = self.setup(mods, self.inputs_for(mods, index))
            entry["outputs"] = [isolating_digest(u().raw) for u in units]
        return pool


class Sfm(Workload):
    """The general oracle setting: ``find_nontrivial_minimizer`` with the
    brute-force blackbox, on cut oracles and a concave-of-cardinality oracle."""

    name = "sfm"
    tag = 3
    gate = ("driver.isolating_sets", "BruteForceBlackbox.__call__")
    kinds = ("cut", "cut", "concave")
    max_rank = 3

    def __init__(self, n: int = 12, pool: list[dict] | None = None):
        super().__init__(pool)
        self.n = n

    def inputs_for(self, mods, index: int) -> list[dict]:
        out = []
        for i, kind in enumerate(self.kinds):
            rng = _rng(self.tag, index, i)
            x = {"kind": kind, "n": self.n}
            if kind == "cut":
                h, _, _ = mods.top.gen_planted(self.n, 3 * self.n, self.max_rank, MAX_WEIGHT, rng)
                x["text"] = mods.top.serialize_hypergraph(h)
            x["rng_seed"] = _driver_seed(rng)
            out.append(x)
        return out

    @staticmethod
    def oracle(mods, x, graph=None):
        if x["kind"] == "cut":
            return mods.top.CutOracle(graph)
        n = x["n"]
        return mods.top.SubmodularOracle(mods.top.GroundSet(n), lambda s: min(len(s), n - len(s)), symmetric=True)

    def setup(self, mods, inputs):
        graphs, parse_s = _parse_all(mods, [x["text"] for x in inputs if x["kind"] == "cut"])
        graphs = iter(graphs)
        blackbox = mods.top.BruteForceBlackbox()
        units = []
        for x in inputs:
            f = self.oracle(mods, x, next(graphs) if x["kind"] == "cut" else None)
            units.append(self._unit(mods, f, blackbox, x["rng_seed"]))
        return units, parse_s

    @staticmethod
    def _unit(mods, f, blackbox, rng_seed):
        def solve() -> Outcome:
            before = f.query_count
            res = mods.top.find_nontrivial_minimizer(f, mods.top.DriverConfig(rng_seed=rng_seed), blackbox)
            return Outcome((res.best_value, res.best_set), res.blackbox_calls_total, f.query_count - before)
        return solve

    @staticmethod
    def key(out: Outcome) -> tuple:
        value, side = out.raw
        return value, side.mask, out.blackbox_calls, out.oracle_queries

    def check(self, mods, seed, inputs, i, raw) -> list[str]:
        value, side = raw
        x = inputs[i]
        graph = mods.top.parse_hypergraph(x["text"]) if x["kind"] == "cut" else None
        _, expected = mods.top.bruteforce_nontrivial_min(self.oracle(mods, x, graph))
        errors = []
        if value != expected:
            errors.append(f"value {value} != brute force {expected}")
        if not 0 < len(side) < x["n"]:
            errors.append(f"side of size {len(side)} is trivial")
        elif self.oracle(mods, x, graph).evaluate(side) != value:
            errors.append("oracle value of the side differs from the reported value")
        return errors
