"""Minimum isolating sets for a symmetric submodular oracle.

Given terminals R, two rounds of blackbox SFM calls produce, for every
terminal v, the cheapest set containing v and no other terminal (inclusion
minimal among the ties):

* round 1 runs ceil(log2 |R|) bipartition minimizations that carve the
  ground set into pairwise disjoint cells, one per terminal;
* round 2 runs one minimization per terminal inside its own cell.

Round-2 ground sets are disjoint, which is what keeps the aggregate work of
the per-terminal calls linear in the instance size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import ElementSubset, OracleContractError
from .sfm import SfmResult

__all__ = ["TerminalSet", "IsolatingStats", "IsolatingResult", "bipartitions", "isolating_sets"]


class TerminalSet:
    """Terminals R with binary labels given by ascending-index position."""

    def __init__(self, terminals: ElementSubset):
        if len(terminals) < 2:
            raise ValueError("need at least 2 terminals")
        self.terminals = terminals
        self.members = tuple([*terminals])  # from a list: see hypergraph.Hypergraph.__init__

    @property
    def n(self) -> int:
        return self.terminals.n

    def __len__(self) -> int:
        return len(self.members)

    @property
    def label_bits(self) -> int:
        """ceil(log2 |R|): enough bits to separate every terminal pair."""
        return (len(self.members) - 1).bit_length()

    def __repr__(self) -> str:
        return f"TerminalSet({list(self.members)})"


def bipartitions(terminals: TerminalSet) -> list[tuple[ElementSubset, ElementSubset]]:
    """The ceil(log2 |R|) label-bit splits of R.

    Split i puts the terminals whose label has bit i equal to 0 on the first
    side; distinct labels guarantee every terminal pair is separated by some
    split.
    """
    out = []
    for bit in range(terminals.label_bits):
        zeros = [v for idx, v in enumerate(terminals.members) if not (idx >> bit) & 1]
        side = ElementSubset.of(terminals.n, zeros)
        out.append((side, terminals.terminals - side))
    return out


@dataclass(frozen=True)
class IsolatingStats:
    step1_calls: int
    step2_calls: int
    step2_ground_total: int
    step2_rep_total: Optional[int]


@dataclass(frozen=True)
class IsolatingResult:
    """Cells, isolating sets, their values, and the call accounting."""

    cells: dict[int, ElementSubset]
    isolating_sets: dict[int, ElementSubset]
    values: dict[int, int]
    stats: IsolatingStats


def isolating_sets(f, terminals: TerminalSet, blackbox) -> IsolatingResult:
    """Compute the minimum isolating sets of ``f`` w.r.t. ``terminals``.

    ``blackbox`` is any callable ``(f, forced_in, forced_out) -> SfmResult``
    honouring the minimal-minimizer contract.
    """
    if f.ground.n != terminals.n:
        raise ValueError("terminals do not live in the oracle's ground set")
    if not f.symmetric:
        raise OracleContractError("isolating sets need a symmetric oracle")
    full = f.ground.full()

    sides = []
    step1_calls = 0
    for in_part, out_part in bipartitions(terminals):
        res: SfmResult = blackbox(f, in_part, out_part)
        step1_calls += 1
        sides.append(in_part | res.minimizer)

    cells: dict[int, ElementSubset] = {}
    for v in terminals.members:
        cell = full
        for side in sides:
            cell &= side if v in side else side.complement()
        cells[v] = cell

    iso: dict[int, ElementSubset] = {}
    values: dict[int, int] = {}
    rep_total: Optional[int] = 0
    for v in terminals.members:
        single = ElementSubset.of(terminals.n, (v,))
        res = blackbox(f, single, cells[v].complement())
        iso[v] = single | res.minimizer
        values[v] = res.value
        if rep_total is not None:
            rep_total = None if res.rep_size is None else rep_total + res.rep_size

    stats = IsolatingStats(
        step1_calls=step1_calls,
        step2_calls=len(terminals),
        step2_ground_total=sum(len(c) - 1 for c in cells.values()),
        step2_rep_total=rep_total,
    )
    return IsolatingResult(cells=cells, isolating_sets=iso, values=values, stats=stats)
