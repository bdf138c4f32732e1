"""Ground sets, bitmask subsets, and instrumented submodular oracles.

Everything is exact integer arithmetic: oracle values must be ints, and
subsets are value-semantic bitmasks over a dense 0..n-1 universe, so
equality, intersection and complement are exact at any n.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

__all__ = [
    "SizeLimitError",
    "OracleContractError",
    "GroundSet",
    "ElementSubset",
    "SubmodularOracle",
    "ContractedOracle",
    "ViolationReport",
    "contract",
    "check_submodular",
    "check_symmetric",
]


class SizeLimitError(ValueError):
    """An exhaustive operation was asked to run past its size cap."""


class OracleContractError(RuntimeError):
    """An oracle was caught violating a property it claimed to have."""


@dataclass(frozen=True)
class GroundSet:
    """Universe of ``n`` elements identified by dense indices 0..n-1."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ground set needs n >= 1, got {self.n}")

    def empty(self) -> "ElementSubset":
        return ElementSubset(self.n, 0)

    def full(self) -> "ElementSubset":
        return ElementSubset(self.n, (1 << self.n) - 1)

    def singleton(self, i: int) -> "ElementSubset":
        return ElementSubset.of(self.n, (i,))

    def subset(self, members) -> "ElementSubset":
        return ElementSubset.of(self.n, members)


@dataclass(frozen=True)
class ElementSubset:
    """Immutable subset of 0..n-1 backed by an integer bitmask.

    Set operations require both operands to live in the same universe and
    raise ``ValueError`` otherwise.  Iteration yields members in ascending
    order.
    """

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("subset universe needs n >= 1")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask:#x} out of range for n={self.n}")

    @classmethod
    def of(cls, n: int, members) -> "ElementSubset":
        mask = 0
        for i in members:
            i = operator.index(i)
            if not 0 <= i < n:
                raise ValueError(f"element {i} outside 0..{n - 1}")
            mask |= 1 << i
        return cls(n, mask)

    @classmethod
    def empty(cls, n: int) -> "ElementSubset":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "ElementSubset":
        return cls(n, (1 << n) - 1)

    def _check(self, other: "ElementSubset") -> None:
        if self.n != other.n:
            raise ValueError("subsets belong to different ground sets")

    def __or__(self, other: "ElementSubset") -> "ElementSubset":
        self._check(other)
        return ElementSubset(self.n, self.mask | other.mask)

    def __and__(self, other: "ElementSubset") -> "ElementSubset":
        self._check(other)
        return ElementSubset(self.n, self.mask & other.mask)

    def __sub__(self, other: "ElementSubset") -> "ElementSubset":
        self._check(other)
        return ElementSubset(self.n, self.mask & ~other.mask)

    def __le__(self, other: "ElementSubset") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "ElementSubset") -> bool:
        return self <= other and self.mask != other.mask

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and (self.mask >> i) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def complement(self) -> "ElementSubset":
        return ElementSubset(self.n, self.mask ^ ((1 << self.n) - 1))

    def __repr__(self) -> str:
        return f"ElementSubset(n={self.n}, {{{', '.join(map(str, self))}}})"


class SubmodularOracle:
    """Counting wrapper around an exact integer-valued set function.

    ``evaluate`` is the only query channel; the counter increments exactly
    once per call.  ``symmetric`` is a claim, spot-checkable with
    :func:`check_symmetric`.
    """

    def __init__(self, ground: GroundSet, fn: Callable[[ElementSubset], int], *, symmetric: bool = False):
        self.ground = ground
        self._fn = fn
        self.symmetric = bool(symmetric)
        self._queries = 0

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def free(self) -> ElementSubset:
        """Elements the oracle accepts in query subsets (all of them here)."""
        return self.ground.full()

    @property
    def query_count(self) -> int:
        return self._queries

    def evaluate(self, subset: ElementSubset) -> int:
        if subset.n != self.ground.n:
            raise ValueError("subset does not live in this oracle's ground set")
        self._queries += 1
        value = self._fn(subset)
        try:
            return operator.index(value)
        except TypeError:
            raise TypeError(f"oracle returned non-integer value {value!r}") from None


class ContractedOracle:
    """The function A -> base(forced_in | A) on the elements left free.

    ``forced_in`` is glued inside every query, ``forced_out`` is excluded from
    the usable ground set, so the effective universe is V minus both.  Each
    evaluation forwards exactly one query to the base oracle, so query
    accounting composes.
    """

    def __init__(self, base: SubmodularOracle, forced_in: ElementSubset, forced_out: ElementSubset):
        if forced_in.n != base.n or forced_out.n != base.n:
            raise ValueError("forced sets do not live in the base ground set")
        if forced_in & forced_out:
            raise ValueError("forced_in and forced_out overlap")
        self.base = base
        self.forced_in = forced_in
        self.forced_out = forced_out
        self.free = base.free - forced_in - forced_out
        self.ground = base.ground
        self.symmetric = False

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def query_count(self) -> int:
        return self.base.query_count

    def evaluate(self, subset: ElementSubset) -> int:
        if not subset <= self.free:
            raise ValueError("subset uses elements outside the contraction's ground set")
        return self.base.evaluate(self.forced_in | subset)


def contract(f, forced_in: ElementSubset, forced_out: ElementSubset) -> ContractedOracle:
    """Force ``forced_in`` inside and ``forced_out`` outside of every query.

    Contracting an already-contracted oracle flattens onto its base, so a
    chain of contractions still costs one base query per evaluation.
    """
    if isinstance(f, ContractedOracle):
        if not (forced_in <= f.free and forced_out <= f.free):
            raise ValueError("forced sets must be free elements of the contraction")
        return ContractedOracle(f.base, f.forced_in | forced_in, f.forced_out | forced_out)
    return ContractedOracle(f, forced_in, forced_out)


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of a property check: ``ok`` or a witness with its values."""

    ok: bool
    witness: Optional[tuple[ElementSubset, ...]] = None
    values: Optional[tuple[int, ...]] = None
    checks: int = 0


def _free_elements(f) -> list[int]:
    return list(f.free)


def _positions_to_subset(positions_mask: int, elems: list[int], n: int) -> ElementSubset:
    mask = 0
    pm = positions_mask
    while pm:
        low = pm & -pm
        mask |= 1 << elems[low.bit_length() - 1]
        pm ^= low
    return ElementSubset(n, mask)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


EXHAUSTIVE_SUBMODULAR_CAP = 16
EXHAUSTIVE_SYMMETRY_CAP = 20


def check_submodular(f, mode: str = "exhaustive", trials: int = 1000, seed: int = 0) -> ViolationReport:
    """Search for a pair violating f(A) + f(B) >= f(A|B) + f(A&B).

    Exhaustive mode runs the equivalent local condition
    f(A+i) + f(A+j) >= f(A+i+j) + f(A) over every A and i != j outside A,
    which covers all pairs; it needs at most 16 free elements.  Sampled mode
    tests ``trials`` random pairs directly.
    """
    elems = _free_elements(f)
    m = len(elems)
    n = f.ground.n
    if mode == "exhaustive":
        if m > EXHAUSTIVE_SUBMODULAR_CAP:
            raise SizeLimitError(f"exhaustive submodularity check capped at {EXHAUSTIVE_SUBMODULAR_CAP} elements, got {m}")
        table = [f.evaluate(_positions_to_subset(am, elems, n)) for am in range(1 << m)]
        checks = 0
        for am in range(1 << m):
            fa = table[am]
            outside = [i for i in range(m) if not (am >> i) & 1]
            for x, i in enumerate(outside):
                ai = am | (1 << i)
                for j in outside[x + 1:]:
                    aj = am | (1 << j)
                    checks += 1
                    if table[ai] + table[aj] < table[ai | aj] + fa:
                        wa = _positions_to_subset(ai, elems, n)
                        wb = _positions_to_subset(aj, elems, n)
                        return ViolationReport(
                            False, (wa, wb),
                            (table[ai], table[aj], table[ai | aj], fa), checks,
                        )
        return ViolationReport(True, checks=checks)
    if mode == "sampled":
        rng = _rng(seed)
        for t in range(trials):
            am = int.from_bytes(rng.bytes((m + 7) // 8), "little") & ((1 << m) - 1)
            bm = int.from_bytes(rng.bytes((m + 7) // 8), "little") & ((1 << m) - 1)
            a = _positions_to_subset(am, elems, n)
            b = _positions_to_subset(bm, elems, n)
            fa, fb = f.evaluate(a), f.evaluate(b)
            fu = f.evaluate(_positions_to_subset(am | bm, elems, n))
            fi = f.evaluate(_positions_to_subset(am & bm, elems, n))
            if fa + fb < fu + fi:
                return ViolationReport(False, (a, b), (fa, fb, fu, fi), t + 1)
        return ViolationReport(True, checks=trials)
    raise ValueError(f"unknown mode {mode!r}")


def check_symmetric(f, mode: str = "exhaustive", trials: int = 1000, seed: int = 0) -> ViolationReport:
    """Search for S with f(S) != f(complement of S) over the free elements."""
    elems = _free_elements(f)
    m = len(elems)
    n = f.ground.n
    full_pm = (1 << m) - 1
    if mode == "exhaustive":
        if m > EXHAUSTIVE_SYMMETRY_CAP:
            raise SizeLimitError(f"exhaustive symmetry check capped at {EXHAUSTIVE_SYMMETRY_CAP} elements, got {m}")
        checks = 0
        for am in range(1 << m):
            cm = full_pm ^ am
            if am > cm:
                continue
            checks += 1
            a = _positions_to_subset(am, elems, n)
            c = _positions_to_subset(cm, elems, n)
            fa, fc = f.evaluate(a), f.evaluate(c)
            if fa != fc:
                return ViolationReport(False, (a, c), (fa, fc), checks)
        return ViolationReport(True, checks=checks)
    if mode == "sampled":
        rng = _rng(seed)
        for t in range(trials):
            am = int.from_bytes(rng.bytes((m + 7) // 8), "little") & full_pm
            a = _positions_to_subset(am, elems, n)
            c = _positions_to_subset(full_pm ^ am, elems, n)
            fa, fc = f.evaluate(a), f.evaluate(c)
            if fa != fc:
                return ViolationReport(False, (a, c), (fa, fc), t + 1)
        return ViolationReport(True, checks=trials)
    raise ValueError(f"unknown mode {mode!r}")
