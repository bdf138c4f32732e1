"""Ground sets, bitmask subsets, and instrumented submodular oracles.

Everything is exact integer arithmetic: oracle values must be ints, and
subsets are value-semantic bitmasks over a dense 0..n-1 universe, so
equality, intersection and complement are exact at any n.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

__all__ = [
    "SizeLimitError",
    "OracleContractError",
    "GroundSet",
    "ElementSubset",
    "SubmodularOracle",
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
        # integers only, as in DriverConfig; frozen, so stored past __setattr__
        object.__setattr__(self, "n", operator.index(self.n))
        if self.n < 1:
            raise ValueError(f"ground set needs n >= 1, got {self.n}")

    def empty(self) -> "ElementSubset":
        return ElementSubset(self.n, 0)

    def full(self) -> "ElementSubset":
        return ElementSubset(self.n, (1 << self.n) - 1)

    def subset(self, members) -> "ElementSubset":
        return ElementSubset.of(self.n, members)


@dataclass(frozen=True)
class ElementSubset:
    """Immutable subset of 0..n-1 backed by an integer bitmask.

    Set operations require both operands to live in the same universe and
    raise ``ValueError`` otherwise.  Iteration yields members in ascending
    order.  Membership takes any integer, numpy's included, through
    ``operator.index``.

    The two fields are slots: an instance has no ``__dict__``, and any
    assignment raises ``FrozenInstanceError`` as on any frozen dataclass.

    The constructor and :meth:`of` range-check their input.  Results of
    ``|``, ``&``, ``-`` and :meth:`complement`, and the queries that the
    brute-force blackbox and a contraction's ``evaluate`` build from the bits
    of an existing subset, skip that check (see :func:`_unchecked_subset`):
    a mask combined from in-range masks of one universe is in range too.
    """

    __slots__ = ("n", "mask")  # not slots=True: its rebuilt class breaks the frozen __setattr__

    n: int
    mask: int

    def __post_init__(self) -> None:
        # integers only, as in GroundSet; exact ints, as on every hot path, skip the stores
        if type(self.n) is not int or type(self.mask) is not int:
            object.__setattr__(self, "n", operator.index(self.n))
            object.__setattr__(self, "mask", operator.index(self.mask))
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

    def _check(self, other: "ElementSubset") -> None:
        if self.n != other.n:
            raise ValueError("subsets belong to different ground sets")

    def __or__(self, other: "ElementSubset") -> "ElementSubset":
        self._check(other)
        return _unchecked_subset(self.n, self.mask | other.mask)

    def __and__(self, other: "ElementSubset") -> "ElementSubset":
        self._check(other)
        return _unchecked_subset(self.n, self.mask & other.mask)

    def __sub__(self, other: "ElementSubset") -> "ElementSubset":
        self._check(other)
        return _unchecked_subset(self.n, self.mask & ~other.mask)

    def __le__(self, other: "ElementSubset") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "ElementSubset") -> bool:
        return self <= other and self.mask != other.mask

    def __contains__(self, i: int) -> bool:
        # exact ints skip this; a numpy int would make the shift a C long one, overflowing past 63 bits
        if type(i) is not int:
            i = operator.index(i)
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
        return _unchecked_subset(self.n, self.mask ^ ((1 << self.n) - 1))

    def __repr__(self) -> str:
        return f"ElementSubset(n={self.n}, {{{', '.join(map(str, self))}}})"

    def __reduce__(self) -> tuple:
        # copy, deepcopy and pickle rebuild through the constructor, not the frozen __setattr__
        return type(self), (self.n, self.mask)


# the slot descriptors' setters
_set_n = ElementSubset.n.__set__
_set_mask = ElementSubset.mask.__set__


def _unchecked_subset(n: int, mask: int) -> ElementSubset:
    """``ElementSubset(n, mask)`` without ``__post_init__``'s range check.

    Only for masks known to lie in 0..2**n-1 because they were combined from
    subsets of the same n-element universe that were checked already.  The
    two slots are written through their member descriptors, past the frozen
    ``__setattr__``; that costs about half of two ``object.__setattr__`` calls.
    """
    s = object.__new__(ElementSubset)
    _set_n(s, n)
    _set_mask(s, mask)
    return s


class SubmodularOracle:
    """Counting wrapper around an exact integer-valued set function.

    ``evaluate`` is the only query channel; the counter increments exactly
    once per call.  ``symmetric`` is a claim, checkable with
    :func:`check_symmetric`.

    A fresh oracle has every element ``free`` and an empty ``forced_in``.
    :func:`contract` returns the same class over the same function with
    ``free`` narrowed and ``forced_in`` grown: a query must lie in ``free``
    and is evaluated with ``forced_in`` added, and it is counted on the
    oracle the chain of contractions started from.
    """

    def __init__(self, ground: GroundSet, fn: Callable[[ElementSubset], int], *, symmetric: bool = False):
        self.ground = ground
        self._fn = fn
        self.symmetric = bool(symmetric)
        self.free = ground.full()
        self.forced_in = ground.empty()
        # one cell shared with every contraction, so they all count here
        self._queries = [0]

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def query_count(self) -> int:
        return self._queries[0]

    def evaluate(self, subset: ElementSubset) -> int:
        free = self.free
        if subset.n != free.n or subset.mask & ~free.mask:
            raise ValueError("subset uses elements outside the oracle's free elements")
        self._queries[0] += 1
        forced = self.forced_in.mask
        if forced:
            subset = _unchecked_subset(free.n, forced | subset.mask)
        value = self._fn(subset)
        try:
            return operator.index(value)
        except TypeError:
            raise TypeError(f"oracle returned non-integer value {value!r}") from None


def contract(f: SubmodularOracle, forced_in: ElementSubset, forced_out: ElementSubset) -> SubmodularOracle:
    """The function A -> f(forced_in | A) on the free elements of ``f`` in neither side.

    The result is a :class:`SubmodularOracle` over ``f``'s function, not
    symmetric, that counts each query once on the oracle ``f``'s chain of
    contractions started from.  Contracting a contraction stays flat: its
    ``forced_in`` is the union.  Both sides must be free elements of ``f``
    from its ground set, and disjoint.
    """
    if forced_in.n != f.n or forced_out.n != f.n:
        raise ValueError("forced sets do not live in the oracle's ground set")
    if forced_in & forced_out:
        raise ValueError("forced_in and forced_out overlap")
    if not (forced_in <= f.free and forced_out <= f.free):
        raise ValueError("forced sets must be free elements of the oracle")
    g = SubmodularOracle(f.ground, f._fn)
    g.forced_in = f.forced_in | forced_in
    g.free = f.free - forced_in - forced_out
    g._queries = f._queries
    return g


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of a property check: ``ok`` or a witness with its values."""

    ok: bool
    witness: Optional[tuple[ElementSubset, ...]] = None
    values: Optional[tuple[int, ...]] = None
    checks: int = 0


def _subset_masks(f) -> list[int]:
    """Masks of all subsets of the free elements; bit i of the index picks the i-th free element."""
    masks = [0]
    for e in f.free:
        masks += [x | 1 << e for x in masks]
    return masks


EXHAUSTIVE_SUBMODULAR_CAP = 16
EXHAUSTIVE_SYMMETRY_CAP = 20


def check_submodular(f) -> ViolationReport:
    """Search for a pair violating f(A) + f(B) >= f(A|B) + f(A&B).

    Runs the equivalent local condition f(A+i) + f(A+j) >= f(A+i+j) + f(A)
    over every A and i != j outside A, which covers all pairs; it needs at
    most 16 free elements.
    """
    m = len(f.free)
    if m > EXHAUSTIVE_SUBMODULAR_CAP:
        raise SizeLimitError(f"exhaustive submodularity check capped at {EXHAUSTIVE_SUBMODULAR_CAP} elements, got {m}")
    n = f.ground.n
    masks = _subset_masks(f)
    table = [f.evaluate(ElementSubset(n, x)) for x in masks]
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
                    witness = (ElementSubset(n, masks[ai]), ElementSubset(n, masks[aj]))
                    return ViolationReport(False, witness, (table[ai], table[aj], table[ai | aj], fa), checks)
    return ViolationReport(True, checks=checks)


def check_symmetric(f) -> ViolationReport:
    """Search for S with f(S) != f(complement of S) over at most 20 free elements."""
    m = len(f.free)
    if m > EXHAUSTIVE_SYMMETRY_CAP:
        raise SizeLimitError(f"exhaustive symmetry check capped at {EXHAUSTIVE_SYMMETRY_CAP} elements, got {m}")
    n = f.ground.n
    masks = _subset_masks(f)
    full = masks[-1]
    checks = 0
    # the first half of the masks (the one mask when m == 0) is one side of
    # every complementary pair: the side without the last free element
    for x in masks[:(len(masks) + 1) // 2]:
        checks += 1
        a, c = ElementSubset(n, x), ElementSubset(n, full ^ x)
        fa, fc = f.evaluate(a), f.evaluate(c)
        if fa != fc:
            return ViolationReport(False, (a, c), (fa, fc), checks)
    return ViolationReport(True, checks=checks)
