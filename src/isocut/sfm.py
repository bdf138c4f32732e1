"""Submodular function minimization returning the minimal minimizer.

Minimizers of a submodular function are closed under union and intersection,
so a unique inclusion-wise least minimizer exists.  Every blackbox here
returns exactly that set; downstream cell construction depends on it for
determinism and for the strict-inequality step of the containment argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .core import (
    ElementSubset,
    OracleContractError,
    SizeLimitError,
    _unchecked_subset,
    contract,
)

__all__ = [
    "SfmResult",
    "sfm_bruteforce",
    "BruteForceBlackbox",
    "bruteforce_nontrivial_min",
    "DEFAULT_BRUTEFORCE_CAP",
]

DEFAULT_BRUTEFORCE_CAP = 24


@dataclass(frozen=True)
class SfmResult:
    """One blackbox answer: the minimal minimizer and its value.

    ``rep_size`` is the size of the instance actually solved: the number of
    free elements enumerated, or the representation size of a flow network.
    """

    minimizer: ElementSubset
    value: int
    rep_size: int


def sfm_bruteforce(f) -> SfmResult:
    """Exhaustive minimization over every subset of the free elements.

    Subsets are visited in increasing cardinality, lexicographic within each
    cardinality, and the running intersection of all value-ties is kept; for
    a submodular oracle that intersection is itself optimal (verified with a
    final evaluation) and is the minimal minimizer.
    """
    bits = [1 << e for e in f.free]
    m = len(bits)
    if m > DEFAULT_BRUTEFORCE_CAP:
        raise SizeLimitError(f"brute-force minimization capped at {DEFAULT_BRUTEFORCE_CAP} free elements, got {m}")
    n = f.ground.n
    best: Optional[int] = None
    meet = 0
    # the free bits are distinct, so each sum is the union of its combination
    for r in range(m + 1):
        for combo in combinations(bits, r):
            mask = sum(combo)
            v = f.evaluate(_unchecked_subset(n, mask))
            if best is None or v < best:
                best, meet = v, mask
            elif v == best:
                meet &= mask
    minimizer = ElementSubset(n, meet)
    if f.evaluate(minimizer) != best:
        raise OracleContractError(
            "intersection of optimal sets is not optimal; oracle is not submodular"
        )
    return SfmResult(minimizer, best, m)


class BruteForceBlackbox:
    """SFM blackbox: exhaustive minimal-minimizer search on the contraction."""

    def __call__(self, f, forced_in: ElementSubset, forced_out: ElementSubset) -> SfmResult:
        return sfm_bruteforce(contract(f, forced_in, forced_out))


def bruteforce_nontrivial_min(f) -> tuple[ElementSubset, int]:
    """Exhaustive minimum of f over all S with 0 < |S| < n.

    Returns the canonical optimal side: smallest value, then smallest size
    (so at most n/2 for a symmetric oracle), then smallest bitmask.
    """
    n = f.ground.n
    if n < 2:
        raise ValueError("nontrivial minimization needs n >= 2")
    if n > DEFAULT_BRUTEFORCE_CAP:
        raise SizeLimitError(f"brute-force minimization capped at {DEFAULT_BRUTEFORCE_CAP} elements, got {n}")
    best_key = None
    best: Optional[tuple[ElementSubset, int]] = None
    for mask in range(1, (1 << n) - 1):
        s = ElementSubset(n, mask)
        v = f.evaluate(s)
        key = (v, mask.bit_count(), mask)
        if best_key is None or key < best_key:
            best_key = key
            best = (s, v)
    assert best is not None
    return best
