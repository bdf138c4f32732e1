"""Submodular function minimization returning the minimal minimizer.

Minimizers of a submodular function are closed under union and intersection,
so a unique inclusion-wise least minimizer exists.  Every blackbox here
returns exactly that set; downstream cell construction depends on it for
determinism and for the strict-inequality step of the containment argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ElementSubset,
    OracleContractError,
    SizeLimitError,
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

    The oracle's :meth:`~isocut.core.SubmodularOracle.gray_walk` visits the
    subsets, and the running intersection of all value-ties is kept; for a
    submodular oracle that intersection is itself optimal (verified with a
    final evaluation) and is the minimal minimizer.
    """
    m = len(f.free)
    if m > DEFAULT_BRUTEFORCE_CAP:
        raise SizeLimitError(f"brute-force minimization capped at {DEFAULT_BRUTEFORCE_CAP} free elements, got {m}")
    walk = f.gray_walk()
    meet, best = next(walk)
    for mask, v in walk:
        if v < best:
            best, meet = v, mask
        elif v == best:
            meet &= mask
    minimizer = ElementSubset(f.ground.n, meet)
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
    (so at most n/2 for a symmetric oracle), then smallest bitmask.  Every
    element of f must be free; the walk also queries the empty and the full
    set, which are never the answer.
    """
    n = f.ground.n
    if n < 2:
        raise ValueError("nontrivial minimization needs n >= 2")
    if n > DEFAULT_BRUTEFORCE_CAP:
        raise SizeLimitError(f"brute-force minimization capped at {DEFAULT_BRUTEFORCE_CAP} elements, got {n}")
    full = (1 << n) - 1
    if f.free.mask != full:
        raise ValueError("nontrivial minimization needs every element free")
    value, _, mask = min((v, mask.bit_count(), mask) for mask, v in f.gray_walk() if 0 < mask < full)
    return ElementSubset(n, mask), value
