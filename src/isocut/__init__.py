"""isocut: nontrivial minimizers of symmetric submodular functions.

A randomized driver reduces global minimization to polylog-many calls to a
submodular-minimization blackbox via isolating sets; the hypergraph min-cut
application answers those calls with an exact in-package max-flow solver.
"""

from ._kernels import BACKEND
from .core import (
    ElementSubset,
    GroundSet,
    OracleContractError,
    SizeLimitError,
    SubmodularOracle,
    ViolationReport,
    check_submodular,
    check_symmetric,
    contract,
)
from .driver import (
    AtKResult,
    MISS_TARGET,
    DriverConfig,
    MinimizerResult,
    NoCandidateError,
    canonical_side,
    find_nontrivial_minimizer,
    find_nontrivial_minimizer_at_k,
    geometric_schedule,
    isolation_probability,
    miss_bound,
    sample_terminals,
    trial_samples,
)
from .generate import gen_planted, gen_uniform
from .hypergraph import (
    ContractedInstance,
    CutOracle,
    Hypergraph,
    HypergraphFlowBlackbox,
    HypergraphMincutResult,
    HypergraphParseError,
    contracted_instance,
    cut_value,
    hypergraph_mincut,
    parse_hypergraph,
    parse_hypergraph_json,
    serialize_hypergraph,
    st_mincut,
)
from .isolating import IsolatingResult, IsolatingStats, TerminalSet, bipartitions, isolating_sets
from .sfm import BruteForceBlackbox, SfmResult, bruteforce_nontrivial_min, sfm_bruteforce

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "AtKResult",
    "BruteForceBlackbox",
    "ContractedInstance",
    "CutOracle",
    "DriverConfig",
    "ElementSubset",
    "GroundSet",
    "Hypergraph",
    "HypergraphFlowBlackbox",
    "HypergraphMincutResult",
    "HypergraphParseError",
    "IsolatingResult",
    "IsolatingStats",
    "MISS_TARGET",
    "MinimizerResult",
    "NoCandidateError",
    "OracleContractError",
    "SfmResult",
    "SizeLimitError",
    "SubmodularOracle",
    "TerminalSet",
    "ViolationReport",
    "bipartitions",
    "bruteforce_nontrivial_min",
    "canonical_side",
    "check_submodular",
    "check_symmetric",
    "contract",
    "contracted_instance",
    "cut_value",
    "find_nontrivial_minimizer",
    "find_nontrivial_minimizer_at_k",
    "gen_planted",
    "gen_uniform",
    "geometric_schedule",
    "hypergraph_mincut",
    "isolating_sets",
    "isolation_probability",
    "miss_bound",
    "parse_hypergraph",
    "parse_hypergraph_json",
    "sample_terminals",
    "serialize_hypergraph",
    "sfm_bruteforce",
    "st_mincut",
    "trial_samples",
]
