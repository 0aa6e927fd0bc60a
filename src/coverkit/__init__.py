"""coverkit: universal sets and cover-free families at desk scale.

Constructors (derandomized greedy, Las Vegas, Sperner antichain, and the
union-of-cover-free-families route to universal sets), exhaustive
verifiers with concrete witnesses, exact minimal-size search for tiny
instances, and closed-form size bounds.
"""

from .arrayfile import ArrayFileHeader, load_array, read_array, save_array, write_array
from .bounds import (
    BoundsReport,
    binary_entropy,
    cff_bounds_report,
    nrs,
    universal_bounds_report,
)
from .cff import (
    GreedyTrace,
    GreedyTraceRow,
    construct_cff_derandomized,
    construct_cff_randomized,
    construct_cff_sperner,
    sperner_row_count,
)
from .core import CffSpec, SymbolMatrix, UniversalSpec, complement, dedup_rows
from .core import derandomized_size_bound, universal_greedy_size_bound
from .errors import (
    AlphabetError,
    ConsistencyError,
    ConvergenceError,
    CoverkitError,
    DomainError,
    FormatError,
    ParameterError,
    ResourceLimitError,
)
from .oracle import SearchBudget, SearchOutcome, minimal_cff_size, minimal_universal_size
from .universal import build_universal_lemma1, construct_universal_greedy
from .verify import (
    CffWitness,
    UniversalWitness,
    Verdict,
    count_uncovered,
    verify_cff,
    verify_universal,
)

__version__ = "0.1.0"

__all__ = [
    "AlphabetError",
    "ArrayFileHeader",
    "BoundsReport",
    "CffSpec",
    "CffWitness",
    "ConsistencyError",
    "ConvergenceError",
    "CoverkitError",
    "DomainError",
    "FormatError",
    "GreedyTrace",
    "GreedyTraceRow",
    "ParameterError",
    "ResourceLimitError",
    "SearchBudget",
    "SearchOutcome",
    "SymbolMatrix",
    "UniversalSpec",
    "UniversalWitness",
    "Verdict",
    "binary_entropy",
    "build_universal_lemma1",
    "cff_bounds_report",
    "complement",
    "construct_cff_derandomized",
    "construct_cff_randomized",
    "construct_cff_sperner",
    "construct_universal_greedy",
    "count_uncovered",
    "dedup_rows",
    "derandomized_size_bound",
    "load_array",
    "minimal_cff_size",
    "minimal_universal_size",
    "nrs",
    "read_array",
    "save_array",
    "sperner_row_count",
    "universal_bounds_report",
    "universal_greedy_size_bound",
    "verify_cff",
    "verify_universal",
    "write_array",
]
