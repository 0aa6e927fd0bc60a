"""coverkit's public surface: the names ``__all__`` exports stay as they are
while the code behind them changes."""

import coverkit

PUBLIC = {
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
}


def test_all_names_the_public_surface_once():
    assert len(coverkit.__all__) == len(PUBLIC) == 43
    assert set(coverkit.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in coverkit.__all__:
        assert getattr(coverkit, name).__module__.startswith("coverkit"), name
