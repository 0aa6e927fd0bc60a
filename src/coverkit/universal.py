"""Constructors for (n, d)-universal sets.

``build_universal_lemma1`` takes the cover-free route (binary alphabet
only): a binary matrix shows every weight-i pattern on every d columns
exactly when it is an (n, (i, d-i))-cover-free family, so the union of
such families over i = 0..d is universal. Components with i > d/2 are
obtained by complementing the mirror component, which halves the work.

``construct_universal_greedy`` is a direct conditional-expectations build
over the (columns, pattern) constraints and works for any alphabet size.
It runs the engine of ``construct_cff_derandomized`` with symbol weights
(1,) * q, for which the cover-free constructor passes (s, r).
"""

from __future__ import annotations

from .cff import CffMethod, GreedyTrace, _checked, _construct, _greedy_cover, greedy_row_bound
from .core import CffSpec, SymbolMatrix, UniversalSpec, complement, dedup_rows
from .core import _check_constraint_cap, _num_constraints
from .verify import _universal_requirements, verify_universal


def universal_greedy_size_bound(spec: UniversalSpec) -> int:
    """Guaranteed row bound of the direct greedy:
    floor(ln(C(n,d) q**d) / -ln(1 - q**-d)) + 1."""
    return greedy_row_bound(_num_constraints(spec), 1, spec.q**spec.d)


def build_universal_lemma1(
    n: int,
    d: int,
    cff_method: CffMethod = "derandomized",
    *,
    seed: int = 0,
    batch: int = 16,
) -> SymbolMatrix:
    """Union-of-cover-free-families construction of an (n, d)-universal set
    over the binary alphabet.

    Builds F(n, (i, d-i)) for i = 0..floor(d/2) with the requested method,
    supplies i > floor(d/2) as the complement of the mirror component, and
    returns the deduplicated union merged in component order i = 0..d,
    verified as a whole before it is returned.

    The union ranges over all of i = 0..d: every weight class of patterns,
    including the all-ones one, needs its component. ``seed``/``batch``
    only matter for the randomized method (component i uses seed + i).
    """
    UniversalSpec(n, d)
    built: dict[int, SymbolMatrix] = {}
    for i in range(d // 2 + 1):
        built[i] = _construct(CffSpec(n=n, r=i, s=d - i), cff_method, seed + i, batch)
    merged: list[tuple[int, ...]] = []
    for i in range(d + 1):
        part = built[i] if i <= d // 2 else complement(built[d - i])
        merged.extend(part.rows)
    union = dedup_rows(SymbolMatrix(n=n, q=2, rows=tuple(merged)))
    return _checked(union, verify_universal(union, d))


def construct_universal_greedy(spec: UniversalSpec) -> tuple[SymbolMatrix, GreedyTrace]:
    """Direct conditional-expectations construction of an (n, d)-universal
    set over any alphabet.

    Rows are built symbol by symbol by ``_greedy_cover`` against the
    uncovered (columns, pattern) constraints, undecided symbols modeled as
    uniform over the alphabet (symbol weights (1,) * q). Candidate
    expectations are compared as exact integers over the common denominator
    q**d; ties go to the smallest symbol. The row count satisfies
    floor(ln(C(n,d) q**d) / -ln(1 - q**-d)) + 1.
    """
    n, d, q = spec.n, spec.d, spec.q
    _check_constraint_cap(spec)
    m, trace = _greedy_cover(n, _universal_requirements(n, d, q), (1,) * q)
    return _checked(m, verify_universal(m, d)), trace
