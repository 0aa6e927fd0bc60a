"""Constructors for (n, d)-universal sets: the union of cover-free
families (``build_universal_lemma1``, binary alphabet only) and the direct
conditional-expectations build (``construct_universal_greedy``, any
alphabet).
"""

from __future__ import annotations

from .cff import CffMethod, GreedyTrace, _checked, _constraint_index, _construct, _greedy_cover
from .core import CffSpec, SymbolMatrix, UniversalSpec, _check_work, complement, dedup_rows
from .verify import verify_universal


def build_universal_lemma1(
    n: int,
    d: int,
    cff_method: CffMethod = "derandomized",
    *,
    seed: int = 0,
    batch: int = 16,
) -> SymbolMatrix:
    """Union-of-cover-free-families construction of an (n, d)-universal set
    over the binary alphabet: a binary matrix shows every weight-i pattern
    on every d columns exactly when it is an (n, (i, d-i))-cover-free
    family, so the union over all of i = 0..d is universal.

    Builds F(n, (i, d-i)) for i = floor(d/2) down to 0 with the requested
    method, then each i > floor(d/2) as the complement of its mirror
    F(n, (d-i, i)), and returns their rows in component order i = 0..d,
    deduplicated and verified as a whole. ``seed``/``batch`` only matter
    for the randomized method (component i uses seed + i).
    """
    spec = UniversalSpec(n, d)
    # The middle component costs the most, so it is built, or refused, first.
    parts = [_construct(CffSpec(n, i, d - i), cff_method, seed + i, batch)
             for i in range(d // 2, -1, -1)][::-1]
    parts += [complement(parts[d - i]) for i in range(d // 2 + 1, d + 1)]
    rows = tuple(row for part in parts for row in part.rows)
    union = dedup_rows(SymbolMatrix(n=n, q=spec.q, rows=rows))
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
    _check_work(spec, "construct")
    m, trace = _greedy_cover(*_constraint_index(spec), (1,) * spec.q)
    return _checked(m, verify_universal(m, spec.d)), trace
