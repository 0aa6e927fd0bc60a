"""Constructors for (n, (r, s))-cover-free families at desk scale.

Three routes:

* ``construct_cff_derandomized`` derandomizes the probabilistic existence
  argument by the method of conditional expectations, fixing one bit at a
  time. Undecided bits are modeled as independent Bernoulli(p) with
  p = r/(r+s), the density that maximizes the per-constraint coverage
  probability c = p**r * (1-p)**s.
* ``construct_cff_randomized`` is the Las Vegas version: sample rows at
  density p in batches until nothing is uncovered.
* ``construct_cff_sperner`` solves the (1, 1) case exactly with an
  antichain of half-size subsets.

Its conditional-expectations engine, ``_greedy_cover``, is shared with
``construct_universal_greedy``: the density scheme of Bryce & Colbourn
(2009). A constraint is a list of (column, symbol) requirements, so (R, S)
reads "1 on R, 0 on S", and undecided symbols are drawn with probabilities
proportional to integer weights: (s, r) here, (1,) * q for universal sets.

Every constructor verifies its own output before returning it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, compress
from math import comb, log
from typing import Iterable, Sequence

from .core import CffSpec, SymbolMatrix
from .errors import ConvergenceError, ParameterError, ResourceLimitError
from .verify import Verdict, _cff_pairs, verify_cff

# Hard cap on the number of constraints a constructor will track.
CONSTRAINT_CAP = 2**26

# Las Vegas batch cap; hitting it means the spec is far beyond desk scale.
MAX_BATCHES = 10_000


@dataclass(frozen=True)
class GreedyTraceRow:
    """One emitted row: the symbols chosen, how many constraints it newly
    covered, and how many remain after it."""

    row: tuple[int, ...]
    covered: int
    remaining: int


@dataclass(frozen=True)
class GreedyTrace:
    """Audit trail of a conditional-expectations run."""

    rows: tuple[GreedyTraceRow, ...]

    def __post_init__(self) -> None:
        remaining = None
        for rec in self.rows:
            if remaining is not None and rec.remaining >= remaining:
                raise ParameterError("remaining counts must strictly decrease")
            remaining = rec.remaining
        if self.rows and self.rows[-1].remaining != 0:
            raise ParameterError("trace must end with zero remaining constraints")

    @property
    def total_rows(self) -> int:
        return len(self.rows)


def greedy_row_bound(num_constraints: int, coverage_rate: float) -> int:
    """Rows needed when every row covers at least ``coverage_rate`` of what
    remains: floor(ln M / -ln(1 - c)) + 1. A rate of 1 means one row."""
    if num_constraints <= 1 or coverage_rate >= 1.0:
        return 1
    return int(log(num_constraints) / -log(1.0 - coverage_rate)) + 1


def _num_pairs(spec: CffSpec) -> int:
    return comb(spec.n, spec.r) * comb(spec.n - spec.r, spec.s)


def derandomized_size_bound(spec: CffSpec) -> int:
    """The guaranteed row-count bound of the derandomized constructor."""
    p = spec.r / spec.d
    c = p**spec.r * (1.0 - p) ** spec.s  # 0**0 == 1 covers the edges
    return greedy_row_bound(_num_pairs(spec), c)


def _check_constraint_cap(m_total: int) -> None:
    if m_total > CONSTRAINT_CAP:
        raise ResourceLimitError(
            f"constraint set of size {m_total} exceeds the cap of {CONSTRAINT_CAP}"
        )


def _checked(m: SymbolMatrix, verdict: Verdict) -> SymbolMatrix:
    """``m``, once its own verifier's ``verdict`` says it is valid."""
    if not verdict.valid:
        raise AssertionError(f"constructed matrix fails its own spec: {verdict.witness}")
    return m


def _greedy_cover(
    n: int, requirements: Iterable[Iterable[tuple[int, int]]], weights: Sequence[int]
) -> tuple[SymbolMatrix, GreedyTrace]:
    """Emit rows by conditional expectations until every constraint is met.

    A constraint is a list of (column, symbol) requirements. Undecided
    symbols are independent, c with probability weights[c] / W for
    W = sum(weights). Each constraint keeps the exact numerator, over W**k
    for k requirements, of the chance the current row meets it: 0 once an
    earlier row met it or a decided symbol conflicts. Column j takes the
    symbol c with the largest gain tally // weights[c] * W (tally sums the
    numerators requiring c at j), ties to the smallest; the division is
    exact, since each of those numerators still has the factor weights[c].
    """
    q, total = len(weights), sum(weights)
    # by_column[j][c]: the constraints requiring symbol c at column j.
    by_column: list[list[list[int]]] = [[[] for _ in range(q)] for _ in range(n)]
    # fresh[i]: constraint i's numerator at the start of a row; 0 once a row met it.
    fresh: list[int] = []
    for i, reqs in enumerate(requirements):
        base = 1
        for j, c in reqs:
            by_column[j][c].append(i)
            base *= weights[c]
        fresh.append(base)

    remaining = len(fresh)
    rows: list[tuple[int, ...]] = []
    trace_rows: list[GreedyTraceRow] = []
    while remaining:
        num = fresh.copy()
        row = []
        for groups in by_column:
            best, best_gain = 0, -1
            for c, members in enumerate(groups):
                gain = sum(map(num.__getitem__, members)) // weights[c] * total
                if gain > best_gain:
                    best, best_gain = c, gain
            row.append(best)
            for c, members in enumerate(groups):
                if c == best:
                    w = weights[c]
                    for i in members:
                        num[i] = num[i] // w * total
                else:
                    for i in members:
                        num[i] = 0
        # Every column is decided: a constraint still nonzero is met by the row.
        covered = list(compress(range(len(num)), num))
        for i in covered:
            fresh[i] = 0
        remaining -= len(covered)
        rows.append(tuple(row))
        trace_rows.append(GreedyTraceRow(rows[-1], len(covered), remaining))
    return SymbolMatrix(n=n, q=q, rows=tuple(rows)), GreedyTrace(tuple(trace_rows))


def _constant_row_family(spec: CffSpec) -> tuple[SymbolMatrix, GreedyTrace]:
    """Closed form for r = 0 (all-zero row) and s = 0 (all-one row)."""
    bit = 0 if spec.r == 0 else 1
    row = (bit,) * spec.n
    m = SymbolMatrix(n=spec.n, q=2, rows=(row,))
    trace = GreedyTrace((GreedyTraceRow(row, _num_pairs(spec), 0),))
    return _checked(m, verify_cff(m, spec.r, spec.s)), trace


def construct_cff_derandomized(spec: CffSpec) -> tuple[SymbolMatrix, GreedyTrace]:
    """Build an (n, (r, s))-cover-free family by conditional expectations.

    Rows are emitted one at a time by ``_greedy_cover`` with symbol weights
    (s, r): within a row, bit j is fixed to the value that maximizes the
    conditional expected number of still-uncovered constraints the row will
    cover, ties broken toward 0. The comparison is exact: both candidate
    expectations are integer numerators over the common denominator d**d,
    so bit decisions are platform-independent.

    The row count satisfies floor(ln M / -ln(1-c)) + 1 with
    M = C(n,r) * C(n-r,s) and c = p**r (1-p)**s.
    """
    _check_constraint_cap(_num_pairs(spec))
    if spec.r == 0 or spec.s == 0:
        return _constant_row_family(spec)
    r, s = spec.r, spec.s
    symbols = (1,) * r + (0,) * s
    requirements = (zip(R + S, symbols) for R, S, _, _ in _cff_pairs(spec.n, r, s))
    m, trace = _greedy_cover(spec.n, requirements, (s, r))
    return _checked(m, verify_cff(m, r, s)), trace


def construct_cff_randomized(spec: CffSpec, seed: int, batch: int = 16) -> SymbolMatrix:
    """Las Vegas construction: append batches of Bernoulli(r/(r+s)) rows
    until every constraint is covered.

    Always returns a verified family; the output is a pure function of
    (spec, seed, batch). For r = 0 or s = 0 the constant-row closed form is
    returned directly.
    """
    _check_constraint_cap(_num_pairs(spec))
    if batch < 1:
        raise ParameterError(f"batch must be positive, got {batch}")
    if spec.r == 0 or spec.s == 0:
        return _constant_row_family(spec)[0]

    n, r, s = spec.n, spec.r, spec.s
    p = r / spec.d
    rng = random.Random(seed)
    # (rmask, smask) of each constraint still uncovered
    pending = [(rmask, smask) for _, _, rmask, smask in _cff_pairs(n, r, s)]

    rows: list[tuple[int, ...]] = []
    for _ in range(MAX_BATCHES):
        fresh_masks = []
        for _ in range(batch):
            bits = tuple(1 if rng.random() < p else 0 for _ in range(n))
            rows.append(bits)
            fresh_masks.append(sum(bit << j for j, bit in enumerate(bits)))
        pending = [
            (rmask, smask)
            for rmask, smask in pending
            if not any(row & rmask == rmask and row & smask == 0 for row in fresh_masks)
        ]
        if not pending:
            m = SymbolMatrix(n=n, q=2, rows=tuple(rows))
            return _checked(m, verify_cff(m, r, s))
    raise ConvergenceError(
        f"no ({spec.n}, ({spec.r}, {spec.s})) family after {MAX_BATCHES} batches of {batch}"
    )


def sperner_row_count(n: int) -> int:
    """Least N with C(N, floor(N/2)) >= n: the optimal (n, (1, 1)) size."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    rows = 1
    while comb(rows, rows // 2) < n:
        rows += 1
    return rows


def construct_cff_sperner(n: int) -> SymbolMatrix:
    """Optimal (n, (1, 1))-cover-free family from an antichain.

    Columns are the first n floor(N/2)-subsets of the row set in
    lexicographic order, with N minimal such that C(N, floor(N/2)) >= n.
    Distinct equal-size subsets are pairwise incomparable, which is exactly
    the (1, 1) cover-free property.
    """
    rows = sperner_row_count(n)
    half = rows // 2
    chosen = []
    for subset in combinations(range(rows), half):
        chosen.append(set(subset))
        if len(chosen) == n:
            break
    matrix_rows = tuple(
        tuple(1 if i in block else 0 for block in chosen) for i in range(rows)
    )
    m = SymbolMatrix(n=n, q=2, rows=matrix_rows)
    return _checked(m, verify_cff(m, 1, 1))
