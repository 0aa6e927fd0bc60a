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
The engine is bit-sliced: Python ints serve as bitsets over the constraint
index, one per (column, symbol) for the constraints requiring that symbol
there, from ``core._column_index``, and one per distinct coverage numerator
for the constraints holding it. Deciding a column costs one AND and
popcount per (numerator, symbol) pair and a few ANDs per numerator to move
the chosen symbol's constraints to their new numerator: the count of
operations does not grow with the number of constraints, and each is one
pass in C over a bitset's words.

Every constructor verifies its own output before returning it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Literal, Sequence

from .core import CffSpec, SymbolMatrix, _check_constraint_cap, _column_index, _num_constraints
from .errors import ConvergenceError, ParameterError
from .verify import Verdict, _cff_requirements, verify_cff

# Las Vegas batch cap; hitting it means the spec is far beyond desk scale.
MAX_BATCHES = 10_000

CffMethod = Literal["derandomized", "randomized", "sperner_where_applicable"]

CFF_METHODS = ("derandomized", "randomized", "sperner_where_applicable")


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


def _power_bounds(base: int, k: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2**e <= base**k <= hi * 2**e, by square and
    multiply, rounding lo down and hi up to ``bits`` bits after each step."""
    lo = hi = 1
    e = 0
    for bit in bin(k)[2:]:
        lo, hi, e = lo * lo, hi * hi, 2 * e
        if bit == "1":
            lo, hi = lo * base, hi * base
        cut = hi.bit_length() - bits
        if cut > 0:
            lo, hi, e = lo >> cut, -(-hi >> cut), e + cut
    return lo, hi, e


def _power_below(m: int, a: int, b: int, k: int) -> bool:
    """Whether m * a**k < b**k, for 0 <= a < b, decided exactly.

    The two powers are bounded at rising precision until the bounds settle
    the comparison; at worst the precision reaches the powers' own size,
    where the bounds are the exact values. So the cost follows how close
    the two sides are, not the size of the powers.
    """
    bits = 64
    while True:
        a_lo, a_hi, ae = _power_bounds(a, k, bits)
        b_lo, b_hi, be = _power_bounds(b, k, bits)
        e = min(ae, be)
        if (m * a_hi) << (ae - e) < b_lo << (be - e):
            return True
        if (m * a_lo) << (ae - e) >= b_hi << (be - e):
            return False
        bits *= 2


def greedy_row_bound(num_constraints: int, covered: int, whole: int) -> int:
    """Rows needed when every row covers at least the fraction covered/whole
    of what remains: the least k with M * (whole - covered)**k < whole**k for
    M constraints, in exact integers. In real arithmetic this is
    floor(ln M / -ln(1 - c)) + 1. M <= 1 or a rate of 1 means one row."""
    if num_constraints <= 1 or covered >= whole:
        return 1

    def enough(k: int) -> bool:
        return _power_below(num_constraints, whole - covered, whole, k)

    # Double, then bisect: k reaches ~4e5 at c = 5**-6.
    hi = 1
    while not enough(hi):
        hi *= 2
    lo = hi // 2  # not enough: hi == 1 or hi was doubled past it; M > 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if enough(mid):
            hi = mid
        else:
            lo = mid
    return hi


def derandomized_size_bound(spec: CffSpec) -> int:
    """The guaranteed row-count bound of the derandomized constructor."""
    r, s, d = spec.r, spec.s, spec.d
    # c = p**r (1-p)**s at p = r/d; 0**0 == 1 covers the edges
    return greedy_row_bound(_num_constraints(spec), r**r * s**s, d**d)


def _checked(m: SymbolMatrix, verdict: Verdict) -> SymbolMatrix:
    """``m``, once its own verifier's ``verdict`` says it is valid."""
    if not verdict.valid:
        raise AssertionError(f"constructed matrix fails its own spec: {verdict.witness}")
    return m


def _greedy_cover(
    n: int, requirements: Iterable[Iterable[tuple[int, int]]], weights: Sequence[int]
) -> tuple[SymbolMatrix, GreedyTrace]:
    """Emit rows by conditional expectations until every constraint is met.

    A constraint is a list of (column, symbol) requirements on distinct
    columns. Undecided symbols are independent, c with probability
    weights[c] / W for W = sum(weights). Each constraint has an exact
    numerator, over W**k for k requirements, of the chance the current row
    meets it: 0 once an earlier row met it or a decided symbol conflicts.
    Column j takes the symbol c with the largest gain tally // weights[c] * W
    (tally sums the numerators requiring c at j), ties to the smallest; the
    division is exact, since each of those numerators still has the factor
    weights[c].

    The state is bit-sliced: each set of constraints is a Python int with
    bit i for constraint i. ``need[j][c]``, from ``_column_index``, is the
    set requiring symbol c at column j, ``live`` the set no earlier row has
    met, and ``groups`` maps each nonzero numerator to the set of
    constraints holding it. The groups a row starts from are folded once
    from ``need``, moving the members of ``need[j][c]`` from v to
    v * weights[c] for each column in turn. Column j
    tallies each symbol by AND and popcount against every group; fixing it
    to c moves the members of ``need[j][c]`` from numerator v to
    v // weights[c] * W, drops the members requiring another symbol and
    leaves the rest. Once every column is decided, the union of the groups
    is what the row met. Equal weights keep at most k + 1 numerators, so a
    column costs a few dozen big-int operations, not a Python step per
    constraint.
    """
    q, total = len(weights), sum(weights)
    need, size = _column_index(n, q, requirements)
    # untouched[j]: the constraints with no requirement at column j.
    untouched = [~sum(sets) for sets in need]
    # start_sets[v]: the constraints whose numerator at the start of a row is v.
    start_sets = {1: (1 << size) - 1}
    for sets, rest in zip(need, untouched):
        folded: dict[int, int] = {}
        for v, held in start_sets.items():
            parts = [(v, held & rest)] + [(v * w, held & s) for w, s in zip(weights, sets)]
            for u, part in parts:
                if part:
                    folded[u] = folded.get(u, 0) | part
        start_sets = folded

    live = (1 << size) - 1  # constraints no earlier row has met
    remaining = size
    rows: list[tuple[int, ...]] = []
    trace_rows: list[GreedyTraceRow] = []
    while live:
        groups = {v: members & live for v, members in start_sets.items()}
        row = []
        for sets, rest in zip(need, untouched):
            best, best_gain = 0, -1
            for c, members in enumerate(sets):
                tally = sum(v * (s & members).bit_count() for v, s in groups.items())
                gain = tally // weights[c] * total
                if gain > best_gain:
                    best, best_gain = c, gain
            row.append(best)
            kept, w = sets[best], weights[best]
            moved: dict[int, int] = {}
            for v, s in groups.items():
                stay, met = s & rest, s & kept
                if stay:
                    moved[v] = moved.get(v, 0) | stay
                if met:
                    u = v // w * total
                    moved[u] = moved.get(u, 0) | met
            groups = moved
        # Every column is decided: a constraint still in a group is met by the
        # row. No constraint is in two groups, so their sum is their union.
        covered = sum(groups.values())
        live &= ~covered
        count = covered.bit_count()
        remaining -= count
        rows.append(tuple(row))
        trace_rows.append(GreedyTraceRow(rows[-1], count, remaining))
    return SymbolMatrix(n=n, q=q, rows=tuple(rows)), GreedyTrace(tuple(trace_rows))


def _constant_row_family(spec: CffSpec) -> tuple[SymbolMatrix, GreedyTrace]:
    """Closed form for r = 0 (all-zero row) and s = 0 (all-one row)."""
    bit = 0 if spec.r == 0 else 1
    row = (bit,) * spec.n
    m = SymbolMatrix(n=spec.n, q=2, rows=(row,))
    trace = GreedyTrace((GreedyTraceRow(row, _num_constraints(spec), 0),))
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
    _check_constraint_cap(spec)
    if spec.r == 0 or spec.s == 0:
        return _constant_row_family(spec)
    r, s = spec.r, spec.s
    m, trace = _greedy_cover(spec.n, _cff_requirements(spec.n, r, s), (s, r))
    return _checked(m, verify_cff(m, r, s)), trace


def construct_cff_randomized(spec: CffSpec, seed: int, batch: int = 16) -> SymbolMatrix:
    """Las Vegas construction: append batches of Bernoulli(r/(r+s)) rows
    until every constraint is covered.

    Always returns a verified family; the output is a pure function of
    (spec, seed, batch). For r = 0 or s = 0 the constant-row closed form is
    returned directly.
    """
    _check_constraint_cap(spec)
    if batch < 1:
        raise ParameterError(f"batch must be positive, got {batch}")
    if spec.r == 0 or spec.s == 0:
        return _constant_row_family(spec)[0]

    n, r, s = spec.n, spec.r, spec.s
    p = r / spec.d
    rng = random.Random(seed)
    need, size = _column_index(n, 2, _cff_requirements(n, r, s))
    # A row misses exactly the constraints requiring the other symbol at one
    # of its columns: the union of need[j][1 - bit] over them.
    pending = (1 << size) - 1  # constraints no row has met

    rows: list[tuple[int, ...]] = []
    for _ in range(MAX_BATCHES):
        for _ in range(batch):
            bits = tuple(1 if rng.random() < p else 0 for _ in range(n))
            rows.append(bits)
            missed = 0
            for sets, bit in zip(need, bits):
                missed |= sets[1 - bit]
            pending &= missed
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


def _construct(spec: CffSpec, method: str, seed: int, batch: int = 16) -> SymbolMatrix:
    """The family ``method``, one of CFF_METHODS, builds for ``spec``;
    sperner_where_applicable is derandomized unless (r, s) = (1, 1)."""
    if method == "derandomized":
        return construct_cff_derandomized(spec)[0]
    if method == "randomized":
        return construct_cff_randomized(spec, seed=seed, batch=batch)
    if method == "sperner_where_applicable":
        if spec.r == 1 and spec.s == 1:
            return construct_cff_sperner(spec.n)
        return construct_cff_derandomized(spec)[0]
    raise ParameterError(f"unknown cff method {method!r}; expected one of {CFF_METHODS}")
