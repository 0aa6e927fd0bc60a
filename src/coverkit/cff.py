"""Constructors for (n, (r, s))-cover-free families at desk scale: by
conditional expectations (``construct_cff_derandomized``), its Las Vegas
version (``construct_cff_randomized``), and for (1, 1) an antichain of
half-size subsets (``construct_cff_sperner``).

The conditional-expectations engine, ``_greedy_cover``, is shared with
``construct_universal_greedy``: the density scheme of Bryce & Colbourn
(2009), with symbol weights (s, r) here and (1,) * q for universal sets.

Every constructor verifies its own output before returning it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, islice, pairwise
from math import comb
from typing import Literal, Sequence, get_args

from .core import CffSpec, SymbolMatrix, _check_work, _num_constraints
from .errors import ConvergenceError, ParameterError
from .verify import Verdict, _constraint_index, _squeezer, verify_cff

# Las Vegas batch cap; hitting it means the spec is far beyond desk scale.
MAX_BATCHES = 10_000

# The fewest live constraints ``_greedy_cover`` compacts its sets to; from
# 256 to 1024 the construct grid's greedy loops took about the same time.
_COMPACT_FLOOR = 640

CffMethod = Literal["derandomized", "randomized", "sperner_where_applicable"]

CFF_METHODS = get_args(CffMethod)


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
        if any(b.remaining >= a.remaining for a, b in pairwise(self.rows)):
            raise ParameterError("remaining counts must strictly decrease")
        if self.rows and self.rows[-1].remaining != 0:
            raise ParameterError("trace must end with zero remaining constraints")

    @property
    def total_rows(self) -> int:
        return len(self.rows)


def _checked(m: SymbolMatrix, verdict: Verdict) -> SymbolMatrix:
    """``m``, once its own verifier's ``verdict`` says it is valid."""
    if not verdict.valid:
        raise AssertionError(f"constructed matrix fails its own spec: {verdict.witness}")
    return m


def _fold(
    groups: dict[int, int], sets: list[int], num: Sequence[int], den: Sequence[int]
) -> tuple[dict[int, int], list[list[tuple[int, int]]]]:
    """(moved, classes) for one column ``sets`` of the engine's index, where
    ``groups`` maps each numerator v to the set of constraints holding it.

    The members of ``sets[c]`` holding v move to v // den[c] * num[c], and
    the constraints with no requirement at the column keep v. ``classes[c]``
    holds (multiplier, set) pairs whose sum of multiplier * popcount(x & set)
    is the sum of v // den[c] over the members of ``sets[c]`` in x:
    ``sets[c]`` itself at the first such value, and the members at each
    other value at the difference from it. So a column's sets are not held
    twice.
    """
    moved: dict[int, int] = {}
    classes: list[list[tuple[int, int]]] = [[] for _ in sets]
    for v, held in groups.items():
        for c, s in enumerate(sets):
            part = held & s
            if part:
                held ^= part
                u, pairs = v // den[c], classes[c]
                pairs.append((u - pairs[0][0], part) if pairs else (u, s))
                to = u * num[c]
                moved[to] = moved.get(to, 0) | part
        if held:
            moved[v] = moved.get(v, 0) | held
    return moved, classes


def _classes(
    need: list[list[int]], start: dict[int, int], weights: Sequence[int]
) -> list[list[list[tuple[int, int]]]]:
    """``_fold``'s classes for each column of ``need``, carrying ``start``
    through the columns: a member of ``need[j][c]`` with numerator v gains
    v // weights[c] at column j and then holds v // weights[c] * W."""
    spread = (sum(weights),) * len(weights)
    classes = []
    for sets in need:
        start, column = _fold(start, sets, spread, weights)
        classes.append(column)
    return classes


def _drops(need: list[list[int]]) -> list[list[int]]:
    """drops[j][c]: the union of the sets ``need[j]`` holds for symbols
    other than c; at q = 2 the other set itself, so no int is added."""
    return [sets[::-1] if len(sets) == 2 else [sum(sets) ^ s for s in sets] for sets in need]


def _greedy_cover(
    need: list[list[int]], live: int, weights: Sequence[int]
) -> tuple[SymbolMatrix, GreedyTrace]:
    """Emit rows by conditional expectations until the constraints of the
    mask ``live`` are met, where bit i of ``need[j][c]`` is set when
    constraint i requires symbol c at column j, and no padding bit is.

    Undecided symbols are independent, c with probability weights[c] / W for
    W = sum(weights). Each constraint has an exact numerator, over W**k for
    k requirements, of the chance the current row meets it: 0 once an
    earlier row met it or a decided symbol conflicts. Column j takes the
    symbol c with the largest gain tally // weights[c] (tally sums the
    numerators requiring c at j), ties to the smallest; the division is
    exact, since each of those numerators still has the factor weights[c].

    The state is bit-sliced: each set of constraints is a Python int with
    bit i for constraint i, as ``need[j][c]`` is, and never negative, as an
    AND with a negative int costs several times more. While a constraint
    agrees with every symbol decided so far, its numerator at column j is
    fixed: its weights at columns j and after, times W for each requirement
    before j. So the numerators are folded through the columns once, not
    per row: ``start`` maps each numerator at the start of a row to its
    constraints, and ``_classes`` carries it through the columns. A row
    keeps one mask, ``consistent``, which starts as the live set: column
    j's gain for c is the sum of ``classes[j][c]`` at x = ``consistent``,
    and fixing the column to c drops the members of the other ``need[j]``
    sets, their union ``drops[j][c]`` (``_drops``), in one AND and XOR.
    Once every column is decided, ``consistent`` is what the row met.
    The chosen symbol never lowers the sum of the numerators, so a row
    meets a live constraint unless one requires two symbols at a column; a
    row that meets none would repeat forever, so it raises AssertionError.

    Each of those operations costs in proportion to the sets' width, and
    the width follows the live count: once no more than a third of the
    constraints the sets hold are live, ``_squeezer`` drops the met ones,
    and the first time the padding, from ``need`` and ``start``, and the
    classes and drop sets are built again, so bit i is then the i-th live
    constraint. Under ``_COMPACT_FLOOR`` live constraints it stops: a
    big-int operation there costs about its interpreter step whatever the
    width, so a compaction, n * q squeezes and a fold, saves the rows after
    it less than it costs. The order of the constraints is kept, so every
    tally, tie and row is the same as at full width.
    """
    q = len(weights)
    start = {1: live}  # live: constraints no earlier row has met
    for sets in need:
        start = _fold(start, sets, weights, (1,) * q)[0]

    width = remaining = live.bit_count()
    classes, drops = _classes(need, start, weights), _drops(need)
    trace_rows: list[GreedyTraceRow] = []
    while live:
        consistent = live
        row = []
        for drop, column in zip(drops, classes):
            best, best_gain = 0, -1
            for c, pairs in enumerate(column):
                gain = 0
                for v, s in pairs:
                    gain += v * (consistent & s).bit_count()
                if gain > best_gain:
                    best, best_gain = c, gain
            row.append(best)
            consistent ^= consistent & drop[best]
        count = consistent.bit_count()
        if not count:
            raise AssertionError(f"row {row} meets none of the {remaining} constraints left")
        live ^= consistent
        remaining -= count
        trace_rows.append(GreedyTraceRow(tuple(row), count, remaining))
        if remaining >= _COMPACT_FLOOR and remaining * 3 <= width:
            # The old classes and drop sets are freed before the new ones are built.
            del classes, drops
            squeeze = _squeezer(live)
            need = [[squeeze(s) for s in sets] for sets in need]
            start = {v: squeeze(s) for v, s in start.items()}
            width = remaining
            live = (1 << width) - 1
            classes, drops = _classes(need, start, weights), _drops(need)
    rows = tuple(rec.row for rec in trace_rows)
    return SymbolMatrix(n=len(need), q=q, rows=rows), GreedyTrace(tuple(trace_rows))


def _constant_row_family(spec: CffSpec) -> tuple[SymbolMatrix, GreedyTrace]:
    """Closed form for r = 0 (all-zero row) and s = 0 (all-one row)."""
    bit = 0 if spec.r == 0 else 1
    row = (bit,) * spec.n
    m = SymbolMatrix(n=spec.n, q=spec.q, rows=(row,))
    trace = GreedyTrace((GreedyTraceRow(row, _num_constraints(spec), 0),))
    return _checked(m, verify_cff(m, spec.r, spec.s)), trace


def construct_cff_derandomized(spec: CffSpec) -> tuple[SymbolMatrix, GreedyTrace]:
    """Build an (n, (r, s))-cover-free family by conditional expectations.

    Rows are emitted one at a time by ``_greedy_cover``, undecided bits
    independent Bernoulli(p) for p = r/(r+s), the density that maximizes
    the per-constraint coverage probability c = p**r (1-p)**s (symbol
    weights (s, r)): within a row, bit j is fixed to the value that
    maximizes the conditional expected number of still-uncovered
    constraints the row will cover, ties broken toward 0. The comparison is
    exact: both candidate expectations are integer numerators over the
    common denominator d**d, so bit decisions are platform-independent.

    The row count satisfies floor(ln M / -ln(1-c)) + 1 with
    M = C(n,r) * C(n-r,s).
    """
    _check_work(spec, "construct")
    if spec.r == 0 or spec.s == 0:
        return _constant_row_family(spec)
    r, s = spec.r, spec.s
    m, trace = _greedy_cover(*_constraint_index(spec), (s, r))
    return _checked(m, verify_cff(m, r, s)), trace


def construct_cff_randomized(spec: CffSpec, seed: int, batch: int = 16) -> SymbolMatrix:
    """Las Vegas construction: append batches of Bernoulli(r/(r+s)) rows
    until every constraint is covered.

    Always returns a verified family; the output is a pure function of
    (spec, seed, batch). For r = 0 or s = 0 the constant-row closed form is
    returned directly. Each row clears the constraints it meets from a mask
    that starts as ``_constraint_index``'s, which leaves out its padding.
    """
    _check_work(spec, "construct", batch)
    if batch < 1:
        raise ParameterError(f"batch must be positive, got {batch}")
    if spec.r == 0 or spec.s == 0:
        return _constant_row_family(spec)[0]

    n, r, s = spec.n, spec.r, spec.s
    p = r / spec.d
    rng = random.Random(seed)
    need, pending = _constraint_index(spec)  # pending: the constraints no row has met
    # A row misses exactly the constraints requiring the other symbol at one
    # of its columns: the union of need[j][1 - bit] over them.

    rows: list[bytes] = []
    for _ in range(MAX_BATCHES):
        for _ in range(batch):
            bits = bytes(rng.random() < p for _ in range(n))
            rows.append(bits)
            missed = 0
            for sets, bit in zip(need, bits):
                missed |= sets[1 - bit]
            pending &= missed
        if not pending:
            m = SymbolMatrix(n=n, q=spec.q, rows=tuple(rows))
            return _checked(m, verify_cff(m, r, s))
    raise ConvergenceError(
        f"no ({spec.n}, ({spec.r}, {spec.s})) family after {MAX_BATCHES} batches of {batch}"
    )


def sperner_row_count(n: int) -> int:
    """Least N with C(N, floor(N/2)) >= n: the optimal (n, (1, 1)) size,
    searched from n.bit_length() up, as C(N, floor(N/2)) < 2**N for N >= 1."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    rows = n.bit_length()
    while comb(rows, rows // 2) < n:
        rows += 1
    return rows


def construct_cff_sperner(n: int) -> SymbolMatrix:
    """Optimal (n, (1, 1))-cover-free family from an antichain.

    Columns are the first n floor(N/2)-subsets of the row set in
    lexicographic order, with N minimal such that C(N, floor(N/2)) >= n.
    Distinct equal-size subsets are pairwise incomparable, which is exactly
    the (1, 1) cover-free property. Its work is its self-verify over n(n - 1)
    (R, S) pairs, first checked at the n.bit_length() rows it has at least.
    """
    _check_work(CffSpec(n, 1, 1), "verify", n.bit_length())
    rows = sperner_row_count(n)
    chosen = [set(subset) for subset in islice(combinations(range(rows), rows // 2), n)]
    m = SymbolMatrix(n=n, q=CffSpec.q, rows=[bytes(i in block for block in chosen) for i in range(rows)])
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
