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
(2009). A constraint requires a symbol at each of some columns, so (R, S)
reads "1 on R, 0 on S", and undecided symbols are drawn with probabilities
proportional to integer weights: (s, r) here, (1,) * q for universal sets.
The engine is bit-sliced: Python ints serve as bitsets over the constraints,
one per (column, symbol) for the constraints requiring that symbol there,
from ``verify._constraint_index``, and one per distinct coverage numerator
for the constraints holding it. Deciding a column costs one AND and popcount
per (numerator, symbol) pair and a few ANDs per numerator to move the chosen
symbol's constraints to their new numerator. The count of operations does
not grow with the number of constraints; each is one pass in C over a
bitset's words, and the width of the bitsets follows the count of
constraints still unmet: once it falls to half the width, the met ones are
squeezed out of every bitset.

Every constructor verifies its own output before returning it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, islice, pairwise
from math import comb
from typing import Callable, Literal, Sequence, get_args

from .core import CffSpec, SymbolMatrix, _check_work, _num_constraints
from .errors import ConvergenceError, ParameterError
from .verify import Verdict, _constraint_index, verify_cff

# Las Vegas batch cap; hitting it means the spec is far beyond desk scale.
MAX_BATCHES = 10_000

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


def _squeezer(keep: int) -> Callable[[int], int]:
    """The map taking a bitset x to the bits of x at the set positions of
    ``keep``, packed from bit 0 up in the same order.

    This is the log-step compress of Warren, *Hacker's Delight*, section 7-4,
    whose names it keeps. Each kept bit moves right by the count of unkept
    positions below it, 2**k of the way at stage k when bit k of that count
    is set, so ceil(log2 W) stages suffice for W = keep.bit_length(). The
    stage masks ``mv`` are built once, from ``keep``; the map then costs an
    AND, XOR, OR and shift per stage, each one pass in C over x's words.
    """
    width = keep.bit_length()
    mk = ~keep << 1 & (1 << width) - 1  # bit i: position i - 1 is unkept
    m, stages, shift = keep, [], 1
    while shift < width:
        # mp: bit i is the parity of mk's bits 0 to i
        mp, step = mk ^ mk << 1, 2
        while step < width:
            mp ^= mp << step
            step *= 2
        mv = mp & m  # the kept bits that move at this stage
        if mv:
            stages.append((shift, mv))
        m = m ^ mv | mv >> shift
        mk &= ~mp
        shift *= 2

    def squeeze(x: int) -> int:
        x &= keep
        for shift, mv in stages:
            t = x & mv
            x = x ^ t | t >> shift
        return x

    return squeeze


def _greedy_cover(
    need: list[list[int]], size: int, weights: Sequence[int]
) -> tuple[SymbolMatrix, GreedyTrace]:
    """Emit rows by conditional expectations until all ``size`` constraints
    are met, where bit i of ``need[j][c]`` is set when constraint i requires
    symbol c at column j.

    Undecided symbols are independent, c with probability weights[c] / W for
    W = sum(weights). Each constraint has an exact numerator, over W**k for
    k requirements, of the chance the current row meets it: 0 once an
    earlier row met it or a decided symbol conflicts. Column j takes the
    symbol c with the largest gain tally // weights[c] (tally sums the
    numerators requiring c at j), ties to the smallest; the division is
    exact, since each of those numerators still has the factor weights[c].

    The state is bit-sliced: each set of constraints is a Python int with
    bit i for constraint i, as ``need[j][c]`` is; ``live`` is the set no
    earlier row has met, and ``groups`` maps each nonzero numerator to the
    set of constraints holding it. The groups a row starts from are folded
    once from ``need``, moving the members of ``need[j][c]`` from v to
    v * weights[c] for each column in turn. Column j tallies each symbol by
    AND and popcount against every group; fixing it to c moves the members
    of ``need[j][c]`` from numerator v to v // weights[c] * W, drops the
    members requiring another symbol and leaves the rest. Once every column
    is decided, the union of the groups is what the row met. Equal weights
    keep at most k + 1 numerators, so a column costs a few dozen big-int
    operations, not a Python step per constraint.

    Each of those operations costs in proportion to the sets' width, and
    the width follows the live count: once no more than half the width is
    live, ``_squeezer`` drops the met constraints from ``need``, the start
    sets and ``untouched``, so bit i is then the i-th live constraint. The
    order of the constraints is kept, so every tally, tie and row is the
    same as at full width.
    """
    q, total = len(weights), sum(weights)
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

    width = remaining = size
    live = (1 << width) - 1  # constraints no earlier row has met
    trace_rows: list[GreedyTraceRow] = []
    while live:
        groups = {v: members & live for v, members in start_sets.items()}
        row = []
        for sets, rest in zip(need, untouched):
            best, best_gain = 0, -1
            for c, members in enumerate(sets):
                tally = sum(v * (s & members).bit_count() for v, s in groups.items())
                gain = tally // weights[c]
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
        trace_rows.append(GreedyTraceRow(tuple(row), count, remaining))
        if remaining and remaining * 2 <= width:
            # Drop the met constraints from every set, keeping their order.
            squeeze = _squeezer(live)
            need = [[squeeze(s) for s in sets] for sets in need]
            untouched = [~sum(sets) for sets in need]
            start_sets = {v: squeeze(s) for v, s in start_sets.items()}
            width = remaining
            live = (1 << width) - 1
    rows = tuple(rec.row for rec in trace_rows)
    return SymbolMatrix(n=len(need), q=q, rows=rows), GreedyTrace(tuple(trace_rows))


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
    returned directly.
    """
    _check_work(spec, "construct", batch)
    if batch < 1:
        raise ParameterError(f"batch must be positive, got {batch}")
    if spec.r == 0 or spec.s == 0:
        return _constant_row_family(spec)[0]

    n, r, s = spec.n, spec.r, spec.s
    p = r / spec.d
    rng = random.Random(seed)
    need, size = _constraint_index(spec)
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
