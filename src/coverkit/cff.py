"""Constructors for (n, (r, s))-cover-free families at desk scale: by
conditional expectations (``construct_cff_derandomized``), its Las Vegas
version (``construct_cff_randomized``), and for (1, 1) an antichain of
half-size subsets (``construct_cff_sperner``).

The conditional-expectations engine, ``_greedy_cover``, is shared with
``construct_universal_greedy``: the density scheme of Bryce & Colbourn
(2009), with symbol weights (s, r) here and (1,) * q for universal sets.
Both number their constraints here (``_constraint_index``, on bitsets from
``core._column_index``) in their verifiers' order, blocks padded to bytes.
The engine tallies each symbol c > 0 of a column as its gain less 0's.

Every constructor verifies its own output before returning it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations, islice, pairwise, product
from math import comb
from typing import Callable, Iterator, Literal, Sequence, get_args

from .core import CffSpec, SymbolMatrix, UniversalSpec, _check_work, _column_index, _num_constraints
from .errors import ConvergenceError, ParameterError
from .verify import Verdict, verify_cff

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


def _kinds(n: int, h: int, ranked: bool) -> Iterator[tuple[int, int, bytes]]:
    """(lo, hi, kinds) for each column j < n: the h-subsets of range(n)
    hold j at a position from lo to hi if at all, and byte i of ``kinds``
    is j's kind in the i-th, in ``combinations`` order: k + 1 at position k,
    capped at a byte (the cover-free blocks read it only as nonzero, and a
    universal d stays far below 255), and 0 outside, or ranked, hi - lo + 2
    inside and i outside, where i of its elements from lo on are less than
    j. A kind is a sum over those positions, a ``translate`` a byte plane of
    their elements, from the top among those equal to j above; a subset
    holds j once, so no byte carries."""
    # planes[k][b]: byte b of the element at position k of each subset
    size, heads = max((n - 1).bit_length() + 7 >> 3, 1), comb(n, h)
    raws = [bytes(chain.from_iterable(combinations([v >> 8 * b & 255 for v in range(n)], h)))
            for b in range(size)]
    planes = [[raw[k::h] for raw in raws] for k in range(h)]
    # ramps[a][256 - y:512 - y]: bytes under y to ``ranked``, y to a, the rest to 0; ramps[-1]: y to 255
    ramps = [bytes([ranked]) * 256 + bytes([a]) + bytes(255) for a in range(min(h + 2, 256))]
    ramps.append(bytes(256) + b"\xff" + bytes(255))
    for j in range(n):
        lo, hi = max(0, j - n + h), min(j, h - 1)  # elements before lo are less than j, after hi more
        kinds = 0
        for k in range(lo, hi + 1):
            at, equal = hi + 2 - k if ranked else min(k + 1, 255), None
            for b in reversed(range(size)):
                x = 256 - (j >> 8 * b & 255)
                found = int.from_bytes(planes[k][b].translate(ramps[0 if b else at][x:x + 256]), "little")
                kinds += found if equal is None else found & equal
                if b:
                    found = int.from_bytes(planes[k][b].translate(ramps[-1][x:x + 256]), "little")
                    equal = found if equal is None else equal & found
        yield lo, hi, kinds.to_bytes(heads, "little")


def _constraint_index(spec: UniversalSpec | CffSpec) -> tuple[list[list[int]], int]:
    """(index, keep), where bit i of ``index[j][c]`` is set when the i-th
    of the constraints of ``spec`` its verifier scans, and of their byte
    padding, requires symbol c at column j; ``keep`` masks the constraints.

    The constraints come in blocks, each padded to whole bytes: the
    C(n - r, s) pairs of one R, or the q**d patterns of one d-subset S. A
    column is of one kind in a block (``_kinds``), and its set its kinds'
    palette entries, w bytes each, in one ``int.from_bytes``, built a
    column at a time: besides the index, only one column's kinds and bytes
    are alive. The entries are joined, a step per head, or, for narrow
    entries and many heads (``_translates``), byte o of all of them is one
    ``kinds.translate`` of the entries' bytes o, written to ``out[o::w]``.
    """
    n, q = spec.n, spec.q
    by_pattern = isinstance(spec, UniversalSpec)
    if by_pattern:
        h = spec.d
        # kind 0: not in S; kind k + 1: at S[k], symbol k of each pattern
        blocks = [bytes(p[k] for p in product(range(q), repeat=h)) for k in range(h)]
        blocks.insert(0, bytes([q]) * len(blocks[0]))
    else:
        h, s, rest = spec.r, spec.s, n - spec.r
        # kind t < n - r: the t-th column outside R, 0 where it is in S; kind n - r: in R
        blocks = [kinds.translate(bytes([q]) + bytes(255)) for _, _, kinds in _kinds(rest, s, False)]
        blocks.append(b"\1" * comb(rest, s))
    kind_sets, block = _column_index(q, blocks)
    width = -(-block // 8)
    # palettes[c][kind]: the kind's set for symbol c over one block, in whole bytes
    palettes = [[sets[c].to_bytes(width, "little") for sets in kind_sets] for c in range(q)]
    heads, index = comb(n, h), []
    for j, (lo, hi, kinds) in enumerate(_kinds(n, h, not by_pattern)):
        # ranked kind i is the rank j - lo - i outside R, and hi - lo + 2 in R
        column = palettes if by_pattern else [
            [palette[t] if 0 <= t < rest else bytes(width) for t in range(j - lo, j - hi - 2, -1)]
            + palette[-1:] for palette in palettes]
        if _translates(width, heads):
            sets = []
            for palette in column:
                flat, out = b"".join(palette), bytearray(heads * width)
                for o in range(width):
                    out[o::width] = kinds.translate(flat[o::width].ljust(256, b"\0"))
                sets.append(int.from_bytes(out, "little"))
        else:
            sets = [int.from_bytes(b"".join(map(palette.__getitem__, kinds)), "little") for palette in column]
        index.append(sets)
    return index, int.from_bytes(((1 << block) - 1).to_bytes(width, "little") * heads, "little")


def _translates(width: int, heads: int) -> bool:
    """Whether ``_constraint_index`` translates a column's ``heads`` kinds
    per byte of its ``width``-byte palette entries rather than join them;
    on single sets the join won at 29 bytes and under 16 heads a byte."""
    return width <= 8 and heads > 32 * width


def _fold(
    groups: dict[int, int], sets: list[int], num: Sequence[int], den: Sequence[int]
) -> tuple[dict[int, int], list[dict[int, int]]]:
    """(moved, classes) for one column ``sets`` of the engine's index, where
    ``groups`` maps each numerator v to the set of constraints holding it.

    The members of ``sets[c]`` holding v move to v // den[c] * num[c], and
    the constraints with no requirement at the column keep v. ``classes[c]``
    maps each u = v // den[c] to the members of ``sets[c]`` holding u * den[c].
    """
    moved: dict[int, int] = {}
    classes: list[dict[int, int]] = [{} for _ in sets]
    for v, held in groups.items():
        for c, s in enumerate(sets):
            part = held & s
            if part:
                held ^= part
                u = v // den[c]
                classes[c][u] = part
                to = u * num[c]
                moved[to] = moved.get(to, 0) | part
        if held:
            moved[v] = moved.get(v, 0) | held
    return moved, classes


def _classes(
    need: list[list[int]], start: dict[int, int], weights: Sequence[int]
) -> list[list[tuple[int, list[tuple[int, int]]]]]:
    """The signed terms of each column j of ``need``, carrying ``start``
    through the columns: a member of ``need[j][c]`` with numerator v gains
    v // weights[c] at j and then holds v // weights[c] * W. With S[c][u]
    ``_fold``'s members of ``need[j][c]`` gaining u, ``classes[j][c - 1]``
    is (const, pairs) for each c > 0: a pair (u, S[0][u] | S[c][u]) for
    each u either symbol holds, and const the sum of u * popcount(S[0][u]).
    """
    spread = (sum(weights),) * len(weights)
    classes = []
    for sets in need:
        start, (zero, *others) = _fold(start, sets, spread, weights)
        const = sum(u * s.bit_count() for u, s in zero.items())
        classes.append([(const, [(u, zero.get(u, 0) | other.get(u, 0)) for u in zero.keys() | other.keys()])
                        for other in others])
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
    keeps one mask, ``consistent``, which starts as the live set, and
    tallies column j from one XOR, y = consistent ^ need[j][0]: as the S
    are disjoint, popcount(y & U) counts the members of S[c][u] in
    ``consistent`` and of S[0][u] outside it, so c's pairs sum, less
    const, to c's gain less 0's. The S hold only constraints live when the
    classes were built: padding and constraints met before, though in
    need[j][0] and y, meet no U, and the members of S[0][u] met or dropped
    since are in const too. So c > 0 wins only with the largest positive
    difference, the smallest on a tie: the rule above. Fixing column j to
    c drops the members of the other ``need[j]`` sets, their union
    ``drops[j][c]`` (``_drops``), in one AND and XOR.
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
        for sets, drop, column in zip(need, drops, classes):
            y, best, best_gain = consistent ^ sets[0], 0, 0
            for c, (const, pairs) in enumerate(column, 1):
                gain = -const
                for u, s in pairs:
                    gain += u * (y & s).bit_count()
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
    (R, S) pairs.
    """
    rows = sperner_row_count(n)
    _check_work(CffSpec(n, 1, 1), "verify", rows)
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
