"""Exact minimal-size search for tiny instances.

Iterative deepening on the row count N: for each N from the coverage lower
bound upward, a backtracking search looks for a row multiset of size N
meeting every constraint. Rows are explored in nondecreasing lexicographic
order, which kills permutation symmetry without losing completeness.

Sound prunes on top of the basic scheme (none can change an answer):

* optimistic coverage: skip a candidate when what it leaves uncovered
  exceeds the rows left after it times the best single-row coverage among
  it and the candidates after it;
* conflict blocks: no row meets two constraints on one column set that
  require different symbols there, so skip a candidate leaving t <= 2 rows
  when such a block keeps more than t uncovered (Colbourn's covering-array
  bound N >= v**t, 2004, on what is left), by one SWAR count. Tested at
  larger t it cut no more nodes in the pinned searches, only time. It
  does not replace the coverage test: without that (8,(1,2)) takes 3.7x
  the nodes;
* reachability: give up when some uncovered constraint is covered by no
  remaining candidate;
* the next row must leave the first uncovered constraint coverable, so its
  index cannot exceed the largest candidate covering that constraint;
* rows covering nothing new are skipped (a solution containing one would
  shrink to a solution at the previous depth, already proven infeasible);
* the final row is drawn from the covers of the first uncovered constraint
  only, and holds every symbol the uncovered constraints require: there is
  none when they require two symbols at one column, and only one when they
  require a symbol at every column.

Two symmetry breaks, each of which keeps some minimum solution in reach:

* double-lex columns: read down the rows chosen so far, each column is
  lexicographically at most the next. Permuting columns maps solutions to
  solutions, and every matrix has a row and column permutation ordered
  both ways (Flener et al., "Breaking row and column symmetries in matrix
  models", CP 2002), so some minimum solution has rows and columns in
  order. A candidate may not decrease a column pair still tied above it;
* universal sets start with the all-zero row: relabelling the symbols of
  one column keeps a universal set universal, so some minimum solution
  holds the all-zero row, and as the smallest row under every column
  permutation it is still first once rows and columns are ordered.

The prunes above hold for every minimum solution, so for these ones too.

A search is charged nodes, which ``node_limit`` caps and
``SearchOutcome.nodes`` reports, so the limit bounds its time: q**n up
front for its cover masks, whether or not it builds them, so no count
depends on when they are built; one for each search node; q**n when a
final row first reads a constraint's covers; and each scan's whole range,
tested against the limit before the scan starts: a non-final row's
candidates from ``last`` to its bound, a final row's covers from ``last``
on, whether or not it scans them. A search never returns a wrong answer;
see ``SearchOutcome``.

Every table, mask and set of uncovered constraints a search keeps numbers
the constraints one way, ``_layout``'s. The coverage bound is a closed form
(``_cover_bound``), so the cover masks are built only where something
reads them: the suffix tables that only non-final rows read, built before
the first level with one, or a final row that must scan its candidates.
A search that ends at final rows decided without a scan builds neither.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations, compress, pairwise, product
from math import comb
from typing import Callable, Literal

from .core import _ONE_AT, CffSpec, SymbolMatrix, UniversalSpec, _check_work, _digits, _num_constraints
from .errors import ParameterError, ResourceLimitError


@dataclass(frozen=True)
class SearchBudget:
    """Search ceiling (max_rows) and backtracking-node cap (node_limit).

    The default cap bounds a search at about 6 s, at the 70-120 ns a node
    of the slowest refusals timed (CPython 3.11, 2 vCPUs)."""

    max_rows: int = 32
    node_limit: int = 50_000_000

    def __post_init__(self) -> None:
        if self.max_rows < 1 or self.node_limit < 1:
            raise ParameterError("budget fields must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a minimal-size search.

    status "found": ``size`` is the exact minimum and ``certificate`` is a
    matrix of that size passing the verifier. status "infeasible": the
    search completed and proved the minimum exceeds the budget's max_rows.
    status "budget_exceeded": the node limit was hit first (then nodes is
    node_limit + 1), or the search's work was estimated past the work
    budget (then nodes is 0); nothing is claimed. The module docstring says
    what nodes counts.
    """

    status: Literal["found", "infeasible", "budget_exceeded"]
    size: int | None = None
    certificate: SymbolMatrix | None = None
    nodes: int = 0

    @property
    def found(self) -> bool:
        return self.status == "found"


class _OutOfNodes(Exception):
    pass


def _cover_bound(spec: UniversalSpec | CffSpec) -> int:
    """The most constraints of ``spec`` one row meets, which sets the
    coverage bound: C(n, d) for a universal set, whose rows meet one pattern
    per d-subset, and for a cover-free family the most over w of
    C(w, r) C(n - w, s), the (R, S) pairs a row with w ones meets."""
    n = spec.n
    if isinstance(spec, UniversalSpec):
        return comb(n, spec.d)
    return max(comb(w, spec.r) * comb(n - w, spec.s) for w in range(n + 1))


def _scan_tables(index: list[list[int]], full: int) -> list[int]:
    """The cover masks of the q**n candidate rows, in ``product`` order, for
    the constraints ``full`` holds of ``index``: bit c of cover[i] is set
    when candidate i meets constraint c.

    No step is taken per candidate in Python but for one comprehension: a
    cover mask is the AND of a mask of the first n // 2 columns and one of
    the rest, so it pairs two lists of about q**(n/2) masks.
    """
    n = len(index)

    def masks(columns: list[list[int]]) -> list[int]:
        out = [full]
        for sets in columns:
            rest = full & ~sum(sets)
            allowed = [rest | held for held in sets]
            out = [mask & extra for mask in out for extra in allowed]
        return out

    tails = masks(index[n // 2:])
    return [head & tail for head in masks(index[: n // 2]) for tail in tails]


def _last_covers(index: list[list[int]], size: int) -> list[int]:
    """last[c] for c < size, the last candidate meeting constraint c of
    ``index``: it holds the symbol c requires at each column c constrains
    and q - 1 at every other, so it is q**n - 1 at padding."""
    n, q = len(index), len(index[0])
    last = [q**n - 1] * size
    for j, sets in enumerate(index):
        for c, held in enumerate(sets[:-1]):
            drop = (q - 1 - c) * q ** (n - 1 - j)
            # The bits of held, lowest first, as bytes that are 0 where clear.
            for k in compress(range(size), format(held, "b")[::-1].encode().replace(b"0", b"\0")):
                last[k] -= drop
    return last


def _suffix_tables(cover: list[int], last: list[int]) -> tuple[list[int], list[int]]:
    """(suffix_or, suffix_max) for ``_scan_tables``' masks and the last
    covers of their constraints: the union and the largest bit count of
    cover[i:], both 0 at i = q**n."""
    count = len(cover)

    def filled(runs: list[tuple[int, int]]) -> list[int]:
        """The table holding each value up to its run's last index."""
        table, start = [], 0
        for i, value in runs:
            table += [value] * (i + 1 - start)
            start = i + 1
        return table + [0] * (count + 1 - start)

    # Walking back from the end, suffix_or grows at each last cover, and
    # suffix_max where a bit count first seen beats every count seen before.
    runs, live = [], 0
    for i in sorted(set(last), reverse=True):
        live |= cover[i]
        runs.append((i, live))
    suffix_or = filled(runs[::-1])
    runs, k = [], 0
    back = list(map(int.bit_count, reversed(cover)))
    for bits in dict.fromkeys(back):
        if not runs or bits > runs[-1][1]:
            k = back.index(bits, k)
            runs.append((count - 1 - k, bits))
    return suffix_or, filled(runs[::-1])


def _layout(spec: UniversalSpec | CffSpec) -> tuple[int, list[list[int]], int]:
    """(F, index, full): bit i of ``index[j][c]`` is set when constraint i
    of ``spec`` requires symbol c at column j, and ``full`` masks the real
    constraints.

    A constraint is a d-subset of columns and a pattern on it. Each
    d-subset, in ``combinations`` order, takes a field of F bits, the power
    of two at or above its g patterns, which fill its low g bits. A field
    is a conflict block, so its count is a SWAR sum (``_crowding``). The
    patterns are the q**d in ``product`` order, or the C(d, r) that are 1
    on R for R in ``combinations`` order. That is Lemma 1 read per
    constraint: a binary matrix is (n, d)-universal just when it is
    (n, (i, d - i))-cover-free for every i, so the (R, S) pairs of an
    (r, s) family are the weight-r patterns of the d-subsets R | S."""
    n, q, d = spec.n, spec.q, spec.d
    patterns = (list(product(range(q), repeat=d)) if isinstance(spec, UniversalSpec) else
                [tuple(int(k in R) for k in range(d)) for R in combinations(range(d), spec.r)])
    field = 1 << (len(patterns) - 1).bit_length()
    # masks[k][c]: the patterns of a field holding c at position k, read
    # from their symbols there as binary digits, pattern 0 last
    masks = [[int(symbols[::-1].translate(_ONE_AT[c]), 2) for c in range(q)]
             for symbols in map(bytes, zip(*patterns))]
    # feet[j][k]: a 1 at the foot of the field of each d-subset holding j at
    # k; foot: the next d-subset's, and at the end one past the last
    feet, foot = [[0] * d for _ in range(n)], 1
    for subset in combinations(range(n), d):
        for k, j in enumerate(subset):
            feet[j][k] |= foot
        foot <<= field
    index = [[sum(mask[c] * ones for mask, ones in zip(masks, column)) for c in range(q)] for column in feet]
    return field, index, ((1 << len(patterns)) - 1) * ((foot - 1) // ((1 << field) - 1))


def _crowding(field: int, width: int, most: int) -> tuple[int, list[tuple[int, int]], list[int], int]:
    """(m1, folds, adds, high) for the SWAR count of Warren, *Hacker's
    Delight* 5-1, over F-bit fields of x < 2**width: x -= x >> 1 & m1, then
    x = (x & mask) + (x >> w & mask) per fold. A count is at most F <=
    2**(F - 1), so x + adds[t - 1] & high is nonzero just when one exceeds
    t, for 0 < t < most <= F. Each constant is a value times the word with
    a 1 at the foot of every field, one division of all ones."""
    def repeat(value: int, bits: int) -> int:
        return value * (((1 << (width // bits + 1) * bits) - 1) // ((1 << bits) - 1))

    top = 1 << field - 1
    folds = [(w, repeat((1 << w) - 1, 2 * w)) for w in (2**k for k in range(1, field.bit_length() - 1))]
    return repeat(1, 2), folds, [repeat(top - 1 - t, field) for t in range(1, most)], repeat(top, field)


# The most entries the whole and half tie lists and the q > 2 column-pair
# memo of one search hold between them. A list entry takes about 40 bytes
# and a memo entry about 200, but the memo holds only rows the search takes,
# a few hundred at most in the searches measured. A whole list holds at most
# the q**n <= 2**20 candidates the work budget admits, so one always fits.
_TIE_CAP = 2**20


def _tie_list(n: int, q: int, tied: int) -> list[int]:
    """The candidates, in ``product`` order, that decrease no column pair
    (j, j+1) whose bit n-2-j is set in ``tied``. One byte per candidate,
    1 where it fits, is joined a column at a time from the last: block[a]
    holds the bytes of the columns after the current one when it holds a,
    zero where a tied pair decreases."""
    block = [b"\1"] * q
    for j in reversed(range(n - 1)):
        if tied >> n - 2 - j & 1:
            zero = bytes(len(block[0]))
            block = [zero * a + b"".join(block[a:]) for a in range(q)]
        else:
            block = [b"".join(block)] * q
    return list(compress(range(q**n), b"".join(block)))


def _joined_tie_list(n: int, q: int, tied: int, half: Callable[[int, int], list[int]]) -> list[int]:
    """``_tie_list(n, q, tied)``, from half(width, mask), the tie list of
    ``width`` columns for a mask of their pairs. Each candidate is a head,
    fitting the pairs among the first h = n // 2 columns, times q**(n - h),
    plus a tail fitting those among the rest. When the pair across the
    middle is tied, a head whose last digit is c takes only the tails whose
    first digit is at least c, a suffix of their list."""
    h = n // 2
    middle, step = n - h - 1, q ** (n - h)  # the pair across the middle: bit n - h - 1
    heads, tails = half(h, tied >> middle + 1), half(n - h, tied & (1 << middle) - 1)
    if not tied >> middle & 1:
        return [head + tail for head in [a * step for a in heads] for tail in tails]
    ends = [tails[bisect_left(tails, c * step // q):] for c in range(q)]
    return [head + tail for a in heads for head, after in ((a * step, ends[a % q]),) for tail in after]


def _search_minimal(spec: UniversalSpec | CffSpec, budget: SearchBudget) -> SearchOutcome:
    """Search the q**n candidate rows, in ``product`` order, for the fewest
    meeting every constraint of ``spec``.

    A spec whose coverage bound passes ``max_rows`` is infeasible before
    its layout is built. A non-final row scans the slice from ``last`` to
    its bound of the candidates fitting its ``tied`` mask, charged in full
    first: ``_joined_tie_list`` builds that list from two half lists, each
    built once per half mask, so it costs what it holds, not q**n. The
    tables it reads are built before the first deepening level with more
    than one row to choose.

    A final row whose uncovered constraints require two symbols at one
    column, or one at every column, is decided without a scan, by two passes
    over the columns' sets, and reads no cover mask: the forced row meets
    every uncovered constraint. Any other final row scans, and builds the
    cover masks if none are built. The first final row to read a
    constraint's covers counts them in one byte a candidate; they are
    listed for a scan or a second read.
    """
    n, q, limit = spec.n, spec.q, budget.node_limit
    try:
        _check_work(spec, "search")
    except ResourceLimitError:
        return SearchOutcome("budget_exceeded", nodes=0)
    count = nodes = q**n
    if nodes > limit:
        return SearchOutcome("budget_exceeded", nodes=limit + 1)
    lower = -(-_num_constraints(spec) // _cover_bound(spec))  # the coverage bound
    if lower > budget.max_rows:
        return SearchOutcome("infeasible", nodes=nodes)
    field, index, full = _layout(spec)
    # (a symbol's set, the sets of the symbols after it) for each column, and
    # (a symbol's set, what the symbol adds to a candidate's index).
    clashes = [(held, sum(sets[c + 1:])) for sets in index for c, held in enumerate(sets[:-1])]
    symbols = [(held, c * q ** (n - 1 - j)) for j, sets in enumerate(index) for c, held in enumerate(sets)]
    # The cover masks, empty until ``_scan_tables`` builds them. Until the
    # deepening loop builds the last covers and the suffix tables, dfs runs
    # only at last = 0, where the reachability test reads suffix_or[0] = full.
    cover: list[int] = []
    suffix_or, suffix_max = [full], []
    m1, folds, adds, high = 0, [], [], 0  # _crowding's constants

    # covers_of[c]: the candidates covering constraint c, built when a final
    # row first needs them, as one byte per candidate, 1 at a cover, that a
    # forced or clashing row counts; listed in order for a scan or a second
    # read, so no constraint's bytes are counted more than once.
    covers_of: dict[int, bytes | list[int]] = {}
    # fits[tied] is ``_tie_list(n, q, tied)`` and fits[width, mask] a half
    # list; memo[i] is q > 2 candidate i's column pairs (decreasing, equal).
    fits: dict[int | tuple[int, int], list[int]] = {}
    memo: dict[int, tuple[int, int]] = {}
    cached = 0

    def room(size: int) -> None:
        nonlocal cached
        if cached + size > _TIE_CAP:
            fits.clear()
            memo.clear()
            cached = 0
        cached += size

    def half(width: int, tied: int) -> list[int]:
        key = width, tied
        if key not in fits:
            listed = _tie_list(width, q, tied)
            room(len(listed))
            fits[key] = listed
        return fits[key]

    def pairs(i: int) -> tuple[int, int]:
        """Candidate i's column-pair masks, read from its base-q digits; for
        q = 2 they are (i >> 1) & ~i and ~(i ^ (i >> 1))."""
        if i not in memo:
            room(1)
            dec = eq = 0
            for a, b in pairwise(_digits(i, q, n)):
                dec, eq = dec << 1 | (a > b), eq << 1 | (a == b)
            memo[i] = dec, eq
        return memo[i]

    chosen: list[int] = []

    def dfs(last: int, uncovered: int, rows_left: int, tied: int) -> bool:
        """Whether rows_left more rows from ``last`` on, none decreasing a
        ``tied`` column pair, cover ``uncovered``."""
        # ``uncovered`` is never empty: a row leaving nothing uncovered with
        # rows to spare would end a shorter solution on this path, which the
        # previous deepening level, with the same order, ties and sound
        # prunes, would have found.
        nonlocal nodes, cover
        nodes += 1
        if nodes > limit:
            raise _OutOfNodes
        if uncovered & ~suffix_or[last]:
            return False
        first = (uncovered & -uncovered).bit_length() - 1
        if rows_left == 1:
            covers = covers_of.get(first)
            if covers is None:
                # 1 where a candidate holds every symbol the constraint
                # requires, joined a column at a time from the last.
                bit, block = 1 << first, b"\1"
                for sets in reversed(index):
                    if sum(sets) & bit:
                        zero = bytes(len(block))
                        block = b"".join(block if held & bit else zero for held in sets)
                    else:
                        block *= q
                covers = covers_of[first] = block
                nodes += count + block.count(b"\1", last)
            else:
                if type(covers) is bytes:
                    covers = covers_of[first] = list(compress(range(count), covers))
                nodes += len(covers) - bisect_left(covers, last)
            if nodes > limit:
                raise _OutOfNodes
            for held, later in clashes:
                if uncovered & held and uncovered & later:
                    return False
            forced = [value for held, value in symbols if uncovered & held]
            if len(forced) == n:
                # The one row left: it holds every uncovered constraint's symbols.
                i = sum(forced)
                if i < last or tied & ((i >> 1) & ~i if q == 2 else pairs(i)[0]):
                    return False
            else:
                if type(covers) is bytes:
                    covers = covers_of[first] = list(compress(range(count), covers))
                cover = cover or _scan_tables(index, full)
                for i in covers[bisect_left(covers, last):]:
                    if uncovered & ~cover[i] == 0 and not tied & ((i >> 1) & ~i if q == 2 else pairs(i)[0]):
                        break
                else:
                    return False
            chosen.append(i)
            return True
        hi, need = max_row_for[first], uncovered.bit_count()
        nodes += hi + 1 - last
        if nodes > limit:
            raise _OutOfNodes
        add = adds[rows_left - 2] if rows_left - 2 < len(adds) else None
        fit = fits.get(tied)
        if fit is None:
            fit = _joined_tie_list(n, q, tied, half)
            room(len(fit))
            fits[tied] = fit
        for i in fit[bisect_left(fit, last):bisect_right(fit, hi)]:
            newly = cover[i] & uncovered
            if not newly:
                continue
            if need - newly.bit_count() > (rows_left - 1) * suffix_max[i]:
                continue
            left = uncovered ^ newly
            if add is not None:
                x = left - (left >> 1 & m1)
                for w, mask in folds:
                    x = (x & mask) + (x >> w & mask)
                if x + add & high:
                    continue
            chosen.append(i)
            if dfs(i, left, rows_left - 1, tied & (~(i ^ (i >> 1)) if q == 2 else pairs(i)[1])):
                return True
            chosen.pop()
        return False

    # Universal sets start from the all-zero row, candidate 0, which misses
    # the constraints requiring a nonzero symbol somewhere.
    start = [0] if isinstance(spec, UniversalSpec) else []
    uncovered = full
    if start:
        uncovered = 0
        for sets in index:
            uncovered |= sum(sets[1:])
    try:
        for size in range(lower, budget.max_rows + 1):
            if size - len(start) > 1 and not suffix_max:
                cover = cover or _scan_tables(index, full)
                max_row_for = _last_covers(index, full.bit_length())
                suffix_or, suffix_max = _suffix_tables(cover, max_row_for)
                m1, folds, adds, high = _crowding(field, full.bit_length(), min(field, 3))
            chosen[:] = start
            if dfs(0, uncovered, size - len(start), (1 << (n - 1)) - 1):
                certificate = SymbolMatrix(n=n, q=q, rows=[_digits(i, q, n) for i in chosen])
                return SearchOutcome("found", size=size, certificate=certificate, nodes=nodes)
    except _OutOfNodes:
        return SearchOutcome("budget_exceeded", nodes=limit + 1)
    finally:
        del dfs  # a self-referencing closure: free its masks now, not at the next gc
    return SearchOutcome("infeasible", nodes=nodes)


def minimal_universal_size(
    spec: UniversalSpec, budget: SearchBudget = SearchBudget()
) -> SearchOutcome:
    """Exact smallest size of an (n, d)-universal set over q symbols.

    Deepening starts at q**d, the coverage lower bound (a row realizes one
    pattern per column subset).
    """
    if not isinstance(spec, UniversalSpec):
        raise ParameterError(f"expected a UniversalSpec, got {type(spec).__name__}")
    return _search_minimal(spec, budget)


def minimal_cff_size(spec: CffSpec, budget: SearchBudget = SearchBudget()) -> SearchOutcome:
    """Exact smallest size of an (n, (r, s))-cover-free family."""
    if not isinstance(spec, CffSpec):
        raise ParameterError(f"expected a CffSpec, got {type(spec).__name__}")
    return _search_minimal(spec, budget)
