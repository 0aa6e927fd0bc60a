"""Exact minimal-size search for tiny instances.

Iterative deepening on the row count N: for each N from the coverage lower
bound upward, a backtracking search looks for a row multiset of size N
meeting every constraint. Rows are explored in nondecreasing lexicographic
order, which kills permutation symmetry without losing completeness.

Sound prunes on top of the basic scheme (none can change an answer):

* optimistic coverage: skip a candidate when what it leaves uncovered
  exceeds the rows left after it times the best single-row coverage among
  it and the candidates after it;
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

Each candidate scanned costs a node, as does each search node, each of the
q**n cover masks and each later scan of them: ``SearchOutcome.nodes`` counts
nodes plus scanned candidates, so ``node_limit`` bounds the search's time.

The tables these prunes read come from ``_scan_tables``, which takes a
Python step per constraint or per run of equal entries, and one
comprehension over the candidates. The lists a scan walks are built in C:
a final row's covers, and for the other rows the candidates that decrease
no tied column pair (``_tie_list``), so a candidate skipped for a tie is
counted from its index but never visited. A final row read from the
symbols it must hold is charged what its scan would have cost. None of
these changes a count.

A search either returns the exact minimum with a certificate, proves the
minimum exceeds ``max_rows``, or aborts cleanly when the node budget runs
out or the work budget refuses its masks. It never returns a wrong answer.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Literal

from .core import CffSpec, SymbolMatrix, UniversalSpec, _check_work
from .errors import ParameterError, ResourceLimitError
from .verify import _constraint_index


@dataclass(frozen=True)
class SearchBudget:
    """Search ceiling (max_rows) and backtracking-node cap (node_limit)."""

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
    node_limit + 1), or the q**n cover masks were estimated past the work
    budget (then nodes is 0); nothing is claimed. nodes counts search nodes
    plus scanned candidates.
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


def _scan_tables(
    spec: UniversalSpec | CffSpec,
) -> tuple[list[list[int]], list[int], list[int], list[int], list[int]]:
    """(index, cover, suffix_or, suffix_max, last) over the q**n candidate
    rows of ``spec``, in ``product`` order: index is ``_constraint_index``'s,
    which the search reads again for final rows; bit c of cover[i] is set
    when candidate i meets the c-th constraint the verifier scans,
    suffix_or[i] and suffix_max[i] are the union and the largest bit count
    of cover[i:] (both 0 at i = q**n), and last[c] is the last candidate
    meeting constraint c.

    No step is taken per candidate in Python but for one comprehension. A
    cover mask is the AND of a mask of the first n // 2 columns and one of
    the rest, so the comprehension pairs two lists of about q**(n/2) masks.
    last[c] holds the symbol c requires at each column it constrains and
    q - 1 at every other, so it costs a step per requirement. suffix_or
    changes only at a last cover, and suffix_max only where a candidate's
    bit count beats every later one (found by ``dict.fromkeys`` and
    ``list.index`` on the counts, taken from the end), so both are filled
    a run at a time, with one int shared per run.
    """
    n, q = spec.n, spec.q
    index, size = _constraint_index(spec)
    full = (1 << size) - 1

    def masks(columns: list[list[int]]) -> list[int]:
        out = [full]
        for sets in columns:
            rest = full & ~sum(sets)
            allowed = [rest | held for held in sets]
            out = [mask & extra for mask in out for extra in allowed]
        return out

    tails = masks(index[n // 2:])
    cover = [head & tail for head in masks(index[: n // 2]) for tail in tails]
    count = len(cover)

    last = [count - 1] * size
    for j, sets in enumerate(index):
        for c, held in enumerate(sets[:-1]):
            drop = (q - 1 - c) * q ** (n - 1 - j)
            # The bits of held, lowest first, as bytes that are 0 where clear.
            for k in compress(range(size), format(held, "b")[::-1].encode().replace(b"0", b"\0")):
                last[k] -= drop

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
    back = list(map(int.bit_count, reversed(cover)))
    runs, k = [], 0
    for bits in dict.fromkeys(back):
        if not runs or bits > runs[-1][1]:
            k = back.index(bits, k)
            runs.append((count - 1 - k, bits))
    suffix_max = filled(runs[::-1])
    return index, cover, suffix_or, suffix_max, last


# The most candidates the tie lists and the q > 2 column-pair memo of one
# search hold between them. A list entry takes about 40 bytes and a memo
# entry about 200, but the memo holds only rows the search takes, a few
# hundred at most in the searches measured. A tie list holds at most the
# q**n <= 2**20 candidates the work budget admits, so one always fits.
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


def _search_minimal(spec: UniversalSpec | CffSpec, budget: SearchBudget) -> SearchOutcome:
    """Search the q**n candidate rows, in ``product`` order, for the fewest
    meeting every constraint of ``spec``. Bit i of a cover mask is the i-th
    constraint the verifier scans; bit n-2-j of a column-pair mask stands
    for columns (j, j+1); a q > 2 candidate's pair masks are read from its
    digits on first use.

    A non-final row's scan walks the slice from ``last`` to its bound of
    ``_tie_list``'s candidates for its ``tied`` mask, and counts its nodes
    from the candidate index. It tests the budget before each child and at
    the scan's end: a budget that runs out mid-scan is caught at the end, no
    more than q**n <= node_limit candidates late, with the same outcome. The
    tie lists and the q > 2 pair masks are dropped together before they
    would hold more than ``_TIE_CAP`` candidates.

    A final row whose uncovered constraints require two symbols at one
    column, or one at every column, is decided without a scan, by two passes
    over the columns' sets. Its nodes are those the scan would count: the
    covers from ``last`` on when no row fits, those up to the forced row
    when it fits, and out of nodes where the scan would run out first.
    """
    n, q, limit = spec.n, spec.q, budget.node_limit
    try:
        _check_work(spec, "search")
    except ResourceLimitError:
        return SearchOutcome("budget_exceeded", nodes=0)
    count = nodes = q**n
    if nodes > limit:
        return SearchOutcome("budget_exceeded", nodes=limit + 1)
    index, cover, suffix_or, suffix_max, max_row_for = _scan_tables(spec)
    # (a symbol's set, the sets of the symbols after it) for each column, and
    # (a symbol's set, what the symbol adds to a candidate's index).
    clashes = [(held, sum(sets[c + 1:])) for sets in index for c, held in enumerate(sets[:-1])]
    symbols = [(held, c * q ** (n - 1 - j)) for j, sets in enumerate(index) for c, held in enumerate(sets)]
    num_constraints = len(max_row_for)
    full = (1 << num_constraints) - 1

    # covers_of[c]: the candidates covering constraint c, in order, built
    # when the final-row loop first needs them.
    covers_of: dict[int, list[int]] = {}
    # fits[tied] is ``_tie_list(n, q, tied)``; memo[i] is q > 2 candidate
    # i's column pairs (decreasing, equal).
    fits: dict[int, list[int]] = {}
    memo: dict[int, tuple[int, int]] = {}
    cached = 0

    def room(size: int) -> None:
        nonlocal cached
        if cached + size > _TIE_CAP:
            fits.clear()
            memo.clear()
            cached = 0
        cached += size

    def pairs(i: int) -> tuple[int, int]:
        """Candidate i's column-pair masks, read from its base-q digits; for
        q = 2 they are (i >> 1) & ~i and ~(i ^ (i >> 1))."""
        if i not in memo:
            room(1)
            digits = [i // q**k % q for k in reversed(range(n))]
            dec = eq = 0
            for a, b in zip(digits, digits[1:]):
                dec, eq = dec << 1 | (a > b), eq << 1 | (a == b)
            memo[i] = dec, eq
        return memo[i]

    lower = -(-num_constraints // suffix_max[0])  # the coverage bound

    chosen: list[int] = []

    def dfs(last: int, uncovered: int, rows_left: int, tied: int) -> bool:
        """Whether rows_left more rows from ``last`` on, none decreasing a
        ``tied`` column pair, cover ``uncovered``; each candidate scanned
        costs a node."""
        # ``uncovered`` is never empty: a row leaving nothing uncovered with
        # rows to spare would end a shorter solution on this path, which the
        # previous deepening level, with the same order, ties and sound
        # prunes, would have found.
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise _OutOfNodes
        if uncovered & ~suffix_or[last]:
            return False
        first = (uncovered & -uncovered).bit_length() - 1
        if rows_left == 1:
            if first not in covers_of:
                nodes += count
                if nodes > limit:
                    raise _OutOfNodes
                # One byte per candidate, 1 where it holds every symbol the
                # constraint requires, joined a column at a time from the last.
                bit, block = 1 << first, b"\1"
                for sets in reversed(index):
                    if sum(sets) & bit:
                        zero = bytes(len(block))
                        block = b"".join(block if held & bit else zero for held in sets)
                    else:
                        block *= q
                covers_of[first] = list(compress(range(count), block))
            # A step per cover from ``last`` on, as far as the budget reaches.
            covers = covers_of[first]
            lo = bisect_left(covers, last)
            stop = min(len(covers), lo + limit - nodes)
            scan = range(lo, stop)
            # A row holds every symbol the uncovered constraints require: none
            # does when they require two at one column, and only one when they
            # require one at every column.
            for held, later in clashes:
                if uncovered & held and uncovered & later:
                    scan = ()
                    break
            else:
                forced = [value for held, value in symbols if uncovered & held]
                if len(forced) == n:
                    # Only its cover, where the scan from lo to stop reaches it.
                    k = bisect_left(covers, sum(forced))
                    scan = range(max(k, lo), min(k + 1, stop))
            for k in scan:
                i = covers[k]
                if uncovered & ~cover[i] == 0 and not tied & ((i >> 1) & ~i if q == 2 else pairs(i)[0]):
                    nodes += k + 1 - lo
                    chosen.append(i)
                    return True
            nodes += stop - lo
            if stop < len(covers):
                raise _OutOfNodes
            return False
        hi, need = max_row_for[first], uncovered.bit_count()
        fit = fits.get(tied)
        if fit is None:
            fit = _tie_list(n, q, tied)
            room(len(fit))
            fits[tied] = fit
        # Scanning candidate i, or skipping it for a tie, brings nodes to
        # base + i + 1.
        base = nodes - last
        for i in fit[bisect_left(fit, last):bisect_right(fit, hi)]:
            newly = cover[i] & uncovered
            if not newly:
                continue
            if need - newly.bit_count() > (rows_left - 1) * suffix_max[i]:
                continue
            nodes = base + i + 1
            if nodes > limit:
                raise _OutOfNodes
            chosen.append(i)
            if dfs(i, uncovered & ~cover[i], rows_left - 1,
                   tied & (~(i ^ (i >> 1)) if q == 2 else pairs(i)[1])):
                return True
            chosen.pop()
            base = nodes - i - 1
        nodes = base + hi + 1
        if nodes > limit:
            raise _OutOfNodes
        return False

    # Universal sets start from the all-zero row, candidate 0.
    start = [0] if isinstance(spec, UniversalSpec) else []
    uncovered = full & ~cover[0] if start else full
    try:
        for size in range(lower, budget.max_rows + 1):
            chosen[:] = start
            if dfs(0, uncovered, size - len(start), (1 << (n - 1)) - 1):
                # Candidate i's symbols are the n base-q digits of i.
                rows = tuple(tuple(i // q**k % q for k in reversed(range(n))) for i in chosen)
                certificate = SymbolMatrix(n=n, q=q, rows=rows)
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
    pattern per column subset). A spec whose q**n cover masks are estimated
    past the work budget is budget_exceeded with nodes 0.
    """
    if not isinstance(spec, UniversalSpec):
        raise ParameterError(f"expected a UniversalSpec, got {type(spec).__name__}")
    return _search_minimal(spec, budget)


def minimal_cff_size(spec: CffSpec, budget: SearchBudget = SearchBudget()) -> SearchOutcome:
    """Exact smallest size of an (n, (r, s))-cover-free family.

    A spec whose 2**n cover masks are estimated past the work budget is
    budget_exceeded with nodes 0.
    """
    if not isinstance(spec, CffSpec):
        raise ParameterError(f"expected a CffSpec, got {type(spec).__name__}")
    return _search_minimal(spec, budget)
