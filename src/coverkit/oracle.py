"""Exact minimal-size search for tiny instances.

Iterative deepening on the row count N: for each N from the coverage lower
bound upward, a backtracking search looks for a row multiset of size N
meeting every constraint. Rows are explored in nondecreasing lexicographic
order, which kills permutation symmetry without losing completeness.

Sound prunes on top of the basic scheme (none can change an answer):

* optimistic coverage: give up when the uncovered count exceeds
  rows-left times the best single-row coverage among remaining candidates;
* reachability: give up when some uncovered constraint is covered by no
  remaining candidate;
* the next row must leave the first uncovered constraint coverable, so its
  index cannot exceed the largest candidate covering that constraint;
* rows covering nothing new are skipped (a solution containing one would
  shrink to a solution at the previous depth, already proven infeasible);
* the final row is drawn from the covers of the first uncovered constraint
  only.

A search either returns the exact minimum with a certificate, proves the
minimum exceeds ``max_rows``, or aborts cleanly when the node budget runs
out. It never returns a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Literal

from .core import CffSpec, SymbolMatrix, UniversalSpec
from .errors import ParameterError
from .verify import _cff_pairs

# Candidate row spaces larger than this are out of the oracle's scale.
ROW_SPACE_CAP = 2**20


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
    status "budget_exceeded": the node limit (or the row-space cap) was hit
    first; nothing is claimed.
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


def _search_minimal(
    cover_of: Callable[[tuple[int, ...]], int],
    num_constraints: int,
    budget: SearchBudget,
    *,
    n: int,
    q: int,
    start: int,
) -> SearchOutcome:
    """Search over all q**n candidate rows; ``cover_of(row)`` is the bitmask
    of the constraints a row meets. Each precomputed mask costs one node."""
    limit = budget.node_limit
    candidates = list(product(range(q), repeat=n))
    cover = []
    nodes = 0
    for row in candidates:
        nodes += 1
        if nodes > limit:
            return SearchOutcome("budget_exceeded", nodes=nodes)
        cover.append(cover_of(row))
    count = len(candidates)
    full = (1 << num_constraints) - 1

    suffix_or = [0] * (count + 1)
    suffix_max = [0] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | cover[i]
        pc = cover[i].bit_count()
        suffix_max[i] = pc if pc > suffix_max[i + 1] else suffix_max[i + 1]
    if suffix_or[0] != full:
        # Some constraint no row can cover: impossible at any size.
        return SearchOutcome("infeasible", nodes=nodes)

    covers_of: list[list[int]] = [[] for _ in range(num_constraints)]
    for i, mask in enumerate(cover):
        while mask:
            low = mask & -mask
            covers_of[low.bit_length() - 1].append(i)
            mask ^= low
    max_row_for = [rows[-1] for rows in covers_of]

    best_per_row = suffix_max[0]
    lower = max(start, -(-num_constraints // best_per_row))

    chosen: list[int] = []

    def dfs(last: int, uncovered: int, rows_left: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise _OutOfNodes
        if not uncovered:
            return True
        if rows_left == 0:
            return False
        if uncovered & ~suffix_or[last]:
            return False
        need = uncovered.bit_count()
        smax = suffix_max[last]
        if need > rows_left * smax:
            return False
        first = (uncovered & -uncovered).bit_length() - 1
        if rows_left == 1:
            for i in covers_of[first]:
                if i >= last and uncovered & ~cover[i] == 0:
                    chosen.append(i)
                    return True
            return False
        hi = max_row_for[first]
        for i in range(last, hi + 1):
            newly = cover[i] & uncovered
            if not newly:
                continue
            if need - newly.bit_count() > (rows_left - 1) * suffix_max[i]:
                continue
            chosen.append(i)
            if dfs(i, uncovered & ~cover[i], rows_left - 1):
                return True
            chosen.pop()
        return False

    try:
        for size in range(lower, budget.max_rows + 1):
            chosen.clear()
            if dfs(0, full, size):
                rows = tuple(candidates[i] for i in chosen)
                certificate = SymbolMatrix(n=n, q=q, rows=rows)
                return SearchOutcome("found", size=size, certificate=certificate, nodes=nodes)
    except _OutOfNodes:
        return SearchOutcome("budget_exceeded", nodes=nodes)
    finally:
        del dfs  # a self-referencing closure: free its masks now, not at the next gc
    return SearchOutcome("infeasible", nodes=nodes)


def minimal_universal_size(
    spec: UniversalSpec, budget: SearchBudget = SearchBudget()
) -> SearchOutcome:
    """Exact smallest size of an (n, d)-universal set over q symbols.

    Deepening starts at q**d, the coverage lower bound (a row realizes one
    pattern per column subset). Requires q**n <= 2**20.
    """
    n, d, q = spec.n, spec.d, spec.q
    if q**n > ROW_SPACE_CAP:
        return SearchOutcome("budget_exceeded", nodes=0)

    subsets = list(combinations(range(n), d))
    qd = q**d

    def cover_of(row: tuple[int, ...]) -> int:
        mask = 0
        base = 0
        for S in subsets:
            idx = 0
            for j in S:
                idx = idx * q + row[j]
            mask |= 1 << (base + idx)
            base += qd
        return mask

    return _search_minimal(cover_of, len(subsets) * qd, budget, n=n, q=q, start=qd)


def minimal_cff_size(spec: CffSpec, budget: SearchBudget = SearchBudget()) -> SearchOutcome:
    """Exact smallest size of an (n, (r, s))-cover-free family.

    Requires 2**n <= 2**20.
    """
    n, r, s = spec.n, spec.r, spec.s
    if 2**n > ROW_SPACE_CAP:
        return SearchOutcome("budget_exceeded", nodes=0)

    pairs = [(rmask, smask) for _, _, rmask, smask in _cff_pairs(n, r, s)]

    def cover_of(row: tuple[int, ...]) -> int:
        rowmask = 0
        for j, bit in enumerate(row):
            rowmask |= bit << j
        mask = 0
        for c, (rmask, smask) in enumerate(pairs):
            if rowmask & rmask == rmask and rowmask & smask == 0:
                mask |= 1 << c
        return mask

    return _search_minimal(cover_of, len(pairs), budget, n=n, q=2, start=1)
