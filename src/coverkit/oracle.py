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
  only.

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

A search either returns the exact minimum with a certificate, proves the
minimum exceeds ``max_rows``, or aborts cleanly when the node budget runs
out. It never returns a wrong answer.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Literal

from .core import CffSpec, SymbolMatrix, UniversalSpec, _column_index
from .core import _num_constraints, _power_over
from .errors import ParameterError
from .verify import _cff_requirements, _universal_requirements

# Candidate row spaces larger than this are out of the oracle's scale.
ROW_SPACE_CAP = 2**20
# So are cover masks of more bits in all: q**n candidates times the
# constraint count.
MASK_BITS_CAP = 2**26


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
    node_limit + 1), or the row space, the constraint set or the cover masks
    were over their cap (then nodes is 0); nothing is claimed. nodes counts
    search nodes plus scanned candidates.
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


def _search_minimal(spec: UniversalSpec | CffSpec, budget: SearchBudget) -> SearchOutcome:
    """Search the q**n candidate rows, in ``product`` order, for the fewest
    meeting every constraint of ``spec``.

    A row space past ROW_SPACE_CAP or cover masks past MASK_BITS_CAP is
    refused, with nodes 0, before anything is built; as q**n >= 2, masks
    under their cap have at most 2**25 constraints, under CONSTRAINT_CAP.
    Bit i of a candidate's cover mask is constraint i. The masks are built a
    column at a time from ``_column_index``: symbol c at column j keeps the
    constraints requiring no other symbol there. They cost q**n
    nodes, charged before they are built. Each constraint's last cover is
    read off the suffix ORs of the masks; the list of all its covers, which
    only the final-row loop uses, is built by a scan of the masks (q**n
    nodes) the first time that loop needs it. Bit n-2-j of a column-pair
    mask stands for columns (j, j+1). Deepening starts at the coverage
    bound."""
    n, limit = spec.n, budget.node_limit
    if isinstance(spec, UniversalSpec):
        q, requirements = spec.q, _universal_requirements(n, spec.d, spec.q)
    else:
        q, requirements = 2, _cff_requirements(n, spec.r, spec.s)
    if _power_over(q, n, ROW_SPACE_CAP) or q**n * _num_constraints(spec) > MASK_BITS_CAP:
        return SearchOutcome("budget_exceeded", nodes=0)
    count = nodes = q**n
    if nodes > limit:
        return SearchOutcome("budget_exceeded", nodes=limit + 1)
    index, num_constraints = _column_index(n, q, requirements)
    full = (1 << num_constraints) - 1
    cover = [full]
    for sets in index:
        rest = full & ~sum(sets)
        allowed = [rest | held for held in sets]
        cover = [mask & extra for mask in cover for extra in allowed]
    # The column pairs where candidate i decreases (dec) or is equal (eq).
    # For q = 2 they are (i >> 1) & ~i and ~(i ^ (i >> 1)), computed inline.
    dec = eq = None
    if q > 2:
        dec = eq = [0] * q
        for _ in range(n - 1):
            dec = [pairs << 1 | (i % q > c) for i, pairs in enumerate(dec) for c in range(q)]
            eq = [pairs << 1 | (i % q == c) for i, pairs in enumerate(eq) for c in range(q)]

    suffix_or = [0] * (count + 1)
    suffix_max = [0] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | cover[i]
        pc = cover[i].bit_count()
        suffix_max[i] = pc if pc > suffix_max[i + 1] else suffix_max[i + 1]

    # A constraint's last cover is the candidate past which the suffix ORs
    # no longer hold it.
    max_row_for = [0] * num_constraints
    for i in range(count):
        ends = suffix_or[i] & ~suffix_or[i + 1]
        while ends:
            low = ends & -ends
            max_row_for[low.bit_length() - 1] = i
            ends ^= low
    # covers_of[c]: the candidates covering constraint c, in order, built
    # when the final-row loop first needs them.
    covers_of: dict[int, list[int]] = {}

    lower = -(-num_constraints // suffix_max[0])  # the coverage bound

    chosen: list[int] = []

    def dfs(last: int, uncovered: int, rows_left: int, tied: int) -> bool:
        """Whether rows_left more rows from ``last`` on, none decreasing a
        ``tied`` column pair, cover ``uncovered``; each candidate scanned
        costs a node."""
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise _OutOfNodes
        if not uncovered:
            return True
        if uncovered & ~suffix_or[last]:
            return False
        first = (uncovered & -uncovered).bit_length() - 1
        if rows_left == 1:
            if first not in covers_of:
                nodes += count
                if nodes > limit:
                    raise _OutOfNodes
                bit = 1 << first
                covers_of[first] = [i for i, mask in enumerate(cover) if mask & bit]
            # A step per cover from ``last`` on, as far as the budget reaches.
            covers = covers_of[first]
            lo = bisect_left(covers, last)
            stop = min(len(covers), lo + limit - nodes)
            for k in range(lo, stop):
                i = covers[k]
                if uncovered & ~cover[i] == 0 and not tied & (dec[i] if dec else (i >> 1) & ~i):
                    nodes += k + 1 - lo
                    chosen.append(i)
                    return True
            nodes += stop - lo
            if stop < len(covers):
                raise _OutOfNodes
            return False
        hi, need = max_row_for[first], uncovered.bit_count()
        for i in range(last, hi + 1):
            nodes += 1
            if nodes > limit:
                raise _OutOfNodes
            if tied & (dec[i] if dec else (i >> 1) & ~i):
                continue
            newly = cover[i] & uncovered
            if not newly:
                continue
            if need - newly.bit_count() > (rows_left - 1) * suffix_max[i]:
                continue
            chosen.append(i)
            if dfs(i, uncovered & ~cover[i], rows_left - 1,
                   tied & (eq[i] if eq else ~(i ^ (i >> 1)))):
                return True
            chosen.pop()
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
    pattern per column subset). Requires q**n <= 2**20, at most 2**26
    (columns, pattern) constraints and at most 2**26 cover-mask bits (q**n
    times the constraint count).
    """
    return _search_minimal(spec, budget)


def minimal_cff_size(spec: CffSpec, budget: SearchBudget = SearchBudget()) -> SearchOutcome:
    """Exact smallest size of an (n, (r, s))-cover-free family.

    Requires 2**n <= 2**20, at most 2**26 (R, S) constraints and at most
    2**26 cover-mask bits (2**n times the constraint count).
    """
    return _search_minimal(spec, budget)
