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

A search either returns the exact minimum with a certificate, proves the
minimum exceeds ``max_rows``, or aborts cleanly when the node budget runs
out. It never returns a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .core import CffSpec, SymbolMatrix, UniversalSpec, _column_index
from .core import _check_constraint_cap, _power_over
from .errors import ParameterError, ResourceLimitError
from .verify import _cff_requirements, _universal_requirements

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
    status "budget_exceeded": the node limit was hit first, or the row space
    or the constraint set was over its cap (then nodes is 0); nothing is
    claimed.
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

    A row space past ROW_SPACE_CAP or a constraint set past CONSTRAINT_CAP
    is refused, with nodes 0, before anything is built. Bit i of a
    candidate's cover mask is constraint i. The masks are built a column at
    a time from ``_column_index``: symbol c at column j keeps the
    constraints requiring no other symbol there. They cost q**n nodes,
    charged before they are built. Each constraint's last cover is read off
    the suffix ORs of the masks; the list of all its covers, which only the
    final-row loop uses, is built by a scan of the masks the first time
    that loop needs it. Deepening starts at the coverage bound."""
    n, limit = spec.n, budget.node_limit
    if isinstance(spec, UniversalSpec):
        q, requirements = spec.q, _universal_requirements(n, spec.d, spec.q)
    else:
        q, requirements = 2, _cff_requirements(n, spec.r, spec.s)
    if _power_over(q, n, ROW_SPACE_CAP):
        return SearchOutcome("budget_exceeded", nodes=0)
    try:
        _check_constraint_cap(spec)
    except ResourceLimitError:
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
    # covers_of[c]: the candidates covering constraint c, built when the
    # final-row loop first needs them.
    covers_of: dict[int, list[int]] = {}

    lower = -(-num_constraints // suffix_max[0])  # the coverage bound

    chosen: list[int] = []

    def dfs(last: int, uncovered: int, rows_left: int) -> bool:
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
                bit = 1 << first
                covers_of[first] = [i for i, mask in enumerate(cover) if mask & bit]
            for i in covers_of[first]:
                if i >= last and uncovered & ~cover[i] == 0:
                    chosen.append(i)
                    return True
            return False
        hi, need = max_row_for[first], uncovered.bit_count()
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
                # Candidate i's symbols are the n base-q digits of i.
                rows = tuple(tuple(i // q**k % q for k in reversed(range(n))) for i in chosen)
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
    pattern per column subset). Requires q**n <= 2**20 and at most 2**26
    (columns, pattern) constraints.
    """
    return _search_minimal(spec, budget)


def minimal_cff_size(spec: CffSpec, budget: SearchBudget = SearchBudget()) -> SearchOutcome:
    """Exact smallest size of an (n, (r, s))-cover-free family.

    Requires 2**n <= 2**20 and at most 2**26 (R, S) constraints.
    """
    return _search_minimal(spec, budget)
